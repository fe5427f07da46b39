//! Background cross-traffic generators.
//!
//! The paper measures "in the wild": home WiFi shares a residential Comcast
//! backhaul, and the coffee-shop hotspot serves 15–20 active customers. We
//! reproduce that contention with on/off sources that inject tagged frames
//! into the *same* drop-tail queues the measured flow traverses.

use bytes::Bytes;
use mpw_sim::{
    serialization_delay, Agent, AgentId, Ctx, Event, Frame, SimDuration, SimRng, TimerHandle,
};

/// Frame tag carried by background traffic (routed to the sink by links).
pub const BACKGROUND_META: u16 = 0xBB;

/// Configuration of one on/off background source.
#[derive(Clone, Debug)]
pub struct OnOffConfig {
    /// Sending rate while in the ON state, bits per second.
    pub on_rate_bps: u64,
    /// Mean duration of ON periods (exponential).
    pub mean_on: SimDuration,
    /// Mean duration of OFF periods (exponential).
    pub mean_off: SimDuration,
    /// Frame size in bytes.
    pub frame_bytes: usize,
}

impl OnOffConfig {
    /// Long-run average offered load in bits per second.
    pub fn mean_load_bps(&self) -> f64 {
        let on = self.mean_on.as_secs_f64();
        let off = self.mean_off.as_secs_f64();
        self.on_rate_bps as f64 * on / (on + off)
    }
}

const TOKEN_FRAME: u64 = 1;
const TOKEN_TOGGLE: u64 = 2;

/// An on/off background source injecting tagged frames into a link queue,
/// from the start of the run to its end.
pub struct OnOffSource {
    cfg: OnOffConfig,
    rng: SimRng,
    target: (AgentId, u16),
    on: bool,
    frame_timer: Option<TimerHandle>,
    /// One zero-filled frame payload, allocated once and refcount-shared by
    /// every injected frame (background sources fire per-frame on busy
    /// links; cloning `Bytes` is O(1)).
    prototype: Bytes,
    /// Frames injected so far.
    pub frames_sent: u64,
}

impl OnOffSource {
    /// Create a source injecting into `target` (agent, port).
    pub fn new(cfg: OnOffConfig, rng: SimRng, target: (AgentId, u16)) -> Self {
        let prototype = Bytes::from(vec![0u8; cfg.frame_bytes]);
        OnOffSource {
            cfg,
            rng,
            target,
            on: false,
            frame_timer: None,
            prototype,
            frames_sent: 0,
        }
    }

    fn schedule_toggle(&mut self, ctx: &mut Ctx<'_>) {
        let mean = if self.on { self.cfg.mean_on } else { self.cfg.mean_off };
        let dwell = SimDuration::from_secs_f64(self.rng.exponential(mean.as_secs_f64()).max(1e-6));
        // Never cancelled (a source toggles for the whole run), so a raw timer.
        ctx.set_timer(dwell, TOKEN_TOGGLE);
    }

    fn schedule_frame(&mut self, ctx: &mut Ctx<'_>) {
        // Inter-frame gap at the ON rate, randomized (Poisson-in-ON).
        let gap = serialization_delay(self.cfg.frame_bytes, self.cfg.on_rate_bps);
        let jittered = SimDuration::from_secs_f64(
            self.rng.exponential(gap.as_secs_f64().max(1e-9)),
        );
        self.frame_timer = Some(ctx.arm_timer(jittered, TOKEN_FRAME));
    }
}

impl Agent for OnOffSource {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {
                // Random initial phase: some sources start mid-burst.
                self.on = self.rng.chance(
                    self.cfg.mean_on.as_secs_f64()
                        / (self.cfg.mean_on.as_secs_f64() + self.cfg.mean_off.as_secs_f64()),
                );
                self.schedule_toggle(ctx);
                if self.on {
                    self.schedule_frame(ctx);
                }
            }
            Event::Timer { token } => {
                if token == TOKEN_TOGGLE {
                    self.on = !self.on;
                    self.schedule_toggle(ctx);
                    if self.on {
                        self.schedule_frame(ctx);
                    } else if let Some(h) = self.frame_timer.take() {
                        // Going quiet: retract the pending frame instead of
                        // letting a stale timer fire and be ignored.
                        ctx.cancel_timer(h);
                    }
                } else if token == TOKEN_FRAME {
                    self.frame_timer = None;
                    if self.on {
                        let bytes = self.prototype.clone();
                        ctx.send_frame(
                            self.target.0,
                            self.target.1,
                            SimDuration::ZERO,
                            Frame::tagged(bytes, BACKGROUND_META),
                        );
                        self.frames_sent += 1;
                        self.schedule_frame(ctx);
                    }
                }
            }
            Event::Frame { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkAgent, LinkConfig, NullSink};
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::{SimTime, World};

    #[test]
    fn mean_load_formula() {
        let cfg = OnOffConfig {
            on_rate_bps: 10_000_000,
            mean_on: SimDuration::from_millis(500),
            mean_off: SimDuration::from_millis(1500),
            frame_bytes: 1500,
        };
        assert!((cfg.mean_load_bps() - 2_500_000.0).abs() < 1.0);
    }

    #[test]
    fn offered_load_matches_config() {
        let mut w = World::new(7, TraceLevel::Off);
        let bg_sink = w.add_agent(Box::new(NullSink::default()));
        let fg_sink = w.add_agent(Box::new(NullSink::default()));
        // A fat link so queueing never limits the source.
        let mut link = LinkAgent::new(
            LinkConfig::wired(1_000_000_000, SimDuration::from_millis(1), 1 << 26),
            w.rng().stream("link"),
            (fg_sink, 0),
        );
        link.set_sink((bg_sink, 0));
        let link = w.add_agent(Box::new(link));
        let cfg = OnOffConfig {
            on_rate_bps: 8_000_000,
            mean_on: SimDuration::from_millis(400),
            mean_off: SimDuration::from_millis(400),
            frame_bytes: 1000,
        };
        let expect_bps = cfg.mean_load_bps();
        let src = OnOffSource::new(cfg, w.rng().stream("src"), (link, 0));
        let src = w.add_agent(Box::new(src));
        let horizon = SimTime::from_secs(120);
        w.run_until(horizon);
        let sink = w.agent::<NullSink>(bg_sink).unwrap();
        let got_bps = sink.bytes as f64 * 8.0 / 120.0;
        assert!(
            (got_bps - expect_bps).abs() / expect_bps < 0.15,
            "offered {got_bps} expected {expect_bps}"
        );
        // Nothing leaked to the foreground egress.
        assert_eq!(w.agent::<NullSink>(fg_sink).unwrap().frames, 0);
        // The only cancellable timer is an ON source's next frame: the
        // toggle and the link's service completions ride raw timers.
        let on = w.agent::<OnOffSource>(src).unwrap().on;
        assert_eq!(w.live_timers(), usize::from(on));
    }
}
