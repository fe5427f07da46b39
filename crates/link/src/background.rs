//! Background cross-traffic generators.
//!
//! The paper measures "in the wild": home WiFi shares a residential Comcast
//! backhaul, and the coffee-shop hotspot serves 15–20 active customers. We
//! reproduce that contention with on/off sources that inject tagged frames
//! into the *same* drop-tail queues the measured flow traverses.
//!
//! A source is not an agent: it is a state machine its [`LinkAgent`] drives
//! on the link's own timeline (see [`crate::link`]), so a cross-traffic frame
//! costs no engine event until a foreground frame could see it. Its draws
//! come from its own stream in a fixed order — phase, dwell, then gap at
//! start; dwell, then gap at a toggle; one gap per frame — so a run draws
//! the same numbers whichever way the link is driven.
//!
//! [`LinkAgent`]: crate::LinkAgent

use bytes::Bytes;
use mpw_sim::{serialization_delay, Frame, SimDuration, SimRng, SimTime};

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

/// When a source's next toggle or frame is due: the instant, then the
/// order in which it was scheduled among the link's sources (the engine's
/// `(time, insertion sequence)` order, kept per link).
pub(crate) type Due = (SimTime, u64);

/// An on/off source from the start of the run to its end: ON, it emits
/// frames with exponential gaps at its ON rate; it toggles after
/// exponential dwells.
pub(crate) struct OnOff {
    cfg: OnOffConfig,
    rng: SimRng,
    on: bool,
    /// The next toggle; `SimTime::MAX` until started.
    toggle: Due,
    /// The next frame, while ON.
    frame: Option<Due>,
    /// One zero-filled frame payload, allocated once and refcount-shared by
    /// every injected frame (cloning `Bytes` is O(1)).
    prototype: Bytes,
}

impl OnOff {
    pub(crate) fn new(cfg: OnOffConfig, rng: SimRng) -> Self {
        let prototype = Bytes::from(vec![0u8; cfg.frame_bytes]);
        OnOff {
            cfg,
            rng,
            on: false,
            toggle: (SimTime::MAX, 0),
            frame: None,
            prototype,
        }
    }

    /// Begin at `now` with a random initial phase: some sources start
    /// mid-burst. `seq` numbers the link's schedulings.
    pub(crate) fn start(&mut self, now: SimTime, seq: &mut u64) {
        let (on, off) = (self.cfg.mean_on.as_secs_f64(), self.cfg.mean_off.as_secs_f64());
        self.on = self.rng.chance(on / (on + off));
        self.schedule_toggle(now, seq);
        if self.on {
            self.schedule_frame(now, seq);
        }
    }

    /// The earliest of the next toggle and the next frame. A toggle is
    /// always scheduled before the frame pending beside it, so at one
    /// instant the toggle comes first.
    pub(crate) fn next(&self) -> Due {
        self.frame.map_or(self.toggle, |f| f.min(self.toggle))
    }

    /// The instant of the next toggle.
    pub(crate) fn toggle_at(&self) -> SimTime {
        self.toggle.0
    }

    /// Run the event [`OnOff::next`] names: a toggle returns `None`, a
    /// frame returns the frame to inject.
    pub(crate) fn fire(&mut self, seq: &mut u64) -> Option<Frame> {
        match self.frame {
            Some(f) if f < self.toggle => {
                self.schedule_frame(f.0, seq);
                Some(Frame::tagged(self.prototype.clone(), BACKGROUND_META))
            }
            _ => {
                let now = self.toggle.0;
                self.on = !self.on;
                self.schedule_toggle(now, seq);
                if self.on {
                    self.schedule_frame(now, seq);
                } else {
                    // Going quiet: the pending frame is never sent.
                    self.frame = None;
                }
                None
            }
        }
    }

    fn schedule_toggle(&mut self, now: SimTime, seq: &mut u64) {
        let mean = if self.on { self.cfg.mean_on } else { self.cfg.mean_off };
        let dwell = SimDuration::from_secs_f64(self.rng.exponential(mean.as_secs_f64()).max(1e-6));
        self.toggle = (now + dwell, next_seq(seq));
    }

    fn schedule_frame(&mut self, now: SimTime, seq: &mut u64) {
        // Inter-frame gap at the ON rate, randomized (Poisson-in-ON).
        let gap = serialization_delay(self.cfg.frame_bytes, self.cfg.on_rate_bps);
        let jittered = SimDuration::from_secs_f64(
            self.rng.exponential(gap.as_secs_f64().max(1e-9)),
        );
        self.frame = Some((now + jittered, next_seq(seq)));
    }
}

fn next_seq(seq: &mut u64) -> u64 {
    *seq += 1;
    *seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkAgent, LinkConfig, NullSink};
    use mpw_sim::trace::TraceLevel;
    use mpw_sim::World;

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
        let cfg = OnOffConfig {
            on_rate_bps: 8_000_000,
            mean_on: SimDuration::from_millis(400),
            mean_off: SimDuration::from_millis(400),
            frame_bytes: 1000,
        };
        let expect_bps = cfg.mean_load_bps();
        link.add_source(cfg, w.rng().stream("src"));
        w.add_agent(Box::new(link));
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
        // The link's toggle wake and service timers are raw: a source holds
        // no cancellable timer, ON or OFF.
        assert_eq!(w.live_timers(), 0);
    }

    #[test]
    fn a_toggle_precedes_the_frame_due_beside_it() {
        let cfg = OnOffConfig {
            on_rate_bps: 8_000_000,
            mean_on: SimDuration::from_millis(1),
            mean_off: SimDuration::from_millis(1),
            frame_bytes: 1000,
        };
        let mut src = OnOff::new(cfg, SimRng::seeded(3));
        let mut seq = 0;
        src.start(SimTime::ZERO, &mut seq);
        src.on = true;
        src.frame = Some((src.toggle.0, next_seq(&mut seq)));
        assert!(src.fire(&mut seq).is_none(), "the toggle ran first");
        assert!(!src.on && src.frame.is_none(), "and retracted the frame");
    }
}
