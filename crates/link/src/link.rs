//! The unidirectional link agent.
//!
//! One [`LinkAgent`] models everything a packet experiences in one direction
//! of an access path: a drop-tail buffer (sized generously on cellular links
//! to reproduce *bufferbloat*), serialization at a possibly time-varying
//! rate, channel loss, link-layer ARQ (cellular local retransmission that
//! hides loss from TCP at the cost of delay), RRC promotion gating, and
//! propagation delay with optional jitter. Delivery order is preserved.

use std::collections::VecDeque;

use mpw_sim::tap::{DropReason, SharedObserver};
use mpw_sim::{serialization_delay, Agent, AgentId, Ctx, Event, Frame, SimDuration, SimRng, SimTime};

use crate::loss::LossModel;
use crate::rate::RateProcess;

/// Random extra per-packet delay added on top of fixed propagation.
#[derive(Clone, Debug)]
pub enum Jitter {
    /// No jitter.
    None,
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: SimDuration,
        /// Upper bound.
        hi: SimDuration,
    },
    /// Log-normal with the given mean and shape; heavy-tailed, used for
    /// cellular scheduler latency.
    LogNormal {
        /// Mean extra delay.
        mean: SimDuration,
        /// Sigma of the underlying normal (tail heaviness).
        sigma: f64,
    },
}

impl Jitter {
    fn draw(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            Jitter::None => SimDuration::ZERO,
            Jitter::Uniform { lo, hi } => {
                if hi <= lo {
                    *lo
                } else {
                    SimDuration::from_nanos(rng.range_u64(lo.as_nanos(), hi.as_nanos() + 1))
                }
            }
            Jitter::LogNormal { mean, sigma } => {
                SimDuration::from_secs_f64(rng.lognormal_with_mean(mean.as_secs_f64(), *sigma))
            }
        }
    }
}

/// Link-layer ARQ (local retransmission) parameters.
#[derive(Clone, Copy, Debug)]
pub struct ArqConfig {
    /// Time to detect a corrupted frame and retransmit it locally.
    pub retry_delay: SimDuration,
    /// Maximum retransmission attempts before the frame is dropped.
    pub max_retries: u32,
}

/// Radio Resource Control promotion model (cellular antenna state machine).
#[derive(Clone, Copy, Debug)]
pub struct RrcConfig {
    /// Idle → ready promotion delay.
    pub promotion_delay: SimDuration,
    /// Inactivity period after which the radio demotes to idle.
    pub idle_timeout: SimDuration,
}

/// Full configuration of one link direction.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Service-rate process.
    pub rate: RateProcess,
    /// Fixed one-way propagation delay (includes any wired backhaul).
    pub prop_delay: SimDuration,
    /// Extra random per-packet delay.
    pub jitter: Jitter,
    /// Drop-tail buffer size in bytes.
    pub buffer_bytes: usize,
    /// Channel loss process (applied per transmission attempt).
    pub loss: LossModel,
    /// Link-layer ARQ; `None` means losses are surfaced to the transport.
    pub arq: Option<ArqConfig>,
    /// RRC promotion; `None` for always-on links (WiFi, wired).
    pub rrc: Option<RrcConfig>,
}

impl LinkConfig {
    /// A plain wired link: fixed rate, no loss, modest buffer.
    pub fn wired(bits_per_sec: u64, prop_delay: SimDuration, buffer_bytes: usize) -> Self {
        LinkConfig {
            rate: RateProcess::fixed(bits_per_sec),
            prop_delay,
            jitter: Jitter::None,
            buffer_bytes,
            loss: LossModel::None,
            arq: None,
            rrc: None,
        }
    }

    /// Idle base RTT contribution of this direction for a frame of
    /// `frame_bytes` at the current mean rate (no queueing, no jitter).
    pub fn base_one_way(&self, frame_bytes: usize) -> SimDuration {
        let ser = serialization_delay(frame_bytes, self.rate.mean_rate().max(1.0) as u64);
        self.prop_delay + ser
    }
}

/// Counters exposed for calibration and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Frames accepted into the queue.
    pub enqueued: u64,
    /// Frames delivered to the egress.
    pub delivered: u64,
    /// Bytes delivered to the egress.
    pub delivered_bytes: u64,
    /// Frames dropped because the buffer was full.
    pub dropped_overflow: u64,
    /// Frames dropped by the channel (no ARQ, or ARQ exhausted).
    pub dropped_channel: u64,
    /// Frames dropped because the link was administratively down.
    pub dropped_down: u64,
    /// Local ARQ retransmissions performed.
    pub arq_retries: u64,
    /// RRC promotions performed.
    pub promotions: u64,
    /// Peak queue occupancy in bytes.
    pub peak_queue_bytes: u64,
}

/// A drop tap attached to one link direction: the frames the link
/// discards (overflow, channel loss, ARQ exhaustion, a downed link), which
/// real tcpdump never sees and the simulator can. The frames the link
/// carries are observed on the hosts at its ends (`mpw_mptcp::Host::tap`).
/// Tagged background frames (`meta != 0`) are not observed: their payloads
/// are synthetic filler that does not parse as TCP. Taps are pure
/// observation — they never draw from the link's RNG or schedule events, so
/// enabling one cannot perturb the simulation.
pub struct LinkTap {
    /// Observer receiving the raw wire bytes.
    pub observer: SharedObserver,
    /// Capture-interface id the drops are reported under.
    pub drops: u32,
}

const TOKEN_SERVICE: u64 = 1 << 56;
const TOKEN_RESUME: u64 = 1 << 57;

/// Where a cellular radio's RRC state machine stands.
enum RrcState {
    Ready { last_active: SimTime },
    Promoting { ready_at: SimTime },
}

/// A unidirectional link component. Frames received on any port are queued
/// and eventually delivered to the configured egress (or, for tagged
/// background frames, to the sink).
pub struct LinkAgent {
    cfg: LinkConfig,
    rng: SimRng,
    egress: (AgentId, u16),
    /// Where frames with a non-zero meta tag go (background traffic sink).
    sink: Option<(AgentId, u16)>,
    q: VecDeque<Frame>,
    q_bytes: usize,
    in_service: Option<Frame>,
    /// The radio of a cellular link: its RRC timers (taken from `cfg`,
    /// whose `rrc` is then `None`) and where it stands. `None` for an
    /// always-on link.
    rrc: Option<(RrcConfig, RrcState)>,
    /// Administratively down (scenario `Down` event): every frame touching
    /// the link is lost until `set_down(false)`.
    down: bool,
    last_delivery: SimTime,
    /// Foreground (untagged, `meta == 0`) frames queued or in service.
    fg_held: usize,
    /// Latest arrival time handed to a foreground frame: until the clock
    /// reaches it, that frame is still propagating to the egress.
    fg_last_arrival: SimTime,
    stats: LinkStats,
    /// Optional drop tap. `None` (the default) costs one branch per
    /// dropped frame.
    tap: Option<LinkTap>,
}

impl LinkAgent {
    /// Create a link that forwards to `egress` (agent, port).
    pub fn new(mut cfg: LinkConfig, rng: SimRng, egress: (AgentId, u16)) -> Self {
        // A radio starts idle: the first frame pays the promotion delay
        // (unless the harness warms the path up, as the paper did).
        let rrc = cfg.rrc.take().map(|rrc| (rrc, RrcState::Promoting { ready_at: SimTime::MAX }));
        LinkAgent {
            cfg,
            rng,
            egress,
            sink: None,
            q: VecDeque::new(),
            q_bytes: 0,
            in_service: None,
            rrc,
            down: false,
            last_delivery: SimTime::ZERO,
            fg_held: 0,
            fg_last_arrival: SimTime::ZERO,
            stats: LinkStats::default(),
            tap: None,
        }
    }

    /// Route tagged (background) frames to a sink instead of the egress.
    pub fn set_sink(&mut self, sink: (AgentId, u16)) {
        self.sink = Some(sink);
    }

    /// Attach a drop tap to this link direction.
    pub fn set_tap(&mut self, tap: LinkTap) {
        self.tap = Some(tap);
    }

    #[inline]
    fn tap_drop(&self, at: SimTime, reason: DropReason, frame: &Frame) {
        if let Some(tap) = &self.tap {
            if frame.meta == 0 {
                tap.observer.borrow_mut().dropped(at, tap.drops, reason, &frame.bytes);
            }
        }
    }

    /// Replace the channel loss model mid-run (failure injection: e.g. the
    /// client walks out of WiFi range).
    pub fn set_loss(&mut self, loss: LossModel) {
        self.cfg.loss = loss;
    }

    /// Replace the service-rate process mid-run (bandwidth ramps, capacity
    /// collapse under fading). The frame currently in service keeps its old
    /// serialization time; the next one samples the new process.
    pub fn set_rate(&mut self, rate: RateProcess) {
        self.cfg.rate = rate;
    }

    /// Administratively take the link down or bring it back up. While down,
    /// newly arriving frames are dropped at ingress and frames finishing
    /// service are lost, so the transport sees a total blackout rather than
    /// queue growth — the link-failure signal the path lifecycle manager
    /// keys on.
    pub fn set_down(&mut self, down: bool) {
        self.down = down;
    }

    /// Whether the link is administratively down.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Snapshot of counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Current queue occupancy in bytes (including the frame in service).
    pub fn queue_bytes(&self) -> usize {
        self.q_bytes
    }

    /// Whether this link owes the egress nothing at `now`: no foreground
    /// (untagged) frame is queued, in service, or delivered but still
    /// propagating. Tagged background frames do not count: they end at the
    /// sink every built path sets and taps skip them, so a link carrying
    /// only cross traffic is idle to everything a measurement can observe.
    pub fn foreground_idle(&self, now: SimTime) -> bool {
        self.fg_held == 0 && self.fg_last_arrival <= now
    }

    /// Resolve the RRC gate at `now`: returns the earliest time service may
    /// start, updating promotion state.
    fn rrc_gate(&mut self, now: SimTime) -> SimTime {
        let Some((cfg, state)) = &mut self.rrc else {
            return now;
        };
        match state {
            RrcState::Ready { last_active } => {
                if now.saturating_since(*last_active) > cfg.idle_timeout {
                    // Radio went idle; promotion needed.
                    let ready_at = now + cfg.promotion_delay;
                    *state = RrcState::Promoting { ready_at };
                    self.stats.promotions += 1;
                    ready_at
                } else {
                    *last_active = now;
                    now
                }
            }
            RrcState::Promoting { ready_at } => {
                if *ready_at == SimTime::MAX {
                    // First ever activity.
                    let t = now + cfg.promotion_delay;
                    *ready_at = t;
                    self.stats.promotions += 1;
                    t
                } else if now >= *ready_at {
                    *state = RrcState::Ready { last_active: now };
                    now
                } else {
                    *ready_at
                }
            }
        }
    }

    fn try_start_service(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_service.is_some() {
            return;
        }
        let Some(frame) = self.q.pop_front() else {
            return;
        };
        let now = ctx.now();
        let start = self.rrc_gate(now).max(now);
        let rate = self.cfg.rate.rate_at(start, &mut self.rng);
        let ser = serialization_delay(frame.wire_len(), rate);
        self.in_service = Some(frame);
        let delay = start.saturating_since(now) + ser;
        ctx.set_timer(delay, TOKEN_SERVICE);
    }

    fn finish_service(&mut self, ctx: &mut Ctx<'_>) {
        let Some(frame) = self.in_service.take() else {
            return;
        };
        // Delivered or lost, the frame leaves the queue here.
        let foreground = frame.meta == 0;
        self.fg_held -= usize::from(foreground);
        let now = ctx.now();
        if let Some((_, state)) = &mut self.rrc {
            *state = RrcState::Ready { last_active: now };
        }

        // Channel fate: without ARQ a loss is a drop; with ARQ (cellular
        // HARQ/RLC) the frame is locally retransmitted. HARQ processes run
        // in parallel, so retries cost *delay* on this frame (and, through
        // in-order RLC delivery, on frames behind it) plus a small capacity
        // tax — they do not stall the link for a whole retry turnaround.
        // A frame completing service on a downed link is lost outright —
        // ARQ cannot save it because the radio is gone, not the channel.
        if self.down {
            self.q_bytes -= frame.wire_len();
            self.tap_drop(now, DropReason::LinkDown, &frame);
            self.stats.dropped_down += 1;
            self.try_start_service(ctx);
            return;
        }

        let mut tries = 0u32;
        let mut dropped = false;
        match self.cfg.arq {
            None => {
                dropped = self.cfg.loss.is_lost(&mut self.rng);
            }
            Some(arq) => {
                while self.cfg.loss.is_lost(&mut self.rng) {
                    tries += 1;
                    if tries > arq.max_retries {
                        dropped = true;
                        break;
                    }
                }
                self.stats.arq_retries += tries.min(arq.max_retries) as u64;
            }
        }

        self.q_bytes -= frame.wire_len();
        if dropped {
            let reason = if self.cfg.arq.is_some() {
                DropReason::ArqExhausted
            } else {
                DropReason::ChannelLoss
            };
            self.tap_drop(now, reason, &frame);
            self.stats.dropped_channel += 1;
            self.try_start_service(ctx);
            return;
        }

        // Capacity tax: each local retransmission re-occupies the channel
        // for one serialization time before the next frame can start.
        if tries > 0 {
            let rate = self.cfg.rate.rate_at(now, &mut self.rng);
            let ser = serialization_delay(frame.wire_len(), rate);
            let resume = ser * tries as u64;
            // Hold the server busy with a zero-length placeholder.
            self.in_service = Some(Frame::new(bytes::Bytes::new()));
            ctx.set_timer(resume, TOKEN_RESUME);
        }

        // Delivery: propagation + ARQ turnarounds + jitter, order-preserved.
        let arq_delay = match self.cfg.arq {
            Some(arq) => arq.retry_delay * tries as u64,
            None => SimDuration::ZERO,
        };
        let jitter = self.cfg.jitter.draw(&mut self.rng);
        let arrive = (now + self.cfg.prop_delay + arq_delay + jitter).max(self.last_delivery);
        self.last_delivery = arrive;
        let (dst, port) = if foreground {
            self.fg_last_arrival = arrive;
            self.egress
        } else {
            self.sink.unwrap_or(self.egress)
        };
        self.stats.delivered += 1;
        self.stats.delivered_bytes += frame.wire_len() as u64;
        ctx.send_frame(dst, port, arrive.saturating_since(now), frame);
        if self.in_service.is_none() {
            self.try_start_service(ctx);
        }
    }

    fn resume_service(&mut self, ctx: &mut Ctx<'_>) {
        // The capacity-tax placeholder completed; serve the next frame.
        self.in_service = None;
        self.try_start_service(ctx);
    }
}

impl Agent for LinkAgent {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Start => {}
            Event::Frame { frame, .. } => {
                let len = frame.wire_len();
                if self.down {
                    self.tap_drop(ctx.now(), DropReason::LinkDown, &frame);
                    self.stats.dropped_down += 1;
                    return;
                }
                if self.q_bytes + len > self.cfg.buffer_bytes {
                    self.tap_drop(ctx.now(), DropReason::QueueOverflow, &frame);
                    self.stats.dropped_overflow += 1;
                    return;
                }
                self.q_bytes += len;
                self.fg_held += usize::from(frame.meta == 0);
                self.stats.enqueued += 1;
                self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(self.q_bytes as u64);
                self.q.push_back(frame);
                self.try_start_service(ctx);
            }
            Event::Timer { token } => {
                if token == TOKEN_SERVICE {
                    self.finish_service(ctx);
                } else if token == TOKEN_RESUME {
                    self.resume_service(ctx);
                }
            }
        }
    }
}

/// A terminal agent that counts and discards every frame it receives. Used
/// as the destination for background cross traffic and in link-level tests.
#[derive(Default)]
pub struct NullSink {
    /// Frames received.
    pub frames: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Arrival times (kept only if `record` is set).
    pub arrivals: Vec<SimTime>,
    /// Whether to record every arrival time.
    pub record: bool,
}

impl NullSink {
    /// A sink that records per-frame arrival times (tests).
    pub fn recording() -> Self {
        NullSink {
            record: true,
            ..Default::default()
        }
    }
}

impl Agent for NullSink {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Frame { frame, .. } = ev {
            self.frames += 1;
            self.bytes += frame.wire_len() as u64;
            if self.record {
                self.arrivals.push(ctx.now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mpw_sim::{trace::TraceLevel, World};

    fn frame(n: usize) -> Frame {
        Frame::new(Bytes::from(vec![0u8; n]))
    }

    fn simple_cfg(rate_bps: u64, prop_ms: u64, buffer: usize) -> LinkConfig {
        LinkConfig {
            rate: RateProcess::fixed(rate_bps),
            prop_delay: SimDuration::from_millis(prop_ms),
            jitter: Jitter::None,
            buffer_bytes: buffer,
            loss: LossModel::None,
            arq: None,
            rrc: None,
        }
    }

    /// Build a world with sink <- link, return (world, link id, sink id).
    fn rig(cfg: LinkConfig) -> (World, AgentId, AgentId) {
        let mut w = World::new(99, TraceLevel::Off);
        let sink = w.add_agent(Box::new(NullSink::recording()));
        let rng = w.rng().stream("link.test");
        let link = w.add_agent(Box::new(LinkAgent::new(cfg, rng, (sink, 0))));
        (w, link, sink)
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        // 12 Mbps, 1500-byte frame => 1 ms serialization; prop 10 ms.
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 10, 1 << 20));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.arrivals, vec![SimTime::from_millis(11)]);
    }

    /// A service completion is never superseded, so it rides a raw timer:
    /// a serving link holds no cancellable timer and leaves no tombstone
    /// in the calendar's timer heap.
    #[test]
    fn a_serving_link_holds_no_cancellable_timer() {
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 10, 1 << 20));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until(SimTime::from_micros(500));
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().queue_bytes(), 1500, "mid-service");
        assert_eq!(w.live_timers(), 0);
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().arrivals, vec![SimTime::from_millis(11)]);
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 10, 1 << 20));
        for _ in 0..3 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        }
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(
            s.arrivals,
            vec![
                SimTime::from_millis(11),
                SimTime::from_millis(12),
                SimTime::from_millis(13)
            ]
        );
    }

    #[test]
    fn overflow_drops_excess() {
        // Buffer fits exactly two 1500-byte frames.
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 0, 3000));
        for _ in 0..5 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        }
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 2);
        let st = w.agent::<LinkAgent>(link).unwrap().stats();
        assert_eq!(st.dropped_overflow, 3);
    }

    #[test]
    fn channel_loss_without_arq_drops() {
        let mut cfg = simple_cfg(100_000_000, 0, 1 << 20);
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        let (mut w, link, sink) = rig(cfg);
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(100) });
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 0);
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().stats().dropped_channel, 1);
    }

    #[test]
    fn arq_recovers_loss_with_extra_delay() {
        // Deterministic: every first attempt fails (p=1 would never succeed,
        // so use a GE chain that loses exactly while in "bad" then recovers).
        // Simpler: p=0.5 with a fixed seed — verify statistically instead.
        let mut cfg = simple_cfg(12_000_000, 5, 1 << 24);
        cfg.loss = LossModel::Bernoulli { p: 0.3 };
        cfg.arq = Some(ArqConfig {
            retry_delay: SimDuration::from_millis(20),
            max_retries: 8,
        });
        let (mut w, link, sink) = rig(cfg);
        let n = 2000;
        for i in 0..n {
            w.schedule(
                SimTime::from_micros(i * 1_000_000), // well spaced
                link,
                Event::Frame { port: 0, frame: frame(1500) },
            );
        }
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        // With 8 retries at 30% loss, effectively everything is delivered...
        assert_eq!(s.frames, n);
        let st = w.agent::<LinkAgent>(link).unwrap().stats();
        // ...but ~30% of attempts needed local retransmission.
        let ratio = st.arq_retries as f64 / n as f64;
        assert!((ratio - 0.43).abs() < 0.1, "retry ratio {ratio}"); // 0.3/(1-0.3)
        assert_eq!(st.dropped_channel, 0);
    }

    #[test]
    fn arq_exhaustion_eventually_drops() {
        let mut cfg = simple_cfg(12_000_000, 0, 1 << 20);
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        cfg.arq = Some(ArqConfig {
            retry_delay: SimDuration::from_millis(1),
            max_retries: 3,
        });
        let (mut w, link, sink) = rig(cfg);
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 0);
        let st = w.agent::<LinkAgent>(link).unwrap().stats();
        assert_eq!(st.arq_retries, 3);
        assert_eq!(st.dropped_channel, 1);
    }

    #[test]
    fn jitter_never_reorders() {
        let mut cfg = simple_cfg(50_000_000, 5, 1 << 24);
        cfg.jitter = Jitter::LogNormal {
            mean: SimDuration::from_millis(30),
            sigma: 1.2,
        };
        let (mut w, link, sink) = rig(cfg);
        for i in 0..500u64 {
            w.schedule(
                SimTime::from_micros(i * 300),
                link,
                Event::Frame { port: 0, frame: frame(1400) },
            );
        }
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.frames, 500);
        let mut prev = SimTime::ZERO;
        for &t in &s.arrivals {
            assert!(t >= prev, "reordered arrival");
            prev = t;
        }
    }

    #[test]
    fn rrc_promotion_delays_first_frame_only() {
        let mut cfg = simple_cfg(12_000_000, 10, 1 << 20);
        cfg.rrc = Some(RrcConfig {
            promotion_delay: SimDuration::from_millis(500),
            idle_timeout: SimDuration::from_secs(5),
        });
        let (mut w, link, sink) = rig(cfg);
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.schedule(
            SimTime::from_millis(600),
            link,
            Event::Frame { port: 0, frame: frame(1500) },
        );
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        // First frame: 500 promotion + 1 ser + 10 prop = 511 ms.
        assert_eq!(s.arrivals[0], SimTime::from_millis(511));
        // Second frame arrives while ready: 600 + 1 + 10 = 611 ms.
        assert_eq!(s.arrivals[1], SimTime::from_millis(611));
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().stats().promotions, 1);
    }

    #[test]
    fn rrc_demotes_after_idle_timeout() {
        let mut cfg = simple_cfg(12_000_000, 10, 1 << 20);
        cfg.rrc = Some(RrcConfig {
            promotion_delay: SimDuration::from_millis(300),
            idle_timeout: SimDuration::from_secs(2),
        });
        let (mut w, link, sink) = rig(cfg);
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        // 10 s later — long past the idle timeout.
        w.schedule(SimTime::from_secs(10), link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.arrivals[0], SimTime::from_millis(311));
        assert_eq!(s.arrivals[1], SimTime::from_millis(10_311));
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().stats().promotions, 2);
    }

    #[test]
    fn tagged_frames_go_to_sink() {
        let mut w = World::new(1, TraceLevel::Off);
        let fg_sink = w.add_agent(Box::new(NullSink::default()));
        let bg_sink = w.add_agent(Box::new(NullSink::default()));
        let rng = w.rng().stream("t");
        let mut la = LinkAgent::new(simple_cfg(10_000_000, 1, 1 << 20), rng, (fg_sink, 0));
        la.set_sink((bg_sink, 0));
        let link = w.add_agent(Box::new(la));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(100) });
        w.schedule(
            SimTime::ZERO,
            link,
            Event::Frame { port: 0, frame: Frame::tagged(Bytes::from(vec![0u8; 100]), 7) },
        );
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(fg_sink).unwrap().frames, 1);
        assert_eq!(w.agent::<NullSink>(bg_sink).unwrap().frames, 1);
    }

    #[test]
    fn shared_queue_interferes_with_foreground() {
        // Background frames occupying the queue delay foreground frames.
        let mut w = World::new(1, TraceLevel::Off);
        let fg_sink = w.add_agent(Box::new(NullSink::recording()));
        let bg_sink = w.add_agent(Box::new(NullSink::default()));
        let rng = w.rng().stream("t");
        let mut la = LinkAgent::new(simple_cfg(12_000_000, 0, 1 << 24), rng, (fg_sink, 0));
        la.set_sink((bg_sink, 0));
        let link = w.add_agent(Box::new(la));
        // 10 background frames of 1500 B arrive first (1 ms each), then ours.
        for _ in 0..10 {
            w.schedule(
                SimTime::ZERO,
                link,
                Event::Frame { port: 0, frame: Frame::tagged(Bytes::from(vec![0u8; 1500]), 1) },
            );
        }
        w.schedule(SimTime::from_nanos(1), link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        let s = w.agent::<NullSink>(fg_sink).unwrap();
        assert_eq!(s.arrivals, vec![SimTime::from_millis(11)]);
    }

    /// Records drops; a link reports no other observation.
    #[derive(Default)]
    struct RecordingObserver {
        drops: Vec<(SimTime, u32, DropReason, usize)>,
    }

    impl mpw_sim::tap::FrameObserver for RecordingObserver {
        fn frame(&mut self, _: SimTime, _: u32, _: &Bytes) {
            panic!("a link observes only the frames it drops");
        }
        fn dropped(&mut self, at: SimTime, iface: u32, reason: DropReason, bytes: &Bytes) {
            self.drops.push((at, iface, reason, bytes.len()));
        }
    }

    #[test]
    fn tap_reports_overflow_and_channel_drops_only() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // Buffer fits exactly one 1500-byte frame, and the channel kills it;
        // the third frame, sent once the queue is empty again, is delivered.
        let mut cfg = simple_cfg(12_000_000, 0, 1500);
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        let (mut w, link, sink) = rig(cfg);
        let obs = Rc::new(RefCell::new(RecordingObserver::default()));
        let tap = LinkTap { observer: obs.clone(), drops: 3 };
        w.agent_mut::<LinkAgent>(link).unwrap().set_tap(tap);
        for _ in 0..2 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        }
        w.run_until(SimTime::from_millis(5));
        w.agent_mut::<LinkAgent>(link).unwrap().set_loss(LossModel::None);
        w.schedule(SimTime::from_millis(5), link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 1);
        // The second frame overflows at once; the first is lost at the end
        // of its 1 ms service.
        assert_eq!(
            obs.borrow().drops,
            vec![
                (SimTime::ZERO, 3, DropReason::QueueOverflow, 1500),
                (SimTime::from_millis(1), 3, DropReason::ChannelLoss, 1500),
            ]
        );
    }

    #[test]
    fn tap_skips_background_drops() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let mut w = World::new(1, TraceLevel::Off);
        let fg_sink = w.add_agent(Box::new(NullSink::default()));
        let bg_sink = w.add_agent(Box::new(NullSink::default()));
        let rng = w.rng().stream("t");
        let mut cfg = simple_cfg(10_000_000, 1, 1 << 20);
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        let mut la = LinkAgent::new(cfg, rng, (fg_sink, 0));
        la.set_sink((bg_sink, 0));
        let obs = Rc::new(RefCell::new(RecordingObserver::default()));
        la.set_tap(LinkTap { observer: obs.clone(), drops: 0 });
        let link = w.add_agent(Box::new(la));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(100) });
        w.schedule(
            SimTime::ZERO,
            link,
            Event::Frame { port: 0, frame: Frame::tagged(Bytes::from(vec![0u8; 100]), 7) },
        );
        w.run_until_idle();
        // Both were lost; only the untagged foreground frame was observed.
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().stats().dropped_channel, 2);
        assert_eq!(obs.borrow().drops.len(), 1);
    }

    fn tagged(n: usize) -> Frame {
        Frame::tagged(Bytes::from(vec![0u8; n]), 7)
    }

    /// sinks <- link with a background sink set, as `build_path` wires it;
    /// returns the world, the link and its `[foreground, background]` sinks.
    fn two_class_rig(cfg: LinkConfig) -> (World, AgentId, [AgentId; 2]) {
        let mut w = World::new(1, TraceLevel::Off);
        let fg_sink = w.add_agent(Box::new(NullSink::default()));
        let bg_sink = w.add_agent(Box::new(NullSink::default()));
        let rng = w.rng().stream("t");
        let mut la = LinkAgent::new(cfg, rng, (fg_sink, 0));
        la.set_sink((bg_sink, 0));
        let link = w.add_agent(Box::new(la));
        (w, link, [fg_sink, bg_sink])
    }

    #[test]
    fn foreground_idle_follows_an_untagged_frame_to_its_arrival() {
        // 12 Mbps, 1500 B => 1 ms serialization each; prop 10 ms.
        let (mut w, link, _) = two_class_rig(simple_cfg(12_000_000, 10, 1 << 20));
        let idle = |w: &World| w.agent::<LinkAgent>(link).unwrap().foreground_idle(w.now());
        assert!(idle(&w), "a fresh link owes nothing");
        // Background in service, foreground queued behind it.
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: tagged(1500) });
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until(SimTime::from_micros(500));
        assert!(!idle(&w), "queued");
        w.run_until(SimTime::from_micros(1500));
        assert!(!idle(&w), "in service");
        // Served at 2 ms, arrives at 12 ms: neither queued nor in service.
        w.run_until(SimTime::from_millis(5));
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().queue_bytes(), 0);
        assert!(!idle(&w), "delivered but still propagating");
        w.run_until(SimTime::from_micros(11_999));
        assert!(!idle(&w), "a microsecond short of the arrival");
        w.run_until(SimTime::from_millis(12));
        assert!(idle(&w), "arrived: everything due at 12 ms has run");
    }

    #[test]
    fn foreground_idle_ignores_background_traffic() {
        let (mut w, link, _) = two_class_rig(simple_cfg(12_000_000, 10, 1 << 20));
        for _ in 0..5 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: tagged(1500) });
        }
        // Queued, in service and propagating background frames all at once.
        for at_us in [0, 500, 2500, 4999] {
            w.run_until(SimTime::from_micros(at_us));
            let la = w.agent::<LinkAgent>(link).unwrap();
            assert!(la.foreground_idle(w.now()), "background only at {at_us} us");
        }
        assert!(w.agent::<LinkAgent>(link).unwrap().queue_bytes() > 0);
    }

    #[test]
    fn a_lost_foreground_frame_leaves_the_link_idle() {
        let mut cfg = simple_cfg(12_000_000, 10, 1500);
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        let (mut w, link, _) = two_class_rig(cfg);
        // The first is lost by the channel at 1 ms, the second overflows.
        for _ in 0..2 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        }
        w.run_until(SimTime::from_micros(500));
        assert!(!w.agent::<LinkAgent>(link).unwrap().foreground_idle(w.now()));
        w.run_until(SimTime::from_millis(1));
        let la = w.agent::<LinkAgent>(link).unwrap();
        assert_eq!((la.stats().dropped_channel, la.stats().dropped_overflow), (1, 1));
        assert!(la.foreground_idle(w.now()), "nothing was handed an arrival time");
    }

    /// The foreground's drops, as the link's tap reports them.
    #[derive(Default)]
    struct ForegroundDrops {
        refused: u64,
        lost: u64,
    }

    const FG_LEN: usize = 1000;
    const BG_LEN: usize = 1400;

    impl mpw_sim::tap::FrameObserver for ForegroundDrops {
        fn frame(&mut self, _: SimTime, _: u32, _: &Bytes) {
            panic!("a link observes only the frames it drops");
        }
        fn dropped(&mut self, _: SimTime, _: u32, reason: DropReason, bytes: &Bytes) {
            assert_eq!(bytes.len(), FG_LEN, "a background drop was observed");
            match reason {
                DropReason::QueueOverflow => self.refused += 1,
                _ => self.lost += 1,
            }
        }
    }

    #[test]
    fn each_class_conserves_frames() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // A queue that overflows, a channel that loses, ARQ that retries and
        // gives up: every way a frame can leave, for both classes at once.
        // Nothing delays a delivery, so a frame served by a check has
        // reached its sink by then.
        let mut cfg = simple_cfg(8_000_000, 0, 12_000);
        cfg.loss = LossModel::Bernoulli { p: 0.4 };
        cfg.arq = Some(ArqConfig {
            retry_delay: SimDuration::ZERO,
            max_retries: 1,
        });
        let (mut w, link, sinks) = two_class_rig(cfg);
        let obs = Rc::new(RefCell::new(ForegroundDrops::default()));
        let tap = LinkTap { observer: obs.clone(), drops: 0 };
        w.agent_mut::<LinkAgent>(link).unwrap().set_tap(tap);
        // Bursts of both classes, offered at about twice the link rate.
        let mut rng = SimRng::seeded(5);
        let mut at = SimTime::ZERO;
        let mut offered = Vec::new();
        for _ in 0..600 {
            at += SimDuration::from_micros(rng.range_u64(0, 1200));
            let foreground = rng.chance(0.5);
            let f = if foreground { frame(FG_LEN) } else { tagged(BG_LEN) };
            offered.push((at, foreground));
            w.schedule(at, link, Event::Frame { port: 0, frame: f });
        }
        let mut checked_busy = false;
        let mut exits = [(0, 0, 0); 2];
        for ms in (0..=400).step_by(7) {
            let now = SimTime::from_millis(ms);
            w.run_until(now);
            let la = w.agent::<LinkAgent>(link).unwrap();
            // The placeholder that holds the server busy through an ARQ
            // capacity tax is not a frame of either class.
            let in_service = la.in_service.iter().filter(|f| f.wire_len() > 0);
            let held: Vec<&Frame> = la.q.iter().chain(in_service).collect();
            let held_fg = held.iter().filter(|f| f.meta == 0).count();
            assert_eq!(la.fg_held, held_fg, "the counter is the recount at {ms} ms");
            // The background's drops are the link's less the foreground's.
            let (st, o) = (la.stats(), obs.borrow());
            let bg = (st.dropped_overflow - o.refused, st.dropped_channel - o.lost);
            let classes = [
                (true, (o.refused, o.lost), held_fg),
                (false, bg, held.len() - held_fg),
            ];
            for (i, (foreground, (refused, lost), held)) in classes.into_iter().enumerate() {
                let offered = offered.iter().filter(|&&(at, fg)| at <= now && fg == foreground);
                let arrived = w.agent::<NullSink>(sinks[i]).unwrap().frames;
                assert_eq!(
                    offered.count() as u64 - refused,
                    arrived + lost + held as u64,
                    "class {i} at {ms} ms: enqueued = delivered + dropped + held"
                );
                exits[i] = (refused, lost, arrived);
            }
            assert_eq!(st.delivered, exits[0].2 + exits[1].2);
            checked_busy |= held_fg > 0 && held.len() > held_fg;
        }
        for (refused, lost, arrived) in exits {
            assert!(refused > 0 && lost > 0 && arrived > 0, "every exit was taken");
        }
        assert!(checked_busy, "some check saw both classes held at once");
        assert!(w.agent::<LinkAgent>(link).unwrap().foreground_idle(w.now()));
    }

    #[test]
    fn set_rate_applies_to_next_service() {
        // 12 Mbps, 1500 B => 1 ms serialization. After the first delivery,
        // halve the rate: the second frame serializes in 2 ms.
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 0, 1 << 20));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until(SimTime::from_millis(2));
        w.agent_mut::<LinkAgent>(link)
            .unwrap()
            .set_rate(RateProcess::fixed(6_000_000));
        w.schedule(SimTime::from_millis(10), link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(
            s.arrivals,
            vec![SimTime::from_millis(1), SimTime::from_millis(12)]
        );
    }

    #[test]
    fn down_link_blackholes_then_recovers() {
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 10, 1 << 20));
        w.agent_mut::<LinkAgent>(link).unwrap().set_down(true);
        assert!(w.agent::<LinkAgent>(link).unwrap().is_down());
        for _ in 0..3 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        }
        w.run_until(SimTime::from_millis(100));
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 0);
        assert_eq!(w.agent::<LinkAgent>(link).unwrap().stats().dropped_down, 3);
        // Back up: traffic flows again.
        w.agent_mut::<LinkAgent>(link).unwrap().set_down(false);
        w.schedule(SimTime::from_millis(200), link, Event::Frame { port: 0, frame: frame(1500) });
        w.run_until_idle();
        let s = w.agent::<NullSink>(sink).unwrap();
        assert_eq!(s.arrivals, vec![SimTime::from_millis(211)]);
    }

    #[test]
    fn frame_in_service_when_link_goes_down_is_lost() {
        let (mut w, link, sink) = rig(simple_cfg(12_000_000, 10, 1 << 20));
        w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1500) });
        // Service takes 1 ms; kill the link mid-service.
        w.run_until(SimTime::from_micros(500));
        w.agent_mut::<LinkAgent>(link).unwrap().set_down(true);
        w.run_until_idle();
        assert_eq!(w.agent::<NullSink>(sink).unwrap().frames, 0);
        let st = w.agent::<LinkAgent>(link).unwrap().stats();
        assert_eq!(st.dropped_down, 1);
    }

    #[test]
    fn peak_queue_tracks_bufferbloat() {
        let (mut w, link, _) = rig(simple_cfg(1_000_000, 0, 1 << 20));
        for _ in 0..100 {
            w.schedule(SimTime::ZERO, link, Event::Frame { port: 0, frame: frame(1000) });
        }
        w.run_until_idle();
        let st = w.agent::<LinkAgent>(link).unwrap().stats();
        assert_eq!(st.peak_queue_bytes, 100_000);
        assert_eq!(st.delivered, 100);
    }
}
