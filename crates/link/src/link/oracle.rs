//! The reference the link's own timeline must match: the fully evented
//! link of the era when every cross-traffic source was an agent, kept
//! verbatim (renamed `EventedLink`) with that source agent. There, each
//! background frame took four engine events — the source's frame timer,
//! the zero-delay hop into the link, the service completion and the
//! propagation-delayed delivery to the sink — and the engine's
//! `(time, insertion sequence)` order decided every same-instant tie.
//!
//! The proptest drives both with the same configuration, sources,
//! foreground script and mid-run mutations, and requires the same
//! foreground deliveries (times and order), the same foreground drops
//! (kind and instant), the same `LinkStats` and queue once the timeline is
//! advanced to the horizon, and sink totals equal to the background frames
//! the reference delivered. Foreground frames are sent by an agent at
//! their instant, as hosts send them: such a frame reaches the reference
//! link after that instant's completions and before its cross traffic,
//! the order the timeline keeps.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mpw_sim::trace::TraceLevel;
use mpw_sim::{TimerHandle, World};
use proptest::prelude::*;
use proptest::TestRng;

use super::*;
use crate::background::BACKGROUND_META;
use crate::loss::GilbertElliott;
use crate::rate::RateLevel;

// ------------------------------------------- the reference, verbatim

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
pub struct EventedLink {
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

impl EventedLink {
    /// Create a link that forwards to `egress` (agent, port).
    pub fn new(mut cfg: LinkConfig, rng: SimRng, egress: (AgentId, u16)) -> Self {
        // A radio starts idle: the first frame pays the promotion delay
        // (unless the harness warms the path up, as the paper did).
        let rrc = cfg.rrc.take().map(|rrc| (rrc, RrcState::Promoting { ready_at: SimTime::MAX }));
        EventedLink {
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

impl Agent for EventedLink {
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

// ---------------------------------------------------------- the harness

/// Sends the scripted foreground frames into the link, each at its
/// instant, as a host would.
struct Pump {
    link: AgentId,
    frames: Vec<Frame>,
}

impl Agent for Pump {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Timer { token } = ev {
            let frame = self.frames[token as usize].clone();
            ctx.send_frame(self.link, 0, SimDuration::ZERO, frame);
        }
    }
}

/// The foreground egress: when each frame arrived, by script index.
#[derive(Default)]
struct Egress {
    got: Vec<(SimTime, u32)>,
}

impl Agent for Egress {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Frame { frame, .. } = ev {
            let b = &frame.bytes;
            let id = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            self.got.push((ctx.now(), id));
        }
    }
}

/// The foreground drops the link's tap reports.
#[derive(Default)]
struct Drops(Vec<(SimTime, DropReason, usize)>);

impl mpw_sim::tap::FrameObserver for Drops {
    fn frame(&mut self, _: SimTime, _: u32, _: &Bytes) {}
    fn dropped(&mut self, at: SimTime, _: u32, reason: DropReason, bytes: &Bytes) {
        self.0.push((at, reason, bytes.len()));
    }
}

#[derive(Clone, Debug)]
enum Op {
    Loss(LossModel),
    Rate(RateProcess),
    Down(bool),
}

#[derive(Clone, Debug)]
struct Case {
    cfg: LinkConfig,
    sources: Vec<OnOffConfig>,
    /// Foreground frames: instant (ns) and length, in time order.
    fg: Vec<(u64, usize)>,
    /// Mutations: instant (ns) and operation, in time order.
    ops: Vec<(u64, Op)>,
    seed: u64,
}

impl Case {
    /// The last scripted instant.
    fn end(&self) -> SimTime {
        let last = |v: &[u64]| v.iter().copied().max().unwrap_or(0);
        let fg: Vec<u64> = self.fg.iter().map(|f| f.0).collect();
        let ops: Vec<u64> = self.ops.iter().map(|o| o.0).collect();
        SimTime::from_nanos(last(&fg).max(last(&ops)))
    }
}

#[derive(Debug, PartialEq)]
struct Outcome {
    horizon: SimTime,
    deliveries: Vec<(SimTime, u32)>,
    drops: Vec<(SimTime, DropReason, usize)>,
    stats: LinkStats,
    queue_bytes: usize,
    idle: bool,
    down: bool,
    /// Background frames and bytes: those the reference link delivered, or
    /// those the timeline's sink got (or is owed). Counted once the
    /// foreground has drained, when the reference's foreground deliveries
    /// have all arrived.
    background: Option<(u64, u64)>,
}

/// A world with the two sinks, the link `add_link` builds (with the tap
/// set) and the scripted foreground pump.
fn rig(
    case: &Case,
    add_link: impl FnOnce(&mut World, (AgentId, u16), (AgentId, u16), LinkTap) -> AgentId,
) -> (World, AgentId, AgentId, AgentId, Rc<RefCell<Drops>>) {
    let mut w = World::new(case.seed, TraceLevel::Off);
    let fg = w.add_agent(Box::new(Egress::default()));
    let bg = w.add_agent(Box::new(NullSink::default()));
    let drops = Rc::new(RefCell::new(Drops::default()));
    let tap = LinkTap { observer: drops.clone(), drops: 0 };
    let link = add_link(&mut w, (fg, 0), (bg, 0), tap);
    let frames = case
        .fg
        .iter()
        .enumerate()
        .map(|(i, &(_, len))| {
            let mut bytes = vec![0u8; len];
            bytes[..4].copy_from_slice(&(i as u32).to_be_bytes());
            Frame::new(Bytes::from(bytes))
        })
        .collect();
    let pump = w.add_agent(Box::new(Pump { link, frames }));
    for (i, &(at, _)) in case.fg.iter().enumerate() {
        w.schedule(SimTime::from_nanos(at), pump, Event::Timer { token: i as u64 });
    }
    (w, fg, bg, link, drops)
}

/// The foreground's delivered frames and bytes.
fn foreground_delivered(case: &Case, got: &[(SimTime, u32)]) -> (u64, u64) {
    let bytes = got.iter().map(|&(_, id)| case.fg[id as usize].1 as u64).sum();
    (got.len() as u64, bytes)
}

fn reference(case: &Case) -> Outcome {
    let (mut w, fg, _, link, drops) = rig(case, |w, egress, sink, tap| {
        let mut link = EventedLink::new(case.cfg.clone(), w.rng().stream("link"), egress);
        link.set_sink(sink);
        link.set_tap(tap);
        let link = w.add_agent(Box::new(link));
        for (i, src) in case.sources.iter().enumerate() {
            let rng = w.rng().stream(&format!("src.{i}"));
            w.add_agent(Box::new(OnOffSource::new(src.clone(), rng, (link, 0))));
        }
        link
    });
    for (at, op) in &case.ops {
        w.run_until(SimTime::from_nanos(*at));
        let l = w.agent_mut::<EventedLink>(link).unwrap();
        match op.clone() {
            Op::Loss(m) => l.set_loss(m),
            Op::Rate(r) => l.set_rate(r),
            Op::Down(d) => l.set_down(d),
        }
    }
    // On to the first 50 ms mark where the foreground has drained.
    let mut horizon = case.end();
    w.run_until(horizon);
    for _ in 0..400 {
        if w.agent::<EventedLink>(link).unwrap().foreground_idle(horizon) {
            break;
        }
        horizon += SimDuration::from_millis(50);
        w.run_until(horizon);
    }
    let l = w.agent::<EventedLink>(link).unwrap();
    let deliveries = w.agent::<Egress>(fg).unwrap().got.clone();
    let idle = l.foreground_idle(horizon);
    let stats = l.stats();
    let (fg_frames, fg_bytes) = foreground_delivered(case, &deliveries);
    let drops = drops.borrow().0.clone();
    Outcome {
        horizon,
        background: idle.then(|| (stats.delivered - fg_frames, stats.delivered_bytes - fg_bytes)),
        deliveries,
        drops,
        stats,
        queue_bytes: l.queue_bytes(),
        idle,
        down: l.is_down(),
    }
}

fn timeline(case: &Case, horizon: SimTime) -> Outcome {
    let (mut w, fg, bg, link, drops) = rig(case, |w, egress, sink, tap| {
        let mut link = LinkAgent::new(case.cfg.clone(), w.rng().stream("link"), egress);
        link.set_sink(sink);
        link.set_tap(tap);
        for (i, src) in case.sources.iter().enumerate() {
            link.add_source(src.clone(), w.rng().stream(&format!("src.{i}")));
        }
        w.add_agent(Box::new(link))
    });
    for (at, op) in &case.ops {
        w.run_until(SimTime::from_nanos(*at));
        let now = w.now();
        let l = w.agent_mut::<LinkAgent>(link).unwrap();
        match op.clone() {
            Op::Loss(m) => l.set_loss(now, m),
            Op::Rate(r) => l.set_rate(now, r),
            Op::Down(d) => l.set_down(now, d),
        }
    }
    w.run_until(horizon);
    let now = w.now();
    let sink = w.agent::<NullSink>(bg).unwrap();
    let (sink_frames, sink_bytes) = (sink.frames, sink.bytes);
    let deliveries = w.agent::<Egress>(fg).unwrap().got.clone();
    let l = w.agent_mut::<LinkAgent>(link).unwrap();
    l.sync(now);
    let owed = l.owed.iter().map(|f| f.wire_len() as u64);
    let background = (sink_frames + owed.len() as u64, sink_bytes + owed.sum::<u64>());
    let idle = l.foreground_idle(horizon);
    let drops = drops.borrow().0.clone();
    Outcome {
        horizon,
        background: idle.then_some(background),
        deliveries,
        drops,
        stats: l.stats(),
        queue_bytes: l.queue_bytes(),
        idle,
        down: l.is_down(),
    }
}

// ------------------------------------------------------------- cases

/// Random cases, drawn straight from the runner's generator.
struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn sample(&self, rng: &mut TestRng) -> Case {
        case(rng)
    }
}

/// Uniform in `[lo, hi)`.
fn pick(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

fn between(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn ms(rng: &mut TestRng, lo: u64, hi: u64) -> SimDuration {
    SimDuration::from_millis(pick(rng, lo, hi))
}

fn us(rng: &mut TestRng, lo: u64, hi: u64) -> SimDuration {
    SimDuration::from_micros(pick(rng, lo, hi))
}

fn rate(rng: &mut TestRng) -> RateProcess {
    if rng.below(2) == 0 {
        return RateProcess::fixed(pick(rng, 1_000_000, 100_000_000));
    }
    let levels = (0..pick(rng, 2, 4))
        .map(|_| RateLevel {
            bits_per_sec: pick(rng, 1_000_000, 100_000_000),
            mean_dwell: ms(rng, 1, 50),
        })
        .collect();
    RateProcess::modulated(levels)
}

fn loss(rng: &mut TestRng) -> LossModel {
    match rng.below(3) {
        0 => LossModel::None,
        1 => LossModel::Bernoulli { p: between(rng, 0.0, 0.3) },
        _ => LossModel::GilbertElliott(GilbertElliott::new(
            between(rng, 0.0, 0.5),
            between(rng, 0.05, 1.0),
            between(rng, 0.0, 0.1),
            between(rng, 0.1, 1.0),
        )),
    }
}

fn jitter(rng: &mut TestRng) -> Jitter {
    match rng.below(3) {
        0 => Jitter::None,
        1 => Jitter::Uniform { lo: us(rng, 0, 1_000), hi: us(rng, 0, 5_000) },
        _ => Jitter::LogNormal { mean: us(rng, 50, 5_000), sigma: between(rng, 0.2, 1.5) },
    }
}

fn config(rng: &mut TestRng) -> LinkConfig {
    LinkConfig {
        rate: rate(rng),
        prop_delay: ms(rng, 0, 20),
        jitter: jitter(rng),
        buffer_bytes: pick(rng, 1_500, 150_000) as usize,
        loss: loss(rng),
        arq: (rng.below(2) == 0).then(|| ArqConfig {
            retry_delay: ms(rng, 0, 20),
            max_retries: pick(rng, 0, 5) as u32,
        }),
        rrc: (rng.below(2) == 0).then(|| RrcConfig {
            promotion_delay: ms(rng, 0, 300),
            idle_timeout: ms(rng, 5, 1_000),
        }),
    }
}

fn source(rng: &mut TestRng) -> OnOffConfig {
    if rng.below(4) == 0 {
        return burst(rng);
    }
    OnOffConfig {
        on_rate_bps: pick(rng, 200_000, 10_000_000),
        mean_on: ms(rng, 1, 200),
        mean_off: ms(rng, 1, 200),
        frame_bytes: pick(rng, 300, 1_500) as usize,
    }
}

/// Microsecond bursts with a frame every few nanoseconds: cross traffic
/// lands on the very instants the link completes service. Into a full
/// queue, the order at such an instant decides which frame is dropped;
/// into a link fast enough to keep up, whether two frames are ever held at
/// once (the peak).
fn burst(rng: &mut TestRng) -> OnOffConfig {
    let frame_bytes = pick(rng, 40, 120) as usize;
    OnOffConfig {
        on_rate_bps: frame_bytes as u64 * 8_000_000_000 / pick(rng, 2, 8),
        mean_on: us(rng, 5, 20),
        mean_off: ms(rng, 50, 150),
        frame_bytes,
    }
}

fn op(rng: &mut TestRng) -> Op {
    match rng.below(3) {
        0 => Op::Loss(loss(rng)),
        1 => Op::Rate(rate(rng)),
        _ => Op::Down(rng.below(2) == 0),
    }
}

fn case(rng: &mut TestRng) -> Case {
    let mut cfg = config(rng);
    let mut sources: Vec<OnOffConfig> = (0..rng.below(4)).map(|_| source(rng)).collect();
    if rng.below(4) == 0 {
        // A link of tens of Gbit/s under a burst: it serves a small frame
        // in a few nanoseconds, so completions and cross traffic collide.
        cfg.rate = RateProcess::fixed(pick(rng, 20_000_000_000, 200_000_000_000));
        sources.push(burst(rng));
    }
    // Foreground instants on a 100 µs grid, so bursts share an instant.
    let mut fg: Vec<(u64, usize)> = (0..rng.below(60))
        .map(|_| (rng.below(5_000) * 100_000, pick(rng, 40, 1_500) as usize))
        .collect();
    fg.sort_by_key(|f| f.0);
    let mut ops: Vec<(u64, Op)> =
        (0..rng.below(4)).map(|_| (rng.below(500_000_000), op(rng))).collect();
    ops.sort_by_key(|o| o.0);
    let seed = rng.next_u64();
    if !sources.is_empty() && rng.below(2) == 0 {
        // Foreground frames on the very instants a source sends: its frames
        // are a function of its own stream, so replay it to find them.
        let i = rng.below(sources.len() as u64) as usize;
        let stream = mpw_sim::RngFactory::new(seed).stream(&format!("src.{i}"));
        let mut src = OnOff::new(sources[i].clone(), stream);
        let mut seq = 0;
        src.start(SimTime::ZERO, &mut seq);
        let mut sent = Vec::new();
        while src.next().0 < SimTime::from_millis(500) && sent.len() < 10_000 {
            let at = src.next().0;
            if src.fire(&mut seq).is_some() {
                sent.push(at.as_nanos());
            }
        }
        for _ in 0..sent.len().min(10) {
            let at = sent[rng.below(sent.len() as u64) as usize];
            fg.push((at, pick(rng, 40, 1_500) as usize));
        }
        fg.sort_by_key(|f| f.0);
    }
    Case { cfg, sources, fg, ops, seed }
}

proptest! {
    #[test]
    fn the_timeline_matches_the_evented_reference(case in Cases) {
        let want = reference(&case);
        let got = timeline(&case, want.horizon);
        prop_assert_eq!(got, want, "{:?}", case);
    }
}
