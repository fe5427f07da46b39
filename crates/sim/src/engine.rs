//! The discrete-event engine: agents, events, and the world that runs them.
//!
//! Components (hosts, queues, loss channels, traffic generators) implement
//! [`Agent`] and communicate exclusively by scheduling events through a
//! [`Ctx`]. The event queue orders by `(time, insertion sequence)`, so runs
//! are fully deterministic: same seed, same build → identical event order.
//!
//! # Timers
//!
//! Two timer paths exist:
//!
//! * **Cancellable timers** ([`Ctx::arm_timer`] → [`TimerHandle`]) are the
//!   fast path for anything that is routinely superseded (RTO restarts,
//!   delayed-ACK, link service completions). Cancelling or rescheduling is
//!   O(1): the slab entry is invalidated and the already-queued heap entry
//!   becomes a *tombstone* that is discarded with a single generation check
//!   when it surfaces. A live-entry counter triggers heap compaction when
//!   tombstones dominate, so the calendar never grows unboundedly with
//!   superseded timers. (A hierarchical timer wheel was the alternative
//!   design; the tombstone heap benches faster here because cancellations
//!   are O(1) without bucket cascades and the `(time, seq)` total order —
//!   which the determinism guarantee rests on — is preserved for free. See
//!   DESIGN.md §5.1.)
//! * **Raw timers** ([`Ctx::set_timer`] / [`World::schedule`] with
//!   [`Event::Timer`]) are fire-and-forget: never cancelled by the engine.
//!   The harness uses them for one-shot kickoffs (e.g. connection opens).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::rng::RngFactory;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLevel;

/// Identifier of an agent within a [`World`].
pub type AgentId = u32;

/// A frame in flight: the serialized wire bytes of one packet.
///
/// The payload is a [`Bytes`] handle, so forwarding a frame across hops and
/// fanning it out over links clones a reference count, not the packet.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Serialized packet, including protocol headers.
    pub bytes: Bytes,
    /// Routing tag used by link components to demultiplex flows that share a
    /// queue (e.g. background cross traffic is delivered to a sink instead of
    /// the measured host). `0` is ordinary foreground traffic.
    pub meta: u16,
}

impl Frame {
    /// Wrap serialized packet bytes as foreground traffic.
    pub fn new(bytes: Bytes) -> Self {
        Frame { bytes, meta: 0 }
    }

    /// Wrap serialized bytes with an explicit routing tag.
    pub fn tagged(bytes: Bytes, meta: u16) -> Self {
        Frame { bytes, meta }
    }

    /// Bytes this frame occupies on the wire (headers included; we fold
    /// link-layer framing into the protocol header sizes).
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Events delivered to agents.
#[derive(Debug)]
pub enum Event {
    /// Sent once to every agent when the simulation starts (or immediately
    /// on registration if the world is already running).
    Start,
    /// A frame arriving on the given local port of the agent.
    Frame {
        /// Receiving port index, local to the destination agent.
        port: u16,
        /// The frame itself.
        frame: Frame,
    },
    /// A timer fired. Both raw timers ([`Ctx::set_timer`]) and cancellable
    /// timers ([`Ctx::arm_timer`]) deliver this event; the `token` is the
    /// value the agent supplied when arming.
    Timer {
        /// Token passed to [`Ctx::set_timer`] / [`Ctx::arm_timer`].
        token: u64,
    },
}

/// A simulation component.
pub trait Agent: Any {
    /// Handle one event. All side effects go through `ctx`.
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>);

    /// Downcast support for post-run result extraction.
    fn as_any(&self) -> &dyn Any;
    /// Downcast support for post-run result extraction.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Handle to a cancellable timer armed with [`Ctx::arm_timer`].
///
/// Handles are generation-checked: once the timer fires, is cancelled, or
/// is rescheduled, the old handle goes stale and all operations on it are
/// harmless no-ops (`cancel_timer` returns `false`, `reschedule_timer`
/// returns `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    slot: u32,
    gen: u32,
}

/// Slab entry backing one armed timer.
#[derive(Debug)]
struct TimerSlot {
    /// Generation; bumped whenever the slot is disarmed or re-armed, which
    /// invalidates outstanding handles and queued heap entries in O(1).
    gen: u32,
    agent: AgentId,
    token: u64,
    armed: bool,
}

/// Arena of cancellable timers. Slots are pooled through a free list, so
/// steady-state churn (arm → fire → arm …) allocates nothing.
#[derive(Default, Debug)]
struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Armed timers (live heap entries that will actually fire).
    live: usize,
}

impl TimerSlab {
    fn arm(&mut self, agent: AgentId, token: u64) -> TimerHandle {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(!s.armed);
            s.agent = agent;
            s.token = token;
            s.armed = true;
            TimerHandle { slot, gen: s.gen }
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(TimerSlot { gen: 0, agent, token, armed: true });
            TimerHandle { slot, gen: 0 }
        }
    }

    fn is_live(&self, h: TimerHandle) -> bool {
        self.slots
            .get(h.slot as usize)
            .is_some_and(|s| s.armed && s.gen == h.gen)
    }

    /// Disarm and recycle; returns the slot's token if the handle was live.
    fn disarm(&mut self, h: TimerHandle) -> Option<u64> {
        let s = self.slots.get_mut(h.slot as usize)?;
        if !s.armed || s.gen != h.gen {
            return None;
        }
        s.armed = false;
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(h.slot);
        Some(s.token)
    }

    /// Structural invariants of the slab: the live counter matches the armed
    /// slots, every slot is either armed or on the free list, and the free
    /// list holds each recycled slot exactly once. See DESIGN.md §5.8.
    fn validate(&self) -> Result<(), String> {
        let armed = self.slots.iter().filter(|s| s.armed).count();
        if armed != self.live {
            return Err(format!(
                "timer slab: live counter {} != {} armed slots",
                self.live, armed
            ));
        }
        if self.slots.len() != self.live + self.free.len() {
            return Err(format!(
                "timer slab: {} slots != {} live + {} free",
                self.slots.len(),
                self.live,
                self.free.len()
            ));
        }
        let mut on_free_list = vec![false; self.slots.len()];
        for &f in &self.free {
            let Some(s) = self.slots.get(f as usize) else {
                return Err(format!("timer slab: free list references slot {f} out of range"));
            };
            if s.armed {
                return Err(format!("timer slab: free list references armed slot {f}"));
            }
            if on_free_list[f as usize] {
                return Err(format!("timer slab: slot {f} on free list twice"));
            }
            on_free_list[f as usize] = true;
        }
        Ok(())
    }
}

/// Internal queued payload: either a public API event or a slab-timer
/// reference that is resolved (and validity-checked) at pop time.
#[derive(Debug)]
enum QueuedEv {
    Api(Event),
    SlabTimer { slot: u32, gen: u32 },
}

#[derive(Debug)]
struct Queued {
    at: SimTime,
    seq: u64,
    dst: AgentId,
    ev: QueuedEv,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The execution context handed to an agent while it handles an event.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: AgentId,
    out: &'a mut Vec<Queued>,
    timers: &'a mut TimerSlab,
    dead_entries: &'a mut usize,
    seq: &'a mut u64,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the agent handling this event.
    pub fn self_id(&self) -> AgentId {
        self.self_id
    }

    fn push(&mut self, at: SimTime, dst: AgentId, ev: QueuedEv) {
        let seq = *self.seq;
        *self.seq += 1;
        self.out.push(Queued { at, seq, dst, ev });
    }

    /// Deliver `frame` to `dst`'s `port` after `delay`.
    pub fn send_frame(&mut self, dst: AgentId, port: u16, delay: SimDuration, frame: Frame) {
        self.push(self.now + delay, dst, QueuedEv::Api(Event::Frame { port, frame }));
    }

    /// Arrange for [`Event::Timer`] with `token` to fire on this agent after
    /// `delay`. Raw path: the timer cannot be cancelled; agents that rearm
    /// raw timers must detect stale deliveries themselves. Prefer
    /// [`Ctx::arm_timer`] for anything that can be superseded.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.push(self.now + delay, self.self_id, QueuedEv::Api(Event::Timer { token }));
    }

    /// Arm a cancellable timer: [`Event::Timer`] with `token` fires on this
    /// agent after `delay` unless the returned handle is cancelled or
    /// rescheduled first. The handle goes stale once the timer fires.
    pub fn arm_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let h = self.timers.arm(self.self_id, token);
        self.push(
            self.now + delay,
            self.self_id,
            QueuedEv::SlabTimer { slot: h.slot, gen: h.gen },
        );
        h
    }

    /// Cancel a timer armed with [`Ctx::arm_timer`]. Returns whether the
    /// timer was still pending (stale handles return `false`).
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        if self.timers.disarm(h).is_some() {
            *self.dead_entries += 1;
            true
        } else {
            false
        }
    }

    /// Move a pending timer to fire after `delay` instead, keeping its
    /// token. Returns the replacement handle, or `None` if `h` was stale
    /// (already fired or cancelled) — in that case arm a fresh timer.
    pub fn reschedule_timer(&mut self, h: TimerHandle, delay: SimDuration) -> Option<TimerHandle> {
        let token = self.timers.disarm(h)?;
        *self.dead_entries += 1;
        Some(self.arm_timer(delay, token))
    }
}

/// Outcome of running the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Idle,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (likely a livelock); inspect the run.
    EventBudgetExhausted,
}

/// Event-loop counters, exposed for benches and perf regression tracking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered to agents.
    pub events_delivered: u64,
    /// Tombstoned timer entries discarded at pop (cancelled/rescheduled).
    pub stale_timer_pops: u64,
    /// Heap compactions performed.
    pub compactions: u64,
}

/// The simulation world: clock, event queue, agents, RNG factory.
pub struct World {
    now: SimTime,
    heap: BinaryHeap<Reverse<Queued>>,
    agents: Vec<Option<Box<dyn Agent>>>,
    timers: TimerSlab,
    /// Queued heap entries known to be tombstones (their slab generation
    /// was bumped by cancel/reschedule). Drives compaction.
    dead_entries: usize,
    /// Persistent staging buffer for events scheduled inside a handler;
    /// capacity adapts to the observed per-dispatch fan-out, so the steady
    /// state allocates nothing per event.
    staged: Vec<Queued>,
    rng: RngFactory,
    seq: u64,
    started: bool,
    events_processed: u64,
    event_budget: u64,
    stats: EngineStats,
}

impl World {
    /// Create a world with the given root seed. The second argument is the
    /// benchmark's shim (see [`TraceLevel`]) and selects nothing.
    pub fn new(seed: u64, _: TraceLevel) -> Self {
        World {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            agents: Vec::new(),
            timers: TimerSlab::default(),
            dead_entries: 0,
            staged: Vec::new(),
            rng: RngFactory::new(seed),
            seq: 0,
            started: false,
            events_processed: 0,
            // Generous default: a 512 MB download is ~4M events round trip.
            event_budget: 2_000_000_000,
            stats: EngineStats::default(),
        }
    }

    /// The RNG factory for deriving component streams.
    pub fn rng(&self) -> &RngFactory {
        &self.rng
    }

    /// Override the livelock guard (events per run).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Register an agent, returning its id. If the world has already
    /// started, the agent receives [`Event::Start`] at the current time.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = self.agents.len() as AgentId;
        self.agents.push(Some(agent));
        if self.started {
            self.push_event(self.now, id, QueuedEv::Api(Event::Start));
        }
        id
    }

    fn push_event(&mut self, at: SimTime, dst: AgentId, ev: QueuedEv) {
        let q = Queued { at, seq: self.seq, dst, ev };
        self.seq += 1;
        self.heap.push(Reverse(q));
    }

    /// Schedule an event from outside any agent (harness use).
    pub fn schedule(&mut self, at: SimTime, dst: AgentId, ev: Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push_event(at, dst, QueuedEv::Api(ev));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Event-loop counters (tombstones discarded, compactions, ...).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Cancellable timers currently pending.
    pub fn live_timers(&self) -> usize {
        self.timers.live
    }

    /// Check the timer-wheel invariants: slab structure (armed/free/live
    /// consistency), one live heap entry per armed slot, and an exact
    /// tombstone count backing the compaction trigger. Meaningful between
    /// dispatches (the staging buffer must be drained); `run_until` leaves
    /// the world in that state. Always compiled so harnesses can call it
    /// from release builds; the engine itself invokes it at compaction only
    /// under `debug_assertions` / the `check-invariants` feature.
    pub fn validate_timers(&self) -> Result<(), String> {
        self.timers.validate()?;
        let mut live_entries = 0usize;
        let mut tombstones = 0usize;
        for e in self.heap.iter() {
            if let QueuedEv::SlabTimer { slot, gen } = e.0.ev {
                if self.timers.is_live(TimerHandle { slot, gen }) {
                    live_entries += 1;
                } else {
                    tombstones += 1;
                }
            }
        }
        if live_entries != self.timers.live {
            return Err(format!(
                "timer heap: {} live entries queued for {} armed slots",
                live_entries, self.timers.live
            ));
        }
        if tombstones != self.dead_entries {
            return Err(format!(
                "timer heap: {} tombstones in heap but dead_entries counter says {}",
                tombstones, self.dead_entries
            ));
        }
        Ok(())
    }

    /// Borrow an agent by id, downcast to its concrete type.
    pub fn agent<T: Agent>(&self, id: AgentId) -> Option<&T> {
        self.agents
            .get(id as usize)?
            .as_deref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow an agent by id, downcast to its concrete type.
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        self.agents
            .get_mut(id as usize)?
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for id in 0..self.agents.len() as AgentId {
                self.push_event(self.now, id, QueuedEv::Api(Event::Start));
            }
        }
    }

    /// Rebuild the heap without tombstones. `(at, seq)` keys are preserved,
    /// so the total event order — and therefore determinism — is unchanged;
    /// compaction only reclaims memory and pop work.
    fn compact(&mut self) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        if let Err(e) = self.validate_timers() {
            panic!("timer invariant violated entering compaction: {e}");
        }
        let entries = std::mem::take(&mut self.heap).into_vec();
        let mut kept: Vec<Reverse<Queued>> = Vec::with_capacity(entries.len());
        for e in entries {
            match &e.0.ev {
                QueuedEv::SlabTimer { slot, gen } => {
                    if self.timers.is_live(TimerHandle { slot: *slot, gen: *gen }) {
                        kept.push(e);
                    } else {
                        self.stats.stale_timer_pops += 1;
                    }
                }
                QueuedEv::Api(_) => kept.push(e),
            }
        }
        self.heap = BinaryHeap::from(kept);
        self.dead_entries = 0;
        self.stats.compactions += 1;
    }

    /// Compact when tombstones outnumber live entries and are numerous
    /// enough for the O(n) rebuild to pay for itself.
    fn maybe_compact(&mut self) {
        if self.dead_entries > 1024 && self.dead_entries * 2 > self.heap.len() {
            self.compact();
        }
    }

    /// Run until the queue is empty or `horizon` is reached, whichever comes
    /// first. The clock never advances past `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.ensure_started();
        let mut staged = std::mem::take(&mut self.staged);
        let outcome = loop {
            let Some(Reverse(head)) = self.heap.peek() else {
                break RunOutcome::Idle;
            };
            if head.at > horizon {
                self.now = horizon;
                break RunOutcome::HorizonReached;
            }
            if self.events_processed >= self.event_budget {
                break RunOutcome::EventBudgetExhausted;
            }
            let Reverse(q) = self.heap.pop().expect("peeked above");
            debug_assert!(q.at >= self.now, "time went backwards");

            // Resolve the payload; tombstoned timers are discarded without
            // touching the clock or the destination agent.
            let ev = match q.ev {
                QueuedEv::Api(ev) => ev,
                QueuedEv::SlabTimer { slot, gen } => {
                    match self.timers.disarm(TimerHandle { slot, gen }) {
                        Some(token) => Event::Timer { token },
                        None => {
                            self.stats.stale_timer_pops += 1;
                            self.dead_entries = self.dead_entries.saturating_sub(1);
                            continue;
                        }
                    }
                }
            };
            self.now = q.at;
            self.events_processed += 1;
            self.stats.events_delivered += 1;

            let idx = q.dst as usize;
            // Take the agent out so it can borrow the world context freely.
            let Some(slot) = self.agents.get_mut(idx) else {
                continue;
            };
            let Some(mut agent) = slot.take() else {
                // Agent is gone (should not happen; slots are only taken
                // transiently) — drop the event.
                continue;
            };
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: q.dst,
                    out: &mut staged,
                    timers: &mut self.timers,
                    dead_entries: &mut self.dead_entries,
                    seq: &mut self.seq,
                };
                agent.handle(ev, &mut ctx);
            }
            self.agents[idx] = Some(agent);
            for ev in staged.drain(..) {
                self.heap.push(Reverse(ev));
            }
            self.maybe_compact();
        };
        // Hand the staging buffer (and its grown capacity) back for the
        // next dispatch loop.
        self.staged = staged;
        outcome
    }

    /// Run until the event queue drains (or the event budget trips).
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test agent: echoes frames back after a fixed delay, counts events.
    struct Echo {
        peer: Option<AgentId>,
        delay: SimDuration,
        frames_seen: u32,
        starts_seen: u32,
        timers_seen: Vec<u64>,
        arrival_times: Vec<SimTime>,
        max_bounces: u32,
    }

    impl Echo {
        fn new(peer: Option<AgentId>, delay: SimDuration, max_bounces: u32) -> Self {
            Echo {
                peer,
                delay,
                frames_seen: 0,
                starts_seen: 0,
                timers_seen: Vec::new(),
                arrival_times: Vec::new(),
                max_bounces,
            }
        }
    }

    impl Agent for Echo {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => self.starts_seen += 1,
                Event::Frame { frame, .. } => {
                    self.frames_seen += 1;
                    self.arrival_times.push(ctx.now());
                    if let Some(peer) = self.peer {
                        if self.frames_seen <= self.max_bounces {
                            ctx.send_frame(peer, 0, self.delay, frame);
                        }
                    }
                }
                Event::Timer { token } => self.timers_seen.push(token),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn frame() -> Frame {
        Frame::new(Bytes::from_static(b"ping"))
    }

    #[test]
    fn start_is_delivered_once_to_everyone() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        let b = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        assert_eq!(w.run_until_idle(), RunOutcome::Idle);
        assert_eq!(w.agent::<Echo>(a).unwrap().starts_seen, 1);
        assert_eq!(w.agent::<Echo>(b).unwrap().starts_seen, 1);
        // Running again does not replay Start.
        w.run_until_idle();
        assert_eq!(w.agent::<Echo>(a).unwrap().starts_seen, 1);
    }

    #[test]
    fn frames_bounce_with_exact_timing() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::from_millis(5), 0)));
        let b = w.add_agent(Box::new(Echo::new(Some(a), SimDuration::from_millis(5), 10)));
        w.schedule(SimTime::from_millis(1), b, Event::Frame { port: 0, frame: frame() });
        w.run_until_idle();
        // b gets it at 1ms, a at 6ms.
        assert_eq!(
            w.agent::<Echo>(b).unwrap().arrival_times,
            vec![SimTime::from_millis(1)]
        );
        assert_eq!(
            w.agent::<Echo>(a).unwrap().arrival_times,
            vec![SimTime::from_millis(6)]
        );
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        struct Recorder {
            tokens: Vec<u64>,
        }
        impl Agent for Recorder {
            fn handle(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
                if let Event::Timer { token } = ev {
                    self.tokens.push(token);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        let r = w.add_agent(Box::new(Recorder { tokens: vec![] }));
        let t = SimTime::from_millis(3);
        for token in 0..50 {
            w.schedule(t, r, Event::Timer { token });
        }
        w.run_until_idle();
        assert_eq!(w.agent::<Recorder>(r).unwrap().tokens, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_stops_the_clock() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        w.schedule(SimTime::from_secs(10), a, Event::Timer { token: 1 });
        let outcome = w.run_until(SimTime::from_secs(1));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(w.now(), SimTime::from_secs(1));
        assert!(w.agent::<Echo>(a).unwrap().timers_seen.is_empty());
        // Resuming past the event delivers it.
        w.run_until(SimTime::from_secs(20));
        assert_eq!(w.agent::<Echo>(a).unwrap().timers_seen, vec![1]);
    }

    #[test]
    fn event_budget_detects_livelock() {
        // Two agents bouncing a frame with zero delay forever.
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, u32::MAX)));
        let b = w.add_agent(Box::new(Echo::new(Some(a), SimDuration::ZERO, u32::MAX)));
        w.agent_mut::<Echo>(a).unwrap().peer = Some(b);
        w.schedule(SimTime::ZERO, a, Event::Frame { port: 0, frame: frame() });
        w.set_event_budget(10_000);
        assert_eq!(w.run_until_idle(), RunOutcome::EventBudgetExhausted);
    }

    #[test]
    fn late_registration_gets_start() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        w.run_until_idle();
        let b = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        w.run_until_idle();
        assert_eq!(w.agent::<Echo>(a).unwrap().starts_seen, 1);
        assert_eq!(w.agent::<Echo>(b).unwrap().starts_seen, 1);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        struct Other;
        impl Agent for Other {
            fn handle(&mut self, _: Event, _: &mut Ctx<'_>) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Other));
        assert!(w.agent::<Echo>(a).is_none());
        assert!(w.agent::<Other>(a).is_some());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        w.schedule(SimTime::from_secs(5), a, Event::Timer { token: 0 });
        w.run_until_idle();
        w.schedule(SimTime::from_secs(1), a, Event::Timer { token: 1 });
    }

    // ------------------------------------------------ cancellable timers

    /// Agent driving the cancellable-timer API through scripted actions.
    #[derive(Default)]
    struct TimerScript {
        /// (fire-at-start, delay, token) tuples armed on Start.
        arm_on_start: Vec<(u64, u64)>,
        /// Tokens to cancel right after arming (by arm index).
        cancel_idx: Vec<usize>,
        /// (arm index, new delay) reschedules right after arming.
        resched: Vec<(usize, u64)>,
        handles: Vec<TimerHandle>,
        fired: Vec<(SimTime, u64)>,
    }

    impl Agent for TimerScript {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            match ev {
                Event::Start => {
                    for &(delay, token) in &self.arm_on_start.clone() {
                        let h = ctx.arm_timer(SimDuration::from_millis(delay), token);
                        self.handles.push(h);
                    }
                    for &i in &self.cancel_idx.clone() {
                        assert!(ctx.cancel_timer(self.handles[i]));
                    }
                    for &(i, delay) in &self.resched.clone() {
                        let h = ctx
                            .reschedule_timer(self.handles[i], SimDuration::from_millis(delay))
                            .expect("live handle");
                        self.handles[i] = h;
                    }
                }
                Event::Timer { token } => self.fired.push((ctx.now(), token)),
                Event::Frame { .. } => {}
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(TimerScript {
            arm_on_start: vec![(10, 1), (20, 2), (30, 3)],
            cancel_idx: vec![1],
            ..Default::default()
        }));
        w.run_until_idle();
        let s = w.agent::<TimerScript>(a).unwrap();
        assert_eq!(
            s.fired,
            vec![
                (SimTime::from_millis(10), 1),
                (SimTime::from_millis(30), 3)
            ]
        );
        assert_eq!(w.live_timers(), 0);
        assert_eq!(w.stats().stale_timer_pops, 1);
    }

    #[test]
    fn reschedule_moves_fire_time_both_directions() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(TimerScript {
            arm_on_start: vec![(10, 1), (20, 2)],
            // Push token 1 later than token 2; pull token 2 earlier.
            resched: vec![(0, 50), (1, 5)],
            ..Default::default()
        }));
        w.run_until_idle();
        let s = w.agent::<TimerScript>(a).unwrap();
        assert_eq!(
            s.fired,
            vec![(SimTime::from_millis(5), 2), (SimTime::from_millis(50), 1)]
        );
    }

    #[test]
    fn stale_handles_are_noops() {
        struct Stale {
            h: Option<TimerHandle>,
            fired: u32,
        }
        impl Agent for Stale {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => {
                        self.h = Some(ctx.arm_timer(SimDuration::from_millis(1), 7));
                    }
                    Event::Timer { .. } => {
                        self.fired += 1;
                        let h = self.h.expect("armed");
                        // Fired → handle is stale: cancel and reschedule
                        // both report that.
                        assert!(!ctx.cancel_timer(h));
                        assert!(ctx.reschedule_timer(h, SimDuration::from_millis(1)).is_none());
                    }
                    Event::Frame { .. } => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Stale { h: None, fired: 0 }));
        w.run_until_idle();
        assert_eq!(w.agent::<Stale>(a).unwrap().fired, 1);
    }

    #[test]
    fn slab_slots_are_pooled_across_churn() {
        // Arm/supersede in a long chain: the slab must not grow beyond a
        // handful of slots and the heap must shed tombstones via compaction.
        struct Churn {
            h: Option<TimerHandle>,
            remaining: u32,
        }
        impl Agent for Churn {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start | Event::Timer { .. } => {
                        if let Some(h) = self.h.take() {
                            ctx.cancel_timer(h);
                        }
                        if self.remaining > 0 {
                            self.remaining -= 1;
                            // Arm two: one superseded immediately (dead), one live.
                            let dead = ctx.arm_timer(SimDuration::from_millis(5), 0);
                            ctx.cancel_timer(dead);
                            self.h = Some(ctx.arm_timer(SimDuration::from_millis(1), 1));
                        }
                    }
                    Event::Frame { .. } => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Churn { h: None, remaining: 50_000 }));
        w.run_until_idle();
        assert_eq!(w.agent::<Churn>(a).unwrap().remaining, 0);
        assert_eq!(w.live_timers(), 0);
        assert!(w.timers.slots.len() <= 4, "slab grew to {}", w.timers.slots.len());
        // All 50k superseded entries were discarded (at pop or compaction)...
        assert_eq!(w.stats().stale_timer_pops, 50_000);
        // ...and the heap is empty, not full of tombstones.
        assert!(w.heap.is_empty());
    }

    #[test]
    fn timer_invariants_hold_through_churn_and_compaction() {
        struct Churn {
            h: Option<TimerHandle>,
            remaining: u32,
        }
        impl Agent for Churn {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                if matches!(ev, Event::Start | Event::Timer { .. }) {
                    if let Some(h) = self.h.take() {
                        ctx.cancel_timer(h);
                    }
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        // Far-future deadline: the tombstone sits in the heap
                        // (instead of popping stale) until compaction eats it.
                        let doomed = ctx.arm_timer(SimDuration::from_secs(900), 0);
                        let moved = ctx.arm_timer(SimDuration::from_millis(7), 2);
                        ctx.reschedule_timer(moved, SimDuration::from_millis(3));
                        ctx.cancel_timer(doomed);
                        self.h = Some(ctx.arm_timer(SimDuration::from_millis(1), 1));
                    }
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        w.add_agent(Box::new(Churn { h: None, remaining: 5_000 }));
        // Step through in slices so validate_timers runs with tombstones
        // present mid-run, not just on the drained final heap.
        for ms in (0..60_000).step_by(500) {
            w.run_until(SimTime::from_millis(ms));
            w.validate_timers().unwrap();
        }
        w.run_until_idle();
        w.validate_timers().unwrap();
        assert!(w.stats().compactions > 0, "churn never triggered compaction");
        assert_eq!(w.live_timers(), 0);
    }

    #[test]
    fn compaction_preserves_event_order() {
        // Interleave cancellations with same-time raw events and live
        // timers, force a compaction, and confirm insertion order holds.
        struct Orderly {
            fired: Vec<u64>,
        }
        impl Agent for Orderly {
            fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
                match ev {
                    Event::Start => {
                        let t = SimDuration::from_millis(10);
                        for token in 0..2000u64 {
                            if token % 2 == 0 {
                                ctx.set_timer(t, token);
                            } else {
                                let h = ctx.arm_timer(t, token);
                                if token % 4 == 1 {
                                    ctx.cancel_timer(h);
                                }
                            }
                        }
                    }
                    Event::Timer { token } => self.fired.push(token),
                    Event::Frame { .. } => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Orderly { fired: vec![] }));
        w.run_until_idle();
        let expect: Vec<u64> = (0..2000u64).filter(|t| t % 4 != 1).collect();
        assert_eq!(w.agent::<Orderly>(a).unwrap().fired, expect);
    }
}
