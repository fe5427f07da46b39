//! The discrete-event engine: agents, events, and the world that runs them.
//!
//! Components (hosts, queues, loss channels, traffic generators) implement
//! [`Agent`] and communicate exclusively by scheduling events through a
//! [`Ctx`]. The event queue orders by `(time, insertion sequence)`, so runs
//! are fully deterministic: same seed, same build → identical event order.
//!
//! # The calendar
//!
//! Every scheduled entry carries the key `(at, seq)`, `seq` being one
//! world-wide insertion counter, and entries are delivered in ascending key
//! order. The calendar keeps them in three lanes and sorts only what can be
//! out of order:
//!
//! * the **now lane**, a FIFO of events scheduled *for the current instant*
//!   (a host handing a frame to its link, a link to the switch). All of them
//!   share `at == now` and were pushed in `seq` order, so the queue is
//!   already sorted and nothing is sifted;
//! * the **event heap**, a binary heap of by-value events for every other
//!   time: frames in propagation and raw timers;
//! * the **timer heap**, a binary heap of 24-byte `{at, seq, slot, gen}` keys
//!   for cancellable timers. The destination and token stay in the timer slab
//!   and are read when the key surfaces, so the parked RTO entries neither
//!   sit under every frame nor drag an event's bytes through each sift.
//!
//! The run loop delivers the least of the three heads. A now-lane entry
//! therefore loses to a heap entry of the same instant that was inserted
//! before it — that comparison is the whole argument that the lanes deliver
//! exactly what one sorted list would.
//!
//! # Timers
//!
//! Two timer paths exist:
//!
//! * **Cancellable timers** ([`Ctx::arm_timer`] → [`TimerHandle`]) are the
//!   fast path for anything that is routinely superseded (RTO restarts,
//!   delayed-ACK, link service completions). Cancelling or rescheduling is
//!   O(1): the slab entry is invalidated and the already-queued timer-heap
//!   key becomes a *tombstone* that is discarded with a single generation
//!   check when it surfaces. A tombstone counter triggers compaction of the
//!   timer heap when tombstones dominate it, so the calendar never grows
//!   unboundedly with superseded timers. (A hierarchical timer wheel was the
//!   alternative design; it would give timers a second ordering domain
//!   beside the `(time, seq)` total order the determinism guarantee rests
//!   on, and far timers are a few percent of the traffic. See DESIGN.md
//!   §5.1.)
//! * **Raw timers** ([`Ctx::set_timer`] / [`World::schedule`] with
//!   [`Event::Timer`]) are fire-and-forget: never cancelled by the engine.
//!   The harness uses them for one-shot kickoffs (e.g. connection opens).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

    /// Upcast to `Any`. [`World::agent`] upcasts the trait object itself;
    /// this stays while `benchmark/` overrides it (ROADMAP 7(i)).
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
    /// Mutable twin of [`Agent::as_any`] (ROADMAP 7(i)).
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
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
    /// invalidates outstanding handles and queued timer-heap keys in O(1).
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
    /// Armed timers (live timer-heap keys that will actually fire).
    live: usize,
}

impl TimerSlab {
    #[inline]
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

    /// Disarm and recycle; returns the slot's owner and token if the handle
    /// was live.
    #[inline]
    fn disarm(&mut self, h: TimerHandle) -> Option<(AgentId, u64)> {
        let s = self.slots.get_mut(h.slot as usize)?;
        if !s.armed || s.gen != h.gen {
            return None;
        }
        s.armed = false;
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(h.slot);
        Some((s.agent, s.token))
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

/// A by-value calendar entry (now lane and event heap): a public event and
/// the agent it goes to.
#[derive(Debug)]
struct Queued {
    at: SimTime,
    seq: u64,
    dst: AgentId,
    ev: Event,
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

/// A timer-heap entry: when a cancellable timer is due and which slab slot
/// and generation it refers to. Owner and token are read from the slab when
/// the key surfaces; a key whose generation no longer matches is a tombstone.
/// `seq` is unique, so the derived order is the `(at, seq)` order and the
/// last two fields never decide a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct TimerKey {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl TimerKey {
    fn handle(self) -> TimerHandle {
        TimerHandle { slot: self.slot, gen: self.gen }
    }
}

/// The lane holding the calendar's next entry.
#[derive(Clone, Copy, Debug)]
enum Lane {
    Now,
    Events,
    Timers,
}

/// The clock and everything scheduled against it (see the module docs).
#[derive(Default)]
struct Calendar {
    now: SimTime,
    /// Next insertion sequence number, shared by all three lanes.
    seq: u64,
    /// Events due at `now`, in `seq` order. Stays sorted only while the
    /// clock never moves with entries queued here, and never moves back.
    now_lane: VecDeque<Queued>,
    events: BinaryHeap<Reverse<Queued>>,
    timer_keys: BinaryHeap<Reverse<TimerKey>>,
    timers: TimerSlab,
    /// Timer-heap keys known to be tombstones (their slab generation was
    /// bumped by cancel/reschedule). Drives compaction.
    dead_entries: usize,
}

impl Calendar {
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedule `ev` for `dst` at `at`, which must not be in the past.
    #[inline]
    fn push_event(&mut self, at: SimTime, dst: AgentId, ev: Event) {
        debug_assert!(at >= self.now, "scheduled into the past");
        let q = Queued { at, seq: self.next_seq(), dst, ev };
        if at == self.now {
            self.now_lane.push_back(q);
        } else {
            self.events.push(Reverse(q));
        }
    }

    #[inline]
    fn arm(&mut self, at: SimTime, agent: AgentId, token: u64) -> TimerHandle {
        let h = self.timers.arm(agent, token);
        let seq = self.next_seq();
        self.timer_keys.push(Reverse(TimerKey { at, seq, slot: h.slot, gen: h.gen }));
        h
    }

    /// Disarm a pending timer, leaving its key behind as a tombstone.
    #[inline]
    fn disarm(&mut self, h: TimerHandle) -> Option<(AgentId, u64)> {
        let owner_and_token = self.timers.disarm(h)?;
        self.dead_entries += 1;
        Some(owner_and_token)
    }

    /// Due time and lane of the entry with the least `(at, seq)`.
    #[inline]
    fn head(&self) -> Option<(SimTime, Lane)> {
        let mut best = self.now_lane.front().map(|q| ((q.at, q.seq), Lane::Now));
        let mut offer = |key, lane| match best {
            Some((least, _)) if least < key => {}
            _ => best = Some((key, lane)),
        };
        if let Some(Reverse(q)) = self.events.peek() {
            offer((q.at, q.seq), Lane::Events);
        }
        if let Some(Reverse(k)) = self.timer_keys.peek() {
            offer((k.at, k.seq), Lane::Timers);
        }
        best.map(|((at, _), lane)| (at, lane))
    }

    /// Remove the head of `lane` and advance the clock to it. `None` if it
    /// was a tombstone, which is discarded without touching the clock.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "the caller passes the lane `head` just named, so that lane has a head"
    )]
    fn pop_head(&mut self, lane: Lane) -> Option<(AgentId, Event)> {
        let (at, dst, ev) = match lane {
            Lane::Now => {
                let q = self.now_lane.pop_front().expect("head is the now lane");
                (q.at, q.dst, q.ev)
            }
            Lane::Events => {
                let Reverse(q) = self.events.pop().expect("head is the event heap");
                (q.at, q.dst, q.ev)
            }
            Lane::Timers => {
                let Reverse(k) = self.timer_keys.pop().expect("head is the timer heap");
                let Some((owner, token)) = self.timers.disarm(k.handle()) else {
                    self.dead_entries = self.dead_entries.saturating_sub(1);
                    return None;
                };
                (k.at, owner, Event::Timer { token })
            }
        };
        debug_assert!(at >= self.now, "time went backwards");
        debug_assert!(
            at == self.now || self.now_lane.is_empty(),
            "clock moved with the now lane occupied"
        );
        self.now = at;
        Some((dst, ev))
    }

    /// Entries queued in all lanes, tombstones included.
    fn pending(&self) -> usize {
        self.now_lane.len() + self.events.len() + self.timer_keys.len()
    }

    /// Whether tombstones outnumber live timer keys and are numerous enough
    /// for the O(n) rebuild to pay for itself.
    fn wants_compaction(&self) -> bool {
        self.dead_entries > 1024 && self.dead_entries * 2 > self.timer_keys.len()
    }

    /// Rebuild the timer heap without tombstones and return how many were
    /// dropped. `(at, seq)` keys are preserved, so the total event order —
    /// and therefore determinism — is unchanged; compaction only reclaims
    /// memory and pop work.
    fn compact(&mut self) -> usize {
        let mut keys = std::mem::take(&mut self.timer_keys).into_vec();
        let before = keys.len();
        keys.retain(|Reverse(k)| self.timers.is_live(k.handle()));
        let dropped = before - keys.len();
        self.timer_keys = BinaryHeap::from(keys);
        self.dead_entries = 0;
        dropped
    }

    /// Invariant I9 (DESIGN.md §5.8) over the slab and all three lanes.
    fn validate(&self) -> Result<(), String> {
        self.timers.validate()?;
        let (mut live_keys, mut tombstones) = (0usize, 0usize);
        for Reverse(k) in self.timer_keys.iter() {
            if !self.timers.is_live(k.handle()) {
                tombstones += 1;
                continue;
            }
            live_keys += 1;
            if k.at < self.now {
                return Err(format!("timer heap: live key due {:?}, now is {:?}", k.at, self.now));
            }
        }
        if live_keys != self.timers.live {
            return Err(format!(
                "timer heap: {} live keys queued for {} armed slots",
                live_keys, self.timers.live
            ));
        }
        if tombstones != self.dead_entries {
            return Err(format!(
                "timer heap: {} tombstones in heap but dead_entries counter says {}",
                tombstones, self.dead_entries
            ));
        }
        if let Some(Reverse(q)) = self.events.iter().find(|e| e.0.at < self.now) {
            return Err(format!("event heap: entry due {:?}, now is {:?}", q.at, self.now));
        }
        let mut prev_seq = None;
        for q in &self.now_lane {
            if q.at != self.now {
                return Err(format!("now lane: entry due {:?} while now is {:?}", q.at, self.now));
            }
            if prev_seq.is_some_and(|p| p >= q.seq) {
                return Err(format!("now lane: seq {} queued behind seq {:?}", q.seq, prev_seq));
            }
            prev_seq = Some(q.seq);
        }
        Ok(())
    }
}

/// The execution context handed to an agent while it handles an event.
pub struct Ctx<'a> {
    self_id: AgentId,
    cal: &'a mut Calendar,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.cal.now
    }

    /// The id of the agent handling this event.
    #[inline]
    pub fn self_id(&self) -> AgentId {
        self.self_id
    }

    /// Deliver `frame` to `dst`'s `port` after `delay`.
    #[inline]
    pub fn send_frame(&mut self, dst: AgentId, port: u16, delay: SimDuration, frame: Frame) {
        self.cal.push_event(self.cal.now + delay, dst, Event::Frame { port, frame });
    }

    /// Arrange for [`Event::Timer`] with `token` to fire on this agent after
    /// `delay`. Raw path: the timer cannot be cancelled; agents that rearm
    /// raw timers must detect stale deliveries themselves. Prefer
    /// [`Ctx::arm_timer`] for anything that can be superseded.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.cal.push_event(self.cal.now + delay, self.self_id, Event::Timer { token });
    }

    /// Arm a cancellable timer: [`Event::Timer`] with `token` fires on this
    /// agent after `delay` unless the returned handle is cancelled or
    /// rescheduled first. The handle goes stale once the timer fires.
    #[inline]
    pub fn arm_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        self.cal.arm(self.cal.now + delay, self.self_id, token)
    }

    /// Cancel a timer armed with [`Ctx::arm_timer`]. Returns whether the
    /// timer was still pending (stale handles return `false`).
    #[inline]
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        self.cal.disarm(h).is_some()
    }

    /// Move a pending timer to fire after `delay` instead, keeping its
    /// token. Returns the replacement handle, or `None` if `h` was stale
    /// (already fired or cancelled) — in that case arm a fresh timer.
    #[inline]
    pub fn reschedule_timer(&mut self, h: TimerHandle, delay: SimDuration) -> Option<TimerHandle> {
        let (_, token) = self.cal.disarm(h)?;
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
/// All are exact and repeat on every machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered to agents.
    pub events_delivered: u64,
    /// Tombstoned timer entries discarded at pop (cancelled/rescheduled).
    pub stale_timer_pops: u64,
    /// Timer-heap compactions performed.
    pub compactions: u64,
    /// Of `events_delivered`, those that came off the now lane: scheduled for
    /// the very instant they were queued in, so never sorted.
    pub same_instant_deliveries: u64,
    /// Of `events_delivered`, cancellable timers that fired.
    pub timer_deliveries: u64,
    /// Most entries (tombstones included) the calendar held after any one
    /// dispatch.
    pub peak_pending: u64,
}

/// The simulation world: clock, event queue, agents, RNG factory.
pub struct World {
    cal: Calendar,
    agents: Vec<Box<dyn Agent>>,
    rng: RngFactory,
    started: bool,
    event_budget: u64,
    stats: EngineStats,
}

impl World {
    /// Create a world with the given root seed. The second argument is the
    /// benchmark's shim (see [`TraceLevel`]) and selects nothing.
    pub fn new(seed: u64, _: TraceLevel) -> Self {
        World {
            cal: Calendar::default(),
            agents: Vec::new(),
            rng: RngFactory::new(seed),
            started: false,
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
        self.agents.push(agent);
        if self.started {
            self.cal.push_event(self.cal.now, id, Event::Start);
        }
        id
    }

    /// Schedule an event from outside any agent (harness use).
    pub fn schedule(&mut self, at: SimTime, dst: AgentId, ev: Event) {
        assert!(at >= self.cal.now, "cannot schedule into the past");
        self.cal.push_event(at, dst, ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.cal.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.stats.events_delivered
    }

    /// Event-loop counters (tombstones discarded, compactions, ...).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Cancellable timers currently pending.
    pub fn live_timers(&self) -> usize {
        self.cal.timers.live
    }

    /// Check the calendar invariants: slab structure (armed/free/live
    /// consistency), one live timer-heap key per armed slot, an exact
    /// tombstone count backing the compaction trigger, nothing queued in the
    /// past, and a now lane that holds only entries due at the current
    /// instant in ascending `seq`. Always compiled so harnesses can call it
    /// from release builds; the engine itself invokes it at compaction only
    /// under `debug_assertions` / the `check-invariants` feature.
    pub fn validate_timers(&self) -> Result<(), String> {
        self.cal.validate()
    }

    /// Borrow an agent by id, downcast to its concrete type.
    pub fn agent<T: Agent>(&self, id: AgentId) -> Option<&T> {
        // Upcast the boxed agent, not the `Box`: a `&Box<dyn Agent>` is
        // itself `Any` and would downcast to `None` for every `T`.
        let agent: &dyn Any = &**self.agents.get(id as usize)?;
        agent.downcast_ref()
    }

    /// Mutably borrow an agent by id, downcast to its concrete type.
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> Option<&mut T> {
        let agent: &mut dyn Any = &mut **self.agents.get_mut(id as usize)?;
        agent.downcast_mut()
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for id in 0..self.agents.len() as AgentId {
                self.cal.push_event(self.cal.now, id, Event::Start);
            }
        }
    }

    /// Drop every tombstone from the timer heap (see [`Calendar::compact`]).
    fn compact(&mut self) {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        #[expect(
            clippy::panic,
            reason = "invariant oracle: aborting on a violated timer invariant is the check"
        )]
        if let Err(e) = self.validate_timers() {
            panic!("timer invariant violated entering compaction: {e}");
        }
        self.stats.stale_timer_pops += self.cal.compact() as u64;
        self.stats.compactions += 1;
    }

    /// Run until the queue is empty or `horizon` is reached, whichever comes
    /// first. The clock never advances past `horizon`, and never moves back
    /// if `horizon` is already behind it.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.ensure_started();
        loop {
            let Some((at, lane)) = self.cal.head() else {
                return RunOutcome::Idle;
            };
            if at > horizon {
                self.cal.now = self.cal.now.max(horizon);
                return RunOutcome::HorizonReached;
            }
            if self.stats.events_delivered >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            let Some((dst, ev)) = self.cal.pop_head(lane) else {
                self.stats.stale_timer_pops += 1;
                continue;
            };
            self.stats.events_delivered += 1;
            match lane {
                Lane::Now => self.stats.same_instant_deliveries += 1,
                Lane::Timers => self.stats.timer_deliveries += 1,
                Lane::Events => {}
            }

            // An event for an agent that was never registered is dropped.
            let Some(agent) = self.agents.get_mut(dst as usize) else {
                continue;
            };
            agent.handle(ev, &mut Ctx { self_id: dst, cal: &mut self.cal });
            self.stats.peak_pending = self.stats.peak_pending.max(self.cal.pending() as u64);
            if self.cal.wants_compaction() {
                self.compact();
            }
        }
    }

    /// Run until the event queue drains (or the event budget trips).
    pub fn run_until_idle(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use proptest::collection::vec;
    use proptest::prelude::*;

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
        struct Other(u32);
        impl Agent for Other {
            fn handle(&mut self, _: Event, _: &mut Ctx<'_>) {}
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Other(7)));
        assert!(w.agent::<Echo>(a).is_none());
        assert!(w.agent_mut::<Echo>(a).is_none());
        assert!(w.agent::<Other>(a + 1).is_none());
        // The right type reaches the agent itself, not its `Box`.
        assert_eq!(w.agent::<Other>(a).map(|o| o.0), Some(7));
        w.agent_mut::<Other>(a).expect("agent_mut downcast").0 = 9;
        assert_eq!(w.agent::<Other>(a).map(|o| o.0), Some(9));
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
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Churn { h: None, remaining: 50_000 }));
        w.run_until_idle();
        assert_eq!(w.agent::<Churn>(a).unwrap().remaining, 0);
        assert_eq!(w.live_timers(), 0);
        assert!(w.cal.timers.slots.len() <= 4, "slab grew to {}", w.cal.timers.slots.len());
        // All 50k superseded entries were discarded (at pop or compaction)...
        assert_eq!(w.stats().stale_timer_pops, 50_000);
        // ...and the calendar is empty, not full of tombstones.
        assert_eq!(w.cal.pending(), 0);
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
        }
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Orderly { fired: vec![] }));
        w.run_until_idle();
        let expect: Vec<u64> = (0..2000u64).filter(|t| t % 4 != 1).collect();
        assert_eq!(w.agent::<Orderly>(a).unwrap().fired, expect);
    }

    #[test]
    fn horizon_behind_the_clock_does_not_rewind_it() {
        let mut w = World::new(1, TraceLevel::Off);
        let a = w.add_agent(Box::new(Echo::new(None, SimDuration::ZERO, 0)));
        w.schedule(SimTime::from_secs(8), a, Event::Timer { token: 1 });
        w.schedule(SimTime::from_secs(15), a, Event::Timer { token: 2 });
        assert_eq!(w.run_until(SimTime::from_secs(10)), RunOutcome::HorizonReached);
        assert_eq!(w.now(), SimTime::from_secs(10));
        // A horizon already passed: nothing runs and the clock stays, so
        // nothing can be scheduled behind the event delivered at 8 s.
        assert_eq!(w.run_until(SimTime::from_secs(5)), RunOutcome::HorizonReached);
        assert_eq!(w.now(), SimTime::from_secs(10));
        w.schedule(w.now(), a, Event::Timer { token: 3 });
        w.validate_timers().unwrap();
        w.run_until_idle();
        assert_eq!(w.agent::<Echo>(a).unwrap().timers_seen, vec![1, 3, 2]);
    }

    // ------------------------------------------------ the (at, seq) order

    /// What a delivery carried. A frame's port and a timer's token double as
    /// the tag that selects what the receiving handler does.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum What {
        Start,
        Frame(u16),
        Timer(u16),
    }

    /// One scheduling call made from inside a handler; delays in ns.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Send { dst: AgentId, delay: u64, tag: u16 },
        Set { delay: u64, tag: u16 },
        /// `arm_timer`; the handle joins the board's list.
        Arm { delay: u64, tag: u16 },
        /// `cancel_timer` on the `nth` handle of that list (modulo its
        /// length), whether or not it is still live.
        Cancel { nth: usize },
        /// `reschedule_timer`, likewise.
        Resched { nth: usize, delay: u64 },
    }

    type Log = Vec<(u64, AgentId, What)>;

    /// State shared by the [`Scripted`] agents of one world.
    struct Board {
        /// `reactions[tag]`: the calls made by the first handler that
        /// receives `tag` (later deliveries of the same tag are only logged,
        /// which bounds a script's run).
        reactions: Vec<Vec<Op>>,
        ran: Vec<bool>,
        handles: Vec<TimerHandle>,
        log: Log,
    }

    /// The reaction `what` triggers, if it has not run yet.
    fn claim<'a>(reactions: &'a [Vec<Op>], ran: &mut [bool], what: What) -> &'a [Op] {
        let (What::Frame(tag) | What::Timer(tag)) = what else {
            return &[];
        };
        match ran.get_mut(tag as usize) {
            Some(done @ false) => {
                *done = true;
                &reactions[tag as usize]
            }
            _ => &[],
        }
    }

    struct Scripted(Rc<RefCell<Board>>);

    impl Agent for Scripted {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            let what = match ev {
                Event::Start => What::Start,
                Event::Frame { port, .. } => What::Frame(port),
                Event::Timer { token } => What::Timer(token as u16),
            };
            let board = &mut *self.0.borrow_mut();
            board.log.push((ctx.now().as_nanos(), ctx.self_id(), what));
            let ns = SimDuration::from_nanos;
            for &op in claim(&board.reactions, &mut board.ran, what) {
                match op {
                    Op::Send { dst, delay, tag } => ctx.send_frame(dst, tag, ns(delay), frame()),
                    Op::Set { delay, tag } => ctx.set_timer(ns(delay), tag.into()),
                    Op::Arm { delay, tag } => {
                        board.handles.push(ctx.arm_timer(ns(delay), tag.into()));
                    }
                    Op::Cancel { nth } => {
                        if !board.handles.is_empty() {
                            ctx.cancel_timer(board.handles[nth % board.handles.len()]);
                        }
                    }
                    Op::Resched { nth, delay } => {
                        if !board.handles.is_empty() {
                            let i = nth % board.handles.len();
                            if let Some(h) = ctx.reschedule_timer(board.handles[i], ns(delay)) {
                                board.handles[i] = h;
                            }
                        }
                    }
                }
            }
        }
    }

    fn scripted_world(agents: u32, reactions: Vec<Vec<Op>>) -> (World, Rc<RefCell<Board>>) {
        let ran = vec![false; reactions.len()];
        let board = Rc::new(RefCell::new(Board { reactions, ran, handles: vec![], log: vec![] }));
        let mut w = World::new(1, TraceLevel::Off);
        for _ in 0..agents {
            w.add_agent(Box::new(Scripted(board.clone())));
        }
        (w, board)
    }

    fn event(what: What) -> Event {
        match what {
            What::Start => Event::Start,
            What::Frame(port) => Event::Frame { port, frame: frame() },
            What::Timer(tag) => Event::Timer { token: tag.into() },
        }
    }

    /// Run `reactions` to the end after kicking tag 0 into agent 0 at 5 ns;
    /// returns what was delivered after the kick.
    fn deliveries_after_kick(agents: u32, reactions: Vec<Vec<Op>>) -> Log {
        let (mut w, board) = scripted_world(agents, reactions);
        w.schedule(SimTime::from_nanos(5), 0, event(What::Timer(0)));
        assert_eq!(w.run_until_idle(), RunOutcome::Idle);
        w.validate_timers().unwrap();
        let log = board.borrow().log.clone();
        let kick = log.iter().position(|&(_, _, what)| what == What::Timer(0)).expect("kick ran");
        log[kick + 1..].to_vec()
    }

    #[test]
    fn same_instant_frame_in_the_heap_beats_a_later_now_lane_entry() {
        // Frames for A and B arrive in the same ns, A's first; A's handler
        // hands a zero-delay frame to C. C's frame was inserted after B's.
        let (a, b, c) = (0, 1, 2);
        let (mut w, board) =
            scripted_world(3, vec![vec![], vec![Op::Send { dst: c, delay: 0, tag: 3 }]]);
        let t = SimTime::from_nanos(5);
        w.schedule(t, a, event(What::Frame(1)));
        w.schedule(t, b, event(What::Frame(2)));
        w.run_until_idle();
        assert_eq!(
            board.borrow().log[3..],
            [(5, a, What::Frame(1)), (5, b, What::Frame(2)), (5, c, What::Frame(3))]
        );
        assert_eq!(w.stats().same_instant_deliveries, 3 + 1, "three Starts and C's frame");
    }

    #[test]
    fn timer_and_frame_due_together_fire_in_call_order() {
        // Zero delay pits the timer heap against the now lane, a positive
        // one against the event heap.
        for delay in [0, 4] {
            let arm = Op::Arm { delay, tag: 1 };
            let send = Op::Send { dst: 1, delay, tag: 2 };
            let (timer, frame) = ((5 + delay, 0, What::Timer(1)), (5 + delay, 1, What::Frame(2)));
            assert_eq!(deliveries_after_kick(2, vec![vec![arm, send]]), [timer, frame]);
            assert_eq!(deliveries_after_kick(2, vec![vec![send, arm]]), [frame, timer]);
        }
    }

    #[test]
    fn timer_rescheduled_onto_now_fires_after_earlier_now_lane_entries() {
        let script = vec![vec![
            Op::Arm { delay: 100, tag: 1 },
            Op::Send { dst: 1, delay: 0, tag: 2 },
            Op::Resched { nth: 0, delay: 0 },
            Op::Send { dst: 2, delay: 0, tag: 3 },
        ]];
        assert_eq!(
            deliveries_after_kick(3, script),
            [(5, 1, What::Frame(2)), (5, 0, What::Timer(1)), (5, 2, What::Frame(3))]
        );
    }

    /// The reference calendar: one list sorted on `(at, seq)`.
    struct Model {
        now: u64,
        seq: u64,
        list: BTreeMap<(u64, u64), (AgentId, Pending)>,
        /// Cancellable timers in arming order: owner and tag while armed.
        armed: Vec<Option<(AgentId, u16)>>,
        /// Indices into `armed`, parallel to [`Board::handles`].
        handles: Vec<usize>,
        reactions: Vec<Vec<Op>>,
        ran: Vec<bool>,
        log: Log,
        stale: u64,
        timers_fired: u64,
    }

    enum Pending {
        Event(What),
        Armed(usize),
    }

    impl Model {
        fn new(reactions: Vec<Vec<Op>>) -> Model {
            Model {
                now: 0,
                seq: 0,
                list: BTreeMap::new(),
                armed: vec![],
                handles: vec![],
                ran: vec![false; reactions.len()],
                reactions,
                log: vec![],
                stale: 0,
                timers_fired: 0,
            }
        }

        fn push(&mut self, at: u64, dst: AgentId, p: Pending) {
            self.list.insert((at, self.seq), (dst, p));
            self.seq += 1;
        }

        fn arm(&mut self, at: u64, owner: AgentId, tag: u16) -> usize {
            self.armed.push(Some((owner, tag)));
            self.push(at, owner, Pending::Armed(self.armed.len() - 1));
            self.armed.len() - 1
        }

        fn run_until(&mut self, horizon: u64) -> RunOutcome {
            loop {
                let Some(entry) = self.list.first_entry() else {
                    return RunOutcome::Idle;
                };
                let at = entry.key().0;
                if at > horizon {
                    self.now = self.now.max(horizon);
                    return RunOutcome::HorizonReached;
                }
                let (dst, what) = match entry.remove() {
                    (dst, Pending::Event(what)) => (dst, what),
                    (_, Pending::Armed(id)) => match self.armed[id].take() {
                        Some((owner, tag)) => {
                            self.timers_fired += 1;
                            (owner, What::Timer(tag))
                        }
                        None => {
                            self.stale += 1;
                            continue;
                        }
                    },
                };
                self.now = at;
                self.log.push((at, dst, what));
                for op in claim(&self.reactions, &mut self.ran, what).to_vec() {
                    match op {
                        Op::Send { dst, delay, tag } => {
                            self.push(at + delay, dst, Pending::Event(What::Frame(tag)));
                        }
                        Op::Set { delay, tag } => {
                            self.push(at + delay, dst, Pending::Event(What::Timer(tag)));
                        }
                        Op::Arm { delay, tag } => {
                            let id = self.arm(at + delay, dst, tag);
                            self.handles.push(id);
                        }
                        Op::Cancel { nth } => {
                            if !self.handles.is_empty() {
                                self.armed[self.handles[nth % self.handles.len()]] = None;
                            }
                        }
                        Op::Resched { nth, delay } => {
                            if !self.handles.is_empty() {
                                let i = nth % self.handles.len();
                                if let Some((_, tag)) = self.armed[self.handles[i]].take() {
                                    self.handles[i] = self.arm(at + delay, dst, tag);
                                }
                            }
                        }
                    }
                }
            }
        }

        fn compact(&mut self) {
            let before = self.list.len();
            let armed = &self.armed;
            self.list.retain(|_, (_, p)| !matches!(p, Pending::Armed(id) if armed[*id].is_none()));
            self.stale += (before - self.list.len()) as u64;
        }
    }

    /// What the harness does around one `run_until` call.
    #[derive(Clone, Copy, Debug)]
    struct Step {
        /// `World::schedule` this far ahead of the clock, before running.
        kick: Option<(u64, AgentId, What)>,
        horizon: u64,
        /// Force a compaction after running.
        compact: bool,
    }

    const AGENTS: u32 = 3;
    const TAGS: u16 = 24;
    /// Zero, short and long delays in ns — few values, so instants collide.
    const DELAYS: [u64; 8] = [0, 0, 0, 1, 2, 3, 40, 300];

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..7, 0..AGENTS, 0..DELAYS.len(), 0..TAGS, 0usize..16).prop_map(
            |(kind, dst, delay, tag, nth)| {
                let delay = DELAYS[delay];
                match kind {
                    0 | 1 => Op::Send { dst, delay, tag },
                    2 => Op::Set { delay, tag },
                    3 | 4 => Op::Arm { delay, tag },
                    5 => Op::Cancel { nth },
                    _ => Op::Resched { nth, delay },
                }
            },
        )
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        (0u8..3, 0..AGENTS, 0..DELAYS.len(), 0..TAGS, 0u64..500, 0u8..3).prop_map(
            |(kind, dst, delay, tag, horizon, compact)| {
                let kick = match kind {
                    0 => None,
                    1 => Some((DELAYS[delay], dst, What::Frame(tag))),
                    _ => Some((DELAYS[delay], dst, What::Timer(tag))),
                };
                Step { kick, horizon, compact: compact == 0 }
            },
        )
    }

    proptest! {
        /// Random scripts of every scheduling call, run in slices (horizons
        /// in any order) with forced compactions, deliver exactly what one
        /// list sorted on `(at, seq)` delivers.
        #[test]
        fn lanes_deliver_what_one_sorted_list_delivers(
            reactions in vec(vec(arb_op(), 0..4), TAGS as usize..TAGS as usize + 1),
            steps in vec(arb_step(), 1..10),
        ) {
            let (mut w, board) = scripted_world(AGENTS, reactions.clone());
            let mut m = Model::new(reactions);
            let last = Step { kick: None, horizon: u64::MAX, compact: false };
            for (i, step) in steps.into_iter().chain([last]).enumerate() {
                if let Some((ahead, dst, what)) = step.kick {
                    w.schedule(w.now() + SimDuration::from_nanos(ahead), dst, event(what));
                    m.push(m.now + ahead, dst, Pending::Event(what));
                }
                if i == 0 {
                    // `ensure_started`, after whatever was scheduled first.
                    (0..AGENTS).for_each(|id| m.push(0, id, Pending::Event(What::Start)));
                }
                let outcome = w.run_until(SimTime::from_nanos(step.horizon));
                prop_assert_eq!(outcome, m.run_until(step.horizon));
                prop_assert_eq!(w.now().as_nanos(), m.now);
                w.validate_timers().unwrap();
                if step.compact {
                    w.compact();
                    m.compact();
                    w.validate_timers().unwrap();
                }
            }
            prop_assert_eq!(&board.borrow().log, &m.log);
            prop_assert_eq!(w.cal.pending(), 0);
            prop_assert_eq!(w.live_timers(), 0);
            let stats = w.stats();
            prop_assert_eq!(stats.events_delivered, m.log.len() as u64);
            prop_assert_eq!(stats.timer_deliveries, m.timers_fired);
            prop_assert_eq!(stats.stale_timer_pops, m.stale);
        }
    }
}
