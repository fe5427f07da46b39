//! The MPTCP packet scheduler.
//!
//! Linux MPTCP v0.86 (the implementation the paper measured) assigns each
//! segment to the established subflow with the lowest smoothed RTT among
//! those with congestion-window space. That default is implemented here,
//! plus a round-robin alternative used by the ablation benches.

use mpw_sim::SimDuration;

/// Scheduler choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// Lowest-SRTT-with-space (Linux MPTCP default).
    MinRtt,
    /// Rotate across subflows with space.
    RoundRobin,
}

/// A scheduling view of one subflow.
#[derive(Clone, Copy, Debug)]
pub struct SubflowView {
    /// Index into the connection's subflow table.
    pub index: usize,
    /// Whether the subflow handshake completed.
    pub established: bool,
    /// Smoothed RTT (`None` until the first sample).
    pub srtt: Option<SimDuration>,
    /// Free congestion-window space in bytes (cwnd − in flight).
    pub cwnd_space: usize,
    /// Free send-buffer space in bytes.
    pub buffer_space: usize,
    /// Backup path (RFC 6824 'B' bit): used only when every regular subflow
    /// is dead or stalled.
    pub backup: bool,
    /// Path looks dead (repeated RTOs) or its socket closed.
    pub stalled: bool,
}

impl SubflowView {
    fn usable(&self, chunk: usize) -> bool {
        self.established
            && !self.stalled
            && self.cwnd_space >= chunk
            && self.buffer_space >= chunk
    }
}

/// Stateful scheduler instance (round-robin needs a cursor).
#[derive(Clone, Debug, Default)]
pub struct SchedulerState {
    rr_cursor: usize,
}

impl SchedulerState {
    /// Pick the subflow to carry the next chunk of `chunk` bytes, or `None`
    /// if no subflow can take it right now.
    pub fn pick(
        &mut self,
        policy: Scheduler,
        flows: &[SubflowView],
        chunk: usize,
    ) -> Option<usize> {
        // Backup-mode gate: while any regular subflow is alive (established
        // and not stalled), backup subflows are invisible to the scheduler.
        let regular_alive = flows
            .iter()
            .any(|f| !f.backup && f.established && !f.stalled);
        // `pick` runs once per scheduled segment, so it must stay off the
        // heap: the backup-visibility filter is applied inline rather than
        // collected into a scratch vector.
        let visible = |f: &SubflowView| !(regular_alive && f.backup);
        match policy {
            Scheduler::MinRtt => flows
                .iter()
                .filter(|f| visible(f) && f.usable(chunk))
                .min_by_key(|f| {
                    (
                        // Unmeasured subflows (no srtt yet) are tried last:
                        // the established default path wins early, which is
                        // exactly why small flows never use cellular (§4.1).
                        f.srtt.unwrap_or(SimDuration::MAX),
                        f.index,
                    )
                })
                .map(|f| f.index),
            Scheduler::RoundRobin => {
                // The cursor rotates over the *visible* subflows; re-walking
                // the (tiny) slice per step is cheaper than materializing
                // the filtered list.
                let n = flows.iter().filter(|f| visible(f)).count();
                if n == 0 {
                    return None;
                }
                for step in 0..n {
                    let i = (self.rr_cursor + step) % n;
                    let f = flows.iter().filter(|f| visible(f)).nth(i)?;
                    if f.usable(chunk) {
                        self.rr_cursor = (i + 1) % n;
                        return Some(f.index);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(index: usize, srtt_ms: Option<u64>, cwnd_space: usize) -> SubflowView {
        SubflowView {
            index,
            established: true,
            srtt: srtt_ms.map(SimDuration::from_millis),
            cwnd_space,
            buffer_space: 1 << 20,
            backup: false,
            stalled: false,
        }
    }

    #[test]
    fn min_rtt_prefers_fast_path() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, Some(20), 10_000), flow(1, Some(60), 10_000)];
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), Some(0));
    }

    #[test]
    fn min_rtt_spills_to_slow_path_when_fast_is_full() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, Some(20), 0), flow(1, Some(60), 10_000)];
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), Some(1));
    }

    #[test]
    fn unestablished_subflows_are_skipped() {
        let mut s = SchedulerState::default();
        let mut f1 = flow(1, Some(5), 10_000);
        f1.established = false;
        let flows = [flow(0, Some(60), 10_000), f1];
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), Some(0));
    }

    #[test]
    fn unmeasured_srtt_ranks_last() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, None, 10_000), flow(1, Some(500), 10_000)];
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), Some(1));
    }

    #[test]
    fn nothing_usable_returns_none() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, Some(20), 0), flow(1, Some(60), 100)];
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, Some(20), 10_000), flow(1, Some(60), 10_000)];
        let picks: Vec<_> = (0..4)
            .map(|_| s.pick(Scheduler::RoundRobin, &flows, 1400).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn round_robin_skips_full_flows() {
        let mut s = SchedulerState::default();
        let flows = [flow(0, Some(20), 0), flow(1, Some(60), 10_000)];
        assert_eq!(s.pick(Scheduler::RoundRobin, &flows, 1400), Some(1));
        assert_eq!(s.pick(Scheduler::RoundRobin, &flows, 1400), Some(1));
    }

    #[test]
    fn backup_invisible_while_regular_alive() {
        let mut s = SchedulerState::default();
        let mut b = flow(1, Some(5), 1 << 20);
        b.backup = true;
        let flows = [flow(0, Some(60), 1 << 20), b];
        // Despite the better RTT, the backup path is skipped.
        assert_eq!(s.pick(Scheduler::MinRtt, &flows, 1400), Some(0));
    }

    #[test]
    fn backup_takes_over_when_regular_stalls() {
        let mut s = SchedulerState::default();
        let mut dead = flow(0, Some(20), 1 << 20);
        dead.stalled = true;
        let mut b = flow(1, Some(60), 1 << 20);
        b.backup = true;
        assert_eq!(s.pick(Scheduler::MinRtt, &[dead, b], 1400), Some(1));
    }

    #[test]
    fn buffer_space_gates_scheduling() {
        let mut s = SchedulerState::default();
        let mut f = flow(0, Some(20), 10_000);
        f.buffer_space = 100;
        assert_eq!(s.pick(Scheduler::MinRtt, &[f], 1400), None);
    }
}
