//! Handover and path-lifecycle metrics (DESIGN.md §5.11).
//!
//! The handover campaigns measure what the paper's §7 handover experiments
//! measured: how long the application stalls when a path dies, how quickly
//! traffic shifts to the surviving path, and how the byte mix evolves
//! across the phases of a scripted mobility scenario. One harness feeds
//! these reductions, the handover runner of `mpw-experiments`, with three
//! plain inputs:
//!
//! * a **path event timeline** ([`PathEvent`]) — downs, reopen attempts,
//!   recoveries and signal-strength notifications; the MPTCP connection
//!   logs these very values, so the runner copies its log as it is,
//! * a **progress trace** — `(time, cumulative delivered bytes)` samples of
//!   the receiving application,
//! * **delivery deltas** — `(time, path, novel bytes)` attribution events:
//!   the growth of the bytes each client interface received, sampled every
//!   tick.
//!
//! From these it derives recovery latency distributions ([`HandoverReport`]),
//! application stall time ([`stall_report`]), bytes delivered while a path
//! was in transition ([`bytes_in_transition`]) and per-epoch traffic shares
//! keyed to the scenario's labelled epochs ([`epoch_shares`]).

use mpw_sim::{SimDuration, SimTime};
use serde::Serialize;

use crate::stream::DistSummary;

/// What happened to a path: the vocabulary of the MPTCP connection's
/// lifecycle log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PathEventKind {
    /// The path (or its current subflow) was declared dead.
    Down,
    /// A re-establishment attempt was scheduled (backoff timer armed).
    ReopenScheduled,
    /// A replacement subflow's handshake was launched.
    ReopenLaunched,
    /// A subflow on the path completed its handshake after a death.
    Recovered,
    /// The radio reported weak signal (fade onset).
    SignalWeak,
    /// The radio reported signal restored.
    SignalStrong,
}

/// One entry of a path-event timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PathEvent {
    /// Event kind.
    pub kind: PathEventKind,
    /// Local interface index of the affected path.
    pub if_index: u8,
    /// When it happened.
    pub at: SimTime,
}

/// One completed outage on an interface: from the first death to the
/// recovery that ended it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Outage {
    /// Interface the outage happened on.
    pub if_index: u8,
    /// First death of the outage.
    pub down_at: SimTime,
    /// Recovery that closed it.
    pub recovered_at: SimTime,
    /// Replacement handshakes launched while the outage was open.
    pub reopen_launches: u32,
}

impl Outage {
    /// Recovery latency (down → recovered).
    pub fn recovery(&self) -> SimDuration {
        self.recovered_at.saturating_since(self.down_at)
    }
}

/// Reduction of a path-event timeline: outage pairing and recovery-latency
/// distribution.
#[derive(Clone, Debug, Default, Serialize)]
pub struct HandoverReport {
    /// Total deaths observed (including repeated deaths inside one outage).
    pub deaths: u32,
    /// Recoveries observed.
    pub recoveries: u32,
    /// Reopen attempts scheduled.
    pub reopen_scheduled: u32,
    /// Replacement handshakes launched.
    pub reopen_launched: u32,
    /// Interfaces still down when the timeline ended.
    pub unrecovered: u32,
    /// Completed outages, in recovery order.
    pub outages: Vec<Outage>,
    /// Recovery latency distribution (ms) over completed outages.
    pub recovery_ms: DistSummary,
}

impl HandoverReport {
    /// Pair downs with recoveries per interface. Repeated deaths while an
    /// outage is open (a replacement subflow dying in its turn) extend the
    /// existing outage rather than opening a new one — the outage clock
    /// runs from the *first* death, which is when the application lost the
    /// path.
    pub fn from_events(events: &[PathEvent]) -> HandoverReport {
        let mut report = HandoverReport::default();
        // if_index → (down_at, reopen launches while open). Path counts in
        // this stack are tiny (≤ 8), so a linear map is fine.
        let mut open: Vec<(u8, SimTime, u32)> = Vec::new();
        for ev in events {
            match ev.kind {
                PathEventKind::Down => {
                    report.deaths += 1;
                    if !open.iter().any(|(i, _, _)| *i == ev.if_index) {
                        open.push((ev.if_index, ev.at, 0));
                    }
                }
                PathEventKind::ReopenScheduled => report.reopen_scheduled += 1,
                PathEventKind::ReopenLaunched => {
                    report.reopen_launched += 1;
                    if let Some(o) = open.iter_mut().find(|(i, _, _)| *i == ev.if_index) {
                        o.2 += 1;
                    }
                }
                PathEventKind::Recovered => {
                    report.recoveries += 1;
                    if let Some(pos) = open.iter().position(|(i, _, _)| *i == ev.if_index) {
                        let (if_index, down_at, launches) = open.remove(pos);
                        let outage = Outage {
                            if_index,
                            down_at,
                            recovered_at: ev.at,
                            reopen_launches: launches,
                        };
                        report.recovery_ms.push(outage.recovery().as_millis_f64());
                        report.outages.push(outage);
                    }
                }
                PathEventKind::SignalWeak | PathEventKind::SignalStrong => {}
            }
        }
        report.unrecovered = open.len() as u32;
        report
    }
}

/// A maximal interval during which delivery made no progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StallSpan {
    /// Last instant progress was observed before the stall.
    pub start: SimTime,
    /// Instant progress resumed (or the trace ended).
    pub end: SimTime,
}

impl StallSpan {
    /// Stall duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Application-level stall summary over a progress trace.
#[derive(Clone, Debug, Default, Serialize)]
pub struct StallReport {
    /// Spans where no byte was delivered for at least the threshold.
    pub spans: Vec<StallSpan>,
    /// Sum of span durations.
    pub total: SimDuration,
    /// Longest single span.
    pub longest: SimDuration,
}

impl StallReport {
    /// Number of stall spans.
    pub fn count(&self) -> usize {
        self.spans.len()
    }
}

/// Find stalls in a `(time, cumulative delivered bytes)` trace: maximal
/// intervals of at least `threshold` with no byte progress. Samples must be
/// in time order (byte counts are cumulative, so they are nondecreasing by
/// construction). A trailing no-progress interval counts as a stall — a
/// transfer that never resumed is the worst stall of all.
pub fn stall_report(progress: &[(SimTime, u64)], threshold: SimDuration) -> StallReport {
    let mut report = StallReport::default();
    let Some(&(first_t, first_b)) = progress.first() else {
        return report;
    };
    let mut last_progress_at = first_t;
    let mut last_bytes = first_b;
    let close = |from: SimTime, to: SimTime, report: &mut StallReport| {
        let gap = to.saturating_since(from);
        if gap >= threshold && gap > SimDuration::ZERO {
            report.spans.push(StallSpan { start: from, end: to });
            report.total = report.total.saturating_add(gap);
            report.longest = report.longest.max(gap);
        }
    };
    for &(t, b) in &progress[1..] {
        if b > last_bytes {
            close(last_progress_at, t, &mut report);
            last_progress_at = t;
            last_bytes = b;
        }
    }
    if let Some(&(end_t, _)) = progress.last() {
        if end_t > last_progress_at {
            close(last_progress_at, end_t, &mut report);
        }
    }
    report
}

/// Cumulative delivered bytes at instant `t` per a step-function reading of
/// the progress trace (the value of the latest sample at or before `t`;
/// 0 before the first sample).
pub fn bytes_at(progress: &[(SimTime, u64)], t: SimTime) -> u64 {
    match progress.partition_point(|&(st, _)| st <= t) {
        0 => 0,
        n => progress[n - 1].1,
    }
}

/// Bytes the application received while an outage was open — the paper's
/// "bytes in transition": traffic that had to ride the surviving path(s)
/// between a death and the recovery that ended it.
pub fn bytes_in_transition(progress: &[(SimTime, u64)], outages: &[Outage]) -> u64 {
    outages
        .iter()
        .map(|o| bytes_at(progress, o.recovered_at).saturating_sub(bytes_at(progress, o.down_at)))
        .sum()
}

/// A scenario-labelled time span (the metrics-side shape of the scenario
/// engine's `Epoch`; converted by the harness to avoid a crate cycle).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSpan {
    /// Label of the scenario event that opened the epoch.
    pub label: String,
    /// Epoch start (inclusive).
    pub start: SimTime,
    /// Epoch end (exclusive).
    pub end: SimTime,
}

/// Bytes one path delivered inside one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PathBytes {
    /// Path index.
    pub path: u8,
    /// Novel bytes the path delivered first.
    pub bytes: u64,
}

/// Per-epoch traffic mix.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct EpochShare {
    /// The epoch's scenario label.
    pub label: String,
    /// Epoch start (inclusive).
    pub start: SimTime,
    /// Epoch end (exclusive).
    pub end: SimTime,
    /// Bytes per path, ascending by path index.
    pub by_path: Vec<PathBytes>,
    /// Total novel bytes delivered in the epoch.
    pub total: u64,
}

impl EpochShare {
    /// Fraction of the epoch's bytes that `path` delivered (0 when the
    /// epoch carried nothing).
    pub fn share(&self, path: u8) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.by_path
            .iter()
            .find(|p| p.path == path)
            .map(|p| p.bytes as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// Fraction delivered by paths other than 0 — the cellular-share metric
    /// restricted to this epoch.
    pub fn non_primary_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let other: u64 = self
            .by_path
            .iter()
            .filter(|p| p.path != 0)
            .map(|p| p.bytes)
            .sum();
        other as f64 / self.total as f64
    }
}

/// Attribute `(time, path, novel bytes)` delivery deltas to scenario
/// epochs. Every epoch yields an entry (zero totals included), in the
/// order given; deltas outside every epoch are ignored.
pub fn epoch_shares(deltas: &[(SimTime, u8, u64)], epochs: &[EpochSpan]) -> Vec<EpochShare> {
    epochs
        .iter()
        .map(|e| {
            let mut by_path: Vec<PathBytes> = Vec::new();
            let mut total = 0u64;
            for &(at, path, bytes) in deltas {
                if at < e.start || at >= e.end || bytes == 0 {
                    continue;
                }
                total += bytes;
                match by_path.iter_mut().find(|p| p.path == path) {
                    Some(p) => p.bytes += bytes,
                    None => by_path.push(PathBytes { path, bytes }),
                }
            }
            by_path.sort_by_key(|p| p.path);
            EpochShare {
                label: e.label.clone(),
                start: e.start,
                end: e.end,
                by_path,
                total,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn dms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn ev(kind: PathEventKind, if_index: u8, at_ms: u64) -> PathEvent {
        PathEvent { kind, if_index, at: ms(at_ms) }
    }

    #[test]
    fn report_pairs_downs_with_recoveries_per_interface() {
        use PathEventKind::*;
        let events = [
            ev(SignalWeak, 0, 900),
            ev(Down, 0, 1000),
            ev(ReopenScheduled, 0, 1000),
            ev(ReopenLaunched, 0, 1200),
            ev(Down, 1, 1500),
            ev(Recovered, 1, 1800),
            ev(Recovered, 0, 2000),
        ];
        let r = HandoverReport::from_events(&events);
        assert_eq!(r.deaths, 2);
        assert_eq!(r.recoveries, 2);
        assert_eq!(r.reopen_scheduled, 1);
        assert_eq!(r.reopen_launched, 1);
        assert_eq!(r.unrecovered, 0);
        // Recovery order: if1 closed at 1800 first, then if0 at 2000.
        assert_eq!(r.outages.len(), 2);
        assert_eq!(r.outages[0].if_index, 1);
        assert_eq!(r.outages[0].recovery(), dms(300));
        assert_eq!(r.outages[1].if_index, 0);
        assert_eq!(r.outages[1].recovery(), dms(1000));
        assert_eq!(r.outages[1].reopen_launches, 1);
        assert_eq!(r.recovery_ms.count(), 2);
        assert_eq!(r.recovery_ms.max(), 1000.0);
    }

    #[test]
    fn repeated_deaths_extend_the_open_outage() {
        use PathEventKind::*;
        // The replacement launched at 1200 dies in its turn at 4000; the
        // outage still runs from the first death at 1000.
        let events = [
            ev(Down, 0, 1000),
            ev(ReopenLaunched, 0, 1200),
            ev(Down, 0, 4000),
            ev(ReopenLaunched, 0, 4500),
            ev(Recovered, 0, 5000),
        ];
        let r = HandoverReport::from_events(&events);
        assert_eq!(r.deaths, 2);
        assert_eq!(r.outages.len(), 1);
        assert_eq!(r.outages[0].recovery(), dms(4000));
        assert_eq!(r.outages[0].reopen_launches, 2);
    }

    #[test]
    fn unclosed_outage_is_reported_unrecovered() {
        use PathEventKind::*;
        let r = HandoverReport::from_events(&[ev(Down, 0, 100)]);
        assert_eq!(r.unrecovered, 1);
        assert!(r.outages.is_empty());
        assert!(r.recovery_ms.is_empty());
        // A recovery with no preceding down (initial establishment) counts
        // but pairs with nothing.
        let r = HandoverReport::from_events(&[ev(Recovered, 0, 100)]);
        assert_eq!(r.recoveries, 1);
        assert!(r.outages.is_empty());
    }

    #[test]
    fn stall_report_finds_gaps_over_threshold() {
        let progress = [
            (ms(0), 0),
            (ms(100), 1000),
            (ms(200), 2000),
            // 1.3 s gap: samples keep arriving, bytes don't move.
            (ms(800), 2000),
            (ms(1500), 3000),
            (ms(1600), 4000),
        ];
        let r = stall_report(&progress, dms(500));
        assert_eq!(r.count(), 1);
        assert_eq!(r.spans[0], StallSpan { start: ms(200), end: ms(1500) });
        assert_eq!(r.total, dms(1300));
        assert_eq!(r.longest, dms(1300));
    }

    #[test]
    fn stall_report_counts_trailing_stall_and_respects_threshold() {
        let progress = [(ms(0), 0), (ms(100), 500), (ms(5000), 500)];
        let r = stall_report(&progress, dms(1000));
        assert_eq!(r.count(), 1);
        assert_eq!(r.spans[0], StallSpan { start: ms(100), end: ms(5000) });
        // Sub-threshold gaps are not stalls.
        let smooth = [(ms(0), 0), (ms(100), 1), (ms(200), 2), (ms(300), 3)];
        assert_eq!(stall_report(&smooth, dms(500)).count(), 0);
        // Empty and single-sample traces are stall-free.
        assert_eq!(stall_report(&[], dms(1)).count(), 0);
        assert_eq!(stall_report(&[(ms(5), 5)], dms(1)).count(), 0);
    }

    #[test]
    fn bytes_in_transition_reads_the_step_function() {
        let progress = [(ms(0), 0), (ms(1000), 10_000), (ms(2000), 10_000), (ms(3000), 40_000)];
        assert_eq!(bytes_at(&progress, SimTime::ZERO), 0);
        assert_eq!(bytes_at(&progress, ms(1500)), 10_000);
        assert_eq!(bytes_at(&progress, ms(9999)), 40_000);
        let outage = Outage {
            if_index: 0,
            down_at: ms(500),
            recovered_at: ms(3000),
            reopen_launches: 1,
        };
        assert_eq!(bytes_in_transition(&progress, &[outage]), 40_000);
        assert_eq!(bytes_in_transition(&progress, &[]), 0);
    }

    #[test]
    fn epoch_shares_attribute_deltas_to_labelled_spans() {
        let epochs = [
            EpochSpan { label: "start".into(), start: ms(0), end: ms(1000) },
            EpochSpan { label: "fade".into(), start: ms(1000), end: ms(3000) },
            EpochSpan { label: "restored".into(), start: ms(3000), end: ms(4000) },
        ];
        let deltas = [
            (ms(100), 0u8, 700u64),
            (ms(900), 1, 300),
            (ms(1000), 1, 400), // epoch starts are inclusive
            (ms(2999), 1, 600),
            (ms(3500), 0, 250),
            (ms(3500), 0, 250), // same path accumulates
            (ms(4000), 0, 999), // past the last epoch end: dropped
        ];
        let shares = epoch_shares(&deltas, &epochs);
        assert_eq!(shares.len(), 3);
        assert_eq!(shares[0].total, 1000);
        assert!((shares[0].share(0) - 0.7).abs() < 1e-12);
        assert!((shares[0].non_primary_share() - 0.3).abs() < 1e-12);
        assert_eq!(shares[1].total, 1000);
        assert!((shares[1].non_primary_share() - 1.0).abs() < 1e-12);
        assert_eq!(shares[2].by_path, vec![PathBytes { path: 0, bytes: 500 }]);
        // Empty epochs still appear, with zero shares.
        let empty = epoch_shares(&[], &epochs);
        assert_eq!(empty.len(), 3);
        assert_eq!(empty[0].total, 0);
        assert_eq!(empty[0].share(0), 0.0);
    }
}
