//! Fleet-scale aggregation: flow-completion-time distributions, Jain's
//! fairness, per-technology byte shares, and an aggregate goodput timeline
//! over hundreds-to-thousands of concurrent flows (DESIGN.md §5.14).
//!
//! Everything here folds exactly, so aggregation is associative and
//! commutative: a [`FleetReport`] merged from K shards in any order is
//! byte-identical to the unsharded fold. Counters are u64 adds and
//! histogram buckets are exact counts. Completion times are whole
//! microseconds, so the f64 sum in their [`DistSummary`] holds integers
//! and every addition is exact below 2⁵³ µs (≈285 years of summed flow
//! time): the sum does not depend on the order of the folds either. That
//! property is what lets sharded campaigns run on any worker count and
//! still gate CI on exact JSON equality — the same bar the
//! single-scenario replay check sets.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::stream::DistSummary;

/// Jain's fairness index over per-flow rates, folded exactly.
///
/// Keeps `Σx` and `Σx²` as integers; the index `(Σx)² / (n·Σx²)` is only
/// materialized on read. Rates are kbit/s, so `Σx²` stays far below u64
/// range for any plausible fleet (10⁶ kbit/s per flow squared is 10¹²;
/// 10⁶ flows of those still fit).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Fairness {
    /// Number of flows.
    pub n: u64,
    /// Exact Σ rate.
    pub sum_kbps: u64,
    /// Exact Σ rate².
    pub sum_sq_kbps: u64,
}

impl Fairness {
    /// Absorb one flow's achieved rate.
    pub fn push(&mut self, rate_kbps: u64) {
        self.n += 1;
        self.sum_kbps += rate_kbps;
        self.sum_sq_kbps += rate_kbps * rate_kbps;
    }

    /// Fold another accumulator in.
    pub fn merge(&mut self, other: &Fairness) {
        self.n += other.n;
        self.sum_kbps += other.sum_kbps;
        self.sum_sq_kbps += other.sum_sq_kbps;
    }

    /// Jain's index in (0, 1]; 1.0 means perfectly equal rates. Returns
    /// 1.0 for an empty or all-zero population (nothing to be unfair
    /// about).
    pub fn jain(&self) -> f64 {
        if self.n == 0 || self.sum_sq_kbps == 0 {
            return 1.0;
        }
        let s = self.sum_kbps as f64;
        (s * s) / (self.n as f64 * self.sum_sq_kbps as f64)
    }
}

/// Aggregate delivered-bytes timeline in fixed wall-of-sim-time buckets.
///
/// Keyed by bucket *start time* in milliseconds, so reports built with the
/// same bucket width merge by plain addition whatever their horizons.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct GoodputTimeline {
    /// Bucket width (ms).
    pub bucket_ms: u64,
    /// bucket start (ms) → bytes delivered in that bucket.
    pub buckets: BTreeMap<u64, u64>,
}

impl GoodputTimeline {
    /// Empty timeline with the given bucket width (0 is coerced to 1).
    pub fn new(bucket_ms: u64) -> Self {
        GoodputTimeline {
            bucket_ms: bucket_ms.max(1),
            buckets: BTreeMap::new(),
        }
    }

    /// Record `bytes` delivered at sim-time `at_ms`.
    pub fn add(&mut self, at_ms: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let start = at_ms - at_ms % self.bucket_ms;
        *self.buckets.entry(start).or_insert(0) += bytes;
    }

    /// Fold another timeline in (same bucket width by construction — both
    /// sides of every merge come from the same `FleetSpec`-derived
    /// report shape).
    pub fn merge(&mut self, other: &GoodputTimeline) {
        for (&start, &bytes) in &other.buckets {
            *self.buckets.entry(start).or_insert(0) += bytes;
        }
    }
}

/// One finished (or cut-off) flow, as harvested from a fleet world.
///
/// Records are the unit of aggregation: a [`FleetReport`] is a pure fold
/// over them plus the engine's goodput samples, which is what makes
/// sharding transparent.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FlowRecord {
    /// Owning client index within the fleet.
    pub client: u32,
    /// Population class label ("wifi", "lte", "mp2", ...).
    pub class: String,
    /// When the flow's transport opened (sim ms).
    pub started_ms: u64,
    /// Whether the workload ran to completion before the horizon.
    pub completed: bool,
    /// Flow completion time in µs (meaningful when `completed`).
    pub fct_us: u64,
    /// Application bytes delivered.
    pub bytes: u64,
    /// Bytes delivered over WiFi subflows/paths.
    pub wifi_bytes: u64,
    /// Bytes delivered over cellular subflows/paths.
    pub cell_bytes: u64,
    /// Achieved goodput in kbit/s (meaningful when `completed`).
    pub rate_kbps: u64,
    /// Streaming-workload blocks that missed their deadline.
    pub late_blocks: u64,
}

/// The fleet-wide aggregate: everything the contention artifacts and the
/// CI smoke gate read. Built by folding [`FlowRecord`]s (plus goodput
/// samples) and merged across shards with [`FleetReport::merge`] — both
/// folds are exact, so any sharding of the same records yields
/// byte-identical JSON.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FleetReport {
    /// Clients simulated.
    pub clients: u64,
    /// Flows opened.
    pub flows_started: u64,
    /// Flows that completed their workload.
    pub flows_completed: u64,
    /// Total application bytes delivered.
    pub bytes: u64,
    /// Bytes carried by WiFi.
    pub wifi_bytes: u64,
    /// Bytes carried by cellular.
    pub cell_bytes: u64,
    /// Flow-completion times (µs) over completed flows.
    pub fct: DistSummary,
    /// Completion times split by population class.
    pub fct_by_class: BTreeMap<String, DistSummary>,
    /// Jain's fairness over completed flows' rates.
    pub fairness: Fairness,
    /// Aggregate delivered-bytes timeline.
    pub goodput: GoodputTimeline,
    /// Total streaming blocks delivered late.
    pub late_blocks: u64,
}

impl FleetReport {
    /// Empty report with the given goodput bucket width.
    pub fn new(bucket_ms: u64) -> Self {
        FleetReport {
            clients: 0,
            flows_started: 0,
            flows_completed: 0,
            bytes: 0,
            wifi_bytes: 0,
            cell_bytes: 0,
            fct: DistSummary::new(),
            fct_by_class: BTreeMap::new(),
            fairness: Fairness::default(),
            goodput: GoodputTimeline::new(bucket_ms),
            late_blocks: 0,
        }
    }

    /// Fold one flow in.
    pub fn absorb(&mut self, r: &FlowRecord) {
        self.flows_started += 1;
        self.bytes += r.bytes;
        self.wifi_bytes += r.wifi_bytes;
        self.cell_bytes += r.cell_bytes;
        self.late_blocks += r.late_blocks;
        if r.completed {
            self.flows_completed += 1;
            self.fct.push(r.fct_us as f64);
            self.fct_by_class
                .entry(r.class.clone())
                .or_default()
                .push(r.fct_us as f64);
            self.fairness.push(r.rate_kbps);
        }
    }

    /// Record aggregate delivered bytes at a sim instant (the engine's
    /// sampling tick calls this once per tick with the fleet-wide delta).
    pub fn absorb_goodput(&mut self, at_ms: u64, bytes: u64) {
        self.goodput.add(at_ms, bytes);
    }

    /// Build a report from records alone (no timeline samples) — the shape
    /// the merge proptest exercises.
    pub fn from_records(bucket_ms: u64, clients: u64, records: &[FlowRecord]) -> Self {
        let mut r = FleetReport::new(bucket_ms);
        r.clients = clients;
        for rec in records {
            r.absorb(rec);
        }
        r
    }

    /// Fold a shard's report in. Clients are disjoint across shards, so
    /// counts add.
    pub fn merge(&mut self, other: &FleetReport) {
        self.clients += other.clients;
        self.flows_started += other.flows_started;
        self.flows_completed += other.flows_completed;
        self.bytes += other.bytes;
        self.wifi_bytes += other.wifi_bytes;
        self.cell_bytes += other.cell_bytes;
        self.late_blocks += other.late_blocks;
        self.fct.merge(&other.fct);
        for (class, dist) in &other.fct_by_class {
            self.fct_by_class
                .entry(class.clone())
                .or_default()
                .merge(dist);
        }
        self.fairness.merge(&other.fairness);
        self.goodput.merge(&other.goodput);
    }

    /// Cellular share of delivered bytes (the paper's Figure-9 axis,
    /// fleet-wide). 0 when nothing was delivered.
    pub fn cellular_share(&self) -> f64 {
        let total = self.wifi_bytes + self.cell_bytes;
        if total == 0 {
            0.0
        } else {
            self.cell_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(client: u32, class: &str, fct_us: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client,
            class: class.into(),
            started_ms: client as u64,
            completed: true,
            fct_us,
            bytes,
            wifi_bytes: bytes / 2,
            cell_bytes: bytes - bytes / 2,
            rate_kbps: (bytes * 8_000).checked_div(fct_us).unwrap_or(0),
            late_blocks: 0,
        }
    }

    #[test]
    fn jain_index_bounds() {
        let mut f = Fairness::default();
        assert_eq!(f.jain(), 1.0);
        for _ in 0..10 {
            f.push(500);
        }
        assert!((f.jain() - 1.0).abs() < 1e-12);
        let mut g = Fairness::default();
        g.push(1000);
        for _ in 0..9 {
            g.push(0);
        }
        assert!((g.jain() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn timeline_buckets() {
        let mut t = GoodputTimeline::new(100);
        t.add(0, 1000);
        t.add(99, 1000);
        t.add(100, 500);
        assert_eq!(t.buckets.get(&0), Some(&2000));
        assert_eq!(t.buckets.get(&100), Some(&500));
    }

    const CLASSES: [&str; 4] = ["wifi", "lte", "mp2", "mp4"];

    proptest! {
        /// Shard merges are exact, the contract the fleet campaign's worker
        /// pool relies on: worker count and shard split are implementation
        /// detail. Completion times span 1 µs to 10¹⁰ µs, flows complete or
        /// not; up to eight shards are cut at random split points or dealt
        /// at random (round-robin past the end of the deal, so `i % 3` is
        /// among them), and the shard reports fold in a shuffled order. The
        /// JSON equals the sequential fold's byte for byte.
        #[test]
        fn report_merge_is_exact(
            flows in proptest::collection::vec(
                (
                    (0u32..=10, any::<u64>()).prop_map(|(k, r)| 1 + r % 10u64.pow(k)),
                    0usize..CLASSES.len(),
                    any::<bool>(),
                    0u64..64_000_000,
                    0u64..10_000,
                    0u64..20,
                ),
                0..300,
            ),
            cuts in proptest::collection::vec(0usize..300, 0..8),
            dealt in any::<bool>(),
            deal in proptest::collection::vec(0usize..8, 0..300),
            keys in proptest::collection::vec(any::<u64>(), 8..9),
        ) {
            let records: Vec<FlowRecord> = flows
                .iter()
                .enumerate()
                .map(|(i, &(fct_us, class, completed, bytes, rate_kbps, late_blocks))| FlowRecord {
                    completed,
                    rate_kbps,
                    late_blocks,
                    ..rec(i as u32, CLASSES[class], fct_us, bytes)
                })
                .collect();
            let whole = FleetReport::from_records(50, records.len() as u64, &records);
            let shards = cuts.len() + 1;
            let mut parts: Vec<Vec<FlowRecord>> = vec![Vec::new(); shards];
            if dealt {
                for (i, r) in records.iter().enumerate() {
                    parts[deal.get(i).copied().unwrap_or(i) % shards].push(r.clone());
                }
            } else {
                let mut ends: Vec<usize> = cuts.iter().map(|&c| c.min(records.len())).collect();
                ends.sort_unstable();
                ends.push(records.len());
                let mut start = 0;
                for (part, end) in parts.iter_mut().zip(ends) {
                    part.extend_from_slice(&records[start..end]);
                    start = end;
                }
            }
            let mut order: Vec<usize> = (0..shards).collect();
            order.sort_by_key(|&i| keys[i]);
            let mut merged = FleetReport::new(50);
            for i in order {
                merged.merge(&FleetReport::from_records(50, parts[i].len() as u64, &parts[i]));
            }
            prop_assert_eq!(crate::to_json(&merged), crate::to_json(&whole));
        }

        #[test]
        fn goodput_samples_merge_exactly(
            samples in proptest::collection::vec((0u64..100_000, 0u64..1_000_000), 0..200),
            split in 0usize..200,
        ) {
            let mut whole = FleetReport::new(250);
            for &(at, b) in &samples {
                whole.absorb_goodput(at, b);
            }
            let cut = split.min(samples.len());
            let mut a = FleetReport::new(250);
            let mut b = FleetReport::new(250);
            for &(at, bytes) in &samples[..cut] {
                a.absorb_goodput(at, bytes);
            }
            for &(at, bytes) in &samples[cut..] {
                b.absorb_goodput(at, bytes);
            }
            a.merge(&b);
            prop_assert_eq!(crate::to_json(&a), crate::to_json(&whole));
        }
    }

    #[test]
    fn incomplete_flows_count_bytes_but_not_fct() {
        let mut r = rec(0, "lte", 5000, 4096);
        r.completed = false;
        let report = FleetReport::from_records(100, 1, &[r]);
        assert_eq!(report.flows_started, 1);
        assert_eq!(report.flows_completed, 0);
        assert_eq!(report.bytes, 4096);
        assert_eq!(report.fct.count(), 0);
    }
}
