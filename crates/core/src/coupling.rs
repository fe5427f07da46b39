//! MPTCP congestion controllers (paper §2.2.2).
//!
//! Three algorithms, exactly the set the paper compares:
//!
//! - **reno** — uncoupled TCP New Reno on every subflow (the baseline; more
//!   aggressive than fair).
//! - **coupled** — the LIA controller of RFC 6356, MPTCP's default: coupled
//!   window increases with `min(α·/w_total, 1/w_i)`, unmodified halving.
//! - **olia** — the opportunistic linked-increases algorithm of Khalili et
//!   al., which adds the `α_i` re-balancing term that moves window from
//!   max-window paths to "best" paths.
//!
//! A connection owns one [`CouplingState`] holding every subflow's window.
//! A subflow socket holds none ([`mpw_tcp::Cc::Lent`]): the connection lends
//! it the state for the length of each call, and the call drives flow `i`
//! through [`CouplingState::on_ack`] and its siblings. Slow start is
//! per-subflow standard TCP, as in the Linux MPTCP implementation the paper
//! measured.

use mpw_sim::SimDuration;
use mpw_tcp::cc::INITIAL_WINDOW_SEGMENTS;
use mpw_tcp::CcConfig;
use serde::Serialize;

/// Which coupling algorithm to run — the experiment axis of Figures 4/9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Coupling {
    /// Uncoupled New Reno per subflow.
    Reno,
    /// Coupled / LIA (RFC 6356) — MPTCP's default.
    Coupled,
    /// OLIA (Khalili et al., CoNEXT 2012).
    Olia,
}

impl Coupling {
    /// All algorithms in the paper's order.
    pub const ALL: [Coupling; 3] = [Coupling::Coupled, Coupling::Olia, Coupling::Reno];

    /// Lower-case name used in result tables ("coupled", "olia", "reno").
    pub fn name(self) -> &'static str {
        match self {
            Coupling::Reno => "reno",
            Coupling::Coupled => "coupled",
            Coupling::Olia => "olia",
        }
    }
}

#[derive(Clone, Debug)]
struct SubflowCc {
    /// Congestion window in bytes.
    cwnd: usize,
    ssthresh: usize,
    /// Smoothed RTT in seconds (default until first sample).
    rtt: f64,
    /// Bytes acked since the last loss (OLIA's l1).
    epoch_bytes: f64,
    /// Bytes acked in the previous loss epoch (OLIA's l0).
    prev_epoch_bytes: f64,
    /// Fractional congestion-avoidance growth not yet applied, in MSS.
    ca_frac: f64,
    alive: bool,
}

/// The congestion windows of all subflows of one MPTCP connection.
#[derive(Clone, Debug)]
pub struct CouplingState {
    algo: Coupling,
    mss: usize,
    flows: Vec<SubflowCc>,
    /// First recorded violation of the coupled-increase fairness bound
    /// (RFC 6356 §3 / OLIA): set by the invariant oracle, surfaced through
    /// `MptcpConnection::validate` rather than panicking mid-ACK.
    violation: Option<String>,
    /// Test-only fault injection: skip the OLIA increase clamp (ISSUE 3's
    /// deliberately planted bug, used to prove the oracles catch it).
    unclamped: bool,
}

impl CouplingState {
    /// No subflows yet, coupled by `algo`.
    pub fn new(algo: Coupling, mss: usize) -> Self {
        CouplingState {
            algo,
            mss,
            flows: Vec::new(),
            violation: None,
            unclamped: false,
        }
    }

    /// First fairness-bound violation observed, if any.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Disable the OLIA increase clamp — a deliberately injected bug for
    /// exercising the invariant oracles. Never set outside tests/checkers.
    #[doc(hidden)]
    pub fn inject_unclamped_increase(&mut self) {
        self.unclamped = true;
    }

    /// The fairness bound every coupled controller must respect on each ACK
    /// in congestion avoidance (paper §2, RFC 6356 §3): the per-MSS-acked
    /// increase of flow `i` may not exceed what single-path New Reno would
    /// add on that flow (`1/w_i`), nor the increase New Reno would achieve
    /// on the best (fastest-growing) path (`max_j 1/w_j`).
    #[cfg(any(debug_assertions, feature = "check-invariants"))]
    fn record_increase_violation(&mut self, i: usize, inc: f64) {
        if self.violation.is_some() {
            return;
        }
        let eps = 1e-9;
        let w_i = (self.flows[i].cwnd as f64 / self.mss as f64).max(1e-9);
        let best = self
            .live()
            .map(|(_, w, _)| 1.0 / w.max(1e-9))
            .fold(0.0f64, f64::max);
        if inc > 1.0 / w_i + eps || inc > best + eps {
            self.violation = Some(format!(
                "{} increase {inc:.6} on flow {i} exceeds New Reno bound \
                 (1/w_i = {:.6}, best-path = {best:.6})",
                self.algo.name(),
                1.0 / w_i
            ));
        }
    }

    /// Add a subflow's window; returns its index.
    pub fn register(&mut self, cfg: &CcConfig) -> usize {
        self.flows.push(SubflowCc {
            cwnd: cfg.mss * INITIAL_WINDOW_SEGMENTS,
            ssthresh: cfg.initial_ssthresh,
            rtt: 0.1,
            epoch_bytes: 0.0,
            prev_epoch_bytes: 0.0,
            ca_frac: 0.0,
            alive: true,
        });
        self.flows.len() - 1
    }

    /// Flow `i`'s congestion window in bytes.
    pub fn cwnd(&self, i: usize) -> usize {
        self.flows[i].cwnd
    }

    /// Whether flow `i` is in slow start.
    pub fn in_slow_start(&self, i: usize) -> bool {
        self.flows[i].cwnd < self.flows[i].ssthresh
    }

    /// Mark flow `i` dead: it stops counting toward the coupling terms.
    pub fn retire(&mut self, i: usize) {
        self.flows[i].alive = false;
    }

    /// An ACK advanced flow `i`'s `snd_una` by `bytes_acked`.
    pub fn on_ack(&mut self, i: usize, bytes_acked: usize) {
        let mss = self.mss;
        self.flows[i].epoch_bytes += bytes_acked as f64;
        let (cwnd, ssthresh) = (self.flows[i].cwnd, self.flows[i].ssthresh);
        if cwnd < ssthresh {
            // Per-subflow standard slow start, full byte counting.
            self.flows[i].cwnd = cwnd + bytes_acked.min(cwnd);
            return;
        }
        let w_i_mss = cwnd as f64 / mss as f64;
        let inc_per_mss_acked = match self.algo {
            Coupling::Reno => 1.0 / w_i_mss,
            Coupling::Coupled => {
                let alpha = self.lia_alpha();
                let w_total_mss = self.total_cwnd() as f64 / mss as f64;
                (alpha / w_total_mss).min(1.0 / w_i_mss)
            }
            Coupling::Olia => self.olia_increase(i),
        };
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        self.record_increase_violation(i, inc_per_mss_acked);
        // Accumulate fractional MSS growth.
        let fl = &mut self.flows[i];
        fl.ca_frac += bytes_acked as f64 / mss as f64 * inc_per_mss_acked;
        if fl.ca_frac.abs() >= 1.0 {
            let whole = fl.ca_frac.trunc();
            fl.ca_frac -= whole;
            let delta = (whole * mss as f64) as i64;
            let next = fl.cwnd as i64 + delta;
            fl.cwnd = next.max(2 * mss as i64) as usize;
        }
    }

    /// A fast-retransmit loss event on flow `i`, with the FlightSize at
    /// detection: halve, and start a new OLIA loss epoch.
    pub fn on_loss_event(&mut self, i: usize, flight_bytes: usize) {
        let mss = self.mss;
        let fl = &mut self.flows[i];
        fl.ssthresh = (flight_bytes.max(fl.cwnd) / 2).max(2 * mss);
        fl.cwnd = fl.ssthresh;
        fl.prev_epoch_bytes = fl.epoch_bytes;
        fl.epoch_bytes = 0.0;
        fl.ca_frac = 0.0;
    }

    /// Flow `i`'s retransmission timer fired: collapse to one segment.
    pub fn on_rto(&mut self, i: usize, flight_bytes: usize) {
        let mss = self.mss;
        let fl = &mut self.flows[i];
        fl.ssthresh = (flight_bytes.max(fl.cwnd) / 2).max(2 * mss);
        fl.cwnd = mss;
        fl.prev_epoch_bytes = fl.epoch_bytes;
        fl.epoch_bytes = 0.0;
        fl.ca_frac = 0.0;
    }

    /// Flow `i`'s smoothed RTT estimate changed.
    pub fn on_rtt_update(&mut self, i: usize, srtt: SimDuration) {
        self.flows[i].rtt = srtt.as_secs_f64().max(1e-4);
    }

    /// Total congestion window over live subflows, in bytes.
    pub fn total_cwnd(&self) -> usize {
        self.flows.iter().filter(|f| f.alive).map(|f| f.cwnd).sum()
    }

    /// Externally halve flow `i`'s window (the v0.86 penalization
    /// mechanism acts from outside the normal loss path).
    pub fn halve_flow(&mut self, i: usize) {
        let mss = self.mss;
        let f = &mut self.flows[i];
        f.cwnd = (f.cwnd / 2).max(2 * mss);
        f.ssthresh = f.cwnd;
    }

    /// Windows in MSS units with RTTs, for the coupling formulas.
    fn live(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        // (index, w in MSS, rtt seconds)
        self.flows.iter().enumerate().filter(|(_, f)| f.alive).map(|(i, f)| {
            (i, f.cwnd as f64 / self.mss as f64, f.rtt.max(1e-4))
        })
    }

    /// RFC 6356 alpha: `w_total * max(w_i/rtt_i²) / (Σ w_i/rtt_i)²`,
    /// windows in MSS units.
    fn lia_alpha(&self) -> f64 {
        let mut w_total = 0.0;
        let mut max_term: f64 = 0.0;
        let mut denom = 0.0;
        for (_, w, rtt) in self.live() {
            w_total += w;
            max_term = max_term.max(w / (rtt * rtt));
            denom += w / rtt;
        }
        if denom == 0.0 {
            return 1.0;
        }
        (w_total * max_term / (denom * denom)).max(f64::MIN_POSITIVE)
    }

    /// OLIA per-ack increase for flow `i` in MSS-per-MSS-acked units.
    fn olia_increase(&self, i: usize) -> f64 {
        let mut denom = 0.0;
        for (_, w, rtt) in self.live() {
            denom += w / rtt;
        }
        if denom == 0.0 {
            return 0.0;
        }
        let me = &self.flows[i];
        let w_i = me.cwnd as f64 / self.mss as f64;
        let rtt_i = me.rtt.max(1e-4);
        let base = (w_i / (rtt_i * rtt_i)) / (denom * denom);

        // α_i from the best-path / max-window set comparison.
        let n = self.flows.iter().filter(|f| f.alive).count() as f64;
        let li = |f: &SubflowCc| f.epoch_bytes.max(f.prev_epoch_bytes).max(1.0);
        // Best paths maximize l_i² / rtt_i (the OLIA path-quality proxy).
        let quality = |f: &SubflowCc| li(f) * li(f) / f.rtt.max(1e-4);
        let eps = 1e-9;
        let best_q = self
            .flows
            .iter()
            .filter(|f| f.alive)
            .map(quality)
            .fold(0.0f64, f64::max);
        let max_w = self
            .flows
            .iter()
            .filter(|f| f.alive)
            .map(|f| f.cwnd)
            .max()
            .unwrap_or(0);
        let in_best = |f: &SubflowCc| quality(f) >= best_q * (1.0 - 1e-9) - eps;
        let in_max = |f: &SubflowCc| f.cwnd == max_w;
        // B \ M: best paths that do not have the maximum window.
        let collected: Vec<usize> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.alive && in_best(f) && !in_max(f))
            .map(|(j, _)| j)
            .collect();
        let max_set: Vec<usize> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.alive && in_max(f))
            .map(|(j, _)| j)
            .collect();
        let alpha = if collected.is_empty() {
            0.0
        } else if collected.contains(&i) {
            1.0 / (n * collected.len() as f64)
        } else if max_set.contains(&i) {
            -1.0 / (n * max_set.len() as f64)
        } else {
            0.0
        };
        let inc = base + alpha / w_i.max(1e-9);
        // OLIA never decreases the window on an ACK below zero growth; the
        // negative α term may cancel growth but must not shrink the window.
        let inc = inc.max(-1.0 / w_i.max(1e-9) * 0.5);
        if self.unclamped {
            return inc;
        }
        // TCP-compatibility clamp: the positive re-balancing term may push
        // the raw increase past New Reno's 1/w_i on a path that already
        // dominates the rate sum (small w_i, tiny RTT next to a large
        // slow path); RFC 6356's "no more aggressive than TCP" rule caps it.
        inc.min(1.0 / w_i.max(1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flows 0 and 1, coupled by `algo`.
    fn two_flows(algo: Coupling) -> CouplingState {
        let mut st = CouplingState::new(algo, 1400);
        st.register(&CcConfig::default());
        st.register(&CcConfig::default());
        st
    }

    fn drive_to_ca(st: &mut CouplingState, i: usize) {
        // Ack until out of slow start.
        for _ in 0..200 {
            st.on_ack(i, 1400);
        }
        assert!(!st.in_slow_start(i));
    }

    #[test]
    fn slow_start_is_uncoupled_and_standard() {
        let mut st = two_flows(Coupling::Coupled);
        let w0 = st.cwnd(0);
        let mut acked = 0;
        while acked < w0 {
            st.on_ack(0, 1400);
            acked += 1400;
        }
        assert_eq!(st.cwnd(0), 2 * w0);
    }

    #[test]
    fn reno_coupling_matches_single_path_growth() {
        let mut st = two_flows(Coupling::Reno);
        drive_to_ca(&mut st, 0);
        let w = st.cwnd(0);
        let mut acked = 0;
        while acked < w {
            st.on_ack(0, 1400);
            acked += 1400;
        }
        // +1 MSS per window per RTT, like plain New Reno.
        assert!(
            (st.cwnd(0) as i64 - (w + 1400) as i64).abs() <= 1400,
            "w {w} -> {}",
            st.cwnd(0)
        );
    }

    #[test]
    fn coupled_grows_slower_than_reno() {
        let grow = |algo| {
            let mut st = two_flows(algo);
            st.on_rtt_update(0, SimDuration::from_millis(50));
            st.on_rtt_update(1, SimDuration::from_millis(50));
            drive_to_ca(&mut st, 0);
            drive_to_ca(&mut st, 1);
            let w = st.cwnd(0);
            // Eight windows' worth of acks on each flow (LIA's increase is
            // fractional per window; give it room to materialize).
            for _ in 0..(8 * w / 1400) {
                st.on_ack(0, 1400);
                st.on_ack(1, 1400);
            }
            st.cwnd(0) - w
        };
        let reno = grow(Coupling::Reno);
        let coupled = grow(Coupling::Coupled);
        assert!(
            coupled < reno,
            "coupled growth {coupled} should be below reno {reno}"
        );
        // With two identical paths, LIA's per-path growth is about a quarter
        // of reno's (aggregate ≈ half of one TCP).
        assert!(
            coupled >= reno / 8,
            "coupled {coupled} collapsed vs reno {reno}"
        );
    }

    #[test]
    fn lia_alpha_on_identical_paths() {
        // Windows equal, rtts equal (defaults).
        let st = two_flows(Coupling::Coupled);
        let alpha = st.lia_alpha();
        // w_total * (w/rtt²) / (2w/rtt)² = 2w * w/rtt² / 4w²/rtt² = 1/2.
        assert!((alpha - 0.5).abs() < 1e-9, "alpha {alpha}");
    }

    #[test]
    fn coupled_prefers_lower_rtt_path() {
        let (fast, slow) = (0, 1);
        let mut st = two_flows(Coupling::Coupled);
        st.on_rtt_update(fast, SimDuration::from_millis(20));
        st.on_rtt_update(slow, SimDuration::from_millis(200));
        drive_to_ca(&mut st, fast);
        drive_to_ca(&mut st, slow);
        // Equal windows; ack both at rates proportional to 1/rtt: the fast
        // path sees 10× the acks.
        let wf = st.cwnd(fast);
        let ws = st.cwnd(slow);
        for _ in 0..1000 {
            for _ in 0..10 {
                st.on_ack(fast, 1400);
            }
            st.on_ack(slow, 1400);
        }
        let df = st.cwnd(fast) as i64 - wf as i64;
        let ds = st.cwnd(slow) as i64 - ws as i64;
        assert!(df > ds, "fast path should grow more: {df} vs {ds}");
    }

    #[test]
    fn olia_rebalances_toward_better_path() {
        let (good, congested) = (0, 1);
        let mut st = two_flows(Coupling::Olia);
        st.on_rtt_update(good, SimDuration::from_millis(50));
        st.on_rtt_update(congested, SimDuration::from_millis(50));
        drive_to_ca(&mut st, good);
        drive_to_ca(&mut st, congested);
        // The congested path loses regularly (short epochs); the good path
        // never loses (long epochs) but was left with a smaller window.
        for _ in 0..6 {
            for _ in 0..50 {
                st.on_ack(congested, 1400);
            }
            st.on_loss_event(congested, st.cwnd(congested));
        }
        for _ in 0..400 {
            st.on_ack(good, 1400);
        }
        // Force the asymmetry OLIA reacts to: congested somehow holds the
        // larger window (e.g. after the good path collapsed).
        st.flows[good].cwnd = 30 * 1400; // best quality
        st.flows[congested].cwnd = 80 * 1400; // max window
        st.flows[good].ssthresh = 1400;
        st.flows[congested].ssthresh = 1400;
        let inc_good = st.olia_increase(good);
        let inc_congested = st.olia_increase(congested);
        assert!(
            inc_good > inc_congested,
            "OLIA should favour the best path: {inc_good} vs {inc_congested}"
        );
        assert!(inc_good > 0.0);
    }

    #[test]
    fn olia_total_increase_bounded_by_lia_style_cap() {
        // On two identical paths OLIA's base term gives 1/4 of reno's
        // per-path growth for each (denominator is the doubled rate sum),
        // i.e., aggregate growth ≈ half of a single TCP — non-aggressive.
        let mut st = two_flows(Coupling::Olia);
        st.on_rtt_update(0, SimDuration::from_millis(50));
        st.on_rtt_update(1, SimDuration::from_millis(50));
        drive_to_ca(&mut st, 0);
        drive_to_ca(&mut st, 1);
        let w = st.cwnd(0);
        for _ in 0..(w / 1400) {
            st.on_ack(0, 1400);
            st.on_ack(1, 1400);
        }
        let growth = st.cwnd(0) as i64 - w as i64;
        assert!(
            growth <= 1400,
            "OLIA per-window growth {growth} exceeds one MSS"
        );
    }

    #[test]
    fn loss_halves_and_rto_collapses() {
        let mut st = two_flows(Coupling::Olia);
        drive_to_ca(&mut st, 0);
        let w = st.cwnd(0);
        st.on_loss_event(0, st.cwnd(0));
        assert_eq!(st.cwnd(0), w / 2);
        st.on_rto(0, st.cwnd(0));
        assert_eq!(st.cwnd(0), 1400);
    }

    #[test]
    fn retired_flow_leaves_coupling_terms() {
        let mut st = two_flows(Coupling::Coupled);
        let total_before = st.total_cwnd();
        st.retire(1);
        let total_after = st.total_cwnd();
        assert_eq!(total_after, st.cwnd(0));
        assert!(total_after < total_before);
    }

    #[test]
    fn single_path_coupled_behaves_like_reno() {
        // With one subflow, alpha = w * (w/rtt²) / (w/rtt)² = 1 → increase
        // min(1/w, 1/w) = reno.
        let mut st = CouplingState::new(Coupling::Coupled, 1400);
        st.register(&CcConfig::default());
        drive_to_ca(&mut st, 0);
        let alpha = st.lia_alpha();
        assert!((alpha - 1.0).abs() < 1e-9, "alpha {alpha}");
    }

    /// An asymmetric topology where OLIA's raw (unclamped) increase breaks
    /// the New Reno bound: flow 0 is small-window/short-RTT with the best
    /// loss history (so it gets the positive α term) while flow 1 holds the
    /// max window behind a huge RTT, leaving flow 0 dominating the rate sum.
    fn asymmetric_olia_state() -> CouplingState {
        let mut st = two_flows(Coupling::Olia);
        st.flows[0].cwnd = 10 * 1400;
        st.flows[0].rtt = 0.01;
        st.flows[0].epoch_bytes = 1e6;
        st.flows[0].ssthresh = 1400;
        st.flows[1].cwnd = 20 * 1400;
        st.flows[1].rtt = 2.0;
        st.flows[1].epoch_bytes = 1.0;
        st.flows[1].ssthresh = 1400;
        st
    }

    #[test]
    fn olia_clamp_holds_the_reno_bound_where_raw_term_breaks_it() {
        let mut st = asymmetric_olia_state();
        let inc = st.olia_increase(0);
        let w0 = 10.0;
        assert!(
            inc <= 1.0 / w0 + 1e-9,
            "clamped OLIA increase {inc} exceeds 1/w_0"
        );
        // The same state with the clamp removed *does* break the bound —
        // i.e., the clamp is load-bearing, not vacuous.
        st.inject_unclamped_increase();
        let raw = st.olia_increase(0);
        assert!(
            raw > 1.0 / w0 + 1e-6,
            "expected the unclamped increase {raw} to break 1/w_0"
        );
    }

    #[test]
    fn injected_unclamped_bug_is_caught_by_the_increase_oracle() {
        let mut st = asymmetric_olia_state();
        // Drive a third flow shaped like flow 0, and retire flow 0 to keep
        // the 2-path asymmetry.
        let a = st.register(&CcConfig::default());
        st.flows[a].cwnd = 10 * 1400;
        st.flows[a].rtt = 0.01;
        st.flows[a].epoch_bytes = 2e6; // strictly best quality
        st.flows[a].ssthresh = 1400;
        st.flows[1].alive = true;
        st.flows[0].alive = false;
        st.inject_unclamped_increase();
        st.on_ack(a, 1400);
        assert!(
            st.violation().is_some(),
            "unclamped OLIA increase went unnoticed"
        );
        assert!(st.violation().unwrap().contains("olia"));
    }

    #[test]
    fn clamped_controllers_never_record_violations() {
        for algo in Coupling::ALL {
            let mut st = two_flows(algo);
            st.on_rtt_update(0, SimDuration::from_millis(10));
            st.on_rtt_update(1, SimDuration::from_millis(300));
            drive_to_ca(&mut st, 0);
            drive_to_ca(&mut st, 1);
            for _ in 0..500 {
                st.on_ack(0, 1400);
            }
            st.on_ack(1, 1400);
            assert!(
                st.violation().is_none(),
                "{}: spurious violation {:?}",
                algo.name(),
                st.violation()
            );
        }
    }

    proptest::proptest! {
        /// The paper's §2 fairness claim, machine-checked: for arbitrary
        /// window/RTT/loss-history vectors, the per-ACK increase granted to
        /// any path by LIA or OLIA never exceeds the single-path New Reno
        /// increase on that path (1/w_i) nor on the best path (max_j 1/w_j).
        #[test]
        #[expect(
            clippy::unreachable,
            reason = "test code: the loop names only the two coupled algorithms"
        )]
        fn coupled_increases_never_exceed_best_path_reno(
            windows in proptest::collection::vec(2u64..600, 2..5),
            rtts_ms in proptest::collection::vec(1u64..800, 4..5),
            epochs in proptest::collection::vec(0u64..5_000_000, 4..5),
        ) {
            let mss = 1400usize;
            for algo in [Coupling::Coupled, Coupling::Olia] {
                let mut st = CouplingState::new(algo, mss);
                for (i, &w) in windows.iter().enumerate() {
                    let fl = st.register(&CcConfig::default());
                    let fl = &mut st.flows[fl];
                    fl.cwnd = w as usize * mss;
                    fl.rtt = rtts_ms[i % rtts_ms.len()] as f64 / 1e3;
                    fl.epoch_bytes = epochs[i % epochs.len()] as f64;
                    fl.prev_epoch_bytes = epochs[(i + 1) % epochs.len()] as f64;
                }
                let best: f64 = windows.iter().map(|&w| 1.0 / w as f64).fold(0.0, f64::max);
                for (i, &w) in windows.iter().enumerate() {
                    let w_i = w as f64;
                    let inc = match algo {
                        Coupling::Coupled => {
                            let alpha = st.lia_alpha();
                            let w_total = st.total_cwnd() as f64 / mss as f64;
                            (alpha / w_total).min(1.0 / w_i)
                        }
                        Coupling::Olia => st.olia_increase(i),
                        Coupling::Reno => unreachable!(),
                    };
                    proptest::prop_assert!(
                        inc <= 1.0 / w_i + 1e-9,
                        "{} flow {i}: inc {inc} > 1/w_i {}", algo.name(), 1.0 / w_i
                    );
                    proptest::prop_assert!(
                        inc <= best + 1e-9,
                        "{} flow {i}: inc {inc} > best-path reno {best}", algo.name()
                    );
                }
            }
        }
    }
}
