//! Cross-check the in-stack measurement against the wire capture.
//!
//! The paper derived every headline figure from tcpdump traces analyzed
//! offline (§3.2); the simulator additionally has white-box counters inside
//! the stack. This module compares a [`Measurement`] (white box) against a
//! [`WireAnalysis`] (black box, reconstructed purely from captured bytes)
//! and reports where they diverge beyond tolerance.
//!
//! Tolerances (documented in DESIGN.md):
//!
//! - **Data segments / retransmissions**: exact. Both sides count server
//!   transmissions, and the server's tap sees every one it sends.
//! - **RTT means**: relative difference < 0.2 per subflow. Both apply the
//!   tcptrace/Karn rule (the stack inside the socket, the wire on the
//!   server's records, stamped when the server handled each frame), but
//!   the stack also keeps the handshake round trip, which can dominate a
//!   subflow with few clean samples.
//! - **Out-of-order delay**: the fraction of delayed (>10 ms) samples must
//!   agree within 0.15, the shape metric §5.2 cares about. Both sides read
//!   it from a `DistSummary` histogram, so they share one bucketing; the
//!   granularity of what they time still differs. Segment-level
//!   granularity differs: the stack times SACK-held byte ranges, the wire
//!   times DSS mappings held in reassembly.
//! - **Cellular byte share**: absolute difference < 0.05. The wire
//!   attributes a connection-level byte to the subflow that delivered it
//!   *first*; the stack attributes by which subflow's receive path accepted
//!   it — redundant retransmissions across paths can split the credit.
//! - **Delivered bytes**: wire total must be within 2% of the stack's
//!   (HTTP response framing rides inside the payload stream on both sides,
//!   but the horizon can clip in-flight tail bytes differently).

use mpw_capture::{WireAnalysis, WireSubflow};
use serde::Serialize;

use crate::measure::{Measurement, SubflowMeasurement};

/// Tolerances used by [`crosscheck`]. The defaults are the documented ones.
#[derive(Clone, Debug)]
pub struct Tolerances {
    /// Max relative difference of per-subflow RTT means.
    pub rtt_mean_rel: f64,
    /// Max absolute difference of the delayed (>10 ms) OFO sample fraction.
    pub ofo_delayed_frac: f64,
    /// Max absolute difference of the cellular byte share.
    pub cellular_share_abs: f64,
    /// Max relative difference of total delivered bytes.
    pub delivered_rel: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            rtt_mean_rel: 0.2,
            ofo_delayed_frac: 0.15,
            cellular_share_abs: 0.05,
            delivered_rel: 0.02,
        }
    }
}

/// One compared quantity.
#[derive(Clone, Debug, Serialize)]
pub struct Comparison {
    /// What was compared (e.g. `subflow0.rtt_mean_ms`).
    pub name: String,
    /// In-stack (white-box) value.
    pub stack: f64,
    /// Wire-derived (black-box) value.
    pub wire: f64,
    /// Whether the pair is within tolerance.
    pub pass: bool,
}

/// Result of one cross-check.
#[derive(Clone, Debug, Serialize)]
pub struct CrosscheckReport {
    /// Every quantity compared, in report order.
    pub comparisons: Vec<Comparison>,
    /// Human-readable descriptions of the failures only.
    pub failures: Vec<String>,
}

impl CrosscheckReport {
    /// Whether every comparison passed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render a compact text table of all comparisons.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.comparisons {
            out.push_str(&format!(
                "[{}] {:<28} stack {:>12.3}  wire {:>12.3}\n",
                if c.pass { "ok" } else { "XX" },
                c.name,
                c.stack,
                c.wire
            ));
        }
        out
    }
}

/// Match a wire subflow to the stack subflow with the same client endpoint,
/// the 4-tuple half the client picks fresh for every subflow. (A path
/// index would not do: a 4-path run has two subflows on each path.)
fn wire_for<'a>(wire: &'a [WireSubflow], stack: &SubflowMeasurement) -> Option<&'a WireSubflow> {
    wire.iter().find(|w| w.client == stack.client)
}

/// Compare the in-stack measurement of a single-download run against the
/// offline analysis of its capture.
pub fn crosscheck(m: &Measurement, wa: &WireAnalysis, tol: &Tolerances) -> CrosscheckReport {
    let mut comparisons = Vec::new();
    let mut failures = Vec::new();
    let mut check = |name: String, stack: f64, wire: f64, ok: bool| {
        if !ok {
            failures.push(format!("{name}: stack {stack:.3} vs wire {wire:.3}"));
        }
        comparisons.push(Comparison { name, stack, wire, pass: ok });
    };

    // Exactly one foreground connection is expected on the wire.
    check(
        "connections".into(),
        1.0,
        wa.connections.len() as f64,
        wa.connections.len() == 1,
    );
    let Some(conn) = wa.connections.first() else {
        return CrosscheckReport { comparisons, failures };
    };

    let stack_established = m.subflows.iter().filter(|s| s.established).count();
    let wire_established = conn.subflows.iter().filter(|s| s.established).count();
    check(
        "established_subflows".into(),
        stack_established as f64,
        wire_established as f64,
        stack_established == wire_established,
    );

    for (i, s) in m.subflows.iter().enumerate() {
        let Some(w) = wire_for(&conn.subflows, s) else {
            if s.data_segs_sent > 0 {
                check(format!("subflow{i}.present_on_wire"), 1.0, 0.0, false);
            }
            continue;
        };
        check(
            format!("subflow{i}.data_segs"),
            s.data_segs_sent as f64,
            w.data_segs as f64,
            s.data_segs_sent == w.data_segs,
        );
        check(
            format!("subflow{i}.rexmit_segs"),
            s.rexmit_segs as f64,
            w.rexmit_segs as f64,
            s.rexmit_segs == w.rexmit_segs,
        );
        if let Some(stack_mean) = s.mean_rtt_ms() {
            if w.rtt.count() > 0 {
                let wire_mean = w.rtt.mean();
                let rel = (wire_mean - stack_mean).abs() / stack_mean;
                check(
                    format!("subflow{i}.rtt_mean_ms"),
                    stack_mean,
                    wire_mean,
                    rel < tol.rtt_mean_rel,
                );
            } else {
                check(format!("subflow{i}.rtt_samples"), s.rtt.count() as f64, 0.0, false);
            }
        }
    }

    // Delivered bytes: unique connection-level payload seen at the client.
    let stack_bytes: u64 = m.subflows.iter().map(|s| s.delivered_bytes).sum();
    if stack_bytes > 0 {
        let rel = (conn.delivered_bytes as f64 - stack_bytes as f64).abs() / stack_bytes as f64;
        check(
            "delivered_bytes".into(),
            stack_bytes as f64,
            conn.delivered_bytes as f64,
            rel < tol.delivered_rel,
        );
    }

    // Byte shares (fig-5's metric) for multipath runs.
    if m.subflows.len() > 1 {
        let wire_share = conn.cellular_share();
        check(
            "cellular_share".into(),
            m.cellular_share,
            wire_share,
            (wire_share - m.cellular_share).abs() < tol.cellular_share_abs,
        );
    }

    // OFO shape: fraction of delayed samples, read from the stack's and
    // the analyzer's summaries alike, so both sides share one bucketing.
    if m.ofo.count() > 0 && conn.ofo.count() > 0 {
        let f_stack = m.ofo.frac_above(10.0);
        let f_wire = conn.ofo.frac_above(10.0);
        check(
            "ofo_delayed_frac".into(),
            f_stack,
            f_wire,
            (f_stack - f_wire).abs() < tol.ofo_delayed_frac,
        );
    }

    CrosscheckReport { comparisons, failures }
}
