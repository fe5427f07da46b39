//! The metric registry: every name `mpwbench` prints, with its unit and
//! direction, declared once. `BENCHMARK.json` lists the same names (a unit
//! test holds the two together) and a report refuses any other name, so a
//! later change is always judged on a metric that exists.

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is obtained, which decides how two runs of it compare.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// End-to-end, from the untraced run; the median may worsen by `bound`
    /// (a share of the parent's) before it counts as a regression.
    EndToEnd { bound: f64 },
    /// Exact count from the traced repetition: identical on every run of
    /// one build.
    Count,
    /// Measured, not exact: the wall-clock time of a drive or a span (with
    /// the spread of its repetitions), or a figure derived from such.
    Timing,
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    // Modelled statistics have no better direction; "lower" is nominal.
    Def {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Count,
    }
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Timing,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[Def] = &[
    // Each bound is at least three times the widest spread seen over ten
    // workload seeds on the host the benchmark was built on (README.md,
    // "Bounds": 7.6 % and 4.1 % in its noisiest hour), up to the 25 % the
    // driver allows; ISSUE 11 proposed 5 % and 20 % before those were known.
    e2e("flows_per_s", "flows/s", Higher, 0.25),
    e2e("payload_mb_per_s", "MB/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: &[Def] = &[
    timing("sim.dispatch_ns_per_event", "ns", Lower),
    timing("sim.deep_heap_ns_per_event", "ns", Lower),
    timing("sim.timer_ns_per_op", "ns", Lower),
    timing("sim.switch_ns_per_frame", "ns", Lower),
    count("sim.events_per_flow", "count"),
    count("sim.stale_timer_pop_share", "ratio"),
    count("sim.compactions", "count"),
    timing("link.wifi_forward_ns_per_frame", "ns", Lower),
    timing("link.lte_forward_ns_per_frame", "ns", Lower),
    timing("link.background_us_per_sim_s", "us", Lower),
    count("link.frames_per_flow", "count"),
    count("link.drop_overflow_share", "ratio"),
    count("link.drop_channel_share", "ratio"),
    count("link.peak_queue_kb", "KiB"),
    timing("tcp.wire_encode_ns_per_seg", "ns", Lower),
    timing("tcp.wire_parse_ns_per_seg", "ns", Lower),
    timing("tcp.wire_encode_ack_ns", "ns", Lower),
    timing("tcp.wire_parse_ack_ns", "ns", Lower),
    timing("tcp.socket_ns_per_seg", "ns", Lower),
    timing("tcp.socket_lossy_ns_per_seg", "ns", Lower),
    timing("tcp.assembler_inorder_ns_per_seg", "ns", Lower),
    timing("tcp.assembler_interleaved_ns_per_seg", "ns", Lower),
    count("tcp.data_segs_per_mb", "count"),
    count("tcp.rexmit_share", "ratio"),
    timing("mptcp.conn_ns_per_seg", "ns", Lower),
    timing("mptcp.self_ns_per_seg", "ns", Lower),
    timing("mptcp.scheduler_pick_ns", "ns", Lower),
    count("mptcp.cellular_share", "ratio"),
    count("mptcp.ofo_ms_mean", "ms"),
    timing("http.head_roundtrip_ns", "ns", Lower),
    timing("metrics.dist_push_ns", "ns", Lower),
    timing("metrics.fleet_merge_us_per_kflow", "us", Lower),
    timing("metrics.report_json_ms", "ms", Lower),
    timing("capture.tap_ns_per_frame", "ns", Lower),
    timing("capture.pcapng_write_mb_per_s", "MB/s", Higher),
    timing("capture.pcapng_read_mb_per_s", "MB/s", Higher),
    timing("capture.analyze_ns_per_pkt", "ns", Lower),
    count("capture.pcap_bytes_per_payload_byte", "ratio"),
    timing("scenario.parse_compile_us", "us", Lower),
    timing("fleet.ns_per_event_n100", "ns", Lower),
    timing("fleet.ns_per_event_n2000", "ns", Lower),
    timing("fleet.scale_penalty", "ratio", Lower),
    timing("experiments.measurement_us_p50", "us", Lower),
    timing("experiments.measurement_us_p99", "us", Lower),
    timing("experiments.pool_speedup_w2", "ratio", Higher),
    timing("experiments.crosscheck_ms", "ms", Lower),
    timing("check.lint_wall_s", "s", Lower),
    timing("check.explore_states_per_s", "1/s", Higher),
    // Heap operations repeat to ~0.2 % between processes, not exactly: std's
    // HashMap reuses tombstoned slots depending on its per-process hash seed,
    // which moves the moment a map grows (README.md, "Findings").
    timing("alloc.heap_ops_per_flow", "count", Lower),
    timing("alloc.heap_ops_per_event", "count", Lower),
    count("alloc.peak_live_mb", "MiB"),
    timing("ledger.sim_share", "ratio", Lower),
    timing("ledger.link_share", "ratio", Lower),
    timing("ledger.tcp_wire_share", "ratio", Lower),
    timing("ledger.tcp_socket_share", "ratio", Lower),
    timing("ledger.mptcp_share", "ratio", Lower),
    timing("ledger.other_share", "ratio", Lower),
    timing("ledger.unattributed_share", "ratio", Lower),
    timing("trace.overhead_pct", "%", Lower),
    timing("harness.cpu_wall_ratio", "ratio", Higher),
];

/// One reported value; timings carry the spread of their repetitions.
#[derive(Clone, Debug)]
pub struct Value {
    pub def: &'static Def,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// The values of one section (`END_TO_END` or `PER_LAYER`), in registry
/// order. Only registered names can be set, and `finish` refuses a report
/// with a registered name missing.
pub struct Report {
    section: &'static [Def],
    values: Vec<Option<Value>>,
}

impl Report {
    pub fn new(section: &'static [Def]) -> Report {
        Report {
            section,
            values: vec![None; section.len()],
        }
    }

    fn slot(&self, name: &str) -> usize {
        self.section
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.slot(name);
        self.values[i] = Some(Value {
            def: &self.section[i],
            value,
            spread: None,
        });
    }

    /// Set a timing to the median of its repetitions.
    pub fn set_timing(&mut self, name: &str, s: Summary) {
        let i = self.slot(name);
        self.values[i] = Some(Value {
            def: &self.section[i],
            value: s.median,
            spread: Some(s),
        });
    }

    /// Every value, in registry order; panics if one was never set.
    pub fn finish(self) -> Vec<Value> {
        self.values
            .into_iter()
            .zip(self.section)
            .map(|(v, d)| v.unwrap_or_else(|| panic!("metric {} was never set", d.name)))
            .collect()
    }
}

/// `name value unit`, then the spread where there is one.
pub fn render_line(v: &Value) -> String {
    let mut line = format!("{} {} {}", v.def.name, fmt_value(v.value), v.def.unit);
    if let Some(s) = v.spread {
        line.push_str(&format!(
            "  min {} max {} iqr {} n {}",
            fmt_value(s.min),
            fmt_value(s.max),
            fmt_value(s.iqr),
            s.n
        ));
    }
    line
}

/// All measured digits, without float noise: 6 significant decimals beyond
/// the integer part is below anything the clock resolves.
pub fn fmt_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

/// The root `BENCHMARK.json`, generated from the registry so the two cannot
/// drift (`mpwbench list`; a unit test compares the checked-in file).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::workloads::Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let metric = |d: &Def| {
        let bound = match d.kind {
            Kind::EndToEnd { bound } => format!(", \"bound\": {bound}"),
            _ => String::new(),
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    let section = |defs: &[Def]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        section(END_TO_END),
        section(PER_LAYER)
    )
}

/// How long one run of the acceptance driver measures: with set-up and the
/// repetition that crosses the line, a run is 22–25 s.
pub const RUN_SECONDS: u64 = 20;

/// The `metrics` object of the driver contract's result line.
pub fn contract_metrics_json(values: &[Value]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|v| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                v.def.name, v.def.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value as Json;

    fn checked_in() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The names mpwbench prints are exactly the names BENCHMARK.json
    /// declares, with the same unit, direction and bound.
    #[test]
    fn registry_matches_benchmark_json() {
        let doc = checked_in();
        for (key, section) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).and_then(Json::as_array).expect("section");
            let names: Vec<&str> = declared.iter().map(|m| str_of(m, "name")).collect();
            let ours: Vec<&str> = section.iter().map(|d| d.name).collect();
            assert_eq!(names, ours, "{key}: names differ from the registry");
            for (m, d) in declared.iter().zip(section) {
                assert!(well_formed(d.name), "{}: bad name", d.name);
                assert_eq!(str_of(m, "unit"), d.unit, "{}: unit", d.name);
                assert_eq!(str_of(m, "better"), d.better.as_str(), "{}: better", d.name);
                match d.kind {
                    Kind::EndToEnd { bound } => {
                        let b = m.get("bound").and_then(Json::as_f64).expect("bound");
                        assert!((b - bound).abs() < 1e-12, "{}: bound", d.name);
                        assert!(b > 0.0 && b <= 0.25, "{}: bound out of range", d.name);
                    }
                    _ => assert!(m.get("bound").is_none(), "{}: per-layer bound", d.name),
                }
            }
        }
    }

    #[test]
    fn checked_in_file_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `mpwbench list > BENCHMARK.json`"
        );
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = checked_in();
        let declared = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = declared.iter().map(|w| str_of(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        for w in declared {
            let why = str_of(w, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn names_are_unique_across_both_sections() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn report_prints_exactly_the_registered_names() {
        let mut r = Report::new(END_TO_END);
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let values = r.finish();
        let printed: Vec<&str> = values.iter().map(|v| v.def.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(printed, declared);
        assert_eq!(render_line(&values[0]), "flows_per_s 1.500000 flows/s");
        let json = contract_metrics_json(&values[..1]);
        assert_eq!(
            json,
            "{\"flows_per_s\": {\"value\": 1.5, \"unit\": \"flows/s\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_refused() {
        Report::new(END_TO_END).set("made_up", 1.0);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn missing_names_are_refused() {
        Report::new(END_TO_END).finish();
    }
}
