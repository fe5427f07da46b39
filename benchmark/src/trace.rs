//! The traced run: one repetition under spans with exact counts harvested
//! from the worlds it leaves behind, then the drives, then the ledger that
//! prices the counts with the drives. Everything is taken from outside the
//! crates; spans or counters inside them are a later change.

use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::counts::Counts;
use crate::drives::{self, Bench, CaptureStages, DriveSize, LinkForward};
use crate::metrics::{Report, Value, PER_LAYER};
use crate::pace::Pace;
use crate::run::{set_up, timed_reps, Reps};
use crate::spans::{self, Recorder, Span};
use crate::sysinfo;
use crate::workloads::{bulk_flows, campaign_flows, run_rep, Inputs, Workload};

pub struct TraceResult {
    pub values: Vec<Value>,
    pub ops: u64,
    pub ops_failed: u64,
    pub digest: u64,
    /// Measurements of one repetition that timed out and were drawn again.
    pub redrawn: u64,
    pub first_failure: Option<String>,
    /// Informational lines for the report (coverage, per-member costs).
    pub notes: Vec<String>,
    pub span_json: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Total duration (ns) of the spans with this layer and name.
fn total(spans: &[Span], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum()
}

pub fn trace(w: Workload, seed: u64, shrink: u32, size: DriveSize, root: &Path) -> TraceResult {
    let mut report = Report::new(PER_LAYER);
    let mut notes = Vec::new();
    let mut pace = Pace::new();

    // Untraced repetitions first: the ledger's denominator, the baseline
    // the tracing overhead is read against, and the allocation counts (the
    // last one runs between two reads of the heap-op counter).
    let setup = set_up(w, seed, shrink, &mut pace);
    let cpu0 = sysinfo::cpu_seconds();
    let wall0 = Instant::now();
    let mut untraced = timed_reps(w, &setup, Reps::Count(2), &mut pace);
    let heap0 = alloc::heap_ops();
    let last = timed_reps(w, &setup, Reps::Count(1), &mut pace);
    let heap_ops = alloc::heap_ops() - heap0;
    let cpu_wall = match (cpu0, sysinfo::cpu_seconds()) {
        (Some(a), Some(b)) => (b - a) / wall0.elapsed().as_secs_f64(),
        _ => 0.0,
    };
    let peak_live = alloc::peak_live_bytes();
    untraced.laps.extend(last.laps.iter().cloned());

    // The traced repetition. Its spans are raw nanoseconds; `units_per_ns`
    // below reads them at the repetition's average host speed.
    let mut rec = Recorder::new(true);
    let mut counts = Counts::default();
    pace.start();
    let traced = rec.time("harness", "workload", |rec| {
        rec.set_rep(1);
        rec.time("harness", "rep", |rec| {
            run_rep(w, &setup.inputs, rec, &mut pace, Some(&mut counts))
        })
    });
    let traced_lap = pace.stop();
    let rep_spans = rec.spans().to_vec();
    let units_per_ns = traced_lap.units() / (traced_lap.wall_s * 1e9);

    // Drives, each layer's under its own span.
    let mut b = Bench {
        size,
        pace: &mut pace,
    };
    let (dispatch, deep_heap, timer, switch) = rec.time("drive", "sim", |_| {
        (
            drives::sim_dispatch(&mut b),
            drives::sim_deep_heap(&mut b),
            drives::sim_timer(&mut b),
            drives::sim_switch(&mut b),
        )
    });
    let (wifi, lte, background) = rec.time("drive", "link", |_| {
        (
            drives::link_wifi_forward(&mut b),
            drives::link_lte_forward(&mut b),
            drives::link_background(&mut b),
        )
    });
    let ([enc, parse, enc_ack, parse_ack], socket, socket_lossy, [asm_in, asm_mix]) =
        rec.time("drive", "tcp", |_| {
            (
                drives::tcp_wire(&mut b),
                drives::tcp_socket(&mut b),
                drives::tcp_socket_lossy(&mut b),
                drives::tcp_assembler(&mut b),
            )
        });
    let (conn, pick) = rec.time("drive", "mptcp", |_| {
        (
            drives::mptcp_conn(&mut b),
            drives::mptcp_scheduler_pick(&mut b),
        )
    });
    let (http, push, merge, scenario) = rec.time("drive", "http_metrics_scenario", |_| {
        (
            drives::http_head_roundtrip(&mut b),
            drives::metrics_dist_push(&mut b),
            drives::metrics_fleet_merge(&mut b),
            drives::scenario_parse_compile(&mut b),
        )
    });
    let fleet = rec.time("drive", "fleet", |_| drives::fleet_scale(&mut b, seed));
    let (lint, explore) = rec.time("drive", "check", |_| {
        (
            drives::check_lint_wall(&mut b, root),
            drives::check_explore(&mut b),
        )
    });
    let pool = rec.time("drive", "pool", |_| drives::pool_speedup(&mut b, seed));

    // capture.*: from the traced repetition's own spans where the workload
    // makes those calls, from a drive on one flow of capture_analyze's size
    // otherwise.
    let capture_flow = bulk_flows(seed, (8 << 20) / u64::from(shrink), false).remove(0);
    let stages = if w == Workload::CaptureAnalyze {
        let units = |layer, name| total(&rep_spans, layer, name) * units_per_ns;
        CaptureStages {
            captured: units("experiments", "run_measurement_captured"),
            plain: units("experiments", "run_measurement"),
            read: units("capture", "read_pcapng"),
            analyze: units("capture", "analyze"),
            crosscheck: units("experiments", "crosscheck"),
            flows: counts.flows,
            frames: counts.captured_frames,
            pcap_bytes: counts.pcap_bytes,
            payload_bytes: counts.app_bytes,
        }
    } else {
        rec.time("drive", "capture", |_| {
            drives::capture_pipeline(&mut b, &capture_flow)
        })
    };
    let write = rec.time("drive", "capture_write", |_| {
        let (_, pcap) =
            mpw_experiments::run_measurement_captured(&capture_flow.scenario, capture_flow.seed);
        drives::capture_write(&mut b, &pcap)
    });
    // Per-call times of `run_measurement`: over the workload's own flows on
    // campaign_small, over a 600-call slice of that campaign elsewhere.
    let slice;
    let calls = match (w, &setup.inputs) {
        (Workload::CampaignSmall, Inputs::Flows(flows)) => flows.as_slice(),
        _ => {
            slice = campaign_flows(seed, 5);
            slice.as_slice()
        }
    };
    let call_units: Vec<f64> = rec.time("drive", "measurement_calls", |_| {
        let (call_ns, lap) = b.pace.time(|| drives::measurement_call_ns(calls));
        call_ns
            .iter()
            .map(|ns| ns * lap.units() / (lap.wall_s * 1e9))
            .collect()
    });

    // Every kernel sample of the process is in: fix the unit → second
    // conversion and read everything through it.
    let ns = |units: f64| pace.seconds(units) * 1e9;
    let rep_ns = untraced.rep_seconds(&pace) * 1e9;
    let untraced_each_ns = crate::stats::median(&untraced.each_seconds(&pace)) * 1e9;
    let rep_id = rep_spans
        .iter()
        .position(|s| s.name == "rep")
        .expect("rep span");
    notes.push(format!(
        "rep span {:.3} s raw, {:.1} % covered by its child spans; host disturbance {:.3}",
        rep_spans[rep_id].dur_ns() as f64 / 1e9,
        100.0 * spans::child_coverage(&rep_spans, rep_id),
        pace.disturbance()
    ));

    let mut ops_failed = untraced.ops_failed + last.ops_failed + traced.failed;
    let mut first_failure = untraced.first_failure.or(last.first_failure);
    if traced.digest != setup.reference.digest {
        ops_failed += traced.flows;
        first_failure.get_or_insert(format!(
            "traced repetition digest {:016x} differs from the untraced {:016x}",
            traced.digest, setup.reference.digest
        ));
    }
    if first_failure.is_none() {
        first_failure = traced.first_failure.clone();
    }

    // Counts of the traced repetition.
    let c = &counts;
    let frames = (c.wifi_frames + c.cell_frames) as f64;
    report.set(
        "sim.events_per_flow",
        ratio(c.events as f64, c.flows as f64),
    );
    report.set(
        "sim.stale_timer_pop_share",
        ratio(c.stale_timer_pops as f64, c.events as f64),
    );
    report.set("sim.compactions", c.compactions as f64);
    report.set("link.frames_per_flow", ratio(frames, c.flows as f64));
    report.set(
        "link.drop_overflow_share",
        ratio(c.drop_overflow as f64, frames),
    );
    report.set(
        "link.drop_channel_share",
        ratio(c.drop_channel as f64, frames),
    );
    report.set("link.peak_queue_kb", c.peak_queue_bytes as f64 / 1024.0);
    report.set(
        "tcp.data_segs_per_mb",
        ratio(c.data_segs as f64, c.app_bytes as f64 / 1e6),
    );
    report.set(
        "tcp.rexmit_share",
        ratio(c.rexmit_segs as f64, c.data_segs as f64),
    );
    report.set(
        "mptcp.cellular_share",
        ratio(c.cell_bytes as f64, (c.wifi_bytes + c.cell_bytes) as f64),
    );
    report.set(
        "mptcp.ofo_ms_mean",
        ratio(c.ofo_ms_sum, c.ofo_samples as f64),
    );
    report.set(
        "alloc.heap_ops_per_flow",
        ratio(heap_ops as f64, c.flows as f64),
    );
    report.set(
        "alloc.heap_ops_per_event",
        ratio(heap_ops as f64, c.events as f64),
    );
    report.set("alloc.peak_live_mb", peak_live as f64 / (1 << 20) as f64);
    report.set(
        "capture.pcap_bytes_per_payload_byte",
        ratio(stages.pcap_bytes as f64, stages.payload_bytes as f64),
    );

    // Timings of drives and spans.
    report.set_timing("sim.dispatch_ns_per_event", dispatch);
    report.set_timing("sim.deep_heap_ns_per_event", deep_heap);
    report.set_timing("sim.timer_ns_per_op", timer);
    report.set_timing("sim.switch_ns_per_frame", switch);
    report.set_timing("link.wifi_forward_ns_per_frame", wifi.ns_per_frame);
    report.set_timing("link.lte_forward_ns_per_frame", lte.ns_per_frame);
    report.set_timing("link.background_us_per_sim_s", background);
    report.set_timing("tcp.wire_encode_ns_per_seg", enc);
    report.set_timing("tcp.wire_parse_ns_per_seg", parse);
    report.set_timing("tcp.wire_encode_ack_ns", enc_ack);
    report.set_timing("tcp.wire_parse_ack_ns", parse_ack);
    report.set_timing("tcp.socket_ns_per_seg", socket);
    report.set_timing("tcp.socket_lossy_ns_per_seg", socket_lossy);
    report.set_timing("tcp.assembler_inorder_ns_per_seg", asm_in);
    report.set_timing("tcp.assembler_interleaved_ns_per_seg", asm_mix);
    report.set_timing("mptcp.conn_ns_per_seg", conn);
    report.set("mptcp.self_ns_per_seg", conn.median - socket.median);
    report.set_timing("mptcp.scheduler_pick_ns", pick);
    report.set_timing("http.head_roundtrip_ns", http);
    report.set_timing("metrics.dist_push_ns", push);
    report.set_timing("metrics.fleet_merge_us_per_kflow", merge);
    report.set_timing("metrics.report_json_ms", fleet.report_json_ms);
    report.set_timing("scenario.parse_compile_us", scenario);
    report.set_timing("fleet.ns_per_event_n100", fleet.ns_per_event_n100);
    report.set_timing("fleet.ns_per_event_n2000", fleet.ns_per_event_n2000);
    report.set(
        "fleet.scale_penalty",
        fleet.ns_per_event_n2000.median / fleet.ns_per_event_n100.median,
    );
    report.set_timing("check.lint_wall_s", lint);
    report.set_timing("check.explore_states_per_s", explore);
    report.set_timing("experiments.pool_speedup_w2", pool);
    let call_ns: Vec<f64> = call_units.iter().map(|&u| ns(u)).collect();
    let (p50, p99) = drives::measurement_percentiles(&call_ns);
    report.set("experiments.measurement_us_p50", p50);
    report.set("experiments.measurement_us_p99", p99);
    report.set(
        "experiments.crosscheck_ms",
        ns(stages.crosscheck) / 1e6 / stages.flows.max(1) as f64,
    );
    report.set(
        "capture.tap_ns_per_frame",
        ratio(ns(stages.captured - stages.plain), stages.frames as f64),
    );
    report.set_timing("capture.pcapng_write_mb_per_s", write);
    report.set(
        "capture.pcapng_read_mb_per_s",
        ratio(stages.pcap_bytes as f64 / 1e6, ns(stages.read) / 1e9),
    );
    report.set(
        "capture.analyze_ns_per_pkt",
        ratio(ns(stages.analyze), stages.frames as f64),
    );
    // One traced repetition against the median of the untraced ones, both
    // as they ran (the undisturbed estimate needs several repetitions).
    report.set(
        "trace.overhead_pct",
        100.0 * (ns(traced_lap.units()) / untraced_each_ns - 1.0),
    );
    report.set("harness.cpu_wall_ratio", cpu_wall);

    // The ledger: exact op counts × the drives' price per op, as shares of
    // the untraced median repetition. The link drives' own engine events
    // are charged to the engine, not the link.
    let link_net =
        |l: &LinkForward| (l.ns_per_frame.median - l.events_per_frame * dispatch.median).max(0.0);
    let acks = (c.segs_sent - c.data_segs + c.segs_received) as f64;
    // "Other": priced HTTP heads and summary pushes, plus the spans of the
    // repetition that are not simulation at all and so are measured whole.
    let measured: f64 = [
        ("metrics", "report_json"),
        ("capture", "read_pcapng"),
        ("capture", "analyze"),
        ("experiments", "crosscheck"),
    ]
    .iter()
    .map(|(layer, name)| ns(total(&rep_spans, layer, name) * units_per_ns))
    .sum();
    let shares = [
        ("ledger.sim_share", c.events as f64 * dispatch.median),
        (
            "ledger.link_share",
            c.wifi_frames as f64 * link_net(&wifi) + c.cell_frames as f64 * link_net(&lte),
        ),
        (
            "ledger.tcp_wire_share",
            c.data_segs as f64 * (enc.median + parse.median)
                + acks * (enc_ack.median + parse_ack.median),
        ),
        (
            "ledger.tcp_socket_share",
            c.data_segs as f64 * socket.median,
        ),
        (
            "ledger.mptcp_share",
            c.mp_data_segs as f64 * (conn.median - socket.median).max(0.0),
        ),
        (
            "ledger.other_share",
            c.flows as f64 * http.median
                + (c.rtt_samples + c.ofo_samples) as f64 * push.median
                + measured,
        ),
    ];
    let mut attributed = 0.0;
    for (name, layer_ns) in shares {
        report.set(name, layer_ns / rep_ns);
        attributed += layer_ns / rep_ns;
    }
    report.set("ledger.unattributed_share", 1.0 - attributed);

    if let (Workload::BulkDownload, Inputs::Flows(flows)) = (w, &setup.inputs) {
        // Host ns per data segment of each configuration (median of its
        // four flows; each flow is one stopwatch block): the SP-WiFi vs
        // MP-2 gap is what `mptcp.self_ns_per_seg` is predicted to explain.
        // 1400-byte segments; retransmissions add what `tcp.rexmit_share`
        // reports.
        let per_seg: Vec<f64> = traced_lap
            .blocks
            .iter()
            .zip(flows)
            .map(|(&units, f)| ns(units) / (f.scenario.size as f64 / 1400.0))
            .collect();
        for (member, f) in flows.iter().take(4).enumerate() {
            let same: Vec<f64> = per_seg.iter().skip(member).step_by(4).copied().collect();
            notes.push(format!(
                "member {} over {}: {} ns per data segment",
                f.scenario.flow.label(f.scenario.carrier),
                f.scenario.carrier.name(),
                crate::stats::Summary::of(&same)
            ));
        }
    }

    TraceResult {
        values: report.finish(),
        ops: untraced.ops + last.ops + traced.flows,
        ops_failed,
        digest: setup.reference.digest,
        redrawn: setup.reference.redrawn,
        first_failure,
        notes,
        span_json: spans::to_json(rec.spans(), 64),
    }
}
