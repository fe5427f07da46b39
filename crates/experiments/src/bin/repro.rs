//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <artifact|group|all|ablations|capture> [--scale quick|default|full] [--seed N]
//!       [--workers N] [--out DIR]
//! ```

use std::io::Write;

use mpw_experiments::artifacts::{group_for, groups};
use mpw_experiments::Scale;

fn usage() -> ! {
    eprintln!("usage: repro <artifact|group|all|ablations|capture> [--scale quick|default|full] [--seed N] [--workers N] [--out DIR]");
    let ids: Vec<&str> = groups().iter().flat_map(|g| g.artifacts).copied().collect();
    let names: Vec<&str> = groups().iter().map(|g| g.name).collect();
    eprintln!("artifacts: {}", ids.join(" "));
    eprintln!("groups: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let target = args[0].clone();
    let mut scale = Scale::DEFAULT;
    let mut seed = 1u64;
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::QUICK,
                    Some("default") => Scale::DEFAULT,
                    Some("full") => Scale::FULL,
                    _ => usage(),
                };
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--workers" => {
                i += 1;
                workers = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    if target == "capture" {
        // Opt-in (not part of `all`): capture an MPTCP download on the
        // wire, cross-check the offline analysis against the in-stack
        // metrics, and leave the pcapng behind for capture-dump /
        // Wireshark. Exits non-zero if the two measurement paths diverge.
        // `--scale` picks the download size: quick = fig-5-style 2 MB,
        // default = 8 MB, full = fig-11-style 64 MB backlog.
        run_capture_artifact(scale, seed, out_dir.as_deref());
        return;
    }

    if target == "ablations" {
        let reps = scale.runs_per_period.max(2) as u64;
        eprintln!(">> running ablations ({reps} reps per arm) …");
        let (table, results) = mpw_experiments::ablations::run_all(reps, seed);
        println!("{table}");
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create out dir");
            std::fs::write(format!("{dir}/ablations.txt"), &table).expect("write txt");
            std::fs::write(
                format!("{dir}/ablations.json"),
                serde_json::to_string_pretty(&results).expect("serialize"),
            )
            .expect("write json");
        }
        return;
    }

    let selected = if target == "all" {
        groups()
    } else {
        match group_for(&target) {
            Some(g) => std::slice::from_ref(g),
            None => usage(),
        }
    };

    let (mut passed, mut checked) = (0, 0);
    for group in selected {
        eprintln!(">> running group '{}' …", group.name);
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock progress on stderr; never reaches results/"
        )]
        let started = std::time::Instant::now();
        let artifacts = (group.run)(scale, seed, workers);
        eprintln!(
            ">> group '{}' done in {:.1}s",
            group.name,
            started.elapsed().as_secs_f64()
        );
        for a in &artifacts {
            // When a single artifact was requested, print only that one.
            if target != "all" && target != group.name && a.id != target {
                continue;
            }
            println!("{}", a.report());
            passed += a.checks.iter().filter(|c| c.pass).count();
            checked += a.checks.len();
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).expect("create out dir");
                let txt = format!("{dir}/{}.txt", a.id);
                let json = format!("{dir}/{}.json", a.id);
                std::fs::File::create(&txt)
                    .and_then(|mut f| f.write_all(a.report().as_bytes()))
                    .expect("write txt");
                std::fs::File::create(&json)
                    .and_then(|mut f| f.write_all(a.json.as_bytes()))
                    .expect("write json");
                eprintln!(">> wrote {txt} and {json}");
            }
        }
    }
    eprintln!(">> checks: {passed}/{checked} passed");
    if passed != checked {
        eprintln!(">> some shape checks did not reproduce (see MISS lines)");
        std::process::exit(1);
    }
}

/// `repro capture`: a captured MPTCP run plus its wire-vs-stack
/// cross-check, written as `capture.pcapng` + `capture.json` + text report.
fn run_capture_artifact(scale: Scale, seed: u64, out_dir: Option<&str>) {
    use mpw_experiments::{crosscheck, Tolerances};

    let size = if scale.runs_per_period >= Scale::FULL.runs_per_period {
        64 << 20 // fig-11-style backlog transfer
    } else if scale.runs_per_period <= Scale::QUICK.runs_per_period {
        mpw_experiments::sizes::S2M // fig-5-style small flow
    } else {
        8 << 20
    };
    let scenario = mpw_experiments::Scenario {
        wifi: mpw_experiments::WifiKind::Home,
        carrier: mpw_link::Carrier::Att,
        flow: mpw_experiments::FlowConfig::mp2(mpw_mptcp::Coupling::Coupled),
        size,
        period: mpw_link::DayPeriod::Night,
        warmup: true,
    };
    eprintln!(">> capturing {} MB MPTCP download (seed {seed}) …", size >> 20);
    let (m, pcap) = mpw_experiments::run_measurement_captured(&scenario, seed);
    let file = mpw_capture::read_pcapng(&pcap).expect("own capture parses");
    let wa = mpw_capture::analyze(&file, mpw_experiments::SERVER_PORT);
    let report = crosscheck(&m, &wa, &Tolerances::default());

    let mut text = String::new();
    text.push_str(&format!(
        "### capture — wire capture + tcptrace-style cross-check\n\n\
         scenario: {} {:?} {} B, seed {}\n\
         capture: {} interfaces, {} packets, {} drop records\n\n{}",
        scenario.flow.label(scenario.carrier),
        scenario.carrier,
        scenario.size,
        seed,
        file.interfaces.len(),
        file.packets.len(),
        wa.drop_records,
        report.render()
    ));
    println!("{text}");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        std::fs::write(format!("{dir}/capture.pcapng"), &pcap).expect("write pcapng");
        std::fs::write(format!("{dir}/capture.txt"), &text).expect("write txt");
        std::fs::write(
            format!("{dir}/capture.json"),
            serde_json::to_string_pretty(&report).expect("serialize"),
        )
        .expect("write json");
        eprintln!(">> wrote {dir}/capture.pcapng, {dir}/capture.txt, {dir}/capture.json");
        eprintln!(">> inspect with: capture-dump {dir}/capture.pcapng --summary");
    }
    if !report.pass() {
        eprintln!(">> wire analysis diverged from in-stack metrics");
        std::process::exit(1);
    }
}
