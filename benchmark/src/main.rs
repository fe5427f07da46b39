//! mpwbench — the repo's benchmark (see README.md beside Cargo.toml).
//!
//! ```text
//! mpwbench run   <workload> [--seed N] [--smoke]             end-to-end metrics, untraced
//! mpwbench trace <workload> [--seed N] [--quick] [--smoke]    per-layer metrics, spans, ledger
//! mpwbench all   [--seed N] [--smoke]     every metric of every workload, with the checks
//! mpwbench aa    [--seed N] [--smoke]     two independent sets of runs must agree
//! mpwbench list                           the registry, as BENCHMARK.json
//! mpwbench --workload W --seed N --seconds S --trace 0|1      the acceptance driver's contract
//! ```
//!
//! One process per workload, one thread, fixed work per repetition.

mod alloc;
mod counts;
mod digest;
mod drives;
mod metrics;
mod pace;
mod run;
mod spans;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use drives::DriveSize;
use metrics::{contract_metrics_json, render_line, Kind, Value, END_TO_END, PER_LAYER};
use run::Reps;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 2013;
const DEFAULT_REPS: usize = 9;
/// `--smoke`: one repetition at a twentieth of the size.
const SMOKE_SHRINK: u32 = 20;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--name value` and bare `--switch` flags, anything else positional.
    fn parse(raw: &[String], switches: &[&str]) -> Args {
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => args.flags.push((name.into(), None)),
                Some(name) => args.flags.push((name.into(), it.next().cloned())),
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, None)) => Err(format!("--{name} needs a value")),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

fn workload_arg(name: Option<&String>) -> Result<Workload, String> {
    let name = name.ok_or("which workload?")?;
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", known.join(", "))
    })
}

/// The checkout root: where `crates/` and `benchmark/` live.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    if cwd.join("crates").is_dir() && cwd.join("benchmark").is_dir() {
        cwd
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }
}

/// Print the header; returns `start` moved past the time that took (git and
/// rustc are asked for their versions), which is not the program's set-up.
fn print_head(mode: &str, w: Workload, seed: u64, shrink: u32, start: Instant) -> Instant {
    let t0 = Instant::now();
    println!("{}", sysinfo::header());
    println!(
        "# {mode} {} seed {seed} size 1/{shrink}: {}",
        w.name(),
        w.why()
    );
    start + t0.elapsed()
}

fn print_verdict(
    ops: u64,
    ops_failed: u64,
    redrawn: u64,
    digest: u64,
    first_failure: &Option<String>,
) {
    println!(
        "# redrawn {redrawn}  (measurements of a repetition that timed out in the model and were drawn again)"
    );
    println!("# ops {ops}");
    println!("# ops_failed {ops_failed}");
    println!("# digest {digest:016x}");
    if let Some(why) = first_failure {
        println!("# first_failure {why}");
    }
}

fn cmd_run(
    w: Workload,
    seed: u64,
    shrink: u32,
    reps: Reps,
    start: Instant,
) -> Result<bool, String> {
    let start = print_head("run", w, seed, shrink, start);
    let r = run::run(w, seed, shrink, reps, start);
    for v in &r.values {
        println!("{}", render_line(v));
    }
    println!("# primary {}", w.primary_metric());
    println!(
        "# rep_s {:.6}  (one repetition on the undisturbed host)",
        r.rep_s
    );
    println!("# each_rep_s {}", r.each_rep_s);
    println!(
        "# rep_wall_s {}  (raw; host disturbance {:.3})",
        r.rep_wall_s, r.disturbance
    );
    if let Some(ratio) = r.cpu_wall_min {
        let mark = if ratio < 0.95 {
            "  (a repetition was disturbed)"
        } else {
            ""
        };
        println!("# cpu_wall_ratio_min {ratio:.3}{mark}");
    }
    print_verdict(r.ops, r.ops_failed, r.redrawn, r.digest, &r.first_failure);
    Ok(r.ops_failed == 0)
}

fn write_span_file(w: Workload, json: &str) -> Result<PathBuf, String> {
    let dir = repo_root().join("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_trace(w: Workload, seed: u64, shrink: u32, size: DriveSize) -> Result<bool, String> {
    print_head("trace", w, seed, shrink, Instant::now());
    let r = trace::trace(w, seed, shrink, size, &repo_root());
    for v in &r.values {
        println!("{}", render_line(v));
    }
    for note in &r.notes {
        println!("# {note}");
    }
    println!("# spans {}", write_span_file(w, &r.span_json)?.display());
    print_verdict(r.ops, r.ops_failed, r.redrawn, r.digest, &r.first_failure);
    Ok(r.ops_failed == 0)
}

/// The acceptance driver's contract: measure for `seconds`, print one JSON
/// object as the last line of stdout.
fn cmd_contract(args: &Args, start: Instant) -> Result<bool, String> {
    let w = workload_arg(args.value::<String>("workload")?.as_ref())?;
    let seed = args.value("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: u64 = args.value("seconds")?.ok_or("--seconds is required")?;
    let traced = match args.value::<u8>("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let (values, ops, ops_failed, redrawn, first_failure): (Vec<Value>, u64, u64, u64, _) =
        if traced {
            let r = trace::trace(w, seed, 1, DriveSize::QUICK, &repo_root());
            write_span_file(w, &r.span_json)?;
            (r.values, r.ops, r.ops_failed, r.redrawn, r.first_failure)
        } else {
            let reps = Reps::For(Duration::from_secs(seconds));
            let r = run::run(w, seed, 1, reps, start);
            (r.values, r.ops, r.ops_failed, r.redrawn, r.first_failure)
        };
    // The result object has no key for these; they go to stderr.
    if redrawn > 0 {
        eprintln!("mpwbench: redrawn {redrawn}");
    }
    if let Some(why) = &first_failure {
        eprintln!("mpwbench: {why}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {ops_failed}, \"metrics\": {}}}",
        ops_failed == 0,
        contract_metrics_json(&values)
    );
    // A result was printed: the verdict is in it, not in the exit code.
    Ok(true)
}

/// What a child `run` or `trace` printed: `name value unit` lines and
/// `# key value` facts.
#[derive(Default)]
struct ChildOutput {
    values: Vec<(String, String)>,
    facts: Vec<(String, String)>,
}

impl ChildOutput {
    fn parse(stdout: &str) -> ChildOutput {
        let mut out = ChildOutput::default();
        for line in stdout.lines() {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("#") => {
                    if let (Some(k), Some(v)) = (words.next(), words.next()) {
                        out.facts.push((k.to_string(), v.to_string()));
                    }
                }
                Some(name) => {
                    if let Some(v) = words.next() {
                        out.values.push((name.to_string(), v.to_string()));
                    }
                }
                None => {}
            }
        }
        out
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn fact(&self, name: &str) -> Option<&str> {
        self.facts
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Run `mpwbench <mode> <workload> …` as its own process, echo what it
/// prints, and hand back the parsed output and whether it succeeded.
fn child(mode: &str, w: Workload, seed: u64, smoke: bool) -> Result<(ChildOutput, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([mode, w.name(), "--seed", &seed.to_string()]);
    if mode == "trace" {
        cmd.arg("--quick");
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{mode}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    Ok((ChildOutput::parse(&stdout), out.status.success()))
}

fn cmd_all(seed: u64, smoke: bool) -> Result<bool, String> {
    let mut ok = true;
    for w in Workload::ALL {
        for mode in ["run", "trace"] {
            let (out, success) = child(mode, w, seed, smoke)?;
            let failed = out.fact("ops_failed") != Some("0");
            if !success || failed {
                println!("# FAILED {mode} {}", w.name());
                ok = false;
            }
        }
        println!();
    }
    println!(
        "# all: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    Ok(ok)
}

/// A/A: two independent sets of processes run every workload. End-to-end
/// medians must agree within their bounds; digests and exact counts must be
/// identical.
fn cmd_aa(seed: u64, smoke: bool) -> Result<bool, String> {
    let mut ok = true;
    let mut table = Vec::new();
    for w in Workload::ALL {
        let mut sets = Vec::new();
        for set in ["A", "B"] {
            println!("# ---- set {set}: {}", w.name());
            let (run, run_ok) = child("run", w, seed, smoke)?;
            let (trace, trace_ok) = child("trace", w, seed, smoke)?;
            ok &= run_ok && trace_ok;
            sets.push((run, trace));
        }
        let ((run_a, trace_a), (run_b, trace_b)) = (&sets[0], &sets[1]);
        for d in END_TO_END {
            let Kind::EndToEnd { bound } = d.kind else {
                continue;
            };
            let read = |o: &ChildOutput| o.value(d.name).and_then(|v| v.parse::<f64>().ok());
            let (Some(a), Some(b)) = (read(run_a), read(run_b)) else {
                return Err(format!("{}: {} missing from a run", w.name(), d.name));
            };
            let diff = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "ok" } else { "DISAGREE" };
            ok &= diff <= bound;
            table.push(format!(
                "# aa {:<17} {:<17} A {a:>14.4} B {b:>14.4} diff {:>6.2} % bound {:>4.0} % {verdict}",
                w.name(),
                d.name,
                100.0 * diff,
                100.0 * bound
            ));
        }
        let mut exact = vec![("digest (run)", run_a.fact("digest"), run_b.fact("digest"))];
        exact.push((
            "digest (trace)",
            trace_a.fact("digest"),
            trace_b.fact("digest"),
        ));
        exact.push((
            "digest (run vs trace)",
            run_a.fact("digest"),
            trace_a.fact("digest"),
        ));
        for d in PER_LAYER.iter().filter(|d| d.kind == Kind::Count) {
            exact.push((d.name, trace_a.value(d.name), trace_b.value(d.name)));
        }
        for (name, a, b) in exact {
            if a.is_none() || a != b {
                ok = false;
                table.push(format!(
                    "# aa {:<17} {name}: A {a:?} B {b:?} DIFFER",
                    w.name()
                ));
            }
        }
        table.push(format!(
            "# aa {:<17} digests and exact counts compared",
            w.name()
        ));
    }
    println!();
    for line in table {
        println!("{line}");
    }
    println!("# aa: {}", if ok { "the two sets agree" } else { "FAILED" });
    Ok(ok)
}

fn dispatch(raw: &[String], start: Instant) -> Result<bool, String> {
    let args = Args::parse(raw, &["smoke", "quick"]);
    if args.has("workload") {
        return cmd_contract(&args, start);
    }
    let seed = args.value("seed")?.unwrap_or(DEFAULT_SEED);
    let smoke = args.has("smoke");
    let shrink = if smoke { SMOKE_SHRINK } else { 1 };
    match args.positional.first().map(String::as_str) {
        Some("run") => {
            let w = workload_arg(args.positional.get(1))?;
            let reps = if smoke { 1 } else { DEFAULT_REPS };
            cmd_run(w, seed, shrink, Reps::Count(reps), start)
        }
        Some("trace") => {
            let w = workload_arg(args.positional.get(1))?;
            let size = match (smoke, args.has("quick")) {
                (true, _) => DriveSize::SMOKE,
                (false, true) => DriveSize::QUICK,
                (false, false) => DriveSize::FULL,
            };
            cmd_trace(w, seed, shrink, size)
        }
        Some("list") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("all") => cmd_all(seed, smoke),
        Some("aa") => cmd_aa(seed, smoke),
        _ => Err(
            "usage: mpwbench run|trace <workload> | all | aa | list  [--seed N] [--smoke]\n       \
                  mpwbench --workload W --seed N --seconds S --trace 0|1"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw, start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("mpwbench: {msg}");
            ExitCode::from(2)
        }
    }
}
