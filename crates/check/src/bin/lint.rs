//! CLI for the lint engine (DESIGN.md §5.12).
//!
//! Runs the four walls — determinism, panic (strict decode surface +
//! typed call-graph reachability), handler-oracle, alloc — over the
//! workspace, prints the human report, optionally emits the JSON
//! artifact, and gates against `LINT_budgets.json`: any unallowed finding
//! fails, per-rule allow-marker counts may not exceed their budgeted
//! ceiling, and a budget row must name one of the four. (Sequence-number
//! arithmetic and `unsafe` are the compiler's: a private `SeqNum` field
//! and the workspace `unsafe_code` lint.)
//!
//! ```text
//! lint [--root DIR] [--json] [--out PATH] [--budgets PATH] [--no-gate]
//!      [--explain ID]
//! ```
//!
//! `--explain ID` (ID as printed in the JSON report:
//! `rule@file:line:col`) prints the full story behind one finding —
//! including suppressed ones — with the typed entry path for panic
//! findings, then exits.
//!
//! Exit codes: 0 = clean and within budgets, 1 = findings or budget
//! violations, 2 = I/O or usage error (or unknown --explain id).

use std::path::PathBuf;

use mpw_check::lint_engine::{self, resolve::Resolved, rules, Config, Workspace};

fn main() {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut out_path: Option<PathBuf> = None;
    let mut budgets_path: Option<PathBuf> = None;
    let mut gate = true;
    let mut explain: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!(
            "usage: lint [--root DIR] [--json] [--out PATH] [--budgets PATH] [--no-gate] \
             [--explain ID]"
        );
        std::process::exit(2);
    };
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => json = true,
            "--out" => {
                i += 1;
                out_path = Some(PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage())));
            }
            "--budgets" => {
                i += 1;
                budgets_path =
                    Some(PathBuf::from(args.get(i).cloned().unwrap_or_else(|| usage())));
            }
            "--no-gate" => gate = false,
            "--explain" => {
                i += 1;
                explain = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    // Fall back to the workspace root when invoked via `cargo run` from
    // somewhere else: the manifest dir is crates/check.
    if !root.join("crates").is_dir() {
        if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
            let ws = PathBuf::from(md).join("../..");
            if ws.join("crates").is_dir() {
                root = ws;
            }
        }
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lint: failed to load workspace at {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    let cfg = Config::default_workspace();

    if let Some(id) = explain {
        std::process::exit(run_explain(&ws, &cfg, &id));
    }

    let report = match lint_engine::run(&ws, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    };

    print!("{}", report.human());
    if json {
        print!("{}", report.json());
    }
    if let Some(p) = out_path {
        if let Err(e) = std::fs::write(&p, report.json()) {
            eprintln!("lint: writing {} failed: {e}", p.display());
            std::process::exit(2);
        }
        println!("lint: JSON report written to {}", p.display());
    }

    let mut dirty = !report.findings.is_empty();
    if gate {
        let bp = budgets_path.unwrap_or_else(|| root.join("LINT_budgets.json"));
        match std::fs::read_to_string(&bp) {
            Ok(src) => {
                let (violations, hints) = report.gate(&src);
                for h in hints {
                    println!("lint (ratchet): {h}");
                }
                for v in &violations {
                    eprintln!("lint (gate): {v}");
                }
                dirty |= !violations.is_empty();
            }
            Err(e) => {
                eprintln!("lint: reading budgets {} failed: {e}", bp.display());
                std::process::exit(2);
            }
        }
    }
    if dirty {
        std::process::exit(1);
    }
    println!("lint: clean");
}

/// `--explain ID`: print the full story behind one finding, allowed or
/// not. Returns the process exit code.
fn run_explain(ws: &Workspace, cfg: &Config, id: &str) -> i32 {
    let raw = lint_engine::raw_findings(ws, cfg);
    let Some(f) = raw.iter().find(|f| f.id() == id) else {
        eprintln!("lint: no finding with id {id} (ids look like panic@crates/x/src/a.rs:10:5)");
        return 2;
    };
    println!("{f}");

    // Is it suppressed by an allow marker?
    let allow = ws
        .file(&f.file)
        .and_then(|sf| {
            sf.allows
                .iter()
                .find(|a| a.rule == f.rule && a.target_line == f.line)
        });
    match allow {
        Some(a) => println!(
            "  suppressed by `allow-{}` on line {} (reason: {})",
            a.rule, a.marker_line, a.reason
        ),
        None => println!("  not suppressed: this finding fails the gate"),
    }

    // Panic findings carry a typed entry path — print it hop by hop.
    if f.rule == "panic" {
        let r = Resolved::build(ws);
        let (_, paths) = rules::panic(ws, cfg, &r);
        if let Some(p) = paths
            .iter()
            .find(|p| p.file == f.file && p.lines.0 <= f.line && f.line <= p.lines.1)
        {
            println!("  typed call path from entry:");
            for (qname, file, line) in &p.hops {
                println!("    {qname} ({file}:{line})");
            }
        }
    }
    0
}
