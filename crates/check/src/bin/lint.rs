//! CLI for the lint engine (DESIGN.md §5.12).
//!
//! Runs the two token walls — determinism and alloc — over the workspace,
//! prints the human report and optionally emits the JSON artifact. Neither
//! wall has an opt-out: any finding fails. (Panics, sequence-number
//! arithmetic and `unsafe` are not walls here: `cargo clippy`, a private
//! `SeqNum` field and the workspace `unsafe_code` lint hold them.)
//!
//! ```text
//! lint [--root DIR] [--json] [--out PATH]
//! ```
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = I/O or usage error.

use std::path::PathBuf;

use mpw_check::lint_engine::{self, Config, Workspace};

fn main() {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut out_path: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!("usage: lint [--root DIR] [--json] [--out PATH]");
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
    let report = match lint_engine::run(&ws, &Config::default_workspace()) {
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
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
    println!("lint: clean");
}
