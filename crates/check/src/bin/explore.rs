//! CLI for the explicit-state model checker. See EXPERIMENTS.md §"mpw-check".
//!
//! Exit codes: 0 = clean (or violation found under `--expect-violation`),
//! 1 = violation found, 2 = usage / expectation errors, or a release build
//! without `--features check-invariants` (its in-stack oracles are
//! compiled out, so a clean run would prove nothing).

use mpw_check::explore::{explore, format_trace, CheckConfig, Inject};
use mpw_mptcp::conn::SynMode;
use mpw_mptcp::Coupling;

fn usage() -> ! {
    eprintln!(
        "usage: explore [--depth N] [--max-states N] [--max-drops N] [--max-dups N]\n\
         \x20              [--reorder N] [--data BYTES] [--mss BYTES] [--ssthresh BYTES]\n\
         \x20              [--coupling coupled|olia|reno] [--syn-mode delayed|simultaneous]\n\
         \x20              [--inject unclamped-cc|overlapping-dss] [--expect-violation]\n\
         \x20              [--min-states N] [--json]"
    );
    std::process::exit(2);
}

fn main() {
    if !cfg!(any(debug_assertions, feature = "check-invariants")) {
        eprintln!(
            "explore: this release build has the in-stack oracles compiled out; \
             rebuild with --features check-invariants"
        );
        std::process::exit(2);
    }
    let mut cfg = CheckConfig::default();
    let mut expect_violation = false;
    let mut min_states = 0usize;
    let mut json = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let take = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--depth" => cfg.depth = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-states" => cfg.max_states = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-drops" => cfg.max_drops = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--max-dups" => cfg.max_dups = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--reorder" => cfg.reorder = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--data" => cfg.data_len = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--mss" => cfg.mss = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--ssthresh" => cfg.ssthresh = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--coupling" => {
                cfg.coupling = match take(&mut i).as_str() {
                    "coupled" => Coupling::Coupled,
                    "olia" => Coupling::Olia,
                    "reno" | "uncoupled" => Coupling::Reno,
                    _ => usage(),
                }
            }
            "--syn-mode" => {
                cfg.syn_mode = match take(&mut i).as_str() {
                    "delayed" => SynMode::Delayed,
                    "simultaneous" => SynMode::Simultaneous,
                    _ => usage(),
                }
            }
            "--inject" => {
                cfg.inject = match take(&mut i).as_str() {
                    "unclamped-cc" => Some(Inject::UnclampedCc),
                    "overlapping-dss" => Some(Inject::OverlappingDss),
                    _ => usage(),
                }
            }
            "--expect-violation" => expect_violation = true,
            "--min-states" => min_states = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json = true,
            _ => usage(),
        }
        i += 1;
    }

    let res = explore(&cfg);

    if json {
        let violation = match &res.violation {
            Some(v) => format!(
                "{{\"message\":{:?},\"path\":[{}]}}",
                v.message,
                v.path
                    .iter()
                    .map(|a| format!("{:?}", a.to_string()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            None => "null".into(),
        };
        println!(
            "{{\"states\":{},\"transitions\":{},\"quiescent\":{},\"deepest\":{},\"truncated\":{},\"violation\":{}}}",
            res.states, res.transitions, res.quiescent, res.deepest, res.truncated, violation
        );
    } else {
        println!(
            "explored {} distinct states, {} transitions (deepest {}, {} quiescent{})",
            res.states,
            res.transitions,
            res.deepest,
            res.quiescent,
            if res.truncated { ", truncated by --max-states" } else { "" },
        );
    }

    match res.violation {
        Some(v) => {
            eprintln!("VIOLATION: {}", v.message);
            eprintln!(
                "counterexample ({} actions, shrunk): {}",
                v.path.len(),
                v.path.iter().map(|a| a.to_string()).collect::<Vec<_>>().join("; ")
            );
            eprintln!("replay:\n{}", format_trace(&cfg, &v.path));
            if expect_violation {
                eprintln!("(expected: planted bug was caught)");
                std::process::exit(0);
            }
            std::process::exit(1);
        }
        None => {
            if expect_violation {
                eprintln!("expected a violation (planted bug NOT caught)");
                std::process::exit(2);
            }
            if res.states < min_states {
                eprintln!(
                    "explored only {} states, --min-states {} required",
                    res.states, min_states
                );
                std::process::exit(2);
            }
        }
    }
}
