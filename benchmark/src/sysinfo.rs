//! What the benchmark reads about its own process and host: peak resident
//! set, CPU time, and the header printed above every output.

use std::process::Command;

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MiB (0 where /proc is not available).
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// User + system CPU seconds of this process so far, from /proc/self/stat
/// (clock ticks; Linux fixes USER_HZ at 100). `None` where /proc is not
/// available.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after ')'.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace();
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// Header lines (each starting with `#`): git revision, core count, CPU
/// model and compiler. Anything that cannot be read says so instead of
/// failing — the benchmark also runs from an exported tree with no `.git`.
pub fn header() -> String {
    let unknown = || "unknown".to_string();
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown);
    let dirty = match command_line("git", &["status", "--porcelain"]) {
        Some(s) if !s.is_empty() => "+dirty",
        _ => "",
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(unknown);
    format!(
        "# mpwbench  git {rev}{dirty}  nproc {nproc}  cpu {cpu}  {rustc}\n\
         # single process, single thread, fixed work per repetition; times are host seconds"
    )
}
