//! The untraced run: one warm-up repetition, then timed repetitions of the
//! same fixed work. Every end-to-end number comes from here.

use std::time::{Duration, Instant};

use crate::metrics::{Report, Value, END_TO_END};
use crate::pace::{undisturbed_units, Lap, Pace};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::sysinfo;
use crate::workloads::{generate, run_rep, Inputs, RepOutcome, Workload};

/// How many timed repetitions to run: a fixed count, or as many as fit in a
/// time box (at least three, so there is a median to speak of). The work
/// per repetition is fixed either way.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    Count(usize),
    For(Duration),
}

pub struct Setup {
    pub inputs: Inputs,
    /// The warm-up repetition's outcome: the reference every later
    /// repetition's digest is held to.
    pub reference: RepOutcome,
    /// Input generation plus the warm-up repetition, timed.
    pub lap: Lap,
}

/// Input generation plus the untimed warm-up repetition, which fills the
/// thread-local frame pool and every lazily grown table.
pub fn set_up(w: Workload, seed: u64, shrink: u32, pace: &mut Pace) -> Setup {
    pace.start();
    let inputs = generate(w, seed, shrink);
    let reference = run_rep(w, &inputs, &mut Recorder::new(false), pace, None);
    Setup {
        inputs,
        reference,
        lap: pace.stop(),
    }
}

pub struct TimedReps {
    pub laps: Vec<Lap>,
    /// Process CPU time ÷ wall of each repetition, where /proc gives it.
    pub cpu_wall: Vec<f64>,
    pub ops: u64,
    pub ops_failed: u64,
    pub first_failure: Option<String>,
}

impl TimedReps {
    /// What one repetition takes on the undisturbed host, in seconds.
    pub fn rep_seconds(&self, pace: &Pace) -> f64 {
        pace.seconds(undisturbed_units(&self.laps))
    }

    /// Every repetition as it ran, in seconds of the undisturbed host.
    pub fn each_seconds(&self, pace: &Pace) -> Vec<f64> {
        self.laps.iter().map(|l| pace.seconds(l.units())).collect()
    }
}

/// Run timed repetitions and hold each to the reference.
pub fn timed_reps(w: Workload, setup: &Setup, reps: Reps, pace: &mut Pace) -> TimedReps {
    let mut out = TimedReps {
        laps: Vec::new(),
        cpu_wall: Vec::new(),
        ops: 0,
        ops_failed: 0,
        first_failure: setup.reference.first_failure.clone(),
    };
    let started = Instant::now();
    let mut rec = Recorder::new(false);
    loop {
        let done = out.laps.len();
        let enough = match reps {
            Reps::Count(n) => done >= n,
            Reps::For(d) => done >= 3 && started.elapsed() >= d,
        };
        if enough {
            return out;
        }
        let cpu0 = sysinfo::cpu_seconds();
        let wall0 = Instant::now();
        pace.start();
        let rep = run_rep(w, &setup.inputs, &mut rec, pace, None);
        out.laps.push(pace.stop());
        // CPU time also covers the calibration kernel, so it is read
        // against the whole interval, not the measured blocks.
        if let (Some(a), Some(b)) = (cpu0, sysinfo::cpu_seconds()) {
            out.cpu_wall.push((b - a) / wall0.elapsed().as_secs_f64());
        }
        out.ops += rep.flows;
        if rep.digest == setup.reference.digest {
            out.ops_failed += rep.failed;
        } else {
            // A repetition that does not reproduce the warm-up is wrong as
            // a whole, whichever flow moved.
            out.ops_failed += rep.flows;
            out.first_failure.get_or_insert(format!(
                "repetition {done} digest {:016x} differs from the warm-up's {:016x}",
                rep.digest, setup.reference.digest
            ));
        }
        if out.first_failure.is_none() {
            out.first_failure = rep.first_failure;
        }
    }
}

pub struct RunResult {
    pub values: Vec<Value>,
    /// What the throughputs are computed from: one repetition on the
    /// undisturbed host, in seconds.
    pub rep_s: f64,
    /// Every repetition as it ran, in seconds of the undisturbed host.
    pub each_rep_s: Summary,
    /// The same repetitions in raw wall seconds.
    pub rep_wall_s: Summary,
    /// How disturbed the host was (median ÷ undisturbed kernel time).
    pub disturbance: f64,
    pub cpu_wall_min: Option<f64>,
    pub ops: u64,
    pub ops_failed: u64,
    pub digest: u64,
    pub first_failure: Option<String>,
    /// Measurements of one repetition that timed out and were drawn again.
    pub redrawn: u64,
}

/// The whole untraced run of one workload in this process. `setup_s` is
/// everything from `process_start` to the first timed repetition: what came
/// before the stopwatch as raw seconds, the set-up itself in seconds of the
/// undisturbed host.
pub fn run(w: Workload, seed: u64, shrink: u32, reps: Reps, process_start: Instant) -> RunResult {
    let mut pace = Pace::new();
    let before_setup_s = process_start.elapsed().as_secs_f64();
    let setup = set_up(w, seed, shrink, &mut pace);
    let timed = timed_reps(w, &setup, reps, &mut pace);
    let rep_s = timed.rep_seconds(&pace);
    let walls: Vec<f64> = timed.laps.iter().map(|l| l.wall_s).collect();
    let setup_s = before_setup_s + pace.seconds(setup.lap.units());
    let completed = setup.reference.flows - setup.reference.failed;
    let mut report = Report::new(END_TO_END);
    report.set("flows_per_s", completed as f64 / rep_s);
    report.set(
        "payload_mb_per_s",
        setup.reference.payload_bytes as f64 / 1e6 / rep_s,
    );
    report.set("peak_rss_mb", sysinfo::peak_rss_mib());
    report.set("setup_s", setup_s);
    RunResult {
        values: report.finish(),
        rep_s,
        each_rep_s: Summary::of(&timed.each_seconds(&pace)),
        rep_wall_s: Summary::of(&walls),
        disturbance: pace.disturbance(),
        cpu_wall_min: timed.cpu_wall.iter().copied().reduce(f64::min),
        ops: timed.ops,
        ops_failed: timed.ops_failed,
        digest: setup.reference.digest,
        first_failure: timed.first_failure,
        redrawn: setup.reference.redrawn,
    }
}
