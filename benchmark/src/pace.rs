//! A stopwatch that reads in seconds of the undisturbed host.
//!
//! The hosts this benchmark runs on change speed under it: a spin loop on
//! the sandbox it was built on alternates, every 5–15 s and per CPU, between
//! a fast state and states up to 35 % slower, with CPU time ÷ wall time at
//! 0.99 throughout (README.md, "Host speed"). The median of nine 1.2 s
//! repetitions then lands in whichever state the run overlapped most, and
//! two runs of the same binary differ by a quarter.
//!
//! The slowdown is uniform: a fixed calibration kernel and the simulator
//! slow by the same factor at the same time (×1.286 against ×1.289). So the
//! stopwatch brackets every block of measured work (the callers cut blocks
//! of 40–250 ms at the same points of every repetition) between two runs of
//! the kernel and counts the block in *kernel units*: wall time ÷ the mean
//! of the two kernel times. [`undisturbed_units`] then reads each block
//! from its quiet repetitions. Units turn back into seconds through the
//! kernel's undisturbed time, the lowest median of five consecutive kernel
//! samples the process took. The kernel lives here and not in the crates,
//! so a change to the simulator cannot move it.

use std::time::Instant;

use crate::stats::{median, percentile_sorted};

const TABLE_WORDS: usize = 1 << 16; // 256 KiB: L2-resident, like the simulator's hot state
const KERNEL_STEPS: u32 = 2_000_000;
/// Consecutive kernel samples whose median may stand as the undisturbed time.
const REF_WINDOW: usize = 5;

/// What a stopwatch read: raw wall time, and each block in kernel units.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Lap {
    pub wall_s: f64,
    pub blocks: Vec<f64>,
}

impl Lap {
    /// The whole lap in kernel units.
    pub fn units(&self) -> f64 {
        self.blocks.iter().sum()
    }
}

/// The undisturbed time of a piece of work that was run several times, cut
/// into the same blocks each time: per block the 15th percentile over the
/// runs, summed, in kernel units. Disturbances come in bursts shorter than
/// a repetition, so each block only needs to have run undisturbed in a few
/// of the repetitions, not all blocks in the same one; the low percentile
/// (rather than the minimum) keeps one lucky sample from deciding a block.
/// README.md ("Host speed") has the spreads this and the alternatives gave.
pub fn undisturbed_units(laps: &[Lap]) -> f64 {
    let blocks = laps.first().map_or(0, |l| l.blocks.len());
    assert!(
        laps.iter().all(|l| l.blocks.len() == blocks),
        "laps cut into different blocks"
    );
    (0..blocks)
        .map(|b| {
            let mut column: Vec<f64> = laps.iter().map(|l| l.blocks[b]).collect();
            column.sort_by(|x, y| x.total_cmp(y));
            percentile_sorted(&column, 0.15)
        })
        .sum()
}

pub struct Pace {
    table: Vec<u32>,
    /// Every kernel sample, in nanoseconds.
    samples: Vec<f64>,
    /// Lowest median of `REF_WINDOW` consecutive samples so far.
    ref_ns: f64,
    last_kernel_ns: f64,
    block_start: Instant,
    lap: Lap,
}

impl Default for Pace {
    fn default() -> Self {
        Pace::new()
    }
}

impl Pace {
    pub fn new() -> Pace {
        Pace {
            table: vec![0; TABLE_WORDS],
            // Room for an hour of samples up front: the stopwatch must not
            // allocate while the heap-op counter is being read around it.
            samples: Vec::with_capacity(1 << 16),
            ref_ns: f64::INFINITY,
            last_kernel_ns: 0.0,
            block_start: Instant::now(),
            lap: Lap::default(),
        }
    }

    /// The calibration kernel: xorshift steps scattered over the table.
    fn kernel(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9u32;
        for _ in 0..KERNEL_STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let slot = &mut self.table[x as usize & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        let ns = t0.elapsed().as_nanos() as f64;
        self.samples.push(ns);
        if let Some(window) = self.samples.last_chunk::<REF_WINDOW>() {
            self.ref_ns = self.ref_ns.min(median(window));
        }
        ns
    }

    /// Start timing.
    pub fn start(&mut self) {
        self.lap = Lap::default();
        self.last_kernel_ns = self.kernel();
        self.block_start = Instant::now();
    }

    /// End a block of the measured work and begin the next. Callers cut
    /// at the same points of the work in every repetition.
    pub fn boundary(&mut self) {
        let wall_ns = self.block_start.elapsed().as_nanos() as f64;
        let before = self.last_kernel_ns;
        let after = self.kernel();
        self.lap.wall_s += wall_ns / 1e9;
        self.lap.blocks.push(wall_ns / ((before + after) / 2.0));
        self.last_kernel_ns = after;
        self.block_start = Instant::now();
    }

    /// Stop timing; kernel time is never part of what was measured.
    pub fn stop(&mut self) -> Lap {
        self.boundary();
        std::mem::take(&mut self.lap)
    }

    /// Time one call as a single block.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        self.start();
        let out = f();
        (out, self.stop())
    }

    /// The kernel's undisturbed time in nanoseconds: the lowest median of
    /// five consecutive samples. The host stays in one state for seconds,
    /// so a third of a second of the fast state anywhere in the run is
    /// enough to find it, and one lucky sample is not enough to fake it.
    pub fn kernel_ref_ns(&self) -> f64 {
        if self.samples.len() < REF_WINDOW {
            return median(&self.samples);
        }
        self.ref_ns
    }

    /// Kernel units as seconds of the undisturbed host.
    pub fn seconds(&self, units: f64) -> f64 {
        units * self.kernel_ref_ns() / 1e9
    }

    /// Median kernel sample ÷ undisturbed kernel time: how disturbed the
    /// host was while this process measured (1.0 = not at all).
    pub fn disturbance(&self) -> f64 {
        median(&self.samples) / self.kernel_ref_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_convert_back_to_about_the_wall_time() {
        let mut p = Pace::new();
        let ((), lap) = p.time(|| std::thread::sleep(std::time::Duration::from_millis(30)));
        assert!(lap.wall_s >= 0.03 && lap.blocks.len() == 1);
        // The block is bracketed by the only kernel samples there are, so
        // the conversion gives the wall time back, up to how far those
        // samples are apart (other tests run beside this one).
        let s = p.seconds(lap.units());
        assert!(
            (0.6..1.4).contains(&(s / lap.wall_s)),
            "{s} vs {}",
            lap.wall_s
        );
    }

    #[test]
    fn boundaries_cut_blocks_and_each_takes_a_kernel_sample() {
        let mut p = Pace::new();
        p.start();
        let before = p.samples.len();
        p.boundary();
        p.boundary();
        let lap = p.stop();
        assert_eq!(lap.blocks.len(), 3);
        assert!(p.samples.len() >= before + 3);
        assert!((lap.units() - lap.blocks.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn undisturbed_time_takes_each_block_from_its_quiet_repetitions() {
        // Block 0 was disturbed in the first lap, block 1 in the second; no
        // lap was quiet throughout, yet both blocks read their quiet value.
        let lap = |a: f64, b: f64| Lap {
            wall_s: 0.0,
            blocks: vec![a, b],
        };
        let laps: Vec<Lap> = [(13.0, 20.0), (10.0, 26.0)]
            .into_iter()
            .chain(std::iter::repeat_n((10.0, 20.0), 8))
            .map(|(a, b)| lap(a, b))
            .collect();
        assert_eq!(undisturbed_units(&laps), 30.0);
        assert_eq!(undisturbed_units(&laps[..1]), 33.0);
        assert_eq!(undisturbed_units(&[]), 0.0);
    }
}
