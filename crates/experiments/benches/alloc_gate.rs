//! The allocation-regression gate: a counting global allocator measures
//! heap activity inside a steady-state window of a loss-free MPTCP download
//! (plain and captured) and of a 20-client fleet, and the peak live heap of
//! a whole 100-client fleet run, and fails the run if any reading exceeds
//! its checked-in budget in `ALLOC_budgets.json` (zero heap ops for the
//! plain data path). A bench target so it builds with the release
//! profile, and in this crate because `mpw-check` is not in its dependency
//! graph: the invariant oracles stay out of the count.
//!
//! ```text
//! cargo bench -p mpw-experiments --bench alloc_gate
//! ```

// The one target in the workspace exempt from `unsafe_code = "deny"`
// (root Cargo.toml): a counting allocator has to implement `GlobalAlloc`,
// an unsafe trait whose every method is unsafe. The impl below is all the
// unsafe there is — each method counts, then delegates verbatim to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mpw_experiments::run_lossfree_download_windowed;
use mpw_sim::SimTime;

/// Heap-operation counter wrapping the system allocator. Counts every
/// `alloc`/`alloc_zeroed`/`realloc` (frees are not heap ops to the gate),
/// and tracks live bytes: allocations add, `dealloc` subtracts, `realloc`
/// adjusts by the size difference, and the high-water mark follows.
struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated through this allocator.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE_BYTES` since the last [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Debug aid: when armed (MPW_ALLOC_PANIC=N, counts down inside the
/// window), the N-th heap op panics with a backtrace pointing at the
/// offender. The swap-to-zero disarms before panicking so the panic
/// machinery's own allocations don't recurse.
static PANIC_AFTER: AtomicU64 = AtomicU64::new(0);

/// Debug aid: when MPW_ALLOC_SIZES is set, every heap op inside a probed
/// span (the steady-state windows and the whole footprint run) is tallied
/// by its exact requested size in an allocation-free open-addressing table,
/// and the span's report names the sizes with the most bytes, so an
/// offender reads as "4000 B × 101" without a backtrace.
const SIZE_SLOTS: usize = 4096;
/// Requested size + 1 per slot (0 = free).
static SIZE_KEYS: [AtomicU64; SIZE_SLOTS] = [const { AtomicU64::new(0) }; SIZE_SLOTS];
static SIZE_OPS: [AtomicU64; SIZE_SLOTS] = [const { AtomicU64::new(0) }; SIZE_SLOTS];
/// Ops whose size found no free slot.
static SIZE_UNTALLIED: AtomicU64 = AtomicU64::new(0);
static SIZES_ON: AtomicBool = AtomicBool::new(false);
/// Sizes each report lists.
const TOP_SIZES: usize = 5;

fn tally_size(size: usize) {
    let key = size as u64 + 1;
    let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52) as usize % SIZE_SLOTS;
    for _ in 0..SIZE_SLOTS {
        match SIZE_KEYS[i].compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {}
            Err(k) if k == key => {}
            Err(_) => {
                i = (i + 1) % SIZE_SLOTS;
                continue;
            }
        }
        SIZE_OPS[i].fetch_add(1, Ordering::Relaxed);
        return;
    }
    SIZE_UNTALLIED.fetch_add(1, Ordering::Relaxed);
}

/// Print the [`TOP_SIZES`] request sizes with the most bytes tallied over
/// `span`, then clear the table. Call with the tally off: this allocates.
fn report_sizes(span: &str) {
    let mut rows: Vec<(u64, u64)> = SIZE_KEYS
        .iter()
        .zip(&SIZE_OPS)
        .filter_map(|(k, n)| {
            let key = k.swap(0, Ordering::Relaxed);
            let ops = n.swap(0, Ordering::Relaxed);
            (key > 0).then(|| (key - 1, ops))
        })
        .collect();
    rows.sort_by_key(|&(size, ops)| std::cmp::Reverse((size * ops, size)));
    let ops: u64 = rows.iter().map(|&(_, n)| n).sum();
    let untallied = SIZE_UNTALLIED.swap(0, Ordering::Relaxed);
    eprintln!(
        "  {span}: {ops} heap ops over {} request sizes ({untallied} untallied); most bytes:",
        rows.len()
    );
    for &(size, n) in rows.iter().take(TOP_SIZES) {
        eprintln!("    {size} B × {n} = {} KiB", size * n / 1024);
    }
}

static PANIC_SIZE_MIN: AtomicU64 = AtomicU64::new(0);
static PANIC_SIZE_MAX: AtomicU64 = AtomicU64::new(u64::MAX);

fn count_op_sized(size: usize) {
    ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
    if SIZES_ON.load(Ordering::Relaxed) {
        tally_size(size);
    }
    if PANIC_AFTER.load(Ordering::Relaxed) > 0
        && (size as u64) >= PANIC_SIZE_MIN.load(Ordering::Relaxed)
        && (size as u64) <= PANIC_SIZE_MAX.load(Ordering::Relaxed)
        && PANIC_AFTER.fetch_sub(1, Ordering::Relaxed) == 1
    {
        panic!("heap operation of {size} bytes inside the steady-state window (run with RUST_BACKTRACE=1)");
    }
}

fn grow_live(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink_live(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method counts, then forwards its arguments unchanged to
// `System`, so `GlobalAlloc`'s contract holds here exactly when it holds
// there; what the caller guarantees (a valid layout, a pointer this
// allocator returned) passes through untouched.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op_sized(layout.size());
        // SAFETY: the caller's guarantees, forwarded as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow_live(layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_op_sized(layout.size());
        // SAFETY: the caller's guarantees, forwarded as they are.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow_live(layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op_sized(new_size);
        // SAFETY: the caller's guarantees, forwarded as they are.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow_live(new_size - layout.size());
            } else {
                shrink_live(layout.size() - new_size);
            }
        }
        new
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink_live(layout.size());
        // SAFETY: the caller's guarantees, forwarded as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_ops() -> u64 {
    ALLOC_OPS.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live heap; returns it.
fn reset_peak() -> u64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// One allocation-gate measurement: the probe's key in
/// `ALLOC_budgets.json`, its reading and what the reading counts.
struct AllocRow {
    key: &'static str,
    measured: u64,
    unit: &'static str,
}

/// Steady-state observation window: by 300 ms the handshake, MP_JOIN and
/// the slow-start ramp to the 512 KiB send-buffer cap are over; the 4 MiB
/// download over two 20 Mbit/s loss-free paths completes around 950 ms, so
/// [300 ms, 600 ms] is pure mid-transfer steady state.
const ALLOC_PROBE_SIZE: u64 = 4 << 20;
// Window start leaves ample room past the handshake, the slow-start ramp,
// and the coupled-CC climb to the pinned 64 KiB per-subflow in-flight cap
// (reached ~250-350 ms in): only once in-flight has plateaued do the frame
// pool and every queue stop growing.
const ALLOC_WINDOW_MS: (u64, u64) = (400, 700);

fn alloc_probe(capture: bool, seed: u64) -> (u64, u64) {
    let window = (
        SimTime::from_millis(ALLOC_WINDOW_MS.0),
        SimTime::from_millis(ALLOC_WINDOW_MS.1),
    );
    let mut snaps = [0u64; 2];
    // Environment reads happen out here: `std::env::var` allocates, and the
    // mark closure runs *inside* the measured window.
    let env_u64 = |k: &str, d: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(d)
    };
    let armed = env_u64("MPW_ALLOC_PANIC", 0);
    let size_min = env_u64("MPW_ALLOC_PANIC_MIN", 0);
    let size_max = env_u64("MPW_ALLOC_PANIC_MAX", u64::MAX);
    let sizes_on = std::env::var_os("MPW_ALLOC_SIZES").is_some();
    PANIC_SIZE_MIN.store(size_min, Ordering::Relaxed);
    PANIC_SIZE_MAX.store(size_max, Ordering::Relaxed);
    let probe = run_lossfree_download_windowed(
        ALLOC_PROBE_SIZE,
        seed,
        window,
        capture,
        &mut |phase| {
            snaps[usize::from(phase)] = alloc_ops();
            PANIC_AFTER.store(if phase == 0 { armed } else { 0 }, Ordering::Relaxed);
            SIZES_ON.store(sizes_on && phase == 0, Ordering::Relaxed);
        },
    );
    if sizes_on {
        report_sizes(if capture { "captured window" } else { "plain window" });
    }
    assert_eq!(probe.bytes, ALLOC_PROBE_SIZE, "probe download must complete");
    assert_eq!(probe.rexmit_segs, 0, "probe must be loss-free");
    assert!(probe.window_segments > 0, "window saw no data segments");
    (snaps[1] - snaps[0], probe.window_segments)
}

/// Steady-state fleet pump probe: a 20-client mixed fleet mid-transfer.
/// Arrivals are done by 1 s and the 4 MB downloads are nowhere near
/// finished inside the window, so [2 s, 3 s] measures the many-flow pump
/// (shared-link multiplexing, switch fan-out, per-tick sampling) with no
/// handshake or harvest edges. The denominator is events processed over
/// the whole run — the fleet has no single-flow segment counter.
fn fleet_alloc_probe(seed: u64) -> (u64, u64) {
    let mut spec = mpw_fleet::FleetSpec::smoke(20, seed);
    spec.workload = mpw_fleet::FleetWorkload::Download { size: 4 << 20 };
    spec.arrival = mpw_fleet::Arrival::Staggered { gap_ms: 50 };
    spec.horizon_ms = 3_200;
    let window = (SimTime::from_millis(2_000), SimTime::from_millis(3_000));
    let mut snaps = [0u64; 2];
    let run = mpw_fleet::run_fleet_windowed(&spec, Some(window), &mut |phase| {
        snaps[usize::from(phase)] = alloc_ops();
    });
    assert!(snaps[1] >= snaps[0], "window marks fired out of order");
    assert!(run.report.bytes > 0, "fleet probe moved no bytes");
    (snaps[1] - snaps[0], run.world.events_processed())
}

/// Run the allocation probes: one warm-up pass per configuration populates
/// the thread-local buffer pool and grows every ring and queue to
/// steady-state capacity, then the measured pass counts heap operations
/// inside the window. Same seed both passes — the measured run is
/// event-identical to the warm-up.
fn run_alloc_probes() -> Vec<AllocRow> {
    let mut rows = Vec::new();
    for (key, capture) in [
        ("steady_state_segment_allocs", false),
        ("capture_path_allocs", true),
    ] {
        let _ = alloc_probe(capture, 7);
        let (allocs, segs) = alloc_probe(capture, 7);
        eprintln!(
            "{key}: {allocs} heap ops over {segs} segments in the {}..{} ms window",
            ALLOC_WINDOW_MS.0, ALLOC_WINDOW_MS.1
        );
        rows.push(AllocRow {
            key,
            measured: allocs,
            unit: "heap ops in the steady-state window",
        });
    }
    {
        let _ = fleet_alloc_probe(7);
        let (allocs, events) = fleet_alloc_probe(7);
        eprintln!("fleet_pump_allocs: {allocs} heap ops over {events} events in the 2000..3000 ms window");
        rows.push(AllocRow {
            key: "fleet_pump_allocs",
            measured: allocs,
            unit: "heap ops in the steady-state window",
        });
    }
    // Last: the heap-op probes above start from whatever earlier probes
    // left in the thread-local buffer pool, and this one leaves plenty.
    let kib = fleet_footprint_probe(7);
    rows.push(AllocRow {
        key: "fleet_peak_live_kib",
        measured: kib,
        unit: "KiB peak live heap",
    });
    rows
}

/// Footprint probe: the peak live heap of one whole 100-client smoke
/// fleet, above what was live when it started, in KiB. Per-connection
/// state dominates it: a buffer sized for the worst case rather than for
/// what the connection holds shows up here ×100.
fn fleet_footprint_probe(seed: u64) -> u64 {
    let spec = mpw_fleet::FleetSpec::smoke(100, seed);
    let sizes_on = std::env::var_os("MPW_ALLOC_SIZES").is_some();
    let base = reset_peak();
    SIZES_ON.store(sizes_on, Ordering::Relaxed);
    let run = mpw_fleet::run_fleet(&spec);
    SIZES_ON.store(false, Ordering::Relaxed);
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    assert!(run.report.bytes > 0, "footprint fleet moved no bytes");
    drop(run);
    let kib = (peak - base) / 1024;
    eprintln!(
        "fleet_peak_live_kib: {kib} KiB live at peak above the {} KiB at probe start",
        base / 1024
    );
    if sizes_on {
        report_sizes("footprint run");
    }
    kib
}

/// The regression gate: every probe must stay within its checked-in budget.
fn check_alloc_budgets(rows: &[AllocRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ALLOC_budgets.json");
    let text = std::fs::read_to_string(path).expect("read ALLOC_budgets.json");
    let budgets: serde_json::Value = serde_json::from_str(&text).expect("parse ALLOC_budgets.json");
    let mut bad = false;
    for row in rows {
        let budget = budgets
            .get(row.key)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("ALLOC_budgets.json lacks an integer {}", row.key));
        if row.measured > budget {
            eprintln!(
                "ALLOC REGRESSION: {} = {} {}, budget {}",
                row.key, row.measured, row.unit, budget
            );
            bad = true;
        } else {
            eprintln!(
                "{}: {} {} <= budget {}",
                row.key, row.measured, row.unit, budget
            );
        }
    }
    if bad {
        std::process::exit(1);
    }
}

fn main() {
    check_alloc_budgets(&run_alloc_probes());
}
