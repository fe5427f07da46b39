//! Counting global allocator: heap operations and live bytes, always on
//! (a handful of relaxed atomics per heap operation, identical on every
//! commit the benchmark is built against), so allocation counts are exact
//! and comparable between two builds of the simulator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static OPS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    OPS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics that publish no
// other memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        // SAFETY: `ptr` and `layout` come from a previous call on this
        // allocator, which handed the block out from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap operations (alloc, alloc_zeroed, realloc) since process start.
pub fn heap_ops() -> u64 {
    OPS.load(Relaxed)
}

/// Highest number of live heap bytes seen since process start.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}
