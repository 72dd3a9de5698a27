//! Allocation counting for benches and tests.
//!
//! [`CountingAlloc`] forwards every request to the system allocator and
//! counts allocations (a `realloc` counts as one) and the bytes they
//! ask for. Only a binary that installs it counts anything, so it stays
//! out of every production binary; a bench or a test binary opts in
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bench::measure::CountingAlloc = bench::measure::CountingAlloc;
//! ```
//!
//! and reads the counts around the code under test with
//! [`count_allocs`]. The counters are process-wide, so allocations made
//! by other threads in that window are included: measure where nothing
//! else runs, such as a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and requested bytes.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters have no effect on the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations counted over some span of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Runs `f` and returns its result with the allocations made while it
/// ran. Reads zero unless the binary installed [`CountingAlloc`].
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let (count, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let r = f();
    let allocs = Allocs {
        count: ALLOCS.load(Ordering::Relaxed) - count,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (r, allocs)
}
