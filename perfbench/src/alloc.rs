//! A counting global allocator: allocations, bytes, live heap and its
//! peak. The benchmark is single-threaded, so relaxed atomics suffice
//! and the counters cost two uncontended atomic adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The wrapper installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    /// A reallocation counts as one allocation of the new size and a
    /// release of the old one.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grow(new_size as u64);
        }
        p
    }
}

/// Allocations made so far (including reallocations).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes requested so far.
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}

/// Allocation counters at one moment, for taking differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    /// Allocations.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl Mark {
    /// The counters now.
    pub fn now() -> Self {
        Mark {
            allocs: allocs(),
            bytes: bytes(),
        }
    }

    /// Allocations and bytes since `self`.
    pub fn since(self) -> Self {
        Mark {
            allocs: allocs() - self.allocs,
            bytes: bytes() - self.bytes,
        }
    }
}

/// Starts a new peak window: the peak restarts from the heap live now,
/// which is returned.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live heap since the last [`reset_peak`], in bytes.
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Runs `f` and returns its result with the highest live heap during it
/// above the heap live when it started, in MB (10^6 bytes).
pub fn peak_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = reset_peak();
    let out = f();
    (out, (peak() - base) as f64 / 1e6)
}
