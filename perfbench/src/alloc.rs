//! Counting global allocator: the `alloc.*` layer and `mem_peak_mb`.
//!
//! Every allocation and reallocation made by engine code is counted,
//! and its bytes are added to a live total whose high-water mark is
//! `mem_peak_mb`. Code the benchmark runs inside [`excluded`] is not
//! counted: the simulated devices' backing stores (the timing backend
//! wraps every device access in it), the pre-generated inputs and the
//! benchmark's own bookkeeping.
//!
//! Memory allocated in one mode and freed in the other skews the live
//! total; the benchmark avoids that by handing the engine a fresh
//! (counted) clone of each pre-generated op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static EXCLUDED: Cell<u32> = const { Cell::new(0) };
}

fn counted() -> bool {
    EXCLUDED.try_with(|d| d.get() == 0).unwrap_or(false)
}

fn grow(by: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(by as u64, Ordering::Relaxed);
    let now = LIVE.fetch_add(by as i64, Ordering::Relaxed) + by as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters only observe sizes and never touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            grow(layout.size());
        }
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            grow(layout.size());
        }
        // SAFETY: the caller's `layout` contract passes through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            grow(new_size);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` without counting its allocations (device stores, inputs,
/// benchmark bookkeeping).
pub fn excluded<T>(f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            EXCLUDED.with(|d| d.set(d.get() - 1));
        }
    }
    EXCLUDED.with(|d| d.set(d.get() + 1));
    let _restore = Restore;
    f()
}

/// Counted allocator calls so far (allocations plus reallocations).
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Counted bytes requested so far.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Live counted bytes now.
pub fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the current live total.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live counted bytes since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
