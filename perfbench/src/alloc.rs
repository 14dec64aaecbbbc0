//! Allocation counting and peak-RSS reading, for the traced run only.
//!
//! The counting allocator forwards every call to the system allocator.
//! It counts `alloc`, `alloc_zeroed` and `realloc` calls while counting
//! is switched on; timed end-to-end runs leave it off, so they pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// System allocator wrapper that counts allocations while enabled.
pub struct CountingAlloc;

// Both atomics are statistics that publish no other data, so `Relaxed`
// is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if ENABLED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over unchanged; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded with the caller's layout (see impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded with the caller's layout (see impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` through this wrapper
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this wrapper
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    COUNT.load(Relaxed)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}
