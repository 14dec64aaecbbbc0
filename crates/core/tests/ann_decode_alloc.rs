//! An ANN payload is refused before anything is sized by counts its
//! bytes do not back.
//!
//! The counting global allocator below records the largest single
//! request of the whole process, so this suite is a test binary of its
//! own: no other test allocates beside it.

use rm_core::persist::{DecodeError, PersistModel};
use rm_embed::AnnArtifact;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// System allocator wrapper that records the largest request.
struct LargestRequest;

// A statistic that publishes no other data, so `Relaxed` is enough.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over unchanged; the
// record touches no allocator state.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: forwarded with the caller's layout (see impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        // SAFETY: forwarded with the caller's layout (see impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
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

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// A 20-byte payload — a content index of no centroids, no posting
/// lists and `u32::MAX` declared items — once reserved a 4 GiB seen-map
/// before the partition check refused it.
#[test]
fn ann_payload_declaring_unlisted_items_allocates_nothing_large() {
    // flags (content index) | nlist | dim | n_items | n_lists.
    let payload: Vec<u8> = [0b01, 0, 0, u32::MAX, 0]
        .iter()
        .flat_map(|word: &u32| word.to_le_bytes())
        .collect();
    LARGEST.store(0, Relaxed);
    let decoded = AnnArtifact::decode_payload(&payload);
    let largest = LARGEST.load(Relaxed);
    assert_eq!(decoded, Err(DecodeError::LengthMismatch));
    assert!(
        largest <= 1 << 20,
        "decoding requested {largest} bytes at once"
    );
}
