//! A counting global allocator behind a relaxed-load switch.
//!
//! Allocation counts are the one host-side cost that repeats exactly, so
//! `alloc_mb` and `allocs` are taken on one extra, untimed repetition with
//! the switch on; during timed repetitions the switch is off and the
//! wrapper costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The process allocator: `System` plus call and byte counters.
pub struct Counting;

// Relaxed everywhere: the counters publish no other data, and counting
// windows are opened and closed by the one thread that allocates in them.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one counting window saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counted {
    /// Allocation and reallocation calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Runs `f` with counting on and returns what it allocated.  Not
/// re-entrant: windows must not nest or overlap across threads.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let (calls0, bytes0) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    let seen = Counted {
        calls: CALLS.load(Ordering::Relaxed) - calls0,
        bytes: BYTES.load(Ordering::Relaxed) - bytes0,
    };
    (out, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_sequence_exactly_and_nothing_while_off() {
        // The test binary installs the allocator too (see main.rs) and the
        // harness runs other tests on parallel threads, whose allocations
        // land in an open window.  The expected count is a floor, so a
        // disturbed window can only read high: retry until one is clean.
        let mut best = Counted {
            calls: u64::MAX,
            bytes: u64::MAX,
        };
        for _ in 0..64 {
            let ((), seen) = counted(|| {
                let a = black_box(vec![0u8; 100]); // alloc_zeroed 100
                let mut b: Vec<u8> = black_box(Vec::with_capacity(10)); // alloc 10
                b.extend_from_slice(&[1; 10]);
                b.reserve_exact(90); // realloc to 100
                black_box(Box::new(7u64)); // alloc 8
                drop((a, b));
            });
            if seen.calls < best.calls {
                best = seen;
            }
            if best.calls == 4 {
                break;
            }
        }
        assert_eq!(
            best,
            Counted {
                calls: 4,
                bytes: 100 + 10 + 100 + 8
            }
        );

        let before = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        black_box(vec![0u8; 4096]);
        // Off: nothing is counted, on this thread or any other (this is
        // the only test that opens a window).
        let after = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        assert_eq!(before, after);
    }
}
