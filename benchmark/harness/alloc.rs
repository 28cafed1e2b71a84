//! Counting global allocator: allocation calls and bytes requested, per
//! thread, so spans can report what a layer allocated; and the
//! process-wide high-water mark of live heap bytes.
//!
//! Harness threads (client, workers) call [`register_thread`] and count
//! into their own slot; threads the libraries spawn (prefetch loaders,
//! socket readers) count into the shared `OTHER` slot. All counters
//! are relaxed statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
#[repr(align(64))]
pub struct Slot {
    count: AtomicU64,
    bytes: AtomicU64,
}

impl Slot {
    /// `(allocation calls, bytes requested)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

static OTHER: Slot = Slot {
    count: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static SLOTS: Mutex<Vec<&'static Slot>> = Mutex::new(Vec::new());

/// Blocks this large or larger count towards the live-bytes high-water
/// mark. Smaller ones (the bulk of the calls, next to none of the
/// bytes) are left out so that the one shared counter stays off the
/// hot path of allocation-heavy kernels.
const TRACKED_MIN: usize = 4096;
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MINE: Cell<Option<&'static Slot>> = const { Cell::new(None) };
}

/// Gives the calling thread its own counters (leaked: a handful of
/// threads per process).
pub fn register_thread() {
    let slot: &'static Slot = Box::leak(Box::default());
    SLOTS.lock().expect("slot registry poisoned").push(slot);
    MINE.with(|m| m.set(Some(slot)));
}

/// The calling thread's counters; zeros for an unregistered thread.
pub fn thread_counts() -> (u64, u64) {
    MINE.with(|m| m.get()).map_or((0, 0), Slot::read)
}

/// Counters summed over every thread of the process.
pub fn process_counts() -> (u64, u64) {
    let mut total = OTHER.read();
    for s in SLOTS.lock().expect("slot registry poisoned").iter() {
        let (c, b) = s.read();
        total.0 += c;
        total.1 += b;
    }
    total
}

/// Most bytes ever live at once in blocks of at least 4 KiB.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

pub struct Counting;

impl Counting {
    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let slot = MINE.try_with(|m| m.get()).ok().flatten().unwrap_or(&OTHER);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn born(size: usize) {
        if size >= TRACKED_MIN {
            let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn died(size: usize) {
        if size >= TRACKED_MIN {
            LIVE.fetch_sub(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counting
// touches only atomics and a const-initialised thread-local `Cell`, and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        Self::born(layout.size());
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        Self::born(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::died(layout.size());
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size.saturating_sub(layout.size()));
        Self::died(layout.size());
        Self::born(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
