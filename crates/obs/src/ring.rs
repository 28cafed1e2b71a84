//! A fixed-capacity single-producer ring buffer for `Copy` records, with
//! lock-free wait-free writes and seqlock-validated reads.
//!
//! The tracer gives every thread its own ring: the owning thread is the
//! only writer (pushing finished spans), while the exporter drains all
//! rings from whatever thread runs the export. Writers never block and
//! never allocate; when the ring is full the oldest records are
//! overwritten and counted as dropped at the next drain.
//!
//! Reads follow the classic seqlock protocol: every slot carries a
//! sequence word that is odd while a write is in progress and encodes
//! the generation when complete.
//! A drain re-checks the sequence after copying the slot and discards the
//! copy on any mismatch, so a record is either observed exactly as
//! written or not at all.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Default per-thread capacity (records). Must be a power of two.
pub const DEFAULT_CAPACITY: usize = 8192;

struct Slot<T> {
    /// `2*generation + 1` while the slot is being written,
    /// `2*generation + 2` once generation `generation` is complete,
    /// `0` when never written.
    seq: AtomicU64,
    data: UnsafeCell<T>,
}

/// Single-producer / concurrent-reader ring of `Copy` records.
pub struct Ring<T: Copy + Default> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Total records ever pushed.
    head: AtomicU64,
    /// Drain cursor: everything below has been handed out already.
    next_read: AtomicU64,
    /// Records overwritten before any drain observed them.
    dropped: AtomicU64,
}

// The UnsafeCell is only written by the owning thread and only read
// through the seqlock protocol, which discards torn copies.
unsafe impl<T: Copy + Default + Send> Sync for Ring<T> {}
unsafe impl<T: Copy + Default + Send> Send for Ring<T> {}

impl<T: Copy + Default> Ring<T> {
    pub fn new() -> Ring<T> {
        Ring::with_capacity(DEFAULT_CAPACITY)
    }

    /// `capacity` is rounded up to the next power of two (minimum 2).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<Slot<T>> = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(T::default()),
            })
            .collect();
        Ring {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            next_read: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records lost to wraparound, as counted by past drains.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends a record, overwriting the oldest one when full.
    ///
    /// MUST only be called from the single producer thread that owns the
    /// ring — the tracer guarantees this by keeping each ring behind a
    /// thread-local handle.
    pub fn push(&self, value: T) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        // Acquire on the swap keeps the data write below from being
        // reordered above the "write in progress" mark.
        slot.seq.swap(2 * h + 1, Ordering::Acquire);
        unsafe {
            *slot.data.get() = value;
        }
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Seqlock read of generation `gen`; `None` when the slot was
    /// overwritten or is mid-write.
    fn read_gen(&self, gen: u64) -> Option<T> {
        let slot = &self.slots[(gen & self.mask) as usize];
        let want = 2 * gen + 2;
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 != want {
            return None;
        }
        let value = unsafe { std::ptr::read_volatile(slot.data.get()) };
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s2 != want {
            return None;
        }
        Some(value)
    }

    /// Removes and returns every record pushed since the previous drain
    /// (oldest first). Concurrent pushes may or may not be included.
    ///
    /// Drains are serialized by the caller (the tracer drains under its
    /// thread-registry lock).
    pub fn drain(&self) -> Vec<T> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let cursor = self.next_read.load(Ordering::Relaxed);
        let start = cursor.max(head.saturating_sub(cap));
        if start > cursor {
            self.dropped.fetch_add(start - cursor, Ordering::Relaxed);
        }
        let mut out = Vec::with_capacity((head - start) as usize);
        for gen in start..head {
            if let Some(v) = self.read_gen(gen) {
                out.push(v);
            } else {
                // Overwritten between the head load and the slot read.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.next_read.store(head, Ordering::Relaxed);
        out
    }
}

impl<T: Copy + Default> Default for Ring<T> {
    fn default() -> Self {
        Ring::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_then_drain_in_order() {
        let r: Ring<u64> = Ring::with_capacity(8);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.drain(), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.drain(), Vec::<u64>::new(), "drain consumes");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let r: Ring<u64> = Ring::with_capacity(4);
        for i in 0..11 {
            r.push(i);
        }
        let got = r.drain();
        assert_eq!(got, vec![7, 8, 9, 10], "last `capacity` records survive");
        assert_eq!(r.dropped(), 7);
        r.push(11);
        assert_eq!(r.drain(), vec![11]);
        assert_eq!(r.dropped(), 7, "no further loss");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let r: Ring<u8> = Ring::with_capacity(5);
        assert_eq!(r.capacity(), 8);
        let r: Ring<u8> = Ring::with_capacity(0);
        assert_eq!(r.capacity(), 2);
    }

    #[test]
    fn interleaved_drains_see_everything_once() {
        let r: Ring<u64> = Ring::with_capacity(8);
        let mut seen = Vec::new();
        for i in 0..20 {
            r.push(i);
            if i % 3 == 0 {
                seen.extend(r.drain());
            }
        }
        seen.extend(r.drain());
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_producer_and_drainer_never_tear() {
        // Records where both halves must agree — a torn read would break
        // the invariant.
        #[derive(Clone, Copy, Default)]
        struct Pair {
            a: u64,
            b: u64,
        }
        let r: Arc<Ring<Pair>> = Arc::new(Ring::with_capacity(64));
        let w = {
            let r = r.clone();
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    r.push(Pair {
                        a: i,
                        b: i ^ 0xdead_beef,
                    });
                }
            })
        };
        let mut total = 0u64;
        while !w.is_finished() {
            for p in r.drain() {
                assert_eq!(p.a ^ 0xdead_beef, p.b, "torn record observed");
                total += 1;
            }
        }
        w.join().unwrap();
        for p in r.drain() {
            assert_eq!(p.a ^ 0xdead_beef, p.b);
            total += 1;
        }
        assert!(total > 0);
        assert_eq!(
            total + r.dropped(),
            200_000,
            "every push drained or counted"
        );
    }
}
