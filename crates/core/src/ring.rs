//! Bounded single-producer/single-consumer ring: the lock-free ingest
//! fabric between an [`crate::engine::IngestLane`] and the worker thread
//! that owns the shard.
//!
//! # Why a ring
//!
//! A queue that takes a mutex per send/recv puts every pusher and the
//! shard worker through the same lock word on the hot path. An SPSC ring
//! needs no lock at all: with exactly one producer and one consumer, a
//! power-of-two slot array plus two monotonic indices is enough, and each
//! side writes only its own index.
//!
//! # Memory ordering
//!
//! * Producer: load `head` (`Acquire`) to observe freed slots, write the
//!   slot, then publish with `tail.store(SeqCst)`. The release half of
//!   the store makes the slot write visible before the index moves.
//! * Consumer: load `tail` (`Acquire`) to observe published slots, read
//!   the slot, then free it with `head.store(Release)`.
//!
//! `tail` is published `SeqCst` (not merely `Release`) because the
//! close/drain handshake below needs a single total order between the
//! producer's index publication and the consumer's `closed` flag; on the
//! pure hot path the upgrade costs one locked instruction per *batch*,
//! which is noise next to the sketch work inside the batch.
//!
//! # Close/drain handshake (packet-exact shutdown)
//!
//! When the engine drains, the *consumer* closes the ring while the
//! producer may have a push in flight. The handshake keeps accounting
//! exact — every item is either processed by the consumer (and the
//! producer told `Ok`) or rejected (and the producer told `Closed`),
//! never both, never neither:
//!
//! 1. Consumer: `closed.store(true, SeqCst)`, then `final = tail.load
//!    (SeqCst)`, publish `final` and never pop past it.
//! 2. Producer: check `closed` before the slot write (if set, reject and
//!    hand the item back) and again after the `tail` publication. If the
//!    late check is clear, the store is ordered before the consumer's
//!    `final` read in the SeqCst total order, so the item *will* drain:
//!    report `Ok`. If the late check observes `closed`, wait for `final`
//!    and compare: the item is at index `final` or later ⇒ orphaned
//!    (dropped with the ring, reported `Closed`), earlier ⇒ drained
//!    (reported `Ok`).
//!
//! With one producer, at most one push can race the close, and the wait
//! in step 2 is bounded by the consumer's two stores.
//!
//! Compiled under `--cfg loom`, every atomic and cell access goes through
//! the loom types so the model checker (`tests/loom_model.rs`) can
//! interleave them.

#![allow(unsafe_code)]

use core::mem::MaybeUninit;

#[cfg(not(loom))]
use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::Arc;

/// Closure-based `UnsafeCell` facade matching loom's API, so the slot
/// access code is identical under both compilations.
#[cfg(not(loom))]
#[derive(Debug)]
struct SlotCell<T>(core::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> SlotCell<T> {
    fn new(v: T) -> Self {
        Self(core::cell::UnsafeCell::new(v))
    }
    fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

#[cfg(loom)]
#[derive(Debug)]
struct SlotCell<T>(loom::cell::UnsafeCell<T>);

#[cfg(loom)]
impl<T> SlotCell<T> {
    fn new(v: T) -> Self {
        Self(loom::cell::UnsafeCell::new(v))
    }
    fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        self.0.with_mut(f)
    }
}

/// Index variables for the two sides live on separate cache lines so the
/// producer's `tail` stores never invalidate the consumer's `head` line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

#[derive(Debug)]
struct Inner<T> {
    mask: usize,
    slots: Box<[SlotCell<MaybeUninit<T>>]>,
    /// Next index the consumer will pop (consumer-owned).
    head: CachePadded<AtomicUsize>,
    /// Next index the producer will fill (producer-owned).
    tail: CachePadded<AtomicUsize>,
    /// Producer dropped: no further items will arrive.
    producer_closed: AtomicBool,
    /// Consumer closed the ring (drain); see the handshake in module docs.
    consumer_closed: AtomicBool,
    /// `tail` as observed by the consumer at close time; the consumer
    /// never pops at or past this index.
    final_tail: AtomicUsize,
    /// `final_tail` is published (0 = pending, 1 = set).
    final_set: AtomicBool,
}

// SAFETY: the ring hands each item from exactly one thread to exactly one
// other thread; `T: Send` is all that transfer needs. The `&Inner` shared
// between the two sides only touches slots according to the head/tail
// protocol above.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both sides are gone; drop whatever is still in flight,
        // including an orphaned close-race item past `final_tail`.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            self.slots[i & self.mask].with_mut(|p| unsafe { (*p).assume_init_drop() });
            i = i.wrapping_add(1);
        }
    }
}

/// Why a [`RingProducer::push`] did not enqueue.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is full; the item is handed back for a retry.
    Full(T),
    /// The consumer closed the ring. `Some` hands the item back (it never
    /// entered the ring); `None` means the item landed in a slot the
    /// consumer will not pop — it is dropped with the ring, and was *not*
    /// processed. Either way the push must not be counted as submitted.
    Closed(Option<T>),
}

/// The producing half: owned by one [`crate::engine::IngestLane`].
#[derive(Debug)]
pub struct RingProducer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `tail` (only this side ever writes it).
    tail: usize,
    /// Local lower bound on `head`, refreshed only when full.
    head_cache: usize,
}

/// The consuming half: owned by the shard worker thread.
#[derive(Debug)]
pub struct RingConsumer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `head` (only this side ever writes it).
    head: usize,
    /// After [`RingConsumer::close`]: pop no further than this index.
    bound: Option<usize>,
}

/// Creates a ring holding at least `capacity` items (rounded up to a
/// power of two, minimum 2).
#[must_use]
pub fn ring<T>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots: Box<[SlotCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| SlotCell::new(MaybeUninit::uninit())).collect();
    let inner = Arc::new(Inner {
        mask: cap - 1,
        slots,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        producer_closed: AtomicBool::new(false),
        consumer_closed: AtomicBool::new(false),
        final_tail: AtomicUsize::new(0),
        final_set: AtomicBool::new(false),
    });
    (
        RingProducer { inner: Arc::clone(&inner), tail: 0, head_cache: 0 },
        RingConsumer { inner, head: 0, bound: None },
    )
}

impl<T> RingProducer<T> {
    /// Attempts to enqueue `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when no slot is free, [`PushError::Closed`]
    /// when the consumer closed the ring (see the drain handshake in the
    /// module docs for which side keeps the item).
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        let inner = &*self.inner;
        if inner.consumer_closed.load(Ordering::SeqCst) {
            return Err(PushError::Closed(Some(item)));
        }
        let cap = inner.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) == cap {
            self.head_cache = inner.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return Err(PushError::Full(item));
            }
        }
        inner.slots[self.tail & inner.mask].with_mut(|p| unsafe { (*p).write(item) });
        let published = self.tail;
        self.tail = self.tail.wrapping_add(1);
        inner.tail.0.store(self.tail, Ordering::SeqCst);
        if inner.consumer_closed.load(Ordering::SeqCst) {
            // Close raced this push: resolve via the consumer's final
            // bound (published right after the flag; bounded wait).
            while !inner.final_set.load(Ordering::Acquire) {
                spin_hint();
            }
            // Only this push can be in flight, so the consumer's bound is
            // either at our slot (orphaned) or one past it (drained).
            let fin = inner.final_tail.load(Ordering::Acquire);
            if fin.wrapping_sub(published) != 0 {
                return Ok(());
            }
            return Err(PushError::Closed(None));
        }
        Ok(())
    }

    /// Items currently enqueued (occupancy telemetry; racy by nature).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.inner.head.0.load(Ordering::Relaxed))
    }

    /// Whether a push would not come back [`PushError::Full`]: a slot is
    /// free or the consumer closed the ring (racy by nature; a producer
    /// about to park re-checks with it).
    #[must_use]
    pub(crate) fn has_room(&self) -> bool {
        let inner = &*self.inner;
        inner.consumer_closed.load(Ordering::SeqCst)
            || self.tail.wrapping_sub(inner.head.0.load(Ordering::Acquire)) <= inner.mask
    }

    /// Whether the ring is currently empty (racy by nature).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }
}

impl<T> Drop for RingProducer<T> {
    fn drop(&mut self) {
        self.inner.producer_closed.store(true, Ordering::SeqCst);
    }
}

impl<T> RingConsumer<T> {
    /// Dequeues the next item, or `None` when the ring is empty (or the
    /// close bound was reached).
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        if let Some(bound) = self.bound {
            if self.head == bound {
                return None;
            }
        }
        let tail = inner.tail.0.load(Ordering::Acquire);
        if self.head == tail {
            return None;
        }
        let item =
            inner.slots[self.head & inner.mask].with_mut(|p| unsafe { (*p).assume_init_read() });
        self.head = self.head.wrapping_add(1);
        inner.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Items currently enqueued, as the consumer sees them (racy by
    /// nature: the producer may publish more at any time).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.inner.tail.0.load(Ordering::Acquire).wrapping_sub(self.head)
    }

    /// Slot capacity of the ring.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Whether the producing side was dropped (no more items will come).
    #[must_use]
    pub fn producer_closed(&self) -> bool {
        self.inner.producer_closed.load(Ordering::Acquire)
    }

    /// Whether every item this consumer will ever pop has been popped:
    /// up to the close bound after [`RingConsumer::close`] (an orphaned
    /// close-race push past the bound does not count), otherwise
    /// everything published so far (exact on the consumer thread once
    /// `producer_closed` is observed).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        match self.bound {
            Some(bound) => self.head == bound,
            None => self.head == self.inner.tail.0.load(Ordering::Acquire),
        }
    }

    /// Closes the ring for the drain handshake: rejects future pushes and
    /// fixes the final index this consumer will pop up to. Idempotent.
    /// Call, then keep popping until `None` — that final sweep is what
    /// makes shutdown packet-exact.
    pub fn close(&mut self) {
        if self.bound.is_some() {
            return;
        }
        let inner = &*self.inner;
        inner.consumer_closed.store(true, Ordering::SeqCst);
        let fin = inner.tail.0.load(Ordering::SeqCst);
        inner.final_tail.store(fin, Ordering::Release);
        inner.final_set.store(true, Ordering::SeqCst);
        self.bound = Some(fin);
    }
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        // A consumer dropped without `close` (worker unwind) must still
        // unblock a producer waiting in the late-push handshake.
        self.close();
    }
}

fn spin_hint() {
    #[cfg(loom)]
    loom::hint::spin_loop();
    #[cfg(not(loom))]
    std::hint::spin_loop();
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = ring::<u32>(3); // rounds up to 4
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(matches!(tx.push(99), Err(PushError::Full(99))));
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
        // Freed slots are reusable.
        tx.push(7).unwrap();
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    fn both_sides_see_the_occupancy_and_a_close_makes_room() {
        let (mut tx, mut rx) = ring::<u8>(4);
        assert_eq!(rx.capacity(), 4);
        for i in 0..4 {
            assert!(tx.has_room());
            tx.push(i).unwrap();
            assert_eq!(rx.len(), usize::from(i) + 1);
        }
        assert!(!tx.has_room(), "a full ring has no room");
        assert_eq!(rx.pop(), Some(0));
        assert_eq!((rx.len(), tx.len()), (3, 3));
        assert!(tx.has_room());
        tx.push(4).unwrap();
        rx.close();
        assert!(tx.has_room(), "a closed ring takes no push, so nothing waits for room");
    }

    #[test]
    fn producer_drop_is_visible() {
        let (tx, rx) = ring::<u8>(2);
        assert!(!rx.producer_closed());
        drop(tx);
        assert!(rx.producer_closed());
        assert!(rx.is_drained());
    }

    #[test]
    fn close_rejects_pushes_and_bounds_pops() {
        let (mut tx, mut rx) = ring::<u8>(4);
        tx.push(1).unwrap();
        rx.close();
        match tx.push(2) {
            Err(PushError::Closed(Some(2))) => {}
            other => panic!("expected early-closed rejection, got {other:?}"),
        }
        // The pre-close item is inside the bound and must drain.
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn close_then_sweep_reports_drained() {
        let (mut tx, mut rx) = ring::<u8>(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        rx.close();
        assert!(!rx.is_drained());
        while rx.pop().is_some() {}
        assert!(rx.is_drained(), "after the close sweep the bound is reached");
    }

    #[test]
    fn drops_in_flight_items_without_leaking() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = ring::<D>(4);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        drop(rx);
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn threaded_transfer_is_lossless() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        let consumer = thread::spawn(move || {
            let mut sum = 0u64;
            let mut seen = 0u64;
            let mut expect = 0u64;
            while seen < N {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, expect, "FIFO order violated");
                    expect += 1;
                    sum += v;
                    seen += 1;
                } else {
                    thread::yield_now();
                }
            }
            sum
        });
        for i in 0..N {
            let mut item = i;
            loop {
                match tx.push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        thread::yield_now();
                    }
                    Err(e) => panic!("unexpected close: {e:?}"),
                }
            }
        }
        assert_eq!(consumer.join().unwrap(), N * (N - 1) / 2);
    }

    #[test]
    fn close_race_accounts_every_item_exactly_once() {
        // Hammer the drain handshake: however close races the pushes,
        // (items the producer counted Ok) == (items the consumer popped).
        for round in 0..200 {
            let (mut tx, mut rx) = ring::<u64>(4);
            let consumer = thread::spawn(move || {
                let mut popped = 0u64;
                // Drain a random-ish prefix, then close mid-stream.
                for _ in 0..(round % 5) {
                    if rx.pop().is_some() {
                        popped += 1;
                    }
                }
                rx.close();
                while rx.pop().is_some() {
                    popped += 1;
                }
                popped
            });
            let mut ok = 0u64;
            for i in 0..64u64 {
                let mut item = i;
                match loop {
                    match tx.push(item) {
                        Ok(()) => break Ok(()),
                        Err(PushError::Full(back)) => {
                            item = back;
                            thread::yield_now();
                        }
                        Err(e) => break Err(e),
                    }
                } {
                    Ok(()) => ok += 1,
                    Err(_) => break,
                }
            }
            let popped = consumer.join().unwrap();
            assert_eq!(ok, popped, "round {round}: producer Ok count must equal consumer pops");
        }
    }
}
