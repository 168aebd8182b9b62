//! Model checks for the SPSC batch ring ([`instameasure_core::ring`])
//! under `--cfg loom`. The engine's other shared structures (lane
//! registration and the per-shard control mailbox) are `Mutex`-ordered
//! queues; the workspace's `tests/service_lockfree.rs` is their ordering
//! oracle.
//!
//! Built and run only as
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p instameasure-core --test loom_model --release
//! ```
//!
//! which swaps the ring's atomics and cells for `loom`'s modeled
//! types (the workspace ships a schedule-perturbing shim in `shims/loom`
//! with the same API, so the check runs in the offline container; a
//! real `loom` crate drops in with no source change). Each `model`
//! closure is executed across many explored/perturbed interleavings;
//! assertions hold in all of them.
#![cfg(loom)]

use instameasure_core::ring::{ring, PushError};
use loom::thread;

/// FIFO transfer: everything pushed is popped exactly once, in order,
/// across every interleaving of producer and consumer.
#[test]
fn ring_transfers_in_order_without_loss() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let mut sent = 0u32;
            while sent < 3 {
                match tx.push(sent) {
                    Ok(()) => sent += 1,
                    Err(PushError::Full(_)) => thread::yield_now(),
                    Err(PushError::Closed(_)) => unreachable!("consumer never closes here"),
                }
            }
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            match rx.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2], "SPSC ring must be lossless FIFO");
    });
}

/// The close/drain handshake accounts every item to exactly one side:
/// an `Ok` push is always popped by the closing consumer's bounded
/// drain; a `Closed` push never is. No loss, no double count.
#[test]
fn ring_close_handshake_accounts_every_item_exactly_once() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let mut accepted = 0u32;
            for v in 0..2u32 {
                match tx.push(v) {
                    Ok(()) => accepted += 1,
                    Err(PushError::Full(_)) | Err(PushError::Closed(_)) => break,
                }
            }
            accepted
        });
        // Race the close against the pushes, then drain to the bound the
        // handshake published.
        rx.close();
        let mut drained = 0u32;
        while !rx.is_drained() {
            if rx.pop().is_some() {
                drained += 1;
            } else {
                thread::yield_now();
            }
        }
        let accepted = producer.join().unwrap();
        assert_eq!(
            drained, accepted,
            "every Ok push must be drained; every Closed push must not be"
        );
    });
}

/// Producer drop is a close from the other side: the consumer drains
/// exactly what was pushed, then observes `producer_closed`.
#[test]
fn ring_reaps_a_dropped_producer() {
    loom::model(|| {
        let (mut tx, mut rx) = ring::<u32>(2);
        let producer = thread::spawn(move || {
            let pushed = u32::from(tx.push(7).is_ok());
            drop(tx);
            pushed
        });
        let mut got = 0u32;
        loop {
            if rx.pop().is_some() {
                got += 1;
            } else if rx.producer_closed() {
                // One final sweep: close-then-drain may still find the
                // item published just before the producer flag.
                while rx.pop().is_some() {
                    got += 1;
                }
                break;
            } else {
                thread::yield_now();
            }
        }
        assert_eq!(got, producer.join().unwrap());
    });
}
