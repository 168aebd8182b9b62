//! Property tests: the WSAF table behaves like a map as long as nothing is
//! evicted, and never corrupts state under arbitrary workloads.

use instameasure_packet::{FlowKey, Protocol};
use instameasure_wsaf::{AccumulateOutcome, FlowEntry, WsafConfig, WsafTable};
use proptest::prelude::*;
use std::collections::HashMap;

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i.rotate_left(13)).to_be_bytes(), 1, 2, Protocol::Udp)
}

/// Flows the clear-versus-fresh ops draw from: few enough that the two
/// op lists share keys, many enough to overflow a 16-slot table.
const FLOWS: u32 = 40;

/// One table operation; `dt` advances the clock before it runs.
#[derive(Debug, Clone)]
enum Op {
    Accumulate { flow: u32, pkts: f64, dt: u64 },
    Remove { flow: u32 },
    Sweep { dt: u64 },
}

/// What one [`Op`] returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Accumulated(AccumulateOutcome),
    Removed(Option<FlowEntry>),
    Swept(usize),
}

/// Six accumulates to two removes to one sweep.
fn op() -> impl Strategy<Value = Op> {
    (0u8..9, 0..FLOWS, 0.5f64..50.0, 0u64..20).prop_map(|(kind, flow, pkts, dt)| match kind {
        0..=5 => Op::Accumulate { flow, pkts, dt },
        6 | 7 => Op::Remove { flow },
        _ => Op::Sweep { dt: dt * 3 },
    })
}

/// A top-k metric: half the draws come from four values, so ranks tie.
fn metric() -> impl Strategy<Value = f64> {
    (0usize..8, 1.0f64..1e6).prop_map(|(i, x)| [1.0, 2.0, 64.0, 1e6].get(i).copied().unwrap_or(x))
}

/// Runs `ops` with the clock starting at `now`; returns every outcome and
/// the clock after the last op.
fn replay(table: &mut WsafTable, ops: &[Op], mut now: u64) -> (Vec<Outcome>, u64) {
    let outcomes = ops
        .iter()
        .map(|op| match *op {
            Op::Accumulate { flow, pkts, dt } => {
                now += dt;
                Outcome::Accumulated(table.accumulate(&key(flow), pkts, pkts * 64.0, now))
            }
            Op::Remove { flow } => Outcome::Removed(table.remove(&key(flow))),
            Op::Sweep { dt } => {
                now += dt;
                Outcome::Swept(table.sweep_expired(now))
            }
        })
        .collect();
    (outcomes, now)
}

proptest! {
    #[test]
    fn matches_model_hashmap_without_eviction(
        ops in prop::collection::vec((0u32..500, 0.1f64..100.0, 0.1f64..10_000.0), 1..800),
    ) {
        // Roomy table + distinct flows well below capacity: no eviction
        // can occur, so the table must agree exactly with a HashMap.
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(14)
                .probe_limit(32)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
        let mut model: HashMap<u32, (f64, f64)> = HashMap::new();
        for (t, (i, pkts, bytes)) in ops.iter().enumerate() {
            let out = table.accumulate(&key(*i), *pkts, *bytes, t as u64);
            prop_assert!(matches!(
                out,
                AccumulateOutcome::Inserted | AccumulateOutcome::Updated
            ));
            let e = model.entry(*i).or_insert((0.0, 0.0));
            e.0 += pkts;
            e.1 += bytes;
        }
        prop_assert_eq!(table.len(), model.len());
        for (i, (pkts, bytes)) in &model {
            let entry = table.get(&key(*i)).unwrap();
            prop_assert!((entry.packets - pkts).abs() < 1e-6);
            prop_assert!((entry.bytes - bytes).abs() < 1e-6);
        }
    }

    #[test]
    fn len_is_always_consistent_under_churn(
        ops in prop::collection::vec((0u32..5000, prop::bool::ANY), 1..1500),
    ) {
        // Tiny table forces constant eviction; the live count must always
        // equal the number of occupied slots and never exceed capacity.
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(4)
                .probe_limit(8)
                .expiry_nanos(100)
                .build()
                .unwrap(),
        );
        for (t, (i, remove)) in ops.iter().enumerate() {
            if *remove {
                table.remove(&key(*i));
            } else {
                table.accumulate(&key(*i), 1.0, 64.0, t as u64);
            }
            prop_assert!(table.len() <= 16);
            prop_assert_eq!(table.len(), table.iter().count());
        }
    }

    #[test]
    fn eviction_conserves_or_shrinks_population(
        flows in prop::collection::vec(0u32..100_000, 50..300),
    ) {
        let mut table = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(5)
                .probe_limit(16)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
        let mut inserted = 0usize;
        let mut re_evictions = 0usize;
        for (t, i) in flows.iter().enumerate() {
            if matches!(
                table.accumulate(&key(*i), 1.0, 1.0, t as u64),
                AccumulateOutcome::Inserted | AccumulateOutcome::InsertedAfterEviction { .. }
            ) {
                inserted += 1;
            }
            // Re-accumulating a key that was just inserted must be an
            // update, never an eviction.
            if matches!(
                table.accumulate(&key(*i), 0.0, 0.0, t as u64),
                AccumulateOutcome::InsertedAfterEviction { .. }
            ) {
                re_evictions += 1;
            }
        }
        prop_assert_eq!(re_evictions, 0);
        prop_assert!(table.len() <= 32);
        prop_assert!(inserted >= table.len());
    }

    #[test]
    fn top_k_is_sorted_and_bounded(
        entries in prop::collection::vec((0u32..1000, metric(), metric()), 1..200),
    ) {
        let mut table = WsafTable::new(
            WsafConfig::builder().entries_log2(12).probe_limit(32).build().unwrap(),
        );
        for (i, p, b) in &entries {
            table.accumulate(&key(*i), *p, *b, 0);
        }
        // Entry for entry, ties included, both rankings equal a stable sort
        // of the ascending-slot walk cut to `k`, for every `k` from 0 to
        // past the table's length.
        let stable_sorted = |metric: fn(&FlowEntry) -> f64| {
            let mut all: Vec<FlowEntry> = table.iter().copied().collect();
            all.sort_by(|a, b| metric(b).total_cmp(&metric(a)));
            all
        };
        let (by_packets, by_bytes) = (stable_sorted(|e| e.packets), stable_sorted(|e| e.bytes));
        for k in 0..=table.len() + 1 {
            let top = table.top_k_by_packets(k);
            prop_assert!(top.len() <= k);
            for pair in top.windows(2) {
                prop_assert!(pair[0].packets >= pair[1].packets);
            }
            // The head of the list is the true maximum over the table.
            if let Some(head) = top.first() {
                let max = table.iter().map(|e| e.packets).fold(0.0, f64::max);
                prop_assert_eq!(head.packets, max);
            }
            prop_assert_eq!(&top[..], &by_packets[..k.min(table.len())]);
            prop_assert_eq!(&table.top_k_by_bytes(k)[..], &by_bytes[..k.min(table.len())]);
        }
    }

    #[test]
    fn a_cleared_table_replays_like_a_fresh_one(
        a in prop::collection::vec(op(), 0..300),
        b in prop::collection::vec(op(), 1..300),
    ) {
        // `clear` zeroes only the occupancy bitmap, so A leaves stale entry
        // bytes behind. B must not be able to tell: 16 slots and a short
        // expiry make B cross inserts, updates, GC reclaims, evictions,
        // removals and sweeps over the slots A dirtied.
        let table = || {
            WsafTable::new(
                WsafConfig::builder()
                    .entries_log2(4)
                    .probe_limit(8)
                    .expiry_nanos(50)
                    .build()
                    .unwrap(),
            )
        };
        let mut cleared = table();
        let (_, end_of_a) = replay(&mut cleared, &a, 0);
        cleared.clear();
        let mut fresh = table();

        let (got, _) = replay(&mut cleared, &b, end_of_a);
        let (want, _) = replay(&mut fresh, &b, end_of_a);
        prop_assert_eq!(got, want);
        prop_assert_eq!(cleared.stats(), fresh.stats());
        prop_assert_eq!(cleared.iter().collect::<Vec<_>>(), fresh.iter().collect::<Vec<_>>());
        prop_assert_eq!(cleared.top_k_by_packets(16), fresh.top_k_by_packets(16));
        // Every key A or B can name.
        for flow in 0..FLOWS {
            prop_assert_eq!(cleared.get(&key(flow)), fresh.get(&key(flow)), "flow {}", flow);
        }
    }
}
