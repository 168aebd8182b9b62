//! The WSAF table — InstaMeasure's in-DRAM *working set of active flows*.
//!
//! A [`WsafTable`] is an open-addressing hash table sized for millions of
//! entries (the paper uses 2²⁰ ≈ 33 MB of DRAM). It differs from a
//! general-purpose map in three paper-specific ways (§III-B, Fig. 2b):
//!
//! * **Probe-limited** — every operation touches at most `probe_limit`
//!   slots, bounding the per-update DRAM cost; a flow either lives inside
//!   its probe window or not at all.
//! * **Triangular quadratic probing** — `h(k,i) = h(k) + (i + i²)/2 mod m`
//!   with `m = 2ⁿ` visits *every* slot over a full cycle (the paper's
//!   "specific parameters for probing all table positions"), so high load
//!   factors stay reachable.
//! * **Second-chance replacement with garbage collection** — when a probe
//!   window is full, expired entries are reclaimed first; otherwise
//!   reference bits are cleared as the window is scanned and the
//!   least-significant (fewest packets) unreferenced entry is evicted —
//!   mice flows that leaked through the FlowRegulator are pushed out,
//!   elephants stay.
//!
//! # Layout
//!
//! The slots are a plain array of 56-byte [`FlowEntry`] values beside an
//! occupancy bitmap, one bit per slot (128 KB at 2²⁰ slots). The bitmap
//! is the only record of which slots are live, and the bytes of a slot
//! whose bit is clear are never read. So:
//!
//! * an accumulate, lookup or removal costs O(probe window): each probe
//!   tests the slot's bit before it touches the entry, and an empty slot
//!   costs no DRAM access;
//! * [`WsafTable::iter`], [`WsafTable::sweep_expired`] and everything
//!   built on them (per-epoch feature capture, flow export) walk the set
//!   bits in ascending slot order and cost O(live flows) plus one word
//!   read per 64 slots;
//! * top-k ([`WsafTable::top_k_by_packets`], [`WsafTable::top_k_by_bytes`])
//!   reads none of the arena but its winners: the table keeps one
//!   contiguous 24-byte row (packets, bytes, slot) per live entry beside
//!   it, kept in step by every path that writes a live entry, and ranks
//!   those rows in one sequential pass;
//! * [`WsafTable::clear`] zeroes the bitmap alone;
//! * [`WsafTable::new`] writes no slot: the slots come from one zeroed
//!   allocation, so a 2²⁰-slot table reserves its 56 MB of address space
//!   but holds resident memory only for the pages its inserts have
//!   written.
//!
//! # Example
//!
//! ```
//! use instameasure_packet::{FlowKey, Protocol};
//! use instameasure_wsaf::{WsafConfig, WsafTable};
//!
//! let mut table = WsafTable::new(WsafConfig::builder().entries_log2(10).build()?);
//! let key = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 80, 443, Protocol::Tcp);
//! table.accumulate(&key, 7.0, 7.0 * 1500.0, 1_000);
//! table.accumulate(&key, 9.5, 9.5 * 64.0, 2_000);
//! let entry = table.get(&key).unwrap();
//! assert!((entry.packets - 16.5).abs() < 1e-9);
//! # Ok::<(), instameasure_wsaf::WsafConfigError>(())
//! ```

// `deny` rather than `forbid`: the zeroed allocation of the slot arena
// carries the crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod table;

pub use config::{EvictionPolicy, WsafConfig, WsafConfigBuilder, WsafConfigError};
pub use table::{
    triangular_probe_slot, AccumulateOutcome, FlowEntry, WsafDeposit, WsafStats, WsafTable,
};
