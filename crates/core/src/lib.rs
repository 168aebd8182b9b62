//! The InstaMeasure per-flow measurement system (ICDCS 2019).
//!
//! This crate assembles the substrates into the system the paper deploys:
//!
//! * [`InstaMeasure`] — the single-core pipeline: packets flow through a
//!   [`instameasure_sketch::FlowRegulator`] whose saturation events are
//!   accumulated into an in-DRAM [`instameasure_wsaf::WsafTable`]. Queries
//!   combine the WSAF counters with the sketch residual.
//! * [`engine`] — the sharded runtime of paper Fig. 5: one thread per
//!   shard owns an exclusive FlowRegulator and WSAF shard, ingest lanes
//!   route packets by the popcount of the source address into lock-free
//!   SPSC [`ring`]s in recycled batches, and queries run inside the owning
//!   shard. The `serve` daemon and every offline replay run on it.
//! * [`multicore`] — the offline face of that runtime: replay a finite
//!   packet stream through one lane of a fresh engine and keep the drained
//!   shards, with a per-run report.
//! * [`heavy_hitter`] — threshold detection over the WSAF, in packets and
//!   in bytes, with false-positive/negative evaluation (Fig. 14).
//! * [`latency`] — the three decoding disciplines of §II (packet-arrival,
//!   saturation-based, delegation-based) raced against each other for the
//!   detection-delay experiment (Fig. 9b).
//! * [`metrics`] — relative-error buckets, standard error, Top-K recall.
//! * [`apps`] — entropy, super-spreader and DDoS-victim detection over
//!   the WSAF's flow samples (the applications §III-B keeps mice for).
//! * [`detect`] — the streaming form of those applications: mergeable
//!   per-epoch feature summaries and epoch-windowed [`detect::Detector`]s
//!   (entropy shift, super-spreader, DDoS victim, heavy change) the live
//!   service runs at every rotation.
//! * [`export`] — NetFlow-style flow-record drain and binary codec.
//! * [`windowed`] — rotating measurement windows with per-epoch Top-K
//!   reports (the paper's 10-minute update mode).
//! * [`collector`] — the conventional delegation architecture (sketch
//!   shipped to a remote collector each epoch), priced in latency and bytes.
//! * [`planner`] — picks (vector size, layer count) for a link's rate and
//!   WSAF memory technology using the exact chain model (§V-B's margin
//!   remark, operationalized).
//!
//! # Example
//!
//! ```
//! use instameasure_core::{InstaMeasure, InstaMeasureConfig};
//! use instameasure_packet::{FlowKey, PacketRecord, Protocol};
//!
//! let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
//! let key = FlowKey::new([10, 0, 0, 1], [10, 0, 0, 2], 4242, 80, Protocol::Tcp);
//! for t in 0..50_000u64 {
//!     im.process(&PacketRecord::new(key, 1000, t));
//! }
//! let est = im.estimate_packets(&key);
//! assert!((est - 50_000.0).abs() / 50_000.0 < 0.15, "{est}");
//! ```

// `deny` rather than `forbid`: the SPSC ring (slot cells behind atomics)
// and the affinity module (one raw sched_setaffinity binding) are the
// only `#[allow(unsafe_code)]`s.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod apps;
pub mod collector;
pub mod detect;
pub mod engine;
pub mod export;
pub mod heavy_hitter;
pub mod ingest;
pub mod latency;
pub mod metrics;
pub mod multicore;
pub mod planner;
pub mod ring;
mod system;
pub mod windowed;

pub use system::{
    InstaMeasure, InstaMeasureConfig, InstaMeasureConfigBuilder, InstaMeasureConfigError,
};
