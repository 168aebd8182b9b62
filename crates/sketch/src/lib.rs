//! Front-end flow filters for InstaMeasure.
//!
//! The pipeline's front end is pluggable behind the [`FlowFilter`] trait:
//! feed packets in, get occasional [`FlowUpdate`]s out, and query the
//! *residual* (packets still retained in the filter) at any time. Four
//! designs live here, named by [`FilterKind`] and all sized against one
//! shared memory budget (see [`FilterKind::build`]):
//!
//! * [`Rcc`] — the *Recyclable Counter with Confinement* of Nyang & Shin
//!   (IEEE/ACM ToN 2016), the building block and single-layer baseline. A
//!   flow owns a *virtual vector* of `b` bit positions confined inside one
//!   machine word; each packet sets one randomly chosen position; when few
//!   enough zeros remain the vector **saturates**: its contents are decoded
//!   online (noise-corrected) and the vector is cleared for reuse.
//!   [`SingleLayerRcc`] wraps it as a filter.
//! * [`FlowRegulator`] — the paper's contribution: a two-layer arrangement
//!   in which each bit of a layer-2 RCC encodes one *saturation* of the
//!   layer-1 RCC. Retention capacity therefore grows multiplicatively
//!   (`decode(L1) × decode(L2)`), which is what lets the regulator shrink
//!   the WSAF insertion rate to ~1% of the packet rate (paper Fig. 7)
//!   while still counting accurately. [`MultiLayerRegulator`] generalizes
//!   it to `L` layers.
//! * [`SwingFilter`] — an exact-counting alternate: a fingerprint stage in
//!   front of a keyed store, split 1/3 filter – 2/3 store.
//! * [`HashFlowFilter`] — HashFlow's multi-way main table plus ancillary
//!   table with promotion, exporting evicted records as updates.
//!
//! # Example
//!
//! ```
//! use instameasure_packet::{FlowKey, PacketRecord, Protocol};
//! use instameasure_sketch::{FlowFilter, FlowRegulator, SketchConfig};
//!
//! let cfg = SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build()?;
//! let mut fr = FlowRegulator::new(cfg);
//! let key = FlowKey::new([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80, Protocol::Tcp);
//!
//! let mut accumulated = 0.0;
//! for i in 0..100_000u64 {
//!     if let Some(update) = fr.process(&PacketRecord::new(key, 1000, i)) {
//!         accumulated += update.est_pkts;
//!     }
//! }
//! let total = accumulated + fr.residual_packets(&key);
//! let err = (total - 100_000.0).abs() / 100_000.0;
//! assert!(err < 0.15, "estimate {total} too far from 100000");
//! # Ok::<(), instameasure_sketch::ConfigError>(())
//! ```

// `deny` rather than `forbid`: the simd module's AVX2 placement kernel
// (`target_feature` functions, no raw pointers) carries the crate's only
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
pub mod decode;
mod filter;
mod flow_regulator;
mod hashflow;
mod multi_layer;
mod rcc;
mod regulator;
#[allow(unsafe_code)]
mod simd;
mod swing;

pub use config::{ConfigError, SketchConfig, SketchConfigBuilder};
pub use filter::{
    AnyFilter, FilterKind, FilterStats, FlowFilter, FlowUpdate, UnknownFilterError,
    ALL_FILTER_KINDS,
};
pub use flow_regulator::{FlowRegulator, FlowRegulatorOptions};
pub use hashflow::HashFlowFilter;
pub use multi_layer::MultiLayerRegulator;
pub use rcc::{Rcc, SaturationEvent};
pub use swing::SwingFilter;

pub use regulator::SingleLayerRcc;
