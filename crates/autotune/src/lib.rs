//! Machine-profiled auto-tuning for the InstaMeasure pipeline.
//!
//! The paper's feasibility argument (§II, Fig. 7) is an arithmetic over
//! memory latencies: the regulator must throttle WSAF insertions below
//! what DRAM's random access can absorb. Everywhere else in the workspace
//! that arithmetic runs on *paper constants* (80 ns DRAM, 5 ns SRAM).
//! This crate closes the loop with three layers:
//!
//! * [`calibrate`] — a startup microbenchmark suite that measures **this
//!   host**: effective random-access latency across working-set sizes
//!   (a pointer chase from 32 KB up to 1 GB traces the L1/L2/L3/DRAM
//!   cliffs), [`instameasure_packet::FlowDigest`] hash throughput, and
//!   the sequential-vs-random stride gap.
//! * [`profile`] — the serializable [`MachineProfile`] the calibrator
//!   produces: a latency-vs-working-set curve plus `hash_ns`/`seq_ns`,
//!   cached to disk so the daemon does not re-chase pointers on every
//!   boot ([`MachineProfile::default_cache_path`]), with
//!   [`MachineProfile::paper`] as the deterministic golden fixture.
//! * [`solver`] — the profile-driven configuration search: given a
//!   [`TuneRequest`] (an operator-stated `(epsilon, delta)` accuracy
//!   target or a pps budget) and a workload flow-size sample, it walks
//!   vector bits × regulator depth × WSAF capacity with the exact
//!   saturation chain model and returns the cheapest [`TunePlan`] whose
//!   predicted regulation fits the *measured* memory at the requested
//!   margin. It searches only the depths the pipeline runs (1 = `rcc`,
//!   2 = `regulator`; accuracy targets depth 1 only, where replays
//!   confirm the error model), so every plan boots the cascade it was
//!   priced on. A one-point [`MachineProfile`] prices a fixed memory
//!   technology instead of a calibrated host.
//!
//! Set [`TUNE_SMOKE_ENV`] (`INSTAMEASURE_TUNE_SMOKE=1`) to bound the
//! calibrator to a CI-sized sweep; set [`PROFILE_PATH_ENV`]
//! (`INSTAMEASURE_PROFILE`) to relocate the on-disk profile cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod profile;
pub mod solver;

pub use calibrate::{calibrate, CalibrationOptions};
pub use profile::{LatencyPoint, MachineProfile, ProfileError};
pub use solver::{measured_epsilon, replay, solve, zipf_sizes, TunePlan, TuneRequest, TuneTarget};

/// Environment variable that switches the calibrator to its fast bounded
/// smoke mode (any value other than `0` enables it).
pub const TUNE_SMOKE_ENV: &str = "INSTAMEASURE_TUNE_SMOKE";

/// Environment variable overriding the on-disk machine-profile cache path.
pub const PROFILE_PATH_ENV: &str = "INSTAMEASURE_PROFILE";
