//! Live measurement service for the InstaMeasure pipeline.
//!
//! The paper's headline property is *online* operation: queries are
//! answered from the in-DRAM WSAF in milliseconds, not shipped to a
//! remote collector and answered next epoch. Everything before this
//! crate replayed finite pcap files; this crate is the long-running
//! network-facing daemon that the ROADMAP's "production-scale system"
//! needs:
//!
//! * [`wire`] — the length-prefixed binary protocol: framed
//!   [`instameasure_packet::PacketRecord`] batches from remote taps, and
//!   a query/control vocabulary (flow lookup, top-K, status, telemetry,
//!   epoch rotate, shutdown), every malformed input mapped to a
//!   classified [`wire::WireError`], never a panic.
//! * [`engine`] — the sharded runtime this daemon serves from,
//!   re-exported from [`instameasure_core::engine`]: popcount-sharded
//!   *thread-per-shard* workers that own their WSAF shard outright, fed
//!   through lock-free SPSC rings with recycled batch buffers, online
//!   queries answered by the owning worker from its live state at a batch
//!   boundary (ingest never stops), and drain with packet-exact
//!   accounting.
//! * [`server`] — the TCP daemon: accept loop, per-connection handlers
//!   with idle timeouts and per-class reject telemetry, graceful
//!   drain-on-shutdown.
//! * [`client`] — what taps and operator tools link against; also the
//!   engine under the `instameasure push` / `instameasure query` CLI.
//! * [`detect`] — streaming anomaly detection at epoch rotation:
//!   per-shard [`instameasure_core::detect::EpochFeatures`] captured by
//!   each worker before its reset and merged exactly, the detector suite
//!   run over consecutive epochs, and verdicts pushed as unsolicited
//!   [`wire::Response::Alert`] frames to subscribed connections, with
//!   the rotation→alert time measured in `detect.alert_latency`.
//! * [`tune`] — auto-tuning state for `serve --auto-tune` daemons: the
//!   machine-profiled boot plan served over
//!   [`wire::Request::QueryPlan`], re-solved at every epoch rotation
//!   against the flow sizes the closed epoch observed, with drift
//!   surfaced through `tune.*` telemetry.
//!
//! # Example
//!
//! ```
//! use instameasure_service::client::ServiceClient;
//! use instameasure_service::server::{Server, ServiceConfig};
//! use instameasure_core::InstaMeasureConfig;
//! use instameasure_packet::{FlowKey, PacketRecord, Protocol};
//!
//! let cfg = ServiceConfig::builder()
//!     .workers(2)
//!     .per_worker(InstaMeasureConfig::default().small_for_tests())
//!     .build()?;
//! let server = Server::start(cfg)?;
//!
//! let mut tap = ServiceClient::connect(server.local_addr())?;
//! let key = FlowKey::new([10, 0, 0, 1], [10, 0, 0, 2], 4242, 80, Protocol::Tcp);
//! let trace: Vec<PacketRecord> =
//!     (0..5000).map(|t| PacketRecord::new(key, 1000, t)).collect();
//! let accepted = tap.push_records(&trace)?;
//! assert_eq!(accepted, 5000);
//!
//! let mut ops = ServiceClient::connect(server.local_addr())?;
//! let final_report = ops.shutdown()?;
//! assert_eq!(final_report.packets_processed, 5000);
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod detect;
#[doc(hidden)]
pub mod fuzzing;
pub mod server;
pub mod tune;
pub mod wire;

pub use client::{ClientError, ServiceClient};
pub use detect::{AlertHub, DetectionConfig, DetectionRuntime, EpochVerdict};
pub use instameasure_core::engine;
pub use instameasure_core::engine::{DrainReport, Engine, EngineConfig, IngestLane};
pub use server::{Server, ServiceConfig, ServiceConfigBuilder, ServiceConfigError};
pub use tune::{TuneRuntime, TuneState};
pub use wire::{PlanReport, Request, Response, StatusReport, TopFlow, WireError};
