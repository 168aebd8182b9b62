//! The length-prefixed binary wire protocol of the live service.
//!
//! Every message on the socket — ingest and query alike, in both
//! directions — is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "IMSW" (0x49 0x4D 0x53 0x57)
//! 4       1     opcode (see [`Opcode`])
//! 5       4     payload length, big-endian u32
//! 9       len   payload
//! ```
//!
//! The decoder is written for untrusted peers: a frame with a bad magic,
//! an unknown opcode, an oversized length prefix or a payload that does
//! not parse yields a classified [`WireError`] — never a panic and never
//! an unbounded allocation (the payload buffer is only reserved after the
//! length passed the `max_payload` check). Connections that stop mid-frame
//! are reported as truncation, distinguished from a clean end-of-stream at
//! a frame boundary ([`read_frame`] returns `Ok(None)`).
//!
//! Request opcodes occupy `0x01..=0x7F`; each response reuses its
//! request's opcode with the high bit set, so a reply can be matched
//! without a correlation id (the protocol is strictly request/response
//! per connection, except ingest batches which are unacknowledged until
//! [`Request::IngestFin`], and [`Opcode::Alert`] frames, which the
//! server pushes unsolicited to connections that sent
//! [`Request::Subscribe`]).
//!
//! Ingest frames, the protocol's bulk traffic, have one codec:
//! `encode_ingest_frame` encodes a borrowed record slice into a
//! caller-reused buffer, `read_frame_into` reads any frame into a
//! caller-reused buffer, and `decode_ingest_payload` validates a payload
//! and decodes its records lazily. [`Request::encode`], [`read_frame`] and
//! [`Request::decode`] delegate to them, so the client's and server's
//! copy-free path and the owned [`Frame`] path produce the same bytes and
//! records.

use std::io::{Read, Write};

use instameasure_core::detect::{Anomaly, AnomalyKind, Subject};
pub use instameasure_core::engine::TopFlow;
use instameasure_packet::{FlowKey, PacketRecord};

/// Frame magic: `"IMSW"` — **I**nsta**M**easure **S**ervice **W**ire.
pub const MAGIC: [u8; 4] = *b"IMSW";

/// Bytes in a frame header (magic + opcode + payload length).
pub const HEADER_BYTES: usize = 9;

/// Default ceiling on a frame payload (1 MiB ≈ 45 k packet records);
/// larger length prefixes are rejected before any allocation.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

/// Largest `k` a [`Request::QueryTopK`] may ask for — bounds the reply
/// frame and the per-shard merge work a single query can demand.
pub const MAX_TOP_K: u32 = 65_536;

/// Frame opcodes. Requests are `0x01..=0x7F`; responses set the high bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// A batch of [`PacketRecord`]s from a tap (unacknowledged).
    IngestBatch = 0x01,
    /// End of an ingest stream; the server acks with [`Opcode::FinAck`].
    IngestFin = 0x02,
    /// Per-flow lookup by 5-tuple.
    QueryFlow = 0x10,
    /// Merged top-K heavy hitters by packets.
    QueryTopK = 0x11,
    /// Live accounting summary.
    QueryStatus = 0x12,
    /// Full telemetry snapshot as JSON.
    QueryTelemetry = 0x13,
    /// The auto-tune plan the daemon is running (if it booted with one).
    QueryPlan = 0x14,
    /// Rotate the measurement epoch (reset shards, bump epoch counter).
    Rotate = 0x20,
    /// Drain and stop the daemon.
    Shutdown = 0x21,
    /// Register this connection for streaming anomaly alerts.
    Subscribe = 0x30,
    /// Ack of [`Opcode::IngestFin`], carrying the accepted-packet total.
    FinAck = 0x82,
    /// Reply to [`Opcode::QueryFlow`].
    FlowReply = 0x90,
    /// Reply to [`Opcode::QueryTopK`].
    TopKReply = 0x91,
    /// Reply to [`Opcode::QueryStatus`] and [`Opcode::Shutdown`].
    StatusReply = 0x92,
    /// Reply to [`Opcode::QueryTelemetry`].
    TelemetryReply = 0x93,
    /// Reply to [`Opcode::QueryPlan`].
    PlanReply = 0x94,
    /// Reply to [`Opcode::Rotate`].
    RotateReply = 0xA0,
    /// Ack of [`Opcode::Subscribe`], echoing the accepted kind mask.
    SubscribeAck = 0xB0,
    /// Server-push anomaly alert to a subscribed connection.
    Alert = 0xB1,
    /// Classified failure reply (any request may receive one).
    Error = 0xFF,
}

impl Opcode {
    /// Decodes a wire byte, rejecting anything outside the table.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownOpcode`] for unassigned bytes.
    pub fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0x01 => Opcode::IngestBatch,
            0x02 => Opcode::IngestFin,
            0x10 => Opcode::QueryFlow,
            0x11 => Opcode::QueryTopK,
            0x12 => Opcode::QueryStatus,
            0x13 => Opcode::QueryTelemetry,
            0x14 => Opcode::QueryPlan,
            0x20 => Opcode::Rotate,
            0x21 => Opcode::Shutdown,
            0x30 => Opcode::Subscribe,
            0x82 => Opcode::FinAck,
            0x90 => Opcode::FlowReply,
            0x91 => Opcode::TopKReply,
            0x92 => Opcode::StatusReply,
            0x93 => Opcode::TelemetryReply,
            0x94 => Opcode::PlanReply,
            0xA0 => Opcode::RotateReply,
            0xB0 => Opcode::SubscribeAck,
            0xB1 => Opcode::Alert,
            0xFF => Opcode::Error,
            other => return Err(WireError::UnknownOpcode(other)),
        })
    }
}

/// Classified protocol failures. Every malformed input from an untrusted
/// peer lands in exactly one variant; [`WireError::class`] gives the
/// stable label the server's `service.rejects.*` telemetry counts.
#[derive(Debug)]
pub enum WireError {
    /// The first four bytes of a frame were not [`MAGIC`].
    BadMagic {
        /// The bytes actually received.
        got: [u8; 4],
    },
    /// The opcode byte is not assigned.
    UnknownOpcode(u8),
    /// The length prefix exceeds the negotiated maximum.
    Oversized {
        /// Length the peer declared.
        len: u32,
        /// Ceiling the frame was checked against.
        max: u32,
    },
    /// The stream ended inside a frame header.
    TruncatedHeader {
        /// Header bytes received before EOF (1..[`HEADER_BYTES`]).
        got: usize,
    },
    /// The stream ended inside a frame payload.
    TruncatedPayload {
        /// Payload length the header declared.
        expected: u32,
        /// Payload bytes received before EOF.
        got: usize,
    },
    /// The payload did not parse as its opcode's message.
    BadPayload {
        /// What was being decoded when the payload was rejected.
        what: &'static str,
    },
    /// Transport-level failure (includes read timeouts).
    Io(std::io::Error),
}

impl WireError {
    /// Stable one-word classification, used as the telemetry label under
    /// `service.rejects.<class>` and as the error class byte on the wire.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad_magic",
            WireError::UnknownOpcode(_) => "unknown_opcode",
            WireError::Oversized { .. } => "oversized",
            WireError::TruncatedHeader { .. } | WireError::TruncatedPayload { .. } => "truncated",
            WireError::BadPayload { .. } => "bad_payload",
            WireError::Io(_) => "io",
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds max payload {max}")
            }
            WireError::TruncatedHeader { got } => {
                write!(f, "stream ended inside a frame header ({got}/{HEADER_BYTES} bytes)")
            }
            WireError::TruncatedPayload { expected, got } => {
                write!(f, "stream ended inside a frame payload ({got}/{expected} bytes)")
            }
            WireError::BadPayload { what } => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One decoded frame: opcode plus raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub opcode: Opcode,
    /// Raw payload bytes (interpretation is per-opcode).
    pub payload: Vec<u8>,
}

/// The header of a frame carrying `payload_len` payload bytes.
fn frame_header(opcode: Opcode, payload_len: usize) -> [u8; HEADER_BYTES] {
    debug_assert!(payload_len <= u32::MAX as usize);
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = opcode as u8;
    header[5..9].copy_from_slice(&(payload_len as u32).to_be_bytes());
    header
}

/// Writes one frame. The caller is responsible for flushing buffered
/// writers before expecting a reply.
///
/// # Errors
///
/// Propagates transport errors from the writer.
pub fn write_frame(w: &mut impl Write, opcode: Opcode, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame_header(opcode, payload.len()))?;
    w.write_all(payload)
}

/// Reads bytes until `buf` is full; returns how many were read if the
/// stream ended early (a clean `Ok(0)` before the first byte is `Ok(0)`).
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream at a frame
/// boundary; ending anywhere else is a classified truncation error.
///
/// # Errors
///
/// Returns the [`WireError`] classifying what was wrong with the bytes
/// (or the transport).
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> Result<Option<Frame>, WireError> {
    let mut payload = Vec::new();
    // A fresh buffer grows to exactly the payload length.
    Ok(read_frame_into(r, max_payload, &mut payload)?.map(|(opcode, _)| Frame { opcode, payload }))
}

/// Reads one frame into `buf`, a buffer the caller reuses from frame to
/// frame: on `Ok(Some((opcode, len)))` the payload is `buf[..len]`.
/// `buf` only grows, to the largest payload read so far (at most
/// `max_payload` bytes, checked before any growth), and later frames
/// overwrite its bytes in place, so a steady stream of frames is read
/// without allocating or zero-filling. `Ok(None)` and the errors are
/// those of [`read_frame`].
///
/// # Errors
///
/// Returns the [`WireError`] classifying what was wrong with the bytes
/// (or the transport).
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    max_payload: u32,
    buf: &mut Vec<u8>,
) -> Result<Option<(Opcode, usize)>, WireError> {
    let mut header = [0u8; HEADER_BYTES];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < HEADER_BYTES => return Err(WireError::TruncatedHeader { got: n }),
        _ => {}
    }
    if header[0..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[0..4]);
        return Err(WireError::BadMagic { got });
    }
    let opcode = Opcode::from_u8(header[4])?;
    let len = u32::from_be_bytes(header[5..9].try_into().expect("4-byte slice"));
    if len > max_payload {
        return Err(WireError::Oversized { len, max: max_payload });
    }
    let n = len as usize;
    if buf.len() < n {
        buf.resize(n, 0);
    }
    let got = read_full(r, &mut buf[..n])?;
    if got < n {
        return Err(WireError::TruncatedPayload { expected: len, got });
    }
    Ok(Some((opcode, n)))
}

/// Bytes of an [`Opcode::IngestBatch`] payload carrying `records` records:
/// a big-endian `u32` count, then [`PacketRecord::WIRE_BYTES`] per record.
fn ingest_payload_len(records: usize) -> usize {
    4 + records * PacketRecord::WIRE_BYTES
}

/// Appends an [`Opcode::IngestBatch`] payload for `records` to `out`:
/// grows `out` by the payload's size once, then writes each record into
/// its slot ([`PacketRecord::write_wire`]).
fn encode_ingest_payload(records: &[PacketRecord], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + ingest_payload_len(records.len()), 0);
    let (count, body) = out[start..].split_at_mut(4);
    count.copy_from_slice(&(records.len() as u32).to_be_bytes());
    let (slots, _) = body.as_chunks_mut::<{ PacketRecord::WIRE_BYTES }>();
    for (r, slot) in records.iter().zip(slots) {
        r.write_wire(slot);
    }
}

/// Appends the whole [`Opcode::IngestBatch`] frame for `records` — header
/// and payload — to `out`: the bytes [`write_frame`] sends for
/// `Request::IngestBatch(records.to_vec()).encode()`, encoded straight
/// from the borrowed slice. The client encodes every pushed batch this
/// way into one reused buffer.
pub(crate) fn encode_ingest_frame(records: &[PacketRecord], out: &mut Vec<u8>) {
    let payload_len = ingest_payload_len(records.len());
    out.reserve(HEADER_BYTES + payload_len);
    out.extend_from_slice(&frame_header(Opcode::IngestBatch, payload_len));
    encode_ingest_payload(records, out);
}

/// Validates an [`Opcode::IngestBatch`] payload — its record count must
/// agree with its length — and returns its records, decoded lazily in
/// order. The server feeds them straight into its ingest lane; because
/// the whole payload is checked first, a malformed frame submits nothing.
///
/// # Errors
///
/// Returns [`WireError::BadPayload`] if the payload is shorter than the
/// count or its length disagrees with the count.
pub(crate) fn decode_ingest_payload(
    payload: &[u8],
) -> Result<impl ExactSizeIterator<Item = PacketRecord> + '_, WireError> {
    let Some((count, body)) = payload.split_first_chunk::<4>() else {
        return Err(WireError::BadPayload { what: "ingest batch shorter than count" });
    };
    let count = u32::from_be_bytes(*count) as usize;
    if count.checked_mul(PacketRecord::WIRE_BYTES) != Some(body.len()) {
        return Err(WireError::BadPayload {
            what: "ingest batch length disagrees with record count",
        });
    }
    let (records, _) = body.as_chunks::<{ PacketRecord::WIRE_BYTES }>();
    Ok(records.iter().map(PacketRecord::read_wire))
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A batch of packet records to ingest.
    IngestBatch(Vec<PacketRecord>),
    /// End of this connection's ingest stream; request the packet total.
    IngestFin,
    /// Estimate one flow's packets and bytes.
    QueryFlow(FlowKey),
    /// The merged top-`k` flows by packets.
    QueryTopK(u32),
    /// Live accounting summary.
    QueryStatus,
    /// Full telemetry snapshot as JSON.
    QueryTelemetry,
    /// The auto-tune plan the daemon booted with (and keeps re-solving).
    QueryPlan,
    /// Rotate the measurement epoch.
    Rotate,
    /// Drain all ingest and stop the daemon.
    Shutdown,
    /// Register this connection for anomaly alerts. The payload is a
    /// kind bitmask over [`AnomalyKind::bit`]; `0x00` means *all* kinds.
    Subscribe {
        /// Kind bitmask (`0x00` = all; only bits `0x0F` are assigned).
        kinds: u8,
    },
}

/// The kind-mask bits currently assigned ([`ALL_ANOMALY_KINDS`] worth).
///
/// [`ALL_ANOMALY_KINDS`]: instameasure_core::detect::ALL_ANOMALY_KINDS
pub const SUBSCRIBE_MASK_ALL: u8 = 0x0F;

impl Request {
    /// Encodes the request as a frame.
    #[must_use]
    pub fn encode(&self) -> Frame {
        match self {
            Request::IngestBatch(records) => {
                let mut payload = Vec::new();
                encode_ingest_payload(records, &mut payload);
                Frame { opcode: Opcode::IngestBatch, payload }
            }
            Request::IngestFin => Frame { opcode: Opcode::IngestFin, payload: Vec::new() },
            Request::QueryFlow(key) => {
                Frame { opcode: Opcode::QueryFlow, payload: key.to_bytes().to_vec() }
            }
            Request::QueryTopK(k) => {
                Frame { opcode: Opcode::QueryTopK, payload: k.to_be_bytes().to_vec() }
            }
            Request::QueryStatus => Frame { opcode: Opcode::QueryStatus, payload: Vec::new() },
            Request::QueryTelemetry => {
                Frame { opcode: Opcode::QueryTelemetry, payload: Vec::new() }
            }
            Request::QueryPlan => Frame { opcode: Opcode::QueryPlan, payload: Vec::new() },
            Request::Rotate => Frame { opcode: Opcode::Rotate, payload: Vec::new() },
            Request::Shutdown => Frame { opcode: Opcode::Shutdown, payload: Vec::new() },
            Request::Subscribe { kinds } => {
                Frame { opcode: Opcode::Subscribe, payload: vec![*kinds] }
            }
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] if the payload does not match the
    /// opcode's layout, [`WireError::UnknownOpcode`] for response opcodes
    /// arriving on the request path.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        Self::decode_payload(frame.opcode, &frame.payload)
    }

    /// Decodes a request from its opcode and payload bytes (as
    /// [`read_frame_into`] leaves them), without building a [`Frame`].
    ///
    /// # Errors
    ///
    /// The errors of [`Request::decode`].
    pub(crate) fn decode_payload(opcode: Opcode, p: &[u8]) -> Result<Self, WireError> {
        match opcode {
            Opcode::IngestBatch => Ok(Request::IngestBatch(decode_ingest_payload(p)?.collect())),
            Opcode::IngestFin => expect_empty(p, Request::IngestFin, "ingest fin"),
            Opcode::QueryFlow => {
                let key: [u8; 13] = p.try_into().map_err(|_| WireError::BadPayload {
                    what: "flow query needs a 13-byte key",
                })?;
                Ok(Request::QueryFlow(FlowKey::from_bytes(key)))
            }
            Opcode::QueryTopK => {
                let k: [u8; 4] = p.try_into().map_err(|_| WireError::BadPayload {
                    what: "top-k query needs a 4-byte count",
                })?;
                let k = u32::from_be_bytes(k);
                if k > MAX_TOP_K {
                    return Err(WireError::BadPayload { what: "top-k count above MAX_TOP_K" });
                }
                Ok(Request::QueryTopK(k))
            }
            Opcode::QueryStatus => expect_empty(p, Request::QueryStatus, "status query"),
            Opcode::QueryTelemetry => expect_empty(p, Request::QueryTelemetry, "telemetry query"),
            Opcode::QueryPlan => expect_empty(p, Request::QueryPlan, "plan query"),
            Opcode::Rotate => expect_empty(p, Request::Rotate, "rotate"),
            Opcode::Shutdown => expect_empty(p, Request::Shutdown, "shutdown"),
            Opcode::Subscribe => {
                let [kinds] = p else {
                    return Err(WireError::BadPayload {
                        what: "subscribe carries a single mask byte",
                    });
                };
                if *kinds & !SUBSCRIBE_MASK_ALL != 0 {
                    return Err(WireError::BadPayload {
                        what: "subscribe mask has unassigned kind bits",
                    });
                }
                Ok(Request::Subscribe { kinds: *kinds })
            }
            _ => Err(WireError::UnknownOpcode(opcode as u8)),
        }
    }
}

fn expect_empty(payload: &[u8], req: Request, what: &'static str) -> Result<Request, WireError> {
    if payload.is_empty() {
        Ok(req)
    } else {
        Err(WireError::BadPayload { what })
    }
}

const TOP_FLOW_BYTES: usize = 13 + 8 + 8;

/// Fixed [`Opcode::Alert`] payload width: epoch (8) + kind (1) +
/// subject tag (1) + subject (13, host-padded) + score (8) +
/// threshold (8).
const ALERT_BYTES: usize = 8 + 1 + 1 + 13 + 8 + 8;

/// Live accounting summary of the daemon — also the shutdown ack, where
/// it carries the final drained totals (`packets_submitted ==
/// packets_processed` once the pipeline is empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusReport {
    /// Packets accepted from ingest frames and handed to the pipeline.
    pub packets_submitted: u64,
    /// Packets fully processed by the measurement shards.
    pub packets_processed: u64,
    /// Ingest frames accepted.
    pub ingest_frames: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Distinct flows currently resident across all WSAF shards.
    pub flows: u64,
    /// Measurement epoch (bumped by [`Request::Rotate`]).
    pub epoch: u64,
    /// Worker shard count.
    pub workers: u32,
}

const STATUS_BYTES: usize = 6 * 8 + 4;

/// The auto-tune plan a daemon booted with, as reported over the
/// handshake: the chosen geometry plus the predictions it was chosen on.
/// Mirrors `instameasure_autotune::TunePlan` field for field (the wire
/// type is kept dependency-free so the protocol crate surface stays
/// self-contained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanReport {
    /// Layer-1 sketch memory in bytes.
    pub l1_memory_bytes: u64,
    /// Per-layer virtual-vector size in bits.
    pub vector_bits: u32,
    /// Regulator depth the plan was solved for.
    pub layers: u32,
    /// log₂ of the WSAF slot count.
    pub wsaf_entries_log2: u32,
    /// Predicted WSAF insertion rate.
    pub predicted_regulation: f64,
    /// Expected slow-memory accesses per insertion.
    pub probes_per_insert: f64,
    /// Capacity/demand margin at the measured latency.
    pub margin: f64,
    /// Predicted relative estimate error.
    pub predicted_epsilon: f64,
    /// Measured random-access latency (ns) the margin ran on.
    pub access_nanos: f64,
    /// Measured ns per flow-key digest on the profiled host.
    pub hash_ns: f64,
}

/// Fixed [`Opcode::PlanReply`] payload width: the geometry words plus six
/// f64 predictions.
const PLAN_BYTES: usize = 8 + 4 + 4 + 4 + 6 * 8;

impl PlanReport {
    fn encode_into(self, payload: &mut Vec<u8>) {
        payload.extend_from_slice(&self.l1_memory_bytes.to_be_bytes());
        payload.extend_from_slice(&self.vector_bits.to_be_bytes());
        payload.extend_from_slice(&self.layers.to_be_bytes());
        payload.extend_from_slice(&self.wsaf_entries_log2.to_be_bytes());
        for f in [
            self.predicted_regulation,
            self.probes_per_insert,
            self.margin,
            self.predicted_epsilon,
            self.access_nanos,
            self.hash_ns,
        ] {
            payload.extend_from_slice(&f.to_bits().to_be_bytes());
        }
    }

    fn decode(p: &[u8]) -> Result<Self, WireError> {
        if p.len() != PLAN_BYTES {
            return Err(WireError::BadPayload { what: "plan reply has a fixed 68-byte layout" });
        }
        let w = |i: usize| u32::from_be_bytes(p[i..i + 4].try_into().expect("4-byte slice"));
        let f = |i: usize| {
            f64::from_bits(u64::from_be_bytes(p[i..i + 8].try_into().expect("8-byte slice")))
        };
        Ok(PlanReport {
            l1_memory_bytes: u64::from_be_bytes(p[0..8].try_into().expect("8-byte slice")),
            vector_bits: w(8),
            layers: w(12),
            wsaf_entries_log2: w(16),
            predicted_regulation: f(20),
            probes_per_insert: f(28),
            margin: f(36),
            predicted_epsilon: f(44),
            access_nanos: f(52),
            hash_ns: f(60),
        })
    }
}

impl StatusReport {
    fn encode_into(self, payload: &mut Vec<u8>) {
        payload.extend_from_slice(&self.packets_submitted.to_be_bytes());
        payload.extend_from_slice(&self.packets_processed.to_be_bytes());
        payload.extend_from_slice(&self.ingest_frames.to_be_bytes());
        payload.extend_from_slice(&self.connections.to_be_bytes());
        payload.extend_from_slice(&self.flows.to_be_bytes());
        payload.extend_from_slice(&self.epoch.to_be_bytes());
        payload.extend_from_slice(&self.workers.to_be_bytes());
    }

    fn decode(p: &[u8]) -> Result<Self, WireError> {
        if p.len() != STATUS_BYTES {
            return Err(WireError::BadPayload { what: "status report has a fixed 52-byte layout" });
        }
        let u = |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8-byte slice"));
        Ok(StatusReport {
            packets_submitted: u(0),
            packets_processed: u(8),
            ingest_frames: u(16),
            connections: u(24),
            flows: u(32),
            epoch: u(40),
            workers: u32::from_be_bytes(p[48..52].try_into().expect("4-byte slice")),
        })
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ack of [`Request::IngestFin`]: packets accepted on this connection.
    FinAck {
        /// Packet records accepted from this connection's batches.
        packets: u64,
    },
    /// One flow's estimates (zero for flows never seen).
    Flow {
        /// Estimated packet count.
        packets: f64,
        /// Estimated byte count.
        bytes: f64,
    },
    /// Merged top-K flows by packets, descending.
    TopK(Vec<TopFlow>),
    /// Live accounting summary (also the shutdown ack).
    Status(StatusReport),
    /// Telemetry snapshot as a JSON document.
    Telemetry(String),
    /// The auto-tune plan the daemon is running.
    Plan(PlanReport),
    /// Epoch rotated.
    Rotated {
        /// The epoch now current.
        epoch: u64,
        /// Flows that were resident in the retired epoch.
        flows_retired: u64,
    },
    /// Subscription accepted.
    Subscribed {
        /// The epoch current at subscription time (alerts carry later
        /// epochs).
        epoch: u64,
        /// The kind mask in effect (`0x00` requests are echoed as
        /// [`SUBSCRIBE_MASK_ALL`]).
        kinds: u8,
    },
    /// One anomaly verdict for a closed epoch, pushed unsolicited to
    /// subscribed connections.
    Alert {
        /// The epoch that closed and was evaluated.
        epoch: u64,
        /// The detector verdict.
        anomaly: Anomaly,
    },
    /// Classified failure; `class` mirrors [`WireError::class`] plus the
    /// server-side classes `"draining"` and `"unsupported"`.
    Error {
        /// Stable machine-readable class.
        class: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame.
    #[must_use]
    pub fn encode(&self) -> Frame {
        match self {
            Response::FinAck { packets } => {
                Frame { opcode: Opcode::FinAck, payload: packets.to_be_bytes().to_vec() }
            }
            Response::Flow { packets, bytes } => {
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&packets.to_bits().to_be_bytes());
                payload.extend_from_slice(&bytes.to_bits().to_be_bytes());
                Frame { opcode: Opcode::FlowReply, payload }
            }
            Response::TopK(flows) => {
                let mut payload = Vec::with_capacity(4 + flows.len() * TOP_FLOW_BYTES);
                payload.extend_from_slice(&(flows.len() as u32).to_be_bytes());
                for f in flows {
                    payload.extend_from_slice(&f.key.to_bytes());
                    payload.extend_from_slice(&f.packets.to_bits().to_be_bytes());
                    payload.extend_from_slice(&f.bytes.to_bits().to_be_bytes());
                }
                Frame { opcode: Opcode::TopKReply, payload }
            }
            Response::Status(report) => {
                let mut payload = Vec::with_capacity(STATUS_BYTES);
                report.encode_into(&mut payload);
                Frame { opcode: Opcode::StatusReply, payload }
            }
            Response::Telemetry(json) => {
                Frame { opcode: Opcode::TelemetryReply, payload: json.clone().into_bytes() }
            }
            Response::Plan(report) => {
                let mut payload = Vec::with_capacity(PLAN_BYTES);
                report.encode_into(&mut payload);
                Frame { opcode: Opcode::PlanReply, payload }
            }
            Response::Rotated { epoch, flows_retired } => {
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&epoch.to_be_bytes());
                payload.extend_from_slice(&flows_retired.to_be_bytes());
                Frame { opcode: Opcode::RotateReply, payload }
            }
            Response::Subscribed { epoch, kinds } => {
                let mut payload = Vec::with_capacity(9);
                payload.extend_from_slice(&epoch.to_be_bytes());
                payload.push(*kinds);
                Frame { opcode: Opcode::SubscribeAck, payload }
            }
            Response::Alert { epoch, anomaly } => {
                let mut payload = Vec::with_capacity(ALERT_BYTES);
                payload.extend_from_slice(&epoch.to_be_bytes());
                payload.push(anomaly.kind.code());
                match anomaly.subject {
                    Subject::Host(ip) => {
                        payload.push(0);
                        payload.extend_from_slice(&ip);
                        payload.extend_from_slice(&[0u8; 9]); // pad to key width
                    }
                    Subject::Flow(key) => {
                        payload.push(1);
                        payload.extend_from_slice(&key.to_bytes());
                    }
                }
                payload.extend_from_slice(&anomaly.score.to_bits().to_be_bytes());
                payload.extend_from_slice(&anomaly.threshold.to_bits().to_be_bytes());
                Frame { opcode: Opcode::Alert, payload }
            }
            Response::Error { class, message } => {
                let mut payload = Vec::with_capacity(1 + class.len() + message.len());
                debug_assert!(class.len() <= u8::MAX as usize);
                payload.push(class.len() as u8);
                payload.extend_from_slice(class.as_bytes());
                payload.extend_from_slice(message.as_bytes());
                Frame { opcode: Opcode::Error, payload }
            }
        }
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadPayload`] on layout mismatches and
    /// [`WireError::UnknownOpcode`] for request opcodes arriving on the
    /// response path.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        let p = &frame.payload;
        match frame.opcode {
            Opcode::FinAck => {
                let b: [u8; 8] = p.as_slice().try_into().map_err(|_| WireError::BadPayload {
                    what: "fin ack needs an 8-byte packet count",
                })?;
                Ok(Response::FinAck { packets: u64::from_be_bytes(b) })
            }
            Opcode::FlowReply => {
                if p.len() != 16 {
                    return Err(WireError::BadPayload { what: "flow reply is two f64s" });
                }
                let bits =
                    |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8-byte slice"));
                Ok(Response::Flow {
                    packets: f64::from_bits(bits(0)),
                    bytes: f64::from_bits(bits(8)),
                })
            }
            Opcode::TopKReply => {
                if p.len() < 4 {
                    return Err(WireError::BadPayload { what: "top-k reply shorter than count" });
                }
                let count = u32::from_be_bytes(p[0..4].try_into().expect("4-byte slice")) as usize;
                let body = &p[4..];
                if body.len() != count * TOP_FLOW_BYTES {
                    return Err(WireError::BadPayload {
                        what: "top-k reply length disagrees with entry count",
                    });
                }
                let flows = body
                    .chunks_exact(TOP_FLOW_BYTES)
                    .map(|c| TopFlow {
                        key: FlowKey::from_bytes(c[0..13].try_into().expect("13-byte slice")),
                        packets: f64::from_bits(u64::from_be_bytes(
                            c[13..21].try_into().expect("8-byte slice"),
                        )),
                        bytes: f64::from_bits(u64::from_be_bytes(
                            c[21..29].try_into().expect("8-byte slice"),
                        )),
                    })
                    .collect();
                Ok(Response::TopK(flows))
            }
            Opcode::StatusReply => Ok(Response::Status(StatusReport::decode(p)?)),
            Opcode::TelemetryReply => {
                let json = String::from_utf8(p.clone())
                    .map_err(|_| WireError::BadPayload { what: "telemetry reply is UTF-8 JSON" })?;
                Ok(Response::Telemetry(json))
            }
            Opcode::PlanReply => Ok(Response::Plan(PlanReport::decode(p)?)),
            Opcode::RotateReply => {
                if p.len() != 16 {
                    return Err(WireError::BadPayload { what: "rotate reply is two u64s" });
                }
                let u = |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8 bytes"));
                Ok(Response::Rotated { epoch: u(0), flows_retired: u(8) })
            }
            Opcode::SubscribeAck => {
                if p.len() != 9 {
                    return Err(WireError::BadPayload {
                        what: "subscribe ack is an epoch plus a mask byte",
                    });
                }
                let epoch = u64::from_be_bytes(p[0..8].try_into().expect("8-byte slice"));
                Ok(Response::Subscribed { epoch, kinds: p[8] })
            }
            Opcode::Alert => {
                if p.len() != ALERT_BYTES {
                    return Err(WireError::BadPayload { what: "alert has a fixed 39-byte layout" });
                }
                let epoch = u64::from_be_bytes(p[0..8].try_into().expect("8-byte slice"));
                let kind = AnomalyKind::from_code(p[8])
                    .ok_or(WireError::BadPayload { what: "alert kind code is unassigned" })?;
                let subject = match p[9] {
                    0 => {
                        if p[14..23].iter().any(|b| *b != 0) {
                            return Err(WireError::BadPayload {
                                what: "host subject padding must be zero",
                            });
                        }
                        Subject::Host(p[10..14].try_into().expect("4-byte slice"))
                    }
                    1 => Subject::Flow(FlowKey::from_bytes(
                        p[10..23].try_into().expect("13-byte slice"),
                    )),
                    _ => {
                        return Err(WireError::BadPayload {
                            what: "alert subject tag is unassigned",
                        })
                    }
                };
                let bits =
                    |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8-byte slice"));
                Ok(Response::Alert {
                    epoch,
                    anomaly: Anomaly {
                        kind,
                        subject,
                        score: f64::from_bits(bits(23)),
                        threshold: f64::from_bits(bits(31)),
                    },
                })
            }
            Opcode::Error => {
                let class_len = *p.first().ok_or(WireError::BadPayload {
                    what: "error reply shorter than class length",
                })? as usize;
                if p.len() < 1 + class_len {
                    return Err(WireError::BadPayload { what: "error reply class truncated" });
                }
                let class = std::str::from_utf8(&p[1..1 + class_len])
                    .map_err(|_| WireError::BadPayload { what: "error class is UTF-8" })?;
                let message = String::from_utf8_lossy(&p[1 + class_len..]).into_owned();
                Ok(Response::Error { class: class.to_string(), message })
            }
            _ => Err(WireError::UnknownOpcode(frame.opcode as u8)),
        }
    }
}

/// Writes a frame and counts its bytes into `tx_bytes` (header included).
pub(crate) fn frame_wire_len(payload_len: usize) -> u64 {
    (HEADER_BYTES + payload_len) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn sample_records(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let key = FlowKey::new(
                    (i as u32).to_be_bytes(),
                    [10, 0, 0, 1],
                    i as u16,
                    443,
                    Protocol::Tcp,
                );
                PacketRecord::new(key, 64 + i as u16, i as u64 * 1000)
            })
            .collect()
    }

    fn roundtrip_request(req: &Request) -> Request {
        let frame = req.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
        let decoded = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(decoded, frame);
        Request::decode(&decoded).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let frame = resp.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
        let decoded = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD).unwrap().unwrap();
        Response::decode(&decoded).unwrap()
    }

    #[test]
    fn every_request_roundtrips() {
        let key = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 9, 10, Protocol::Udp);
        for req in [
            Request::IngestBatch(sample_records(17)),
            Request::IngestBatch(Vec::new()),
            Request::IngestFin,
            Request::QueryFlow(key),
            Request::QueryTopK(25),
            Request::QueryStatus,
            Request::QueryTelemetry,
            Request::QueryPlan,
            Request::Rotate,
            Request::Shutdown,
            Request::Subscribe { kinds: 0x00 },
            Request::Subscribe { kinds: SUBSCRIBE_MASK_ALL },
            Request::Subscribe { kinds: AnomalyKind::DdosVictim.bit() },
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let key = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 9, 10, Protocol::Udp);
        for resp in [
            Response::FinAck { packets: u64::MAX },
            Response::Flow { packets: 1234.5, bytes: 6789.25 },
            Response::TopK(vec![TopFlow { key, packets: 10.0, bytes: 640.0 }]),
            Response::TopK(Vec::new()),
            Response::Status(StatusReport {
                packets_submitted: 1,
                packets_processed: 2,
                ingest_frames: 3,
                connections: 4,
                flows: 5,
                epoch: 6,
                workers: 7,
            }),
            Response::Telemetry("{\"a\":1}".to_string()),
            Response::Plan(PlanReport {
                l1_memory_bytes: 64 * 1024,
                vector_bits: 16,
                layers: 2,
                wsaf_entries_log2: 21,
                predicted_regulation: 0.0123,
                probes_per_insert: 9.07,
                margin: 2.5,
                predicted_epsilon: 0.034,
                access_nanos: 78.5,
                hash_ns: 3.25,
            }),
            Response::Rotated { epoch: 3, flows_retired: 99 },
            Response::Subscribed { epoch: 12, kinds: SUBSCRIBE_MASK_ALL },
            Response::Alert {
                epoch: 7,
                anomaly: Anomaly {
                    kind: AnomalyKind::DdosVictim,
                    subject: Subject::Host([99, 9, 9, 9]),
                    score: 211.0,
                    threshold: 64.0,
                },
            },
            Response::Alert {
                epoch: 8,
                anomaly: Anomaly {
                    kind: AnomalyKind::HeavyChange,
                    subject: Subject::Flow(key),
                    score: -80_211.5,
                    threshold: 2_000.0,
                },
            },
            Response::Error { class: "oversized".into(), message: "too big".into() },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn subscribe_mask_with_unassigned_bits_is_rejected() {
        let frame = Frame { opcode: Opcode::Subscribe, payload: vec![0x10] };
        assert!(matches!(Request::decode(&frame), Err(WireError::BadPayload { .. })));
        let frame = Frame { opcode: Opcode::Subscribe, payload: vec![0x01, 0x02] };
        assert!(matches!(Request::decode(&frame), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn malformed_alert_payloads_are_classified() {
        let good = Response::Alert {
            epoch: 1,
            anomaly: Anomaly {
                kind: AnomalyKind::SuperSpreader,
                subject: Subject::Host([1, 2, 3, 4]),
                score: 100.0,
                threshold: 64.0,
            },
        }
        .encode();
        // Unassigned kind code.
        let mut bad = good.clone();
        bad.payload[8] = 4;
        assert!(matches!(Response::decode(&bad), Err(WireError::BadPayload { .. })));
        // Unassigned subject tag.
        let mut bad = good.clone();
        bad.payload[9] = 2;
        assert!(matches!(Response::decode(&bad), Err(WireError::BadPayload { .. })));
        // Nonzero padding behind a host subject.
        let mut bad = good.clone();
        bad.payload[20] = 0xAA;
        assert!(matches!(Response::decode(&bad), Err(WireError::BadPayload { .. })));
        // Wrong length.
        let mut bad = good;
        bad.payload.pop();
        assert!(matches!(Response::decode(&bad), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn malformed_plan_payloads_are_classified() {
        // Wrong length in either direction.
        for len in [0usize, PLAN_BYTES - 1, PLAN_BYTES + 1] {
            let frame = Frame { opcode: Opcode::PlanReply, payload: vec![0u8; len] };
            assert!(matches!(Response::decode(&frame), Err(WireError::BadPayload { .. })), "{len}");
        }
        // Plan queries carry no payload.
        let frame = Frame { opcode: Opcode::QueryPlan, payload: vec![1] };
        assert!(matches!(Request::decode(&frame), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn clean_eof_at_frame_boundary_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, DEFAULT_MAX_PAYLOAD).unwrap().is_none());
    }

    #[test]
    fn garbage_magic_is_classified() {
        let wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::BadMagic { got }) => assert_eq!(&got, b"HTTP"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_classified() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Opcode::QueryStatus, &[]).unwrap();
        for cut in 1..HEADER_BYTES {
            match read_frame(&mut &wire[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(WireError::TruncatedHeader { got }) => assert_eq!(got, cut),
                other => panic!("cut {cut}: expected TruncatedHeader, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_is_classified() {
        let frame = Request::IngestBatch(sample_records(4)).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
        for cut in HEADER_BYTES..wire.len() - 1 {
            match read_frame(&mut &wire[..cut], DEFAULT_MAX_PAYLOAD) {
                Err(WireError::TruncatedPayload { expected, got }) => {
                    assert_eq!(expected as usize, frame.payload.len());
                    assert_eq!(got, cut - HEADER_BYTES);
                }
                other => panic!("cut {cut}: expected TruncatedPayload, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(Opcode::IngestBatch as u8);
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_PAYLOAD);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn batch_count_must_match_length() {
        let mut frame = Request::IngestBatch(sample_records(3)).encode();
        assert_eq!(decode_ingest_payload(&frame.payload).unwrap().len(), 3);
        // Claim other counts than the 3 records carried; the whole
        // payload is rejected before any record decodes.
        for count in [0u32, 2, 4, u32::MAX] {
            frame.payload[0..4].copy_from_slice(&count.to_be_bytes());
            match Request::decode(&frame) {
                Err(WireError::BadPayload { .. }) => {}
                other => panic!("count {count}: expected BadPayload, got {other:?}"),
            }
            assert!(decode_ingest_payload(&frame.payload).is_err(), "count {count}");
        }
        assert!(matches!(decode_ingest_payload(&[0, 0, 0]), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn ingest_frames_encode_like_the_request_path() {
        for n in [0usize, 1, 17, 300] {
            let records = sample_records(n);
            let frame = Request::IngestBatch(records.clone()).encode();
            let mut expected = Vec::new();
            write_frame(&mut expected, frame.opcode, &frame.payload).unwrap();
            // A dirty, reused buffer: the encoder appends to what the
            // caller cleared, whatever capacity it kept.
            let mut got = vec![0xAB; 64];
            got.clear();
            encode_ingest_frame(&records, &mut got);
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn reused_frame_buffer_reads_a_small_frame_after_a_large_one() {
        let large = sample_records(200);
        let small = sample_records(3);
        let mut wire = Vec::new();
        for batch in [&large, &small] {
            encode_ingest_frame(batch, &mut wire);
        }
        write_frame(&mut wire, Opcode::QueryStatus, &[]).unwrap();
        let mut cursor = wire.as_slice();
        let mut buf = Vec::new();
        for expected in [&large, &small] {
            let (opcode, len) =
                read_frame_into(&mut cursor, DEFAULT_MAX_PAYLOAD, &mut buf).unwrap().unwrap();
            assert_eq!(opcode, Opcode::IngestBatch);
            assert_eq!(len, 4 + expected.len() * PacketRecord::WIRE_BYTES);
            let got: Vec<PacketRecord> = decode_ingest_payload(&buf[..len]).unwrap().collect();
            assert_eq!(&got, expected);
        }
        // The buffer kept the large frame's size; the bytes past the
        // small payload are the large frame's leftovers, never read.
        assert_eq!(buf.len(), 4 + large.len() * PacketRecord::WIRE_BYTES);
        let (opcode, len) =
            read_frame_into(&mut cursor, DEFAULT_MAX_PAYLOAD, &mut buf).unwrap().unwrap();
        assert_eq!((opcode, len), (Opcode::QueryStatus, 0));
        assert_eq!(Request::decode_payload(opcode, &buf[..len]).unwrap(), Request::QueryStatus);
        assert!(read_frame_into(&mut cursor, DEFAULT_MAX_PAYLOAD, &mut buf).unwrap().is_none());
    }

    #[test]
    fn top_k_above_cap_is_rejected() {
        let frame =
            Frame { opcode: Opcode::QueryTopK, payload: (MAX_TOP_K + 1).to_be_bytes().to_vec() };
        assert!(matches!(Request::decode(&frame), Err(WireError::BadPayload { .. })));
    }

    #[test]
    fn unknown_opcode_is_classified() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(0x7E);
        wire.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownOpcode(0x7E))
        ));
    }

    #[test]
    fn error_classes_are_stable() {
        assert_eq!(WireError::BadMagic { got: [0; 4] }.class(), "bad_magic");
        assert_eq!(WireError::UnknownOpcode(9).class(), "unknown_opcode");
        assert_eq!(WireError::Oversized { len: 1, max: 0 }.class(), "oversized");
        assert_eq!(WireError::TruncatedHeader { got: 1 }.class(), "truncated");
        assert_eq!(WireError::TruncatedPayload { expected: 2, got: 1 }.class(), "truncated");
        assert_eq!(WireError::BadPayload { what: "x" }.class(), "bad_payload");
    }
}
