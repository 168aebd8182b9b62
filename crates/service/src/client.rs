//! Client library for the live service: what remote taps and operator
//! tools link against (and what the `instameasure push`/`query` CLI
//! subcommands are built on).
//!
//! One [`ServiceClient`] wraps one TCP connection and may mix ingest and
//! queries, exactly as the protocol allows. Large traces are pushed with
//! [`ServiceClient::push_records`], which chunks into frames below the
//! server's payload ceiling and relies on TCP backpressure — a saturated
//! daemon slows the push instead of dropping it.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use instameasure_core::detect::Anomaly;
use instameasure_packet::{FlowKey, PacketRecord};

use crate::wire::{
    encode_ingest_frame, frame_wire_len, read_frame, write_frame, PlanReport, Request, Response,
    StatusReport, TopFlow, WireError, DEFAULT_MAX_PAYLOAD,
};

/// Records per ingest frame pushed by [`ServiceClient::push_records`]:
/// 8192 × 23 B ≈ 188 KiB payload, comfortably under the default 1 MiB
/// frame ceiling while still amortizing the frame header well.
pub const PUSH_CHUNK_RECORDS: usize = 8192;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The wire protocol failed (transport or framing).
    Wire(WireError),
    /// The server replied with a classified error frame.
    Remote {
        /// The server's stable error class (see [`WireError::class`]
        /// plus `"draining"`, `"busy"`).
        class: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server replied with the wrong message type for the request.
    UnexpectedReply {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// The server closed the connection instead of replying.
    Disconnected,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Remote { class, message } => write!(f, "server [{class}]: {message}"),
            ClientError::UnexpectedReply { expected } => {
                write!(f, "unexpected reply (wanted {expected})")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// One connection to a running daemon.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Alert frames that arrived while waiting for a request's reply.
    /// A subscribed connection receives unsolicited
    /// [`Response::Alert`] frames at any time; request/reply methods
    /// park them here and [`ServiceClient::next_alert`] drains them in
    /// arrival order.
    pending_alerts: VecDeque<(u64, Anomaly)>,
    /// The buffer every pushed ingest frame is encoded into, reused from
    /// batch to batch.
    ingest_frame: Vec<u8>,
}

impl ServiceClient {
    /// Connects with a 10 s read timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Wire`] on connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connects with an explicit reply timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Wire`] on connect failures.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Requests are small frames; without nodelay a rotate sent right
        // after a status poll can sit out a delayed-ACK timer (~40 ms).
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let read_half = stream.try_clone()?;
        Ok(ServiceClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            pending_alerts: VecDeque::new(),
            ingest_frame: Vec::new(),
        })
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let frame = request.encode();
        write_frame(&mut self.writer, frame.opcode, &frame.payload)?;
        self.writer.flush().map_err(WireError::Io)?;
        loop {
            match read_frame(&mut self.reader, DEFAULT_MAX_PAYLOAD)? {
                None => return Err(ClientError::Disconnected),
                Some(frame) => {
                    let resp = Response::decode(&frame)?;
                    match resp {
                        Response::Error { class, message } => {
                            return Err(ClientError::Remote { class, message });
                        }
                        // Unsolicited alert pushes may land ahead of the
                        // reply (the server writes them first at
                        // rotation); park them for `next_alert`.
                        Response::Alert { epoch, anomaly } => {
                            self.pending_alerts.push_back((epoch, anomaly));
                        }
                        other => return Ok(other),
                    }
                }
            }
        }
    }

    /// Streams one unacknowledged ingest batch (callers chunk; prefer
    /// [`ServiceClient::push_records`] for whole traces). The frame is
    /// encoded straight from `records` into the connection's reused
    /// frame buffer and handed to the socket in one write.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Wire`] on transport failures.
    pub fn push_batch(&mut self, records: &[PacketRecord]) -> Result<(), ClientError> {
        self.ingest_frame.clear();
        encode_ingest_frame(records, &mut self.ingest_frame);
        self.writer.write_all(&self.ingest_frame)?;
        Ok(())
    }

    /// Pushes a whole trace in [`PUSH_CHUNK_RECORDS`]-sized frames, then
    /// finishes the stream and returns the server's accepted-packet
    /// total — the packet-exact receipt.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] if the push or the fin-ack fails.
    pub fn push_records(&mut self, records: &[PacketRecord]) -> Result<u64, ClientError> {
        for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
            self.push_batch(chunk)?;
        }
        self.finish()
    }

    /// Ends the ingest stream: the server flushes this connection's lane
    /// and acks with the packets it accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn finish(&mut self) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::IngestFin)? {
            Response::FinAck { packets } => Ok(packets),
            _ => Err(ClientError::UnexpectedReply { expected: "fin ack" }),
        }
    }

    /// Estimates one flow: `(packets, bytes)`, zero if never seen.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn query_flow(&mut self, key: &FlowKey) -> Result<(f64, f64), ClientError> {
        match self.roundtrip(&Request::QueryFlow(*key))? {
            Response::Flow { packets, bytes } => Ok((packets, bytes)),
            _ => Err(ClientError::UnexpectedReply { expected: "flow reply" }),
        }
    }

    /// The merged top-`k` flows by packets, descending.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn top_k(&mut self, k: u32) -> Result<Vec<TopFlow>, ClientError> {
        match self.roundtrip(&Request::QueryTopK(k))? {
            Response::TopK(flows) => Ok(flows),
            _ => Err(ClientError::UnexpectedReply { expected: "top-k reply" }),
        }
    }

    /// Live accounting summary.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn status(&mut self) -> Result<StatusReport, ClientError> {
        match self.roundtrip(&Request::QueryStatus)? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::UnexpectedReply { expected: "status reply" }),
        }
    }

    /// Full telemetry snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn telemetry_json(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::QueryTelemetry)? {
            Response::Telemetry(json) => Ok(json),
            _ => Err(ClientError::UnexpectedReply { expected: "telemetry reply" }),
        }
    }

    /// The daemon's auto-tuned configuration plan (the latest
    /// recommendation, which starts as the boot plan and follows epoch
    /// re-solves of the observed traffic).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Remote`] with class `"unsupported"` if
    /// the daemon was not started with `serve --auto-tune`, and
    /// [`ClientError`] on transport failures.
    pub fn query_plan(&mut self) -> Result<PlanReport, ClientError> {
        match self.roundtrip(&Request::QueryPlan)? {
            Response::Plan(report) => Ok(report),
            _ => Err(ClientError::UnexpectedReply { expected: "plan reply" }),
        }
    }

    /// Rotates the measurement epoch; returns `(new_epoch, flows_retired)`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn rotate(&mut self) -> Result<(u64, u64), ClientError> {
        match self.roundtrip(&Request::Rotate)? {
            Response::Rotated { epoch, flows_retired } => Ok((epoch, flows_retired)),
            _ => Err(ClientError::UnexpectedReply { expected: "rotate reply" }),
        }
    }

    /// Subscribes this connection to streaming anomaly alerts for the
    /// kinds in `kinds` (a mask of
    /// [`instameasure_core::detect::AnomalyKind::bit`] values; `0`
    /// means all). Returns `(current_epoch, effective_mask)`; alerts
    /// then arrive via [`ServiceClient::next_alert`].
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Remote`] with class `"unsupported"` if the
    /// daemon runs without detection.
    pub fn subscribe(&mut self, kinds: u8) -> Result<(u64, u8), ClientError> {
        match self.roundtrip(&Request::Subscribe { kinds })? {
            Response::Subscribed { epoch, kinds } => Ok((epoch, kinds)),
            _ => Err(ClientError::UnexpectedReply { expected: "subscribe ack" }),
        }
    }

    /// The next alert, if one is buffered or arrives before the read
    /// timeout: `Ok(None)` means "no alert yet", not an error, so a
    /// `watch` loop can poll without tearing the connection down.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failures other than the
    /// timeout, and [`ClientError::Disconnected`] when the server
    /// closes.
    pub fn next_alert(&mut self) -> Result<Option<(u64, Anomaly)>, ClientError> {
        if let Some(hit) = self.pending_alerts.pop_front() {
            return Ok(Some(hit));
        }
        match read_frame(&mut self.reader, DEFAULT_MAX_PAYLOAD) {
            Ok(None) => Err(ClientError::Disconnected),
            Ok(Some(frame)) => match Response::decode(&frame)? {
                Response::Alert { epoch, anomaly } => Ok(Some((epoch, anomaly))),
                Response::Error { class, message } => Err(ClientError::Remote { class, message }),
                _ => Err(ClientError::UnexpectedReply { expected: "alert push" }),
            },
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Asks the daemon to drain and stop; returns the final packet-exact
    /// status once the drain completed.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or an error reply.
    pub fn shutdown(&mut self) -> Result<StatusReport, ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Status(s) => Ok(s),
            _ => Err(ClientError::UnexpectedReply { expected: "shutdown status" }),
        }
    }

    /// Approximate bytes one pushed record costs on the wire, for
    /// capacity planning (`frame_wire_len` amortized over a full chunk).
    #[must_use]
    pub fn bytes_per_record() -> f64 {
        let payload = 4 + PUSH_CHUNK_RECORDS * PacketRecord::WIRE_BYTES;
        frame_wire_len(payload) as f64 / PUSH_CHUNK_RECORDS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    use instameasure_packet::Protocol;

    fn records(n: usize) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let key =
                    FlowKey::new([10, 0, 0, i as u8], [10, 0, 1, 1], 40_000, 53, Protocol::Udp);
                PacketRecord::new(key, 80 + i as u16, i as u64)
            })
            .collect()
    }

    #[test]
    fn pushed_frames_are_the_request_encoding_byte_for_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let batches = [records(PUSH_CHUNK_RECORDS), records(5), records(0), records(700)];
        let mut expected = Vec::new();
        for batch in &batches {
            let frame = Request::IngestBatch(batch.clone()).encode();
            write_frame(&mut expected, frame.opcode, &frame.payload).unwrap();
        }
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            stream.read_to_end(&mut got).unwrap();
            got
        });
        let mut client = ServiceClient::connect(addr).unwrap();
        for batch in &batches {
            client.push_batch(batch).unwrap();
        }
        drop(client);
        assert_eq!(peer.join().unwrap(), expected);
    }
}
