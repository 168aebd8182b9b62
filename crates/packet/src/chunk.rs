//! Zero-copy streaming pcap ingest.
//!
//! [`crate::pcap::PcapReader`] allocates a fresh `Vec<u8>` for every record,
//! which makes the *reader* the per-packet hot path once the measurement
//! pipeline itself is batched. This module removes that cost:
//!
//! * [`PcapChunkReader`] maps the whole file (falling back to a chunked
//!   [`Read`] buffer when mmap is unavailable) and yields [`PacketView`]s —
//!   records *borrowed* out of the mapped/buffered bytes, no per-packet
//!   allocation or copy.
//! * [`parse_packet_view`] turns a view into a [`PacketRecord`] in place,
//!   reusing the caller's record.
//! * [`RecordStream`] bridges views straight into any consumer of
//!   `Iterator<Item = PacketRecord>` — in particular the multi-core
//!   pipeline's recycled dispatch batches — so the steady state performs
//!   zero per-packet heap allocations end to end.
//!
//! The zero-copy path is **bit-identical** to the owned-buffer path: same
//! records, same skip rule for unparseable frames, same timestamp rebasing.
//! The differential suites (`tests/prop_chunk_roundtrip.rs` in this crate,
//! `tests/zero_copy_ingest.rs` at the workspace root) pin this down.
//!
//! # Example
//!
//! ```
//! use instameasure_packet::chunk::PcapChunkReader;
//! use instameasure_packet::pcap::{PcapWriter, TsResolution};
//! use instameasure_packet::{synth, FlowKey, PacketRecord, Protocol};
//!
//! let key = FlowKey::new([1, 2, 3, 4], [4, 3, 2, 1], 123, 80, Protocol::Tcp);
//! let rec = PacketRecord::new(key, 300, 1_500);
//! let mut file = Vec::new();
//! let mut w = PcapWriter::new(&mut file, TsResolution::Nano)?;
//! w.write_packet(rec.ts_nanos, &synth::synthesize_frame(&rec))?;
//! drop(w);
//!
//! let mut r = PcapChunkReader::from_reader(&file[..])?;
//! while let Some(view) = r.next_view()? {
//!     assert_eq!(view.ts_nanos, 1_500);
//!     assert_eq!(instameasure_packet::parse::parse_ethernet(view.data)?.key, key);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use crate::mmap::Mmap;
use crate::pcap::{
    caplen_limit, parse_global_header, parse_record_header, PcapError, TsResolution,
};
use crate::{FlowKey, PacketRecord, ParseError, Protocol};

/// Default chunk size for the buffered fallback path (4 MiB): large enough
/// that refills — and the tail-carry copy each refill implies — are rare.
pub const DEFAULT_CHUNK_SIZE: usize = 4 << 20;

/// Fewest file bytes a record that parses can occupy: the 16-byte record
/// header, an Ethernet header and a 20-byte minimal IPv4 header.
const MIN_PARSED_RECORD_BYTES: usize = 16 + crate::parse::ETHERNET_HEADER_LEN + 20;

/// One packet record borrowed out of the reader's current chunk. Valid
/// until the next call that advances the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// Timestamp in nanoseconds since the Unix epoch (converted from the
    /// file's native resolution).
    pub ts_nanos: u64,
    /// Original on-the-wire length.
    pub orig_len: u32,
    /// Captured bytes, borrowed from the mapped file or the chunk buffer.
    pub data: &'a [u8],
}

/// How ingest moved bytes: the counters behind the `ingest.chunk_*`
/// telemetry emitted by the multi-core bridge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Buffer refills (streamed path) or whole-file mappings (mmap path).
    pub chunk_fills: u64,
    /// Bytes made visible to the parser in bulk: the mapped file length, or
    /// the total bytes read into the chunk buffer on the fallback path.
    pub bytes_mapped: u64,
    /// Copies the zero-copy path could not avoid: one per failed mmap (the
    /// whole file then flows through the read buffer) plus one per partial
    /// record carried across a chunk boundary.
    pub copy_fallbacks: u64,
    /// Pcap records yielded as views (parseable or not).
    pub records: u64,
}

#[derive(Debug)]
enum Source<R> {
    /// The whole file, mapped. `pos` is the read cursor.
    Mapped { map: Mmap, pos: usize },
    /// Chunked reads into a reusable buffer; `buf[start..end]` is unread.
    Streamed { inner: R, buf: Vec<u8>, start: usize, end: usize, chunk_size: usize, eof: bool },
}

/// Zero-copy streaming reader for classic pcap files.
///
/// Yields [`PacketView`]s borrowed from an mmap of the file, or — when
/// mapping is unavailable (non-unix, Miri, special files, empty files) —
/// from a chunked read buffer that only copies the rare record straddling a
/// chunk boundary.
#[derive(Debug)]
pub struct PcapChunkReader<R = File> {
    src: Source<R>,
    swapped: bool,
    resolution: TsResolution,
    link_type: u32,
    snaplen: u32,
    limit: u32,
    stats: IngestStats,
}

fn truncated(layer: &'static str, needed: usize, available: usize) -> PcapError {
    ParseError::Truncated { layer, needed, available }.into()
}

impl PcapChunkReader<File> {
    /// Opens a pcap file, preferring a whole-file mmap and falling back to
    /// chunked buffered reads when mapping fails (the fallback is counted in
    /// [`IngestStats::copy_fallbacks`]).
    ///
    /// # Errors
    ///
    /// Returns [`PcapError::Io`] if the file cannot be opened and
    /// [`PcapError::Format`] on a bad or truncated global header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PcapError> {
        let file = File::open(path)?;
        match Mmap::map(&file) {
            Ok(map) => Self::from_mmap(map),
            Err(_) => {
                let mut r = Self::from_reader(file)?;
                r.stats.copy_fallbacks += 1;
                Ok(r)
            }
        }
    }

    /// Opens a pcap file on the buffered chunk path, never attempting mmap
    /// (used by differential tests and as an explicit copy-path baseline).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PcapChunkReader::open`].
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<Self, PcapError> {
        Self::from_reader(File::open(path)?)
    }

    fn from_mmap(map: Mmap) -> Result<Self, PcapError> {
        let len = map.as_slice().len();
        if len < 24 {
            return Err(truncated("pcap-global-header", 24, len));
        }
        let hdr: &[u8; 24] = map.as_slice()[..24].try_into().expect("24-byte slice");
        let g = parse_global_header(hdr)?;
        Ok(PcapChunkReader {
            src: Source::Mapped { map, pos: 24 },
            swapped: g.swapped,
            resolution: g.resolution,
            link_type: g.link_type,
            snaplen: g.snaplen,
            limit: caplen_limit(g.snaplen),
            stats: IngestStats {
                chunk_fills: 1,
                bytes_mapped: len as u64,
                ..IngestStats::default()
            },
        })
    }
}

impl<R: Read> PcapChunkReader<R> {
    /// Wraps any [`Read`] source on the chunked-buffer path with the
    /// [`DEFAULT_CHUNK_SIZE`].
    ///
    /// # Errors
    ///
    /// Returns [`PcapError::Format`] on a bad or truncated global header and
    /// [`PcapError::Io`] on a read failure.
    pub fn from_reader(inner: R) -> Result<Self, PcapError> {
        Self::with_chunk_size(inner, DEFAULT_CHUNK_SIZE)
    }

    /// Wraps any [`Read`] source, filling the parse buffer `chunk_size`
    /// bytes at a time (clamped to at least 1). Small chunk sizes force
    /// records to straddle refills and are exercised by the property suite.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PcapChunkReader::from_reader`].
    pub fn with_chunk_size(inner: R, chunk_size: usize) -> Result<Self, PcapError> {
        let mut r = PcapChunkReader {
            src: Source::Streamed {
                inner,
                buf: Vec::new(),
                start: 0,
                end: 0,
                chunk_size: chunk_size.max(1),
                eof: false,
            },
            swapped: false,
            resolution: TsResolution::Micro,
            link_type: 0,
            snaplen: 0,
            limit: caplen_limit(0),
            stats: IngestStats::default(),
        };
        let avail = r.fill(24)?;
        if avail < 24 {
            return Err(truncated("pcap-global-header", 24, avail));
        }
        let Source::Streamed { buf, start, .. } = &mut r.src else { unreachable!() };
        let hdr: [u8; 24] = buf[*start..*start + 24].try_into().expect("24-byte slice");
        *start += 24;
        let g = parse_global_header(&hdr)?;
        r.swapped = g.swapped;
        r.resolution = g.resolution;
        r.link_type = g.link_type;
        r.snaplen = g.snaplen;
        r.limit = caplen_limit(g.snaplen);
        Ok(r)
    }

    /// The file's timestamp resolution.
    #[must_use]
    pub fn resolution(&self) -> TsResolution {
        self.resolution
    }

    /// The file's link type (1 = Ethernet).
    #[must_use]
    pub fn link_type(&self) -> u32 {
        self.link_type
    }

    /// The file's declared snapshot length (0 if the writer left it unset).
    #[must_use]
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Whether records are served from a whole-file memory map (as opposed
    /// to the chunked read fallback).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.src, Source::Mapped { .. })
    }

    /// Ingest counters so far.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Yields the next record as a borrowed view, or `Ok(None)` at a clean
    /// end of file.
    ///
    /// # Errors
    ///
    /// Returns [`PcapError::Format`] on a truncated record header or body, a
    /// capture length above the file's limit, or a zero-length record, and
    /// [`PcapError::Io`] on a read failure of the fallback path.
    #[inline]
    pub fn next_view(&mut self) -> Result<Option<PacketView<'_>>, PcapError> {
        match self.src {
            Source::Mapped { .. } => self.next_view_mapped(),
            Source::Streamed { .. } => self.next_view_streamed(),
        }
    }

    #[inline]
    fn next_view_mapped(&mut self) -> Result<Option<PacketView<'_>>, PcapError> {
        let (swapped, resolution, limit) = (self.swapped, self.resolution, self.limit);
        let Source::Mapped { map, pos } = &mut self.src else { unreachable!() };
        let data = map.as_slice();
        if *pos == data.len() {
            return Ok(None);
        }
        let avail = data.len() - *pos;
        if avail < 16 {
            return Err(truncated("pcap-record-header", 16, avail));
        }
        let hdr: &[u8; 16] = data[*pos..*pos + 16].try_into().expect("16-byte slice");
        let rh = parse_record_header(hdr, swapped, resolution, limit)?;
        let caplen = rh.caplen as usize;
        let body = *pos + 16;
        if caplen > data.len() - body {
            return Err(truncated("pcap-record-body", caplen, data.len() - body));
        }
        *pos = body + caplen;
        self.stats.records += 1;
        Ok(Some(PacketView {
            ts_nanos: rh.ts_nanos,
            orig_len: rh.orig_len,
            data: &data[body..body + caplen],
        }))
    }

    fn next_view_streamed(&mut self) -> Result<Option<PacketView<'_>>, PcapError> {
        let avail = self.fill(16)?;
        if avail == 0 {
            return Ok(None);
        }
        if avail < 16 {
            return Err(truncated("pcap-record-header", 16, avail));
        }
        let (swapped, resolution, limit) = (self.swapped, self.resolution, self.limit);
        let hdr: [u8; 16] = {
            let Source::Streamed { buf, start, .. } = &self.src else { unreachable!() };
            buf[*start..*start + 16].try_into().expect("16-byte slice")
        };
        let rh = parse_record_header(&hdr, swapped, resolution, limit)?;
        let caplen = rh.caplen as usize;
        let need = 16 + caplen;
        let avail = self.fill(need)?;
        if avail < need {
            return Err(truncated("pcap-record-body", caplen, avail - 16));
        }
        self.stats.records += 1;
        let Source::Streamed { buf, start, .. } = &mut self.src else { unreachable!() };
        let body = *start + 16;
        *start = body + caplen;
        Ok(Some(PacketView {
            ts_nanos: rh.ts_nanos,
            orig_len: rh.orig_len,
            data: &buf[body..body + caplen],
        }))
    }

    /// Ensures at least `need` unread bytes are buffered (or EOF reached);
    /// returns the bytes available. Carries any partial record to the buffer
    /// front before refilling, so views never straddle a reallocation.
    fn fill(&mut self, need: usize) -> Result<usize, PcapError> {
        loop {
            let Source::Streamed { inner, buf, start, end, chunk_size, eof } = &mut self.src else {
                unreachable!()
            };
            let avail = *end - *start;
            if avail >= need || *eof {
                return Ok(avail);
            }
            if *start > 0 {
                // Carry the partial record to the front — the one copy the
                // fallback path cannot avoid.
                buf.copy_within(*start..*end, 0);
                if avail > 0 {
                    self.stats.copy_fallbacks += 1;
                }
                *start = 0;
                *end = avail;
            }
            let target = need.max(*chunk_size);
            if buf.len() < target {
                buf.resize(target, 0);
            }
            let cap = (buf.len() - *end).min(*chunk_size);
            match inner.read(&mut buf[*end..*end + cap]) {
                Ok(0) => *eof = true,
                Ok(n) => {
                    *end += n;
                    self.stats.chunk_fills += 1;
                    self.stats.bytes_mapped += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Parses a borrowed view into the caller's reusable [`PacketRecord`],
/// allocation-free: flow key and IP length from the frame bytes, wire
/// length from the record's original length (clamped to `u16` like the
/// owned-buffer path), timestamp rebased against `base_ts`.
///
/// # Errors
///
/// Returns the same [`ParseError`] [`crate::parse::parse_ethernet`] would
/// for the frame bytes; `out` is untouched on error.
#[inline]
pub fn parse_packet_view(
    view: &PacketView<'_>,
    base_ts: u64,
    out: &mut PacketRecord,
) -> Result<(), ParseError> {
    let parsed = crate::parse::parse_ethernet(view.data)?;
    out.key = parsed.key;
    out.wire_len = view.orig_len.min(u32::from(u16::MAX)) as u16;
    out.ts_nanos = view.ts_nanos.saturating_sub(base_ts);
    Ok(())
}

/// Streaming [`PacketRecord`] iterator over a [`PcapChunkReader`]: the
/// bridge between zero-copy ingest and any record consumer (notably
/// `run_multicore_stream`, whose recycled batch buffers make the combined
/// path allocation-free per packet).
///
/// Mirrors [`crate::pcap::read_records`] exactly: unparseable frames are
/// counted and skipped, timestamps are rebased so the first parsed packet
/// is t=0. Because `Iterator::next` cannot fail, a file-level error stops
/// the stream and is surfaced by [`RecordStream::finish`] (or
/// [`RecordStream::error`]).
#[derive(Debug)]
pub struct RecordStream<R = File> {
    reader: PcapChunkReader<R>,
    /// The reusable record every view is parsed into.
    scratch: PacketRecord,
    base_ts: Option<u64>,
    last_ts: u64,
    skipped: u64,
    error: Option<PcapError>,
}

impl<R: Read> RecordStream<R> {
    /// Wraps a chunk reader.
    #[must_use]
    pub fn new(reader: PcapChunkReader<R>) -> Self {
        let null_key = FlowKey::new([0; 4], [0; 4], 0, 0, Protocol::Other(0));
        RecordStream {
            reader,
            scratch: PacketRecord::new(null_key, 0, 0),
            base_ts: None,
            last_ts: 0,
            skipped: 0,
            error: None,
        }
    }

    /// Frames counted and skipped because they did not parse.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Rebased timestamp of the most recent record (the trace span so far).
    #[must_use]
    pub fn last_ts_nanos(&self) -> u64 {
        self.last_ts
    }

    /// Ingest counters of the underlying reader.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        self.reader.stats()
    }

    /// The file-level error that stopped the stream, if any.
    #[must_use]
    pub fn error(&self) -> Option<&PcapError> {
        self.error.as_ref()
    }

    /// Consumes the stream, returning `(skipped_frames, stats)` or the
    /// file-level error that cut the stream short.
    ///
    /// # Errors
    ///
    /// Returns the deferred [`PcapError`] if iteration stopped on one.
    pub fn finish(self) -> Result<(u64, IngestStats), PcapError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.skipped, self.reader.stats())),
        }
    }
}

impl<R: Read> Iterator for RecordStream<R> {
    type Item = PacketRecord;

    #[inline]
    fn next(&mut self) -> Option<PacketRecord> {
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.reader.next_view() {
                Ok(Some(view)) => {
                    // The rebase origin is the first frame that *parses*,
                    // matching read_records: commit it only on success.
                    let base = self.base_ts.unwrap_or(view.ts_nanos);
                    match parse_packet_view(&view, base, &mut self.scratch) {
                        Ok(()) => {
                            self.base_ts = Some(base);
                            self.last_ts = self.scratch.ts_nanos;
                            return Some(self.scratch);
                        }
                        Err(_) => self.skipped += 1,
                    }
                }
                Ok(None) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
    }
}

/// Reads a whole pcap file through the zero-copy path and, for each frame
/// that parses, yields a [`PacketRecord`] — the drop-in equivalent of
/// [`crate::pcap::read_records`], byte-identical output included.
///
/// # Errors
///
/// Returns an error only for file-level problems (open failure, bad magic,
/// truncated or corrupt record); per-packet parse failures are tolerated
/// and counted in the second tuple element.
pub fn read_records_mmap(path: impl AsRef<Path>) -> Result<(Vec<PacketRecord>, u64), PcapError> {
    let reader = PcapChunkReader::open(path)?;
    // Every record that parses takes at least a record header, an
    // Ethernet header and an IPv4 header, so this bound on the output
    // length never reallocates (untouched capacity is never faulted in).
    let upper = reader.stats().bytes_mapped as usize / MIN_PARSED_RECORD_BYTES;
    let mut records = Vec::with_capacity(upper);
    let mut stream = RecordStream::new(reader);
    records.extend(stream.by_ref());
    let (skipped, _) = stream.finish()?;
    Ok((records, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{read_records, PcapWriter};
    use crate::synth::synthesize_frame;

    fn key(i: u8) -> FlowKey {
        FlowKey::new([i, 0, 0, 1], [i, 0, 0, 2], 1000 + u16::from(i), 80, Protocol::Tcp)
    }

    fn sample_file(n: u8) -> Vec<u8> {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        for i in 0..n {
            let rec = PacketRecord::new(key(i), 100 + u16::from(i), 10_000 + u64::from(i) * 500);
            w.write_packet(rec.ts_nanos, &synthesize_frame(&rec)).unwrap();
        }
        w.into_inner().unwrap();
        file
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("instameasure_chunk_{}_{name}", std::process::id()))
    }

    #[test]
    fn views_match_owned_reader_at_every_chunk_size() {
        let file = sample_file(9);
        let mut owned = crate::pcap::PcapReader::new(&file[..]).unwrap();
        let mut expected = Vec::new();
        while let Some(p) = owned.next_packet().unwrap() {
            expected.push(p);
        }
        for chunk_size in [1usize, 7, 64, DEFAULT_CHUNK_SIZE] {
            let mut r = PcapChunkReader::with_chunk_size(&file[..], chunk_size).unwrap();
            assert_eq!(r.resolution(), TsResolution::Nano);
            let mut got = Vec::new();
            while let Some(v) = r.next_view().unwrap() {
                got.push(crate::pcap::CapturedPacket {
                    ts_nanos: v.ts_nanos,
                    orig_len: v.orig_len,
                    data: v.data.to_vec(),
                });
            }
            assert_eq!(got, expected, "divergence at chunk_size={chunk_size}");
            assert_eq!(r.stats().records, expected.len() as u64);
        }
    }

    #[test]
    fn boundary_straddles_count_copy_fallbacks() {
        // A chunk bigger than one record (~117 B) but smaller than the file
        // guarantees some record straddles a refill and gets carried.
        let file = sample_file(4);
        assert!(file.len() > 400);
        let mut r = PcapChunkReader::with_chunk_size(&file[..], 200).unwrap();
        while r.next_view().unwrap().is_some() {}
        let stats = r.stats();
        assert!(stats.copy_fallbacks >= 1, "stats: {stats:?}");
        assert_eq!(stats.bytes_mapped, file.len() as u64);
        assert!(stats.chunk_fills >= (file.len() / 200) as u64);
    }

    #[test]
    fn mmap_open_reads_identically_to_owned_path() {
        let file = sample_file(6);
        let path = temp_path("mmap_parity.pcap");
        std::fs::write(&path, &file).unwrap();

        let (expected, expected_skipped) = read_records(&file[..]).unwrap();
        let (got, skipped) = read_records_mmap(&path).unwrap();
        assert_eq!(got, expected);
        assert_eq!(skipped, expected_skipped);

        let r = PcapChunkReader::open(&path).unwrap();
        if r.is_mapped() {
            // Whole file visible in one "fill", zero copies.
            assert_eq!(r.stats().chunk_fills, 1);
            assert_eq!(r.stats().bytes_mapped, file.len() as u64);
            assert_eq!(r.stats().copy_fallbacks, 0);
        } else {
            // Unsupported target: the fallback itself is the counted copy.
            assert_eq!(r.stats().copy_fallbacks, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_stream_matches_read_records_with_garbage_frames() {
        // Leading garbage frame: the rebase origin must be the first frame
        // that parses, exactly like read_records.
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        w.write_packet(1_000, &[0u8; 30]).unwrap();
        let rec = PacketRecord::new(key(3), 120, 5_000);
        w.write_packet(2_000, &synthesize_frame(&rec)).unwrap();
        w.write_packet(2_500, &[0xFF; 20]).unwrap();
        let rec2 = PacketRecord::new(key(4), 130, 6_000);
        w.write_packet(3_000, &synthesize_frame(&rec2)).unwrap();
        w.into_inner().unwrap();

        let (expected, expected_skipped) = read_records(&file[..]).unwrap();
        let mut stream = RecordStream::new(PcapChunkReader::with_chunk_size(&file[..], 7).unwrap());
        let got: Vec<PacketRecord> = stream.by_ref().collect();
        assert_eq!(got, expected);
        assert_eq!(got[0].ts_nanos, 0, "rebased to first parsed packet");
        assert_eq!(stream.last_ts_nanos(), 1_000);
        let (skipped, stats) = stream.finish().unwrap();
        assert_eq!(skipped, expected_skipped);
        assert_eq!(stats.records, 4);
    }

    #[test]
    fn stream_error_is_deferred_to_finish() {
        let mut file = sample_file(2);
        file.extend_from_slice(&[0xAB; 5]); // stray partial record header
        let mut stream = RecordStream::new(PcapChunkReader::from_reader(&file[..]).unwrap());
        assert_eq!(stream.by_ref().count(), 2);
        assert!(stream.error().is_some());
        assert!(matches!(
            stream.finish(),
            Err(PcapError::Format(ParseError::Truncated { layer: "pcap-record-header", .. }))
        ));
    }

    #[test]
    fn empty_and_truncated_files_error_cleanly() {
        assert!(matches!(
            PcapChunkReader::from_reader(&[][..]),
            Err(PcapError::Format(ParseError::Truncated { layer: "pcap-global-header", .. }))
        ));
        let file = sample_file(1);
        assert!(matches!(
            PcapChunkReader::with_chunk_size(&file[..10], 3),
            Err(PcapError::Format(ParseError::Truncated { layer: "pcap-global-header", .. }))
        ));
        let path = temp_path("empty.pcap");
        std::fs::write(&path, []).unwrap();
        assert!(PcapChunkReader::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_packet_view_clamps_and_rebases() {
        let rec = PacketRecord::new(key(9), 64, 0);
        let frame = synthesize_frame(&rec);
        let view = PacketView { ts_nanos: 10_000, orig_len: 70_000, data: &frame };
        let mut out = PacketRecord::new(key(0), 0, 0);
        parse_packet_view(&view, 4_000, &mut out).unwrap();
        assert_eq!(out.key, key(9));
        assert_eq!(out.wire_len, u16::MAX);
        assert_eq!(out.ts_nanos, 6_000);
        // Base after the view timestamp saturates to zero, never underflows.
        parse_packet_view(&view, 20_000, &mut out).unwrap();
        assert_eq!(out.ts_nanos, 0);
    }
}
