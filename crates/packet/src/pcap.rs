//! A from-scratch implementation of the classic libpcap file format.
//!
//! Supports reading both endiannesses and both timestamp resolutions
//! (microsecond magic `0xA1B2C3D4`, nanosecond magic `0xA1B23C4D`), and
//! writing little-endian files in either resolution. Only what the
//! trace-driven evaluation needs — no pcapng.
//!
//! # Example
//!
//! ```
//! use instameasure_packet::pcap::{PcapReader, PcapWriter, TsResolution};
//! use instameasure_packet::{synth, FlowKey, PacketRecord, Protocol};
//!
//! let key = FlowKey::new([1, 2, 3, 4], [4, 3, 2, 1], 123, 80, Protocol::Tcp);
//! let rec = PacketRecord::new(key, 300, 1_500);
//!
//! let mut file = Vec::new();
//! let mut w = PcapWriter::new(&mut file, TsResolution::Nano)?;
//! w.write_packet(rec.ts_nanos, &synth::synthesize_frame(&rec))?;
//! drop(w);
//!
//! let mut r = PcapReader::new(&file[..])?;
//! let pkt = r.next_packet()?.unwrap();
//! assert_eq!(pkt.ts_nanos, 1_500);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{self, Read, Write};

use crate::ParseError;

/// Microsecond-resolution pcap magic.
pub const MAGIC_MICRO: u32 = 0xA1B2_C3D4;
/// Nanosecond-resolution pcap magic.
pub const MAGIC_NANO: u32 = 0xA1B2_3C4D;
/// Link type for Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Sanity limit on a single record's captured length (64 KiB frames plus
/// generous headroom); guards against corrupt length fields.
pub const MAX_CAPLEN: u32 = 256 * 1024;

/// Timestamp resolution of a pcap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsResolution {
    /// Microsecond timestamps (classic `0xA1B2C3D4` magic).
    Micro,
    /// Nanosecond timestamps (`0xA1B23C4D` magic).
    Nano,
}

/// Errors produced by pcap I/O: either a malformed file or an underlying
/// I/O failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum PcapError {
    /// The file violates the pcap format.
    Format(ParseError),
    /// The underlying reader/writer failed.
    Io(io::Error),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Format(e) => write!(f, "pcap format error: {e}"),
            PcapError::Io(e) => write!(f, "pcap io error: {e}"),
        }
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::Format(e) => Some(e),
            PcapError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl From<ParseError> for PcapError {
    fn from(e: ParseError) -> Self {
        PcapError::Format(e)
    }
}

/// One captured packet as stored in a pcap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Timestamp in nanoseconds since the Unix epoch (converted from the
    /// file's native resolution).
    pub ts_nanos: u64,
    /// Original on-the-wire length.
    pub orig_len: u32,
    /// Captured bytes (may be shorter than `orig_len` if the capture was
    /// snapped).
    pub data: Vec<u8>,
}

/// The decoded 24-byte pcap global header, shared by the owned-buffer
/// [`PcapReader`] and the zero-copy [`crate::chunk::PcapChunkReader`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlobalHeader {
    /// Whether the file's byte order is swapped relative to the host.
    pub swapped: bool,
    /// Timestamp resolution encoded by the magic.
    pub resolution: TsResolution,
    /// Link type (1 = Ethernet).
    pub link_type: u32,
    /// Declared snapshot length (0 in some writers; advisory upper bound).
    pub snaplen: u32,
}

/// Decodes and validates a pcap global header.
pub(crate) fn parse_global_header(hdr: &[u8; 24]) -> Result<GlobalHeader, ParseError> {
    let magic_le = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let magic_be = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let (swapped, resolution) = match (magic_le, magic_be) {
        (MAGIC_MICRO, _) => (false, TsResolution::Micro),
        (MAGIC_NANO, _) => (false, TsResolution::Nano),
        (_, MAGIC_MICRO) => (true, TsResolution::Micro),
        (_, MAGIC_NANO) => (true, TsResolution::Nano),
        _ => return Err(ParseError::BadPcapMagic(magic_le)),
    };
    let read_u32 = |b: &[u8]| -> u32 {
        let arr = [b[0], b[1], b[2], b[3]];
        if swapped {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    };
    Ok(GlobalHeader {
        swapped,
        resolution,
        link_type: read_u32(&hdr[20..24]),
        snaplen: read_u32(&hdr[16..20]),
    })
}

/// The caplen limit a reader enforces for a file with the given declared
/// snaplen: the snaplen when it is meaningful, capped by [`MAX_CAPLEN`]
/// (snaplen 0 means "unset" in several writers and falls back to the
/// sanity limit).
pub(crate) fn caplen_limit(snaplen: u32) -> u32 {
    if snaplen == 0 {
        MAX_CAPLEN
    } else {
        snaplen.min(MAX_CAPLEN)
    }
}

/// The decoded 16-byte per-record header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordHeader {
    /// Timestamp in nanoseconds (converted from the file's resolution).
    pub ts_nanos: u64,
    /// Captured length in bytes.
    pub caplen: u32,
    /// Original on-the-wire length in bytes.
    pub orig_len: u32,
}

/// Decodes a record header and rejects the corrupt shapes: a caplen above
/// the file's limit, and the all-zero-length record of a zeroed file tail.
#[inline]
pub(crate) fn parse_record_header(
    hdr: &[u8; 16],
    swapped: bool,
    resolution: TsResolution,
    limit: u32,
) -> Result<RecordHeader, ParseError> {
    let read_u32 = |b: &[u8]| -> u32 {
        let arr = [b[0], b[1], b[2], b[3]];
        if swapped {
            u32::from_be_bytes(arr)
        } else {
            u32::from_le_bytes(arr)
        }
    };
    let ts_sec = read_u32(&hdr[0..4]);
    let ts_frac = read_u32(&hdr[4..8]);
    let caplen = read_u32(&hdr[8..12]);
    let orig_len = read_u32(&hdr[12..16]);
    if caplen > limit {
        return Err(ParseError::OversizedPcapRecord { caplen, limit });
    }
    if caplen == 0 && orig_len == 0 {
        return Err(ParseError::EmptyPcapRecord);
    }
    let frac_nanos = match resolution {
        TsResolution::Micro => u64::from(ts_frac) * 1_000,
        TsResolution::Nano => u64::from(ts_frac),
    };
    Ok(RecordHeader { ts_nanos: u64::from(ts_sec) * 1_000_000_000 + frac_nanos, caplen, orig_len })
}

/// Reads into `buf` until it is full or the source hits EOF; returns the
/// number of bytes actually read. Unlike `read_exact`, a partial fill is
/// reported instead of being folded into an `UnexpectedEof` error, so the
/// caller can distinguish a clean end of file from a truncated header.
pub(crate) fn read_full<R: Read>(inner: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match inner.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Streaming reader for classic pcap files.
///
/// Works with any [`Read`] source; pass `&mut reader` if you need the reader
/// back afterwards.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    swapped: bool,
    resolution: TsResolution,
    link_type: u32,
    snaplen: u32,
}

impl<R: Read> PcapReader<R> {
    /// Opens a pcap stream, consuming and validating the 24-byte global
    /// header.
    ///
    /// # Errors
    ///
    /// Returns [`PcapError::Format`] on an unknown magic and
    /// [`PcapError::Io`] if the header cannot be read.
    pub fn new(mut inner: R) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let g = parse_global_header(&hdr)?;
        Ok(PcapReader {
            inner,
            swapped: g.swapped,
            resolution: g.resolution,
            link_type: g.link_type,
            snaplen: g.snaplen,
        })
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

    /// Reads the next packet record, or `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    ///
    /// Returns [`PcapError::Format`] on a record header truncated by EOF, a
    /// declared capture length above the file's snaplen (or [`MAX_CAPLEN`]),
    /// or a zero-length record; [`PcapError::Io`] on a truncated record body
    /// or any I/O failure.
    pub fn next_packet(&mut self) -> Result<Option<CapturedPacket>, PcapError> {
        let mut hdr = [0u8; 16];
        let got = read_full(&mut self.inner, &mut hdr)?;
        if got == 0 {
            return Ok(None);
        }
        if got < hdr.len() {
            // A file that ends inside a record header is corrupt, not a
            // clean EOF.
            return Err(ParseError::Truncated {
                layer: "pcap-record-header",
                needed: hdr.len(),
                available: got,
            }
            .into());
        }
        let rh =
            parse_record_header(&hdr, self.swapped, self.resolution, caplen_limit(self.snaplen))?;
        let mut data = vec![0u8; rh.caplen as usize];
        self.inner.read_exact(&mut data)?;
        Ok(Some(CapturedPacket { ts_nanos: rh.ts_nanos, orig_len: rh.orig_len, data }))
    }

    /// Returns an iterator over all remaining packets.
    pub fn packets(&mut self) -> Packets<'_, R> {
        Packets { reader: self }
    }
}

/// Iterator over the packets of a [`PcapReader`], produced by
/// [`PcapReader::packets`].
#[derive(Debug)]
pub struct Packets<'a, R> {
    reader: &'a mut PcapReader<R>,
}

impl<R: Read> Iterator for Packets<'_, R> {
    type Item = Result<CapturedPacket, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_packet().transpose()
    }
}

/// Streaming writer for classic little-endian pcap files.
#[derive(Debug)]
pub struct PcapWriter<W> {
    inner: W,
    resolution: TsResolution,
}

impl<W: Write> PcapWriter<W> {
    /// Creates a writer and emits the 24-byte global header (Ethernet link
    /// type, snaplen 256 KiB).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the header.
    pub fn new(mut inner: W, resolution: TsResolution) -> Result<Self, PcapError> {
        let magic = match resolution {
            TsResolution::Micro => MAGIC_MICRO,
            TsResolution::Nano => MAGIC_NANO,
        };
        let mut hdr = Vec::with_capacity(24);
        hdr.extend_from_slice(&magic.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes()); // version major
        hdr.extend_from_slice(&4u16.to_le_bytes()); // version minor
        hdr.extend_from_slice(&0u32.to_le_bytes()); // thiszone
        hdr.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        hdr.extend_from_slice(&MAX_CAPLEN.to_le_bytes()); // snaplen
        hdr.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner, resolution })
    }

    /// Appends one packet with the given timestamp (nanoseconds) and frame
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_packet(&mut self, ts_nanos: u64, frame: &[u8]) -> Result<(), PcapError> {
        let (sec, frac) = match self.resolution {
            TsResolution::Micro => (ts_nanos / 1_000_000_000, (ts_nanos % 1_000_000_000) / 1_000),
            TsResolution::Nano => (ts_nanos / 1_000_000_000, ts_nanos % 1_000_000_000),
        };
        // ts_sec, ts_frac, caplen, orig_len.
        let fields = [sec as u32, frac as u32, frame.len() as u32, frame.len() as u32];
        let mut hdr = [0u8; 16];
        for (slot, field) in hdr.chunks_exact_mut(4).zip(fields) {
            slot.copy_from_slice(&field.to_le_bytes());
        }
        self.inner.write_all(&hdr)?;
        self.inner.write_all(frame)?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the final flush.
    pub fn into_inner(mut self) -> Result<W, PcapError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads a whole pcap stream and, for each IPv4 packet that parses, yields a
/// [`crate::PacketRecord`] (timestamps rebased so the first packet is t=0).
///
/// Non-IPv4 or malformed frames are counted and skipped, mirroring how a
/// measurement device treats traffic it does not understand.
///
/// # Errors
///
/// Returns an error only for file-level problems (bad magic, truncated
/// record, I/O); per-packet parse failures are tolerated.
pub fn read_records<R: Read>(reader: R) -> Result<(Vec<crate::PacketRecord>, u64), PcapError> {
    let mut r = PcapReader::new(reader)?;
    let mut records = Vec::new();
    let mut skipped = 0u64;
    let mut base_ts: Option<u64> = None;
    while let Some(cap) = r.next_packet()? {
        match crate::parse::parse_ethernet(&cap.data) {
            Ok(parsed) => {
                let base = *base_ts.get_or_insert(cap.ts_nanos);
                records.push(crate::PacketRecord::new(
                    parsed.key,
                    cap.orig_len.min(u32::from(u16::MAX)) as u16,
                    cap.ts_nanos.saturating_sub(base),
                ));
            }
            Err(_) => skipped += 1,
        }
    }
    Ok((records, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_frame;
    use crate::{FlowKey, PacketRecord, Protocol};

    fn key(i: u8) -> FlowKey {
        FlowKey::new([i, 0, 0, 1], [i, 0, 0, 2], 1000 + u16::from(i), 80, Protocol::Tcp)
    }

    fn roundtrip(resolution: TsResolution) {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, resolution).unwrap();
        for i in 0..5u8 {
            let rec = PacketRecord::new(key(i), 100 + u16::from(i), u64::from(i) * 1_000_000);
            w.write_packet(rec.ts_nanos, &synthesize_frame(&rec)).unwrap();
        }
        w.into_inner().unwrap();

        let mut r = PcapReader::new(&file[..]).unwrap();
        assert_eq!(r.link_type(), LINKTYPE_ETHERNET);
        assert_eq!(r.resolution(), resolution);
        let pkts: Vec<_> = r.packets().collect::<Result<_, _>>().unwrap();
        assert_eq!(pkts.len(), 5);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.ts_nanos, i as u64 * 1_000_000);
            assert_eq!(p.orig_len as usize, p.data.len());
            let parsed = crate::parse::parse_ethernet(&p.data).unwrap();
            assert_eq!(parsed.key, key(i as u8));
        }
    }

    #[test]
    fn roundtrip_micro() {
        roundtrip(TsResolution::Micro);
    }

    #[test]
    fn roundtrip_nano() {
        roundtrip(TsResolution::Nano);
    }

    #[test]
    fn micro_resolution_truncates_sub_microsecond() {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Micro).unwrap();
        let rec = PacketRecord::new(key(1), 100, 1_234_567_890_123);
        w.write_packet(rec.ts_nanos, &synthesize_frame(&rec)).unwrap();
        w.into_inner().unwrap();
        let mut r = PcapReader::new(&file[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.ts_nanos, 1_234_567_890_000);
    }

    #[test]
    fn reads_big_endian_files() {
        // Hand-build a big-endian microsecond file with one tiny record.
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_MICRO.to_be_bytes());
        file.extend_from_slice(&2u16.to_be_bytes());
        file.extend_from_slice(&4u16.to_be_bytes());
        file.extend_from_slice(&[0; 8]);
        file.extend_from_slice(&65535u32.to_be_bytes());
        file.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        file.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        file.extend_from_slice(&9u32.to_be_bytes()); // ts_usec
        file.extend_from_slice(&4u32.to_be_bytes()); // caplen
        file.extend_from_slice(&60u32.to_be_bytes()); // origlen
        file.extend_from_slice(&[0xAA; 4]);
        let mut r = PcapReader::new(&file[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.ts_nanos, 7_000_009_000);
        assert_eq!(p.orig_len, 60);
        assert_eq!(p.data, vec![0xAA; 4]);
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        let file = [0u8; 24];
        match PcapReader::new(&file[..]) {
            Err(PcapError::Format(ParseError::BadPcapMagic(0))) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_record() {
        let mut file = Vec::new();
        let w = PcapWriter::new(&mut file, TsResolution::Micro).unwrap();
        w.into_inner().unwrap();
        file.extend_from_slice(&[0; 8]); // ts
        file.extend_from_slice(&(MAX_CAPLEN + 1).to_le_bytes());
        file.extend_from_slice(&100u32.to_le_bytes());
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::Format(ParseError::OversizedPcapRecord { .. }))
        ));
    }

    #[test]
    fn truncated_record_body_is_io_error() {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Micro).unwrap();
        let rec = PacketRecord::new(key(1), 100, 0);
        w.write_packet(0, &synthesize_frame(&rec)).unwrap();
        w.into_inner().unwrap();
        file.truncate(file.len() - 10);
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Io(_))));
    }

    #[test]
    fn partial_record_header_is_a_format_error_not_clean_eof() {
        // A file that ends 7 bytes into a record header is corrupt; it must
        // not be silently treated as a clean end of capture.
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Micro).unwrap();
        let rec = PacketRecord::new(key(1), 100, 0);
        w.write_packet(0, &synthesize_frame(&rec)).unwrap();
        w.into_inner().unwrap();
        file.extend_from_slice(&[0xAB; 7]); // 7 stray bytes of a next header
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert!(r.next_packet().unwrap().is_some());
        match r.next_packet() {
            Err(PcapError::Format(ParseError::Truncated {
                layer: "pcap-record-header",
                needed: 16,
                available: 7,
            })) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn caplen_above_snaplen_is_rejected() {
        // Hand-build a file declaring snaplen 100 and a record claiming 200
        // captured bytes: the record header lies about the file's own limit.
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC_MICRO.to_le_bytes());
        file.extend_from_slice(&2u16.to_le_bytes());
        file.extend_from_slice(&4u16.to_le_bytes());
        file.extend_from_slice(&[0; 8]);
        file.extend_from_slice(&100u32.to_le_bytes()); // snaplen
        file.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        file.extend_from_slice(&[0; 8]); // ts
        file.extend_from_slice(&200u32.to_le_bytes()); // caplen > snaplen
        file.extend_from_slice(&200u32.to_le_bytes());
        file.extend_from_slice(&[0u8; 200]);
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert_eq!(r.snaplen(), 100);
        assert!(matches!(
            r.next_packet(),
            Err(PcapError::Format(ParseError::OversizedPcapRecord { caplen: 200, limit: 100 }))
        ));
    }

    #[test]
    fn zeroed_file_tail_is_an_empty_record_error() {
        // 16 zero bytes decode as caplen 0 / orig_len 0 — the classic
        // zero-filled tail of an interrupted capture. Must error, not loop
        // or yield phantom packets.
        let mut file = Vec::new();
        let w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        w.into_inner().unwrap();
        file.extend_from_slice(&[0u8; 16]);
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Format(ParseError::EmptyPcapRecord))));
    }

    #[test]
    fn zero_caplen_snapped_record_is_still_valid() {
        // caplen 0 with a nonzero orig_len is a legally snapped record; it
        // yields an empty capture that the parse stage then skips.
        let mut file = Vec::new();
        let w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        w.into_inner().unwrap();
        file.extend_from_slice(&[0u8; 8]); // ts
        file.extend_from_slice(&0u32.to_le_bytes()); // caplen 0
        file.extend_from_slice(&60u32.to_le_bytes()); // orig_len 60
        let mut r = PcapReader::new(&file[..]).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.orig_len, 60);
        assert!(p.data.is_empty());
        assert!(r.next_packet().unwrap().is_none());
        // Through read_records the frame counts as skipped, not as a packet.
        let (records, skipped) = read_records(&file[..]).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn caplen_past_eof_is_an_error_not_a_panic() {
        // Record header claims more captured bytes than the file holds.
        let mut file = Vec::new();
        let w = PcapWriter::new(&mut file, TsResolution::Micro).unwrap();
        w.into_inner().unwrap();
        file.extend_from_slice(&[0u8; 8]);
        file.extend_from_slice(&1000u32.to_le_bytes()); // caplen
        file.extend_from_slice(&1000u32.to_le_bytes()); // orig_len
        file.extend_from_slice(&[0x55; 10]); // only 10 bytes of body
        let mut r = PcapReader::new(&file[..]).unwrap();
        assert!(matches!(r.next_packet(), Err(PcapError::Io(_))));
    }

    #[test]
    fn read_records_skips_unparseable_frames() {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        let rec = PacketRecord::new(key(3), 120, 5_000);
        w.write_packet(1_000, &[0u8; 30]).unwrap(); // garbage frame
        w.write_packet(2_000, &synthesize_frame(&rec)).unwrap();
        w.into_inner().unwrap();
        let (records, skipped) = read_records(&file[..]).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, key(3));
        assert_eq!(records[0].ts_nanos, 0, "timestamps rebased to first parsed packet");
    }
}
