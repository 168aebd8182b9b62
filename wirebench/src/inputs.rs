//! Seeded workload inputs: the CAIDA-like trace, its header-truncated
//! pcap, the per-epoch scan mixes and the query key mix.
//!
//! Everything here is a pure function of the seed; the daemon only ever
//! sees what these functions produce.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use instameasure::packet::synth::synthesize_frame;
use instameasure::packet::{FlowKey, PacketRecord};
use instameasure::traffic::adversarial::horizontal_scan;
use instameasure::traffic::presets::caida_like;
use instameasure::traffic::{merge_records, Trace};

/// Scale of `caida_like` every workload draws from (~400 k packets,
/// 15 k flows): big enough that a pass amortizes per-pass costs, small
/// enough that a run holds well over a hundred passes.
pub const CAIDA_SCALE: f64 = 0.1;
/// Bytes of each frame the pcap keeps, like the header-only CAIDA
/// captures: Ethernet + IPv4 + L4 ports fit, payload does not.
pub const SNAPLEN: u32 = 64;
/// One capture record in this many is a non-IP (ARP) frame the parser
/// must skip, as real link captures carry some.
pub const NON_IP_EVERY: u64 = 1_000;
/// Background packets pushed with each scan epoch.
pub const EPOCH_BACKGROUND: usize = 20_000;
/// Destinations the scanner touches per epoch.
pub const SCAN_DSTS: u16 = 200;
/// Packets per scanned destination (enough for the flows to leave the
/// FlowRegulator and become WSAF-resident).
pub const SCAN_PKTS_PER_DST: u64 = 300;
/// Flows by packet count treated as elephants in the query mix.
pub const ELEPHANTS: usize = 1_000;
/// Flows with at most this many packets are mice in the query mix.
pub const MOUSE_MAX_PACKETS: u64 = 2;

/// SplitMix64: a tiny seeded generator, so inputs never depend on the
/// process (hash-map order, thread timing).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The CAIDA-like trace for `seed`.
#[must_use]
pub fn caida_trace(seed: u64) -> Trace {
    caida_like(CAIDA_SCALE, seed)
}

/// A minimal ARP request frame (ethertype 0x0806), which the IPv4/IPv6
/// parser rejects and the reader counts as skipped.
fn arp_frame(i: u64) -> Vec<u8> {
    let mut frame = vec![0u8; 42];
    frame[0..6].copy_from_slice(&[0xFF; 6]);
    frame[6] = 0x02;
    frame[7..11].copy_from_slice(&(i as u32).to_be_bytes());
    frame[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
    frame
}

/// What a capture file holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcapShape {
    /// Frames that parse to an IPv4 record.
    pub ip_frames: u64,
    /// Frames the parser skips.
    pub non_ip_frames: u64,
}

/// Writes `records` as a nanosecond pcap with a [`SNAPLEN`]-byte snap
/// length (so every frame is header-truncated and its wire length lives
/// only in `orig_len`), with a seeded ARP frame after roughly one record
/// in [`NON_IP_EVERY`].
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_truncated_pcap(
    path: &Path,
    records: &[PacketRecord],
    seed: u64,
) -> std::io::Result<PcapShape> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&0xA1B2_3C4Du32.to_le_bytes()); // nanosecond magic
    header.extend_from_slice(&2u16.to_le_bytes());
    header.extend_from_slice(&4u16.to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes()); // thiszone
    header.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    header.extend_from_slice(&SNAPLEN.to_le_bytes());
    header.extend_from_slice(&1u32.to_le_bytes()); // Ethernet
    w.write_all(&header)?;

    let mut rng = SplitMix::new(seed ^ 0xA4B0_0000_0000_0001);
    let mut shape = PcapShape::default();
    let put = |w: &mut BufWriter<File>, ts: u64, frame: &[u8]| -> std::io::Result<()> {
        let caplen = (frame.len() as u32).min(SNAPLEN);
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&((ts / 1_000_000_000) as u32).to_le_bytes());
        rec[4..8].copy_from_slice(&((ts % 1_000_000_000) as u32).to_le_bytes());
        rec[8..12].copy_from_slice(&caplen.to_le_bytes());
        rec[12..16].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        w.write_all(&rec)?;
        w.write_all(&frame[..caplen as usize])
    };
    for (i, rec) in records.iter().enumerate() {
        put(&mut w, rec.ts_nanos, &synthesize_frame(rec))?;
        shape.ip_frames += 1;
        // Never ahead of the first record, so the rebase origin is an
        // IP frame exactly as in the generated trace.
        if rng.below(NON_IP_EVERY) == 0 {
            put(&mut w, rec.ts_nanos, &arp_frame(i as u64))?;
            shape.non_ip_frames += 1;
        }
    }
    w.flush()?;
    Ok(shape)
}

/// One `scan_detect` epoch: a slice of the background trace (rebased to
/// start at zero) merged with the horizontal scan. Returns the records
/// and the scanner's address.
#[must_use]
pub fn scan_epoch(background: &[PacketRecord], epoch: u64) -> (Vec<PacketRecord>, [u8; 4]) {
    let span = background.len().saturating_sub(EPOCH_BACKGROUND).max(1);
    let start = (epoch as usize * EPOCH_BACKGROUND) % span;
    let end = (start + EPOCH_BACKGROUND).min(background.len());
    let slice = &background[start..end];
    let base = slice.first().map_or(0, |r| r.ts_nanos);
    let bg: Vec<PacketRecord> =
        slice.iter().map(|r| PacketRecord { ts_nanos: r.ts_nanos - base, ..*r }).collect();
    let (scan, truth) = horizontal_scan(SCAN_DSTS, SCAN_PKTS_PER_DST, 0);
    (merge_records(vec![bg, scan]), truth.attacker.expect("a scan has one scanner"))
}

/// The point-query key mix: elephants (the [`ELEPHANTS`] largest flows,
/// WSAF-resident) and mice (flows of at most [`MOUSE_MAX_PACKETS`]
/// packets, retained in the filter), half and half, in seeded order.
#[must_use]
pub fn query_keys(trace: &Trace, seed: u64, n: usize) -> Vec<FlowKey> {
    let mut flows: Vec<(FlowKey, u64)> =
        trace.stats.truth.packets.iter().map(|(k, p)| (*k, *p)).collect();
    // Hash-map order differs between processes; sort so the seed alone
    // decides the mix.
    flows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let elephants: Vec<FlowKey> = flows.iter().take(ELEPHANTS).map(|f| f.0).collect();
    let mice: Vec<FlowKey> =
        flows.iter().filter(|f| f.1 <= MOUSE_MAX_PACKETS).map(|f| f.0).collect();
    let mut rng = SplitMix::new(seed ^ 0x9E3F_0000_0000_0002);
    (0..n)
        .map(|_| {
            let pool = if rng.below(2) == 0 || mice.is_empty() { &elephants } else { &mice };
            pool[rng.below(pool.len() as u64) as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure::packet::chunk::read_records_mmap;

    #[test]
    fn the_truncated_pcap_parses_back_to_the_trace() {
        let trace = caida_like(0.005, 3);
        let dir = std::env::temp_dir().join(format!("wirebench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        let shape = write_truncated_pcap(&path, &trace.records, 3).unwrap();
        assert_eq!(shape.ip_frames, trace.records.len() as u64);
        let (records, skipped) = read_records_mmap(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(skipped, shape.non_ip_frames);
        assert_eq!(records.len(), trace.records.len());
        let base = trace.records[0].ts_nanos;
        for (got, want) in records.iter().zip(&trace.records) {
            assert_eq!(got.key, want.key);
            assert_eq!(got.ts_nanos, want.ts_nanos - base);
            // Wire length survives truncation through orig_len (frames
            // are padded to the 54-byte synthesized minimum).
            assert_eq!(got.wire_len, want.wire_len.max(54));
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = caida_like(0.005, 9);
        let b = caida_like(0.005, 9);
        assert_eq!(query_keys(&a, 9, 50), query_keys(&b, 9, 50));
        assert_ne!(query_keys(&a, 9, 50), query_keys(&a, 10, 50));
        let (e1, scanner) = scan_epoch(&a.records, 4);
        let (e2, _) = scan_epoch(&b.records, 4);
        assert_eq!(e1, e2);
        assert_eq!(scanner, [66, 6, 6, 6]);
        let scan_pkts = e1.iter().filter(|r| r.key.src_ip == scanner).count() as u64;
        assert_eq!(scan_pkts, u64::from(SCAN_DSTS) * SCAN_PKTS_PER_DST);
        assert!(e1.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }
}
