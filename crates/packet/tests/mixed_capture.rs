//! `read_records_mmap` against the owned-buffer `pcap::read_records` on
//! seeded captures that mix every frame shape the parser distinguishes:
//! untagged and 802.1Q-tagged IPv4, IPv4 with options, IPv6, ARP, frames
//! cut inside the IPv4 header or inside the ports, and header-truncated
//! snaps — in both byte orders and both timestamp resolutions. The two
//! readers must agree on every record and on the skip count, and the
//! records must match a checksum recorded before the parser was last
//! optimized.

// Temp files and mmap; the chunk reader unit tests cover Miri.
#![cfg(not(miri))]

use instameasure_packet::chunk::read_records_mmap;
use instameasure_packet::hash::SplitMix64;
use instameasure_packet::pcap::TsResolution;
use instameasure_packet::pcap::{read_records, LINKTYPE_ETHERNET, MAGIC_MICRO, MAGIC_NANO};
use instameasure_packet::{synth, FlowKey, PacketRecord, Protocol};

/// One captured frame: timestamp (ns), original length, captured bytes.
type Captured = (u64, u32, Vec<u8>);

fn random_key(rng: &mut SplitMix64) -> FlowKey {
    let proto = match rng.next_below(4) {
        0 => Protocol::Tcp,
        1 => Protocol::Udp,
        2 => Protocol::Icmp,
        _ => Protocol::from_number(rng.next_below(256) as u8),
    };
    let ports = matches!(proto, Protocol::Tcp | Protocol::Udp);
    let word = rng.next_u64();
    FlowKey::new(
        (word as u32).to_be_bytes(),
        ((word >> 32) as u32).to_be_bytes(),
        if ports { rng.next_below(65_536) as u16 } else { 0 },
        if ports { rng.next_below(65_536) as u16 } else { 0 },
        proto,
    )
}

fn ipv4_frame(rng: &mut SplitMix64) -> Vec<u8> {
    let key = random_key(rng);
    synth::synthesize_frame(&PacketRecord::new(key, 60 + rng.next_below(1400) as u16, 0))
}

/// Inserts `tags` 802.1Q tags after the MAC addresses.
fn vlan_tagged(frame: &[u8], tags: usize) -> Vec<u8> {
    let mut out = frame[..12].to_vec();
    for t in 0..tags {
        out.extend_from_slice(&[0x81, 0x00, 0x00, 10 + t as u8]);
    }
    out.extend_from_slice(&frame[12..]);
    out
}

/// Grows the IPv4 header by `words` 4-byte words of NOP options.
fn with_options(frame: &[u8], words: u8) -> Vec<u8> {
    let mut out = frame[..14 + 20].to_vec();
    out[14] = 0x45 + words;
    out.extend(std::iter::repeat_n(1u8, usize::from(words) * 4));
    out.extend_from_slice(&frame[14 + 20..]);
    out
}

fn ipv6_frame(rng: &mut SplitMix64) -> Vec<u8> {
    let mut frame = vec![0u8; 14];
    frame[12..14].copy_from_slice(&0x86DDu16.to_be_bytes());
    let mut v6 = vec![0u8; 40 + 8];
    v6[0] = 0x60;
    v6[4..6].copy_from_slice(&8u16.to_be_bytes());
    v6[6] = if rng.next_below(2) == 0 { 6 } else { 17 };
    for b in &mut v6[8..40] {
        *b = rng.next_below(256) as u8;
    }
    v6[40..44].copy_from_slice(&(rng.next_u64() as u32).to_be_bytes());
    frame.extend_from_slice(&v6);
    frame
}

fn arp_frame() -> Vec<u8> {
    let mut frame = vec![0u8; 42];
    frame[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
    frame
}

/// A seeded capture of `n` frames of mixed shapes, timestamps rising from
/// an arbitrary epoch offset. Every kind the parser distinguishes shows
/// up many times; unparseable frames can lead the capture (the rebase
/// origin is the first frame that parses).
fn mixed_capture(seed: u64, n: usize) -> Vec<Captured> {
    let mut rng = SplitMix64::new(seed);
    let mut ts = 1_600_000_000_000_000_000 + rng.next_below(1 << 40);
    (0..n)
        .map(|_| {
            ts += rng.next_below(2_000_000);
            let v4 = ipv4_frame(&mut rng);
            let frame = match rng.next_below(9) {
                0 | 1 => v4,
                2 => vlan_tagged(&v4, 1 + rng.next_below(2) as usize),
                3 => with_options(&v4, 1 + rng.next_below(10) as u8),
                4 => ipv6_frame(&mut rng),
                5 => arp_frame(),
                // Cut inside the IPv4 header.
                6 => v4[..14 + 1 + rng.next_below(19) as usize].to_vec(),
                // Cut inside the ports (non-TCP/UDP frames still parse).
                7 => v4[..14 + 20 + rng.next_below(4) as usize].to_vec(),
                // A header-truncated snap, like a CAIDA trace.
                _ => v4[..v4.len().min(14 + 20 + 20)].to_vec(),
            };
            let orig_len = frame.len() as u32 + rng.next_below(3) as u32 * 500;
            (ts, orig_len, frame)
        })
        .collect()
}

/// Writes `frames` as a classic pcap in the given byte order and
/// resolution (micro-resolution timestamps lose their sub-µs digits).
fn write_pcap(frames: &[Captured], big_endian: bool, resolution: TsResolution) -> Vec<u8> {
    let u32b = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
    let u16b = |v: u16| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
    let magic = match resolution {
        TsResolution::Micro => MAGIC_MICRO,
        TsResolution::Nano => MAGIC_NANO,
    };
    let mut file = Vec::new();
    file.extend_from_slice(&u32b(magic));
    file.extend_from_slice(&u16b(2));
    file.extend_from_slice(&u16b(4));
    file.extend_from_slice(&[0; 8]); // thiszone + sigfigs
    file.extend_from_slice(&u32b(65_535)); // snaplen
    file.extend_from_slice(&u32b(LINKTYPE_ETHERNET));
    for (ts, orig_len, data) in frames {
        let frac = match resolution {
            TsResolution::Micro => (ts % 1_000_000_000) / 1_000,
            TsResolution::Nano => ts % 1_000_000_000,
        };
        file.extend_from_slice(&u32b((ts / 1_000_000_000) as u32));
        file.extend_from_slice(&u32b(frac as u32));
        file.extend_from_slice(&u32b(data.len() as u32));
        file.extend_from_slice(&u32b(*orig_len));
        file.extend_from_slice(data);
    }
    file
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("instameasure_mixed_{}_{name}", std::process::id()))
}

/// Both readers on one capture: `(records, skipped)`, asserted equal.
fn read_both(file: &[u8], name: &str) -> (Vec<PacketRecord>, u64) {
    let owned = read_records(file).expect("the owned reader accepts the capture");
    let path = temp_path(name);
    std::fs::write(&path, file).unwrap();
    let mapped = read_records_mmap(&path);
    std::fs::remove_file(&path).ok();
    let mapped = mapped.expect("the zero-copy reader accepts the capture");
    assert_eq!(mapped.1, owned.1, "{name}: skip counts differ");
    assert_eq!(mapped.0.len(), owned.0.len(), "{name}: record counts differ");
    for (i, (m, o)) in mapped.0.iter().zip(&owned.0).enumerate() {
        assert_eq!(m, o, "{name}: record {i} differs");
    }
    mapped
}

const VARIANTS: [(bool, TsResolution); 4] = [
    (false, TsResolution::Micro),
    (false, TsResolution::Nano),
    (true, TsResolution::Micro),
    (true, TsResolution::Nano),
];

#[test]
fn mmap_reader_matches_owned_reader_on_mixed_captures() {
    for seed in 1..=6u64 {
        let frames = mixed_capture(seed, 2_000);
        for (big_endian, resolution) in VARIANTS {
            let name =
                format!("s{seed}_{}_{resolution:?}.pcap", if big_endian { "be" } else { "le" });
            let (records, skipped) = read_both(&write_pcap(&frames, big_endian, resolution), &name);
            assert!(skipped > 0 && !records.is_empty(), "{name}: the capture mixes both");
            assert_eq!(records[0].ts_nanos, 0, "{name}: rebased to the first parsed frame");
        }
    }
}

/// FNV-1a over every record field of the four variants of seed 7.
const RECORDS_GOLDEN: u64 = 0x3ee5_0ec0_d95e_41dd;

#[test]
fn mixed_capture_records_match_the_recorded_checksum() {
    let frames = mixed_capture(7, 3_000);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (big_endian, resolution) in VARIANTS {
        let (records, skipped) =
            read_both(&write_pcap(&frames, big_endian, resolution), "golden.pcap");
        fold(&skipped.to_le_bytes());
        for r in &records {
            fold(&r.to_wire_bytes());
        }
    }
    assert_eq!(h, RECORDS_GOLDEN, "{h:#018x}");
}
