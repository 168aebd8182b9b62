//! Property tests: synthesis → parse and pcap write → read are lossless for
//! the fields the measurement pipeline relies on.

// Too slow under Miri; unit tests cover the same parsers there.
#![cfg(not(miri))]

use instameasure_packet::pcap::{read_records, PcapWriter, TsResolution};
use instameasure_packet::{parse, synth, FlowKey, PacketRecord, Protocol};
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Tcp),
        Just(Protocol::Udp),
        Just(Protocol::Icmp),
        any::<u8>().prop_map(Protocol::from_number),
    ]
}

prop_compose! {
    fn arb_key()(
        src in any::<u32>(),
        dst in any::<u32>(),
        sp in any::<u16>(),
        dp in any::<u16>(),
        proto in arb_protocol(),
    ) -> FlowKey {
        let ports = matches!(proto, Protocol::Tcp | Protocol::Udp);
        FlowKey::new(
            src.to_be_bytes(),
            dst.to_be_bytes(),
            if ports { sp } else { 0 },
            if ports { dp } else { 0 },
            proto,
        )
    }
}

proptest! {
    #[test]
    fn key_bytes_roundtrip(key in arb_key()) {
        prop_assert_eq!(FlowKey::from_bytes(key.to_bytes()), key);
    }

    #[test]
    fn synth_then_parse_recovers_key(key in arb_key(), len in 0u16..=9000) {
        let frame = synth::synthesize_frame(&PacketRecord::new(key, len, 0));
        let parsed = parse::parse_ethernet(&frame).unwrap();
        prop_assert_eq!(parsed.key, key);
        // IP checksum of a valid header (including its checksum field) is 0.
        let ip = &frame[parse::ETHERNET_HEADER_LEN..parse::ETHERNET_HEADER_LEN + 20];
        prop_assert_eq!(parse::internet_checksum(ip), 0);
    }

    #[test]
    fn pcap_roundtrip_preserves_records(
        recs in prop::collection::vec(
            (arb_key(), 60u16..=1514, 0u64..=10_000_000_000u64),
            1..50,
        )
    ) {
        // Timestamps must be non-decreasing in a capture; sort them.
        let mut times: Vec<u64> = recs.iter().map(|r| r.2).collect();
        times.sort_unstable();
        let records: Vec<PacketRecord> = recs
            .iter()
            .zip(&times)
            .map(|((k, l, _), &t)| PacketRecord::new(*k, *l, t))
            .collect();

        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        for r in &records {
            w.write_packet(r.ts_nanos, &synth::synthesize_frame(r)).unwrap();
        }
        w.into_inner().unwrap();

        let (got, skipped) = read_records(&file[..]).unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(got.len(), records.len());
        let base = records[0].ts_nanos;
        for (g, r) in got.iter().zip(&records) {
            prop_assert_eq!(g.key, r.key);
            prop_assert_eq!(g.ts_nanos, r.ts_nanos - base);
            // Length survives unless the frame was padded up to the minimum.
            let expected = usize::from(r.wire_len).max(synth::MIN_FRAME_LEN);
            prop_assert_eq!(usize::from(g.wire_len), expected);
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse::parse_ethernet(&data);
        let _ = parse::parse_ipv4(&data);
    }
}

mod ipv6_props {
    use instameasure_packet::ipv6::{map_v6_addr, parse_ipv6};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ipv6_parser_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse_ipv6(&data);
        }

        #[test]
        fn v6_mapping_is_deterministic_and_spreads(addr in any::<[u8; 16]>()) {
            prop_assert_eq!(map_v6_addr(&addr), map_v6_addr(&addr));
            // Flipping any byte changes the pseudo-address (w.h.p.).
            let mut other = addr;
            other[0] ^= 1;
            prop_assert_ne!(map_v6_addr(&addr), map_v6_addr(&other));
        }

        #[test]
        fn valid_v6_udp_always_parses(
            src in any::<[u8; 16]>(),
            dst in any::<[u8; 16]>(),
            sport in any::<u16>(),
            dport in any::<u16>(),
        ) {
            let mut p = vec![0u8; 48];
            p[0] = 0x60;
            p[4..6].copy_from_slice(&8u16.to_be_bytes());
            p[6] = 17;
            p[8..24].copy_from_slice(&src);
            p[24..40].copy_from_slice(&dst);
            p[40..42].copy_from_slice(&sport.to_be_bytes());
            p[42..44].copy_from_slice(&dport.to_be_bytes());
            let parsed = parse_ipv6(&p).unwrap();
            prop_assert_eq!(parsed.key.src_port, sport);
            prop_assert_eq!(parsed.key.dst_port, dport);
            prop_assert_eq!(parsed.key.src_ip, map_v6_addr(&src));
        }
    }
}

/// The register-built key windows and wire records against the byte-array
/// definitions they replace, which stay here as the reference.
mod register_layouts {
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};
    use proptest::prelude::*;

    /// Every `Protocol`, including every raw `Other(n)` — also the
    /// non-canonical `Other(1)`, `Other(6)` and `Other(17)`.
    fn any_protocol() -> impl Strategy<Value = Protocol> {
        prop_oneof![
            Just(Protocol::Tcp),
            Just(Protocol::Udp),
            Just(Protocol::Icmp),
            any::<u8>().prop_map(Protocol::Other),
        ]
    }

    prop_compose! {
        fn any_key()(
            src in any::<[u8; 4]>(),
            dst in any::<[u8; 4]>(),
            sp in any::<u16>(),
            dp in any::<u16>(),
            proto in any_protocol(),
        ) -> FlowKey {
            FlowKey::new(src, dst, sp, dp, proto)
        }
    }

    /// Bytes 0..8 and 5..13 of `to_bytes()`, little-endian.
    fn reference_windows(key: &FlowKey) -> (u64, u64) {
        let b = key.to_bytes();
        let window = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        (window(0), window(5))
    }

    /// `to_bytes() ‖ wire_len BE ‖ ts BE`.
    fn reference_wire(r: &PacketRecord) -> [u8; PacketRecord::WIRE_BYTES] {
        let mut b = [0u8; PacketRecord::WIRE_BYTES];
        b[0..13].copy_from_slice(&r.key.to_bytes());
        b[13..15].copy_from_slice(&r.wire_len.to_be_bytes());
        b[15..23].copy_from_slice(&r.ts_nanos.to_be_bytes());
        b
    }

    /// The `from_bytes`-based decode of a wire record.
    fn reference_read(b: &[u8; PacketRecord::WIRE_BYTES]) -> PacketRecord {
        PacketRecord::new(
            FlowKey::from_bytes(b[0..13].try_into().unwrap()),
            u16::from_be_bytes([b[13], b[14]]),
            u64::from_be_bytes(b[15..23].try_into().unwrap()),
        )
    }

    proptest! {
        #[test]
        fn register_built_layouts_match_the_byte_arrays(
            key in any_key(),
            wire_len in any::<u16>(),
            ts in any::<u64>(),
            bytes in any::<[u8; 23]>(),
        ) {
            prop_assert_eq!(key.hash_windows(), reference_windows(&key));

            // Written over arbitrary leftovers: every byte is the record's.
            let rec = PacketRecord::new(key, wire_len, ts);
            let mut written = bytes;
            rec.write_wire(&mut written);
            prop_assert_eq!(written, reference_wire(&rec));

            prop_assert_eq!(PacketRecord::read_wire(&bytes), reference_read(&bytes));
        }
    }
}
