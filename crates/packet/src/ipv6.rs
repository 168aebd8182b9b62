//! IPv6 parsing and mapping into the measurement keyspace.
//!
//! The paper's WSAF entry (and our [`FlowKey`]) is the classic 104-bit
//! IPv4 5-tuple. Real links are dual-stack, so a deployable probe must do
//! *something* with IPv6 traffic. We do what fixed-width-key devices do:
//! parse the v6 header chain, then **map** each 128-bit address to a
//! 32-bit pseudo-address by hashing (seeded, deterministic). Collisions
//! are possible but negligible at measurement scales (birthday bound
//! ~2⁻³² per pair), and per-flow semantics are preserved exactly: equal
//! v6 tuples always map to the same [`FlowKey`].
//!
//! The mapped key's protocol is the real transport protocol, so TCP/UDP
//! v6 flows mix naturally with v4 flows in the same WSAF.

use crate::hash::bytes_hash64;
use crate::parse::{need, take};
use crate::{FlowKey, ParseError, Protocol};

/// EtherType for IPv6.
pub const ETHERTYPE_IPV6: u16 = 0x86DD;

/// Fixed length of the IPv6 base header.
pub const IPV6_HEADER_LEN: usize = 40;

/// Seed domain for the v6→v4 address mapping (distinct from every sketch
/// seed so pseudo-addresses do not correlate with sketch placement).
const V6_MAP_SEED: u64 = 0x6666_0000_1111_2222;

/// A parsed IPv6 packet mapped into the measurement keyspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedV6 {
    /// The mapped 5-tuple (pseudo-IPv4 addresses — see module docs).
    pub key: FlowKey,
    /// The IPv6 payload length field (L3 payload bytes).
    pub payload_len: u16,
    /// Number of extension headers skipped.
    pub ext_headers: u8,
}

/// Maps a 128-bit IPv6 address to its deterministic 32-bit pseudo-address.
#[must_use]
pub fn map_v6_addr(addr: &[u8; 16]) -> [u8; 4] {
    ((bytes_hash64(addr, V6_MAP_SEED) >> 32) as u32).to_be_bytes()
}

/// Parses an IPv6 packet (starting at the IPv6 header) down to the mapped
/// 5-tuple, skipping hop-by-hop, routing, destination-options and
/// fragment extension headers.
///
/// # Errors
///
/// Returns [`ParseError`] on truncation or a version nibble ≠ 6.
pub fn parse_ipv6(buf: &[u8]) -> Result<ParsedV6, ParseError> {
    let hdr = take::<{ IPV6_HEADER_LEN }>("ipv6", buf, 0)?;
    let version = hdr[0] >> 4;
    if version != 6 {
        return Err(ParseError::UnsupportedIpVersion(version));
    }
    let payload_len = u16::from_be_bytes([hdr[4], hdr[5]]);
    let mut next_header = hdr[6];
    let src: &[u8; 16] = take("ipv6", buf, 8)?;
    let dst: &[u8; 16] = take("ipv6", buf, 24)?;

    // Walk the extension-header chain.
    let mut offset = IPV6_HEADER_LEN;
    let mut ext_headers = 0u8;
    loop {
        match next_header {
            // Hop-by-hop (0), routing (43), destination options (60):
            // length-prefixed in 8-byte units.
            0 | 43 | 60 => {
                let ext = take::<2>("ipv6-ext", buf, offset)?;
                let len = 8 + usize::from(ext[1]) * 8;
                next_header = ext[0];
                offset += len;
                ext_headers += 1;
                need("ipv6-ext", buf, offset)?;
            }
            // Fragment header (44): fixed 8 bytes.
            44 => {
                let frag = take::<8>("ipv6-frag", buf, offset)?;
                next_header = frag[0];
                offset += 8;
                ext_headers += 1;
            }
            _ => break,
        }
        if ext_headers > 8 {
            // A chain this deep is hostile input; stop walking.
            break;
        }
    }

    let protocol = match next_header {
        6 => Protocol::Tcp,
        17 => Protocol::Udp,
        58 => Protocol::Icmp, // ICMPv6 counts as ICMP for measurement
        other => Protocol::Other(other),
    };
    let (src_port, dst_port) = match protocol {
        Protocol::Tcp | Protocol::Udp => {
            let l4 = take::<4>("l4-ports", buf, offset)?;
            (u16::from_be_bytes([l4[0], l4[1]]), u16::from_be_bytes([l4[2], l4[3]]))
        }
        _ => (0, 0),
    };

    Ok(ParsedV6 {
        key: FlowKey::new(map_v6_addr(src), map_v6_addr(dst), src_port, dst_port, protocol),
        payload_len,
        ext_headers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a minimal IPv6+UDP packet.
    fn v6_udp(src_last: u8, dst_last: u8, sport: u16, dport: u16) -> Vec<u8> {
        let mut p = vec![0u8; IPV6_HEADER_LEN + 8];
        p[0] = 0x60;
        p[4..6].copy_from_slice(&8u16.to_be_bytes()); // payload = UDP header
        p[6] = 17; // UDP
        p[7] = 64; // hop limit
        p[8] = 0x20; // 2001::/16-ish src
        p[23] = src_last;
        p[24] = 0x20;
        p[39] = dst_last;
        p[40..42].copy_from_slice(&sport.to_be_bytes());
        p[42..44].copy_from_slice(&dport.to_be_bytes());
        p
    }

    #[test]
    fn parses_udp_v6_and_maps_deterministically() {
        let p = v6_udp(1, 2, 5000, 53);
        let a = parse_ipv6(&p).unwrap();
        let b = parse_ipv6(&p).unwrap();
        assert_eq!(a, b, "deterministic mapping");
        assert_eq!(a.key.protocol, Protocol::Udp);
        assert_eq!(a.key.src_port, 5000);
        assert_eq!(a.key.dst_port, 53);
        assert_eq!(a.payload_len, 8);
        assert_eq!(a.ext_headers, 0);
    }

    #[test]
    fn distinct_addresses_map_to_distinct_keys() {
        let a = parse_ipv6(&v6_udp(1, 2, 1, 1)).unwrap().key;
        let b = parse_ipv6(&v6_udp(3, 2, 1, 1)).unwrap().key;
        assert_ne!(a.src_ip, b.src_ip);
        assert_eq!(a.dst_ip, b.dst_ip, "same dst maps identically");
    }

    #[test]
    fn skips_extension_headers() {
        // Insert a hop-by-hop header (8 bytes) before UDP.
        let inner = v6_udp(9, 9, 100, 200);
        let mut p = inner[..IPV6_HEADER_LEN].to_vec();
        p[6] = 0; // next = hop-by-hop
        p.push(17); // ext: next = UDP
        p.push(0); // ext len = 0 => 8 bytes
        p.extend_from_slice(&[0; 6]);
        p.extend_from_slice(&inner[IPV6_HEADER_LEN..]);
        let parsed = parse_ipv6(&p).unwrap();
        assert_eq!(parsed.ext_headers, 1);
        assert_eq!(parsed.key.protocol, Protocol::Udp);
        assert_eq!(parsed.key.src_port, 100);
    }

    #[test]
    fn icmpv6_has_zero_ports() {
        let mut p = v6_udp(1, 1, 0, 0);
        p[6] = 58; // ICMPv6
        let parsed = parse_ipv6(&p).unwrap();
        assert_eq!(parsed.key.protocol, Protocol::Icmp);
        assert_eq!(parsed.key.src_port, 0);
    }

    #[test]
    fn rejects_truncation_and_bad_version() {
        assert!(matches!(
            parse_ipv6(&[0x60; 10]),
            Err(ParseError::Truncated { layer: "ipv6", .. })
        ));
        let mut p = v6_udp(1, 1, 1, 1);
        p[0] = 0x40;
        assert_eq!(parse_ipv6(&p).unwrap_err(), ParseError::UnsupportedIpVersion(4));
        // Truncated right after the base header with TCP next: ports missing.
        let mut p = v6_udp(1, 1, 1, 1);
        p[6] = 6;
        p.truncate(IPV6_HEADER_LEN + 2);
        assert!(matches!(parse_ipv6(&p), Err(ParseError::Truncated { layer: "l4-ports", .. })));
    }

    #[test]
    fn oversized_extension_length_is_a_truncation_error() {
        // A hop-by-hop header claiming the maximum length (255 => 2048
        // bytes) in a short packet must report truncation, not index past
        // the buffer.
        let mut p = v6_udp(1, 1, 1, 1);
        p[6] = 0; // next = hop-by-hop
        p.extend_from_slice(&[17, 255, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(parse_ipv6(&p), Err(ParseError::Truncated { layer: "ipv6-ext", .. })));
    }

    #[test]
    fn fragment_header_cut_short_is_a_frag_truncation() {
        let mut p = v6_udp(1, 1, 1, 1);
        p[6] = 44; // next = fragment
        p.truncate(IPV6_HEADER_LEN);
        p.extend_from_slice(&[17, 0, 0]); // only 3 of 8 fragment bytes
        assert!(matches!(
            parse_ipv6(&p),
            Err(ParseError::Truncated { layer: "ipv6-frag", needed: 8, .. })
        ));
    }

    #[test]
    fn hostile_extension_chains_terminate() {
        // A self-referential hop-by-hop chain must not loop forever.
        let mut p = v6_udp(1, 1, 1, 1);
        p[6] = 0;
        for _ in 0..12 {
            p.extend_from_slice(&[0u8, 0, 0, 0, 0, 0, 0, 0]); // next=hbh, len=0
        }
        let _ = parse_ipv6(&p); // must return (Ok or Err), not hang
    }
}
