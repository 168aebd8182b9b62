//! Zero-copy parsers for Ethernet II / 802.1Q / IPv4 / TCP / UDP / ICMP.
//!
//! The parsers extract exactly what the measurement pipeline needs: the
//! 5-tuple [`FlowKey`] plus the IP total length. They tolerate trailing
//! bytes (Ethernet padding, snapped captures that still contain the full
//! L3/L4 headers) and reject malformed headers with precise errors.

use crate::{FlowKey, ParseError, Protocol};

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for an 802.1Q VLAN tag.
pub const ETHERTYPE_VLAN: u16 = 0x8100;
pub use crate::ipv6::ETHERTYPE_IPV6;
/// Length of an untagged Ethernet II header.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// The result of parsing a captured frame down to L4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsedPacket {
    /// The 5-tuple of the packet.
    pub key: FlowKey,
    /// Total length declared by the IPv4 header (L3 bytes).
    pub ip_total_len: u16,
    /// Number of 802.1Q VLAN tags skipped (0 or more).
    pub vlan_tags: u8,
}

/// Checks that `buf` holds at least `n` bytes.
#[inline]
pub(crate) fn need(layer: &'static str, buf: &[u8], n: usize) -> Result<(), ParseError> {
    if buf.len() < n {
        Err(ParseError::Truncated { layer, needed: n, available: buf.len() })
    } else {
        Ok(())
    }
}

/// Borrows the `N` bytes at `buf[offset..offset + N]` as a fixed-size array,
/// or reports how many bytes past `offset` were actually available. Checked
/// `get` all the way down: no offset, however hostile the input, can panic.
/// The error is built only on the failure path, so a successful `take`
/// costs one bounds check.
#[inline]
pub(crate) fn take<'a, const N: usize>(
    layer: &'static str,
    buf: &'a [u8],
    offset: usize,
) -> Result<&'a [u8; N], ParseError> {
    buf.get(offset..).and_then(|rest| rest.first_chunk::<N>()).ok_or_else(|| {
        ParseError::Truncated { layer, needed: N, available: buf.len().saturating_sub(offset) }
    })
}

/// Parses an Ethernet II frame (skipping any 802.1Q tags) down to the L4
/// 5-tuple.
///
/// # Errors
///
/// Returns [`ParseError`] if the frame is truncated, uses a non-IPv4
/// EtherType, or carries a malformed IPv4 header.
///
/// # Example
///
/// ```
/// use instameasure_packet::{parse, synth, FlowKey, PacketRecord, Protocol};
/// let key = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 1000, 80, Protocol::Udp);
/// let frame = synth::synthesize_frame(&PacketRecord::new(key, 200, 0));
/// let parsed = parse::parse_ethernet(&frame)?;
/// assert_eq!(parsed.key, key);
/// # Ok::<(), instameasure_packet::ParseError>(())
/// ```
#[inline]
pub fn parse_ethernet(frame: &[u8]) -> Result<ParsedPacket, ParseError> {
    need("ethernet", frame, ETHERNET_HEADER_LEN)?;
    let mut offset = 12;
    let mut vlan_tags = 0u8;
    let mut ethertype = u16::from_be_bytes(*take::<2>("ethernet", frame, offset)?);
    offset += 2;
    while ethertype == ETHERTYPE_VLAN {
        let tag = take::<4>("vlan", frame, offset)?;
        ethertype = u16::from_be_bytes([tag[2], tag[3]]);
        offset += 4;
        // Saturate: a frame stuffed with >255 tags is hostile input, not an
        // excuse to overflow.
        vlan_tags = vlan_tags.saturating_add(1);
    }
    let rest = frame.get(offset..).unwrap_or(&[]);
    match ethertype {
        ETHERTYPE_IPV4 => {
            let parsed = parse_ipv4(rest)?;
            Ok(ParsedPacket { vlan_tags, ..parsed })
        }
        ETHERTYPE_IPV6 => {
            // Dual-stack: parse v6 and map into the measurement keyspace
            // (see the ipv6 module docs).
            let v6 = crate::ipv6::parse_ipv6(rest)?;
            Ok(ParsedPacket {
                key: v6.key,
                ip_total_len: (crate::ipv6::IPV6_HEADER_LEN as u16).saturating_add(v6.payload_len),
                vlan_tags,
            })
        }
        other => Err(ParseError::UnsupportedEtherType(other)),
    }
}

/// Parses an IPv4 packet (starting at the IP header) down to the 5-tuple.
///
/// Handles IPv4 options (IHL > 5). For TCP and UDP the ports are read from
/// the transport header; for every other protocol the ports are zero.
///
/// # Errors
///
/// Returns [`ParseError`] on truncation, a version nibble ≠ 4, or an IHL
/// below 5.
#[inline]
pub fn parse_ipv4(buf: &[u8]) -> Result<ParsedPacket, ParseError> {
    let hdr = take::<20>("ipv4", buf, 0)?;
    let version = hdr[0] >> 4;
    if version != 4 {
        return Err(ParseError::UnsupportedIpVersion(version));
    }
    let ihl = hdr[0] & 0x0F;
    if ihl < 5 {
        return Err(ParseError::BadIpv4HeaderLength(ihl));
    }
    let header_len = usize::from(ihl) * 4;
    need("ipv4-options", buf, header_len)?;
    let ip_total_len = u16::from_be_bytes([hdr[2], hdr[3]]);
    let protocol = Protocol::from_number(hdr[9]);
    let src_ip = [hdr[12], hdr[13], hdr[14], hdr[15]];
    let dst_ip = [hdr[16], hdr[17], hdr[18], hdr[19]];

    let (src_port, dst_port) = match protocol {
        Protocol::Tcp | Protocol::Udp => {
            let l4 = take::<4>("l4-ports", buf, header_len)?;
            (u16::from_be_bytes([l4[0], l4[1]]), u16::from_be_bytes([l4[2], l4[3]]))
        }
        _ => (0, 0),
    };

    Ok(ParsedPacket {
        key: FlowKey::new(src_ip, dst_ip, src_port, dst_port, protocol),
        ip_total_len,
        vlan_tags: 0,
    })
}

/// Computes the standard Internet checksum (RFC 1071) over `data`.
///
/// Used by the frame synthesizer; exposed publicly so tests and tools can
/// validate synthesized headers.
#[must_use]
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for ch in &mut chunks {
        sum += u32::from(u16::from_be_bytes([ch[0], ch[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_frame;
    use crate::PacketRecord;

    fn sample_key() -> FlowKey {
        FlowKey::new([10, 1, 2, 3], [172, 16, 0, 9], 5555, 53, Protocol::Udp)
    }

    #[test]
    fn parses_synthesized_udp() {
        let frame = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        let p = parse_ethernet(&frame).unwrap();
        assert_eq!(p.key, sample_key());
        assert_eq!(p.vlan_tags, 0);
    }

    #[test]
    fn parses_synthesized_tcp_and_icmp() {
        for proto in [Protocol::Tcp, Protocol::Icmp, Protocol::Other(47)] {
            let mut key = sample_key();
            key.protocol = proto;
            if !matches!(proto, Protocol::Tcp | Protocol::Udp) {
                key.src_port = 0;
                key.dst_port = 0;
            }
            let frame = synthesize_frame(&PacketRecord::new(key, 80, 0));
            let p = parse_ethernet(&frame).unwrap();
            assert_eq!(p.key, key, "{proto}");
        }
    }

    #[test]
    fn rejects_truncated_ethernet() {
        let err = parse_ethernet(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { layer: "ethernet", .. }));
    }

    #[test]
    fn rejects_non_ip_ethertype() {
        let mut frame = vec![0u8; 60];
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        assert_eq!(parse_ethernet(&frame).unwrap_err(), ParseError::UnsupportedEtherType(0x0806));
    }

    #[test]
    fn parses_ipv6_frames_into_mapped_keys() {
        // Ethernet header + minimal IPv6/UDP packet.
        let mut frame = vec![0u8; ETHERNET_HEADER_LEN];
        frame[12] = 0x86;
        frame[13] = 0xDD;
        let mut v6 = vec![0u8; 48];
        v6[0] = 0x60;
        v6[4..6].copy_from_slice(&8u16.to_be_bytes());
        v6[6] = 17;
        v6[23] = 7; // src ::7
        v6[39] = 8; // dst ::8
        v6[40..42].copy_from_slice(&4444u16.to_be_bytes());
        v6[42..44].copy_from_slice(&53u16.to_be_bytes());
        frame.extend_from_slice(&v6);
        let p = parse_ethernet(&frame).unwrap();
        assert_eq!(p.key.protocol, Protocol::Udp);
        assert_eq!(p.key.src_port, 4444);
        assert_eq!(p.key.dst_port, 53);
        assert_eq!(p.ip_total_len, 48);
        // The mapped pseudo-addresses are deterministic and distinct.
        assert_ne!(p.key.src_ip, p.key.dst_ip);
        assert_eq!(parse_ethernet(&frame).unwrap().key, p.key);
    }

    #[test]
    fn rejects_bad_ip_version_and_ihl() {
        let mut buf = vec![0u8; 40];
        buf[0] = 0x60; // version 6
        assert_eq!(parse_ipv4(&buf).unwrap_err(), ParseError::UnsupportedIpVersion(6));
        buf[0] = 0x43; // version 4, IHL 3
        assert_eq!(parse_ipv4(&buf).unwrap_err(), ParseError::BadIpv4HeaderLength(3));
    }

    #[test]
    fn rejects_truncated_l4() {
        let frame = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        // Cut the frame right after the IP header: ports unreachable.
        let cut = &frame[..ETHERNET_HEADER_LEN + 20 + 2];
        let err = parse_ethernet(cut).unwrap_err();
        assert!(matches!(err, ParseError::Truncated { layer: "l4-ports", .. }));
    }

    #[test]
    fn handles_vlan_tag() {
        let inner = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        let mut tagged = Vec::new();
        tagged.extend_from_slice(&inner[..12]);
        tagged.extend_from_slice(&[0x81, 0x00, 0x00, 0x64]); // VLAN 100
        tagged.extend_from_slice(&inner[12..]);
        let p = parse_ethernet(&tagged).unwrap();
        assert_eq!(p.key, sample_key());
        assert_eq!(p.vlan_tags, 1);
    }

    #[test]
    fn handles_ipv4_options() {
        let frame = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        let ip_start = ETHERNET_HEADER_LEN;
        let mut with_opts = frame[ip_start..ip_start + 20].to_vec();
        with_opts[0] = 0x46; // IHL 6
        with_opts.extend_from_slice(&[1, 1, 1, 1]); // 4 bytes of NOP options
        with_opts.extend_from_slice(&frame[ip_start + 20..]);
        let p = parse_ipv4(&with_opts).unwrap();
        assert_eq!(p.key, sample_key());
    }

    #[test]
    fn vlan_tag_flood_saturates_instead_of_overflowing() {
        // 300 stacked 802.1Q tags: the tag counter must saturate at 255, not
        // overflow, and the inner IPv4 packet must still parse.
        let inner = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        let mut tagged = Vec::new();
        tagged.extend_from_slice(&inner[..12]);
        for _ in 0..300 {
            tagged.extend_from_slice(&[0x81, 0x00, 0x00, 0x64]);
        }
        tagged.extend_from_slice(&inner[12..]);
        let p = parse_ethernet(&tagged).unwrap();
        assert_eq!(p.key, sample_key());
        assert_eq!(p.vlan_tags, u8::MAX);
    }

    #[test]
    fn vlan_tag_cut_mid_tag_is_a_vlan_truncation() {
        let inner = synthesize_frame(&PacketRecord::new(sample_key(), 120, 0));
        let mut tagged = Vec::new();
        tagged.extend_from_slice(&inner[..12]);
        // 0x8100 is consumed as the ethertype; the 4-byte TCI+ethertype tag
        // body that must follow is cut after 1 byte.
        tagged.extend_from_slice(&[0x81, 0x00, 0x00]);
        let err = parse_ethernet(&tagged).unwrap_err();
        assert_eq!(err, ParseError::Truncated { layer: "vlan", needed: 4, available: 1 });
    }

    #[test]
    fn take_never_panics_on_hostile_offsets() {
        let buf = [0u8; 4];
        assert!(take::<4>("x", &buf, 0).is_ok());
        assert!(matches!(
            take::<4>("x", &buf, 1),
            Err(ParseError::Truncated { needed: 4, available: 3, .. })
        ));
        assert!(matches!(
            take::<1>("x", &buf, usize::MAX),
            Err(ParseError::Truncated { available: 0, .. })
        ));
    }

    #[test]
    fn checksum_matches_rfc1071_example() {
        // Example from RFC 1071 §3: words 0001 f203 f4f5 f6f7 -> checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn synthesized_ip_checksum_validates() {
        let frame = synthesize_frame(&PacketRecord::new(sample_key(), 200, 0));
        let ip = &frame[ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + 20];
        assert_eq!(internet_checksum(ip), 0, "checksum over header incl. checksum field is 0");
    }
}
