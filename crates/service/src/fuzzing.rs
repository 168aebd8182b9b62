//! Shared fuzz-target bodies for the wire protocol, in the same style as
//! `instameasure_packet::fuzzing`: each function upholds one contract —
//! **arbitrary bytes from an untrusted peer must produce a classified
//! `Ok`/`Err`, never a panic, overflow, unbounded allocation or
//! out-of-bounds access**. `tests/fuzz_smoke.rs` drives these bodies
//! with a bounded deterministic mutation budget in ordinary stable-Rust
//! CI.

use crate::wire::{
    decode_ingest_payload, read_frame, read_frame_into, write_frame, Frame, Opcode, Request,
    Response, DEFAULT_MAX_PAYLOAD,
};

/// Feeds arbitrary bytes to the frame reader and both message decoders.
/// Whatever decodes successfully must re-encode to a frame that decodes
/// to the same message (round-trip stability on the surviving subset).
/// The server's path — every frame read into one reused buffer, ingest
/// records decoded straight from it — must see exactly the frames and
/// records the allocating reader and [`Request::decode`] see.
pub fn fuzz_frame_stream(data: &[u8]) {
    let mut cursor = data;
    let mut reused = data;
    let mut buf = Vec::new();
    // Drain frames until the stream errors or ends; bounded because every
    // iteration consumes at least a header.
    loop {
        let frame = read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD);
        let into = read_frame_into(&mut reused, DEFAULT_MAX_PAYLOAD, &mut buf);
        let Ok(Some(frame)) = frame else {
            assert!(!matches!(into, Ok(Some(_))), "the reused-buffer reader read past the end");
            break;
        };
        let (opcode, len) = into.expect("both readers accept the same frame").expect("a frame");
        assert_eq!((opcode, &buf[..len]), (frame.opcode, frame.payload.as_slice()));
        if opcode == Opcode::IngestBatch {
            let direct: Option<Vec<_>> =
                decode_ingest_payload(&buf[..len]).ok().map(Iterator::collect);
            match Request::decode(&frame) {
                Ok(Request::IngestBatch(records)) => assert_eq!(direct, Some(records)),
                _ => assert!(direct.is_none(), "direct decode accepted a rejected batch"),
            }
        }
        check_roundtrip(&frame);
    }
}

/// Arbitrary bytes as a single frame payload under every opcode: both
/// decoders must classify or accept, never panic — and accepted messages
/// must round-trip.
pub fn fuzz_payloads(data: &[u8]) {
    for opcode_byte in [
        0x01u8, 0x02, 0x10, 0x11, 0x12, 0x13, 0x20, 0x21, 0x30, 0x82, 0x90, 0x91, 0x92, 0x93, 0xA0,
        0xB0, 0xB1, 0xFF,
    ] {
        let mut wire = Vec::with_capacity(crate::wire::HEADER_BYTES + data.len());
        wire.extend_from_slice(&crate::wire::MAGIC);
        wire.push(opcode_byte);
        wire.extend_from_slice(&(data.len() as u32).to_be_bytes());
        wire.extend_from_slice(data);
        if let Ok(Some(frame)) = read_frame(&mut wire.as_slice(), DEFAULT_MAX_PAYLOAD) {
            check_roundtrip(&frame);
        }
    }
}

fn check_roundtrip(frame: &Frame) {
    if let Ok(req) = Request::decode(frame) {
        let re = req.encode();
        let back = Request::decode(&re).expect("re-encoded request must decode");
        assert_eq!(back, req, "request round-trip diverged");
    }
    if let Ok(resp) = Response::decode(frame) {
        let re = resp.encode();
        let back = Response::decode(&re).expect("re-encoded response must decode");
        // Error messages survive lossy UTF-8 only one way; compare the
        // re-encoded form instead of the original bytes.
        assert_eq!(back.encode(), re, "response round-trip diverged");
    }
}

/// A truncation sweep: a valid frame cut at every byte boundary must
/// yield clean-EOF (cut == 0) or a classified truncation — and a frame
/// with each header byte corrupted must never panic.
pub fn fuzz_truncations(data: &[u8]) {
    let mut wire = Vec::new();
    write_frame(&mut wire, crate::wire::Opcode::IngestBatch, data).expect("vec write");
    for cut in 0..wire.len() {
        let _ = read_frame(&mut &wire[..cut], DEFAULT_MAX_PAYLOAD);
    }
    for i in 0..wire.len().min(crate::wire::HEADER_BYTES) {
        let mut corrupt = wire.clone();
        corrupt[i] ^= 0xFF;
        let _ = read_frame(&mut corrupt.as_slice(), DEFAULT_MAX_PAYLOAD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};

    #[test]
    fn bodies_accept_valid_and_corrupt_inputs() {
        let key = FlowKey::new([10, 0, 0, 1], [10, 0, 0, 2], 4242, 443, Protocol::Udp);
        let records: Vec<PacketRecord> = (0..9).map(|t| PacketRecord::new(key, 900, t)).collect();
        let frame = Request::IngestBatch(records).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
        fuzz_frame_stream(&wire);
        fuzz_payloads(&frame.payload);
        fuzz_truncations(&frame.payload);
        // Garbage too.
        fuzz_frame_stream(b"\xFF\x00garbage that is not a frame at all");
        fuzz_payloads(b"\x00\x00\x00\x02short");
    }

    #[test]
    fn bodies_cover_subscribe_and_alert_frames() {
        use instameasure_core::detect::{Anomaly, AnomalyKind, Subject};
        let sub = Request::Subscribe { kinds: 0x05 }.encode();
        let alert = Response::Alert {
            epoch: 3,
            anomaly: Anomaly {
                kind: AnomalyKind::EntropyShift,
                subject: Subject::Flow(FlowKey::new(
                    [1, 2, 3, 4],
                    [5, 6, 7, 8],
                    9,
                    10,
                    Protocol::Tcp,
                )),
                score: -0.4,
                threshold: 0.25,
            },
        }
        .encode();
        for frame in [&sub, &alert] {
            let mut wire = Vec::new();
            write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
            fuzz_frame_stream(&wire);
            fuzz_payloads(&frame.payload);
            fuzz_truncations(&frame.payload);
        }
    }
}
