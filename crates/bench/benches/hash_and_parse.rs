//! Micro-bench: flow hashing and frame parsing — the per-packet fixed
//! costs in front of the sketch.

use std::io::Read;

use instameasure_bench::harness::{self, Timer};
use instameasure_packet::chunk::{PcapChunkReader, RecordStream};
use instameasure_packet::pcap::{read_records, PcapWriter, TsResolution};
use instameasure_packet::{hash, parse, synth, FlowKey, PacketRecord, Protocol};

fn hash_and_parse(samples: usize) {
    let keys: Vec<FlowKey> = (0..1024u32)
        .map(|i| FlowKey::new(i.to_be_bytes(), (!i).to_be_bytes(), 80, 443, Protocol::Tcp))
        .collect();
    let frames: Vec<Vec<u8>> =
        keys.iter().map(|k| synth::synthesize_frame(&PacketRecord::new(*k, 300, 0))).collect();

    let (timer, _) = Timer::repeat(samples, || {
        let mut acc = 0u64;
        for k in &keys {
            acc ^= hash::flow_hash64(k, 7);
        }
        acc
    });
    timer.print("per_packet_fixed_costs/flow_hash64", keys.len());

    let (timer, _) = Timer::repeat(samples, || {
        let mut total = 0u32;
        for f in &frames {
            total += u32::from(parse::parse_ethernet(f).unwrap().key.src_port);
        }
        total
    });
    timer.print("per_packet_fixed_costs/parse_ethernet", frames.len());
}

/// Read+parse throughput over a full capture: the owned-buffer
/// `read_records` baseline against the zero-copy chunk reader, both over an
/// in-memory capture and a real mapped file. The acceptance bar for the
/// zero-copy work is ≥1.5× the owned path on the streamed drain.
fn pcap_ingest(samples: usize) {
    const PACKETS: u32 = 1_000_000;
    let path =
        std::env::temp_dir().join(format!("instameasure_bench_ingest_{}.pcap", std::process::id()));
    let out = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let mut w = PcapWriter::new(out, TsResolution::Nano).unwrap();
    for i in 0..PACKETS {
        let key = FlowKey::new(
            (i % 65_536).to_be_bytes(),
            (!i).to_be_bytes(),
            (i % 50_000) as u16,
            443,
            Protocol::Tcp,
        );
        let rec = PacketRecord::new(key, 60 + (i % 1400) as u16, u64::from(i) * 800);
        w.write_packet(rec.ts_nanos, &synth::synthesize_frame(&rec)).unwrap();
    }
    w.into_inner().unwrap().into_inner().unwrap();
    let file = std::fs::read(&path).unwrap();

    let print = |name: &str, (timer, _): (Timer, _)| {
        timer.print(&format!("pcap_ingest/{name}"), PACKETS as usize);
    };
    // Baseline: the pre-zero-copy CLI path — buffered file reads, every
    // record body copied out, the whole record vector collected.
    let file_reader = || std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    print("owned_read_records_file", Timer::repeat(samples, || owned(file_reader())));
    // Owned reader over pre-loaded bytes: isolates the copy/collect cost
    // from file I/O.
    print("owned_read_records_mem", Timer::repeat(samples, || owned(&file[..])));
    // Zero-copy streamed drain of the same in-memory bytes: borrowed views
    // parsed in place, no per-packet allocation, nothing collected.
    let from_mem = || PcapChunkReader::from_reader(&file[..]).unwrap();
    print("zero_copy_stream", Timer::repeat(samples, || drain(from_mem(), PACKETS)));
    // Same drain straight out of a file mapping (page cache hot).
    let mapped = || PcapChunkReader::open(&path).unwrap();
    print("zero_copy_mmap", Timer::repeat(samples, || drain(mapped(), PACKETS)));
    std::fs::remove_file(&path).ok();
}

/// Reads a whole capture into owned records; returns how many.
fn owned(reader: impl Read) -> u64 {
    let (records, skipped) = read_records(reader).unwrap();
    assert_eq!(skipped, 0);
    records.len() as u64
}

/// Streams a capture through borrowed views, checking every packet came out.
fn drain<R: Read>(reader: PcapChunkReader<R>, packets: u32) -> u64 {
    let mut stream = RecordStream::new(reader);
    let (mut seen, mut acc) = (0u64, 0u64);
    for rec in stream.by_ref() {
        seen += 1;
        acc ^= u64::from(rec.key.src_port);
    }
    stream.finish().unwrap();
    assert_eq!(seen, u64::from(packets));
    acc
}

fn main() {
    let smoke = harness::smoke();
    hash_and_parse(if smoke { 1 } else { 20 });
    pcap_ingest(if smoke { 1 } else { 10 });
}
