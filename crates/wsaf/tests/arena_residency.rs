//! A new table leaves its slot arena untouched: building a 2^20-slot WSAF
//! must not make its 56 MB of slots resident. Alone in its own test binary
//! because it measures the whole process's resident set.
#![cfg(target_os = "linux")]

use instameasure_wsaf::{WsafConfig, WsafTable};

/// Resident bytes of this process: `/proc/self/statm`'s resident page
/// count times the page size.
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm.split_whitespace().nth(1).and_then(|f| f.parse().ok()).unwrap();
    pages * page_size()
}

/// The kernel's page size: the `AT_PAGESZ` entry of `/proc/self/auxv`,
/// whose entries are pairs of native-endian words.
fn page_size() -> u64 {
    const AT_PAGESZ: usize = 6;
    const WORD: usize = std::mem::size_of::<usize>();
    let auxv = std::fs::read("/proc/self/auxv").expect("read /proc/self/auxv");
    let word = |b: &[u8]| usize::from_ne_bytes(b.try_into().unwrap());
    let entry = auxv.chunks_exact(2 * WORD).find(|e| word(&e[..WORD]) == AT_PAGESZ);
    word(&entry.expect("AT_PAGESZ in auxv")[WORD..]) as u64
}

#[test]
fn a_new_table_leaves_its_arena_untouched() {
    const MB: u64 = 1 << 20;
    let cfg = WsafConfig::builder().entries_log2(20).build().unwrap();
    // Warm up the readers so their own allocations are not counted.
    let _ = resident_bytes();
    let before = resident_bytes();
    let table = WsafTable::new(cfg);
    let grown = resident_bytes().saturating_sub(before);
    // Only the boot step is bounded: once inserts write slots, pages fault
    // in 4 KB at a time, or 2 MB at a time with transparent huge pages set
    // to `always`.
    assert!(grown < 2 * MB, "WsafTable::new made {grown} bytes resident");
    assert!(table.is_empty());
}
