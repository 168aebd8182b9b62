//! The probe-limited, second-chance WSAF hash table.

use instameasure_packet::{prefetch, FlowDigest, FlowKey};
use instameasure_telemetry::{Instrumented, LogHistogram, Snapshot};

use crate::config::WsafConfig;

/// One pending WSAF accumulation, carrying the flow's hash-once digest so
/// the table can derive its probe hash without rehashing the key bytes —
/// the unit of [`WsafTable::accumulate_batch`].
///
/// Mirrors the sketch crate's `FlowUpdate` (this crate sits below it in
/// the dependency order, so it declares its own type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WsafDeposit {
    /// The flow being credited.
    pub key: FlowKey,
    /// The flow's hash-once digest.
    pub digest: FlowDigest,
    /// Estimated packets to accumulate.
    pub est_pkts: f64,
    /// Estimated bytes to accumulate.
    pub est_bytes: f64,
    /// Timestamp of the triggering packet (nanoseconds).
    pub ts: u64,
}

/// One WSAF record: the paper's 33-byte entry (flow id, packet counter,
/// byte counter, timestamp, 5-tuple) plus the second-chance reference bit.
///
/// Counters are `f64` because the FlowRegulator releases fractional
/// estimates; the paper stores rounded 32-bit values. Two entries are
/// equal when their public fields are; the table's private row index
/// does not take part.
#[derive(Debug, Clone, Copy)]
pub struct FlowEntry {
    /// 32-bit hash of the 5-tuple, the fast comparison key.
    pub flow_id: u32,
    /// The full 5-tuple.
    pub key: FlowKey,
    /// Accumulated packet estimate.
    pub packets: f64,
    /// Accumulated byte estimate.
    pub bytes: f64,
    /// Timestamp of the last accumulation (nanoseconds).
    pub last_ts: u64,
    /// Timestamp of the first accumulation (nanoseconds) — lets queries
    /// compute flow age and rates.
    pub first_ts: u64,
    /// Second-chance reference bit.
    pub referenced: bool,
    /// Index of this entry's row in the table's rank rows, meaningful
    /// while its slot is live. It sits in what would be padding.
    row: u32,
}

// The row index must not grow the entry past the padding it fills.
const _: () = assert!(std::mem::size_of::<FlowEntry>() == 56);

impl PartialEq for FlowEntry {
    fn eq(&self, other: &Self) -> bool {
        self.flow_id == other.flow_id
            && self.key == other.key
            && self.packets == other.packets
            && self.bytes == other.bytes
            && self.last_ts == other.last_ts
            && self.first_ts == other.first_ts
            && self.referenced == other.referenced
    }
}

/// A live entry's counters, copied beside the arena so that top-k ranks
/// one contiguous 24-byte row per live flow instead of reading one
/// 56-byte entry per flow scattered over the slot arena.
#[derive(Debug, Clone, Copy)]
struct Row {
    packets: f64,
    bytes: f64,
    /// The slot whose entry this row mirrors.
    slot: u32,
}

impl Row {
    fn of(entry: &FlowEntry, slot: usize) -> Row {
        Row { packets: entry.packets, bytes: entry.bytes, slot: slot as u32 }
    }
}

/// What [`WsafTable::accumulate`] did with an update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccumulateOutcome {
    /// The flow already had an entry; counters were increased.
    Updated,
    /// A fresh entry was created in an empty slot.
    Inserted,
    /// An expired entry was garbage-collected to make room.
    InsertedAfterGc {
        /// The reclaimed flow.
        evicted: FlowKey,
    },
    /// A live entry lost its second chance and was replaced.
    InsertedAfterEviction {
        /// The evicted flow.
        evicted: FlowKey,
        /// The packet count the evicted flow had accumulated.
        evicted_packets: f64,
    },
}

/// Operation counters for the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WsafStats {
    /// Calls to [`WsafTable::accumulate`].
    pub accumulates: u64,
    /// Updates of existing entries.
    pub updates: u64,
    /// Insertions into empty slots.
    pub inserts: u64,
    /// Expired entries reclaimed by garbage collection.
    pub gc_reclaims: u64,
    /// Live entries evicted by second-chance replacement.
    pub evictions: u64,
    /// Total slots probed by [`WsafTable::accumulate`].
    pub probes: u64,
}

impl WsafStats {
    /// Average slots probed per accumulate — the DRAM-cost proxy.
    #[must_use]
    pub fn probes_per_op(&self) -> f64 {
        if self.accumulates == 0 {
            0.0
        } else {
            self.probes as f64 / self.accumulates as f64
        }
    }
}

/// The `i`-th slot of the triangular quadratic probe sequence starting at
/// `base`: `(base + (i + i²)/2) mod capacity`.
///
/// `capacity` must be a power of two; then the first `capacity` probes
/// visit all `capacity` distinct slots (triangular numbers are a complete
/// residue cycle mod 2ⁿ), so the probe window never revisits a slot — a
/// property the wsaf test suite checks for every table size.
///
/// # Panics
///
/// Debug-asserts that `capacity` is a power of two.
#[inline]
#[must_use]
pub fn triangular_probe_slot(base: u64, i: u64, capacity: usize) -> usize {
    debug_assert!(capacity.is_power_of_two(), "probe arithmetic requires a power-of-two table");
    let offset = i.wrapping_mul(i).wrapping_add(i) / 2;
    ((base.wrapping_add(offset)) & (capacity as u64 - 1)) as usize
}

/// Positions of the set bits of `word`, ascending.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// `slots` all-zero entries from one zeroed allocation. Nothing is
/// written here: a large arena comes from fresh anonymous pages, which the
/// kernel maps on demand, so a page of slots becomes resident only when
/// an insert first writes to it.
#[allow(unsafe_code)]
fn zeroed_arena(slots: usize) -> Vec<FlowEntry> {
    let arena = Box::<[FlowEntry]>::new_zeroed_slice(slots);
    // SAFETY: all-zero bytes are a valid `FlowEntry`. Its integers (the
    // row index too) are 0, its floats 0.0, `referenced` is `false`, and
    // the key's addresses and ports are zeros. The key's `Protocol` is `#[repr(u8)]`, so its first
    // byte is the tag and tag 0 is `Tcp`, which carries no payload.
    unsafe { arena.assume_init() }.into_vec()
}

/// The working set of active flows (see crate docs).
///
/// Occupancy lives only in `occupied`, one bit per slot. The bytes of an
/// entry whose bit is clear are stale and never read: every path that
/// sets a bit writes the whole entry first, so [`WsafTable::clear`]
/// zeroes the bitmap and leaves `entries` as they are.
///
/// Each live entry also owns one row of `rows`, which mirrors its
/// counters: the entry holds the row's index and the row holds the
/// entry's slot. Every path that writes a live entry's counters writes
/// its row, and freeing a slot swap-removes its row, so the rows stay
/// dense and their count is the live count.
#[derive(Debug, Clone)]
pub struct WsafTable {
    cfg: WsafConfig,
    entries: Vec<FlowEntry>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` holds a live entry.
    occupied: Vec<u64>,
    /// One row per live entry, in no particular order.
    rows: Vec<Row>,
    stats: WsafStats,
    /// Distribution of slots probed per [`WsafTable::accumulate`] — the
    /// paper's DRAM-cost metric, resolved beyond the average in `stats`.
    probe_hist: LogHistogram,
}

impl WsafTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new(cfg: WsafConfig) -> Self {
        let slots = cfg.num_entries();
        WsafTable {
            cfg,
            entries: zeroed_arena(slots),
            occupied: vec![0; slots.div_ceil(64)],
            rows: Vec::new(),
            stats: WsafStats::default(),
            probe_hist: LogHistogram::new(),
        }
    }

    /// The table's configuration.
    #[must_use]
    pub fn config(&self) -> &WsafConfig {
        &self.cfg
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Live entries divided by capacity.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        self.len() as f64 / self.entries.len() as f64
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> WsafStats {
        self.stats
    }

    /// The table's probe hash of a flow key: one [`FlowDigest`] of the key
    /// bytes, then the table's seed-derived lane. Query layers that
    /// already hold the hash can pass it to the `*_hashed` variants below
    /// instead of rehashing.
    #[inline]
    #[must_use]
    pub fn hash_key(&self, key: &FlowKey) -> u64 {
        self.hash_digest(FlowDigest::of(key))
    }

    /// Derives the table's probe hash from a precomputed digest — the
    /// hash-once hot path (no key bytes touched).
    #[inline]
    #[must_use]
    pub fn hash_digest(&self, digest: FlowDigest) -> u64 {
        digest.lane(self.cfg.seed())
    }

    /// Hints the CPU to pull the first probe slot of hash `h` — its
    /// occupancy word and its entry — toward L1 cache. Purely advisory;
    /// the batched accumulate loop issues this for deposit `i + K` while
    /// finishing deposit `i`.
    #[inline]
    pub fn prefetch_hashed(&self, h: u64) {
        let idx = triangular_probe_slot(h, 0, self.entries.len());
        prefetch::prefetch_read_index(&self.occupied, idx / 64);
        prefetch::prefetch_read_index(&self.entries, idx);
    }

    /// The probe sequence: triangular quadratic `base + (i + i²)/2 mod m`.
    /// With `m` a power of two this visits every slot over a full cycle.
    #[inline]
    fn probe_index(&self, base: u64, i: usize) -> usize {
        triangular_probe_slot(base, i as u64, self.entries.len())
    }

    /// Whether slot `idx` holds a live entry.
    #[inline]
    fn is_live(&self, idx: usize) -> bool {
        self.occupied[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Accumulates `(est_pkts, est_bytes)` into the flow's entry, creating
    /// one if needed — the `ACC_WSAF` step of the paper's Algorithm 1.
    ///
    /// The probe window is scanned once; on a full window the replacement
    /// policy runs (expired-first garbage collection, then second-chance
    /// eviction of the smallest unreferenced entry).
    pub fn accumulate(
        &mut self,
        key: &FlowKey,
        est_pkts: f64,
        est_bytes: f64,
        ts: u64,
    ) -> AccumulateOutcome {
        self.accumulate_hashed(key, self.hash_key(key), est_pkts, est_bytes, ts)
    }

    /// [`WsafTable::accumulate`] with the probe hash already computed
    /// (`h` must equal `self.hash_key(key)`).
    #[inline]
    pub fn accumulate_hashed(
        &mut self,
        key: &FlowKey,
        h: u64,
        est_pkts: f64,
        est_bytes: f64,
        ts: u64,
    ) -> AccumulateOutcome {
        self.stats.accumulates += 1;
        let flow_id = (h >> 32) as u32;

        let mut first_empty: Option<usize> = None;
        let mut expired: Option<usize> = None;
        let mut probed = [0usize; 64];
        let window = self.cfg.probe_limit(); // validated to be <= 64

        for (i, probed_slot) in probed.iter_mut().enumerate().take(window) {
            let idx = self.probe_index(h, i);
            *probed_slot = idx;
            self.stats.probes += 1;
            if !self.is_live(idx) {
                if first_empty.is_none() {
                    first_empty = Some(idx);
                }
                continue;
            }
            let entry = &mut self.entries[idx];
            if entry.flow_id == flow_id && entry.key == *key {
                entry.packets += est_pkts;
                entry.bytes += est_bytes;
                entry.last_ts = ts;
                entry.referenced = true;
                let row = &mut self.rows[entry.row as usize];
                row.packets = entry.packets;
                row.bytes = entry.bytes;
                self.stats.updates += 1;
                self.probe_hist.observe(i as u64 + 1);
                return AccumulateOutcome::Updated;
            }
            if expired.is_none() && ts.saturating_sub(entry.last_ts) > self.cfg.expiry_nanos() {
                expired = Some(idx);
            }
        }

        self.probe_hist.observe(window as u64);

        let fresh = FlowEntry {
            flow_id,
            key: *key,
            packets: est_pkts,
            bytes: est_bytes,
            last_ts: ts,
            first_ts: ts,
            referenced: true,
            row: self.rows.len() as u32,
        };

        if let Some(idx) = first_empty {
            self.entries[idx] = fresh;
            self.rows.push(Row::of(&fresh, idx));
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.stats.inserts += 1;
            return AccumulateOutcome::Inserted;
        }

        // From here on the window is full: every probed slot is live.

        // Garbage collection: reclaim an expired entry if the window holds
        // one (paper: GC piggybacks on the insertion probe).
        if let Some(idx) = expired {
            let evicted = self.replace(idx, fresh).key;
            self.stats.gc_reclaims += 1;
            self.stats.inserts += 1;
            return AccumulateOutcome::InsertedAfterGc { evicted };
        }

        let idx = match self.cfg.eviction() {
            crate::EvictionPolicy::SecondChance => {
                // Paper's policy: among unreferenced entries pick the
                // least significant (fewest packets); clear reference bits
                // so the window's entries must re-earn their stay.
                let mut victim: Option<(usize, f64)> = None;
                for &idx in &probed[..window] {
                    let entry = &mut self.entries[idx];
                    if entry.referenced {
                        entry.referenced = false; // second chance spent
                    } else if victim.is_none_or(|(_, p)| entry.packets < p) {
                        victim = Some((idx, entry.packets));
                    }
                }
                // Everyone was referenced: fall back to the minimum of the
                // (now unreferenced) window.
                victim.unwrap_or_else(|| self.window_min(&probed[..window], |e| e.packets)).0
            }
            crate::EvictionPolicy::MinPackets => {
                self.window_min(&probed[..window], |e| e.packets).0
            }
            crate::EvictionPolicy::Oldest => {
                self.window_min(&probed[..window], |e| e.last_ts as f64).0
            }
        };
        let old = self.replace(idx, fresh);
        self.stats.evictions += 1;
        self.stats.inserts += 1;
        AccumulateOutcome::InsertedAfterEviction { evicted: old.key, evicted_packets: old.packets }
    }

    /// Overwrites live slot `idx` with `fresh`, which takes over the old
    /// entry's row; returns the old entry.
    fn replace(&mut self, idx: usize, fresh: FlowEntry) -> FlowEntry {
        let old = self.entries[idx];
        self.entries[idx] = FlowEntry { row: old.row, ..fresh };
        self.rows[old.row as usize] = Row::of(&fresh, idx);
        old
    }

    /// Frees live slot `idx`: clears its bit and swap-removes its row,
    /// repointing the entry whose row moves into the gap.
    fn release(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        let row = self.entries[idx].row as usize;
        self.rows.swap_remove(row);
        if let Some(moved) = self.rows.get(row) {
            self.entries[moved.slot as usize].row = row as u32;
        }
    }

    /// Index (and metric value) of the window entry minimizing `metric`.
    fn window_min(&self, window: &[usize], metric: impl Fn(&FlowEntry) -> f64) -> (usize, f64) {
        let mut best = (window[0], f64::INFINITY);
        for &idx in window {
            let m = metric(&self.entries[idx]);
            if m < best.1 {
                best = (idx, m);
            }
        }
        best
    }

    /// Accumulates a batch of deposits in order, prefetching the first
    /// probe slot of deposit `i + K` while finishing deposit `i` (K =
    /// [`prefetch::prefetch_distance`]). Bit-identical to calling
    /// [`WsafTable::accumulate`] on each deposit in order.
    pub fn accumulate_batch(&mut self, deposits: &[WsafDeposit]) {
        let k = prefetch::prefetch_distance();
        for d in deposits.iter().take(k) {
            self.prefetch_hashed(self.hash_digest(d.digest));
        }
        for (i, d) in deposits.iter().enumerate() {
            if let Some(ahead) = deposits.get(i + k) {
                self.prefetch_hashed(self.hash_digest(ahead.digest));
            }
            let h = self.hash_digest(d.digest);
            self.accumulate_hashed(&d.key, h, d.est_pkts, d.est_bytes, d.ts);
        }
    }

    /// The slot holding `key`'s live entry, if its probe window has one.
    /// Each probe tests the occupancy bit before it touches the entry.
    #[inline]
    fn find(&self, key: &FlowKey, h: u64) -> Option<usize> {
        let flow_id = (h >> 32) as u32;
        (0..self.cfg.probe_limit()).map(|i| self.probe_index(h, i)).find(|&idx| {
            self.is_live(idx)
                && self.entries[idx].flow_id == flow_id
                && self.entries[idx].key == *key
        })
    }

    /// Looks up a flow's entry (does not touch the reference bit).
    #[must_use]
    pub fn get(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.get_hashed(key, self.hash_key(key))
    }

    /// [`WsafTable::get`] with the probe hash already computed (`h` must
    /// equal `self.hash_key(key)`) — spares query layers that hash once
    /// for several structures a rehash of the key bytes.
    #[inline]
    #[must_use]
    pub fn get_hashed(&self, key: &FlowKey, h: u64) -> Option<&FlowEntry> {
        self.find(key, h).map(|idx| &self.entries[idx])
    }

    /// Removes a flow's entry, returning it if present.
    pub fn remove(&mut self, key: &FlowKey) -> Option<FlowEntry> {
        self.remove_hashed(key, self.hash_key(key))
    }

    /// [`WsafTable::remove`] with the probe hash already computed (`h`
    /// must equal `self.hash_key(key)`).
    pub fn remove_hashed(&mut self, key: &FlowKey, h: u64) -> Option<FlowEntry> {
        let idx = self.find(key, h)?;
        self.release(idx);
        Some(self.entries[idx])
    }

    /// Iterates over all live entries in ascending slot order. Walks the
    /// set bits of the occupancy bitmap, so the cost is O(live entries)
    /// plus one word read per 64 slots.
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.live_slots().map(|idx| &self.entries[idx])
    }

    /// The slots holding live entries, ascending.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word).map(move |bit| w * 64 + bit))
    }

    /// The `k` largest flows by packet count, descending.
    #[must_use]
    pub fn top_k_by_packets(&self, k: usize) -> Vec<FlowEntry> {
        self.top_k_by(k, |row| row.packets)
    }

    /// The `k` largest flows by byte count, descending.
    #[must_use]
    pub fn top_k_by_bytes(&self, k: usize) -> Vec<FlowEntry> {
        self.top_k_by(k, |row| row.bytes)
    }

    /// The `k` live entries ranked first by `metric` descending, then by
    /// slot ascending: the order a stable sort of [`WsafTable::iter`]
    /// gives, ties included. One sequential pass over the rows keeps at
    /// most `2k` candidates: whenever the buffer fills, an in-place select
    /// keeps the best `k`, and the `k`-th of them becomes the cut that
    /// every later row must beat. The arena is read only to copy out the
    /// winners.
    fn top_k_by(&self, k: usize, metric: impl Fn(&Row) -> f64) -> Vec<FlowEntry> {
        let rank = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(2 * k);
        let mut cut = None;
        for row in &self.rows {
            let ranked = (metric(row), row.slot);
            if cut.is_some_and(|cut| rank(&ranked, &cut).is_gt()) {
                continue;
            }
            best.push(ranked);
            if best.len() == 2 * k {
                // Everything before index `k - 1` now ranks ahead of it.
                best.select_nth_unstable_by(k - 1, rank);
                best.truncate(k);
                cut = Some(best[k - 1]);
            }
        }
        best.sort_unstable_by(rank);
        best.truncate(k);
        best.into_iter().map(|(_, slot)| self.entries[slot as usize]).collect()
    }

    /// Removes every entry idle longer than the expiry at time `now`
    /// (a walk of the live entries, for tests and explicit maintenance;
    /// normal operation relies on the lazy GC inside
    /// [`WsafTable::accumulate`]).
    pub fn sweep_expired(&mut self, now: u64) -> usize {
        let expiry = self.cfg.expiry_nanos();
        let before = self.len();
        for w in 0..self.occupied.len() {
            for bit in set_bits(self.occupied[w]) {
                let idx = w * 64 + bit;
                if now.saturating_sub(self.entries[idx].last_ts) > expiry {
                    self.release(idx);
                }
            }
        }
        let removed = before - self.len();
        self.stats.gc_reclaims += removed as u64;
        removed
    }

    /// Clears all entries and statistics. Only the occupancy bitmap and
    /// the rows are cleared; the stale entry bytes are overwritten when a
    /// slot is reused.
    pub fn clear(&mut self) {
        self.occupied.fill(0);
        self.rows.clear();
        self.stats = WsafStats::default();
        self.probe_hist.reset();
    }
}

impl Instrumented for WsafTable {
    /// Exports the table's counters under the `wsaf.` prefix.
    ///
    /// Counters: `accumulates`, `updates`, `inserts`, `gc_reclaims`,
    /// `evictions`, `probes`, `live_entries`. Histogram: `probe_len`
    /// (slots probed per accumulate). Gauges: `load_factor`,
    /// `probes_per_op` (mean slots probed per accumulate).
    fn telemetry(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.set_counter("wsaf.accumulates", self.stats.accumulates);
        snap.set_counter("wsaf.updates", self.stats.updates);
        snap.set_counter("wsaf.inserts", self.stats.inserts);
        snap.set_counter("wsaf.gc_reclaims", self.stats.gc_reclaims);
        snap.set_counter("wsaf.evictions", self.stats.evictions);
        snap.set_counter("wsaf.probes", self.stats.probes);
        snap.set_counter("wsaf.live_entries", self.len() as u64);
        snap.set_histogram("wsaf.probe_len", self.probe_hist.snapshot());
        snap.set_gauge("wsaf.load_factor", self.load_factor());
        snap.set_gauge("wsaf.probes_per_op", self.stats.probes_per_op());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WsafConfig;
    use instameasure_packet::Protocol;
    use proptest::prelude::*;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), (i ^ 0xABCD).to_be_bytes(), 80, 443, Protocol::Tcp)
    }

    fn small(log2: u32, probe: usize) -> WsafTable {
        WsafTable::new(
            WsafConfig::builder()
                .entries_log2(log2)
                .probe_limit(probe)
                .expiry_nanos(1_000)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn probe_sequence_visits_all_slots() {
        // Triangular probing over a power-of-two table is a permutation.
        for log2 in [4u32, 6, 8] {
            let t = small(log2, 1);
            let m = t.entries.len();
            let mut seen = vec![false; m];
            for i in 0..m {
                seen[t.probe_index(12345, i)] = true;
            }
            assert!(seen.iter().all(|&s| s), "m={m}: probe sequence misses slots");
        }
    }

    #[test]
    fn insert_update_get_roundtrip() {
        let mut t = small(8, 8);
        assert!(matches!(t.accumulate(&key(1), 5.0, 500.0, 10), AccumulateOutcome::Inserted));
        assert!(matches!(t.accumulate(&key(1), 2.0, 200.0, 20), AccumulateOutcome::Updated));
        let e = t.get(&key(1)).unwrap();
        assert_eq!(e.packets, 7.0);
        assert_eq!(e.bytes, 700.0);
        assert_eq!(e.first_ts, 10);
        assert_eq!(e.last_ts, 20);
        assert_eq!(t.len(), 1);
        assert!(t.get(&key(2)).is_none());
    }

    #[test]
    fn remove_frees_slot() {
        let mut t = small(8, 8);
        t.accumulate(&key(1), 1.0, 10.0, 0);
        assert_eq!(t.remove(&key(1)).unwrap().packets, 1.0);
        assert!(t.get(&key(1)).is_none());
        assert!(t.is_empty());
        assert!(t.remove(&key(1)).is_none());
    }

    #[test]
    fn distinct_flows_coexist() {
        let mut t = small(12, 16);
        for i in 0..1000 {
            t.accumulate(&key(i), f64::from(i), 0.0, 0);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000 {
            assert_eq!(t.get(&key(i)).unwrap().packets, f64::from(i), "flow {i}");
        }
    }

    #[test]
    fn gc_reclaims_expired_entries_first() {
        // Tiny table (4 slots, probe covers all): fill with old entries,
        // then insert at a time past expiry — GC must reclaim, not evict.
        let mut t = small(2, 4);
        for i in 0..10 {
            t.accumulate(&key(i), 100.0, 0.0, 0);
        }
        assert_eq!(t.len(), 4);
        let out = t.accumulate(&key(99), 1.0, 0.0, 10_000);
        assert!(
            matches!(out, AccumulateOutcome::InsertedAfterGc { .. }),
            "expected GC, got {out:?}"
        );
        assert!(t.stats().gc_reclaims >= 1);
    }

    #[test]
    fn second_chance_evicts_smallest_unreferenced() {
        let mut t = small(2, 4);
        // Fill all four slots within the expiry window.
        let mut inserted = Vec::new();
        for i in 0..100 {
            if matches!(
                t.accumulate(&key(i), f64::from(i + 1), 0.0, 0),
                AccumulateOutcome::Inserted
            ) {
                inserted.push(i);
                if inserted.len() == 4 {
                    break;
                }
            }
        }
        assert_eq!(inserted.len(), 4);
        // First overflowing insert only strips reference bits...
        let out1 = t.accumulate(&key(1000), 50.0, 0.0, 500);
        // ...but must still insert somewhere (fallback eviction).
        assert!(matches!(out1, AccumulateOutcome::InsertedAfterEviction { .. }));
        // Now reference bits of survivors are cleared; the next eviction
        // takes the minimum-packet victim.
        let before: Vec<(u32, f64)> = t.iter().map(|e| (e.flow_id, e.packets)).collect();
        let min_pkts = before.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
        let out2 = t.accumulate(&key(2000), 60.0, 0.0, 600);
        match out2 {
            AccumulateOutcome::InsertedAfterEviction { evicted_packets, .. } => {
                assert_eq!(evicted_packets, min_pkts, "evicts least significant entry");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn update_sets_reference_bit_protecting_elephants() {
        let mut t = small(2, 4);
        // Fill table; keep flow A hot by updating it.
        let mut filled = Vec::new();
        for i in 0..100 {
            if matches!(t.accumulate(&key(i), 10.0, 0.0, 0), AccumulateOutcome::Inserted) {
                filled.push(i);
                if filled.len() == 4 {
                    break;
                }
            }
        }
        let hot = filled[0];
        for round in 0..20u32 {
            t.accumulate(&key(hot), 10.0, 0.0, u64::from(round));
            t.accumulate(&key(500 + round), 1.0, 0.0, u64::from(round));
        }
        assert!(t.get(&key(hot)).is_some(), "hot elephant must survive churn");
    }

    #[test]
    fn stats_track_operations() {
        let mut t = small(8, 4);
        t.accumulate(&key(1), 1.0, 1.0, 0);
        t.accumulate(&key(1), 1.0, 1.0, 1);
        let _ = t.get(&key(1));
        let _ = t.get(&key(2));
        let s = t.stats();
        assert_eq!(s.accumulates, 2);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.updates, 1);
        assert!(s.probes > 0);
        assert!(s.probes_per_op() >= 1.0);
    }

    #[test]
    fn top_k_orders_by_metric() {
        let mut t = small(8, 8);
        for i in 0..10 {
            // Packet order ascending, byte order descending.
            t.accumulate(&key(i), f64::from(i), f64::from(100 - i), 0);
        }
        let by_pkts = t.top_k_by_packets(3);
        assert_eq!(by_pkts.iter().map(|e| e.packets as u32).collect::<Vec<_>>(), vec![9, 8, 7]);
        let by_bytes = t.top_k_by_bytes(3);
        assert_eq!(by_bytes.iter().map(|e| e.bytes as u32).collect::<Vec<_>>(), vec![100, 99, 98]);
        assert_eq!(t.top_k_by_packets(100).len(), 10, "k larger than table");
    }

    #[test]
    fn iter_walks_live_slots_in_ascending_order() {
        // 2^7 slots span two bitmap words.
        let mut t = small(7, 8);
        for i in 0..90 {
            t.accumulate(&key(i), 1.0, 0.0, 0);
        }
        t.remove(&key(3));
        let slots: Vec<usize> =
            t.iter().map(|e| t.find(&e.key, t.hash_key(&e.key)).unwrap()).collect();
        assert_eq!(slots.len(), t.len());
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slot order: {slots:?}");
        assert!(slots.iter().any(|&s| s >= 64), "the walk crosses into the second word");
    }

    #[test]
    fn sweep_expired_removes_idle_flows() {
        let mut t = small(8, 8);
        t.accumulate(&key(1), 1.0, 0.0, 0);
        t.accumulate(&key(2), 1.0, 0.0, 5_000);
        assert_eq!(t.sweep_expired(5_500), 1);
        assert!(t.get(&key(1)).is_none());
        assert!(t.get(&key(2)).is_some());
    }

    #[test]
    fn clear_resets() {
        let mut t = small(8, 8);
        t.accumulate(&key(1), 1.0, 0.0, 0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.stats(), WsafStats::default());
        assert_eq!(t.load_factor(), 0.0);
        // The entry's bytes stay behind a clear bit and are never read.
        assert!(t.get(&key(1)).is_none());
        assert_eq!(t.iter().count(), 0);
        assert!(matches!(t.accumulate(&key(1), 2.0, 0.0, 5), AccumulateOutcome::Inserted));
        assert_eq!(t.get(&key(1)).unwrap().first_ts, 5);
    }

    #[test]
    fn a_new_arena_reads_as_zeroed_tcp_entries() {
        // Reads slots no insert wrote, which nothing else does, so that
        // Miri checks every zeroed byte pattern is a valid `FlowEntry`.
        let t = small(6, 8);
        let zero = FlowEntry {
            flow_id: 0,
            key: FlowKey::new([0; 4], [0; 4], 0, 0, Protocol::Tcp),
            packets: 0.0,
            bytes: 0.0,
            last_ts: 0,
            first_ts: 0,
            referenced: false,
            row: 0,
        };
        assert_eq!(t.entries.len(), 64);
        assert!(t.entries.iter().all(|e| *e == zero && e.row == 0));
    }

    /// Each live slot's entry owns one row that points back at the slot
    /// and holds the entry's counters bit for bit, and no other row
    /// exists.
    fn assert_rows_in_step(t: &WsafTable) {
        let live: Vec<usize> = t.live_slots().collect();
        assert_eq!(live.len(), t.len(), "live slots against len()");
        assert_eq!(t.rows.len(), t.len(), "rows against len()");
        for slot in live {
            let entry = &t.entries[slot];
            let row = t.rows[entry.row as usize];
            assert_eq!(row.slot as usize, slot, "row {} belongs to another slot", entry.row);
            assert_eq!(row.packets.to_bits(), entry.packets.to_bits(), "slot {slot} packets");
            assert_eq!(row.bytes.to_bits(), entry.bytes.to_bits(), "slot {slot} bytes");
        }
    }

    /// One step of the rows property test; `dt` advances the clock first.
    #[derive(Debug, Clone)]
    enum Step {
        Accumulate { flow: u32, pkts: f64, dt: u64 },
        Remove { flow: u32 },
        Sweep { dt: u64 },
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..20, 0u32..40, 0.5f64..50.0, 0u64..20).prop_map(|(kind, flow, pkts, dt)| match kind {
            0..=13 => Step::Accumulate { flow, pkts, dt },
            14..=16 => Step::Remove { flow },
            17 | 18 => Step::Sweep { dt: dt * 3 },
            _ => Step::Clear,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]
        #[test]
        fn rows_stay_in_step_with_live_entries(steps in prop::collection::vec(step(), 1..200)) {
            // 40 flows over 16 slots with 2-slot probe windows and a 30 ns
            // expiry: accumulates reach GC reclaims and evictions.
            let mut t = WsafTable::new(
                WsafConfig::builder().entries_log2(4).probe_limit(2).expiry_nanos(30).build().unwrap(),
            );
            let mut now = 0;
            for step in steps {
                match step {
                    Step::Accumulate { flow, pkts, dt } => {
                        now += dt;
                        t.accumulate(&key(flow), pkts, pkts * 64.0, now);
                    }
                    Step::Remove { flow } => drop(t.remove(&key(flow))),
                    Step::Sweep { dt } => {
                        now += dt;
                        t.sweep_expired(now);
                    }
                    Step::Clear => t.clear(),
                }
                assert_rows_in_step(&t);
            }
        }
    }

    #[test]
    fn telemetry_reconciles_with_stats() {
        let mut t = small(8, 8);
        for i in 0..200 {
            t.accumulate(&key(i % 50), 1.0, 10.0, u64::from(i));
        }
        let _ = t.get(&key(0));
        let snap = t.telemetry();
        let s = t.stats();
        assert_eq!(snap.counter("wsaf.accumulates"), Some(s.accumulates));
        // Outcome tallies partition the accumulates.
        assert_eq!(
            s.updates + s.inserts,
            s.accumulates,
            "every accumulate is an update or an insert"
        );
        assert_eq!(
            snap.counter("wsaf.updates").unwrap() + snap.counter("wsaf.inserts").unwrap(),
            snap.counter("wsaf.accumulates").unwrap()
        );
        let hist = snap.histogram("wsaf.probe_len").unwrap();
        assert_eq!(hist.count, s.accumulates, "one probe-length sample per accumulate");
        assert!(hist.max <= 8, "probe length bounded by the window");
        let lf = snap.gauge("wsaf.load_factor").unwrap();
        assert!((lf - t.load_factor()).abs() < 1e-12);
        assert_eq!(snap.counter("wsaf.live_entries"), Some(t.len() as u64));

        t.clear();
        let cleared = t.telemetry();
        assert_eq!(cleared.histogram("wsaf.probe_len").unwrap().count, 0);
    }

    #[test]
    fn hashed_variants_match_keyed_ones() {
        let mut t = small(8, 8);
        for i in 0..100 {
            t.accumulate(&key(i), f64::from(i), 1.0, 0);
        }
        for i in 0..120 {
            let k = key(i);
            let d = instameasure_packet::FlowDigest::of(&k);
            let h = t.hash_key(&k);
            assert_eq!(h, t.hash_digest(d), "flow {i}");
            assert_eq!(t.get(&k), t.get_hashed(&k, h), "flow {i}");
        }
        let h = t.hash_key(&key(7));
        let removed = t.remove_hashed(&key(7), h).expect("flow 7 present");
        assert_eq!(removed.packets, 7.0);
        assert!(t.get(&key(7)).is_none());
        assert!(t.remove_hashed(&key(7), h).is_none());
    }

    #[test]
    fn accumulate_batch_is_bit_identical_to_scalar() {
        use instameasure_packet::FlowDigest;
        for n in [0usize, 1, 5, 64, 500] {
            // Tiny table with short expiry: the batch crosses inserts,
            // updates, GC reclaims and evictions.
            let mut scalar = small(4, 8);
            let mut batched = small(4, 8);
            let deposits: Vec<WsafDeposit> = (0..n as u32)
                .map(|i| {
                    let k = key(i % 37);
                    WsafDeposit {
                        key: k,
                        digest: FlowDigest::of(&k),
                        est_pkts: f64::from(i % 7) + 0.5,
                        est_bytes: f64::from(i) * 3.25,
                        ts: u64::from(i) * 100,
                    }
                })
                .collect();

            for d in &deposits {
                scalar.accumulate(&d.key, d.est_pkts, d.est_bytes, d.ts);
            }
            batched.accumulate_batch(&deposits);

            assert_eq!(scalar.stats(), batched.stats(), "n={n}");
            assert_eq!(scalar.len(), batched.len(), "n={n}");
            let collect = |t: &WsafTable| {
                let mut v: Vec<FlowEntry> = t.iter().copied().collect();
                v.sort_by_key(|e| e.key.to_bytes());
                v
            };
            assert_eq!(collect(&scalar), collect(&batched), "n={n}");
        }
    }

    #[test]
    fn prefetch_does_not_change_state() {
        let mut t = small(8, 8);
        for i in 0..50 {
            t.accumulate(&key(i), 1.0, 1.0, 0);
        }
        let stats = t.stats();
        let entries: Vec<FlowEntry> = t.iter().copied().collect();
        for i in 0..100 {
            t.prefetch_hashed(t.hash_key(&key(i)));
        }
        assert_eq!(t.stats(), stats);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), entries);
    }

    #[test]
    fn high_load_factor_is_reachable() {
        // Paper motivation for the probing parameters: a high load factor.
        let mut t = WsafTable::new(
            WsafConfig::builder()
                .entries_log2(12)
                .probe_limit(32)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
        let n = (4096.0 * 0.95) as u32;
        for i in 0..n {
            t.accumulate(&key(i), 1.0, 0.0, 0);
        }
        assert!(t.load_factor() > 0.90, "load factor {}", t.load_factor());
    }
}

#[cfg(test)]
mod eviction_policy_tests {
    use super::*;
    use crate::{EvictionPolicy, WsafConfig};
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), (i ^ 0x1234).to_be_bytes(), 80, 443, Protocol::Tcp)
    }

    fn table(policy: EvictionPolicy) -> WsafTable {
        WsafTable::new(
            WsafConfig::builder()
                .entries_log2(2)
                .probe_limit(4)
                .expiry_nanos(u64::MAX / 2)
                .eviction(policy)
                .build()
                .unwrap(),
        )
    }

    fn fill(t: &mut WsafTable, counts: &[f64], ts: &[u64]) -> Vec<u32> {
        let mut inserted = Vec::new();
        let mut i = 0u32;
        while inserted.len() < counts.len() {
            let n = inserted.len();
            if matches!(t.accumulate(&key(i), counts[n], 0.0, ts[n]), AccumulateOutcome::Inserted) {
                inserted.push(i);
            }
            i += 1;
        }
        inserted
    }

    #[test]
    fn min_packets_policy_ignores_reference_bits() {
        let mut t = table(EvictionPolicy::MinPackets);
        let ids = fill(&mut t, &[100.0, 1.0, 50.0, 70.0], &[0, 0, 0, 0]);
        // Keep the tiny flow hot — MinPackets evicts it anyway.
        t.accumulate(&key(ids[1]), 0.0, 0.0, 5);
        let out = t.accumulate(&key(9999), 10.0, 0.0, 10);
        match out {
            AccumulateOutcome::InsertedAfterEviction { evicted_packets, .. } => {
                assert_eq!(evicted_packets, 1.0, "minimum-packet entry evicted");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn oldest_policy_evicts_stalest() {
        let mut t = table(EvictionPolicy::Oldest);
        let ids = fill(&mut t, &[100.0, 90.0, 80.0, 70.0], &[40, 10, 30, 20]);
        let out = t.accumulate(&key(8888), 5.0, 0.0, 100);
        match out {
            AccumulateOutcome::InsertedAfterEviction { evicted, .. } => {
                assert_eq!(evicted, key(ids[1]), "entry with ts=10 is stalest");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_protects_referenced_elephants_where_min_packets_does_not() {
        // Scenario: a hot elephant (always referenced) plus churn. Under
        // SecondChance the elephant survives; under MinPackets it can be
        // evicted right after its counter is reset by... (it cannot be
        // reset, so instead verify the tiny-but-hot flow outcome differs).
        let run = |policy: EvictionPolicy| -> bool {
            let mut t = table(policy);
            let ids = fill(&mut t, &[2.0, 500.0, 400.0, 300.0], &[0, 0, 0, 0]);
            let hot_mouse = ids[0];
            // Round of churn: keep touching the mouse (reference it),
            // insert new flows that force evictions.
            for round in 0..6u32 {
                t.accumulate(&key(hot_mouse), 0.5, 0.0, u64::from(round));
                t.accumulate(&key(10_000 + round), 1.0, 0.0, u64::from(round));
            }
            t.get(&key(hot_mouse)).is_some()
        };
        assert!(!run(EvictionPolicy::MinPackets), "MinPackets churns the hot mouse out");
        assert!(run(EvictionPolicy::SecondChance), "SecondChance honors the reference bit");
    }
}
