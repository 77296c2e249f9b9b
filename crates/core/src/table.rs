//! The columnar trajectory table: the structure-of-arrays layout every
//! analysis stage reads instead of walking `ScanReport` structs.
//!
//! One parallel pass (kernel `table_build`, the table's one fill)
//! flattens every trajectory into flat columns — AV-Ranks,
//! analysis-date minutes, verdict bitmap words — indexed CSR-style by
//! per-record offsets, plus per-record precomputed envelopes
//! (`p_min`/`p_max`, hence Δ), dense file-type indices and the
//! membership flags the pipeline keeps re-deriving (`is_multi_report`,
//! `is_stable`, `is_fresh`, `is_top20`, `is_pe`, and *S* membership).
//! The stages then run as [`crate::par::map_ranges_obs`]
//! partition-reductions over index ranges of this table: no stage
//! allocates per record, and no stage touches a `ScanReport` or
//! `VerdictVec` again.
//!
//! The fill reads its samples through a *row view*: per sample, its
//! metadata and its rows in table order. The two routes into the table
//! differ only in that view and in their row order:
//! - the record route ([`TrajectoryTable::build_with`]) views
//!   `SampleRecord`s in record order, each record's `meta` taken as is;
//! - the arena route ([`TrajectoryTable::build_from_arena`]) views a
//!   decoded segment's columnar [`DecodeArena`] in hash order through a
//!   `u32` row permutation, bucketed by the hash's top bits and sorted
//!   per bucket, and derives each sample's metadata from its rows by
//!   the rule [`crate::records::records_from_store`] follows — no row
//!   struct and no per-row sort key is ever copied.
//!
//! Construction is deterministic at every worker count: each worker
//! fills the columns of one contiguous sample range in place, so the
//! table — and therefore every stage output derived from it — is
//! bit-identical whether it was built by 1 thread or 16.

use crate::arena::DecodeArena;
use crate::par;
use crate::records::{sample_meta, SampleRecord};
use std::mem::size_of;
use vt_model::time::Timestamp;
use vt_model::{EngineId, FileType, SampleHash, SampleMeta};
use vt_obs::Obs;

/// Per-record membership flags, packed into one byte — the one
/// definition: [`crate::index::SampleIndex`] keeps each sample's byte
/// verbatim, and the freshdyn kernel masks [`flag::IN_S`] lanes out of
/// [`TrajectoryTable::flags_raw`].
pub(crate) mod flag {
    /// More than one report (§5.1 measurable subset).
    pub const MULTI: u8 = 1 << 0;
    /// Δ = 0 over a non-empty trajectory (§5.1 *stable*).
    pub const STABLE: u8 = 1 << 1;
    /// First submitted inside the observation window.
    pub const FRESH: u8 = 1 << 2;
    /// One of the top-20 named file types.
    pub const TOP20: u8 = 1 << 3;
    /// A PE (Win32 EXE/DLL) sample.
    pub const PE: u8 = 1 << 4;
    /// Member of the fresh dynamic dataset *S* (§5.3.1).
    pub const IN_S: u8 = 1 << 5;
}

/// The columnar (structure-of-arrays) view of a record set.
///
/// Per-report columns are indexed by *row*; record `i`'s rows are
/// `rows(i)` (CSR offsets). Per-record columns are indexed by record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryTable {
    /// CSR offsets: record `i` owns rows `offsets[i]..offsets[i+1]`.
    offsets: Vec<u64>,
    /// Per-report AV-Rank (the `positives` field).
    positives: Vec<u32>,
    /// Per-report analysis date, in minutes since the epoch.
    date_min: Vec<i64>,
    /// Per-report verdict bitmap: active words.
    active: Vec<[u64; 2]>,
    /// Per-report verdict bitmap: detected words.
    detected: Vec<[u64; 2]>,
    /// Per-record dense file-type index.
    type_idx: Vec<u16>,
    /// Per-record minimum AV-Rank (0 for empty records).
    p_min: Vec<u32>,
    /// Per-record maximum AV-Rank (0 for empty records).
    p_max: Vec<u32>,
    /// Per-record membership flags.
    flags: Vec<u8>,
    /// Per-record sample hash (the record → sample join key).
    hashes: Vec<SampleHash>,
    /// The observation-window start the freshness flags were taken at.
    window_start: Timestamp,
}

/// One worker's window over a table being filled: its samples' CSR
/// offsets (one past their last, so `offsets[k]..offsets[k + 1]` are
/// sample `k`'s rows), and disjoint `&mut` slices of the columns —
/// per-record columns along record boundaries, per-row columns along the
/// matching row boundaries.
struct ColumnsMut<'a> {
    offsets: &'a [u64],
    positives: &'a mut [u32],
    date_min: &'a mut [i64],
    active: &'a mut [[u64; 2]],
    detected: &'a mut [[u64; 2]],
    type_idx: &'a mut [u16],
    p_min: &'a mut [u32],
    p_max: &'a mut [u32],
    flags: &'a mut [u8],
    hashes: &'a mut [SampleHash],
}

/// Splits `n` elements off the front of `*s`, advancing it.
fn take_front<'a, T>(s: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(n);
    *s = tail;
    head
}

/// Packs the per-record membership flags from their ingredients — the
/// one definition, called by the one fill.
fn pack_flags(n: usize, p_min: u32, p_max: u32, file_type: FileType, fresh: bool) -> u8 {
    let multi = n > 1;
    let stable = n > 0 && p_min == p_max;
    let top20 = file_type.is_top20();
    let mut f = 0u8;
    f |= if multi { flag::MULTI } else { 0 };
    f |= if stable { flag::STABLE } else { 0 };
    f |= if fresh { flag::FRESH } else { 0 };
    f |= if top20 { flag::TOP20 } else { 0 };
    f |= if file_type.is_pe() { flag::PE } else { 0 };
    if top20 && fresh && multi && !stable {
        f |= flag::IN_S;
    }
    f
}

/// The bitmap words with one bit set per engine of an `engine_count`
/// roster — what the lane kernels (`flips`, `causes`) AND a row's
/// active words with, so a bit past the roster counts for neither.
pub(crate) fn lane_mask(engine_count: usize) -> [u64; 2] {
    let mut mask = [0u64; 2];
    for e in 0..engine_count.min(128) {
        mask[e / 64] |= 1 << (e % 64);
    }
    mask
}

/// The arena's rows in canonical `(hash, analysis date, arrival)`
/// order, as a permutation of arrival indices, with the CSR offsets of
/// its records (a record is a run of one hash).
///
/// A counting pass buckets the rows by the hash's top `b` bits — `b` is
/// the row count's bit length, capped at 16, so a small serve segment
/// does not walk 65 536 empty buckets — and a scatter pass writes each
/// row index into its bucket in arrival order. Each bucket is then
/// sorted by the full key, read from the arena's columns; buckets cover
/// ascending hash ranges, so their concatenation is the total order.
/// Hashes are well mixed (`SampleHash::from_ordinal`), so a bucket
/// holds a few rows; a store whose hashes all share their top bits
/// lands in one bucket and costs one O(n log n) sort.
///
/// Neither stream arrives canonical (an `analyze` store and a serve
/// segment both stream one month partition at a time, so a sample's
/// rows are split across partitions), which is why this sorts rather
/// than verifies; DESIGN.md §2.6 records the run counts.
fn canonical_order(arena: &DecodeArena) -> (Vec<u32>, Vec<u64>) {
    let (hashes, analysis) = (arena.hashes(), arena.analysis());
    let n = u32::try_from(hashes.len()).expect("an arena holds at most u32::MAX rows");
    let bits = (u32::BITS - n.leading_zeros()).clamp(1, 16);
    let bucket = |h: SampleHash| (h.0 >> (128 - bits)) as usize;
    // `ends[b]` counts bucket b's rows, then (exclusive prefix sum) is
    // its first slot, and after the scatter its end.
    let mut ends = vec![0u32; 1 << bits];
    for &h in hashes {
        ends[bucket(h)] += 1;
    }
    let mut next = 0;
    for slot in &mut ends {
        (*slot, next) = (next, next + *slot);
    }
    let mut order = vec![0u32; n as usize];
    for (i, &h) in (0..n).zip(hashes) {
        let slot = &mut ends[bucket(h)];
        order[*slot as usize] = i;
        *slot += 1;
    }
    let mut offsets = Vec::with_capacity(n as usize + 1);
    offsets.push(0u64);
    let mut bucket_start = 0;
    for &end in &ends {
        let span = bucket_start..end as usize;
        bucket_start = span.end;
        if span.is_empty() {
            continue;
        }
        order[span.clone()]
            .sort_unstable_by_key(|&i| (hashes[i as usize], analysis[i as usize], i));
        for k in span.start + 1..span.end {
            if hashes[order[k - 1] as usize] != hashes[order[k] as usize] {
                offsets.push(k as u64);
            }
        }
        // Buckets never share a hash, so a bucket's end closes a record.
        offsets.push(span.end as u64);
    }
    offsets.shrink_to_fit();
    (order, offsets)
}

impl TrajectoryTable {
    /// Builds the table with default parallelism and no observation.
    pub fn build(records: &[SampleRecord], window_start: Timestamp) -> Self {
        Self::build_with(records, window_start, par::default_workers(), Obs::noop())
    }

    /// Builds the table from `records` over `workers` threads under the
    /// `table_build` kernel, one sample per record, in record order —
    /// the record route, which `vtld study` folds each generated chunk
    /// through. The result is bit-identical at every worker count.
    ///
    /// A serial pass (one report-count read per record) sizes the CSR
    /// layout; the table's one fill then views each record's `meta` as
    /// its metadata and its reports as its rows.
    pub fn build_with(
        records: &[SampleRecord],
        window_start: Timestamp,
        workers: usize,
        obs: &Obs,
    ) -> Self {
        let mut offsets = Vec::with_capacity(records.len() + 1);
        offsets.push(0u64);
        let mut next = 0u64;
        for r in records {
            next += r.reports.len() as u64;
            offsets.push(next);
        }
        Self::fill(offsets, window_start, workers, obs, |i, _| {
            let r = &records[i];
            let rows = r.reports.iter().map(|rep| {
                let (active, detected) = rep.verdicts.raw();
                (rep.analysis_date.0, active, detected)
            });
            (r.meta, rows)
        })
    }

    /// Builds the table straight from a [`DecodeArena`] of streamed
    /// report rows, one sample per hash, hash-ascending — the arena
    /// route, which `vtld analyze`, serve and `--recover` fold every
    /// segment through: no `Vec<ScanReport>`, no `SampleRecord`, no
    /// per-sample `Vec` and no row-struct or per-row key copy is ever
    /// allocated.
    ///
    /// `canonical_order`'s `u32` permutation of the arena's rows, sorted
    /// by `(sample hash, analysis date, arrival index)`, gives the CSR
    /// offsets; the table's one fill then reads each sample's rows
    /// through it, and derives its metadata from them by the rule
    /// [`crate::records::records_from_store`] follows. The order is the
    /// record route's over that store: [`vt_store::ReportStore::group_by_sample`]
    /// groups rows in physical arrival order, stable-sorts each group by
    /// analysis date (so equal dates keep arrival order), and emits
    /// groups hash-ascending. The result is therefore bit-identical to
    /// `build_with(records_from_store(store), ..)` at every worker
    /// count.
    pub fn build_from_arena(
        arena: &DecodeArena,
        window_start: Timestamp,
        workers: usize,
        obs: &Obs,
    ) -> Self {
        let (order, offsets) = canonical_order(arena);
        let (hashes, analysis, submission) = (arena.hashes(), arena.analysis(), arena.submission());
        let (active, detected, type_idx) = (arena.active(), arena.detected(), arena.type_idx());
        Self::fill(offsets, window_start, workers, obs, |_, span| {
            let rows = &order[span];
            let meta = sample_meta(
                hashes[rows[0] as usize],
                rows.iter().map(|&ri| ri as usize),
                |&ri| FileType::from_dense_index(type_idx[ri] as usize),
                |&ri| Timestamp(submission[ri]),
            );
            let rows = rows.iter().map(|&ri| {
                let ri = ri as usize;
                (analysis[ri], active[ri], detected[ri])
            });
            (meta, rows)
        })
    }

    /// The table's one column fill, the `table_build` kernel: CSR
    /// `offsets` and a route's per-sample view go in, the finished table
    /// comes out. `sample(i, rows)` gives sample `i`'s metadata and an
    /// iterator over its rows (`rows`, the sample's row range) in table
    /// order, each as `(analysis minute, active words, detected words)`.
    ///
    /// The samples split into one contiguous range per worker
    /// ([`par::partition_ranges`]), and each worker writes every value
    /// straight into its final slot through a disjoint `&mut` window of
    /// the final buffers ([`par::map_ranges_with_obs`]), so no per-worker
    /// chunk and no concatenation pass exist to pay for, and the table
    /// is bit-identical at every worker count. The view is a type
    /// parameter, so each route's loop is compiled on its own.
    fn fill<I>(
        offsets: Vec<u64>,
        window_start: Timestamp,
        workers: usize,
        obs: &Obs,
        sample: impl Fn(usize, std::ops::Range<usize>) -> (SampleMeta, I) + Sync,
    ) -> Self
    where
        I: Iterator<Item = (i64, [u64; 2], [u64; 2])>,
    {
        let samples = offsets.len() - 1;
        let rows = offsets[samples] as usize;
        let mut table = Self {
            positives: vec![0; rows],
            date_min: vec![0; rows],
            active: vec![[0; 2]; rows],
            detected: vec![[0; 2]; rows],
            type_idx: vec![0; samples],
            p_min: vec![0; samples],
            p_max: vec![0; samples],
            flags: vec![0; samples],
            hashes: vec![SampleHash(0); samples],
            offsets,
            window_start,
        };
        let ranges = par::partition_ranges(samples as u64, workers);
        let windows = table.split(&ranges);
        par::map_ranges_with_obs(
            &ranges,
            windows,
            obs,
            "table_build",
            |_, range, w: ColumnsMut<'_>| {
                let row_base = w.offsets[0] as usize;
                for (k, i) in (range.start as usize..range.end as usize).enumerate() {
                    let span = w.offsets[k] as usize..w.offsets[k + 1] as usize;
                    let (meta, rows) = sample(i, span.clone());
                    let mut p_min = u32::MAX;
                    let mut p_max = 0u32;
                    for (rc, (date, active, detected)) in span.clone().zip(rows) {
                        let p = detected[0].count_ones() + detected[1].count_ones();
                        p_min = p_min.min(p);
                        p_max = p_max.max(p);
                        let out = rc - row_base;
                        w.positives[out] = p;
                        w.date_min[out] = date;
                        w.active[out] = active;
                        w.detected[out] = detected;
                    }
                    let n = span.len();
                    if n == 0 {
                        p_min = 0;
                        p_max = 0;
                    }
                    w.type_idx[k] = meta.file_type.dense_index() as u16;
                    w.p_min[k] = p_min;
                    w.p_max[k] = p_max;
                    let fresh = meta.is_fresh(window_start);
                    w.flags[k] = pack_flags(n, p_min, p_max, meta.file_type, fresh);
                    w.hashes[k] = meta.hash;
                }
            },
        );
        table
    }

    /// Carves the zeroed columns into one disjoint [`ColumnsMut`] per
    /// sample range (ranges contiguous and ascending, as
    /// [`par::partition_ranges`] produces). Every slot is then
    /// overwritten by exactly one worker.
    fn split(&mut self, ranges: &[std::ops::Range<u64>]) -> Vec<ColumnsMut<'_>> {
        let offsets = self.offsets.as_slice();
        let mut positives = self.positives.as_mut_slice();
        let mut date_min = self.date_min.as_mut_slice();
        let mut active = self.active.as_mut_slice();
        let mut detected = self.detected.as_mut_slice();
        let mut type_idx = self.type_idx.as_mut_slice();
        let mut p_min = self.p_min.as_mut_slice();
        let mut p_max = self.p_max.as_mut_slice();
        let mut flags = self.flags.as_mut_slice();
        let mut hashes = self.hashes.as_mut_slice();
        ranges
            .iter()
            .map(|r| {
                let offsets = &offsets[r.start as usize..=r.end as usize];
                let recs = offsets.len() - 1;
                let rows = (offsets[recs] - offsets[0]) as usize;
                ColumnsMut {
                    offsets,
                    positives: take_front(&mut positives, rows),
                    date_min: take_front(&mut date_min, rows),
                    active: take_front(&mut active, rows),
                    detected: take_front(&mut detected, rows),
                    type_idx: take_front(&mut type_idx, recs),
                    p_min: take_front(&mut p_min, recs),
                    p_max: take_front(&mut p_max, recs),
                    flags: take_front(&mut flags, recs),
                    hashes: take_front(&mut hashes, recs),
                }
            })
            .collect()
    }

    /// Heap bytes the columns hold: capacity × element size, summed.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * size_of::<u64>()
            + self.positives.capacity() * size_of::<u32>()
            + self.date_min.capacity() * size_of::<i64>()
            + self.active.capacity() * size_of::<[u64; 2]>()
            + self.detected.capacity() * size_of::<[u64; 2]>()
            + self.type_idx.capacity() * size_of::<u16>()
            + self.p_min.capacity() * size_of::<u32>()
            + self.p_max.capacity() * size_of::<u32>()
            + self.flags.capacity() * size_of::<u8>()
            + self.hashes.capacity() * size_of::<SampleHash>()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True when the table covers no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Total report rows across all records.
    pub fn report_rows(&self) -> usize {
        self.positives.len()
    }

    /// The row range of record `i`'s reports, analysis-date ascending.
    pub fn rows(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Record `i`'s report count.
    pub fn report_count(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Record `i`'s AV-Rank sequence, as a contiguous slice.
    pub fn positives_of(&self, i: usize) -> &[u32] {
        &self.positives[self.rows(i)]
    }

    /// Record `i`'s analysis dates in minutes, as a contiguous slice.
    pub fn dates_of(&self, i: usize) -> &[i64] {
        &self.date_min[self.rows(i)]
    }

    /// One row's analysis date.
    pub fn date(&self, row: usize) -> Timestamp {
        Timestamp(self.date_min[row])
    }

    /// One row's active-engine bitmap words.
    pub fn active_words(&self, row: usize) -> [u64; 2] {
        self.active[row]
    }

    /// The whole active-bitmap plane, one `[u64; 2]` per report row —
    /// for streaming kernels that walk every row and want bounds checks
    /// hoisted out of the loop.
    pub fn active_rows(&self) -> &[[u64; 2]] {
        &self.active
    }

    /// The whole detected-bitmap plane, aligned with
    /// [`active_rows`](Self::active_rows).
    pub fn detected_rows(&self) -> &[[u64; 2]] {
        &self.detected
    }

    /// One row's detected-engine bitmap words.
    pub fn detected_words(&self, row: usize) -> [u64; 2] {
        self.detected[row]
    }

    /// One engine's binary label in one row: `None` when the engine was
    /// inactive, else `Some(1)` for malicious / `Some(0)` for benign —
    /// exactly [`vt_model::Verdict::binary_label`] on the original
    /// verdict vector.
    pub fn binary_label(&self, row: usize, engine: EngineId) -> Option<u8> {
        let (w, b) = (engine.index() / 64, engine.index() % 64);
        if self.active[row][w] & (1u64 << b) == 0 {
            None
        } else {
            Some(((self.detected[row][w] >> b) & 1) as u8)
        }
    }

    /// Record `i`'s file type.
    pub fn file_type(&self, i: usize) -> FileType {
        FileType::from_dense_index(self.type_idx[i] as usize)
    }

    /// Record `i`'s dense file-type index.
    pub fn type_idx(&self, i: usize) -> usize {
        self.type_idx[i] as usize
    }

    /// Record `i`'s minimum AV-Rank (0 for empty records).
    pub fn p_min(&self, i: usize) -> u32 {
        self.p_min[i]
    }

    /// Record `i`'s maximum AV-Rank (0 for empty records).
    pub fn p_max(&self, i: usize) -> u32 {
        self.p_max[i]
    }

    /// `Δ = p_max − p_min`; `None` with no reports — exactly
    /// [`SampleRecord::delta_max`].
    pub fn delta_max(&self, i: usize) -> Option<u32> {
        (self.report_count(i) > 0).then(|| self.p_max[i] - self.p_min[i])
    }

    /// True when record `i` has more than one report.
    pub fn is_multi_report(&self, i: usize) -> bool {
        self.flags[i] & flag::MULTI != 0
    }

    /// True when record `i` is §5.1 *stable* (Δ = 0, non-empty).
    pub fn is_stable(&self, i: usize) -> bool {
        self.flags[i] & flag::STABLE != 0
    }

    /// True when record `i` was first submitted inside the window.
    pub fn is_fresh(&self, i: usize) -> bool {
        self.flags[i] & flag::FRESH != 0
    }

    /// True when record `i` is of a top-20 named type.
    pub fn is_top20(&self, i: usize) -> bool {
        self.flags[i] & flag::TOP20 != 0
    }

    /// True when record `i` is a PE (Win32 EXE/DLL) sample.
    pub fn is_pe(&self, i: usize) -> bool {
        self.flags[i] & flag::PE != 0
    }

    /// True when record `i` belongs to the fresh dynamic dataset *S*.
    pub fn in_s(&self, i: usize) -> bool {
        self.flags[i] & flag::IN_S != 0
    }

    /// Record `i`'s sample hash.
    pub fn hash(&self, i: usize) -> SampleHash {
        self.hashes[i]
    }

    /// The per-record sample-hash column.
    pub fn hashes(&self) -> &[SampleHash] {
        &self.hashes
    }

    /// The raw per-record flag bytes ([`flag`]) — the bulk-scan view
    /// the widened freshdyn kernel reads eight records at a time, and
    /// what the per-sample index keeps.
    pub(crate) fn flags_raw(&self) -> &[u8] {
        &self.flags
    }

    /// The window start the freshness flags were computed against.
    pub fn window_start(&self) -> Timestamp {
        self.window_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generated::store as generated_store;
    use crate::pipeline::Study;
    use crate::records::records_from_store;
    use proptest::prelude::*;
    use vt_model::time::Month;
    use vt_model::Verdict;
    use vt_sim::SimConfig;
    use vt_store::{read_store_into, write_store, ReportStore, StoreObs};

    fn study() -> Study {
        Study::generate_with_workers(SimConfig::new(0x7AB1E, 3_000), 2)
    }

    #[test]
    fn columns_mirror_records() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let t = TrajectoryTable::build(records, ws);
        assert_eq!(t.len(), records.len());
        let rows: usize = records.iter().map(|r| r.reports.len()).sum();
        assert_eq!(t.report_rows(), rows);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(t.report_count(i), r.reports.len());
            assert_eq!(t.positives_of(i), r.positives().as_slice(), "record {i}");
            assert_eq!(t.delta_max(i), r.delta_max());
            assert_eq!(t.is_stable(i), r.is_stable());
            assert_eq!(t.is_multi_report(i), r.is_multi_report());
            assert_eq!(t.is_fresh(i), r.meta.is_fresh(ws));
            assert_eq!(t.is_top20(i), r.meta.file_type.is_top20());
            assert_eq!(t.is_pe(i), r.meta.file_type.is_pe());
            assert_eq!(t.file_type(i), r.meta.file_type);
            assert_eq!(t.type_idx(i), r.meta.file_type.dense_index());
            assert_eq!(t.hash(i), r.meta.hash);
            for (row, rep) in t.rows(i).zip(&r.reports) {
                assert_eq!(t.date(row), rep.analysis_date);
                let (a, d) = rep.verdicts.raw();
                assert_eq!(t.active_words(row), a);
                assert_eq!(t.detected_words(row), d);
            }
        }
    }

    #[test]
    fn build_is_identical_at_every_worker_count() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let base = TrajectoryTable::build_with(records, ws, 1, Obs::noop());
        for workers in [2usize, 3, 8] {
            let t = TrajectoryTable::build_with(records, ws, workers, Obs::noop());
            assert_eq!(t.offsets, base.offsets, "workers={workers}");
            assert_eq!(t.positives, base.positives, "workers={workers}");
            assert_eq!(t.date_min, base.date_min, "workers={workers}");
            assert_eq!(t.active, base.active, "workers={workers}");
            assert_eq!(t.detected, base.detected, "workers={workers}");
            assert_eq!(t.type_idx, base.type_idx, "workers={workers}");
            assert_eq!(t.p_min, base.p_min, "workers={workers}");
            assert_eq!(t.p_max, base.p_max, "workers={workers}");
            assert_eq!(t.flags, base.flags, "workers={workers}");
            assert_eq!(t.hashes, base.hashes, "workers={workers}");
        }
    }

    #[test]
    fn binary_label_matches_verdicts() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let t = TrajectoryTable::build(records, ws);
        let engines = study.sim().fleet().engine_count();
        for (i, r) in records.iter().enumerate().take(200) {
            for (row, rep) in t.rows(i).zip(&r.reports) {
                for e in 0..engines {
                    let id = EngineId::new(e);
                    assert_eq!(
                        t.binary_label(row, id),
                        rep.verdicts.get(id).binary_label(),
                        "record {i} engine {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_s_matches_the_freshdyn_filters() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let t = TrajectoryTable::build(records, ws);
        for (i, r) in records.iter().enumerate() {
            let expect = r.meta.file_type.is_top20()
                && r.meta.is_fresh(ws)
                && r.is_multi_report()
                && !r.is_stable();
            assert_eq!(t.in_s(i), expect, "record {i}");
        }
        assert!((0..t.len()).any(|i| t.in_s(i)), "study too small for S");
    }

    #[test]
    fn table_build_kernel_is_instrumented() {
        let study = study();
        let obs = Obs::new();
        let _ = TrajectoryTable::build_with(
            study.records(),
            study.sim().config().window_start(),
            4,
            &obs,
        );
        let m = obs.snapshot();
        assert_eq!(m.counter("par/table_build/invocations"), Some(1));
        assert!(m.histogram("par/table_build/worker_busy_ns").is_some());
    }

    /// `build_from_arena` over the store's row stream and over its
    /// file's strict read equals the record route's table, at workers
    /// 1, 2 and 8.
    fn arena_matches_records(store: &ReportStore) -> Result<(), TestCaseError> {
        let ws = Month::COLLECTION_START.start();
        let records = records_from_store(store);
        let mut streamed = DecodeArena::new();
        store.for_each_row(&mut streamed);
        let mut bytes = Vec::new();
        write_store(store, &mut bytes).expect("write to a Vec");
        let mut read = DecodeArena::new();
        read.refill(|rows| {
            read_store_into(&mut bytes.as_slice(), rows, &StoreObs::new(Obs::noop()))
        })
        .expect("strict read of a written store");
        for workers in [1, 2, 8] {
            let want = TrajectoryTable::build_with(&records, ws, workers, Obs::noop());
            for (route, arena) in [("row stream", &streamed), ("file read", &read)] {
                let got = TrajectoryTable::build_from_arena(arena, ws, workers, Obs::noop());
                prop_assert!(got == want, "{route}, workers {workers}: tables differ");
            }
        }
        Ok(())
    }

    proptest! {
        /// Generated streams: few samples with many equal-`(hash, date)`
        /// ties inside a partition and across the catch-all and window
        /// months, or many single-report samples (`spread` large), with
        /// hashes in well-mixed buckets or all in one.
        #[test]
        fn generated_streams_build_the_record_routes_table(
            rows in proptest::collection::vec((any::<u64>(), 0u64..6, any::<u64>()), 0..1_500),
            spread in 1u64..3_000,
            one_bucket in any::<bool>(),
        ) {
            let rows: Vec<_> = rows.iter().map(|&(s, d, b)| (s % spread, d, b)).collect();
            arena_matches_records(&generated_store(&rows, one_bucket))?;
        }
    }

    #[test]
    fn an_empty_arena_builds_the_empty_table() {
        arena_matches_records(&generated_store(&[], false)).expect("empty");
    }

    #[test]
    fn empty_record_set() {
        let t = TrajectoryTable::build(&[], Timestamp(0));
        assert!(t.is_empty());
        assert_eq!(t.report_rows(), 0);
    }

    /// `Verdict::binary_label` is the contract `binary_label` mirrors.
    #[test]
    fn binary_label_contract() {
        assert_eq!(Verdict::Malicious.binary_label(), Some(1));
        assert_eq!(Verdict::Benign.binary_label(), Some(0));
        assert_eq!(Verdict::Undetected.binary_label(), None);
    }
}
