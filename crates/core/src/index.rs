//! The per-sample query index: hash → trajectory summary, built at
//! fold time, combined like any other Partial.
//!
//! The paper's object of study is an online scanner API answering
//! *per-hash* questions — "what does the platform say about this sample
//! now, and has its label stabilized?". The batch pipeline aggregates
//! those answers away; [`SampleIndex`] keeps them addressable. One
//! index partial is folded per sealed segment (from the segment's
//! already-built [`TrajectoryTable`], so nothing is re-decoded), and
//! partials combine by merging their sorted columns — the same
//! `concat(fold(x), fold(y)) == fold(x ++ y)` shape every analysis
//! stage upholds, which is what lets `vtld serve`'s merger thread
//! assemble each slot's index from shard-local folds and publish it
//! inside the same epoch-swapped snapshot as the study results. An
//! index's hashes are strictly ascending — its one invariant — so a
//! lookup is a binary search over the hash column, and the index is
//! the same whatever order its samples arrived in (samples are disjoint
//! across segments by the seal contract). The only ranked query
//! ([`SampleIndex::top_flips`]) sorts by `(flips desc, hash asc)` —
//! deterministic at every shard and worker count.
//!
//! A growing index is held as [`IndexChunks`]: each segment's own
//! index is pushed as one immutable chunk, and chunks of similar size
//! are compacted into one ([`SampleIndex::concat`]) like the digits of
//! a binary counter, so a lookup over n samples binary-searches at most
//! ⌊log2 n⌋ + 1 sorted chunks and, for segments of similar size, a
//! sample is copied O(log k) times over k pushes.
//!
//! Per sample the index holds the full AV-Rank timeline (positives and
//! analysis minutes, CSR-packed), the table's membership-flag byte
//! verbatim (`table::flag`), the engine-label **flip count** (same
//! definition as the §7.1 stage: flips between *consecutive active*
//! labels, `Undetected` scans skipped), and a 9-bit **stabilization
//! mask** — bit *i* set when the sample's threshold-`FIG9_THRESHOLDS[i]`
//! label sequence has stabilized (§6.2).

use std::cmp::Reverse;
use std::mem::size_of;
use std::sync::Arc;

use crate::stabilization::{stabilization_mask, FIG9_THRESHOLDS};
use crate::table::{flag, TrajectoryTable};
use vt_model::{FileType, SampleHash};

/// An epoch-consistent hash → trajectory-summary index.
///
/// Columnar and sorted: per-sample scalars sit in flat arrays in
/// strictly ascending hash order, and the per-report timeline columns
/// are CSR-packed behind `offsets`. [`get`](Self::get) binary-searches
/// the hash column. [`fold_table`](Self::fold_table) builds one from a
/// segment and [`concat`](Self::concat) merges disjoint ones — the
/// result is the same index however the stream was segmented.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleIndex {
    hashes: Vec<SampleHash>,
    type_idx: Vec<u16>,
    flags: Vec<u8>,
    flips: Vec<u32>,
    stab_mask: Vec<u16>,
    offsets: Vec<u64>,
    positives: Vec<u32>,
    date_min: Vec<i64>,
}

/// The empty index, in the one representation [`SampleIndex::fold_table`]
/// gives an empty table: `offsets` always starts at 0, so the empty
/// index is an identity of [`SampleIndex::concat`].
impl Default for SampleIndex {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

/// One sample's view into the index: everything a per-hash query verb
/// renders, borrowed straight from the columns.
#[derive(Debug, Clone, Copy)]
pub struct SampleSummary<'a> {
    /// The sample hash.
    pub hash: SampleHash,
    /// The sample's file type.
    pub file_type: FileType,
    /// AV-Rank (positives) timeline, analysis-date ascending.
    pub positives: &'a [u32],
    /// Analysis dates in minutes since the epoch, ascending.
    pub dates_min: &'a [i64],
    /// Engine-label flips across the trajectory (§7.1 definition).
    pub flips: u32,
    /// Bit *i* set ⇔ label-stabilized at `FIG9_THRESHOLDS[i]` (§6.2).
    pub stab_mask: u16,
    flags: u8,
}

impl SampleSummary<'_> {
    /// Number of reports on file.
    pub fn report_count(&self) -> usize {
        self.positives.len()
    }

    /// The current AV-Rank: the latest report's positives (0 with no
    /// reports).
    pub fn current_positives(&self) -> u32 {
        self.positives.last().copied().unwrap_or(0)
    }

    /// Minimum AV-Rank over the trajectory (0 with no reports).
    pub fn p_min(&self) -> u32 {
        self.positives.iter().copied().min().unwrap_or(0)
    }

    /// Maximum AV-Rank over the trajectory (0 with no reports).
    pub fn p_max(&self) -> u32 {
        self.positives.iter().copied().max().unwrap_or(0)
    }

    /// `Δ = p_max − p_min`; `None` with no reports.
    pub fn delta_max(&self) -> Option<u32> {
        (!self.positives.is_empty()).then(|| self.p_max() - self.p_min())
    }

    /// True with more than one report.
    pub fn is_multi_report(&self) -> bool {
        self.flags & flag::MULTI != 0
    }

    /// True when §5.1 *stable* (Δ = 0, non-empty).
    pub fn is_stable(&self) -> bool {
        self.flags & flag::STABLE != 0
    }

    /// True when first submitted inside the observation window.
    pub fn is_fresh(&self) -> bool {
        self.flags & flag::FRESH != 0
    }

    /// True when a member of the fresh dynamic dataset *S*.
    pub fn in_s(&self) -> bool {
        self.flags & flag::IN_S != 0
    }

    /// Whether the threshold-`t` label sequence has stabilized;
    /// `None` when `t` is not one of the 9 [`FIG9_THRESHOLDS`].
    pub fn stabilized_at(&self, t: u32) -> Option<bool> {
        FIG9_THRESHOLDS
            .iter()
            .position(|&ft| ft == t)
            .map(|i| self.stab_mask & (1 << i) != 0)
    }
}

/// Engine-label flips over one record's rows: walk the trajectory once
/// keeping, per engine, whether a label has been seen and what the last
/// *active* label was (two 128-bit mask planes) — exactly the §7.1
/// definition, `Undetected` scans skipped.
fn record_flips(table: &TrajectoryTable, i: usize) -> u32 {
    // State lives in one 4-word block — [seen lo, seen hi, prev lo,
    // prev hi] — and the per-row update is straight-line over the block
    // (no per-word loop), so the whole walk stays in vector registers.
    let mut state = [0u64; 4];
    let mut flips = 0u32;
    for row in table.rows(i) {
        let a = table.active_words(row);
        let d = table.detected_words(row);
        let both0 = a[0] & state[0];
        let both1 = a[1] & state[1];
        flips += ((state[2] ^ d[0]) & both0).count_ones();
        flips += ((state[3] ^ d[1]) & both1).count_ones();
        state[2] = (state[2] & !a[0]) | (d[0] & a[0]);
        state[3] = (state[3] & !a[1]) | (d[1] & a[1]);
        state[0] |= a[0];
        state[1] |= a[1];
    }
    flips
}

impl SampleIndex {
    /// An empty index with room for exactly `samples` samples of `rows`
    /// reports in total.
    fn with_capacity(samples: usize, rows: usize) -> Self {
        let mut offsets = Vec::with_capacity(samples + 1);
        offsets.push(0);
        Self {
            hashes: Vec::with_capacity(samples),
            type_idx: Vec::with_capacity(samples),
            flags: Vec::with_capacity(samples),
            flips: Vec::with_capacity(samples),
            stab_mask: Vec::with_capacity(samples),
            offsets,
            positives: Vec::with_capacity(rows),
            date_min: Vec::with_capacity(rows),
        }
    }

    /// Appends one sample, whose hash must exceed every indexed one: a
    /// tie is a sample in two segments, which the seal contract rules
    /// out.
    fn push(&mut self, s: SampleSummary<'_>) {
        // `None < Some(_)`: the first sample always ascends.
        debug_assert!(self.hashes.last() < Some(&s.hash), "hashes ascend");
        self.hashes.push(s.hash);
        self.type_idx.push(s.file_type.dense_index() as u16);
        self.flags.push(s.flags);
        self.flips.push(s.flips);
        self.stab_mask.push(s.stab_mask);
        self.positives.extend_from_slice(s.positives);
        self.date_min.extend_from_slice(s.dates_min);
        self.offsets.push(self.positives.len() as u64);
    }

    /// Folds one sealed segment's table into an index partial — the
    /// columnar entry point: everything the index needs (including the
    /// sample hashes) lives in the [`TrajectoryTable`], so no
    /// `SampleRecord` is touched. Samples are visited in hash order
    /// through a sorted `u32` permutation: a linear pass over the
    /// daemon's tables, which are hash-ascending already, and the sort
    /// that orders a table built from records.
    pub fn fold_table(table: &TrajectoryTable) -> Self {
        let hashes = table.hashes();
        let mut order: Vec<u32> = (0..hashes.len() as u32).collect();
        order.sort_unstable_by_key(|&i| hashes[i as usize]);
        let mut idx = Self::with_capacity(table.len(), table.report_rows());
        for i in order.into_iter().map(|i| i as usize) {
            let positives = table.positives_of(i);
            idx.push(SampleSummary {
                hash: hashes[i],
                file_type: table.file_type(i),
                positives,
                dates_min: table.dates_of(i),
                flips: record_flips(table, i),
                stab_mask: stabilization_mask(positives),
                flags: table.flags_raw()[i],
            });
        }
        idx
    }

    /// One index over the samples of every part, merged from the parts'
    /// sorted runs in one pass into columns allocated once at exact
    /// capacity. The parts must hold disjoint samples (the seal
    /// contract: a sample's whole trajectory lives in exactly one
    /// segment of one slot stream); then the result is the one
    /// [`fold_table`](Self::fold_table) gives their concatenation, in
    /// any order of the parts.
    pub fn concat(parts: &[&SampleIndex]) -> Self {
        let samples = parts.iter().map(|p| p.len()).sum();
        let rows = parts.iter().map(|p| p.report_rows()).sum();
        let mut idx = Self::with_capacity(samples, rows);
        let mut next = vec![0; parts.len()];
        while let Some((part, i)) = (parts.iter().zip(&mut next))
            .filter(|(part, i)| **i < part.len())
            .min_by_key(|(part, i)| part.hashes[**i])
        {
            idx.push(part.summary(*i));
            *i += 1;
        }
        idx
    }

    /// Heap bytes held: exactly every column's capacity.
    pub fn heap_bytes(&self) -> usize {
        fn column<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        column(&self.hashes)
            + column(&self.type_idx)
            + column(&self.flags)
            + column(&self.flips)
            + column(&self.stab_mask)
            + column(&self.offsets)
            + column(&self.positives)
            + column(&self.date_min)
    }

    /// Samples indexed.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Total report rows across every indexed sample.
    pub fn report_rows(&self) -> usize {
        self.positives.len()
    }

    /// Looks one sample up by hash: a binary search of the hash column.
    pub fn get(&self, hash: SampleHash) -> Option<SampleSummary<'_>> {
        let i = self.hashes.binary_search(&hash).ok()?;
        Some(self.summary(i))
    }

    fn summary(&self, i: usize) -> SampleSummary<'_> {
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        SampleSummary {
            hash: self.hashes[i],
            file_type: FileType::from_dense_index(self.type_idx[i] as usize),
            positives: &self.positives[range.clone()],
            dates_min: &self.date_min[range],
            flips: self.flips[i],
            stab_mask: self.stab_mask[i],
            flags: self.flags[i],
        }
    }

    /// The top-`k` flip leaders: samples ranked by engine-label flip
    /// count, ties broken by hash ascending — a total order, so the
    /// answer is identical however the index was assembled. Selects
    /// the `k` leaders before it sorts them — O(n + k log k), and since
    /// the order is total the kept prefix is the full sort's.
    pub fn top_flips(&self, k: usize) -> Vec<SampleSummary<'_>> {
        let rank = |&i: &usize| (Reverse(self.flips[i]), self.hashes[i]);
        let mut order: Vec<usize> = (0..self.len()).collect();
        if (1..order.len()).contains(&k) {
            order.select_nth_unstable_by_key(k - 1, rank);
        }
        order.truncate(k);
        order.sort_unstable_by_key(rank);
        order.into_iter().map(|i| self.summary(i)).collect()
    }

    /// Iterates every indexed summary, in ascending hash order.
    pub fn iter(&self) -> impl Iterator<Item = SampleSummary<'_>> {
        (0..self.len()).map(|i| self.summary(i))
    }
}

/// A growing index as a list of immutable chunks, oldest first: each
/// [`push`](Self::push) appends one segment's own index, then compacts
/// like a binary counter — while the older of the newest two chunks
/// holds at most twice the newer's samples, the two become one. Every
/// older chunk then holds more than twice the next, so n samples sit in
/// at most ⌊log2 n⌋ + 1 chunks. Over k pushes compaction copied at most
/// 2·n·⌈log2 k⌉ samples in every generated case of
/// `tests::props::compaction_is_a_binary_counter`, where cloning one
/// cumulative index per push copies n(k+1)/2 for k equal deltas.
/// Cloning the list clones only the `Arc`s: a clone shares every chunk
/// a later push leaves alone.
///
/// The chunks hold disjoint samples (the seal contract), so a hash lives
/// in at most one of them, and the one aggregate a [`SampleIndex`]
/// answers, [`SampleIndex::top_flips`] (a total order), is answered by
/// asking each chunk and merging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexChunks {
    chunks: Vec<Arc<SampleIndex>>,
}

impl IndexChunks {
    /// Appends `delta` as the newest chunk and compacts; returns the
    /// samples compaction copied. An empty delta is not kept.
    pub fn push(&mut self, delta: Arc<SampleIndex>) -> usize {
        if delta.is_empty() {
            return 0;
        }
        self.chunks.push(delta);
        let mut copied = 0;
        while let [.., older, newer] = self.chunks.as_slice() {
            if older.len() > 2 * newer.len() {
                break;
            }
            let merged = SampleIndex::concat(&[&**older, &**newer]);
            copied += merged.len();
            self.chunks.truncate(self.chunks.len() - 2);
            self.chunks.push(Arc::new(merged));
        }
        copied
    }

    /// Looks one sample up by hash, binary-searching each chunk until one
    /// answers.
    pub fn get(&self, hash: SampleHash) -> Option<SampleSummary<'_>> {
        self.chunks.iter().find_map(|chunk| chunk.get(hash))
    }

    /// Samples indexed, over every chunk.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum()
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The chunks, oldest first.
    pub fn chunks(&self) -> &[Arc<SampleIndex>] {
        &self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, AnalysisCtx};
    use crate::flips::Flips;
    use crate::freshdyn;
    use crate::pipeline::Study;
    use crate::records::SampleRecord;
    use crate::stabilization::label_stabilization_index;
    use vt_obs::Obs;
    use vt_sim::SimConfig;

    fn study() -> Study {
        Study::generate_with_workers(SimConfig::new(0x1DE7, 2_000), 2)
    }

    fn build(records: &[SampleRecord], ws: vt_model::time::Timestamp) -> SampleIndex {
        let table = TrajectoryTable::build(records, ws);
        SampleIndex::fold_table(&table)
    }

    #[test]
    fn lookup_matches_records_and_table() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let table = TrajectoryTable::build(records, ws);
        let idx = SampleIndex::fold_table(&table);
        assert_eq!(idx.len(), records.len());
        assert_eq!(idx.report_rows(), table.report_rows());
        for (i, r) in records.iter().enumerate() {
            let s = idx.get(r.meta.hash).expect("indexed");
            assert_eq!(s.positives, table.positives_of(i), "record {i}");
            assert_eq!(s.dates_min, table.dates_of(i));
            assert_eq!(s.file_type, r.meta.file_type);
            assert_eq!(s.report_count(), r.reports.len());
            assert_eq!(
                s.current_positives(),
                r.positives().last().copied().unwrap_or(0)
            );
            assert_eq!(s.p_min(), table.p_min(i));
            assert_eq!(s.p_max(), table.p_max(i));
            assert_eq!(s.delta_max(), table.delta_max(i));
            assert_eq!(s.is_stable(), table.is_stable(i));
            assert_eq!(s.is_multi_report(), table.is_multi_report(i));
            assert_eq!(s.is_fresh(), table.is_fresh(i));
            assert_eq!(s.in_s(), table.in_s(i));
            for &t in &FIG9_THRESHOLDS {
                assert_eq!(
                    s.stabilized_at(t),
                    Some(label_stabilization_index(table.positives_of(i), t).is_some()),
                    "record {i} t={t}"
                );
            }
            assert_eq!(s.stabilized_at(3), None, "3 is not a Fig. 9 threshold");
        }
        assert!(idx.get(SampleHash(u128::MAX)).is_none());
    }

    #[test]
    fn flip_counts_sum_to_the_flips_stage_totals() {
        // The §7.1 stage counts flips over the fresh dynamic dataset
        // *S* only; restricting the index's per-sample counts the same
        // way must reproduce the stage's global total exactly.
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let table = TrajectoryTable::build(records, ws);
        let s = freshdyn::build_from_table(&table, 2);
        let ctx = AnalysisCtx::new(records, &table, &s, study.sim().fleet(), ws).with_workers(2);
        let stage = Flips.run(&ctx);
        let idx = SampleIndex::fold_table(&table);
        let over_s: u64 = (0..records.len())
            .filter(|&i| table.in_s(i))
            .map(|i| u64::from(idx.get(records[i].meta.hash).unwrap().flips))
            .sum();
        assert!(stage.flips > 0, "study too small to flip");
        assert_eq!(over_s, stage.flips);
    }

    #[test]
    fn top_flips_is_a_total_order() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let idx = build(records, ws);
        let leaders = idx.top_flips(25);
        assert_eq!(leaders.len(), 25.min(idx.len()));
        for pair in leaders.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.flips > b.flips || (a.flips == b.flips && a.hash < b.hash),
                "ordering must be strict"
            );
        }
        assert!(leaders[0].flips > 0, "study too small to flip");
        // Assembling the index in a different segmentation cannot
        // change the ranked answer.
        let parts: Vec<SampleIndex> = (records.chunks(records.len().div_ceil(4)))
            .map(|seg| build(seg, ws))
            .collect();
        let merged = SampleIndex::concat(&parts.iter().collect::<Vec<_>>());
        let again: Vec<_> = merged.top_flips(25).iter().map(|s| s.hash).collect();
        let first: Vec<_> = leaders.iter().map(|s| s.hash).collect();
        assert_eq!(again, first);
    }

    /// The oracle `top_flips` is held to: rank every sample, keep `k`.
    fn top_by_full_sort(idx: &SampleIndex, k: usize) -> Vec<SampleHash> {
        let mut order: Vec<usize> = (0..idx.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            idx.flips[b]
                .cmp(&idx.flips[a])
                .then_with(|| idx.hashes[a].cmp(&idx.hashes[b]))
        });
        order.truncate(k);
        order.into_iter().map(|i| idx.hashes[i]).collect()
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Selecting before sorting answers what the full sort did,
            /// at every edge of `k`, on indexes where most flip counts
            /// tie and only the hash separates neighbours.
            #[test]
            fn top_flips_is_the_full_sorts_prefix(
                samples in proptest::collection::vec((0u32..4, any::<u64>()), 0..120)
            ) {
                let n = samples.len();
                let mut ranked: Vec<(SampleHash, u32)> = (samples.iter().enumerate())
                    .map(|(i, &(flips, salt))| (SampleHash(u128::from(salt) << 32 | i as u128), flips))
                    .collect();
                ranked.sort_unstable();
                // Report-less samples: `top_flips` reads two columns.
                let mut idx = SampleIndex::default();
                for (hash, flips) in ranked {
                    idx.push(SampleSummary {
                        hash,
                        file_type: FileType::Null,
                        positives: &[],
                        dates_min: &[],
                        flips,
                        stab_mask: 0,
                        flags: 0,
                    });
                }
                for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                    let got: Vec<_> = idx.top_flips(k).iter().map(|s| s.hash).collect();
                    prop_assert_eq!(got, top_by_full_sort(&idx, k), "k={} of {}", k, n);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// After every push of k deltas of 1–50 samples: at most
            /// ⌊log2 n⌋ + 1 chunks, at most 2·n·⌈log2 k⌉ samples copied,
            /// every chunk the push left alone shared with the list before
            /// it, and every answer the one index folded over the deltas'
            /// concatenation gives — at every indexed hash, at the ends of
            /// the hash space and of every chunk, and between neighbours.
            #[test]
            fn compaction_is_a_binary_counter(
                deltas in proptest::collection::vec((1usize..=50, any::<u64>()), 1..=200),
                cut in 0usize..60,
            ) {
                let mut chunks = IndexChunks::default();
                let mut whole = SampleIndex::default();
                let mut copied = 0;
                for (k, &(size, seed)) in (1usize..).zip(&deltas) {
                    let delta = synthetic_delta(whole.len() as u64, size, seed);
                    whole = SampleIndex::concat(&[&whole, &delta]);
                    let before = chunks.clone();
                    copied += chunks.push(Arc::new(delta));
                    let n = whole.len();
                    let held = chunks.chunks().len();
                    prop_assert_eq!(chunks.len(), n);
                    prop_assert!(held <= n.ilog2() as usize + 1, "{} chunks for {}", held, n);
                    if k >= 2 {
                        let bound = 2 * n * k.next_power_of_two().ilog2() as usize;
                        prop_assert!(copied <= bound, "push {}: {} copied > {}", k, copied, bound);
                    }
                    let shared = before.chunks().iter().zip(&chunks.chunks()[..held - 1]);
                    prop_assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)));
                    let ends = chunks.chunks().iter().flat_map(|c| [c.hashes[0], c.hashes[c.len() - 1]]);
                    let between = (whole.hashes.windows(2))
                        .find(|pair| pair[1].0 - pair[0].0 > 1)
                        .map(|pair| SampleHash(pair[0].0 + 1));
                    let edges = [SampleHash(0), SampleHash(u128::MAX), SampleHash::from_ordinal(n as u64)];
                    let probes = (whole.hashes.iter().copied()).chain(ends).chain(between).chain(edges);
                    for hash in probes {
                        prop_assert!(
                            chunks.get(hash).map(fields) == whole.get(hash).map(fields),
                            "push {}: {:?}", k, hash
                        );
                    }
                    prop_assert!(whole.get(SampleHash::from_ordinal(n as u64)).is_none());
                    if let Some(hash) = between {
                        prop_assert!(whole.get(hash).is_none(), "{:?} is not indexed", hash);
                    }
                    prop_assert_eq!(chunked_top_flips(&chunks, cut), top_by_full_sort(&whole, cut));
                }
            }
        }
    }

    /// `n` samples of ordinals `first..`, disjoint from any other
    /// delta's and in hash order: flip counts that mostly tie, random
    /// flags, stabilization masks and file types, and 0–3 reports each.
    fn synthetic_delta(first: u64, n: usize, seed: u64) -> SampleIndex {
        let mut state = seed;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut hashes: Vec<SampleHash> = (first..first + n as u64)
            .map(SampleHash::from_ordinal)
            .collect();
        hashes.sort_unstable();
        let mut idx = SampleIndex::default();
        for hash in hashes {
            let reports = draw(4) as usize;
            let positives: Vec<u32> = (0..reports).map(|_| draw(70) as u32).collect();
            let dates_min: Vec<i64> = (0..reports).map(|_| draw(1 << 20) as i64).collect();
            idx.push(SampleSummary {
                hash,
                file_type: FileType::from_dense_index(draw(4) as usize),
                positives: &positives,
                dates_min: &dates_min,
                flips: draw(4) as u32,
                stab_mask: draw(1 << FIG9_THRESHOLDS.len()) as u16,
                flags: draw(1 << 6) as u8,
            });
        }
        idx
    }

    /// Everything a summary holds, comparable.
    fn fields(s: SampleSummary<'_>) -> (SampleHash, FileType, &[u32], &[i64], u32, u16, u8) {
        let SampleSummary {
            hash,
            file_type,
            positives,
            dates_min,
            flips,
            stab_mask,
            flags,
        } = s;
        (
            hash, file_type, positives, dates_min, flips, stab_mask, flags,
        )
    }

    /// `top_flips(k)` asked of every chunk, merged under the total order.
    fn chunked_top_flips(chunks: &IndexChunks, k: usize) -> Vec<SampleHash> {
        let mut ranked: Vec<_> = (chunks.chunks().iter())
            .flat_map(|chunk| chunk.top_flips(k))
            .map(|s| (Reverse(s.flips), s.hash))
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().take(k).map(|(_, hash)| hash).collect()
    }

    /// k equal deltas of 100 samples: compaction copies 3.1, 3.9 and
    /// 6.2 samples per sample at k = 8, 32 and 128 — under ⌈log2 k⌉ —
    /// where a cumulative index cloned per push copies n(k+1)/2, i.e.
    /// (k+1)/2 per sample: 1.4×, 4.2× and 10.4× as many.
    #[test]
    fn equal_deltas_copy_n_log_k_samples() {
        let size = 100;
        let mut copies = Vec::new();
        for k in [8usize, 32, 128] {
            let mut chunks = IndexChunks::default();
            let copied: usize = (0..k)
                .map(|i| chunks.push(Arc::new(synthetic_delta((i * size) as u64, size, 7))))
                .sum();
            let n = k * size;
            copies.push((k, copied, n * (k + 1) / 2));
        }
        // (k, copied by compaction, copied by a clone per push)
        assert_eq!(
            copies,
            [
                (8, 2_500, 3_600),
                (32, 12_600, 52_800),
                (128, 79_200, 825_600)
            ]
        );
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = SampleIndex::default();
        assert!(idx.is_empty());
        assert!(idx.top_flips(5).is_empty());
        assert!(idx.get(SampleHash::from_ordinal(0)).is_none());
        let folded = build(&[], vt_model::time::Timestamp(0));
        assert_eq!(folded.len(), 0);
        assert_eq!(
            SampleIndex::concat(&[&folded, &SampleIndex::default()]),
            folded
        );
    }

    /// The empty index has one representation, and it is an identity of
    /// `concat` on either side.
    #[test]
    fn the_empty_index_is_an_identity_of_concat() {
        let study = study();
        let ws = study.sim().config().window_start();
        let x = build(&study.records()[..300], ws);
        let empty = SampleIndex::default();
        assert_eq!(empty, build(&[], ws));
        assert_eq!(SampleIndex::concat(&[&empty, &x]), x);
        assert_eq!(SampleIndex::concat(&[&x, &empty]), x);
        assert_eq!(SampleIndex::concat(&[&empty, &x, &empty]), x);
        assert_eq!(SampleIndex::concat(&[]), empty);
    }

    /// `concat` of any split, its parts in either order, equals the fold
    /// over the whole; it sizes its columns exactly, and `heap_bytes`
    /// is those columns and nothing else.
    #[test]
    fn concat_equals_fold_over_concatenation() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let whole = build(records, ws);
        assert!(whole.hashes.windows(2).all(|pair| pair[0] < pair[1]));
        for split in [1usize, 3, 7] {
            let mut parts: Vec<SampleIndex> = (records.chunks(records.len().div_ceil(split)))
                .map(|seg| build(seg, ws))
                .collect();
            for _ in 0..2 {
                let concat = SampleIndex::concat(&parts.iter().collect::<Vec<_>>());
                assert_eq!(concat, whole, "split={split}");
                assert_eq!(concat.positives.capacity(), whole.report_rows());
                assert_eq!(concat.offsets.capacity(), whole.len() + 1);
                parts.reverse();
            }
        }
        let columns = whole.len() * (16 + 2 + 1 + 4 + 2 + 8) + whole.report_rows() * (4 + 8) + 8;
        assert_eq!(whole.heap_bytes(), columns);
    }

    /// The records oracle (`TrajectoryTable::build`, records in ordinal
    /// order) and the daemon's route (a store's rows through the decode
    /// arena, hash-ascending) index one feed identically.
    #[test]
    fn the_records_route_and_the_arena_route_give_one_index() {
        let study = study();
        let ws = study.sim().config().window_start();
        let records = study.records();
        let oracle = TrajectoryTable::build(records, ws);
        assert!(
            oracle.hashes().windows(2).any(|pair| pair[0] > pair[1]),
            "the oracle table is not hash-ordered"
        );
        let mut arena = crate::arena::DecodeArena::new();
        study.build_store().for_each_row(&mut arena);
        let table = TrajectoryTable::build_from_arena(&arena, ws, 2, Obs::noop());
        let via_arena = SampleIndex::fold_table(&table);
        assert_eq!(via_arena.len(), records.len());
        assert_eq!(SampleIndex::fold_table(&oracle), via_arena);
    }

    #[test]
    fn obs_time_is_not_folded_into_the_index() {
        // The index must be a pure function of the records: two folds
        // of the same segment are equal (no timestamps, no randomness).
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let obs = Obs::new();
        let t1 = TrajectoryTable::build_with(records, ws, 2, &obs);
        let a = SampleIndex::fold_table(&t1);
        let b = SampleIndex::fold_table(&t1);
        assert_eq!(a, b);
    }
}
