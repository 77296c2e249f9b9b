//! The per-sample query index: hash → trajectory summary, built at
//! fold time, merged like any other Partial.
//!
//! The paper's object of study is an online scanner API answering
//! *per-hash* questions — "what does the platform say about this sample
//! now, and has its label stabilized?". The batch pipeline aggregates
//! those answers away; [`SampleIndex`] keeps them addressable. One
//! index partial is folded per sealed segment (from the segment's
//! records and its already-built [`TrajectoryTable`], so nothing is
//! re-decoded), and partials merge by column concatenation — the same
//! `merge(fold(x), fold(y)) == fold(x ++ y)` shape every analysis
//! stage upholds, which is what lets `vtld serve`'s merger thread
//! assemble the global index from shard-local accumulations in slot
//! order and publish it inside the same epoch-swapped snapshot as the
//! study results. Per-hash lookups are order-independent (samples are
//! disjoint across segments by the seal contract), and the only ranked
//! query ([`SampleIndex::top_flips`]) sorts by `(flips desc, hash asc)`
//! — deterministic at every shard and worker count.
//!
//! Per sample the index holds the full AV-Rank timeline (positives and
//! analysis minutes, CSR-packed), the membership flags the table
//! computed, the engine-label **flip count** (same definition as the
//! §7.1 stage: flips between *consecutive active* labels, `Undetected`
//! scans skipped), and a 9-bit **stabilization mask** — bit *i* set
//! when the sample's threshold-`FIG9_THRESHOLDS[i]` label sequence has
//! stabilized (§6.2).

use std::cmp::Reverse;
use std::collections::HashMap;

use crate::stabilization::{stabilization_mask, FIG9_THRESHOLDS};
use crate::table::TrajectoryTable;
use vt_model::{FileType, SampleHash};

/// Per-sample membership flags, mirroring the [`TrajectoryTable`]
/// flag semantics (recomputed through its accessors, so the two can
/// never disagree).
mod flag {
    /// More than one report.
    pub const MULTI: u8 = 1 << 0;
    /// Δ = 0 over a non-empty trajectory.
    pub const STABLE: u8 = 1 << 1;
    /// First submitted inside the observation window.
    pub const FRESH: u8 = 1 << 2;
    /// Member of the fresh dynamic dataset *S*.
    pub const IN_S: u8 = 1 << 3;
}

/// An epoch-consistent, mergeable hash → trajectory-summary index.
///
/// Columnar: per-sample scalars sit in flat arrays, the per-report
/// timeline columns are CSR-packed behind `offsets`, and a hash map
/// resolves a [`SampleHash`] to its record slot. `fold` builds one from
/// a segment, `merge` concatenates two (disjoint sample sets, canonical
/// order) — the result answers per-hash queries identically however the
/// stream was segmented.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleIndex {
    hashes: Vec<SampleHash>,
    type_idx: Vec<u16>,
    flags: Vec<u8>,
    flips: Vec<u32>,
    stab_mask: Vec<u16>,
    offsets: Vec<u64>,
    positives: Vec<u32>,
    date_min: Vec<i64>,
    lookup: HashMap<SampleHash, u32>,
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
    /// Folds one sealed segment's table into an index partial — the
    /// columnar entry point: everything the index needs (including the
    /// sample hashes) now lives in the [`TrajectoryTable`], so no
    /// `SampleRecord` is touched and the zero-copy segment-fold path
    /// can index without ever materializing rows.
    pub fn fold_table(table: &TrajectoryTable) -> Self {
        let n = table.len();
        let rows = table.report_rows();
        let mut idx = SampleIndex {
            hashes: Vec::with_capacity(n),
            type_idx: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            flips: Vec::with_capacity(n),
            stab_mask: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n + 1),
            positives: Vec::with_capacity(rows),
            date_min: Vec::with_capacity(rows),
            lookup: HashMap::with_capacity(n),
        };
        idx.offsets.push(0);
        for i in 0..n {
            let p = table.positives_of(i);
            let mut f = 0u8;
            f |= if table.is_multi_report(i) {
                flag::MULTI
            } else {
                0
            };
            f |= if table.is_stable(i) { flag::STABLE } else { 0 };
            f |= if table.is_fresh(i) { flag::FRESH } else { 0 };
            f |= if table.in_s(i) { flag::IN_S } else { 0 };

            let hash = table.hash(i);
            let slot = idx.hashes.len() as u32;
            idx.hashes.push(hash);
            idx.type_idx.push(table.type_idx(i) as u16);
            idx.flags.push(f);
            idx.flips.push(record_flips(table, i));
            idx.stab_mask.push(stabilization_mask(p));
            idx.positives.extend_from_slice(p);
            idx.date_min.extend_from_slice(table.dates_of(i));
            idx.offsets.push(idx.positives.len() as u64);
            let prior = idx.lookup.insert(hash, slot);
            debug_assert!(prior.is_none(), "segments hold whole, distinct samples");
        }
        idx
    }

    /// Merges a later accumulation into this one. The two must cover
    /// disjoint sample sets (the seal contract: a sample's whole
    /// trajectory lives in exactly one segment of one slot stream) —
    /// per-hash answers are then independent of the merge order, and
    /// [`top_flips`](Self::top_flips) orders explicitly.
    pub fn merge(mut self, next: Self) -> Self {
        let base = self.positives.len() as u64;
        let slot_base = self.hashes.len() as u32;
        for (k, v) in next.lookup {
            let prior = self.lookup.insert(k, slot_base + v);
            debug_assert!(prior.is_none(), "sample sets must be disjoint");
        }
        self.hashes.extend(next.hashes);
        self.type_idx.extend(next.type_idx);
        self.flags.extend(next.flags);
        self.flips.extend(next.flips);
        self.stab_mask.extend(next.stab_mask);
        self.positives.extend(next.positives);
        self.date_min.extend(next.date_min);
        self.offsets
            .extend(next.offsets.iter().skip(1).map(|o| base + o));
        self
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

    /// Looks one sample up by hash.
    pub fn get(&self, hash: SampleHash) -> Option<SampleSummary<'_>> {
        let &slot = self.lookup.get(&hash)?;
        Some(self.summary(slot as usize))
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

    /// Iterates every indexed summary (column order — only use where
    /// order does not matter or is re-sorted).
    pub fn iter(&self) -> impl Iterator<Item = SampleSummary<'_>> {
        (0..self.len()).map(|i| self.summary(i))
    }

    /// Sums the §6 stabilization masks over the fresh-dynamic samples:
    /// `counts[k]` is how many *S* members stabilized at
    /// [`FIG9_THRESHOLDS`]`[k]`, and the second value is |*S*| within
    /// this index. Addition over disjoint indexes, so per-slot answers
    /// sum to the global sweep — the serve tier's `recommend` verb is
    /// built on this, and the totals match the offline
    /// `label_stabilization_all` counts bit for bit.
    pub fn stab_counts_in_s(&self) -> ([u64; FIG9_THRESHOLDS.len()], u64) {
        let mut counts = [0u64; FIG9_THRESHOLDS.len()];
        let mut in_s = 0u64;
        for i in 0..self.len() {
            if self.flags[i] & flag::IN_S == 0 {
                continue;
            }
            in_s += 1;
            let mask = self.stab_mask[i];
            for (bit, count) in counts.iter_mut().enumerate() {
                *count += u64::from(mask >> bit & 1);
            }
        }
        (counts, in_s)
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
    fn merge_equals_fold_over_concatenation() {
        let study = study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let whole = build(records, ws);
        for split in [1usize, 3, 7] {
            let chunk = records.len().div_ceil(split);
            let mut acc: Option<SampleIndex> = None;
            for seg in records.chunks(chunk) {
                let part = build(seg, ws);
                acc = Some(match acc {
                    None => part,
                    Some(a) => a.merge(part),
                });
            }
            let merged = acc.expect("non-empty study");
            assert_eq!(merged, whole, "split={split}");
        }
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
        let chunk = records.len().div_ceil(4);
        let mut acc: Option<SampleIndex> = None;
        for seg in records.chunks(chunk) {
            let part = build(seg, ws);
            acc = Some(match acc {
                None => part,
                Some(a) => a.merge(part),
            });
        }
        let merged = acc.unwrap();
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
                // Report-less samples: `top_flips` reads two columns.
                let idx = SampleIndex {
                    hashes: samples
                        .iter()
                        .enumerate()
                        .map(|(i, &(_, salt))| SampleHash(u128::from(salt) << 32 | i as u128))
                        .collect(),
                    flips: samples.iter().map(|&(flips, _)| flips).collect(),
                    type_idx: vec![0; n],
                    flags: vec![0; n],
                    stab_mask: vec![0; n],
                    offsets: vec![0; n + 1],
                    ..SampleIndex::default()
                };
                for k in [0, 1, n.saturating_sub(1), n, n + 1] {
                    let got: Vec<_> = idx.top_flips(k).iter().map(|s| s.hash).collect();
                    prop_assert_eq!(got, top_by_full_sort(&idx, k), "k={} of {}", k, n);
                }
            }
        }
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = SampleIndex::default();
        assert!(idx.is_empty());
        assert!(idx.top_flips(5).is_empty());
        assert!(idx.get(SampleHash::from_ordinal(0)).is_none());
        let folded = build(&[], vt_model::time::Timestamp(0));
        assert_eq!(folded.len(), 0);
        assert_eq!(folded, folded.clone().merge(SampleIndex::default()));
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
