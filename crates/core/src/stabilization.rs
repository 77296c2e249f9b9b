//! §6 — label stabilization (Obs. 8–9, Fig. 9).
//!
//! Two questions, both over the fresh dynamic dataset *S*:
//!
//! 1. **AV-Rank stabilization** (§6.1): does the positives sequence
//!    eventually settle? A sample *reaches stability under fluctuation
//!    range r* if some suffix of ≥2 reports has `max − min ≤ r`. The
//!    paper sweeps r = 0..=5 (10.9% at r = 0 up to 88.11% at r = 5) and
//!    reports >90% of stabilizing samples settle within 30 days.
//! 2. **File-label stabilization** (§6.2): under a threshold t, the
//!    B/M label sequence stabilizes when a constant suffix (≥2 labels)
//!    begins; the paper reports the mean serial number of the
//!    stabilizing scan and the mean days to stability per t, with and
//!    without 2-scan samples (Fig. 9a/9b).

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use vt_model::time::Duration;

/// Combined §6 output: the r-sweep plus both Fig. 9 variants.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilizationOutput {
    /// §6.1 sweep over r = 0..=5 (Obs. 8).
    pub rank: Vec<RankStabilization>,
    /// §6.2 over all of *S* (Fig. 9a).
    pub label_all: Vec<LabelStabilization>,
    /// §6.2 excluding 2-scan samples (Fig. 9b).
    pub label_multi: Vec<LabelStabilization>,
}

/// §6 stabilization stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Stabilization;

impl Analysis for Stabilization {
    type Output = StabilizationOutput;
    type Partial = StabilizationPartial;

    fn name(&self) -> &'static str {
        "stabilization"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> StabilizationPartial {
        StabilizationPartial {
            rank: rank_stabilization_columnar(ctx),
            label_all: label_stabilization_columnar(ctx, false),
            label_multi: label_stabilization_columnar(ctx, true),
        }
    }

    fn merge(&self, acc: &mut StabilizationPartial, next: &StabilizationPartial) {
        debug_assert_eq!(acc.rank.len(), next.rank.len());
        for (a, b) in acc.rank.iter_mut().zip(&next.rank) {
            debug_assert_eq!(a.r, b.r);
            a.samples += b.samples;
            a.stabilized += b.stabilized;
            a.within_10d += b.within_10d;
            a.within_20d += b.within_20d;
            a.within_30d += b.within_30d;
        }
        for (a, b) in acc.label_all.iter_mut().zip(&next.label_all) {
            a.merge(*b);
        }
        for (a, b) in acc.label_multi.iter_mut().zip(&next.label_multi) {
            a.merge(*b);
        }
    }

    fn finish(&self, acc: &StabilizationPartial) -> StabilizationOutput {
        StabilizationOutput {
            rank: acc.rank.clone(),
            label_all: acc
                .label_all
                .iter()
                .copied()
                .map(LabelAcc::finish)
                .collect(),
            label_multi: acc
                .label_multi
                .iter()
                .copied()
                .map(LabelAcc::finish)
                .collect(),
        }
    }
}

/// Mergeable accumulator of the §6 fold ([`Stabilization`]'s
/// [`Analysis::Partial`]): the r-sweep counter blocks plus per-threshold
/// integer accumulators for both Fig. 9 variants. All fields merge by
/// addition, so per-segment partials combine exactly — the means are
/// only formed in `finish`.
#[derive(Debug, Clone)]
pub struct StabilizationPartial {
    rank: Vec<RankStabilization>,
    label_all: Vec<LabelAcc>,
    label_multi: Vec<LabelAcc>,
}

impl StabilizationPartial {
    /// Per-threshold `(t, stabilized, minutes_sum)` totals of the
    /// all-samples Fig. 9 variant — the view the streaming regression
    /// detector ([`crate::alerts`]) compares segment-vs-baseline.
    pub(crate) fn label_all_totals(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.label_all
            .iter()
            .map(|a| (a.t, a.stabilized, a.minutes_sum))
    }
}

/// Per-threshold integer accumulator for one Fig. 9 variant. The serial
/// and elapsed-minutes sums stay integral (scan serials and scan
/// timestamps are whole minutes), which makes the accumulation
/// associative — any segment split merges to the same sums bit for bit.
#[derive(Debug, Clone, Copy)]
struct LabelAcc {
    t: u32,
    samples: u64,
    stabilized: u64,
    serial_sum: u64,
    minutes_sum: u64,
    within_15: u64,
    within_30: u64,
}

impl LabelAcc {
    fn new(t: u32) -> Self {
        Self {
            t,
            samples: 0,
            stabilized: 0,
            serial_sum: 0,
            minutes_sum: 0,
            within_15: 0,
            within_30: 0,
        }
    }

    fn merge(&mut self, other: LabelAcc) {
        debug_assert_eq!(self.t, other.t);
        self.samples += other.samples;
        self.stabilized += other.stabilized;
        self.serial_sum += other.serial_sum;
        self.minutes_sum += other.minutes_sum;
        self.within_15 += other.within_15;
        self.within_30 += other.within_30;
    }

    fn finish(self) -> LabelStabilization {
        LabelStabilization {
            t: self.t,
            samples: self.samples,
            stabilized: self.stabilized,
            mean_serial: if self.stabilized == 0 {
                0.0
            } else {
                self.serial_sum as f64 / self.stabilized as f64
            },
            mean_days: if self.stabilized == 0 {
                0.0
            } else {
                self.minutes_sum as f64 / (24.0 * 60.0) / self.stabilized as f64
            },
            within_15d: self.within_15,
            within_30d: self.within_30,
        }
    }
}

/// The §6.1 sweep: one `[u64; 5]` counter block per r.
fn rank_stabilization_columnar(ctx: &AnalysisCtx) -> Vec<RankStabilization> {
    let table = ctx.table;
    let mut out: Vec<RankStabilization> = (0..=5)
        .map(|r| RankStabilization {
            r,
            samples: 0,
            stabilized: 0,
            within_10d: 0,
            within_20d: 0,
            within_30d: 0,
        })
        .collect();
    for &rec in ctx.s_indices() {
        let p = table.positives_of(rec);
        let dates = table.dates_of(rec);
        let t0 = dates[0];
        for stat in &mut out {
            stat.samples += 1;
            if let Some(i) = rank_stabilization_index(p, stat.r) {
                stat.stabilized += 1;
                let days = Duration::minutes(dates[i] - t0).as_days_f64();
                if days <= 10.0 {
                    stat.within_10d += 1;
                }
                if days <= 20.0 {
                    stat.within_20d += 1;
                }
                if days <= 30.0 {
                    stat.within_30d += 1;
                }
            }
        }
    }
    out
}

/// The §6.2 stabilization point of the threshold-`t` label sequence an
/// AV-Rank column implies — the smallest `i` such that the labels from
/// `i` on are constant and number at least two (a single final report
/// is trivially 'unchanged' and says nothing about stability) — without
/// materializing the labels. Public so
/// the per-sample [`crate::index::SampleIndex`] answers "stabilized at
/// `t`?" with exactly the §6.2 sweep's definition.
pub fn label_stabilization_index(p: &[u32], t: u32) -> Option<usize> {
    if p.len() < 2 {
        return None;
    }
    let last = p[p.len() - 1] >= t;
    let mut start = p.len() - 1;
    while start > 0 && (p[start - 1] >= t) == last {
        start -= 1;
    }
    (p.len() - start >= 2).then_some(start)
}

/// All nine [`FIG9_THRESHOLDS`] stabilization verdicts of one AV-Rank
/// column in a single pass: bit `i` is set iff
/// `label_stabilization_index(p, FIG9_THRESHOLDS[i]).is_some()`.
///
/// Replaces nine separate backward mask walks with one: the index
/// exists iff the trailing constant-label run has length ≥ 2, and the
/// run reaches length 2 exactly when the last two labels agree — so
/// *existence* (unlike the index's position) is decided by the final
/// two AV-Ranks alone, for every threshold at once. The per-threshold
/// function stays the source of truth; a test pins the equivalence.
pub fn stabilization_mask(p: &[u32]) -> u16 {
    let n = p.len();
    if n < 2 {
        return 0;
    }
    let a = p[n - 2];
    let b = p[n - 1];
    let mut mask = 0u16;
    for (bit, &t) in FIG9_THRESHOLDS.iter().enumerate() {
        if (a >= t) == (b >= t) {
            mask |= 1 << bit;
        }
    }
    mask
}

/// The §6.2 sweep, one accumulator per threshold. Every accumulator is
/// an integer sum (scan serials; elapsed whole minutes), so the totals
/// are independent of any range or segment split — the means are only
/// formed when the partial is finished.
fn label_stabilization_columnar(ctx: &AnalysisCtx, exclude_two_scans: bool) -> Vec<LabelAcc> {
    let table = ctx.table;
    let s = ctx.s_indices();
    FIG9_THRESHOLDS
        .iter()
        .map(|&t| {
            let mut acc = LabelAcc::new(t);
            for &rec in s {
                if exclude_two_scans && table.report_count(rec) <= 2 {
                    continue;
                }
                acc.samples += 1;
                let p = table.positives_of(rec);
                if let Some(i) = label_stabilization_index(p, t) {
                    acc.stabilized += 1;
                    acc.serial_sum += (i + 1) as u64;
                    let dates = table.dates_of(rec);
                    let minutes = dates[i] - dates[0];
                    acc.minutes_sum += minutes as u64;
                    let days = Duration::minutes(minutes).as_days_f64();
                    if days <= 15.0 {
                        acc.within_15 += 1;
                    }
                    if days <= 30.0 {
                        acc.within_30 += 1;
                    }
                }
            }
            acc
        })
        .collect()
}

/// §6.1 result for one fluctuation range r.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStabilization {
    /// The fluctuation range r.
    pub r: u32,
    /// Samples examined.
    pub samples: u64,
    /// Samples that reached stability.
    pub stabilized: u64,
    /// Of those, how many settled within 10 / 20 / 30 days of their
    /// first scan.
    pub within_10d: u64,
    /// See `within_10d`.
    pub within_20d: u64,
    /// See `within_10d`.
    pub within_30d: u64,
}

impl RankStabilization {
    /// Fraction of samples reaching stability.
    pub fn stabilized_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.stabilized as f64 / self.samples as f64
        }
    }

    /// Of stabilizing samples, the fraction settling within 30 days.
    pub fn within_30d_fraction(&self) -> f64 {
        if self.stabilized == 0 {
            0.0
        } else {
            self.within_30d as f64 / self.stabilized as f64
        }
    }
}

/// Earliest index `i` such that the suffix `p[i..]` (length ≥ 2) has
/// `max − min ≤ r`. Exposed for tests.
pub fn rank_stabilization_index(p: &[u32], r: u32) -> Option<usize> {
    if p.len() < 2 {
        return None;
    }
    // Walk backwards maintaining suffix min/max; record the smallest i
    // whose suffix satisfies the bound. Suffix envelopes only widen as
    // i decreases, so the last i where the bound holds going backwards
    // is the answer — once violated it stays violated.
    let mut min = u32::MAX;
    let mut max = 0u32;
    let mut best: Option<usize> = None;
    for i in (0..p.len()).rev() {
        min = min.min(p[i]);
        max = max.max(p[i]);
        if max - min <= r && p.len() - i >= 2 {
            best = Some(i);
        }
        if max - min > r {
            break;
        }
    }
    best
}

#[cfg(test)]
pub(crate) fn rank_stabilization_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
) -> Vec<RankStabilization> {
    let mut out: Vec<RankStabilization> = (0..=5)
        .map(|r| RankStabilization {
            r,
            samples: 0,
            stabilized: 0,
            within_10d: 0,
            within_20d: 0,
            within_30d: 0,
        })
        .collect();
    for rec in s.iter(records) {
        let p = rec.positives();
        let t0 = rec.reports[0].analysis_date;
        for stat in &mut out {
            stat.samples += 1;
            if let Some(i) = rank_stabilization_index(&p, stat.r) {
                stat.stabilized += 1;
                let days = (rec.reports[i].analysis_date - t0).as_days_f64();
                if days <= 10.0 {
                    stat.within_10d += 1;
                }
                if days <= 20.0 {
                    stat.within_20d += 1;
                }
                if days <= 30.0 {
                    stat.within_30d += 1;
                }
            }
        }
    }
    out
}

/// §6.2 result for one threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStabilization {
    /// The threshold t.
    pub t: u32,
    /// Samples examined.
    pub samples: u64,
    /// Samples whose label sequence stabilized.
    pub stabilized: u64,
    /// Mean 1-based serial number of the stabilizing scan.
    pub mean_serial: f64,
    /// Mean days from first scan to the stabilizing scan.
    pub mean_days: f64,
    /// Of stabilizing samples: settled within 15 days.
    pub within_15d: u64,
    /// Of stabilizing samples: settled within 30 days.
    pub within_30d: u64,
}

impl LabelStabilization {
    /// Fraction of samples stabilizing (paper: 93.14%–98.04%).
    pub fn stabilized_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.stabilized as f64 / self.samples as f64
        }
    }

    /// Of samples, fraction stable within 30 days (paper: ~91–92%).
    pub fn within_30d_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.within_30d as f64 / self.samples as f64
        }
    }
}

/// The paper's Fig. 9 threshold set.
pub const FIG9_THRESHOLDS: [u32; 9] = [2, 5, 10, 15, 20, 25, 30, 35, 40];

/// Start of the maximal constant suffix of a label sequence, if that
/// suffix holds at least two labels: the §6.2 search over materialized
/// labels, which the serial oracle below keeps as the reference
/// [`label_stabilization_index`] is compared against.
#[cfg(test)]
fn constant_suffix_start(labels: &[bool]) -> Option<usize> {
    let last = *labels.last()?;
    let mut start = labels.len() - 1;
    while start > 0 && labels[start - 1] == last {
        start -= 1;
    }
    (labels.len() - start >= 2).then_some(start)
}

/// Runs the §6.2 sweep. `exclude_two_scans` selects Fig. 9b's variant
/// (samples with only two scans trivially stabilize and dominate the
/// averages).
#[cfg(test)]
pub(crate) fn label_stabilization_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    exclude_two_scans: bool,
) -> Vec<LabelStabilization> {
    FIG9_THRESHOLDS
        .iter()
        .map(|&t| {
            let mut samples = 0u64;
            let mut stabilized = 0u64;
            // Whole serials and whole minutes, summed as integers and
            // divided once, as `LabelAcc` does.
            let mut serial_sum = 0u64;
            let mut minutes_sum = 0u64;
            let mut within_15 = 0u64;
            let mut within_30 = 0u64;
            for rec in s.iter(records) {
                if exclude_two_scans && rec.report_count() <= 2 {
                    continue;
                }
                samples += 1;
                let malicious: Vec<bool> = rec.reports.iter().map(|r| r.positives() >= t).collect();
                if let Some(i) = constant_suffix_start(&malicious) {
                    stabilized += 1;
                    serial_sum += (i + 1) as u64;
                    let elapsed = rec.reports[i].analysis_date - rec.reports[0].analysis_date;
                    minutes_sum += elapsed.as_minutes() as u64;
                    let days = elapsed.as_days_f64();
                    if days <= 15.0 {
                        within_15 += 1;
                    }
                    if days <= 30.0 {
                        within_30 += 1;
                    }
                }
            }
            LabelStabilization {
                t,
                samples,
                stabilized,
                mean_serial: if stabilized == 0 {
                    0.0
                } else {
                    serial_sum as f64 / stabilized as f64
                },
                mean_days: if stabilized == 0 {
                    0.0
                } else {
                    minutes_sum as f64 / (24.0 * 60.0) / stabilized as f64
                },
                within_15d: within_15,
                within_30d: within_30,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use proptest::prelude::*;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict,
        VerdictVec,
    };

    #[test]
    fn rank_stabilization_index_cases() {
        // Settles at index 2 for r=0 (suffix 5,5,5).
        assert_eq!(rank_stabilization_index(&[1, 3, 5, 5, 5], 0), Some(2));
        // r=2 allows the suffix to start at index 1 (3,5,5,5 → spread 2).
        assert_eq!(rank_stabilization_index(&[1, 3, 5, 5, 5], 2), Some(1));
        // A final change means no r=0 stability.
        assert_eq!(rank_stabilization_index(&[2, 2, 3], 0), None);
        // …but r=1 covers the whole thing.
        assert_eq!(rank_stabilization_index(&[2, 2, 3], 1), Some(0));
        // Too short.
        assert_eq!(rank_stabilization_index(&[7], 0), None);
        // Two equal reports: stable from 0.
        assert_eq!(rank_stabilization_index(&[4, 4], 0), Some(0));
        // Two differing reports: never at r=0.
        assert_eq!(rank_stabilization_index(&[4, 6], 0), None);
    }

    proptest! {
        #[test]
        fn index_is_sound_and_monotone_in_r(
            p in proptest::collection::vec(0u32..20, 2..30)
        ) {
            let mut last_idx: Option<usize> = None;
            for r in 0..6u32 {
                let idx = rank_stabilization_index(&p, r);
                if let Some(i) = idx {
                    let suffix = &p[i..];
                    prop_assert!(suffix.len() >= 2);
                    let max = *suffix.iter().max().unwrap();
                    let min = *suffix.iter().min().unwrap();
                    prop_assert!(max - min <= r);
                    // Minimality: starting one earlier violates the bound
                    // (or is the start).
                    if i > 0 {
                        let wider = &p[i - 1..];
                        let wmax = *wider.iter().max().unwrap();
                        let wmin = *wider.iter().min().unwrap();
                        prop_assert!(wmax - wmin > r);
                    }
                }
                // Larger r stabilizes at the same or earlier index.
                if let (Some(prev), Some(cur)) = (last_idx, idx) {
                    prop_assert!(cur <= prev);
                }
                if last_idx.is_some() {
                    prop_assert!(idx.is_some(), "stability must persist as r grows");
                }
                last_idx = idx;
            }
        }
    }

    proptest! {
        #[test]
        fn mask_matches_per_threshold_walks(
            p in proptest::collection::vec(0u32..45, 0..12)
        ) {
            let mask = stabilization_mask(&p);
            for (bit, &t) in FIG9_THRESHOLDS.iter().enumerate() {
                prop_assert_eq!(
                    mask >> bit & 1 == 1,
                    label_stabilization_index(&p, t).is_some(),
                    "t={} p={:?}", t, &p
                );
            }
        }
    }

    #[test]
    fn constant_suffix_start_cases() {
        const B: bool = false;
        const M: bool = true;
        assert_eq!(constant_suffix_start(&[B, B]), Some(0));
        assert_eq!(constant_suffix_start(&[B, M, B, M, M, M]), Some(3));
        assert_eq!(constant_suffix_start(&[M, B, B]), Some(1));
        // A final singleton says nothing about stability.
        assert_eq!(constant_suffix_start(&[B, B, M]), None);
        assert_eq!(constant_suffix_start(&[B]), None);
        assert_eq!(constant_suffix_start(&[]), None);
    }

    proptest! {
        #[test]
        fn index_matches_the_materialized_label_search(
            p in proptest::collection::vec(0u32..45, 0..40),
            t in 0u32..45,
        ) {
            let labels: Vec<bool> = p.iter().map(|&x| x >= t).collect();
            prop_assert_eq!(label_stabilization_index(&p, t), constant_suffix_start(&labels));
        }
    }

    fn record(i: u64, positives_seq: &[u32], gap_days: i64) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: FileType::Win32Exe,
            origin: first,
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = positives_seq
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let mut verdicts = VerdictVec::new(70);
                for e in 0..p {
                    verdicts.set(EngineId(e as u8), Verdict::Malicious);
                }
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date: first + Duration::days(k as i64 * gap_days),
                    last_submission_date: first,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    #[test]
    fn rank_sweep_counts() {
        let records = vec![
            record(0, &[1, 5, 5, 5], 1), // stabilizes at r=0 (idx 1, day 1)
            record(1, &[1, 2], 1),       // only stabilizes at r>=1
        ];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let sweep = rank_stabilization_impl(&records, &s);
        assert_eq!(sweep[0].r, 0);
        assert_eq!(sweep[0].samples, 2);
        assert_eq!(sweep[0].stabilized, 1);
        assert_eq!(sweep[0].within_30d, 1);
        assert_eq!(sweep[1].stabilized, 2);
        assert!((sweep[1].stabilized_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_sweep_and_exclusion() {
        // Under t=2: sample 0's labels are B,M,M,M → stabilizes at
        // serial 2 (day 1). Sample 1: B,M → never (singleton suffix).
        let records = vec![record(0, &[1, 5, 5, 5], 1), record(1, &[1, 2], 1)];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let all = label_stabilization_impl(&records, &s, false);
        let t2 = all[0];
        assert_eq!(t2.t, 2);
        assert_eq!(t2.samples, 2);
        assert_eq!(t2.stabilized, 1);
        assert!((t2.mean_serial - 2.0).abs() < 1e-12);
        assert!((t2.mean_days - 1.0).abs() < 1e-12);

        let excl = label_stabilization_impl(&records, &s, true);
        assert_eq!(excl[0].samples, 1, "2-scan sample excluded");
    }
}
