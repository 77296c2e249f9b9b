//! §5.1–§5.2 — stable vs. dynamic samples and the character of the
//! stable ones (Obs. 1–2, Figs. 2–4).
//!
//! *Stable* samples have a constant AV-Rank over all their scans
//! (Δ = 0); *dynamic* samples don't. Only multi-report samples are
//! measurable. The paper finds an almost exact 50/50 split, that 66.36%
//! of stable samples sit at AV-Rank 0, and that benign (rank-0) stable
//! samples hold their state longest.

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::records::SampleRecord;
use std::collections::BTreeMap;
use vt_model::time::Duration;
use vt_stats::{BoxplotSummary, Histogram};

/// Outcome of the §5.1–5.2 analysis.
#[derive(Debug, Clone)]
pub struct StabilityAnalysis {
    /// Multi-report samples examined.
    pub multi_report_samples: u64,
    /// Stable samples (Δ = 0).
    pub stable: u64,
    /// Dynamic samples (Δ > 0).
    pub dynamic: u64,
    /// Fig. 2: reports-per-sample histogram of stable samples.
    pub stable_report_hist: Histogram,
    /// Fig. 2: reports-per-sample histogram of dynamic samples.
    pub dynamic_report_hist: Histogram,
    /// Fig. 3: histogram of the (constant) AV-Rank of stable samples.
    pub stable_rank_hist: Histogram,
    /// §5.2.1: scan-count statistics for stable samples at rank 0:
    /// (samples, scanned-exactly-twice, total scans).
    pub rank0_scans: (u64, u64, u64),
    /// §5.2.1: same for stable samples at rank > 0.
    pub rank_pos_scans: (u64, u64, u64),
    /// Fig. 4: per-AV-Rank box plots of the stable time span in days
    /// (rank capped at [`Self::RANK_CAP`]; entry `None` when no sample
    /// holds that rank).
    pub span_by_rank: Vec<Option<BoxplotSummary>>,
    /// Fraction of stable samples whose span is within 17 days
    /// (paper: ~one half).
    pub span_within_17d: f64,
    /// Fraction within 350 days (paper: >93%).
    pub span_within_350d: f64,
}

impl StabilityAnalysis {
    /// Ranks above this are folded into the last bucket of
    /// [`StabilityAnalysis::span_by_rank`].
    pub const RANK_CAP: usize = 20;

    /// Fraction of multi-report samples that are stable (paper: 49.9%).
    pub fn stable_fraction(&self) -> f64 {
        if self.multi_report_samples == 0 {
            0.0
        } else {
            self.stable as f64 / self.multi_report_samples as f64
        }
    }

    /// Fraction of stable samples at AV-Rank 0 (paper: 66.36%).
    pub fn stable_at_zero_fraction(&self) -> f64 {
        let total = self.stable_rank_hist.total();
        if total == 0 {
            0.0
        } else {
            self.stable_rank_hist.count(0) as f64 / total as f64
        }
    }

    /// Fraction of stable samples with AV-Rank ≤ 5 (paper: >80%).
    pub fn stable_le5_fraction(&self) -> f64 {
        self.stable_rank_hist.fraction_le(5)
    }

    /// §5.2.1's refinement: excluding 2-scan samples, the fraction of
    /// stable samples that are benign (rank 0) (paper: 81.7%).
    pub fn stable_benign_fraction_excluding_two_scans(&self) -> f64 {
        let zero = self.rank0_scans.0 - self.rank0_scans.1;
        let pos = self.rank_pos_scans.0 - self.rank_pos_scans.1;
        if zero + pos == 0 {
            0.0
        } else {
            zero as f64 / (zero + pos) as f64
        }
    }

    /// Mean scans of stable rank-0 samples (paper: 3.54).
    pub fn rank0_mean_scans(&self) -> f64 {
        if self.rank0_scans.0 == 0 {
            0.0
        } else {
            self.rank0_scans.2 as f64 / self.rank0_scans.0 as f64
        }
    }

    /// Mean scans of stable rank>0 samples (paper: 2.92).
    pub fn rank_pos_mean_scans(&self) -> f64 {
        if self.rank_pos_scans.0 == 0 {
            0.0
        } else {
            self.rank_pos_scans.2 as f64 / self.rank_pos_scans.0 as f64
        }
    }
}

/// §5.1–5.2 stability stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Stability;

impl Analysis for Stability {
    type Output = StabilityAnalysis;
    type Partial = StabilityPartial;

    fn name(&self) -> &'static str {
        "stability"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> StabilityPartial {
        let table = ctx.table;
        let mut acc = StabilityPartial::new();
        for i in ctx.samples() {
            if !table.is_multi_report(i) {
                continue;
            }
            acc.multi += 1;
            let n = table.report_count(i) as u64;
            if table.is_stable(i) {
                acc.stable += 1;
                acc.stable_report_hist.record(n);
                let rank = table.positives_of(i)[0];
                acc.stable_rank_hist.record(rank as u64);
                let scans = (1, (n == 2) as u64, n);
                let bucket_scans = if rank == 0 {
                    &mut acc.rank0_scans
                } else {
                    &mut acc.rank_pos_scans
                };
                bucket_scans.0 += scans.0;
                bucket_scans.1 += scans.1;
                bucket_scans.2 += scans.2;
                let dates = table.dates_of(i);
                let bucket = (rank as usize).min(StabilityAnalysis::RANK_CAP);
                *acc.spans[bucket]
                    .entry(dates[dates.len() - 1] - dates[0])
                    .or_insert(0) += 1;
            } else {
                acc.dynamic += 1;
                acc.dynamic_report_hist.record(n);
            }
        }
        acc
    }

    fn merge(&self, acc: &mut StabilityPartial, next: &StabilityPartial) {
        acc.multi += next.multi;
        acc.stable += next.stable;
        acc.dynamic += next.dynamic;
        acc.stable_report_hist.merge(&next.stable_report_hist);
        acc.dynamic_report_hist.merge(&next.dynamic_report_hist);
        acc.stable_rank_hist.merge(&next.stable_rank_hist);
        acc.rank0_scans.0 += next.rank0_scans.0;
        acc.rank0_scans.1 += next.rank0_scans.1;
        acc.rank0_scans.2 += next.rank0_scans.2;
        acc.rank_pos_scans.0 += next.rank_pos_scans.0;
        acc.rank_pos_scans.1 += next.rank_pos_scans.1;
        acc.rank_pos_scans.2 += next.rank_pos_scans.2;
        for (mine, theirs) in acc.spans.iter_mut().zip(&next.spans) {
            for (&minutes, &count) in theirs {
                *mine.entry(minutes).or_insert(0) += count;
            }
        }
    }

    fn finish(&self, acc: &StabilityPartial) -> StabilityAnalysis {
        let mut a = StabilityAnalysis {
            multi_report_samples: acc.multi,
            stable: acc.stable,
            dynamic: acc.dynamic,
            stable_report_hist: acc.stable_report_hist.clone(),
            dynamic_report_hist: acc.dynamic_report_hist.clone(),
            stable_rank_hist: acc.stable_rank_hist.clone(),
            rank0_scans: acc.rank0_scans,
            rank_pos_scans: acc.rank_pos_scans,
            span_by_rank: vec![None; StabilityAnalysis::RANK_CAP + 1],
            span_within_17d: 0.0,
            span_within_350d: 0.0,
        };
        for (bucket, counts) in acc.spans.iter().enumerate() {
            // One monotone map per distinct span keeps the runs ascending.
            let runs: Vec<(f64, u64)> = counts
                .iter()
                .map(|(&minutes, &count)| (Duration::minutes(minutes).as_days_f64(), count))
                .collect();
            a.span_by_rank[bucket] = BoxplotSummary::from_runs(&runs);
        }
        if a.stable > 0 {
            let share = |days: f64| {
                let within: u64 = acc
                    .spans
                    .iter()
                    .flatten()
                    .filter(|(&minutes, _)| Duration::minutes(minutes).as_days_f64() <= days)
                    .map(|(_, &count)| count)
                    .sum();
                within as f64 / a.stable as f64
            };
            a.span_within_17d = share(17.0);
            a.span_within_350d = share(350.0);
        }
        a
    }
}

/// Mergeable accumulator of the §5.1–5.2 fold ([`Stability`]'s
/// [`Analysis::Partial`]). Counters and histograms merge by addition.
/// Each rank bucket counts its stable samples by span in whole minutes,
/// and merges by key-wise addition. So every merge commutes, and the
/// partial is bounded by the feed's time range, not by its sample count.
#[derive(Debug, Clone)]
pub struct StabilityPartial {
    multi: u64,
    stable: u64,
    dynamic: u64,
    stable_report_hist: Histogram,
    dynamic_report_hist: Histogram,
    stable_rank_hist: Histogram,
    rank0_scans: (u64, u64, u64),
    rank_pos_scans: (u64, u64, u64),
    /// Per rank bucket (`RANK_CAP + 1` of them): stable samples counted
    /// by span, `dates[last] − dates[0]` in minutes.
    spans: Vec<BTreeMap<i64, u64>>,
}

impl StabilityPartial {
    fn new() -> Self {
        Self {
            multi: 0,
            stable: 0,
            dynamic: 0,
            stable_report_hist: Histogram::new(64),
            dynamic_report_hist: Histogram::new(64),
            stable_rank_hist: Histogram::new(71),
            rank0_scans: (0, 0, 0),
            rank_pos_scans: (0, 0, 0),
            spans: vec![BTreeMap::new(); StabilityAnalysis::RANK_CAP + 1],
        }
    }
}

#[cfg(test)]
pub(crate) fn analyze_impl(records: &[SampleRecord]) -> StabilityAnalysis {
    let mut a = StabilityAnalysis {
        multi_report_samples: 0,
        stable: 0,
        dynamic: 0,
        stable_report_hist: Histogram::new(64),
        dynamic_report_hist: Histogram::new(64),
        stable_rank_hist: Histogram::new(71),
        rank0_scans: (0, 0, 0),
        rank_pos_scans: (0, 0, 0),
        span_by_rank: vec![None; StabilityAnalysis::RANK_CAP + 1],
        span_within_17d: 0.0,
        span_within_350d: 0.0,
    };
    // Span samples per rank bucket, collected then summarized.
    let mut spans: Vec<Vec<f64>> = vec![Vec::new(); StabilityAnalysis::RANK_CAP + 1];
    for r in records {
        if !r.is_multi_report() {
            continue;
        }
        a.multi_report_samples += 1;
        let n = r.report_count() as u64;
        if r.is_stable() {
            a.stable += 1;
            a.stable_report_hist.record(n);
            let rank = r.reports[0].positives();
            a.stable_rank_hist.record(rank as u64);
            let scans = (1, (n == 2) as u64, n);
            if rank == 0 {
                a.rank0_scans.0 += scans.0;
                a.rank0_scans.1 += scans.1;
                a.rank0_scans.2 += scans.2;
            } else {
                a.rank_pos_scans.0 += scans.0;
                a.rank_pos_scans.1 += scans.1;
                a.rank_pos_scans.2 += scans.2;
            }
            let span_days = r.time_span().as_days_f64();
            let bucket = (rank as usize).min(StabilityAnalysis::RANK_CAP);
            spans[bucket].push(span_days);
        } else {
            a.dynamic += 1;
            a.dynamic_report_hist.record(n);
        }
    }
    if a.stable > 0 {
        let share = |days: f64| {
            spans.iter().flatten().filter(|&&d| d <= days).count() as f64 / a.stable as f64
        };
        a.span_within_17d = share(17.0);
        a.span_within_350d = share(350.0);
    }
    for (bucket, values) in spans.iter().enumerate() {
        a.span_by_rank[bucket] = BoxplotSummary::from_unsorted(values);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict,
        VerdictVec,
    };

    fn record(i: u64, positives_seq: &[u32], gap_days: i64) -> SampleRecord {
        let t0 = Timestamp::from_date(Date::new(2021, 6, 1));
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: FileType::Pdf,
            origin: t0,
            first_submission: t0,
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
                    analysis_date: t0 + Duration::days(k as i64 * gap_days),
                    last_submission_date: t0,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    #[test]
    fn splits_stable_and_dynamic() {
        let records = vec![
            record(1, &[0, 0], 1),    // stable at 0
            record(2, &[3, 3, 3], 1), // stable at 3
            record(3, &[2, 5], 1),    // dynamic
            record(4, &[7], 1),       // single report: skipped
        ];
        let a = analyze_impl(&records);
        assert_eq!(a.multi_report_samples, 3);
        assert_eq!(a.stable, 2);
        assert_eq!(a.dynamic, 1);
        assert!((a.stable_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.stable_at_zero_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(a.stable_le5_fraction(), 1.0);
    }

    #[test]
    fn scan_count_statistics() {
        let records = vec![
            record(1, &[0, 0], 1),
            record(2, &[0, 0, 0, 0], 1),
            record(3, &[4, 4], 1),
        ];
        let a = analyze_impl(&records);
        assert_eq!(a.rank0_scans, (2, 1, 6));
        assert_eq!(a.rank_pos_scans, (1, 1, 2));
        assert_eq!(a.rank0_mean_scans(), 3.0);
        assert_eq!(a.rank_pos_mean_scans(), 2.0);
        // Excluding 2-scan: only the 4-scan rank-0 sample remains.
        assert_eq!(a.stable_benign_fraction_excluding_two_scans(), 1.0);
    }

    #[test]
    fn span_buckets() {
        let records = vec![
            record(1, &[0, 0], 10),  // span 10 days at rank 0
            record(2, &[0, 0], 40),  // span 40 days at rank 0
            record(3, &[25, 25], 2), // rank 25 → capped bucket
        ];
        let a = analyze_impl(&records);
        let rank0 = a.span_by_rank[0].expect("rank 0 box");
        assert_eq!(rank0.n, 2);
        assert!((rank0.mean - 25.0).abs() < 1e-9);
        assert!(a.span_by_rank[StabilityAnalysis::RANK_CAP].is_some());
        assert!(a.span_by_rank[3].is_none());
        assert!((a.span_within_17d - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.span_within_350d, 1.0);
    }
}
