//! §5.3.5 — AV-Rank difference vs. scan interval (Obs. 5, Fig. 7).
//!
//! For every pair of scans of each sample in *S*, the difference in
//! AV-Rank and the time interval between them. Differences are grouped
//! by whole-day interval; the paper's statistical evidence is the
//! Spearman correlation between the interval (in days) and the mean
//! difference at that interval — ρ = 0.9181, p = 2.6083e-167 (the
//! p-value's magnitude tells us the correlation was computed over the
//! ~419 day-bins, not the raw pairs).
//!
//! Samples with pathological scan counts (monitoring rigs with
//! thousands of scans) would contribute O(n²) pairs; we cap the pairs
//! per sample by striding through at most [`MAX_SCANS_PER_SAMPLE`]
//! evenly spaced scans — a documented deviation that preserves each
//! sample's time coverage.

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use vt_model::time::Duration;
use vt_stats::{spearman_with_p, BoxplotSummary, SpearmanResult};

/// |Δp| between two scans is bounded by the roster (≤ 128 engines), so
/// each day bin is a `[u64; 129]` counting row instead of a `Vec<f64>`
/// of raw pairs.
const DIFF_BOUND: usize = 129;

/// Cap on scans considered per sample when forming pairs.
pub const MAX_SCANS_PER_SAMPLE: usize = 25;

/// Minimum pairs a day bin needs to participate in the Spearman test.
pub const MIN_PAIRS_PER_BIN: usize = 100;

/// Outcome of the interval analysis.
#[derive(Debug, Clone)]
pub struct IntervalAnalysis {
    /// Per-day box summaries of |Δp| (index = interval in whole days);
    /// `None` where no pair landed.
    pub by_day: Vec<Option<BoxplotSummary>>,
    /// Spearman of (day, mean |Δp| at that day).
    pub correlation: Option<SpearmanResult>,
    /// Spearman of (day, median |Δp| at that day) — robust to the
    /// composition of heavy-scanned samples within bins.
    pub correlation_median: Option<SpearmanResult>,
    /// Total pairs examined (including pairs beyond `max_days`).
    pub pairs: u64,
    /// Pairs whose interval exceeded `max_days`. Excluded from the day
    /// bins and the Spearman input — the old behavior clamped them into
    /// the top bin, polluting its boxplot and the correlation.
    pub pairs_beyond_max: u64,
    /// Largest interval observed, in days — the true maximum, including
    /// pairs beyond `max_days`.
    pub max_interval_days: u32,
}

/// §5.3.5 interval-analysis stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`]. `max_days` bounds the day-bin axis; the pipeline
/// default ([`Intervals::default`]) is the paper's 430.
#[derive(Debug, Clone, Copy)]
pub struct Intervals {
    /// Day-bin axis bound; longer pairs are accounted, not clamped.
    pub max_days: usize,
}

impl Default for Intervals {
    fn default() -> Self {
        Self { max_days: 430 }
    }
}

impl Analysis for Intervals {
    type Output = IntervalAnalysis;
    type Partial = IntervalPartial;

    fn name(&self) -> &'static str {
        "intervals"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> IntervalPartial {
        let table = ctx.table;
        let mut acc = IntervalPartial::new(self.max_days);
        let mut scans: Vec<(i64, u32)> = Vec::with_capacity(MAX_SCANS_PER_SAMPLE);
        for &rec in ctx.s_indices() {
            strided_columns(
                table.dates_of(rec),
                table.positives_of(rec),
                MAX_SCANS_PER_SAMPLE,
                &mut scans,
            );
            for i in 0..scans.len() {
                for j in (i + 1)..scans.len() {
                    let (t1, p1) = scans[i];
                    let (t2, p2) = scans[j];
                    let days = Duration::minutes(t2 - t1).as_days().unsigned_abs();
                    acc.pairs += 1;
                    acc.max_interval = acc.max_interval.max(days.min(u32::MAX as u64) as u32);
                    if days > self.max_days as u64 {
                        acc.pairs_beyond_max += 1;
                        continue;
                    }
                    acc.day_counts[days as usize * DIFF_BOUND + p1.abs_diff(p2) as usize] += 1;
                }
            }
        }
        acc
    }

    fn merge(&self, acc: &mut IntervalPartial, next: &IntervalPartial) {
        assert_eq!(
            acc.day_counts.len(),
            next.day_counts.len(),
            "interval partials from different max_days configurations"
        );
        for (a, b) in acc.day_counts.iter_mut().zip(&next.day_counts) {
            *a += b;
        }
        acc.pairs += next.pairs;
        acc.pairs_beyond_max += next.pairs_beyond_max;
        acc.max_interval = acc.max_interval.max(next.max_interval);
    }

    fn finish(&self, acc: &IntervalPartial) -> IntervalAnalysis {
        finish(acc, self.max_days)
    }
}

/// Mergeable accumulator of the §5.3.5 fold ([`Intervals`]'s
/// [`Analysis::Partial`]): a flattened `(max_days + 1) × DIFF_BOUND`
/// counting matrix plus the pair counters. Counts and totals merge by
/// addition, `max_interval` by max — both partials must come from the
/// same `max_days` configuration.
#[derive(Debug, Clone)]
pub struct IntervalPartial {
    day_counts: Vec<u64>,
    pairs: u64,
    pairs_beyond_max: u64,
    max_interval: u32,
}

impl IntervalPartial {
    fn new(max_days: usize) -> Self {
        Self {
            day_counts: vec![0; (max_days + 1) * DIFF_BOUND],
            pairs: 0,
            pairs_beyond_max: 0,
            max_interval: 0,
        }
    }
}

/// Turns the merged accumulator into the published analysis.
fn finish(acc: &IntervalPartial, max_days: usize) -> IntervalAnalysis {
    debug_assert_eq!(acc.day_counts.len(), (max_days + 1) * DIFF_BOUND);
    let by_day: Vec<Option<BoxplotSummary>> = (0..=max_days)
        .map(|d| BoxplotSummary::from_counts(&acc.day_counts[d * DIFF_BOUND..(d + 1) * DIFF_BOUND]))
        .collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut ys_med = Vec::new();
    for (day, summary) in by_day.iter().enumerate() {
        if let Some(s) = summary {
            if s.n >= MIN_PAIRS_PER_BIN {
                xs.push(day as f64);
                ys.push(s.mean);
                ys_med.push(s.median);
            }
        }
    }
    IntervalAnalysis {
        by_day,
        correlation: spearman_with_p(&xs, &ys),
        correlation_median: spearman_with_p(&xs, &ys_med),
        pairs: acc.pairs,
        pairs_beyond_max: acc.pairs_beyond_max,
        max_interval_days: acc.max_interval,
    }
}

/// [`strided`] over the table's date/rank columns, reusing `out`.
fn strided_columns(dates: &[i64], positives: &[u32], cap: usize, out: &mut Vec<(i64, u32)>) {
    out.clear();
    let n = dates.len();
    if n <= cap {
        out.extend(dates.iter().copied().zip(positives.iter().copied()));
        return;
    }
    for k in 0..cap {
        let idx = k * (n - 1) / (cap - 1);
        out.push((dates[idx], positives[idx]));
    }
    out.dedup_by_key(|(t, _)| *t);
}

#[cfg(test)]
pub(crate) fn analyze_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    max_days: usize,
) -> IntervalAnalysis {
    let mut per_day: Vec<Vec<f64>> = vec![Vec::new(); max_days + 1];
    let mut pairs = 0u64;
    let mut pairs_beyond_max = 0u64;
    let mut max_interval = 0u32;
    for r in s.iter(records) {
        let scans = strided(&r.reports, MAX_SCANS_PER_SAMPLE);
        for i in 0..scans.len() {
            for j in (i + 1)..scans.len() {
                let (t1, p1) = scans[i];
                let (t2, p2) = scans[j];
                let days = (t2 - t1).as_days().unsigned_abs();
                pairs += 1;
                max_interval = max_interval.max(days.min(u32::MAX as u64) as u32);
                if days > max_days as u64 {
                    // Beyond the bin axis: counted, never clamped into
                    // the top bin.
                    pairs_beyond_max += 1;
                    continue;
                }
                let diff = p1.abs_diff(p2) as f64;
                per_day[days as usize].push(diff);
            }
        }
    }
    let by_day: Vec<Option<BoxplotSummary>> = per_day
        .iter()
        .map(|v| BoxplotSummary::from_unsorted(v))
        .collect();
    // Correlate day index against the mean difference of that day. Bins
    // with very few pairs are dominated by sampling noise (the paper's
    // bins hold millions of pairs each); require a minimum population.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut ys_med = Vec::new();
    for (day, summary) in by_day.iter().enumerate() {
        if let Some(s) = summary {
            if s.n >= MIN_PAIRS_PER_BIN {
                xs.push(day as f64);
                ys.push(s.mean);
                ys_med.push(s.median);
            }
        }
    }
    let correlation = spearman_with_p(&xs, &ys);
    let correlation_median = spearman_with_p(&xs, &ys_med);
    IntervalAnalysis {
        by_day,
        correlation,
        correlation_median,
        pairs,
        pairs_beyond_max,
        max_interval_days: max_interval,
    }
}

/// Picks at most `cap` evenly spaced scans, always keeping the first
/// and last.
#[cfg(test)]
fn strided(reports: &[vt_model::ScanReport], cap: usize) -> Vec<(vt_model::Timestamp, u32)> {
    let n = reports.len();
    if n <= cap {
        return reports
            .iter()
            .map(|r| (r.analysis_date, r.positives()))
            .collect();
    }
    let mut out = Vec::with_capacity(cap);
    for k in 0..cap {
        let idx = k * (n - 1) / (cap - 1);
        let r = &reports[idx];
        out.push((r.analysis_date, r.positives()));
    }
    out.dedup_by_key(|(t, _)| *t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict,
        VerdictVec,
    };

    fn record(i: u64, positives_at_days: &[(i64, u32)]) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: FileType::Win32Exe,
            origin: first,
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = positives_at_days
            .iter()
            .map(|&(day, p)| {
                let mut verdicts = VerdictVec::new(70);
                for e in 0..p {
                    verdicts.set(EngineId(e as u8), Verdict::Malicious);
                }
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date: first + Duration::days(day),
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
    fn pairs_land_in_day_bins() {
        // Ramp: p grows 1/day. Pairs at interval d have diff d. Enough
        // identical samples that each bin clears MIN_PAIRS_PER_BIN.
        let records: Vec<SampleRecord> = (0..120)
            .map(|i| record(i, &[(0, 0), (1, 1), (2, 2), (3, 3)]))
            .collect();
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let a = analyze_impl(&records, &s, 30);
        assert_eq!(a.pairs, 6 * 120);
        assert_eq!(a.max_interval_days, 3);
        for d in 1..=3usize {
            let b = a.by_day[d].expect("bin");
            assert!((b.mean - d as f64).abs() < 1e-12, "day {d}");
        }
        // Perfect monotone relation → ρ = 1.
        let c = a.correlation.unwrap();
        assert_eq!(c.rho, 1.0);
    }

    #[test]
    fn strided_caps_pairs() {
        let scans: Vec<(i64, u32)> = (0..500).map(|d| (d, (d % 60) as u32)).collect();
        let records = vec![record(0, &scans)];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let a = analyze_impl(&records, &s, 600);
        let cap = MAX_SCANS_PER_SAMPLE as u64;
        assert!(a.pairs <= cap * (cap - 1) / 2);
        // First and last scans survive the stride.
        assert_eq!(a.max_interval_days, 499);
    }

    /// Regression for the silent top-bin clamp: a pair at `max_days +
    /// k` must not shift bin `max_days`'s statistics — it is counted in
    /// `pairs_beyond_max` instead, and `max_interval_days` reports the
    /// true (unclamped) maximum.
    #[test]
    fn beyond_max_pairs_do_not_pollute_top_bin() {
        let max_days = 5usize;
        // 120 clean samples put pairs with |Δp| = 5 into bin 5.
        let mut records: Vec<SampleRecord> =
            (0..120).map(|i| record(i, &[(0, 0), (5, 5)])).collect();
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let clean = analyze_impl(&records, &freshdyn::build(&records, window), max_days);
        let clean_top = clean.by_day[max_days].expect("top bin populated");
        assert_eq!(clean.pairs_beyond_max, 0);
        assert_eq!(clean.max_interval_days, 5);

        // Add one sample whose pair spans max_days + 7 with |Δp| = 4 —
        // under the old clamp it landed in bin 5 and dragged its mean.
        records.push(record(120, &[(0, 0), (12, 4)]));
        let s = freshdyn::build(&records, window);
        let a = analyze_impl(&records, &s, max_days);
        let top = a.by_day[max_days].expect("top bin populated");
        assert_eq!(top.n, clean_top.n, "outlier pair stays out of the bin");
        assert!(
            (top.mean - clean_top.mean).abs() < 1e-12,
            "top-bin mean unchanged: {} vs {}",
            top.mean,
            clean_top.mean
        );
        assert_eq!(a.pairs_beyond_max, 1);
        assert_eq!(a.pairs, clean.pairs + 1, "overflow pair still examined");
        assert_eq!(a.max_interval_days, 12, "true maximum, not the clamp");
    }

    #[test]
    fn empty_s_is_graceful() {
        let records: Vec<SampleRecord> = vec![];
        let s = FreshDynamic {
            indices: vec![],
            reports: 0,
        };
        let a = analyze_impl(&records, &s, 10);
        assert_eq!(a.pairs, 0);
        assert!(a.correlation.is_none());
        assert!(a.correlation_median.is_none());
    }
}
