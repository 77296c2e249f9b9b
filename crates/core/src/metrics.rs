//! §5.3.2–§5.3.4 — the dynamics metrics δᵢ and Δᵢ (Obs. 3–4,
//! Figs. 5–6), plus the §8.1 measurement-window sweep.
//!
//! For each sample in *S* with AV-Rank sequence `p₁…pₙ`:
//! `δᵢ = |pᵢ − pᵢ₋₁|` (adjacent-scan difference, one value per adjacent
//! pair) and `Δ = p_max − p_min` (overall swing, one value per sample).

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use vt_model::time::Duration;
use vt_model::FileType;
use vt_stats::{BoxplotSummary, Histogram};

/// δ and Δ are bounded by the engine roster (≤ 128 engines), so a
/// `[u64; 129]` counting array per type replaces the per-observation
/// `Vec<f64>` buffers — peak memory scales with distinct values, and
/// [`BoxplotSummary::from_counts`] reproduces `from_unsorted` bit for
/// bit on integer data.
const DELTA_BOUND: usize = 129;

/// Per-file-type δ/Δ distributions (Fig. 6's boxes).
#[derive(Debug, Clone)]
pub struct TypeMetrics {
    /// The file type.
    pub file_type: FileType,
    /// Box summary of δ values (adjacent differences).
    pub delta_adjacent: Option<BoxplotSummary>,
    /// Box summary of Δ values (overall swing).
    pub delta_overall: Option<BoxplotSummary>,
}

/// Outcome of the δ/Δ analysis.
#[derive(Debug, Clone)]
pub struct MetricsAnalysis {
    /// Fig. 5: histogram of δ values across all adjacent pairs in *S*.
    pub delta_adjacent_hist: Histogram,
    /// Fig. 5: histogram of Δ values across samples of *S*.
    pub delta_overall_hist: Histogram,
    /// Fraction of adjacent pairs with δ = 0 (paper: 35.49%).
    pub delta_zero_fraction: f64,
    /// Fraction of samples with Δ > 2 (paper: ~half).
    pub delta_over_2_fraction: f64,
    /// Fraction of samples with Δ ≤ 11 (paper: 90%).
    pub delta_le_11_fraction: f64,
    /// Fig. 6: per-type box summaries, one entry per top-20 type.
    pub per_type: Vec<TypeMetrics>,
}

/// §5.3.2–§5.3.4 δ/Δ metrics stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Metrics;

impl Analysis for Metrics {
    type Output = MetricsAnalysis;
    type Partial = MetricsPartial;

    fn name(&self) -> &'static str {
        "metrics"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> MetricsPartial {
        let table = ctx.table;
        let mut acc = MetricsPartial::new();
        for &i in ctx.s_indices() {
            let p = table.positives_of(i);
            let type_idx = table.type_idx(i);
            debug_assert!(type_idx < 20, "S contains only top-20 types");
            for w in p.windows(2) {
                let d = w[0].abs_diff(w[1]);
                acc.delta_adjacent_hist.record(d as u64);
                acc.per_type_adjacent[type_idx * DELTA_BOUND + d as usize] += 1;
            }
            let delta = table.delta_max(i).unwrap_or(0);
            acc.delta_overall_hist.record(delta as u64);
            acc.per_type_overall[type_idx * DELTA_BOUND + delta as usize] += 1;
        }
        acc
    }

    fn merge(&self, acc: &mut MetricsPartial, next: &MetricsPartial) {
        acc.delta_adjacent_hist.merge(&next.delta_adjacent_hist);
        acc.delta_overall_hist.merge(&next.delta_overall_hist);
        for (a, b) in acc
            .per_type_adjacent
            .iter_mut()
            .zip(&next.per_type_adjacent)
        {
            *a += b;
        }
        for (a, b) in acc.per_type_overall.iter_mut().zip(&next.per_type_overall) {
            *a += b;
        }
    }

    fn finish(&self, acc: &MetricsPartial) -> MetricsAnalysis {
        finish(acc)
    }
}

/// Mergeable accumulator of the δ/Δ fold ([`Metrics`]'s
/// [`Analysis::Partial`]): two global histograms plus flattened
/// `20 × DELTA_BOUND` counting arrays. Everything merges by addition.
#[derive(Debug, Clone)]
pub struct MetricsPartial {
    delta_adjacent_hist: Histogram,
    delta_overall_hist: Histogram,
    per_type_adjacent: Vec<u64>,
    per_type_overall: Vec<u64>,
}

impl MetricsPartial {
    fn new() -> Self {
        Self {
            delta_adjacent_hist: Histogram::new(71),
            delta_overall_hist: Histogram::new(71),
            per_type_adjacent: vec![0; 20 * DELTA_BOUND],
            per_type_overall: vec![0; 20 * DELTA_BOUND],
        }
    }
}

/// Turns the merged accumulator into the published analysis.
fn finish(acc: &MetricsPartial) -> MetricsAnalysis {
    let delta_zero_fraction = if acc.delta_adjacent_hist.total() == 0 {
        0.0
    } else {
        acc.delta_adjacent_hist.count(0) as f64 / acc.delta_adjacent_hist.total() as f64
    };
    let delta_over_2_fraction = 1.0 - acc.delta_overall_hist.fraction_le(2);
    let delta_le_11_fraction = acc.delta_overall_hist.fraction_le(11);

    let per_type = (0..20)
        .map(|idx| TypeMetrics {
            file_type: FileType::from_dense_index(idx),
            delta_adjacent: BoxplotSummary::from_counts(
                &acc.per_type_adjacent[idx * DELTA_BOUND..(idx + 1) * DELTA_BOUND],
            ),
            delta_overall: BoxplotSummary::from_counts(
                &acc.per_type_overall[idx * DELTA_BOUND..(idx + 1) * DELTA_BOUND],
            ),
        })
        .collect();

    MetricsAnalysis {
        delta_adjacent_hist: acc.delta_adjacent_hist.clone(),
        delta_overall_hist: acc.delta_overall_hist.clone(),
        delta_zero_fraction,
        delta_over_2_fraction,
        delta_le_11_fraction,
        per_type,
    }
}

/// §8.1 measurement-window sweep stage: the fraction of *S* whose Δ
/// grows when the observation window extends from `short` to `long`.
/// The pipeline default ([`WindowGrowth::default`]) is the paper's
/// 1-month → 3-month comparison.
#[derive(Debug, Clone, Copy)]
pub struct WindowGrowth {
    /// The short observation window.
    pub short: Duration,
    /// The long observation window.
    pub long: Duration,
}

impl Default for WindowGrowth {
    fn default() -> Self {
        Self {
            short: Duration::days(30),
            long: Duration::days(90),
        }
    }
}

impl Analysis for WindowGrowth {
    type Output = f64;
    type Partial = (u64, u64);

    fn name(&self) -> &'static str {
        "window_growth"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> (u64, u64) {
        let table = ctx.table;
        let mut eligible = 0u64;
        let mut grew = 0u64;
        for &i in ctx.s_indices() {
            let dates = table.dates_of(i);
            let p = table.positives_of(i);
            let t0 = dates[0];
            let delta_within = |span: Duration| -> Option<u32> {
                let mut min = u32::MAX;
                let mut max = 0u32;
                let mut n = 0;
                for (&t, &rank) in dates.iter().zip(p) {
                    if t - t0 <= span.as_minutes() {
                        min = min.min(rank);
                        max = max.max(rank);
                        n += 1;
                    }
                }
                (n >= 2).then(|| max - min)
            };
            let (Some(d_short), Some(d_long)) = (delta_within(self.short), delta_within(self.long))
            else {
                continue;
            };
            eligible += 1;
            if d_long > d_short {
                grew += 1;
            }
        }
        (eligible, grew)
    }

    fn merge(&self, acc: &mut (u64, u64), next: &(u64, u64)) {
        acc.0 += next.0;
        acc.1 += next.1;
    }

    fn finish(&self, &(eligible, grew): &(u64, u64)) -> f64 {
        if eligible == 0 {
            0.0
        } else {
            grew as f64 / eligible as f64
        }
    }
}

#[cfg(test)]
pub(crate) fn analyze_impl(records: &[SampleRecord], s: &FreshDynamic) -> MetricsAnalysis {
    let mut acc = MetricsPartial::new();
    for r in s.iter(records) {
        let type_idx = r.meta.file_type.dense_index();
        debug_assert!(type_idx < 20, "S contains only top-20 types");
        let mut prev: Option<u32> = None;
        for p in r.positives_iter() {
            if let Some(q) = prev {
                let d = q.abs_diff(p);
                acc.delta_adjacent_hist.record(d as u64);
                acc.per_type_adjacent[type_idx * DELTA_BOUND + d as usize] += 1;
            }
            prev = Some(p);
        }
        let delta = r.delta_max().unwrap_or(0);
        acc.delta_overall_hist.record(delta as u64);
        acc.per_type_overall[type_idx * DELTA_BOUND + delta as usize] += 1;
    }
    finish(&acc)
}

#[cfg(test)]
pub(crate) fn window_growth_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    short: Duration,
    long: Duration,
) -> f64 {
    let mut eligible = 0u64;
    let mut grew = 0u64;
    for r in s.iter(records) {
        let t0 = r.reports[0].analysis_date;
        let delta_within = |span: Duration| -> Option<u32> {
            let mut min = u32::MAX;
            let mut max = 0u32;
            let mut n = 0;
            for rep in &r.reports {
                if rep.analysis_date - t0 <= span {
                    let p = rep.positives();
                    min = min.min(p);
                    max = max.max(p);
                    n += 1;
                }
            }
            (n >= 2).then(|| max - min)
        };
        let (Some(d_short), Some(d_long)) = (delta_within(short), delta_within(long)) else {
            continue;
        };
        eligible += 1;
        if d_long > d_short {
            grew += 1;
        }
    }
    if eligible == 0 {
        0.0
    } else {
        grew as f64 / eligible as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{
        EngineId, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict, VerdictVec,
    };

    fn record(i: u64, ft: FileType, positives_at_days: &[(i64, u32)]) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: ft,
            origin: first - Duration::days(1),
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

    fn dataset() -> (Vec<SampleRecord>, FreshDynamic) {
        let records = vec![
            record(0, FileType::Win32Exe, &[(0, 5), (1, 5), (2, 8)]), // δ: 0, 3; Δ: 3
            record(1, FileType::Pdf, &[(0, 1), (9, 2)]),              // δ: 1; Δ: 1
        ];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        (records, s)
    }

    #[test]
    fn delta_distributions() {
        let (records, s) = dataset();
        assert_eq!(s.len(), 2);
        let m = analyze_impl(&records, &s);
        // Adjacent pairs: {0, 3, 1} → one zero of three.
        assert!((m.delta_zero_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.delta_adjacent_hist.total(), 3);
        // Overall: {3, 1} → none above 2? 3 > 2, so half.
        assert!((m.delta_over_2_fraction - 0.5).abs() < 1e-12);
        assert_eq!(m.delta_le_11_fraction, 1.0);
    }

    #[test]
    fn per_type_boxes() {
        let (records, s) = dataset();
        let m = analyze_impl(&records, &s);
        let exe = m
            .per_type
            .iter()
            .find(|t| t.file_type == FileType::Win32Exe)
            .unwrap();
        let exe_adj = exe.delta_adjacent.unwrap();
        assert_eq!(exe_adj.n, 2);
        assert!((exe_adj.mean - 1.5).abs() < 1e-12);
        let pdf = m
            .per_type
            .iter()
            .find(|t| t.file_type == FileType::Pdf)
            .unwrap();
        assert_eq!(pdf.delta_overall.unwrap().n, 1);
        // Types absent from S have no box.
        let zip = m
            .per_type
            .iter()
            .find(|t| t.file_type == FileType::Zip)
            .unwrap();
        assert!(zip.delta_adjacent.is_none());
    }

    #[test]
    fn window_growth() {
        // Sample 0 grows Δ from day-1 window (Δ=0) to day-30 window
        // (Δ=3). Sample 1's second scan is outside the short window →
        // not eligible.
        let (records, s) = dataset();
        let frac = window_growth_impl(&records, &s, Duration::days(1), Duration::days(30));
        assert_eq!(frac, 1.0);
        // With both windows long, nothing grows.
        let frac2 = window_growth_impl(&records, &s, Duration::days(30), Duration::days(60));
        assert_eq!(frac2, 0.0);
    }
}
