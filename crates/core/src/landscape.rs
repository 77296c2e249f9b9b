//! §4.2 — the dataset landscape: Table 2, Table 3, Fig. 1.
//!
//! Thin orchestration over [`vt_store::DatasetStats`]: builds the
//! overview from the table's per-sample columns and extracts the
//! headline numbers the paper reports (88.81% singleton samples, top-20
//! share, freshness).

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::records::SampleRecord;
#[cfg(test)]
use vt_model::time::Timestamp;
use vt_model::FileType;
use vt_store::DatasetStats;

/// Fig. 1 reference points reported by the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Points {
    /// Fraction of samples with exactly one report (paper: 0.8881).
    pub singleton: f64,
    /// Fraction with fewer than 6 reports (paper: 0.9910).
    pub under_6: f64,
    /// Fraction with fewer than 20 reports (paper: 0.9990).
    pub under_20: f64,
    /// Largest report count observed for one sample (paper: 64,168).
    pub max_reports: u64,
    /// Number of multi-report samples (paper: 63,999,984).
    pub multi_report_samples: u64,
}

/// §4.2 landscape stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`]. Produces the dataset overview and the Fig. 1
/// reference points in one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Landscape;

impl Analysis for Landscape {
    type Output = (DatasetStats, Fig1Points);
    type Partial = DatasetStats;

    fn name(&self) -> &'static str {
        "landscape"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> DatasetStats {
        let table = ctx.table;
        debug_assert_eq!(table.window_start(), ctx.window_start);
        let mut stats = DatasetStats::new(table.window_start());
        for i in ctx.samples() {
            stats.record_columns(
                table.type_idx(i),
                table.report_count(i) as u64,
                table.is_fresh(i),
            );
        }
        stats
    }

    fn merge(&self, acc: &mut DatasetStats, next: &DatasetStats) {
        acc.merge(next);
    }

    fn finish(&self, stats: &DatasetStats) -> (DatasetStats, Fig1Points) {
        (stats.clone(), fig1_points(stats))
    }
}

#[cfg(test)]
pub(crate) fn dataset_stats_impl(
    records: &[SampleRecord],
    window_start: Timestamp,
) -> DatasetStats {
    let mut stats = DatasetStats::new(window_start);
    for r in records {
        stats.record(&r.meta, &r.reports);
    }
    stats
}

/// Extracts the Fig. 1 reference points from an overview.
pub fn fig1_points(stats: &DatasetStats) -> Fig1Points {
    Fig1Points {
        singleton: stats.reports_per_sample_cdf(1),
        under_6: stats.reports_per_sample_cdf(5),
        under_20: stats.reports_per_sample_cdf(19),
        max_reports: stats.max_reports_one_sample(),
        multi_report_samples: stats.multi_report_samples(),
    }
}

/// Share of samples belonging to the top-10 / top-20 named types
/// (paper: 78.17% / 87.04%, NULL excluded from the denominator's
/// "types" but included in totals — we report plain shares of the
/// total).
pub fn topk_share(stats: &DatasetStats, k: usize) -> f64 {
    let mut counts: Vec<u64> = FileType::TOP20
        .iter()
        .map(|&ft| stats.samples_of(ft))
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = counts.iter().take(k).sum();
    top as f64 / stats.total_samples().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Duration};
    use vt_model::{GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, VerdictVec};

    fn record(i: u64, ft: FileType, n_reports: usize) -> SampleRecord {
        let t0 = Timestamp::from_date(Date::new(2021, 6, 1));
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: ft,
            origin: t0,
            first_submission: t0,
            truth: GroundTruth::Benign,
        };
        let reports = (0..n_reports)
            .map(|k| ScanReport {
                sample: meta.hash,
                file_type: FileType::Pdf,
                analysis_date: t0 + Duration::days(k as i64),
                last_submission_date: t0,
                times_submitted: 1,
                kind: ReportKind::Upload,
                verdicts: VerdictVec::new(70),
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    #[test]
    fn fig1_points_from_small_dataset() {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let records: Vec<SampleRecord> = (0..10)
            .map(|i| record(i, FileType::Pdf, if i < 8 { 1 } else { 25 }))
            .collect();
        let stats = dataset_stats_impl(&records, window);
        let p = fig1_points(&stats);
        assert_eq!(p.singleton, 0.8);
        assert_eq!(p.under_6, 0.8);
        assert_eq!(p.under_20, 0.8);
        assert_eq!(p.max_reports, 25);
        assert_eq!(p.multi_report_samples, 2);
    }

    #[test]
    fn topk_share_counts_named_types() {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let mut records = vec![];
        for i in 0..6 {
            records.push(record(i, FileType::Win32Exe, 1));
        }
        for i in 6..8 {
            records.push(record(i, FileType::Other(1), 1));
        }
        let stats = dataset_stats_impl(&records, window);
        assert_eq!(topk_share(&stats, 10), 0.75);
        assert_eq!(topk_share(&stats, 20), 0.75);
    }
}
