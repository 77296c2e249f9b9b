//! The unit of analysis: one sample and its time-ordered reports.
//!
//! A `SampleRecord` is what the table's record route
//! ([`crate::table::TrajectoryTable::build_with`]) reads: `vtld study`
//! folds each generated chunk through it, and [`records_from_store`]
//! rebuilds records from a sealed [`vt_store::ReportStore`] for the
//! tests and benchmarks that compare against that route. Either way the
//! analyses only read what the paper's pipeline could read from scan
//! reports (hash, file type, times, verdict vectors), never the
//! simulator's ground truth. What a sample *is*, given only its reports,
//! is `sample_meta`'s one rule, which the arena route follows too.

use vt_model::time::{Duration, Timestamp};
use vt_model::{FileType, SampleHash, SampleMeta, ScanReport};

/// One sample's metadata and complete, analysis-time-ordered report
/// trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Sample metadata. Analyses use `hash`, `file_type` and
    /// `first_submission`; ground truth is never read.
    pub meta: SampleMeta,
    /// Reports sorted by `analysis_date` ascending.
    pub reports: Vec<ScanReport>,
}

impl SampleRecord {
    /// Builds a record, sorting reports by analysis date.
    pub fn new(meta: SampleMeta, mut reports: Vec<ScanReport>) -> Self {
        reports.sort_by_key(|r| r.analysis_date);
        Self { meta, reports }
    }

    /// Number of reports.
    pub fn report_count(&self) -> usize {
        self.reports.len()
    }

    /// True if the sample has more than one report (the measurable
    /// subset for dynamics, §5.1).
    pub fn is_multi_report(&self) -> bool {
        self.reports.len() > 1
    }

    /// The AV-Rank (positives) sequence.
    pub fn positives(&self) -> Vec<u32> {
        self.positives_iter().collect()
    }

    /// The AV-Rank sequence without the `Vec` — one popcount per
    /// report, nothing heap-allocated.
    pub fn positives_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.reports.iter().map(|r| r.positives())
    }

    /// `Δ = p_max − p_min` over the trajectory; `None` with no reports.
    pub fn delta_max(&self) -> Option<u32> {
        let mut it = self.positives_iter();
        let first = it.next()?;
        let (min, max) = it.fold((first, first), |(lo, hi), p| (lo.min(p), hi.max(p)));
        Some(max - min)
    }

    /// True when every report has the same AV-Rank (a §5.1 *stable*
    /// sample). Only meaningful for multi-report samples.
    pub fn is_stable(&self) -> bool {
        self.delta_max() == Some(0)
    }

    /// Time between first and last report.
    pub fn time_span(&self) -> Duration {
        match (self.reports.first(), self.reports.last()) {
            (Some(a), Some(b)) => b.analysis_date - a.analysis_date,
            _ => Duration::minutes(0),
        }
    }

    /// The file type.
    pub fn file_type(&self) -> FileType {
        self.meta.file_type
    }
}

/// Reconstructs analysis records from a sealed report store — the
/// paper's situation exactly: *only* the scan reports are available, so
/// each sample's metadata is derived from its reports by
/// `sample_meta`'s rule, the one the arena route
/// ([`crate::table::TrajectoryTable::build_from_arena`]) follows too.
pub fn records_from_store(store: &vt_store::ReportStore) -> Vec<SampleRecord> {
    store
        .group_by_sample()
        .into_iter()
        .map(|(hash, reports)| {
            let meta = sample_meta(
                hash,
                reports.iter(),
                |r| r.file_type,
                |r| r.last_submission_date,
            );
            SampleRecord { meta, reports }
        })
        .collect()
}

/// What sample `hash` is, given only its rows in table order (analysis
/// date ascending, arrival order breaking ties) — the one rule both
/// table routes derive a sample's metadata by:
///
/// * `file_type` — the earliest row's (every report carries it, §4.1);
/// * `first_submission` — the minimum submission date over the rows
///   (fresh samples were first uploaded in-window; pre-existing samples
///   re-enter via rescans that preserve their original pre-window
///   submission date, §3 / Table 1);
/// * `origin` and `truth` are *not derivable from reports* and are set
///   to placeholder values — no analysis reads them (the blinding
///   invariant), so records from a store analyze identically to records
///   from the simulator.
///
/// # Panics
/// Panics if `rows` is empty: a sample exists by its reports.
#[inline]
pub(crate) fn sample_meta<R>(
    hash: SampleHash,
    mut rows: impl Iterator<Item = R>,
    file_type: impl FnOnce(&R) -> FileType,
    submitted: impl Fn(&R) -> Timestamp,
) -> SampleMeta {
    let first = rows.next().expect("a sample has at least one report");
    let first_submission = rows.fold(submitted(&first), |min, r| min.min(submitted(&r)));
    SampleMeta {
        hash,
        file_type: file_type(&first),
        origin: first_submission,
        first_submission,
        truth: vt_model::GroundTruth::Benign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{EngineId, GroundTruth, ReportKind, SampleHash, Verdict, VerdictVec};

    fn meta() -> SampleMeta {
        let t = Timestamp::from_date(Date::new(2021, 6, 1));
        SampleMeta {
            hash: SampleHash::from_ordinal(1),
            file_type: FileType::Pdf,
            origin: t,
            first_submission: t,
            truth: GroundTruth::Benign,
        }
    }

    fn report(day: i64, positives: u32) -> ScanReport {
        let mut verdicts = VerdictVec::new(70);
        for i in 0..positives {
            verdicts.set(EngineId(i as u8), Verdict::Malicious);
        }
        ScanReport {
            sample: SampleHash::from_ordinal(1),
            file_type: FileType::Pdf,
            analysis_date: Timestamp::from_date(Date::new(2021, 6, 1)) + Duration::days(day),
            last_submission_date: Timestamp::from_date(Date::new(2021, 6, 1)),
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts,
        }
    }

    #[test]
    fn sorts_reports_and_computes_metrics() {
        let r = SampleRecord::new(meta(), vec![report(5, 7), report(0, 3), report(2, 5)]);
        assert_eq!(r.positives(), vec![3, 5, 7]);
        assert_eq!(r.delta_max(), Some(4));
        assert!(!r.is_stable());
        assert!(r.is_multi_report());
        assert_eq!(r.time_span().as_days(), 5);
    }

    #[test]
    fn stable_sample() {
        let r = SampleRecord::new(meta(), vec![report(0, 2), report(9, 2)]);
        assert!(r.is_stable());
        assert_eq!(r.delta_max(), Some(0));
    }

    #[test]
    fn single_report_sample() {
        let r = SampleRecord::new(meta(), vec![report(0, 1)]);
        assert!(!r.is_multi_report());
        assert_eq!(r.delta_max(), Some(0));
        assert_eq!(r.time_span().as_minutes(), 0);
    }

    #[test]
    fn empty_record() {
        let r = SampleRecord::new(meta(), vec![]);
        assert_eq!(r.delta_max(), None);
        assert_eq!(r.report_count(), 0);
    }
}
