//! §5.5 — inferring causes of label dynamics (Obs. 7).
//!
//! For every per-engine label flip in *S* (a change between two
//! consecutive *active* labels from the same engine), we attribute:
//!
//! * **engine update** — did the engine ship a model update in the
//!   interval between the two scans? (paper: present in ~60% of flips);
//! * **engine latency** — 0→1 flips are signature acquisitions (the
//!   learning process the paper describes);
//! * **engine activity** — separately, we count *gap consistency*: when
//!   an engine goes inactive for a scan and returns, how often its
//!   label matches the one before the gap (paper: "if these 'inactive'
//!   engines give valid results, they are usually consistent").

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use crate::table::lane_mask;
#[cfg(test)]
use vt_engines::EngineFleet;
use vt_model::EngineId;

/// Outcome of the cause-attribution analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseAnalysis {
    /// Total per-engine label flips observed.
    pub flips: u64,
    /// Flips 0→1 (acquisitions — the latency mechanism).
    pub flips_up: u64,
    /// Flips 1→0 (retractions).
    pub flips_down: u64,
    /// Flips with ≥1 engine update inside the scan interval.
    pub update_coincident: u64,
    /// Inactivity gaps where the engine returned with the same label.
    pub gap_consistent: u64,
    /// Inactivity gaps where the label changed across the gap.
    pub gap_changed: u64,
}

impl CauseAnalysis {
    /// Fraction of flips coinciding with an engine update (paper: ~60%).
    pub fn update_fraction(&self) -> f64 {
        if self.flips == 0 {
            0.0
        } else {
            self.update_coincident as f64 / self.flips as f64
        }
    }

    /// Fraction of inactivity gaps whose flanking labels agree.
    pub fn gap_consistency(&self) -> f64 {
        let total = self.gap_consistent + self.gap_changed;
        if total == 0 {
            0.0
        } else {
            self.gap_consistent as f64 / total as f64
        }
    }

    /// Merge partitions.
    pub fn merge(&mut self, o: &CauseAnalysis) {
        self.flips += o.flips;
        self.flips_up += o.flips_up;
        self.flips_down += o.flips_down;
        self.update_coincident += o.update_coincident;
        self.gap_consistent += o.gap_consistent;
        self.gap_changed += o.gap_changed;
    }
}

/// §5.5 cause-attribution stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Causes;

impl Analysis for Causes {
    type Output = CauseAnalysis;
    type Partial = CauseAnalysis;

    fn name(&self) -> &'static str {
        "causes"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> CauseAnalysis {
        // Bit-sliced over the table's verdict-bitmap columns: one `Lane`
        // per 64 engines per record, stepped once per row. Flips are
        // rare, so the interval a flip spans is found when it happens —
        // a scan back through the record's rows for the engine's
        // previous active one — instead of being carried for every
        // engine on every row.
        let (table, fleet) = (ctx.table, ctx.fleet);
        let mask = lane_mask(fleet.engine_count());
        let mut a = CauseAnalysis::default();
        for &rec in ctx.s_indices() {
            let rows = table.rows(rec);
            let mut lanes = [Lane::default(); 2];
            for row in rows.clone() {
                let act = table.active_words(row);
                let det = table.detected_words(row);
                for (w, lane) in lanes.iter_mut().enumerate() {
                    let mut bits = step_lane(&mut a, lane, act[w] & mask[w], det[w]);
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        let prev = (rows.start..row)
                            .rev()
                            .find(|&r| table.active_words(r)[w] >> b & 1 != 0)
                            .expect("a changed label has an earlier active scan");
                        let id = EngineId::new(w * 64 + b as usize);
                        if fleet
                            .schedule(id)
                            .updated_in(table.date(prev), table.date(row))
                        {
                            a.update_coincident += 1;
                        }
                    }
                }
            }
        }
        a
    }

    fn merge(&self, acc: &mut CauseAnalysis, next: &CauseAnalysis) {
        acc.merge(next);
    }

    fn finish(&self, acc: &CauseAnalysis) -> CauseAnalysis {
        *acc
    }
}

/// One 64-engine lane's walk state within one record: engines with a
/// previous active label, that label, and whether they sat out a scan
/// since giving it.
#[derive(Clone, Copy, Default)]
struct Lane {
    seen: u64,
    last: u64,
    gap: u64,
}

/// One report's cause-attribution update for one 64-engine lane — the
/// same last-active-label recurrence as [`crate::flips`]' `step_lane`,
/// with the gap word in place of the hazard words. Returns the engines
/// whose label changed on this row; the caller dates those flips, the
/// only per-engine work left.
#[inline(always)]
fn step_lane(a: &mut CauseAnalysis, lane: &mut Lane, act: u64, det: u64) -> u64 {
    let had = lane.seen & act;
    let changed = had & (lane.last ^ det);
    let gapped = had & lane.gap;
    a.flips += u64::from(changed.count_ones());
    a.flips_up += u64::from((changed & det).count_ones());
    a.flips_down += u64::from((changed & !det).count_ones());
    a.gap_changed += u64::from((gapped & changed).count_ones());
    a.gap_consistent += u64::from((gapped & !changed).count_ones());
    lane.gap = lane.seen & !act;
    lane.seen |= act;
    lane.last = (lane.last & !act) | (det & act);
    changed
}

#[cfg(test)]
pub(crate) fn analyze_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    fleet: &EngineFleet,
) -> CauseAnalysis {
    let mut a = CauseAnalysis::default();
    let engines = fleet.engine_count();
    for r in s.iter(records) {
        for e in 0..engines {
            let id = EngineId(e as u8);
            // Walk the report sequence tracking the last *active* label
            // and whether an inactivity gap intervened.
            let mut last: Option<(u8, vt_model::Timestamp)> = None;
            let mut gap_since_last = false;
            for rep in &r.reports {
                let verdict = rep.verdicts.get(id);
                match verdict.binary_label() {
                    None => {
                        if last.is_some() {
                            gap_since_last = true;
                        }
                    }
                    Some(label) => {
                        if let Some((prev, prev_t)) = last {
                            if prev != label {
                                a.flips += 1;
                                if label == 1 {
                                    a.flips_up += 1;
                                } else {
                                    a.flips_down += 1;
                                }
                                if fleet.schedule(id).updated_in(prev_t, rep.analysis_date) {
                                    a.update_coincident += 1;
                                }
                            }
                            if gap_since_last {
                                if prev == label {
                                    a.gap_consistent += 1;
                                } else {
                                    a.gap_changed += 1;
                                }
                            }
                        }
                        last = Some((label, rep.analysis_date));
                        gap_since_last = false;
                    }
                }
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flips::Flips;
    use crate::freshdyn;
    use crate::table::TrajectoryTable;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict, VerdictVec,
    };

    fn window() -> Timestamp {
        Timestamp::from_date(Date::new(2021, 5, 1))
    }

    /// Builds a record with one report per entry of `dates`, where each
    /// `(engine, labels)` track gives that engine's M/B/U per scan.
    fn record_with(tracks: &[(usize, &[char])], dates: &[Timestamp]) -> SampleRecord {
        let first = dates[0];
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(1),
            file_type: FileType::Win32Exe,
            origin: first,
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = dates
            .iter()
            .enumerate()
            .map(|(k, &analysis_date)| {
                let mut verdicts = VerdictVec::new(128);
                for &(engine, labels) in tracks {
                    verdicts.set(
                        EngineId::new(engine),
                        match labels[k] {
                            'M' => Verdict::Malicious,
                            'B' => Verdict::Benign,
                            _ => Verdict::Undetected,
                        },
                    );
                }
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date,
                    last_submission_date: first,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    /// Runs the serial oracle and the production lane kernel over the
    /// same records and *S*, and returns the one answer they must share.
    fn both_routes(
        records: &[SampleRecord],
        s: &FreshDynamic,
        fleet: &EngineFleet,
    ) -> CauseAnalysis {
        let serial = analyze_impl(records, s, fleet);
        let table = TrajectoryTable::build(records, window());
        let ctx = AnalysisCtx::new(records, &table, s, fleet, window());
        assert_eq!(Causes.run(&ctx), serial);
        serial
    }

    /// Engine 0 follows `labels` (M/B/U per scan, `gap_days` apart) and
    /// engine 1 stays benign (keeping the sample dynamic via engine 0's
    /// changes).
    fn run(labels: &[char], gap_days: i64) -> CauseAnalysis {
        let first = window() + Duration::days(5);
        let dates: Vec<Timestamp> = (0..labels.len() as i64)
            .map(|k| first + Duration::days(k * gap_days))
            .collect();
        let benign = vec!['B'; labels.len()];
        let records = vec![record_with(&[(0, labels), (1, &benign)], &dates)];
        let s = freshdyn::build(&records, window());
        assert_eq!(s.len(), 1, "fixture must land in S");
        both_routes(&records, &s, &EngineFleet::with_seed(1))
    }

    #[test]
    fn counts_up_and_down_flips() {
        let a = run(&['B', 'M', 'M'], 1);
        assert_eq!(a.flips, 1);
        assert_eq!(a.flips_up, 1);
        assert_eq!(a.flips_down, 0);

        let b = run(&['M', 'M', 'B'], 1);
        assert_eq!(b.flips, 1);
        assert_eq!(b.flips_down, 1);
    }

    #[test]
    fn undetected_scans_do_not_flip() {
        // M U M: the gap is consistent, no flip.
        let a = run(&['M', 'U', 'M'], 1);
        assert_eq!(a.flips, 0);
        assert_eq!(a.gap_consistent, 1);
        assert_eq!(a.gap_changed, 0);
        assert_eq!(a.gap_consistency(), 1.0);

        // M U B: gap with a change — one flip (M→B across the gap).
        let b = run(&['M', 'U', 'B'], 1);
        assert_eq!(b.flips, 1);
        assert_eq!(b.gap_changed, 1);
    }

    #[test]
    fn long_interval_flips_coincide_with_updates() {
        // With a 60-day gap, every engine's update schedule fires in
        // between, so the flip is update-coincident.
        let a = run(&['B', 'M'], 60);
        assert_eq!(a.flips, 1);
        assert_eq!(a.update_coincident, 1);
        assert_eq!(a.update_fraction(), 1.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = run(&['B', 'M'], 1);
        let b = run(&['M', 'B'], 1);
        a.merge(&b);
        assert_eq!(a.flips, 2);
        assert_eq!(a.flips_up, 1);
        assert_eq!(a.flips_down, 1);
    }

    /// The lane kernel against the serial oracle on a simulated study,
    /// and against the `flips` stage: both walk the same
    /// last-active-label recurrence, so their flip totals are one
    /// number.
    #[test]
    fn columnar_matches_serial_reference() {
        use crate::pipeline::Study;
        use vt_sim::SimConfig;

        let study = Study::generate_with_workers(SimConfig::new(0xCA05E5, 3_000), 2);
        let ws = study.sim().config().window_start();
        let fleet = study.sim().fleet();
        let table = TrajectoryTable::build(study.records(), ws);
        let s = freshdyn::build(study.records(), ws);
        let serial = analyze_impl(study.records(), &s, fleet);
        assert!(serial.flips > 0, "study too small to exercise flips");
        assert!(
            serial.gap_consistent + serial.gap_changed > 0,
            "study too small to exercise gaps"
        );
        assert!(serial.update_coincident > 0, "no flip spans an update");
        let ctx = AnalysisCtx::new(study.records(), &table, &s, fleet, ws);
        let columnar = Causes.run(&ctx);
        assert_eq!(columnar, serial);
        let flips = Flips.run(&ctx);
        assert_eq!(
            (columnar.flips, columnar.flips_up, columnar.flips_down),
            (flips.flips, flips.flips_up, flips.flips_down),
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Both ends of each 64-engine lane, the roster's last engine,
        /// and one past the roster: engine 100's labels reach the table
        /// but belong to no engine of the fleet, so only the lane mask
        /// keeps them out of the counts.
        const ENGINES: [usize; 6] = [0, 1, 63, 64, 69, 100];

        proptest! {
            #[test]
            fn lane_kernel_matches_the_serial_walk(
                scans in 1usize..12,
                tracks in proptest::collection::vec(
                    proptest::collection::vec(0usize..3, 12..=12),
                    ENGINES.len()..=ENGINES.len(),
                ),
                gaps in proptest::collection::vec(1i64..120_000, 12..=12),
            ) {
                let fleet = EngineFleet::with_seed(1);
                prop_assert!(ENGINES[4] < fleet.engine_count());
                prop_assert!(ENGINES[5] >= fleet.engine_count());
                let mut t = window() + Duration::days(5);
                let dates: Vec<Timestamp> = gaps[..scans]
                    .iter()
                    .map(|&minutes| {
                        t += Duration::minutes(minutes);
                        t
                    })
                    .collect();
                let labels: Vec<Vec<char>> = tracks
                    .iter()
                    .map(|track| track[..scans].iter().map(|&l| ['M', 'B', 'U'][l]).collect())
                    .collect();
                let tracks: Vec<(usize, &[char])> = ENGINES
                    .iter()
                    .zip(&labels)
                    .map(|(&e, l)| (e, l.as_slice()))
                    .collect();
                let records = vec![record_with(&tracks, &dates)];
                // Membership of S is not the kernel's business: hand it
                // the record whatever its Δ and report count.
                let s = FreshDynamic { indices: vec![0], reports: scans as u64 };
                let a = both_routes(&records, &s, &fleet);
                prop_assert_eq!(a.flips, a.flips_up + a.flips_down);
                prop_assert!(a.update_coincident <= a.flips);
                prop_assert!(a.gap_changed <= a.flips);
            }
        }
    }
}
