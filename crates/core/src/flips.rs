//! §7.1 — per-engine label flips (Obs. 10, Fig. 10).
//!
//! An engine's label sequence for a sample is its consecutive *active*
//! labels (`Undetected` scans are skipped — counting them as benign
//! would manufacture hazard flips that the real data does not contain).
//! A **flip** is `0→1` or `1→0` between consecutive labels; a **hazard
//! flip** is `0→1→0` or `1→0→1` over three consecutive labels. The
//! paper counts 16,838,818 flips (12.27 M up / 4.57 M down ≈ 2.7 : 1)
//! and — against prior work — only **9** hazard flips.
//!
//! Fig. 10's flip ratio for (engine, type) is flips per adjacent label
//! pair, i.e. `flips / opportunities`.

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;
use crate::table::lane_mask;
use vt_model::{EngineId, FileType};

/// Flip accounting for one (engine, file-type) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlipCell {
    /// Adjacent active-label pairs observed.
    pub opportunities: u64,
    /// Label changes.
    pub flips: u64,
}

impl FlipCell {
    /// Fig. 10's flip ratio.
    pub fn ratio(&self) -> f64 {
        if self.opportunities == 0 {
            0.0
        } else {
            self.flips as f64 / self.opportunities as f64
        }
    }
}

/// Outcome of the flip analysis.
#[derive(Debug, Clone)]
pub struct FlipAnalysis {
    /// Engines analyzed.
    pub engine_count: usize,
    /// Cells: `matrix[engine][type_dense_index]` over the top-20 types.
    pub matrix: Vec<[FlipCell; 20]>,
    /// Total flips.
    pub flips: u64,
    /// 0→1 flips.
    pub flips_up: u64,
    /// 1→0 flips.
    pub flips_down: u64,
    /// Hazard flips (0→1→0 or 1→0→1 over consecutive labels).
    pub hazard_flips: u64,
    /// Reports contributing label observations.
    pub reports: u64,
}

impl FlipAnalysis {
    /// Flip ratio of one engine on one type.
    pub fn ratio(&self, engine: EngineId, ft: FileType) -> f64 {
        self.matrix[engine.index()][ft.dense_index()].ratio()
    }

    /// An engine's flips and opportunities summed across all types.
    pub fn engine_total(&self, engine: EngineId) -> FlipCell {
        let mut total = FlipCell::default();
        for cell in &self.matrix[engine.index()] {
            total.opportunities += cell.opportunities;
            total.flips += cell.flips;
        }
        total
    }

    /// An engine's flip ratio across all types.
    pub fn engine_ratio(&self, engine: EngineId) -> f64 {
        self.engine_total(engine).ratio()
    }

    /// Engines ranked by overall flip ratio, descending.
    pub fn ranked_engines(&self) -> Vec<(EngineId, f64)> {
        let mut v: Vec<(EngineId, f64)> = (0..self.engine_count)
            .map(|e| (EngineId::new(e), self.engine_ratio(EngineId::new(e))))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// An all-zero analysis over `engine_count` engines — what a study
    /// with no folded segments reports (and merge's identity element).
    pub fn empty(engine_count: usize) -> Self {
        Self {
            engine_count,
            matrix: vec![[FlipCell::default(); 20]; engine_count],
            flips: 0,
            flips_up: 0,
            flips_down: 0,
            hazard_flips: 0,
            reports: 0,
        }
    }
}

/// §7.1 flip-analysis stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Flips;

impl Analysis for Flips {
    type Output = FlipAnalysis;
    type Partial = FlipAnalysis;

    fn name(&self) -> &'static str {
        "flips"
    }

    fn fold(&self, ctx: &AnalysisCtx) -> FlipAnalysis {
        // Bit-sliced over the table's verdict-bitmap columns: instead of
        // walking every engine's label sequence separately, each record
        // keeps one 4-word state block per 64-engine lane (see
        // `step_lane`) and processes all 128 engines per report with two
        // straight-line block updates.
        let table = ctx.table;
        let mask = lane_mask(ctx.engine_count());
        let mut a = FlipAnalysis::empty(ctx.engine_count());
        for &rec in ctx.s_indices() {
            let type_idx = table.type_idx(rec);
            debug_assert!(type_idx < 20);
            a.reports += table.report_count(rec) as u64;
            let mut lanes = [[0u64; 4]; 2];
            for row in table.rows(rec) {
                let act = table.active_words(row);
                let det = table.detected_words(row);
                step_lane(&mut a, type_idx, &mut lanes[0], act[0] & mask[0], det[0], 0);
                step_lane(
                    &mut a,
                    type_idx,
                    &mut lanes[1],
                    act[1] & mask[1],
                    det[1],
                    64,
                );
            }
        }
        a
    }

    fn merge(&self, acc: &mut FlipAnalysis, next: &FlipAnalysis) {
        debug_assert_eq!(acc.engine_count, next.engine_count);
        for (mine, theirs) in acc.matrix.iter_mut().zip(&next.matrix) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.opportunities += b.opportunities;
                a.flips += b.flips;
            }
        }
        acc.flips += next.flips;
        acc.flips_up += next.flips_up;
        acc.flips_down += next.flips_down;
        acc.hazard_flips += next.hazard_flips;
        acc.reports += next.reports;
    }

    fn finish(&self, acc: &FlipAnalysis) -> FlipAnalysis {
        acc.clone()
    }
}

/// One report's flip-state update for one 64-engine verdict-word lane.
///
/// `state` is the lane's 4-word block `[seen1, prevlab, seen2,
/// prevprev]` — engines with a previous active label, that label, the
/// label before that, and whether it exists — updated straight-line
/// with no inner word loop. A flip is `seen1 & active & (prevlab ^
/// detected)`; a hazard flip additionally requires `seen2` and
/// `prevprev == detected`. Per-engine matrix cells come from iterating
/// the set bits of the (typically sparse) `pairs`/`flipped` words.
#[inline(always)]
fn step_lane(
    a: &mut FlipAnalysis,
    type_idx: usize,
    state: &mut [u64; 4],
    aw: u64,
    d: u64,
    base: usize,
) {
    let [seen1, prevlab, seen2, prevprev] = *state;
    let pairs = seen1 & aw;
    let flipped = pairs & (prevlab ^ d);
    a.flips += u64::from(flipped.count_ones());
    a.flips_up += u64::from((flipped & d).count_ones());
    a.flips_down += u64::from((flipped & !d).count_ones());
    a.hazard_flips += u64::from((flipped & seen2 & !(prevprev ^ d)).count_ones());
    let mut bits = pairs;
    while bits != 0 {
        let e = base + bits.trailing_zeros() as usize;
        a.matrix[e][type_idx].opportunities += 1;
        bits &= bits - 1;
    }
    let mut bits = flipped;
    while bits != 0 {
        let e = base + bits.trailing_zeros() as usize;
        a.matrix[e][type_idx].flips += 1;
        bits &= bits - 1;
    }
    state[0] = seen1 | aw;
    state[1] = (prevlab & !aw) | (d & aw);
    state[2] = seen2 | pairs;
    state[3] = (prevprev & !aw) | (prevlab & aw);
}

#[cfg(test)]
pub(crate) fn analyze_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    engine_count: usize,
) -> FlipAnalysis {
    let mut a = FlipAnalysis {
        engine_count,
        matrix: vec![[FlipCell::default(); 20]; engine_count],
        flips: 0,
        flips_up: 0,
        flips_down: 0,
        hazard_flips: 0,
        reports: 0,
    };
    for rec in s.iter(records) {
        let type_idx = rec.meta.file_type.dense_index();
        debug_assert!(type_idx < 20);
        a.reports += rec.report_count() as u64;
        for e in 0..engine_count {
            let id = EngineId(e as u8);
            let mut prev: Option<u8> = None;
            let mut prev_prev: Option<u8> = None;
            for rep in &rec.reports {
                let Some(label) = rep.verdicts.get(id).binary_label() else {
                    continue;
                };
                if let Some(p) = prev {
                    let cell = &mut a.matrix[e][type_idx];
                    cell.opportunities += 1;
                    if p != label {
                        cell.flips += 1;
                        a.flips += 1;
                        if label == 1 {
                            a.flips_up += 1;
                        } else {
                            a.flips_down += 1;
                        }
                        // Hazard: the previous transition went the other
                        // way (pp → p → label with pp == label ≠ p).
                        if prev_prev == Some(label) {
                            a.hazard_flips += 1;
                        }
                    }
                }
                prev_prev = prev;
                prev = Some(label);
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict, VerdictVec,
    };

    /// Engine 0 follows `labels`; engine 1 alternates to keep the sample
    /// dynamic regardless of engine 0's pattern.
    fn record(i: u64, ft: FileType, labels: &[char]) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: ft,
            origin: first,
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = labels
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let mut verdicts = VerdictVec::new(4);
                verdicts.set(
                    EngineId(0),
                    match c {
                        'M' => Verdict::Malicious,
                        'B' => Verdict::Benign,
                        _ => Verdict::Undetected,
                    },
                );
                verdicts.set(
                    EngineId(1),
                    if k % 2 == 0 {
                        Verdict::Malicious
                    } else {
                        Verdict::Benign
                    },
                );
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date: first + Duration::days(k as i64),
                    last_submission_date: first,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    fn run(records: Vec<SampleRecord>) -> FlipAnalysis {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        assert_eq!(s.len(), records.len(), "fixtures must land in S");
        analyze_impl(&records, &s, 4)
    }

    #[test]
    fn counts_flips_and_opportunities() {
        let a = run(vec![record(0, FileType::Win32Exe, &['B', 'M', 'M'])]);
        let cell = a.matrix[0][FileType::Win32Exe.dense_index()];
        assert_eq!(cell.opportunities, 2);
        assert_eq!(cell.flips, 1);
        assert!((a.ratio(EngineId(0), FileType::Win32Exe) - 0.5).abs() < 1e-12);
        // Engine 1 alternates M,B,M: 2 flips, 1 hazard.
        assert_eq!(a.matrix[1][FileType::Win32Exe.dense_index()].flips, 2);
        assert_eq!(a.hazard_flips, 1);
        assert_eq!(a.flips, 3);
        assert_eq!(a.flips_up, 2); // B→M (engine 0), B→M (engine 1)
        assert_eq!(a.flips_down, 1);
    }

    #[test]
    fn undetected_does_not_create_hazard() {
        // M U B M: active labels M,B,M → 2 flips, 1 hazard. But
        // M U M B: active labels M,M,B → 1 flip, 0 hazards.
        let a = run(vec![record(0, FileType::Pdf, &['M', 'U', 'M', 'B'])]);
        let cell = a.matrix[0][FileType::Pdf.dense_index()];
        assert_eq!(cell.opportunities, 2);
        assert_eq!(cell.flips, 1);
        // engine 1 pattern M,B,M,B: 3 flips 2 hazards.
        assert_eq!(a.hazard_flips, 2);
    }

    #[test]
    fn ranked_engines_descending() {
        let a = run(vec![record(0, FileType::Zip, &['M', 'M', 'M', 'M'])]);
        // Engine 1 alternates (ratio 1.0); engine 0 constant (0.0).
        let ranked = a.ranked_engines();
        assert_eq!(ranked[0].0, EngineId(1));
        assert!(ranked[0].1 > ranked[1].1);
        assert_eq!(a.engine_ratio(EngineId(0)), 0.0);
        let total = a.engine_total(EngineId(1));
        assert_eq!((total.flips, total.opportunities), (3, 3));
    }

    #[test]
    fn columnar_matches_serial_reference() {
        use crate::analysis::AnalysisCtx;
        use crate::pipeline::Study;
        use crate::table::TrajectoryTable;
        use vt_sim::SimConfig;

        let study = Study::generate_with_workers(SimConfig::new(0xF11B5, 3_000), 2);
        let ws = study.sim().config().window_start();
        let table = TrajectoryTable::build(study.records(), ws);
        let s = freshdyn::build(study.records(), ws);
        let serial = analyze_impl(study.records(), &s, study.sim().fleet().engine_count());
        assert!(serial.flips > 0, "study too small to exercise flips");
        let ctx = AnalysisCtx::new(study.records(), &table, &s, study.sim().fleet(), ws);
        let columnar = Flips.run(&ctx);
        assert_eq!(format!("{serial:?}"), format!("{columnar:?}"));
    }

    #[test]
    fn per_type_cells_are_separate() {
        let a = run(vec![
            record(0, FileType::Zip, &['B', 'M', 'M']),
            record(1, FileType::Pdf, &['M', 'M']),
        ]);
        assert_eq!(a.matrix[0][FileType::Zip.dense_index()].flips, 1);
        assert_eq!(a.matrix[0][FileType::Pdf.dense_index()].flips, 0);
        assert_eq!(a.matrix[0][FileType::Pdf.dense_index()].opportunities, 1);
    }
}
