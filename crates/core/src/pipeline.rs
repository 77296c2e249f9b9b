//! End-to-end study orchestration: simulate → ingest → store → analyze.
//!
//! [`Study::generate`] produces the dataset (in parallel over sample
//! ordinals — generation is the expensive pass), routes every report
//! through the compressed [`vt_store::ReportStore`] (producing the
//! Table 2 accounting and exercising the storage substrate end to end),
//! and [`Study::run`] executes every analysis of the paper, returning a
//! [`StudyResults`] with one field per table/figure.
//!
//! ## Batch is the one-segment fold
//!
//! There is one stage roster — [`crate::incremental`]'s, which
//! [`StudyPartials::fold`](crate::incremental::StudyPartials) expands
//! into one [`Analysis::fold_timed`](crate::analysis::Analysis::fold_timed)
//! per stage — and [`analyze_records_obs`] is its one-segment case:
//! build the table, build *S*, fold the whole record set once, finish.
//! `vtld serve` folds the same roster per segment and merges, so a batch
//! `StudyResults` and a served one come out of the same code. Every
//! stage runs under its `pipeline/<name>` span; [`stage_names`] exposes
//! the roster for tests and tooling.
//!
//! Instrumentation is strictly write-only: no stage reads the `Obs`
//! handle, so a [`StudyResults`] is bit-identical whether observability
//! is enabled, disabled, or [`Obs::noop`]: the spans live in the `Obs`
//! they were recorded into, never in the result.

use crate::analysis::AnalysisCtx;
use crate::categorize::CategorySweep;
use crate::causes::CauseAnalysis;
use crate::correlation::CorrelationAnalysis;
use crate::flips::FlipAnalysis;
use crate::freshdyn;
use crate::incremental::StudyPartials;
use crate::intervals::IntervalAnalysis;
use crate::landscape::Fig1Points;
use crate::metrics::MetricsAnalysis;
use crate::par;
use crate::records::SampleRecord;
use crate::stability::StabilityAnalysis;
use crate::stabilization::{LabelStabilization, RankStabilization};
use crate::table::TrajectoryTable;
use vt_engines::EngineFleet;
use vt_model::time::Timestamp;
use vt_model::FileType;
use vt_obs::Obs;
use vt_sim::{SimConfig, VirusTotalSim};
use vt_store::{DatasetStats, PartitionStats, ReportStore, StoreBuilder, StoreObs};

pub use crate::incremental::stage_names;

/// A generated dataset plus the machinery to analyze it.
#[derive(Debug)]
pub struct Study {
    sim: VirusTotalSim,
    records: Vec<SampleRecord>,
}

/// Every table and figure of the paper, as typed results.
#[derive(Debug)]
pub struct StudyResults {
    /// §4.2 dataset overview (Tables 2–3, Fig. 1 inputs).
    pub dataset: DatasetStats,
    /// Fig. 1 reference points.
    pub fig1: Fig1Points,
    /// Table 2: per-month store accounting.
    pub partitions: Vec<PartitionStats>,
    /// §5.1–5.2 (Obs. 1–2, Figs. 2–4).
    pub stability: StabilityAnalysis,
    /// |S| (paper: 32,051,433).
    pub s_samples: u64,
    /// Reports in S (paper: 109,142,027).
    pub s_reports: u64,
    /// §5.3.2–5.3.4 (Obs. 3–4, Figs. 5–6).
    pub metrics: MetricsAnalysis,
    /// §8.1: fraction of S whose Δ grows from a 1-month to a 3-month
    /// observation window (paper: 8.6%).
    pub window_growth: f64,
    /// §5.3.5 (Obs. 5, Fig. 7).
    pub intervals: IntervalAnalysis,
    /// §5.4 overall sweep (Fig. 8a).
    pub categories_all: CategorySweep,
    /// §5.4 PE sweep (Fig. 8b).
    pub categories_pe: CategorySweep,
    /// §5.5 (Obs. 7).
    pub causes: CauseAnalysis,
    /// §6.1 sweep over r = 0..=5 (Obs. 8).
    pub rank_stabilization: Vec<RankStabilization>,
    /// §6.2 over all of S (Fig. 9a).
    pub label_stabilization_all: Vec<LabelStabilization>,
    /// §6.2 excluding 2-scan samples (Fig. 9b).
    pub label_stabilization_multi: Vec<LabelStabilization>,
    /// §7.1 (Obs. 10, Fig. 10).
    pub flips: FlipAnalysis,
    /// §7.2 global (Fig. 11).
    pub correlation_global: CorrelationAnalysis,
    /// §7.2 per type (Fig. 12, Tables 4–8 + the DEX/GZIP quirks).
    pub correlation_per_type: Vec<CorrelationAnalysis>,
}

/// File types given a dedicated correlation analysis (the paper's top-5
/// tables plus the DEX and GZIP quirk scopes).
pub const CORRELATION_SCOPES: [FileType; 7] = [
    FileType::Win32Exe,
    FileType::Txt,
    FileType::Html,
    FileType::Zip,
    FileType::Pdf,
    FileType::Dex,
    FileType::Gzip,
];

impl Study {
    /// Generates the dataset with [`par::default_workers`] threads.
    pub fn generate(config: SimConfig) -> Self {
        Self::generate_with_workers(config, par::default_workers())
    }

    /// Generates the dataset with an explicit worker count.
    pub fn generate_with_workers(config: SimConfig, workers: usize) -> Self {
        Self::generate_with_workers_obs(config, workers, Obs::noop())
    }

    /// [`generate_with_workers`](Self::generate_with_workers) with
    /// per-worker instrumentation under the `generate` kernel and a
    /// `pipeline/generate` span. Generation is deterministic per sample
    /// ordinal, so the records are identical at every worker count and
    /// whether or not `obs` is enabled.
    pub fn generate_with_workers_obs(config: SimConfig, workers: usize, obs: &Obs) -> Self {
        let _span = obs.span("pipeline/generate");
        let sim = VirusTotalSim::new(config);
        let ranges = par::partition_ranges(config.samples, workers);
        let parts = par::map_ranges_obs(&ranges, obs, "generate", |_, range| {
            sim.trajectories_in(range)
                .map(|(meta, reports)| SampleRecord::new(meta, reports))
                .collect::<Vec<_>>()
        });
        let mut records = Vec::with_capacity(config.samples as usize);
        for part in parts {
            records.extend(part);
        }
        Self { sim, records }
    }

    /// The generated records.
    pub fn records(&self) -> &[SampleRecord] {
        &self.records
    }

    /// The simulator (fleet access for engine names/schedules).
    pub fn sim(&self) -> &VirusTotalSim {
        &self.sim
    }

    /// Loads every report into a fresh, sealed report store.
    pub fn build_store(&self) -> ReportStore {
        self.build_store_obs(Obs::noop())
    }

    /// [`build_store`](Self::build_store) with the store's encode
    /// counters recorded into `obs` (write-only: the packed bytes are
    /// the same either way).
    fn build_store_obs(&self, obs: &Obs) -> ReportStore {
        let mut store = StoreBuilder::with_obs(&StoreObs::new(obs));
        for r in &self.records {
            store.append_batch(&r.reports);
        }
        store.seal()
    }

    /// Runs the complete measurement pipeline.
    pub fn run(&self) -> StudyResults {
        self.run_with_obs(par::default_workers(), Obs::noop())
    }

    /// [`run`](Self::run) with explicit parallelism and observability:
    /// the storage round trip (Table 2) records the `store/*` counters,
    /// and every analysis stage runs under its `pipeline/<name>` span
    /// with `ctx.workers = workers`.
    ///
    /// Every field, Table 2's byte accounting included, is bit-identical
    /// at every worker count and obs state: there is one route, and
    /// `obs` only ever receives writes.
    pub fn run_with_obs(&self, workers: usize, obs: &Obs) -> StudyResults {
        let store = self.build_store_obs(obs);
        analyze_records_obs(
            &self.records,
            store.partition_stats(),
            self.sim.fleet(),
            self.sim.config().window_start(),
            workers,
            obs,
        )
    }
}

/// Runs every analysis of the paper over a record set — the entry point
/// when the data comes from somewhere other than an in-process
/// simulation (e.g. a persisted store loaded via
/// [`vt_store::read_store`] + [`crate::records::records_from_store`]).
///
/// `fleet` supplies the engine roster and update schedules for the
/// §5.5 cause attribution; when analyzing a foreign feed, construct it
/// with the fleet seed the feed was generated with (or accept that the
/// update-coincidence numbers are not meaningful).
pub fn analyze_records(
    records: &[SampleRecord],
    partitions: Vec<PartitionStats>,
    fleet: &EngineFleet,
    window_start: Timestamp,
) -> StudyResults {
    analyze_records_obs(
        records,
        partitions,
        fleet,
        window_start,
        par::default_workers(),
        Obs::noop(),
    )
}

/// [`analyze_records`] with explicit parallelism and observability:
/// builds the columnar [`TrajectoryTable`] under the `pipeline/table`
/// span (kernel `table_build`) and *S* from its flags under the
/// `pipeline/freshdyn` span, then folds the whole record set through the
/// stage roster as one segment and finishes it under `pipeline/finish`.
/// Analysis outputs never depend on `obs` or `workers`.
pub fn analyze_records_obs(
    records: &[SampleRecord],
    partitions: Vec<PartitionStats>,
    fleet: &EngineFleet,
    window_start: Timestamp,
    workers: usize,
    obs: &Obs,
) -> StudyResults {
    let table = obs.time("pipeline/table", || {
        TrajectoryTable::build_with(records, window_start, workers, obs)
    });
    let s = obs.time("pipeline/freshdyn", || {
        freshdyn::build_from_table(&table, workers)
    });
    let ctx = AnalysisCtx::new(records, &table, &s, fleet, window_start)
        .with_workers(workers)
        .with_obs(obs);
    StudyPartials::fold(&ctx).finish(partitions, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> Study {
        Study::generate_with_workers(SimConfig::new(0xA11CE, 4_000), 2)
    }

    #[test]
    fn generation_is_deterministic_across_worker_counts() {
        let config = SimConfig::new(42, 500);
        let a = Study::generate_with_workers(config, 1);
        let b = Study::generate_with_workers(config, 4);
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x, y);
        }
        // Instrumented generation produces the same records and leaves
        // a per-worker busy-time trail.
        let obs = Obs::new();
        let c = Study::generate_with_workers_obs(config, 4, &obs);
        assert_eq!(a.records(), c.records());
        let m = obs.snapshot();
        assert_eq!(m.counter("par/generate/invocations"), Some(1));
        assert!(m.histogram("par/generate/worker_busy_ns").is_some());
        assert_eq!(m.span("pipeline/generate").map(|s| s.count), Some(1));
    }

    #[test]
    fn store_round_trip_preserves_reports() {
        let study = small_study();
        let store = study.build_store();
        let total: usize = study.records().iter().map(|r| r.reports.len()).sum();
        assert_eq!(store.report_count() as usize, total);
        // Spot-check one multi-report sample's trajectory through the
        // store.
        let rec = study
            .records()
            .iter()
            .find(|r| r.report_count() >= 3)
            .expect("some sample has 3+ reports");
        let from_store = store.sample_reports(rec.meta.hash);
        assert_eq!(from_store, rec.reports);
    }

    #[test]
    fn roster_names_are_unique_and_stable() {
        let names = stage_names();
        assert_eq!(names.len(), 11);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate stage name");
        for expected in ["landscape", "stability", "flips", "correlation"] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
    }

    #[test]
    fn full_pipeline_produces_consistent_results() {
        let study = small_study();
        let results = study.run();

        // Dataset totals agree across paths.
        assert_eq!(results.dataset.total_samples(), 4_000);
        let partition_reports: u64 = results.partitions.iter().map(|p| p.reports).sum();
        assert_eq!(results.dataset.total_reports(), partition_reports);

        // Stable + dynamic = multi-report.
        let st = &results.stability;
        assert_eq!(st.stable + st.dynamic, st.multi_report_samples);

        // S is a subset of dynamic samples.
        assert!(results.s_samples <= st.dynamic);
        assert!(results.s_samples > 0, "study too small to exercise S");

        // Category shares partition.
        for sh in &results.categories_all.shares {
            assert!((sh.white + sh.black + sh.gray - 1.0).abs() < 1e-9);
        }

        // Flip totals decompose.
        let f = &results.flips;
        assert_eq!(f.flips, f.flips_up + f.flips_down);
        assert!(f.hazard_flips <= f.flips);

        // Correlation matrices are symmetric with unit diagonal.
        let c = &results.correlation_global;
        for a in 0..c.engine_count {
            assert_eq!(c.rho[a * c.engine_count + a], 1.0);
            for b in 0..c.engine_count {
                let ab = c.rho[a * c.engine_count + b];
                let ba = c.rho[b * c.engine_count + a];
                assert!(ab.is_nan() && ba.is_nan() || (ab - ba).abs() < 1e-12);
            }
        }

        // Rank stabilization is monotone in r.
        for w in results.rank_stabilization.windows(2) {
            assert!(w[1].stabilized >= w[0].stabilized);
        }
    }

    #[test]
    fn instrumented_run_times_every_stage() {
        let study = Study::generate_with_workers(SimConfig::new(0x0B5, 800), 2);
        let obs = Obs::new();
        study.run_with_obs(2, &obs);
        let m = obs.snapshot();
        // One split, in the roster fold; each of its two ranges runs
        // every stage once under the stage's span.
        assert_eq!(m.counter("par/fold/invocations"), Some(1));
        assert_eq!(
            m.histogram("par/fold/worker_busy_ns").map(|h| h.count),
            Some(2)
        );
        for name in stage_names() {
            let span = m
                .span(&format!("pipeline/{name}"))
                .unwrap_or_else(|| panic!("stage {name} missing a timing"));
            assert_eq!(span.count, 2, "stage {name} ran once per range");
            assert!(span.max_ns <= span.total_ns);
        }
        for name in ["freshdyn", "table", "finish"] {
            let span = m
                .span(&format!("pipeline/{name}"))
                .unwrap_or_else(|| panic!("{name} missing a timing"));
            assert_eq!(span.count, 1, "{name} ran once");
        }
        // Batch is one fold, not a segment stream: no segment span.
        assert!(m.span("pipeline/segment").is_none());
        // The storage round trip encoded every report.
        let total: u64 = study.records().iter().map(|r| r.reports.len() as u64).sum();
        assert_eq!(m.counter("store/encoded_reports"), Some(total));
    }

    /// Acceptance gate for the columnar pipeline: on two seeded
    /// studies, the complete [`StudyResults`] is bit-identical at
    /// workers 1, 2 and 8 — every field via its Debug fingerprint, the
    /// correlation ρ matrices additionally by f64 bit pattern (Debug
    /// would collapse distinct NaN payloads).
    #[test]
    fn pipeline_results_are_bit_identical_at_every_worker_count() {
        for seed in [0xBEA7u64, 0x1D1E5] {
            let study = Study::generate_with_workers(SimConfig::new(seed, 3_000), 2);
            let partitions = study.build_store().partition_stats();
            let run = |workers: usize| {
                analyze_records_obs(
                    study.records(),
                    partitions.clone(),
                    study.sim().fleet(),
                    study.sim().config().window_start(),
                    workers,
                    Obs::noop(),
                )
            };
            let base = run(1);
            assert!(base.s_samples > 0, "seed {seed:#x} too small to exercise S");
            let base_dbg = format!("{base:?}");
            for workers in [2usize, 8] {
                let other = run(workers);
                assert_eq!(
                    base_dbg,
                    format!("{other:?}"),
                    "seed={seed:#x} workers={workers}"
                );
                let pairs = std::iter::once(&base.correlation_global)
                    .chain(&base.correlation_per_type)
                    .zip(
                        std::iter::once(&other.correlation_global)
                            .chain(&other.correlation_per_type),
                    );
                for (a, b) in pairs {
                    assert_eq!(a.rho.len(), b.rho.len());
                    for (x, y) in a.rho.iter().zip(&b.rho) {
                        assert_eq!(x.to_bits(), y.to_bits(), "seed={seed:#x} workers={workers}");
                    }
                }
            }
        }
    }

    /// Every columnar stage without a seeded-study check of its own
    /// (`flips`, `causes` and `correlation` have theirs) against its
    /// serial record-walking oracle, by `Debug` (floats as shortest
    /// round-trip, so a last-ulp drift fails).
    #[test]
    fn every_stage_matches_its_serial_oracle() {
        use crate::analysis::Analysis;
        use crate::categorize::{self, Categorize};
        use crate::intervals::{self, Intervals};
        use crate::landscape::{self, Landscape};
        use crate::metrics::{self, Metrics, WindowGrowth};
        use crate::stability::{self, Stability};
        use crate::stabilization::{self, Stabilization};

        for seed in [0xF01Du64, 0x5EED5] {
            let study = Study::generate_with_workers(SimConfig::new(seed, 3_000), 2);
            let records = study.records();
            let ws = study.sim().config().window_start();
            let table = TrajectoryTable::build(records, ws);
            let s = freshdyn::build(records, ws);
            assert!(!s.is_empty(), "seed {seed:#x} too small to exercise S");
            let ctx = AnalysisCtx::new(records, &table, &s, study.sim().fleet(), ws);
            let same = |stage: String, oracle: String, name: &str| {
                assert_eq!(stage, oracle, "seed {seed:#x}: {name}");
            };
            same(
                format!("{:?}", Landscape.run(&ctx).0),
                format!("{:?}", landscape::dataset_stats_impl(records, ws)),
                "landscape",
            );
            same(
                format!("{:?}", Stability.run(&ctx)),
                format!("{:?}", stability::analyze_impl(records)),
                "stability",
            );
            same(
                format!("{:?}", Metrics.run(&ctx)),
                format!("{:?}", metrics::analyze_impl(records, &s)),
                "metrics",
            );
            let growth = WindowGrowth::default();
            same(
                format!("{:?}", growth.run(&ctx)),
                format!(
                    "{:?}",
                    metrics::window_growth_impl(records, &s, growth.short, growth.long)
                ),
                "window_growth",
            );
            let iv = Intervals::default();
            same(
                format!("{:?}", iv.run(&ctx)),
                format!("{:?}", intervals::analyze_impl(records, &s, iv.max_days)),
                "intervals",
            );
            for stage in [Categorize::ALL, Categorize::PE] {
                same(
                    format!("{:?}", stage.run(&ctx)),
                    format!("{:?}", categorize::sweep_impl(records, &s, stage.pe_only)),
                    stage.name(),
                );
            }
            let st = Stabilization.run(&ctx);
            same(
                format!("{:?}", st.rank),
                format!("{:?}", stabilization::rank_stabilization_impl(records, &s)),
                "stabilization rank",
            );
            for (got, exclude_two_scans, name) in [
                (&st.label_all, false, "label_all"),
                (&st.label_multi, true, "label_multi"),
            ] {
                same(
                    format!("{got:?}"),
                    format!(
                        "{:?}",
                        stabilization::label_stabilization_impl(records, &s, exclude_two_scans)
                    ),
                    name,
                );
            }
        }
    }

    /// Acceptance gate for the §7.2 kernel: on a seeded study, every
    /// scope of the stage's `finish(fold(ctx))` is bit-identical (ρ
    /// matrix, strong pairs, groups, row count) to the serial per-scope
    /// reference.
    #[test]
    fn correlation_stage_matches_reference_on_seeded_study() {
        use crate::analysis::Analysis;
        use crate::correlation::{self, Correlation};

        let study = small_study();
        let records = study.records();
        let ws = study.sim().config().window_start();
        let fleet = study.sim().fleet();
        let table = TrajectoryTable::build(records, ws);
        let s = freshdyn::build(records, ws);

        let stage = Correlation::default();
        let reference: Vec<CorrelationAnalysis> = stage
            .all_scopes()
            .into_iter()
            .map(|sc| correlation::analyze_impl(records, &s, fleet.engine_count(), sc))
            .collect();
        assert_eq!(
            reference[0].rows, s.reports,
            "the global scope is every row of S"
        );

        let ctx = AnalysisCtx::new(records, &table, &s, fleet, ws);
        let (global, per_type) = stage.run(&ctx);
        for (f, r) in std::iter::once(&global).chain(&per_type).zip(&reference) {
            assert_eq!(f.scope, r.scope);
            assert_eq!(f.rows, r.rows);
            assert_eq!(f.rho.len(), r.rho.len());
            for (x, y) in f.rho.iter().zip(&r.rho) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(f.strong_pairs.len(), r.strong_pairs.len());
            for ((a1, b1, r1), (a2, b2, r2)) in f.strong_pairs.iter().zip(&r.strong_pairs) {
                assert_eq!((a1, b1), (a2, b2));
                assert_eq!(r1.to_bits(), r2.to_bits());
            }
            assert_eq!(f.groups, r.groups);
        }
    }
}
