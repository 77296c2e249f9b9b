//! End-to-end study orchestration: simulate → ingest → store → analyze.
//!
//! [`run_streamed`] is the study `vtld study` runs. It walks the sample
//! ordinals [`STUDY_CHUNK_SAMPLES`] at a time ([`generate_chunks`]):
//! each chunk is generated in parallel, its reports are appended in
//! ordinal order to one [`StoreTally`] (Table 2's accounting, the store
//! encode included, without the blocks), and it is folded as one
//! segment by [`IncrementalStudy::fold_segment`]; then the chunk is
//! dropped. After the last chunk the partials finish into a
//! [`StudyResults`] with one field per table/figure. Memory is one
//! chunk, not the feed (DESIGN §2.6).
//!
//! [`Study`] is the whole-feed route, kept as the oracle: it holds
//! every record, [`Study::build_store`] packs all of them into a
//! [`vt_store::ReportStore`], and [`Study::run`] folds them as one
//! segment. Tests compare the streamed study against it, and the
//! benchmark's traced pass times its steps one by one.
//!
//! ## Batch is the one-segment fold
//!
//! There is one stage roster — [`crate::incremental`]'s, which
//! [`StudyPartials::fold`](crate::incremental::StudyPartials) expands
//! into one [`Analysis::fold_timed`](crate::analysis::Analysis::fold_timed)
//! per stage — and [`analyze_records_obs`] is its one-segment case:
//! build the table, build *S*, fold the whole record set once, finish.
//! The streamed study folds the same roster per chunk and merges, as
//! `vtld serve` does per segment, so all three `StudyResults` come out
//! of the same code, bit-identical because the chunks partition the
//! samples (`merge(fold(x), fold(y)) == fold(x ++ y)`). Every stage
//! runs under its `pipeline/<name>` span; [`stage_names`] exposes the
//! roster for tests and tooling.
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
use crate::incremental::{IncrementalStudy, StudyPartials};
use crate::intervals::IntervalAnalysis;
use crate::landscape::Fig1Points;
use crate::metrics::MetricsAnalysis;
use crate::par;
use crate::records::SampleRecord;
use crate::stability::StabilityAnalysis;
use crate::stabilization::{LabelStabilization, RankStabilization};
use crate::table::TrajectoryTable;
use std::ops::Range;
use vt_engines::EngineFleet;
use vt_model::time::Timestamp;
use vt_model::FileType;
use vt_obs::Obs;
use vt_sim::{SimConfig, VirusTotalSim};
use vt_store::{DatasetStats, PartitionStats, ReportStore, StoreBuilder, StoreObs, StoreTally};

pub use crate::incremental::stage_names;

/// Samples [`run_streamed`] generates, stores and folds per step, and
/// so the most records `vtld study` holds at once. Chosen by
/// measurement (DESIGN §2.6): much smaller and the per-chunk thread
/// spawns and partial merges show in the wall time; larger only raises
/// the flat peak.
pub const STUDY_CHUNK_SAMPLES: u64 = 8_192;

/// The records of the ordinals in `range`, generated in parallel under
/// the `generate` kernel, in ordinal order. Generation is deterministic
/// per ordinal, so the records do not depend on `workers` or `obs`.
fn generate_range(
    sim: &VirusTotalSim,
    range: Range<u64>,
    workers: usize,
    obs: &Obs,
) -> Vec<SampleRecord> {
    let ranges: Vec<Range<u64>> = par::partition_ranges(range.end - range.start, workers)
        .into_iter()
        .map(|r| range.start + r.start..range.start + r.end)
        .collect();
    let parts = par::map_ranges_obs(&ranges, obs, "generate", |_, range| {
        sim.trajectories_in(range)
            .map(|(meta, reports)| SampleRecord::new(meta, reports))
            .collect::<Vec<_>>()
    });
    let mut records = Vec::with_capacity((range.end - range.start) as usize);
    for part in parts {
        records.extend(part);
    }
    records
}

/// Hands `sim`'s feed to `each` [`STUDY_CHUNK_SAMPLES`] samples at a
/// time, in ordinal order. Each chunk is generated in parallel under
/// the `generate` kernel and a `pipeline/generate` span, and dropped
/// once `each` returns, so one chunk's records are live at a time. The
/// chunks concatenate to [`Study::generate`]'s records.
pub fn generate_chunks(
    sim: &VirusTotalSim,
    workers: usize,
    obs: &Obs,
    each: impl FnMut(&[SampleRecord]),
) {
    generate_chunks_of(sim, STUDY_CHUNK_SAMPLES, workers, obs, each);
}

/// [`generate_chunks`] at any chunk size (at least one sample).
fn generate_chunks_of(
    sim: &VirusTotalSim,
    chunk_samples: u64,
    workers: usize,
    obs: &Obs,
    mut each: impl FnMut(&[SampleRecord]),
) {
    let samples = sim.config().samples;
    let mut start = 0;
    while start < samples {
        let end = samples.min(start.saturating_add(chunk_samples.max(1)));
        let records = {
            let _span = obs.span("pipeline/generate");
            generate_range(sim, start..end, workers, obs)
        };
        each(&records);
        start = end;
    }
}

/// The study `vtld study` runs, holding one chunk of the feed: per
/// [`generate_chunks`] chunk, the reports append in ordinal order to
/// one [`StoreTally`] (recording the `store/*` counters into `obs`) and
/// the records fold as one segment with
/// [`IncrementalStudy::fold_segment`] at `workers`; after the last
/// chunk, the partials finish with the tally's Table 2 rows.
///
/// Every field is bit-identical to [`Study::run_with_obs`]'s at every
/// worker count and obs state: the appends are the same reports in the
/// same order, and the chunks partition the samples, so their folds
/// merge to the one-segment fold.
pub fn run_streamed(sim: &VirusTotalSim, workers: usize, obs: &Obs) -> StudyResults {
    run_streamed_in(sim, STUDY_CHUNK_SAMPLES, workers, obs)
}

/// [`run_streamed`] at any chunk size.
fn run_streamed_in(
    sim: &VirusTotalSim,
    chunk_samples: u64,
    workers: usize,
    obs: &Obs,
) -> StudyResults {
    let mut tally = StoreTally::with_obs(&StoreObs::new(obs));
    let mut study =
        IncrementalStudy::new(sim.fleet(), sim.config().window_start()).with_workers(workers);
    generate_chunks_of(sim, chunk_samples, workers, obs, |chunk| {
        for record in chunk {
            tally.append_batch(&record.reports);
        }
        study.fold_segment(chunk, obs);
    });
    study.results(tally.partition_stats(), obs)
}

/// A generated dataset plus the machinery to analyze it: the whole-feed
/// route, holding every record. `vtld study` runs [`run_streamed`]
/// instead; this stays public as the oracle the tests compare the
/// streamed study, the serve tier and the zero-copy routes against, and
/// because the benchmark's traced pass times its steps
/// ([`generate_with_workers`](Self::generate_with_workers),
/// [`build_store`](Self::build_store), [`analyze_records_obs`]) one by
/// one.
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

    /// Generates the dataset with an explicit worker count. Generation
    /// is deterministic per sample ordinal, so the records are identical
    /// at every worker count.
    pub fn generate_with_workers(config: SimConfig, workers: usize) -> Self {
        let sim = VirusTotalSim::new(config);
        let records = generate_range(&sim, 0..config.samples, workers, Obs::noop());
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

    /// Loads every report into a fresh, sealed report store: the whole
    /// feed's blocks at once. The oracle for `vtld simulate`'s bytes,
    /// which it builds chunk by chunk.
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
///
/// No command runs it: it is the one-segment oracle the chunked and
/// segmented folds are tested against, and the benchmark's traced pass
/// times it beside its parts.
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
        // Chunked, instrumented generation concatenates to the same
        // records and leaves a per-worker busy-time trail per chunk.
        let obs = Obs::new();
        let mut chunked = Vec::new();
        generate_chunks_of(a.sim(), 200, 4, &obs, |chunk| {
            chunked.extend_from_slice(chunk)
        });
        assert_eq!(a.records(), &chunked[..]);
        let m = obs.snapshot();
        assert_eq!(m.counter("par/generate/invocations"), Some(3));
        assert!(m.histogram("par/generate/worker_busy_ns").is_some());
        assert_eq!(m.span("pipeline/generate").map(|s| s.count), Some(3));
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

    /// Asserts two studies' results are bit-identical: every field by
    /// its Debug fingerprint, the correlation ρ matrices additionally
    /// by f64 bit pattern (Debug would collapse distinct NaN payloads).
    fn assert_bit_identical(a: &StudyResults, b: &StudyResults, label: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
        let pairs = std::iter::once(&a.correlation_global)
            .chain(&a.correlation_per_type)
            .zip(std::iter::once(&b.correlation_global).chain(&b.correlation_per_type));
        for (x, y) in pairs {
            assert_eq!(x.rho.len(), y.rho.len(), "{label}");
            for (p, q) in x.rho.iter().zip(&y.rho) {
                assert_eq!(p.to_bits(), q.to_bits(), "{label}");
            }
        }
    }

    /// The streamed study is the whole-feed one: on three feeds (the
    /// stormy one fires the outage, timeout and glitch branches), at
    /// workers 1/2/8 and at chunk sizes from one sample to past the
    /// feed, the results are `Study::run_with_obs`'s, Table 2 included,
    /// and the generate, table and fold kernels each run once a chunk.
    /// The rendered report is compared too, in the facade's
    /// `tests/observability.rs` (rendering lives downstream).
    #[test]
    fn streamed_study_is_the_batch_study() {
        const N: u64 = 2_000;
        let mut stormy = SimConfig::new(21, N);
        stormy.fleet.timeout_mult = 30.0;
        stormy.fleet.outage_mult = 30.0;
        stormy.fleet.glitch_rate = 1e-3;
        for config in [SimConfig::new(7, N), SimConfig::new(4269, N), stormy] {
            let seed = config.seed;
            let batch = Study::generate_with_workers(config, 2).run_with_obs(2, Obs::noop());
            assert!(batch.s_samples > 0, "seed {seed} too small to exercise S");
            let sim = VirusTotalSim::new(config);
            for chunk in [1, 7, STUDY_CHUNK_SAMPLES, N, N + 1] {
                // A one-sample chunk is one range at any worker count
                // (`par::partition_ranges` caps the split at the chunk
                // length), so workers 2 and 8 would rerun workers 1's
                // path 2 000 times.
                let grid: &[usize] = if chunk == 1 { &[1] } else { &[1, 2, 8] };
                for &workers in grid {
                    let obs = Obs::new();
                    let streamed = run_streamed_in(&sim, chunk, workers, &obs);
                    let label = format!("seed={seed} chunk={chunk} workers={workers}");
                    assert_bit_identical(&batch, &streamed, &label);
                    let m = obs.snapshot();
                    for kernel in ["generate", "table_build", "fold"] {
                        assert_eq!(
                            m.counter(&format!("par/{kernel}/invocations")),
                            Some(N.div_ceil(chunk)),
                            "{label}: {kernel}"
                        );
                    }
                }
            }
        }
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
    /// workers 1, 2 and 8.
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
            for workers in [2usize, 8] {
                let label = format!("seed={seed:#x} workers={workers}");
                assert_bit_identical(&base, &run(workers), &label);
            }
        }
    }

    /// Every columnar stage without a seeded-study check of its own
    /// (`flips`, `causes` and `correlation` have theirs) over `records`,
    /// beside its serial record-walking oracle, both by `Debug` (floats
    /// as shortest round-trip, so a last-ulp drift shows): one
    /// `(stage, columnar, oracle)` triple each.
    fn stages_and_oracles(
        records: &[SampleRecord],
        fleet: &EngineFleet,
        ws: Timestamp,
    ) -> Vec<(&'static str, String, String)> {
        use crate::analysis::Analysis;
        use crate::categorize::{self, Categorize};
        use crate::intervals::{self, Intervals};
        use crate::landscape::{self, Landscape};
        use crate::metrics::{self, Metrics, WindowGrowth};
        use crate::stability::{self, Stability};
        use crate::stabilization::{self, Stabilization};

        let table = TrajectoryTable::build(records, ws);
        let s = freshdyn::build(records, ws);
        let ctx = AnalysisCtx::new(records, &table, &s, fleet, ws);
        let growth = WindowGrowth::default();
        let iv = Intervals::default();
        let st = Stabilization.run(&ctx);
        let mut pairs = vec![
            (
                "landscape",
                format!("{:?}", Landscape.run(&ctx).0),
                format!("{:?}", landscape::dataset_stats_impl(records, ws)),
            ),
            (
                "stability",
                format!("{:?}", Stability.run(&ctx)),
                format!("{:?}", stability::analyze_impl(records)),
            ),
            (
                "metrics",
                format!("{:?}", Metrics.run(&ctx)),
                format!("{:?}", metrics::analyze_impl(records, &s)),
            ),
            (
                "window_growth",
                format!("{:?}", growth.run(&ctx)),
                format!(
                    "{:?}",
                    metrics::window_growth_impl(records, &s, growth.short, growth.long)
                ),
            ),
            (
                "intervals",
                format!("{:?}", iv.run(&ctx)),
                format!("{:?}", intervals::analyze_impl(records, &s, iv.max_days)),
            ),
            (
                "stabilization rank",
                format!("{:?}", st.rank),
                format!("{:?}", stabilization::rank_stabilization_impl(records, &s)),
            ),
        ];
        for stage in [Categorize::ALL, Categorize::PE] {
            pairs.push((
                stage.name(),
                format!("{:?}", stage.run(&ctx)),
                format!("{:?}", categorize::sweep_impl(records, &s, stage.pe_only)),
            ));
        }
        for (got, exclude_two_scans, name) in [
            (&st.label_all, false, "label_all"),
            (&st.label_multi, true, "label_multi"),
        ] {
            pairs.push((
                name,
                format!("{got:?}"),
                format!(
                    "{:?}",
                    stabilization::label_stabilization_impl(records, &s, exclude_two_scans)
                ),
            ));
        }
        pairs
    }

    /// Every stage of [`stages_and_oracles`] matches its serial oracle on
    /// two seeded studies.
    #[test]
    fn every_stage_matches_its_serial_oracle() {
        for seed in [0xF01Du64, 0x5EED5] {
            let study = Study::generate_with_workers(SimConfig::new(seed, 3_000), 2);
            let ws = study.sim().config().window_start();
            let (records, fleet) = (study.records(), study.sim().fleet());
            let s = freshdyn::build(records, ws);
            assert!(!s.is_empty(), "seed {seed:#x} too small to exercise S");
            for (name, stage, oracle) in stages_and_oracles(records, fleet, ws) {
                assert_eq!(stage, oracle, "seed {seed:#x}: {name}");
            }
        }
    }

    mod generated_trajectories {
        use super::*;
        use crate::generated;
        use crate::records::records_from_store;
        use proptest::prelude::*;
        use vt_model::time::Month;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Generated trajectory sets (`generated::store`: `(hash,
            /// date)` ties within and across partitions, dates at the
            /// window edge and in the catch-all partition, both bitmap
            /// words, single-report samples, one sort bucket or many),
            /// read back through `records_from_store`: every stage
            /// matches its serial oracle, and the folds of the records
            /// cut at `cut` merge to the fold of them all (merged with
            /// the empty fold, so both count two segments).
            #[test]
            fn generated_trajectories_match_the_oracles_and_the_range_fold_law(
                rows in proptest::collection::vec((any::<u64>(), 0u64..6, any::<u64>()), 0..600),
                spread in 1u64..1_000,
                one_bucket in any::<bool>(),
                cut in 0u64..=1_000,
                workers in 1usize..4,
            ) {
                let rows: Vec<_> = rows.iter().map(|&(s, d, b)| (s % spread, d, b)).collect();
                let records = records_from_store(&generated::store(&rows, one_bucket));
                let sim = VirusTotalSim::new(SimConfig::new(spread, 1));
                let fleet = sim.fleet();
                prop_assert_eq!(fleet.engine_count(), generated::ENGINES);
                let ws = Month::COLLECTION_START.start();
                for (name, stage, oracle) in stages_and_oracles(&records, fleet, ws) {
                    prop_assert!(stage == oracle, "{}: {} != {}", name, stage, oracle);
                }
                let fold = |records: &[SampleRecord]| {
                    let table = TrajectoryTable::build_with(records, ws, workers, Obs::noop());
                    let s = freshdyn::build(records, ws);
                    let ctx = AnalysisCtx::new(records, &table, &s, fleet, ws);
                    StudyPartials::fold(&ctx.with_workers(workers))
                };
                let at = (cut as usize * records.len()).div_ceil(1_000);
                let (x, y) = records.split_at(at);
                let merged = format!("{:?}", fold(x).merge(fold(y)));
                let whole = format!("{:?}", fold(&records).merge(fold(&[])));
                prop_assert!(merged == whole, "cut at {} of {}", at, records.len());
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
