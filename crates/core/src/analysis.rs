//! The unified analysis API: one context, one trait, one span per
//! stage.
//!
//! The per-module `analyze` free functions grew drifted signatures —
//! `(records, s)`, `(records, s, engine_count)`, `(records, s, fleet)`,
//! `(records, s, max_days)` — which made instrumenting the pipeline
//! uniformly impossible. [`AnalysisCtx`] bundles everything any stage
//! can legitimately consume (the record set, its columnar
//! [`TrajectoryTable`] view, the fresh dynamic dataset *S*, the engine
//! fleet, the observation-window start, the worker count, and an
//! [`Obs`] handle), and [`Analysis`] is the common shape every stage
//! now presents. A stage's fold is a serial pass over the context's
//! samples; the one parallel split lives in the roster fold
//! ([`crate::incremental`]), which hands each worker a context narrowed
//! to its contiguous sample range and merges the range partials like
//! segments:
//!
//! ```
//! use vt_dynamics::analysis::{Analysis, AnalysisCtx};
//! use vt_dynamics::{flips, freshdyn, pipeline::Study, TrajectoryTable};
//! use vt_sim::SimConfig;
//!
//! let study = Study::generate_with_workers(SimConfig::new(7, 500), 2);
//! let window_start = study.sim().config().window_start();
//! let table = TrajectoryTable::build(study.records(), window_start);
//! let s = freshdyn::build(study.records(), window_start);
//! let ctx = AnalysisCtx::new(
//!     study.records(),
//!     &table,
//!     &s,
//!     study.sim().fleet(),
//!     window_start,
//! );
//! let flips = flips::Flips.run(&ctx);
//! assert_eq!(flips.flips, flips.flips_up + flips.flips_down);
//! ```
//!
//! [`Analysis::fold_timed`] wraps a stage's fold in a `pipeline/<name>`
//! span on the context's `Obs`; the one stage roster
//! ([`crate::incremental`]) folds every stage through it, which is how
//! batch and serve alike produce the per-stage timing breakdown.
//! Instrumentation never feeds back into the computation: a stage folded
//! under a live `Obs` returns a partial bit-identical to the same fold
//! under [`Obs::noop`].

use crate::freshdyn::FreshDynamic;
use crate::par;
use crate::records::SampleRecord;
use crate::table::TrajectoryTable;
use vt_engines::EngineFleet;
use vt_model::time::Timestamp;
use vt_obs::Obs;

/// Everything an analysis stage may consume, in one place.
///
/// Construction is cheap (all borrows); [`AnalysisCtx::new`] covers the
/// whole table and defaults to [`par::default_workers`] and a no-op
/// `Obs`, with `with_workers` / `with_obs` to override.
#[derive(Clone, Copy)]
pub struct AnalysisCtx<'a> {
    /// The record set `table` was built from. No stage reads it — every
    /// fold is table-only, and the zero-copy segment path passes `&[]` —
    /// but the benchmark's traced pass pins the 5-argument
    /// [`AnalysisCtx::new`], so the field stays until that is un-pinned.
    pub records: &'a [SampleRecord],
    /// The columnar view of `records` every stage reads instead of the
    /// `ScanReport` structs.
    pub table: &'a TrajectoryTable,
    /// The fresh dynamic dataset *S* (§5.3.1) over `records`.
    pub s: &'a FreshDynamic,
    /// Engine roster and update schedules (§5.5 cause attribution).
    pub fleet: &'a EngineFleet,
    /// Start of the observation window (landscape accounting).
    pub window_start: Timestamp,
    /// Worker threads the roster fold splits the table's samples
    /// across. A stage folded on its own is serial and never reads it.
    pub workers: usize,
    /// Metrics sink; [`Obs::noop`] when not observing.
    pub obs: &'a Obs,
    /// The contiguous sample range of `table` this context covers;
    /// `None` is the whole table. Only the roster fold narrows it.
    range: Option<(usize, usize)>,
}

impl<'a> AnalysisCtx<'a> {
    /// A context with default parallelism and no observation.
    pub fn new(
        records: &'a [SampleRecord],
        table: &'a TrajectoryTable,
        s: &'a FreshDynamic,
        fleet: &'a EngineFleet,
        window_start: Timestamp,
    ) -> Self {
        Self {
            records,
            table,
            s,
            fleet,
            window_start,
            workers: par::default_workers(),
            obs: Obs::noop(),
            range: None,
        }
    }

    /// Overrides the worker count of the roster fold.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a live metrics sink.
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Engine roster size (the fleet's, always).
    pub fn engine_count(&self) -> usize {
        self.fleet.engine_count()
    }

    /// This context restricted to the table's samples `range`: what one
    /// worker of the roster fold sees.
    pub(crate) fn narrowed(mut self, range: std::ops::Range<u64>) -> Self {
        self.range = Some((range.start as usize, range.end as usize));
        self
    }

    /// The table's samples this context covers.
    pub(crate) fn samples(&self) -> std::ops::Range<usize> {
        match self.range {
            Some((start, end)) => start..end,
            None => 0..self.table.len(),
        }
    }

    /// The members of *S* among [`samples`](Self::samples), ascending:
    /// `s.indices` is sorted, so a range's share is one sub-slice.
    pub(crate) fn s_indices(&self) -> &'a [usize] {
        let indices = &self.s.indices;
        match self.range {
            Some((start, end)) => {
                let lo = indices.partition_point(|&i| i < start);
                let hi = indices.partition_point(|&i| i < end);
                &indices[lo..hi]
            }
            None => indices,
        }
    }
}

impl std::fmt::Debug for AnalysisCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCtx")
            .field("records", &self.records.len())
            .field("table_rows", &self.table.report_rows())
            .field("s_samples", &self.s.len())
            .field("window_start", &self.window_start)
            .field("workers", &self.workers)
            .field("obs_enabled", &self.obs.is_enabled())
            .finish()
    }
}

/// One stage of the measurement pipeline, expressed as a fold over
/// segments of the record stream.
///
/// Implementors are unit-ish structs (`Flips`, `Causes`, …) living next
/// to the analysis they wrap; the one roster in [`crate::incremental`]
/// folds them in order for batch and serve alike. The contract:
///
/// * [`name`](Analysis::name) is stable and unique across the roster
///   — it keys the `pipeline/<name>` span;
/// * [`fold`](Analysis::fold) reduces one context (one *segment* of the
///   record stream, the whole dataset, or one worker's range of either)
///   to a [`Partial`](Analysis::Partial), in one serial pass;
/// * [`merge`](Analysis::merge) folds another partial into an
///   accumulation, in place, by addition, max or key-wise addition.
///   Merging per-segment partials, in any order, must equal folding
///   the concatenated segments — this is the algebra the incremental engine
///   ([`crate::incremental::IncrementalStudy`]) relies on, and it makes
///   incremental results **bit-identical** to the batch path by
///   construction;
/// * [`finish`](Analysis::finish) converts a partial into the stage's
///   final output;
/// * [`run`](Analysis::run) is `finish(fold(ctx))` — the one-segment
///   case — for every stage; none overrides it.
/// * Every method is deterministic in its inputs and must not let the
///   `Obs` handle feed back into results.
pub trait Analysis {
    /// The stage's typed result.
    type Output;

    /// The stage's mergeable intermediate state: what segment folds
    /// cache and merge across segments, and range folds across workers.
    type Partial: Clone;

    /// Stable, roster-unique stage name.
    fn name(&self) -> &'static str;

    /// Reduces the context's samples to a mergeable partial.
    fn fold(&self, ctx: &AnalysisCtx) -> Self::Partial;

    /// Folds `next` into `acc`; the two cover disjoint samples. Must
    /// satisfy `merge(fold(x), fold(y)) == fold(x ++ y)` and commute.
    /// Borrows `next`, so one merge serves every caller: a fold's
    /// ranges, and an accumulation that keeps the partial it adds.
    fn merge(&self, acc: &mut Self::Partial, next: &Self::Partial);

    /// Converts an accumulated partial into the stage output.
    ///
    /// Borrows the partial: finishing is a read-only projection, so a
    /// cached accumulation (the incremental engine's, a serve slot's)
    /// can be finished on every snapshot without being cloned or
    /// consumed first. Implementations clone only the fields the
    /// output actually carries.
    fn finish(&self, partial: &Self::Partial) -> Self::Output;

    /// Runs the stage: the one-segment fold, finished.
    fn run(&self, ctx: &AnalysisCtx) -> Self::Output {
        self.finish(&self.fold(ctx))
    }

    /// Folds one segment inside a `pipeline/<name>` span on `ctx.obs`
    /// (the roster's per-stage timing hook).
    fn fold_timed(&self, ctx: &AnalysisCtx) -> Self::Partial {
        let _span = ctx.obs.span(&format!("pipeline/{}", self.name()));
        self.fold(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use crate::pipeline::Study;
    use vt_sim::SimConfig;

    #[test]
    fn ctx_builds_and_overrides() {
        let study = Study::generate_with_workers(SimConfig::new(11, 200), 2);
        let window_start = study.sim().config().window_start();
        let table = TrajectoryTable::build(study.records(), window_start);
        let s = freshdyn::build(study.records(), window_start);
        let obs = Obs::new();
        let ctx = AnalysisCtx::new(
            study.records(),
            &table,
            &s,
            study.sim().fleet(),
            window_start,
        )
        .with_workers(3)
        .with_obs(&obs);
        assert_eq!(ctx.workers, 3);
        assert!(ctx.obs.is_enabled());
        assert_eq!(ctx.engine_count(), study.sim().fleet().engine_count());
        let dbg = format!("{ctx:?}");
        assert!(dbg.contains("workers: 3"), "{dbg}");
    }

    #[test]
    fn fold_timed_records_a_span_without_changing_results() {
        let study = Study::generate_with_workers(SimConfig::new(11, 400), 2);
        let window_start = study.sim().config().window_start();
        let table = TrajectoryTable::build(study.records(), window_start);
        let s = freshdyn::build(study.records(), window_start);
        let base = AnalysisCtx::new(
            study.records(),
            &table,
            &s,
            study.sim().fleet(),
            window_start,
        );
        let obs = Obs::new();
        let quiet = crate::stability::Stability.fold_timed(&base);
        let loud = crate::stability::Stability.fold_timed(&base.with_obs(&obs));
        assert_eq!(format!("{quiet:?}"), format!("{loud:?}"));
        let snap = obs.snapshot();
        assert_eq!(snap.span("pipeline/stability").unwrap().count, 1);
    }
}
