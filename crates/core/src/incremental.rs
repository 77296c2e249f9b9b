//! Segment-at-a-time study evaluation: fold sealed segments as they
//! arrive, merge the cached partials, finish on demand.
//!
//! This module owns the **one stage roster** (the `roster!` list
//! below) and the one parallel split: `StudyPartials::fold` cuts one
//! segment's samples into a contiguous range per worker, runs the roster
//! serially over each and merges the range partials, and the batch
//! pipeline ([`crate::pipeline::analyze_records_obs`]) is
//! literally the one-segment case — `fold` over the whole record set,
//! then [`StudyPartials::finish`]. Every [`Analysis`] stage is a fold
//! whose [`Analysis::Partial`] is a set of counts merged by addition,
//! max or key-wise addition, so folding a stream segment by segment and
//! merging produces partials — and therefore finished [`StudyResults`]
//! — **bit-identical** to the one-segment batch, at every worker count
//! and in any merge order. That is the contract
//! `merge(fold(x), fold(y)) == fold(x ++ y) == merge(fold(y), fold(x))`
//! every stage upholds (and the roster law tests below plus
//! `tests/end_to_end.rs` enforce).
//!
//! Segments must partition *samples*: never split one sample's
//! trajectory across segments ([`vt_store::SegmentWriter`] seals on
//! sample boundaries for exactly this reason). Their fold order no
//! longer matters to the study; the per-hash index and the drift
//! detectors still see segments in stream order.
//!
//! ```
//! use vt_dynamics::incremental::IncrementalStudy;
//! use vt_dynamics::pipeline::Study;
//! use vt_obs::Obs;
//! use vt_sim::SimConfig;
//!
//! let study = Study::generate_with_workers(SimConfig::new(9, 600), 2);
//! let records = study.records();
//! let mut inc = IncrementalStudy::new(
//!     study.sim().fleet(),
//!     study.sim().config().window_start(),
//! );
//! for segment in records.chunks(250) {
//!     inc.fold_segment(segment, Obs::noop());
//! }
//! let results = inc.results(Vec::new(), Obs::noop());
//! let batch = study.run();
//! assert_eq!(
//!     format!("{:?}", results.dataset),
//!     format!("{:?}", batch.dataset),
//! );
//! ```

use crate::alerts::{Alert, AlertConfig, AlertEngine, AlertTotals};
use crate::analysis::{Analysis, AnalysisCtx};
use crate::categorize::{Categorize, CategorizePartial};
use crate::causes::{CauseAnalysis, Causes};
use crate::correlation::{Correlation, CorrelationPartial};
use crate::flips::{FlipAnalysis, Flips};
use crate::freshdyn;
use crate::index::SampleIndex;
use crate::intervals::{IntervalPartial, Intervals};
use crate::landscape::Landscape;
use crate::metrics::{Metrics, MetricsPartial, WindowGrowth};
use crate::par;
use crate::pipeline::StudyResults;
use crate::records::SampleRecord;
use crate::stability::{Stability, StabilityPartial};
use crate::stabilization::{Stabilization, StabilizationPartial};
use crate::table::TrajectoryTable;
use vt_engines::EngineFleet;
use vt_model::time::Timestamp;
use vt_obs::Obs;
use vt_store::{DatasetStats, PartitionStats};

/// The cached, mergeable state of every pipeline stage after some
/// number of segment folds — one [`Analysis::Partial`] per roster
/// stage plus the *S* accounting the finished [`StudyResults`] reports
/// directly.
///
/// Cheap to clone relative to refolding (counters, histograms, the
/// correlation contingency tables and the stability span counts — no
/// report data), which is what lets
/// [`IncrementalStudy::results`] snapshot results mid-stream without
/// disturbing the accumulation.
#[derive(Debug, Clone)]
pub struct StudyPartials {
    landscape: DatasetStats,
    stability: StabilityPartial,
    metrics: MetricsPartial,
    window_growth: (u64, u64),
    intervals: IntervalPartial,
    categories_all: CategorizePartial,
    categories_pe: CategorizePartial,
    causes: CauseAnalysis,
    stabilization: StabilizationPartial,
    flips: FlipAnalysis,
    correlation: CorrelationPartial,
    s_samples: u64,
    s_reports: u64,
    segments: u64,
}

/// The one stage roster, in execution order, as `partial field: stage`.
/// Expands to `StudyPartials::fold_range`, `StudyPartials::merge_from`
/// and [`stage_names`], so a stage cannot be folded without being merged
/// and named (or the reverse); batch, the incremental engine and `vtld
/// serve` all fold and merge through this list.
macro_rules! roster {
    ($($field:ident: $stage:expr,)*) => {
        impl StudyPartials {
            /// Folds `ctx`'s samples through every roster stage in turn,
            /// each under its `pipeline/<name>` span via
            /// [`Analysis::fold_timed`], on the calling thread.
            fn fold_range(ctx: &AnalysisCtx) -> Self {
                let s = ctx.s_indices();
                StudyPartials {
                    $($field: $stage.fold_timed(ctx),)*
                    s_samples: s.len() as u64,
                    s_reports: s.iter().map(|&i| ctx.table.report_count(i) as u64).sum(),
                    segments: 1,
                }
            }

            /// Adds another fold's partials to this accumulation, in
            /// place: each stage's [`Analysis::merge`], then the *S* and
            /// segment counts. The one contract is the segment folds':
            /// `self` and `next` cover disjoint sample sets. Every stage
            /// merge commutes, so the order is free; `vtld serve`'s
            /// merger adds each fold's delta to its running sum in
            /// arrival order, which is what makes the published snapshot
            /// bit-identical at every shard count.
            pub fn merge_from(&mut self, next: &Self) {
                $($stage.merge(&mut self.$field, &next.$field);)*
                self.s_samples += next.s_samples;
                self.s_reports += next.s_reports;
                self.segments += next.segments;
            }
        }

        /// Names of every pipeline stage, in execution order. Every name
        /// appears as a `pipeline/<name>` span in an instrumented run's
        /// metrics.
        pub fn stage_names() -> Vec<&'static str> {
            vec![$($stage.name()),*]
        }
    };
}

roster! {
    landscape: Landscape,
    stability: Stability,
    metrics: Metrics,
    window_growth: WindowGrowth::default(),
    intervals: Intervals::default(),
    categories_all: Categorize::ALL,
    categories_pe: Categorize::PE,
    causes: Causes,
    stabilization: Stabilization,
    flips: Flips,
    correlation: Correlation::default(),
}

impl StudyPartials {
    /// Folds one segment's context — or, for batch, the whole record
    /// set. This is the one place a fold is parallel: the table's
    /// samples split into `ctx.workers` contiguous ranges (kernel
    /// `fold`), each worker runs the whole roster serially over its
    /// range, and the range partials merge in range order exactly as
    /// segment partials do — `merge(fold(x), fold(y)) == fold(x ++ y)`
    /// — so the result is the one-range fold's at every worker count.
    pub(crate) fn fold(ctx: &AnalysisCtx) -> Self {
        let ranges = par::partition_ranges(ctx.table.len() as u64, ctx.workers);
        let mut parts = par::map_ranges_obs(&ranges, ctx.obs, "fold", |_, range| {
            Self::fold_range(&ctx.narrowed(range))
        })
        .into_iter();
        // An empty table splits into no ranges; its fold is the fold of
        // the empty range.
        let mut acc = parts.next().unwrap_or_else(|| Self::fold_range(ctx));
        for part in parts {
            acc.merge_from(&part);
        }
        acc.segments = 1;
        acc
    }

    /// The fold of zero samples over `fleet` and the window starting at
    /// `window_start`: no segment folded (`segments() == 0`), and the
    /// identity of [`merge`](Self::merge) on both sides — the sum a
    /// stream of deltas starts from, and what a study with nothing
    /// folded finishes into.
    pub fn empty(fleet: &EngineFleet, window_start: Timestamp) -> Self {
        let table = TrajectoryTable::build(&[], window_start);
        let s = freshdyn::build_from_table(&table, 1);
        let ctx = AnalysisCtx::new(&[], &table, &s, fleet, window_start);
        Self {
            segments: 0,
            ..Self::fold_range(&ctx)
        }
    }

    /// [`merge_from`](Self::merge_from) by value.
    pub fn merge(mut self, next: Self) -> Self {
        self.merge_from(&next);
        self
    }

    /// [`merge`](Self::merge) without consuming either side: one clone
    /// and one merge. [`SlotMergeTree`] re-merges its nodes with it;
    /// `vtld serve` merges each delta in place instead.
    fn merge_ref(&self, next: &Self) -> Self {
        let mut out = self.clone();
        out.merge_from(next);
        out
    }

    /// Segments folded into this accumulation.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Samples of *S* seen so far.
    pub fn s_samples(&self) -> u64 {
        self.s_samples
    }

    /// Reports across *S* seen so far.
    pub fn s_reports(&self) -> u64 {
        self.s_reports
    }

    /// The §6 stabilization accumulator — read by the streaming drift
    /// detectors ([`crate::alerts`]) to compare a segment delta against
    /// the running baseline.
    pub(crate) fn stabilization_partial(&self) -> &StabilizationPartial {
        &self.stabilization
    }

    /// Finishes every stage into a [`StudyResults`]. `partitions`
    /// supplies the Table 2 store accounting, which lives outside the
    /// analysis fold. Borrows the accumulation — finishing is a
    /// read-only projection, so it can run on every publish without
    /// cloning the partials or disturbing further folds. The projection
    /// runs under `obs`'s `pipeline/finish` span.
    pub fn finish(&self, partitions: Vec<PartitionStats>, obs: &Obs) -> StudyResults {
        let _span = obs.span("pipeline/finish");
        let (dataset, fig1) = Landscape.finish(&self.landscape);
        let stabilization = Stabilization.finish(&self.stabilization);
        let (correlation_global, correlation_per_type) =
            Correlation::default().finish(&self.correlation);
        StudyResults {
            dataset,
            fig1,
            partitions,
            stability: Stability.finish(&self.stability),
            s_samples: self.s_samples,
            s_reports: self.s_reports,
            metrics: Metrics.finish(&self.metrics),
            window_growth: WindowGrowth::default().finish(&self.window_growth),
            intervals: Intervals::default().finish(&self.intervals),
            categories_all: Categorize::ALL.finish(&self.categories_all),
            categories_pe: Categorize::PE.finish(&self.categories_pe),
            causes: Causes.finish(&self.causes),
            rank_stabilization: stabilization.rank,
            label_stabilization_all: stabilization.label_all,
            label_stabilization_multi: stabilization.label_multi,
            flips: Flips.finish(&self.flips),
            correlation_global,
            correlation_per_type,
        }
    }
}

/// The incremental study engine: feed it record segments as they seal,
/// ask it for full [`StudyResults`] whenever you like.
///
/// Folding a segment costs O(segment) — each new segment is tabled,
/// folded and merged into the cached [`StudyPartials`] without touching
/// any earlier segment's reports — where re-running the batch pipeline
/// would cost O(everything seen so far). `vtld serve` keeps one of
/// these per ingest slot and, after every fold, hands that fold's
/// partials and index to its merger thread with
/// [`take_partials`](Self::take_partials) and
/// [`take_index`](Self::take_index); the drift detectors keep
/// accumulating across takes.
#[derive(Debug, Clone)]
pub struct IncrementalStudy<'a> {
    fleet: &'a EngineFleet,
    window_start: Timestamp,
    workers: usize,
    partials: Option<StudyPartials>,
    indexing: bool,
    index: Option<SampleIndex>,
    alerts: Option<AlertEngine>,
}

impl<'a> IncrementalStudy<'a> {
    /// An empty study over a fleet and observation window, folding with
    /// [`par::default_workers`] threads.
    pub fn new(fleet: &'a EngineFleet, window_start: Timestamp) -> Self {
        Self {
            fleet,
            window_start,
            workers: par::default_workers(),
            partials: None,
            indexing: false,
            index: None,
            alerts: None,
        }
    }

    /// Overrides the worker count used by segment folds.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Additionally accumulates a per-sample [`SampleIndex`] at fold
    /// time (hash → trajectory summary; what the serve tier's per-hash
    /// query verbs answer from). Kept **outside** [`StudyPartials`] on
    /// purpose: the study fingerprint and the incremental-vs-batch
    /// bit-identity gates hash the partials' rendering, and the index
    /// is a query surface, not a study result.
    pub fn with_index(mut self) -> Self {
        self.indexing = true;
        self
    }

    /// Additionally runs the streaming drift detectors
    /// ([`crate::alerts`]) over every folded segment. Like the index,
    /// the alert state lives **outside** [`StudyPartials`]: alerts are
    /// a notification surface, not a study result, so the study
    /// fingerprint and the incremental-vs-batch bit-identity gates are
    /// untouched.
    pub fn with_alerts(mut self, config: AlertConfig) -> Self {
        self.alerts = Some(AlertEngine::new(config));
        self
    }

    /// Segments folded since the last [`take_partials`](Self::take_partials).
    pub fn segments(&self) -> u64 {
        self.partials().map_or(0, StudyPartials::segments)
    }

    /// The cached accumulation, if any segment has been folded since the
    /// last [`take_partials`](Self::take_partials).
    pub fn partials(&self) -> Option<&StudyPartials> {
        self.partials.as_ref()
    }

    /// Hands over everything folded since the last take (`None` if
    /// nothing was), leaving the study's partials empty. Taken after
    /// every fold, each take is that fold's own delta, and the deltas
    /// merge, in any order, to the accumulation never taking would
    /// have kept.
    pub fn take_partials(&mut self) -> Option<StudyPartials> {
        self.partials.take()
    }

    /// The per-sample index accumulated since the last
    /// [`take_index`](Self::take_index) — the whole fold's, for a caller
    /// that never takes: `Some` once a segment has been folded on a
    /// [`with_index`](Self::with_index) study, `None` otherwise.
    pub fn index(&self) -> Option<&SampleIndex> {
        self.index.as_ref()
    }

    /// Hands over what was indexed since the last take (`None` if
    /// nothing was), leaving the study holding no index — the twin of
    /// [`take_partials`](Self::take_partials). Taken after every fold,
    /// each take is that segment's own index, and the takes concatenate
    /// to the index never taking would have kept.
    pub fn take_index(&mut self) -> Option<SampleIndex> {
        self.index.take()
    }

    /// Drains drift alerts fired since the last drain (empty unless
    /// built [`with_alerts`](Self::with_alerts)), in key order.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        self.alerts
            .as_mut()
            .map(AlertEngine::take_pending)
            .unwrap_or_default()
    }

    /// Cumulative drift-event totals (zero unless built
    /// [`with_alerts`](Self::with_alerts)).
    pub fn alert_totals(&self) -> AlertTotals {
        self.alerts
            .as_ref()
            .map(AlertEngine::totals)
            .unwrap_or_default()
    }

    /// Folds one sealed segment — a contiguous run of whole-sample
    /// records, in stream order — into the cached partials, under a
    /// `pipeline/segment` span (with the usual `pipeline/table`,
    /// `pipeline/freshdyn` and per-stage spans inside it).
    ///
    /// An adapter over the one private fold: it builds the segment's
    /// columnar table and folds that. Callers holding decoded rows or a
    /// sealed [`vt_store::ReportStore`] should prefer
    /// [`fold_arena`](Self::fold_arena) / [`fold_store`](Self::fold_store),
    /// which skip the `Vec<SampleRecord>` materialization entirely.
    pub fn fold_segment(&mut self, records: &[SampleRecord], obs: &Obs) {
        let _span = obs.span("pipeline/segment");
        let table = obs.time("pipeline/table", || {
            TrajectoryTable::build_with(records, self.window_start, self.workers, obs)
        });
        self.fold_table(&table, obs);
    }

    /// Folds one sealed segment out of the rows a decode already left
    /// in `arena` — whichever decode that was: the strict reader's
    /// integrity pass over a file ([`vt_store::read_store_into`],
    /// [`vt_store::read_segment_into`]) or a store's row stream
    /// ([`fold_store`](Self::fold_store)). The columnar table is built
    /// from the arena with no `Vec<ScanReport>`/`Vec<SampleRecord>`
    /// round-trip and folded exactly like
    /// [`fold_segment`](Self::fold_segment)'s. Returns the number of
    /// samples folded.
    ///
    /// Bit-identical to `fold_segment` over the same reports as
    /// records — the arena path sorts decoded rows by `(hash,
    /// analysis_date, arrival)`, which is the same canonical order the
    /// record materialization produces.
    ///
    /// The `mem/arena_bytes` gauge keeps the largest arena any fold on
    /// `obs` has held (every fold route books its table on
    /// `mem/table_bytes`).
    pub fn fold_arena(&mut self, arena: &crate::arena::DecodeArena, obs: &Obs) -> usize {
        let _span = obs.span("pipeline/segment");
        let table = obs.time("pipeline/table", || {
            TrajectoryTable::build_from_arena(arena, self.window_start, self.workers, obs)
        });
        obs.gauge("mem/arena_bytes")
            .set_max(arena.heap_bytes() as u64);
        let samples = table.len();
        self.fold_table(&table, obs);
        samples
    }

    /// Folds one sealed segment straight out of its report store: the
    /// store's blocks stream into `arena` (cleared first, and reused
    /// across calls — its row buffer keeps capacity between segments,
    /// so a steady-state worker stops allocating), then
    /// [`fold_arena`](Self::fold_arena).
    pub fn fold_store(
        &mut self,
        store: &vt_store::ReportStore,
        arena: &mut crate::arena::DecodeArena,
        obs: &Obs,
    ) -> usize {
        arena.clear();
        store.for_each_row(arena);
        self.fold_arena(arena, obs)
    }

    /// Folds one sealed segment's columnar table — however it was built
    /// — into the cached partials: the one fold every public entry point
    /// adapts to (the caller owns the `pipeline/segment` span). The
    /// table must cover whole samples (never split one sample's
    /// trajectory across tables). Tables are folded in stream order
    /// because the index and the drift detectors follow it; the study
    /// partials would be the same in any order. The `mem/table_bytes`
    /// gauge keeps the largest table any fold on `obs` has held.
    pub(crate) fn fold_table(&mut self, table: &TrajectoryTable, obs: &Obs) {
        obs.gauge("mem/table_bytes")
            .set_max(table.heap_bytes() as u64);
        let s = obs.time("pipeline/freshdyn", || {
            freshdyn::build_from_table(table, self.workers)
        });
        // Every stage fold is table-only, so the context carries no
        // records — the zero-copy store path never materializes them.
        let ctx = AnalysisCtx::new(&[], table, &s, self.fleet, self.window_start)
            .with_workers(self.workers)
            .with_obs(obs);
        let seg = StudyPartials::fold(&ctx);
        if let Some(engine) = self.alerts.as_mut() {
            obs.time("pipeline/alerts", || engine.observe_segment(&seg, table));
        }
        if self.indexing {
            let part = obs.time("pipeline/index", || SampleIndex::fold_table(table));
            self.index = Some(match self.index.take() {
                None => part,
                Some(acc) => SampleIndex::concat(&[&acc, &part]),
            });
        }
        match &mut self.partials {
            None => self.partials = Some(seg),
            Some(acc) => acc.merge_from(&seg),
        }
    }

    /// Finishes the partials folded since the last take into full
    /// [`StudyResults`] (bit-identical to the batch pipeline over the
    /// concatenation of those segments). `partitions` supplies the Table 2 store
    /// accounting, which lives outside the analysis fold.
    ///
    /// Borrows the cached partials — no clone, accumulation continues
    /// unaffected — so this can be called after every segment.
    pub fn results(&self, partitions: Vec<PartitionStats>, obs: &Obs) -> StudyResults {
        match self.partials() {
            Some(p) => p.finish(partitions, obs),
            None => StudyPartials::empty(self.fleet, self.window_start).finish(partitions, obs),
        }
    }
}

/// Month-wise accumulation of per-segment Table 2 store accounting.
/// Months append in first-seen order; every store lists the same months
/// in window order, so stores' stats merge in any order to one vector.
pub fn merge_partition_stats(acc: &mut Vec<PartitionStats>, seg: &[PartitionStats]) {
    for stat in seg {
        match acc.iter_mut().find(|a| a.month == stat.month) {
            Some(a) => {
                a.reports += stat.reports;
                a.raw_bytes += stat.raw_bytes;
                a.stored_bytes += stat.stored_bytes;
            }
            None => acc.push(*stat),
        }
    }
}

/// A binary merge tree over fixed accumulation slots: cached
/// internal-node [`StudyPartials`] (and [`PartitionStats`]) so that
/// updating one slot re-merges only the log₂(slots) nodes on its
/// root path instead of re-merging every slot from scratch.
///
/// The tree shape is fixed — node `i` covers the contiguous slot range
/// of its subtree, children merge left-before-right — so the root
/// equals the flat left-to-right fold over slots `0..n`. By the
/// committed `merge(fold(x), fold(y)) == fold(x ++ y)` algebra
/// (associative and commutative, with an empty slot as identity), the
/// cached root is **bit-identical** to re-merging every slot.
///
/// Public only because the benchmark's traced replica
/// (`examples/benchmark/src/traced.rs`) pins it; `vtld serve` adds each
/// fold's delta to one accumulation instead.
#[derive(Debug, Clone)]
pub struct SlotMergeTree {
    /// Leaf count, rounded up to a power of two.
    slots: usize,
    /// Heap layout: `nodes[slots + s]` is slot `s`'s leaf,
    /// `nodes[i] = merge(nodes[2i], nodes[2i+1])`, `nodes[1]` the root.
    nodes: Vec<Option<StudyPartials>>,
    /// The same tree over Table 2 store accounting.
    partitions: Vec<Vec<PartitionStats>>,
}

impl SlotMergeTree {
    /// An empty tree over `slots` leaves.
    pub fn new(slots: usize) -> Self {
        let slots = slots.next_power_of_two().max(1);
        Self {
            slots,
            nodes: vec![None; 2 * slots],
            partitions: vec![Vec::new(); 2 * slots],
        }
    }

    /// Leaves in the tree.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Replaces one slot's accumulation and re-merges the nodes on its
    /// root path — O(log slots) merges of cached partials, independent
    /// of how many other slots hold history.
    pub fn update_slot(
        &mut self,
        slot: usize,
        partials: Option<StudyPartials>,
        partitions: Vec<PartitionStats>,
    ) {
        assert!(slot < self.slots, "slot {slot} out of range {}", self.slots);
        let mut i = self.slots + slot;
        self.nodes[i] = partials;
        self.partitions[i] = partitions;
        while i > 1 {
            i /= 2;
            let (l, r) = (2 * i, 2 * i + 1);
            self.nodes[i] = match (&self.nodes[l], &self.nodes[r]) {
                (Some(a), Some(b)) => Some(a.merge_ref(b)),
                (Some(a), None) => Some(a.clone()),
                (None, Some(b)) => Some(b.clone()),
                (None, None) => None,
            };
            let mut parts = self.partitions[l].clone();
            merge_partition_stats(&mut parts, &self.partitions[r]);
            self.partitions[i] = parts;
        }
    }

    /// The cached merge over every slot in canonical order (`None`
    /// while every slot is empty).
    pub fn root(&self) -> Option<&StudyPartials> {
        self.nodes[1].as_ref()
    }

    /// The cached month-wise store accounting over every slot.
    pub fn root_partitions(&self) -> &[PartitionStats] {
        &self.partitions[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_records_obs, Study};
    use vt_sim::SimConfig;

    /// Two folds of the same samples are the same bits: every partial,
    /// and the finished ρ planes by bit pattern (`Debug` would collapse
    /// distinct NaN payloads).
    fn assert_same_fold(a: &StudyPartials, b: &StudyPartials, what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
        let (ra, rb) = (
            a.finish(Vec::new(), Obs::noop()),
            b.finish(Vec::new(), Obs::noop()),
        );
        let planes = |r: &'_ StudyResults| -> Vec<u64> {
            std::iter::once(&r.correlation_global)
                .chain(&r.correlation_per_type)
                .flat_map(|c| c.rho.iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(planes(&ra), planes(&rb), "{what}: rho");
    }

    /// The roster law, in the one place the split lives: at every worker
    /// count `StudyPartials::fold` is the one-range fold, bit for bit.
    #[test]
    fn roster_fold_is_the_one_range_fold_at_every_worker_count() {
        let check = |records: &[SampleRecord], study: &Study, what: &str| {
            let ws = study.sim().config().window_start();
            let table = TrajectoryTable::build_with(records, ws, 1, Obs::noop());
            let s = freshdyn::build_from_table(&table, 1);
            let ctx = AnalysisCtx::new(records, &table, &s, study.sim().fleet(), ws);
            let one = StudyPartials::fold_range(&ctx);
            for workers in [1usize, 2, 3, 8] {
                let split = StudyPartials::fold(&ctx.with_workers(workers));
                assert_eq!(split.segments(), 1);
                assert_same_fold(&one, &split, &format!("{what} workers={workers}"));
            }
            (one.s_samples(), s.len() as u64)
        };
        let studies = [0xF01Du64, 0x5EED5]
            .map(|seed| Study::generate_with_workers(SimConfig::new(seed, 3_000), 2));
        for study in &studies {
            let what = format!("seed {:#x}", study.sim().config().seed);
            let (folded, built) = check(study.records(), study, &what);
            assert!(folded > 0, "{what} too small to exercise S");
            assert_eq!(folded, built, "the ranges' shares of S add up to S");
        }
        let study = &studies[0];
        check(&[], study, "empty table");
        check(&study.records()[..3], study, "fewer samples than workers");

        // Every member of S first: at two workers the second range holds
        // none, and its fold must still be the identity of every merge.
        let ws = study.sim().config().window_start();
        let s = freshdyn::build(study.records(), ws);
        let (mut front, mut back) = (Vec::new(), Vec::new());
        for (i, r) in study.records().iter().enumerate() {
            match s.indices.binary_search(&i) {
                Ok(_) => front.push(r.clone()),
                Err(_) => back.push(r.clone()),
            }
        }
        assert!(!front.is_empty() && front.len() * 2 <= study.records().len());
        front.extend(back);
        check(&front, study, "a range with no member of S");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// `merge` of the range folds is the whole fold, for every
            /// stage at once, wherever the cuts fall — empty ranges,
            /// repeated cuts and ranges without a member of S included —
            /// and in whatever order the range folds are merged; and the
            /// empty study is its identity, merged in at either end.
            #[test]
            fn range_folds_merge_to_the_whole_fold_at_any_cut_points(
                seed in 0u64..1_000_000,
                samples in 1u64..600,
                cuts in proptest::collection::vec(0u64..=1_000, 0..6),
                keys in proptest::collection::vec(any::<u64>(), 6..7),
            ) {
                let study = Study::generate_with_workers(SimConfig::new(seed, samples), 1);
                let ws = study.sim().config().window_start();
                let table = TrajectoryTable::build_with(study.records(), ws, 1, Obs::noop());
                let s = freshdyn::build_from_table(&table, 1);
                let ctx = AnalysisCtx::new(&[], &table, &s, study.sim().fleet(), ws);
                let mut bounds: Vec<u64> = cuts.iter().map(|c| c * samples / 1_000).collect();
                bounds.extend([0, samples]);
                bounds.sort_unstable();
                let parts: Vec<StudyPartials> = bounds
                    .windows(2)
                    .map(|w| StudyPartials::fold_range(&ctx.narrowed(w[0]..w[1])))
                    .collect();
                let whole = StudyPartials::fold_range(&ctx);
                let empty = StudyPartials::empty(study.sim().fleet(), ws);
                prop_assert_eq!(empty.segments(), 0);
                // In range order, then in the permutation `keys` sorts to.
                let mut permuted: Vec<usize> = (0..parts.len()).collect();
                permuted.sort_by_key(|&i| keys[i]);
                for (order, what) in [((0..parts.len()).collect(), "cuts"), (permuted, "permuted")] {
                    let mut merged = order
                        .iter()
                        .map(|&i| parts[i].clone())
                        .reduce(StudyPartials::merge)
                        .expect("at least the range 0..samples");
                    prop_assert_eq!(merged.segments(), parts.len() as u64);
                    let front = empty.clone().merge(merged.clone());
                    let back = merged.clone().merge(empty.clone());
                    for (with_empty, end) in [(front, "front"), (back, "back")] {
                        prop_assert_eq!(with_empty.segments(), merged.segments());
                        assert_same_fold(&merged, &with_empty, &format!("{what}, empty at the {end}"));
                    }
                    merged.segments = 1;
                    assert_same_fold(&whole, &merged, what);
                }
            }
        }
    }

    #[test]
    fn incremental_matches_batch_across_segmentations() {
        let study = Study::generate_with_workers(SimConfig::new(0x5E6, 2_000), 2);
        let records = study.records();
        let partitions = study.build_store().partition_stats();
        let batch = analyze_records_obs(
            records,
            partitions.clone(),
            study.sim().fleet(),
            study.sim().config().window_start(),
            2,
            Obs::noop(),
        );
        assert!(batch.s_samples > 0, "study too small to exercise S");
        let batch_dbg = format!("{batch:?}");
        for segments in [1usize, 4] {
            let mut inc =
                IncrementalStudy::new(study.sim().fleet(), study.sim().config().window_start())
                    .with_workers(2);
            let chunk = records.len().div_ceil(segments);
            for seg in records.chunks(chunk) {
                inc.fold_segment(seg, Obs::noop());
            }
            assert_eq!(inc.segments(), segments as u64);
            let results = inc.results(partitions.clone(), Obs::noop());
            assert_eq!(batch_dbg, format!("{results:?}"), "segments={segments}");
        }
    }

    #[test]
    fn with_index_accumulates_the_whole_fold() {
        let study = Study::generate_with_workers(SimConfig::new(0x1D0, 900), 2);
        let records = study.records();
        let ws = study.sim().config().window_start();
        let obs = Obs::new();
        let mut inc = IncrementalStudy::new(study.sim().fleet(), ws)
            .with_workers(2)
            .with_index();
        assert!(inc.index().is_none(), "nothing folded yet");
        for seg in records.chunks(records.len().div_ceil(3)) {
            inc.fold_segment(seg, &obs);
        }
        let table = TrajectoryTable::build_with(records, ws, 2, Obs::noop());
        let whole = SampleIndex::fold_table(&table);
        assert_eq!(inc.index(), Some(&whole));
        assert_eq!(
            obs.snapshot().span("pipeline/index").map(|s| s.count),
            Some(3)
        );
        // Indexing must not perturb the study results themselves.
        let mut plain = IncrementalStudy::new(study.sim().fleet(), ws).with_workers(2);
        for seg in records.chunks(records.len().div_ceil(3)) {
            plain.fold_segment(seg, Obs::noop());
        }
        assert!(plain.index().is_none());
        let a = inc.results(Vec::new(), Obs::noop());
        let b = plain.results(Vec::new(), Obs::noop());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn taken_deltas_merge_in_any_order_to_the_kept_accumulation() {
        let study = Study::generate_with_workers(SimConfig::new(0xA2C, 600), 2);
        let records = study.records();
        let ws = study.sim().config().window_start();
        let mut taking = IncrementalStudy::new(study.sim().fleet(), ws)
            .with_workers(2)
            .with_index();
        let mut kept = taking.clone();
        assert!(taking.take_partials().is_none(), "nothing folded yet");
        assert!(taking.take_index().is_none(), "nothing indexed yet");
        let (mut deltas, mut indexes) = (Vec::new(), Vec::new());
        for seg in records.chunks(records.len().div_ceil(3)) {
            taking.fold_segment(seg, Obs::noop());
            kept.fold_segment(seg, Obs::noop());
            let delta = taking.take_partials().expect("one segment folded");
            assert_eq!(delta.segments(), 1, "a take after every fold is its delta");
            assert!(taking.partials().is_none());
            deltas.push(delta);
            let index = taking.take_index().expect("one segment indexed");
            assert_eq!(
                index.len(),
                seg.len(),
                "a take after every fold is its segment's"
            );
            assert!(taking.index().is_none());
            indexes.push(index);
        }
        assert_eq!(
            Some(&SampleIndex::concat(&indexes.iter().collect::<Vec<_>>())),
            kept.index(),
            "the index takes concatenate to the kept index"
        );
        let summed = deltas
            .into_iter()
            .rev()
            .reduce(StudyPartials::merge)
            .expect("three folds");
        assert_eq!(summed.segments(), kept.segments());
        assert_eq!(
            format!("{:?}", summed.finish(Vec::new(), Obs::noop())),
            format!("{:?}", kept.results(Vec::new(), Obs::noop())),
        );
    }

    #[test]
    fn empty_study_matches_batch_over_no_records() {
        let study = Study::generate_with_workers(SimConfig::new(3, 50), 1);
        let inc = IncrementalStudy::new(study.sim().fleet(), study.sim().config().window_start());
        assert_eq!(inc.segments(), 0);
        assert!(inc.partials().is_none());
        let results = inc.results(Vec::new(), Obs::noop());
        let batch = analyze_records_obs(
            &[],
            Vec::new(),
            study.sim().fleet(),
            study.sim().config().window_start(),
            1,
            Obs::noop(),
        );
        assert_eq!(format!("{results:?}"), format!("{batch:?}"));
    }

    #[test]
    fn slot_merge_tree_root_matches_flat_merge_in_slot_order() {
        let study = Study::generate_with_workers(SimConfig::new(0x7EE, 1_500), 2);
        let records = study.records();
        let ws = study.sim().config().window_start();
        const SLOTS: usize = 8;
        // Route samples into fixed hash slots as `vtld serve` does.
        let mut slot_records: Vec<Vec<SampleRecord>> = vec![Vec::new(); SLOTS];
        for r in records {
            slot_records[(r.meta.hash.0 % SLOTS as u128) as usize].push(r.clone());
        }
        assert!(
            slot_records.iter().filter(|s| !s.is_empty()).count() >= 4,
            "fixture must populate several slots"
        );
        let mut tree = SlotMergeTree::new(SLOTS);
        assert!(tree.root().is_none(), "empty tree has no accumulation");
        let mut studies: Vec<IncrementalStudy<'_>> = (0..SLOTS)
            .map(|_| IncrementalStudy::new(study.sim().fleet(), ws).with_workers(2))
            .collect();
        // Fold each slot's stream in two segments (interleaved across
        // slots, like a live shard fleet), updating its leaf after every
        // fold and checking the cached root against the flat
        // left-to-right slot merge it must stay bit-identical to.
        for pass in 0..2 {
            for (slot, recs) in slot_records.iter().enumerate() {
                let half = recs.len() / 2;
                let seg = if pass == 0 {
                    &recs[..half]
                } else {
                    &recs[half..]
                };
                studies[slot].fold_segment(seg, Obs::noop());
                tree.update_slot(slot, studies[slot].partials().cloned(), Vec::new());
                let flat = studies
                    .iter()
                    .filter_map(|st| st.partials().cloned())
                    .reduce(StudyPartials::merge)
                    .expect("at least one slot folded");
                assert_eq!(
                    format!(
                        "{:?}",
                        tree.root().expect("root").finish(Vec::new(), Obs::noop())
                    ),
                    format!("{:?}", flat.finish(Vec::new(), Obs::noop())),
                    "slot {slot} pass {pass}"
                );
            }
        }
    }

    #[test]
    fn slot_merge_tree_partitions_match_flat_first_seen_order() {
        use vt_model::time::Month;
        let month = |i: usize| Some(Month::COLLECTION_START.plus(i));
        let stat = |m: Option<Month>, reports: u64| PartitionStats {
            month: m,
            reports,
            raw_bytes: reports * 10,
            stored_bytes: reports * 3,
        };
        let per_slot: Vec<Vec<PartitionStats>> = vec![
            vec![stat(month(2), 5), stat(month(0), 1)],
            vec![],
            vec![stat(month(0), 2), stat(None, 7)],
            vec![stat(month(1), 4)],
            vec![stat(month(2), 9)],
        ];
        let mut tree = SlotMergeTree::new(8);
        // Update out of slot order — the cached result must still equal
        // the flat slot-0..8 scan.
        for &slot in &[4usize, 0, 2, 3, 1] {
            tree.update_slot(slot, None, per_slot.get(slot).cloned().unwrap_or_default());
        }
        let mut flat = Vec::new();
        for parts in &per_slot {
            merge_partition_stats(&mut flat, parts);
        }
        assert_eq!(tree.root_partitions(), flat.as_slice());
        assert_eq!(flat[0].month, month(2), "first-seen order preserved");
        assert_eq!(flat[0].reports, 14, "slot 0 and 4 months accumulate");
    }

    #[test]
    fn fold_segment_records_segment_spans_and_snapshots_do_not_disturb() {
        let study = Study::generate_with_workers(SimConfig::new(0xACC, 600), 2);
        let records = study.records();
        let obs = Obs::new();
        let mut inc =
            IncrementalStudy::new(study.sim().fleet(), study.sim().config().window_start())
                .with_workers(2);
        let mid = records.len() / 2;
        inc.fold_segment(&records[..mid], &obs);
        // A mid-stream snapshot must not change what later folds see.
        let _early = inc.results(Vec::new(), Obs::noop());
        inc.fold_segment(&records[mid..], &obs);
        let snap = obs.snapshot();
        assert_eq!(snap.span("pipeline/segment").map(|s| s.count), Some(2));
        // Two segments, each folded as two ranges.
        assert_eq!(snap.counter("par/fold/invocations"), Some(2));
        assert_eq!(snap.span("pipeline/flips").map(|s| s.count), Some(4));
        let results = inc.results(Vec::new(), Obs::noop());
        let batch = analyze_records_obs(
            records,
            Vec::new(),
            study.sim().fleet(),
            study.sim().config().window_start(),
            2,
            Obs::noop(),
        );
        assert_eq!(format!("{results:?}"), format!("{batch:?}"));
    }
}
