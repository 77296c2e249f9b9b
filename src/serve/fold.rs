//! Layer 2 — sealed segments → one [`SlotUpdate`] per fold, sent to the
//! merger.
//!
//! Accepted samples are partitioned by hash into
//! [`super::INGEST_SLOTS`] fixed slots; each slot is an independent segment
//! stream folded by one of `shards` worker threads. A worker keeps one
//! [`SlotFold`] per slot it serves — the slot's [`IncrementalStudy`]
//! (partials, per-sample [`SampleIndex`], and with alerting on a
//! slot-local [`crate::dynamics::AlertEngine`] running the four
//! streaming detectors over each segment's delta) — and every fold's
//! result leaves in the message that announces it: that fold's own
//! partials, Table 2 stats and index, taken out of the study, and the
//! alerts that fold fired. Between folds the study holds no partials
//! and no index: only the detectors' state outlives a fold. Alerts are keyed
//! `(slot, seq, detector, ordinal)`, a pure function of the WAL, so the
//! stream is bit-identical at any shard × worker count and across
//! crash-recovery replay.
//!
//! A worker folds and does nothing else. Every segment, freshly sealed
//! or replayed, reaches the fold the same way: its store's rows stream
//! into the worker's one decode arena, by one decode
//! ([`IncrementalStudy::fold_store`]). The strict reader and the store's
//! row stream both visit partitions in window order and blocks in
//! append order, so a live segment folds the rows a restart would read
//! back from its file — held by the kill/recover fingerprint tests and
//! by this module's per-segment round-trip test, not re-proved on every
//! segment.
//!
//! What crosses the seam downstream is one boxed [`SlotUpdate`] per fold
//! and nothing else — no table, no lock, no rendered byte; nothing here
//! knows how slots are merged or published, or where alerts go. A worker
//! says it is done by dropping its sender, whether it returns or
//! panics: the merger's channel closes when the last one does.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use super::counters::ServeCounters;
use super::ingest::{IngestCtx, SegmentMsg};
use super::ServeConfig;
use crate::dynamics::{
    Alert, AlertConfig, AlertTotals, DecodeArena, IncrementalStudy, SampleIndex, StudyPartials,
};
use crate::model::EngineId;
use crate::obs::Obs;
use crate::sim::VirusTotalSim;
use crate::store::{PartitionStats, Segment};

/// What one fold hands the merger: *that fold's* partials, Table 2
/// stats, index and alerts, which no other update carries — every member
/// a delta, which the merger adds to its sums in whatever order updates
/// arrive.
#[cfg_attr(test, derive(Clone))]
pub(super) struct SlotUpdate {
    pub(super) slot: usize,
    /// [`SegmentMsg::recovered`], passed on with the alerts.
    pub(super) recovered: bool,
    pub(super) partials: StudyPartials,
    pub(super) partitions: Vec<PartitionStats>,
    /// The folded segment's own samples, frozen behind an `Arc` at fold
    /// time: the merger keeps the pointer as the slot's newest index
    /// chunk, copying nothing until compaction does.
    pub(super) index: Arc<SampleIndex>,
    /// In key order: seq grows per fold, ordinals are deterministic
    /// within one (and bounded by the per-segment detector caps).
    pub(super) alerts: Vec<Alert>,
}

/// A shard worker's context: the feeder's, and the fleet's engine
/// roster.
pub(super) struct FoldCtx {
    pub(super) ingest: IngestCtx,
    /// Engine names in [`EngineId`] order. Named here and nowhere else:
    /// alert bodies, the `engines` roster and the `engine` verb all
    /// render with this one list — a pure function of the fleet, so
    /// every rendering of an engine agrees byte for byte.
    pub(super) roster: Arc<Vec<String>>,
    /// Sealed segments handed to a shard queue and not yet taken off it.
    queued: AtomicU64,
}

impl FoldCtx {
    pub(super) fn new(config: ServeConfig) -> Self {
        let ingest = IngestCtx::new(config);
        let fleet = ingest.sim.fleet();
        let roster = (0..fleet.engine_count())
            .map(|i| fleet.profile(EngineId::new(i)).name.to_string())
            .collect();
        Self {
            roster: Arc::new(roster),
            ingest,
            queued: AtomicU64::new(0),
        }
    }

    /// A segment is about to enter a shard queue: count it, and raise
    /// the `serve/queue_depth` high-water mark. Called before the send,
    /// so the worker's [`dequeued`](Self::dequeued) can never come first.
    pub(super) fn enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        self.ingest.counters.queue_depth.set_max(depth);
    }

    /// A segment left a shard queue: a worker took it, or its send
    /// failed.
    pub(super) fn dequeued(&self) {
        let was = self.queued.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(was > 0, "a dequeue without its enqueue");
    }
}

/// One slot's worker-local fold state; nothing but its owning worker
/// ever writes it.
pub(super) struct SlotFold<'a> {
    slot: usize,
    study: IncrementalStudy<'a>,
    /// Alert totals already on the shared counters, so each fold adds
    /// an exact delta.
    counted: AlertTotals,
}

impl<'a> SlotFold<'a> {
    /// An empty accumulation for `slot`: indexed, and with the drift
    /// detectors stamped with the slot id when alerting is on.
    pub(super) fn new(config: &ServeConfig, sim: &'a VirusTotalSim, slot: usize) -> Self {
        let study = IncrementalStudy::new(sim.fleet(), sim.config().window_start())
            .with_workers(config.workers)
            .with_index();
        let study = if config.alerts {
            study.with_alerts(AlertConfig {
                slot: slot as u32,
                ..config.alert_config
            })
        } else {
            study
        };
        Self {
            slot,
            study,
            counted: AlertTotals::default(),
        }
    }

    /// Folds the slot's next sealed segment, its store's rows streamed
    /// into the worker's reusable `arena` ([`IncrementalStudy::fold_store`]),
    /// and advances the alert counters by exactly what it added; returns
    /// the samples folded and the update the merger is owed, which takes
    /// the fold's partials and index out of the study.
    pub(super) fn fold(
        &mut self,
        segment: &Segment,
        recovered: bool,
        arena: &mut DecodeArena,
        obs: &Obs,
        c: &ServeCounters,
    ) -> (usize, SlotUpdate) {
        let samples = self.study.fold_store(segment.store(), arena, obs);
        let alerts = self.study.take_alerts();
        let totals = self.study.alert_totals();
        let was = self.counted;
        c.alerts_fired.add(totals.fired - was.fired);
        c.alerts_stabilized.add(totals.stabilized - was.stabilized);
        c.alerts_destabilized
            .add(totals.destabilized - was.destabilized);
        c.alerts_swings.add(totals.swings - was.swings);
        self.counted = totals;
        let update = SlotUpdate {
            slot: self.slot,
            recovered,
            partials: self.study.take_partials().expect("a fold folds a segment"),
            partitions: segment.store().partition_stats(),
            index: self.study.take_index().map(Arc::new).unwrap_or_default(),
            alerts,
        };
        (samples, update)
    }
}

/// One shard worker: folds its slots' segment streams, in arrival
/// (= per-slot seal) order, and sends the merger every fold's update.
/// Its caller drops `merge_tx` when it returns.
pub(super) fn shard_worker(
    ctx: &FoldCtx,
    rx: &Receiver<SegmentMsg>,
    merge_tx: &Sender<Box<SlotUpdate>>,
) {
    let (ingest, c) = (&ctx.ingest, &ctx.ingest.counters);
    let mut slots: HashMap<usize, SlotFold<'_>> = HashMap::new();
    // One decode arena per worker, reused across every segment it
    // folds: the row buffer reaches steady-state capacity after the
    // first few segments and stops allocating.
    let mut arena = DecodeArena::new();
    while let Ok(SegmentMsg {
        slot,
        segment,
        recovered,
    }) = rx.recv()
    {
        ctx.dequeued();
        let fold = slots
            .entry(slot)
            .or_insert_with(|| SlotFold::new(&ingest.config, &ingest.sim, slot));
        let (samples, update) = fold.fold(&segment, recovered, &mut arena, &ingest.obs, c);
        c.segments.incr();
        c.samples.add(samples as u64);
        c.reports.add(segment.report_count());
        if recovered {
            c.recovered_segments.incr();
        }
        let _ = merge_tx.send(Box::new(update));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::merge_partition_stats;
    use crate::serve::tests::sealed_segments;
    use crate::sim::SimConfig;
    use crate::store::{read_segment, write_segment};

    /// A live segment folds, from its in-memory store, into exactly the
    /// update its file's strict read folds into — partials, Table 2
    /// stats, index and alerts — for every segment of the feed: what is
    /// folded is what a restart reads.
    #[test]
    fn a_live_segment_folds_as_its_file_reads_back() {
        let config = ServeConfig::new(1_500, 0x51_07);
        let sim = VirusTotalSim::new(SimConfig::new(config.seed, config.samples));
        let segments = sealed_segments(&sim, 0..config.samples, 3);
        assert!(
            segments.len() >= 3,
            "the fixture splits at least three ways"
        );
        let counters = ServeCounters::register(Obs::noop());
        let mut live = SlotFold::new(&config, &sim, 3);
        let mut read_back = SlotFold::new(&config, &sim, 3);
        let mut arena = DecodeArena::new();
        let mut alerts = 0;
        for (n, segment) in segments.iter().enumerate() {
            let mut file = Vec::new();
            write_segment(segment, &mut file).expect("in-memory write");
            let reread = read_segment(&mut file.as_slice()).expect("a sealed segment reads back");
            let (samples, folded) = live.fold(segment, false, &mut arena, Obs::noop(), &counters);
            let (reread_samples, reread) =
                read_back.fold(&reread, true, &mut arena, Obs::noop(), &counters);
            assert_eq!(samples, reread_samples, "segment {n}");
            assert_eq!(
                format!("{:?}", folded.partials),
                format!("{:?}", reread.partials),
                "segment {n}"
            );
            assert_eq!(folded.partitions, reread.partitions, "segment {n}");
            assert_eq!(folded.index, reread.index, "segment {n}");
            assert_eq!(folded.alerts, reread.alerts, "segment {n}");
            alerts += folded.alerts.len();
        }
        assert!(alerts > 0, "the fixture fires alerts");
    }

    #[test]
    fn slot_fold_equals_a_directly_driven_study_and_logs_each_alert_once() {
        let config = ServeConfig::new(1_500, 0x51_07);
        assert!(config.alerts, "detectors are on by default");
        let sim = VirusTotalSim::new(SimConfig::new(config.seed, config.samples));
        let segments = sealed_segments(&sim, 0..config.samples, 3);
        assert_eq!(segments.len(), 3, "the fixture splits three ways");
        // A live registry, so the fold's counter deltas are observable.
        let counters = ServeCounters::register(&Obs::new());
        let slot = 5;
        let mut fold = SlotFold::new(&config, &sim, slot);
        let mut direct = IncrementalStudy::new(sim.fleet(), sim.config().window_start())
            .with_workers(config.workers)
            .with_index()
            .with_alerts(AlertConfig {
                slot: slot as u32,
                ..config.alert_config
            });

        let (mut arena, mut direct_arena) = (DecodeArena::new(), DecodeArena::new());
        let mut partitions = Vec::new();
        // The stream a merger is sent, every update still held.
        let mut updates: Vec<SlotUpdate> = Vec::new();
        for (n, segment) in segments.iter().enumerate() {
            let (samples, update) = fold.fold(segment, false, &mut arena, Obs::noop(), &counters);
            let direct_samples = direct.fold_store(segment.store(), &mut direct_arena, Obs::noop());
            merge_partition_stats(&mut partitions, &segment.store().partition_stats());

            assert_eq!(samples, direct_samples, "fold {n}");
            assert_eq!(update.slot, slot);
            assert_eq!(
                update.index.len(),
                samples,
                "fold {n}: this segment's index"
            );
            assert!(
                fold.study.index().is_none(),
                "fold {n}: the worker keeps no index between folds"
            );
            assert_eq!(
                update.alerts,
                direct.take_alerts(),
                "fold {n}: this fold's batch and nothing older"
            );
            updates.push(update);
            let totals = direct.alert_totals();
            assert_eq!(
                (
                    counters.alerts_fired.value(),
                    counters.alerts_stabilized.value(),
                    counters.alerts_destabilized.value(),
                    counters.alerts_swings.value(),
                ),
                (
                    totals.fired,
                    totals.stabilized,
                    totals.destabilized,
                    totals.swings
                ),
                "fold {n}: counters advance by exact deltas"
            );
        }
        let handed: Vec<&Alert> = updates.iter().flat_map(|u| &u.alerts).collect();
        assert!(!handed.is_empty(), "the fixture fires alerts");
        assert!(
            handed.windows(2).all(|w| w[0].key() < w[1].key()),
            "every alert once, in key order"
        );
        let mut summed_partitions = Vec::new();
        for update in &updates {
            let delta = &update.partials;
            assert_eq!(delta.segments(), 1, "each update is its own fold's delta");
            merge_partition_stats(&mut summed_partitions, &update.partitions);
        }
        let indexes: Vec<&SampleIndex> = updates.iter().map(|u| &*u.index).collect();
        assert_eq!(Some(&SampleIndex::concat(&indexes)), direct.index());
        assert_eq!(summed_partitions, partitions);
        let served = updates
            .into_iter()
            .map(|update| update.partials)
            .reduce(StudyPartials::merge)
            .expect("three folds")
            .finish(summed_partitions, Obs::noop());
        assert_eq!(
            format!("{served:?}"),
            format!("{:?}", direct.results(partitions, Obs::noop()))
        );
    }
}
