//! Layer 2 — sealed segments → slot partials, index and alerts behind
//! the slot locks.
//!
//! Accepted samples are partitioned by hash into
//! [`INGEST_SLOTS`] fixed slots; each slot is an independent segment
//! stream folded by one of `shards` worker threads. A worker keeps one
//! [`SlotFold`] per slot it serves — the slot's [`IncrementalStudy`]
//! (partials, per-sample [`SampleIndex`], and with alerting on a
//! slot-local [`crate::dynamics::AlertEngine`] running the four
//! streaming detectors over each segment's delta), its Table 2
//! accounting and its cumulative alert log — and after every fold
//! overwrites the slot's [`SlotState`] from it under the slot lock, then
//! tells the merger. Alerts are keyed `(slot, seq, detector, ordinal)`,
//! a pure function of the WAL, so the stream is bit-identical at any
//! shard × worker count and across crash-recovery replay; fresh batches
//! also go straight to the connector sinks (`sink`).
//!
//! A segment's rows reach the fold through the worker's one decode
//! arena, by one decode. A freshly sealed segment is written to its
//! checksummed container and read back strictly — the proof that the
//! bytes a restart would read fold to what is published — and that
//! read's integrity decode *is* the fold's input
//! ([`read_segment_into`] → [`IncrementalStudy::fold_arena`]). A
//! replayed segment was already accepted by the same reader during
//! replay; its store streams into the arena once.
//!
//! What crosses the seam downstream is the [`SlotTable`] and a
//! [`MergeEvent`] per fold; nothing here knows how slots are merged or
//! published.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

use super::counters::ServeCounters;
use super::ingest::{IngestCtx, SegmentMsg};
use super::{sink, wire, ServeConfig, INGEST_SLOTS};
use crate::dynamics::{
    merge_partition_stats, Alert, AlertConfig, AlertTotals, DecodeArena, IncrementalStudy,
    SampleIndex, StudyPartials,
};
use crate::model::EngineId;
use crate::obs::Obs;
use crate::sim::VirusTotalSim;
use crate::store::{read_segment_into, write_segment, PartitionStats, Segment};

/// Slot-local accumulation the shard workers write and the merger
/// reads: the slot's merged [`StudyPartials`] and [`SampleIndex`] plus
/// its Table 2 store accounting.
#[derive(Debug, Default)]
pub(super) struct SlotState {
    /// Bumped on every fold into this slot; the merger compares it to
    /// the version behind its merge-tree leaf, so publishing touches
    /// only the slots that actually changed since the last epoch.
    pub(super) version: u64,
    pub(super) partials: Option<StudyPartials>,
    /// Frozen behind an `Arc` at fold time: publishing ships the
    /// pointer into the snapshot's per-slot index table instead of
    /// merging the slot indexes into one.
    pub(super) index: Option<Arc<SampleIndex>>,
    pub(super) partitions: Vec<PartitionStats>,
    /// The slot's cumulative alert log in key order (bounded by the
    /// per-segment detector caps, so never truncated here). Overwritten
    /// whole at fold time like every other field; the merger pulls the
    /// suffix past its per-slot high-water key.
    pub(super) alerts: Arc<Vec<Alert>>,
}

/// One mutex per slot — a worker updates its slot while the merger
/// walks all of them; neither holds a lock for longer than a clone.
#[derive(Default)]
pub(super) struct SlotTable {
    pub(super) slots: [Mutex<SlotState>; INGEST_SLOTS],
}

/// Takes a slot lock, recovering from poisoning instead of cascading
/// the panic. Returns the guard plus whether the lock was poisoned.
///
/// Recovery is sound because every write under a slot lock is a full
/// overwrite of the slot's fields from worker-local state (never an
/// in-place mutation), so a panicked holder can at worst have left the
/// *previous* consistent accumulation behind — stale, not torn. The
/// daemon keeps serving, counts the recovery on `serve/poisoned`, and
/// the next publish flags the snapshot `degraded`.
pub(super) fn lock_slot<'a>(
    slot: &'a Mutex<SlotState>,
    counters: &ServeCounters,
) -> (MutexGuard<'a, SlotState>, bool) {
    match slot.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => {
            counters.poisoned.incr();
            (poisoned.into_inner(), true)
        }
    }
}

/// Shard-worker → merger notifications.
pub(super) enum MergeEvent {
    Folded,
    WorkerExited,
}

/// A shard worker's context: the feeder's, the roster alert bodies
/// render with, and the table it writes.
pub(super) struct FoldCtx {
    pub(super) ingest: IngestCtx,
    /// Engine names in [`EngineId`] order. Named here and nowhere else:
    /// alert bodies, the `engines` roster and the `engine` verb all
    /// render with this one list — a pure function of the fleet, so
    /// workers, merger and sinks agree byte for byte.
    pub(super) roster: Arc<Vec<String>>,
    pub(super) table: SlotTable,
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
            table: SlotTable::default(),
        }
    }
}

/// One slot's worker-local accumulation. Everything lives here, outside
/// any lock; [`store`](Self::store) fully overwrites the slot's
/// [`SlotState`] from it. That overwrite-only discipline is what makes
/// poisoned-lock recovery ([`lock_slot`]) sound.
pub(super) struct SlotFold<'a> {
    study: IncrementalStudy<'a>,
    partitions: Vec<PartitionStats>,
    /// The study's index as of the last fold, frozen outside the lock.
    index: Option<Arc<SampleIndex>>,
    /// Cumulative alert log, re-frozen only by a fold that fired.
    alerts: Arc<Vec<Alert>>,
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
            study,
            partitions: Vec::new(),
            index: None,
            alerts: Arc::default(),
            counted: AlertTotals::default(),
        }
    }

    /// Folds the slot's next sealed segment — `arena` holding its
    /// decoded rows — and advances the alert counters by exactly what it
    /// added; returns the samples folded and the alerts fired, in key
    /// order. Zero-copy: the columnar table is built straight from the
    /// worker's reusable decode arena (see
    /// [`IncrementalStudy::fold_arena`]).
    pub(super) fn fold(
        &mut self,
        segment: &Segment,
        arena: &DecodeArena,
        obs: &Obs,
        c: &ServeCounters,
    ) -> (usize, Vec<Alert>) {
        let samples = self.study.fold_arena(arena, obs);
        merge_partition_stats(&mut self.partitions, &segment.store().partition_stats());
        self.index = self.study.index().cloned().map(Arc::new);
        // The log stays in key order: seq grows per fold, ordinals are
        // deterministic within one.
        let alerts = self.study.take_alerts();
        if !alerts.is_empty() {
            let mut log = Vec::clone(&self.alerts);
            log.extend_from_slice(&alerts);
            self.alerts = Arc::new(log);
        }
        let totals = self.study.alert_totals();
        let was = self.counted;
        c.alerts_fired.add(totals.fired - was.fired);
        c.alerts_stabilized.add(totals.stabilized - was.stabilized);
        c.alerts_destabilized
            .add(totals.destabilized - was.destabilized);
        c.alerts_swings.add(totals.swings - was.swings);
        self.counted = totals;
        (samples, alerts)
    }

    /// Overwrites every field of the slot's shared state (call under
    /// its lock).
    pub(super) fn store(&self, state: &mut SlotState) {
        state.version += 1;
        state.partials = self.study.partials().cloned();
        state.index = self.index.clone();
        state.partitions = self.partitions.clone();
        state.alerts = Arc::clone(&self.alerts);
    }
}

/// One shard worker: folds its slots' segment streams, in arrival
/// (= per-slot seal) order, and notifies the merger after every fold.
pub(super) fn shard_worker(
    ctx: &FoldCtx,
    rx: &Receiver<SegmentMsg>,
    merge_tx: &Sender<MergeEvent>,
    alert_sink: Option<&Sender<sink::SinkMsg>>,
) {
    let (ingest, c) = (&ctx.ingest, &ctx.ingest.counters);
    let mut slots: HashMap<usize, SlotFold<'_>> = HashMap::new();
    // One decode arena per worker, reused across every segment it
    // folds: the row buffer reaches steady-state capacity after the
    // first few segments and stops allocating.
    let mut arena = DecodeArena::new();
    let mut container = Vec::new();
    while let Ok(msg) = rx.recv() {
        ingest.dequeued();
        let SegmentMsg {
            slot,
            segment,
            recovered,
        } = msg;
        // Freshly sealed segments round-trip through their checksummed
        // container before folding: what the daemon folds is exactly
        // what a restart would recover from disk, rows included — the
        // strict read decodes into the arena. Replayed segments already
        // came through that reader.
        let segment = if recovered {
            arena.clear();
            segment.store().for_each_row(&mut arena);
            segment
        } else {
            container.clear();
            write_segment(&segment, &mut container).expect("in-memory segment write");
            arena
                .refill(|rows| {
                    read_segment_into(&mut container.as_slice(), rows, &ingest.store_obs)
                })
                .expect("own segment re-reads")
        };
        let fold = slots
            .entry(slot)
            .or_insert_with(|| SlotFold::new(&ingest.config, &ingest.sim, slot));
        let (samples, alerts) = fold.fold(&segment, &arena, &ingest.obs, c);
        if let (Some(sink), false) = (alert_sink, alerts.is_empty()) {
            let _ = sink.send(sink::SinkMsg {
                lines: alerts
                    .iter()
                    .map(|a| wire::render_alert(a, &ctx.roster))
                    .collect(),
                recovered,
            });
        }
        {
            let (mut state, _was_poisoned) = lock_slot(&ctx.table.slots[slot], c);
            fold.store(&mut state);
        }
        c.segments.incr();
        c.samples.add(samples as u64);
        c.reports.add(segment.report_count());
        if recovered {
            c.recovered_segments.incr();
        }
        let _ = merge_tx.send(MergeEvent::Folded);
    }
    let _ = merge_tx.send(MergeEvent::WorkerExited);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Collector;
    use crate::sim::fault::{FaultPlan, FaultyFeed};
    use crate::sim::SimConfig;
    use crate::store::SegmentWriter;

    /// `samples` clean-feed samples sealed into three whole-sample
    /// segments, the way the feeder seals a slot's stream.
    fn three_segments(sim: &VirusTotalSim, samples: u64) -> Vec<Segment> {
        let feed = FaultyFeed::from_sim(sim, 0..samples, FaultPlan::clean(sim.config().seed));
        let groups = Collector::default().run(feed).store.group_by_sample();
        let reports: u64 = groups.iter().map(|(_, r)| r.len() as u64).sum();
        let mut writer = SegmentWriter::new(reports.div_ceil(3));
        let mut segments: Vec<Segment> = groups
            .iter()
            .filter_map(|(_, reports)| writer.push_sample(reports))
            .collect();
        segments.extend(writer.finish());
        assert_eq!(segments.len(), 3, "the fixture splits three ways");
        segments
    }

    #[test]
    fn slot_fold_equals_a_directly_driven_study_and_logs_each_alert_once() {
        let config = ServeConfig::new(1_500, 0x51_07);
        assert!(config.alerts, "detectors are on by default");
        let sim = VirusTotalSim::new(SimConfig::new(config.seed, config.samples));
        let segments = three_segments(&sim, config.samples);
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
        let mut state = SlotState::default();
        let mut partitions = Vec::new();
        // What a merger pulling the suffix past its mark has been handed.
        let mut handed: Vec<Alert> = Vec::new();
        for (n, segment) in segments.iter().enumerate() {
            arena.clear();
            segment.store().for_each_row(&mut arena);
            let (samples, alerts) = fold.fold(segment, &arena, Obs::noop(), &counters);
            fold.store(&mut state);
            let direct_samples = direct.fold_store(segment.store(), &mut direct_arena, Obs::noop());
            merge_partition_stats(&mut partitions, &segment.store().partition_stats());

            assert_eq!(samples, direct_samples, "fold {n}");
            assert_eq!(alerts, direct.take_alerts(), "fold {n}: fresh batch");
            assert_eq!(state.version, n as u64 + 1, "one version per fold");
            assert_eq!(
                state.alerts[handed.len()..],
                alerts[..],
                "fold {n}: the shared log grew by exactly this fold's batch"
            );
            handed.extend(alerts);
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
        assert!(!handed.is_empty(), "the fixture fires alerts");
        assert!(
            handed.windows(2).all(|w| w[0].key() < w[1].key()),
            "every alert once, in key order"
        );
        assert_eq!(state.index.as_deref(), direct.index());
        assert_eq!(state.partitions, partitions);
        let served = state
            .partials
            .as_ref()
            .expect("three folds accumulated")
            .finish(state.partitions.clone(), Obs::noop());
        assert_eq!(
            format!("{served:?}"),
            format!("{:?}", direct.results(partitions, Obs::noop()))
        );
    }
}
