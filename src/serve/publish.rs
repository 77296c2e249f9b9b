//! Layer 3 — slot states → one merged study → the published
//! `Arc<Snapshot>`, and the seam readers meet it at.
//!
//! The merger thread reassembles the global study through a
//! [`SlotMergeTree`] — a fixed-shape binary merge tree over the slots
//! whose cached internal nodes make each publish O(changed-slot): a
//! fold that touched one slot re-merges only that leaf's
//! log₂([`INGEST_SLOTS`]) path to the root, and the other slots'
//! partials are not even cloned. The tree's in-order leaf walk is the
//! canonical concatenation `slot 0 ++ slot 1 ++ …`, so the root equals
//! the flat slot-order merge bit for bit, and every published bit is
//! identical at shards 1, 2 and 4. Each dirty slot's new alerts are
//! pulled past a per-slot high-water key, stamped with the publish
//! epoch and kept on a key-sorted, capped ring.
//!
//! ## The publish seam
//!
//! [`Seam`] holds the current `Arc<Snapshot>`; handlers clone the `Arc`
//! and answer from that pinned snapshot. Epochs start at 0 (the empty
//! study) and increase by at least 1 per publish; the final publish
//! (after every sealed segment has been folded and merged) reports
//! `ingest_done` when the feed was fully consumed. Any client's
//! observed epoch sequence is monotone. The seam is also the one thing
//! a reader can *wait* on ([`Seam::wait_past`]): a publish and a
//! shutdown request are its only wake-ups, so a `subscribe` stream is
//! driven by the epoch swap itself, not by a timer.
//!
//! The layer merges and swaps; what a [`Snapshot`]'s documents look
//! like is the `render` layer's business, handed in as
//! [`PublishCtx::render`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use super::fold::{lock_slot, FoldCtx, MergeEvent};
use super::{wire, INGEST_SLOTS};
use crate::dynamics::flips::FlipAnalysis;
use crate::dynamics::{Alert, IncrementalStudy, SampleIndex, SlotMergeTree, StudyResults};
use crate::obs::{Obs, RunMetrics};

/// One epoch-consistent view of the study: the aggregate responses
/// pre-rendered at publish time (request handling is allocation-only;
/// `status` alone is rendered per request, from the live registry),
/// plus everything the lazily rendered per-hash verbs answer from — the
/// sample index, the flip matrix and the engine roster — pinned to the
/// same epoch, so a handler that cloned the `Arc` can never mix stages
/// of the study.
#[derive(Debug)]
pub(super) struct Snapshot {
    pub(super) epoch: u64,
    /// The `status` members that must agree with this epoch's study —
    /// everything else in `status` is read live off the registry.
    pub(super) s_samples: u64,
    pub(super) indexed: usize,
    pub(super) ingest_done: bool,
    pub(super) shards: usize,
    pub(super) results: String,
    pub(super) engines: String,
    pub(super) metrics: String,
    pub(super) fingerprint: String,
    /// Hash → trajectory summary, one index per ingest slot — the same
    /// folds this epoch's aggregates summarize. Publishing a new epoch
    /// replaces only the dirty slots' `Arc`s; per-hash verbs route by
    /// slot and never pay a cross-slot merge.
    pub(super) slot_indexes: Vec<Arc<SampleIndex>>,
    /// Epoch at which each slot's index (and partials) last changed.
    /// The hot-sample cache compares these to decide which entries an
    /// epoch swap actually invalidated.
    pub(super) slot_epochs: [u64; INGEST_SLOTS],
    /// The §7.1 flip matrix backing the `engine` scorecard verb.
    pub(super) flips: Arc<FlipAnalysis>,
    /// Engine names in [`crate::model::EngineId`] order (the `engine`
    /// verb resolves names against the snapshot, not the live fleet).
    pub(super) engine_names: Arc<Vec<String>>,
    /// The retained drift-alert ring, sorted by alert key, each entry
    /// stamped with the epoch that published it (the `alerts` verb's
    /// `since` filter and the `subscribe` push cursor key off that
    /// stamp; the rendered bodies themselves carry no epoch).
    pub(super) alerts: Arc<Vec<PublishedAlert>>,
    /// The `recommend` verb's pre-rendered response.
    pub(super) recommend: String,
    /// True once a slot lock has been observed poisoned: the study no
    /// longer updates from that slot, answers may lag its stream.
    pub(super) degraded: bool,
}

/// One alert on the published ring: its identity key, the epoch whose
/// publish first carried it, and the deterministic rendered body.
#[derive(Debug, Clone)]
pub(super) struct PublishedAlert {
    /// [`Alert::key`] — `(seq, slot, detector, ordinal)`.
    pub(super) key: (u64, u32, u8, u32),
    /// Epoch at which the merger first shipped this alert.
    pub(super) published: u64,
    /// `wire::render_alert` body (no epoch member — byte-identical
    /// across shard/worker grids and recovery replays).
    pub(super) rendered: String,
}

/// Where the merger's epoch swap meets every reader: the current
/// snapshot, the condition a reader parks on, and the shutdown flag
/// (kept here because a shutdown request has to wake the parked).
pub(super) struct Seam {
    current: Mutex<Arc<Snapshot>>,
    swapped: Condvar,
    shutdown: AtomicBool,
}

impl Seam {
    pub(super) fn new(initial: Snapshot) -> Self {
        Self {
            current: Mutex::new(Arc::new(initial)),
            swapped: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    // The lock only ever guards a swap of the `Arc` — a panicked holder
    // cannot leave the pointer half-written — so a poisoned lock is
    // recovered, not propagated: one crashing handler must not cascade
    // into every later connection panicking too.
    fn lock(&self) -> MutexGuard<'_, Arc<Snapshot>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.lock())
    }

    pub(super) fn publish(&self, snapshot: Snapshot) {
        // The replaced snapshot is dropped after the lock is released.
        let _previous = std::mem::replace(&mut *self.lock(), Arc::new(snapshot));
        self.swapped.notify_all();
    }

    /// Parks until a snapshot with an epoch past `seen` is current and
    /// returns it, or `None` once shutdown is requested. Publish and
    /// shutdown are the only wake-ups.
    pub(super) fn wait_past(&self, seen: u64) -> Option<Arc<Snapshot>> {
        let mut current = self.lock();
        loop {
            if self.shutdown_requested() {
                return None;
            }
            if current.epoch > seen {
                return Some(Arc::clone(&current));
            }
            current = self
                .swapped
                .wait(current)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(super) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(super) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Taking the lock orders this after any waiter's flag check, so
        // the wake-up cannot fall between its check and its wait.
        drop(self.lock());
        self.swapped.notify_all();
    }
}

/// One epoch's merged study: what the merge tree's finished root and
/// the slot tables hand the `render` layer to make a [`Snapshot`] of.
pub(super) struct Merged {
    pub(super) epoch: u64,
    pub(super) results: StudyResults,
    pub(super) ingest_done: bool,
    pub(super) shards: usize,
    pub(super) degraded: bool,
    pub(super) metrics: RunMetrics,
    pub(super) slot_indexes: Vec<Arc<SampleIndex>>,
    pub(super) slot_epochs: [u64; INGEST_SLOTS],
    pub(super) alerts: Arc<Vec<PublishedAlert>>,
    pub(super) engine_names: Arc<Vec<String>>,
}

/// The merger's context: the workers', the seam it publishes through,
/// and the renderer it publishes with.
pub(super) struct PublishCtx {
    pub(super) fold: FoldCtx,
    pub(super) seam: Arc<Seam>,
    pub(super) render: fn(Merged) -> Snapshot,
}

/// The merger's cross-publish accumulation: the binary merge tree over
/// the slot partials (internal nodes cached, so a publish re-merges
/// only the changed slot's root path), the per-slot index `Arc`s and
/// the bookkeeping that detects which slots changed.
struct MergerState {
    tree: SlotMergeTree,
    /// `SlotState::version` behind each leaf — a mismatch marks the
    /// slot dirty.
    leaf_versions: [u64; INGEST_SLOTS],
    /// Epoch at which each slot last changed (shipped in the snapshot
    /// for slot-aware cache invalidation).
    slot_epochs: [u64; INGEST_SLOTS],
    slot_indexes: Vec<Arc<SampleIndex>>,
    /// Per-slot `(seq, detector, ordinal)` high-water mark of alerts
    /// already published. Slot logs grow strictly in that order, so a
    /// dirty slot's new alerts are exactly the suffix past the mark —
    /// and an alert is stamped with a publish epoch exactly once.
    alert_high: [Option<(u64, u8, u32)>; INGEST_SLOTS],
    /// Every published alert, kept sorted by [`Alert::key`]. Bounded by
    /// the per-segment detector caps × WAL length, so retaining the
    /// full log here is a small fixed multiple of the segment count;
    /// the snapshot ships only the last `alerts_ring` entries.
    alerts: Vec<PublishedAlert>,
}

/// The merger thread: on every fold notification (coalescing bursts),
/// refresh the merge tree's dirty leaves, finish the cached root, and
/// publish the next epoch. After the whole fleet exits — every sealed
/// segment folded — publish the final snapshot, marking `ingest_done`
/// when the feed was fully consumed.
pub(super) fn merger_loop(ctx: &PublishCtx, rx: &Receiver<MergeEvent>) {
    let ingest = &ctx.fold.ingest;
    let mut state = MergerState {
        tree: SlotMergeTree::new(INGEST_SLOTS),
        leaf_versions: [0; INGEST_SLOTS],
        slot_epochs: [0; INGEST_SLOTS],
        slot_indexes: empty_slot_indexes(),
        alert_high: [None; INGEST_SLOTS],
        alerts: Vec::new(),
    };
    let mut epoch = 0u64;
    let mut exited = 0usize;
    while exited < ingest.config.shards {
        let Ok(first) = rx.recv() else { break };
        let mut folded = false;
        for event in std::iter::once(first).chain(std::iter::from_fn(|| rx.try_recv().ok())) {
            match event {
                MergeEvent::Folded => folded = true,
                MergeEvent::WorkerExited => exited += 1,
            }
        }
        if folded && exited < ingest.config.shards {
            epoch += 1;
            publish_merged(ctx, &mut state, epoch, false);
        }
    }
    // Final publish: every sealed segment has been folded and merged.
    epoch += 1;
    publish_merged(ctx, &mut state, epoch, ingest.done());
}

/// Publishes one epoch from the merge tree: pull the slots whose
/// version moved since the last publish into their leaves (an
/// O(changed-slot) walk — each dirty slot re-merges only its log₂(8)
/// root path, and clean slots are not even cloned), finish the cached
/// root, and swap in the rendered snapshot. A poisoned slot lock marks
/// the snapshot degraded — its last consistent accumulation still
/// merges, the daemon keeps answering.
fn publish_merged(ctx: &PublishCtx, state: &mut MergerState, epoch: u64, done: bool) {
    let (fold, ingest) = (&ctx.fold, &ctx.fold.ingest);
    let mut degraded = false;
    let mut dirty_alerts: Vec<(usize, Arc<Vec<Alert>>)> = Vec::new();
    for (slot, lock) in fold.table.slots.iter().enumerate() {
        let (slot_state, was_poisoned) = lock_slot(lock, &ingest.counters);
        degraded |= was_poisoned;
        if slot_state.version == state.leaf_versions[slot] {
            continue;
        }
        state.leaf_versions[slot] = slot_state.version;
        state.slot_epochs[slot] = epoch;
        let partials = slot_state.partials.clone();
        let partitions = slot_state.partitions.clone();
        state.slot_indexes[slot] = slot_state.index.clone().unwrap_or_default();
        dirty_alerts.push((slot, Arc::clone(&slot_state.alerts)));
        drop(slot_state);
        // Re-merge outside the slot lock: only this slot's root path.
        state.tree.update_slot(slot, partials, partitions);
    }
    // Pull each dirty slot's alerts past its high-water key, stamp them
    // with this publish's epoch, and keep the global log key-sorted.
    // The stamp is pull-timing-dependent (it is *when this daemon
    // noticed*, the `since` cursor), but the rendered bodies and the
    // key order are pure functions of the WAL.
    let mut published_new = false;
    for (slot, log) in dirty_alerts {
        for alert in log.iter() {
            let k3 = (alert.seq, alert.detector, alert.ordinal);
            if state.alert_high[slot].is_some_and(|high| k3 <= high) {
                continue;
            }
            state.alert_high[slot] = Some(k3);
            state.alerts.push(PublishedAlert {
                key: alert.key(),
                published: epoch,
                rendered: wire::render_alert(alert, &fold.roster),
            });
            published_new = true;
        }
    }
    if published_new {
        state.alerts.sort_unstable_by_key(|a| a.key);
    }
    let ring_start = state.alerts.len().saturating_sub(ingest.config.alerts_ring);
    let partitions = state.tree.root_partitions().to_vec();
    let results = match state.tree.root() {
        Some(partials) => partials.finish(partitions, &ingest.obs),
        None => IncrementalStudy::new(ingest.sim.fleet(), ingest.sim.config().window_start())
            .results(partitions, &ingest.obs),
    };
    ctx.seam.publish((ctx.render)(Merged {
        epoch,
        results,
        ingest_done: done,
        shards: ingest.config.shards,
        degraded,
        metrics: ingest.obs.snapshot(),
        slot_indexes: state.slot_indexes.clone(),
        slot_epochs: state.slot_epochs,
        alerts: Arc::new(state.alerts[ring_start..].to_vec()),
        engine_names: Arc::clone(&fold.roster),
    }));
}

/// One default (empty) index per ingest slot.
pub(super) fn empty_slot_indexes() -> Vec<Arc<SampleIndex>> {
    (0..INGEST_SLOTS).map(|_| Arc::default()).collect()
}

/// Epoch 0: the finished empty study, so every query has a well-formed
/// answer before the first segment folds.
pub(super) fn empty_epoch(fold: &FoldCtx) -> Merged {
    let sim = &fold.ingest.sim;
    Merged {
        epoch: 0,
        results: IncrementalStudy::new(sim.fleet(), sim.config().window_start())
            .results(Vec::new(), Obs::noop()),
        ingest_done: false,
        shards: fold.ingest.config.shards,
        degraded: false,
        metrics: Obs::noop().snapshot(),
        slot_indexes: empty_slot_indexes(),
        slot_epochs: [0; INGEST_SLOTS],
        alerts: Arc::default(),
        engine_names: Arc::clone(&fold.roster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::tests::bare_snapshot as snapshot;
    use std::sync::mpsc::channel;

    /// Parks a waiter at `seen` on its own thread; the first channel
    /// fires once it is about to wait, the second carries what it woke
    /// with.
    fn park(seam: &Arc<Seam>, seen: u64) -> (Receiver<()>, Receiver<Option<u64>>) {
        let (ready_tx, ready_rx) = channel();
        let (woke_tx, woke_rx) = channel();
        let seam = Arc::clone(seam);
        std::thread::spawn(move || {
            ready_tx.send(()).expect("test thread alive");
            let woke = seam.wait_past(seen).map(|snap| snap.epoch);
            woke_tx.send(woke).expect("test thread alive");
        });
        (ready_rx, woke_rx)
    }

    #[test]
    fn a_parked_waiter_wakes_on_the_next_publish_and_never_on_a_stale_epoch() {
        let seam = Arc::new(Seam::new(snapshot(3)));
        assert_eq!(
            seam.wait_past(2).map(|s| s.epoch),
            Some(3),
            "an epoch already past the cursor returns at once"
        );
        let (ready, woke) = park(&seam, 3);
        ready.recv().expect("waiter started");
        // Re-publishing epochs at or below the cursor wakes the waiter's
        // condition, never the waiter: it must still be parked when the
        // first newer epoch arrives, and that is the one it returns.
        seam.publish(snapshot(2));
        seam.publish(snapshot(3));
        assert!(woke.try_recv().is_err(), "no epoch past 3 was published");
        seam.publish(snapshot(4));
        assert_eq!(woke.recv().expect("waiter finished"), Some(4));
        assert_eq!(seam.current().epoch, 4);
    }

    #[test]
    fn a_parked_waiter_wakes_on_shutdown_with_nothing_to_push() {
        let seam = Arc::new(Seam::new(snapshot(7)));
        let (ready, woke) = park(&seam, 7);
        ready.recv().expect("waiter started");
        assert!(!seam.shutdown_requested());
        seam.request_shutdown();
        assert_eq!(woke.recv().expect("waiter finished"), None);
        assert!(seam.shutdown_requested());
        assert_eq!(
            seam.wait_past(0).map(|s| s.epoch),
            None,
            "after shutdown nothing waits, even with a newer epoch current"
        );
    }
}
