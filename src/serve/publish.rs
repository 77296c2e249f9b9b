//! Layer 3 — slot updates → one merged study → the published
//! `Arc<Snapshot>`, and the seam readers meet it at.
//!
//! The merger is a sum over its channel. It owns everything it merges:
//! one sum of study partials and one of Table 2 stats, which start at
//! the empty study ([`StudyPartials::empty`], what epoch 0 publishes
//! finished) and to which each [`SlotUpdate`] adds its fold's own
//! delta, in arrival order — one merge per fold, whatever the history.
//! It ends when the channel closes: every shard worker, returned or
//! panicked, has dropped its sender, so it needs no count of them.
//! Every stage merge is an addition, a max or a key-wise addition, and
//! every store lists the same months in window order, so the sum is
//! the same in any order, and every published bit is identical at
//! shards 1, 2 and 4. A slot's index is a list of
//! immutable chunks ([`IndexChunks`]): each update's index is pushed as
//! the newest, and chunks within 2× of each other compact into one, so
//! a slot of n samples holds at most ⌊log2 n⌋ + 1 of them and a
//! snapshot shares every chunk the next publish leaves alone. A slot's
//! updates arrive in its seal order, so its chunks are the same in any
//! interleaving. The alerts an update carries arrive exactly
//! once and are rendered here, once: handed to the `sink` callback in
//! arrival order before the publish that carries them, then stamped
//! with the publish epoch and kept on a key-sorted ring capped at
//! [`ALERTS_RING`] — the only alert log there is.
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
//! Bar alert bodies, the layer never renders. A [`Snapshot`] *is*
//! the merged study, finished into results once. Until a reader has
//! asked for results, a publish carries a copy of the sums and the first
//! request that needs results finishes it ([`Snapshot::results`]), so a
//! burst of publishes nobody reads — a `--recover` replay polled for
//! `status`, say — finishes nothing. Once one has, every publish
//! finishes before its swap, off the readers' path. What its documents
//! look like is the `render` layer's business, on the first request
//! that asks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use super::fold::{FoldCtx, SlotUpdate};
use super::sink::SinkMsg;
use super::{wire, INGEST_SLOTS};
use crate::dynamics::{merge_partition_stats, IndexChunks, StudyPartials, StudyResults};
use crate::obs::Obs;
use crate::store::PartitionStats;

/// Alerts the published ring keeps, by largest key; the sinks get all.
pub(super) const ALERTS_RING: usize = 4_096;

/// One epoch-consistent view of the study — the merged study itself:
/// its partials, the per-slot sample indexes, the alert ring and the
/// engine roster, pinned to one epoch, so a handler that cloned the
/// `Arc` can never mix stages of the study. Immutable once published,
/// but for the memo cells below: the finished results (unless the
/// publish finished them, for a daemon whose readers ask), and every
/// aggregate document, are made by the first request that pins this
/// snapshot and needs them, and dropped with the snapshot — nothing
/// renders at publish and there is nothing to invalidate. A
/// response is a function of the snapshot it pinned (`status` and
/// `metrics` alone also read the live registry).
#[derive(Debug)]
pub(super) struct Snapshot {
    pub(super) epoch: u64,
    /// The merged study as it stood at this epoch, unfinished; `None`
    /// when `results` was filled at publish (epoch 0, or a publish after
    /// readers asked).
    study: Option<Box<Unfinished>>,
    /// The finished study every aggregate document and the `engine`
    /// scorecard (its §7.1 flip matrix) are rendered from — see
    /// [`Snapshot::results`].
    results: OnceLock<StudyResults>,
    pub(super) ingest_done: bool,
    pub(super) shards: usize,
    /// Hash → trajectory summary, one chunk list per ingest slot — the
    /// same folds this epoch's aggregates summarize. A publish copies
    /// only the chunk `Arc`s; per-hash verbs route by slot, probe its
    /// few chunks and never pay a cross-slot merge.
    pub(super) slot_indexes: Vec<IndexChunks>,
    /// The retained drift-alert ring, sorted by alert key, each entry
    /// stamped with the epoch that published it (the `alerts` verb's
    /// `since` filter and the `subscribe` push cursor key off that
    /// stamp; the rendered bodies themselves carry no epoch).
    pub(super) alerts: Arc<Vec<PublishedAlert>>,
    /// Engine names in [`crate::model::EngineId`] order (the `engine`
    /// verb resolves names against the snapshot, not the live fleet).
    pub(super) engine_names: Arc<Vec<String>>,
    /// The `results`, `engines`, `fingerprint` and `recommend`
    /// documents, each as the first request for it rendered it.
    pub(super) results_json: OnceLock<String>,
    pub(super) engines_json: OnceLock<String>,
    pub(super) fingerprint_json: OnceLock<String>,
    pub(super) recommend_json: OnceLock<String>,
    /// The study-wide `(flips desc, hash asc)` ranking behind
    /// `flip_leaders`, cut at `wire::MAX_FLIP_LEADERS` and kept as
    /// rendered, epoch-free bodies, so any `k` is a prefix of it.
    pub(super) leaders: OnceLock<Vec<String>>,
}

/// A snapshot's study before anyone asked for its results: a copy of
/// the merger's sums, the registry its finish is timed in, and the
/// daemon's [`MergerState::readers_ask`] latch a reader's finish sets.
#[derive(Debug)]
struct Unfinished {
    partials: StudyPartials,
    partitions: Vec<PartitionStats>,
    obs: Arc<Obs>,
    readers_ask: Arc<AtomicBool>,
}

/// The finished study, under the daemon's `pipeline/finish` span — the
/// one place this layer finishes one, for a reader or ahead of a swap.
/// Finishing is a pure function of the sums, so the bytes are the same
/// whichever does it.
fn finish(partials: &StudyPartials, partitions: Vec<PartitionStats>, obs: &Obs) -> StudyResults {
    partials.finish(partitions, obs)
}

/// What a publish hands [`Snapshot::new`]: the study, finished or not.
enum Study {
    Finished(Box<StudyResults>),
    Unfinished(Box<Unfinished>),
}

impl Snapshot {
    /// `study` as of `epoch`, under `fold`'s shard count and roster,
    /// with nothing rendered yet.
    fn new(
        fold: &FoldCtx,
        epoch: u64,
        study: Study,
        ingest_done: bool,
        slot_indexes: Vec<IndexChunks>,
        alerts: Arc<Vec<PublishedAlert>>,
    ) -> Self {
        let (study, results) = match study {
            Study::Finished(results) => (None, OnceLock::from(*results)),
            Study::Unfinished(study) => (Some(study), OnceLock::new()),
        };
        Self {
            epoch,
            study,
            results,
            ingest_done,
            shards: fold.ingest.config.shards,
            slot_indexes,
            alerts,
            engine_names: Arc::clone(&fold.roster),
            results_json: OnceLock::new(),
            engines_json: OnceLock::new(),
            fingerprint_json: OnceLock::new(),
            recommend_json: OnceLock::new(),
            leaders: OnceLock::new(),
        }
    }

    /// The finished study: finished by the first request that needs it
    /// and read by every later one — concurrent first callers wait for
    /// that one finish, which also tells the merger to finish every
    /// later publish ahead of its swap.
    pub(super) fn results(&self) -> &StudyResults {
        self.results.get_or_init(|| {
            let study =
                (self.study.as_ref()).expect("a snapshot without partials was published finished");
            study.readers_ask.store(true, Ordering::Relaxed);
            finish(&study.partials, study.partitions.clone(), &study.obs)
        })
    }

    /// `status`'s *S* count, read off the sums without finishing them.
    pub(super) fn s_samples(&self) -> u64 {
        match &self.study {
            Some(study) => study.partials.s_samples(),
            None => {
                (self.results.get())
                    .expect("a snapshot without partials was published finished")
                    .s_samples
            }
        }
    }
}

/// One alert on the published ring: its identity key, the epoch whose
/// publish first carried it, and the deterministic rendered body.
#[derive(Debug, Clone)]
pub(super) struct PublishedAlert {
    /// [`crate::dynamics::Alert::key`] — `(seq, slot, detector, ordinal)`.
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

/// The merger's context: the workers', and the seam it publishes
/// through.
pub(super) struct PublishCtx {
    pub(super) fold: FoldCtx,
    pub(super) seam: Arc<Seam>,
}

/// The merger's cross-publish accumulation: the sums of every delta
/// merged so far, and what each snapshot shares with the next by
/// pointer.
pub(super) struct MergerState {
    partials: StudyPartials,
    partitions: Vec<PartitionStats>,
    slot_indexes: Vec<IndexChunks>,
    /// The published alerts with the [`ALERTS_RING`] largest keys, sorted
    /// by key. An alert with that many larger keys behind it can never
    /// come back into the tail of a log that only grows, so nothing
    /// older is kept — what grows with history here is bounded.
    ring: Arc<Vec<PublishedAlert>>,
    /// Set the first time a reader has to finish a snapshot itself:
    /// from then on readers want results, and every publish finishes
    /// before its swap, off their path. Until then — a `--recover`
    /// polled for `status`, say — a publish finishes nothing.
    readers_ask: Arc<AtomicBool>,
}

impl MergerState {
    /// The empty sum over `fold`'s fleet and window: nothing merged, no
    /// index chunk and no alert.
    pub(super) fn new(fold: &FoldCtx) -> Self {
        let sim = &fold.ingest.sim;
        Self {
            partials: StudyPartials::empty(sim.fleet(), sim.config().window_start()),
            partitions: Vec::new(),
            slot_indexes: vec![IndexChunks::default(); INGEST_SLOTS],
            ring: Arc::default(),
            readers_ask: Arc::default(),
        }
    }
}

/// The merger thread: from `state` on, on every fold's update (draining
/// a burst into one publish), add the updates' deltas to the sums and
/// publish them as the next epoch — finished once readers ask for
/// results, a copy until then — and hand `sink` their alerts first.
/// Once the channel closes — every sealed segment folded, or the fleet
/// gone — publish the final snapshot, with the closing burst's updates
/// and no publish before it, marking `ingest_done` when the feed was
/// fully consumed.
pub(super) fn merger_loop(
    ctx: &PublishCtx,
    mut state: MergerState,
    rx: &Receiver<Box<SlotUpdate>>,
    mut sink: impl FnMut(SinkMsg),
) {
    let mut epoch = 0u64;
    let mut updates = Vec::new();
    while let Ok(first) = rx.recv() {
        ctx.fold.update_taken();
        updates.push(first);
        let closed = loop {
            match rx.try_recv() {
                Ok(update) => {
                    ctx.fold.update_taken();
                    updates.push(update);
                }
                Err(TryRecvError::Empty) => break false,
                Err(TryRecvError::Disconnected) => break true,
            }
        };
        if closed {
            break;
        }
        epoch += 1;
        publish_merged(ctx, &mut state, epoch, updates.drain(..), false, &mut sink);
    }
    let (epoch, done) = (epoch + 1, ctx.fold.ingest.done());
    publish_merged(ctx, &mut state, epoch, updates.drain(..), done, &mut sink);
}

/// Publishes one epoch: add `updates` (in arrival order) to the sums —
/// one merge and one index chunk push each — hand `sink` each update's
/// rendered alerts, book the index's copies and bytes, and swap
/// the sums in as the next snapshot: finished, once readers ask for
/// results, else as a copy for the first ask.
fn publish_merged(
    ctx: &PublishCtx,
    state: &mut MergerState,
    epoch: u64,
    updates: impl Iterator<Item = Box<SlotUpdate>>,
    done: bool,
    sink: &mut impl FnMut(SinkMsg),
) {
    let (fold, ingest) = (&ctx.fold, &ctx.fold.ingest);
    // Every update's alerts are new: stamp them with this publish's
    // epoch. The stamp is arrival-timing-dependent (it is *when this
    // daemon noticed*, the `since` cursor), but the rendered bodies and
    // the key order are pure functions of the WAL.
    let mut fresh: Vec<PublishedAlert> = Vec::new();
    let mut copied = 0;
    for update in updates {
        let SlotUpdate {
            slot,
            recovered,
            partials,
            partitions,
            index,
            alerts,
        } = *update;
        let batch = fresh.len();
        fresh.extend(alerts.iter().map(|alert| PublishedAlert {
            key: alert.key(),
            published: epoch,
            rendered: wire::render_alert(alert, &fold.roster),
        }));
        // The sinks get every line, the ones the ring cuts included.
        if !alerts.is_empty() {
            sink(SinkMsg {
                slot,
                lines: fresh[batch..].iter().map(|a| a.rendered.clone()).collect(),
                recovered,
            });
        }
        state.partials.merge_from(&partials);
        merge_partition_stats(&mut state.partitions, &partitions);
        copied += state.slot_indexes[slot].push(index);
    }
    let c = &ingest.counters;
    c.index_copied_samples.add(copied as u64);
    let chunks = state.slot_indexes.iter().flat_map(IndexChunks::chunks);
    c.index_bytes
        .set(chunks.map(|chunk| chunk.heap_bytes() as u64).sum());
    if !fresh.is_empty() {
        // The last snapshot still shares the ring, so this copies it —
        // once per publish that has alerts to add, not once per publish.
        let ring = Arc::make_mut(&mut state.ring);
        ring.extend(fresh);
        ring.sort_unstable_by_key(|a| a.key);
        let excess = ring.len().saturating_sub(ALERTS_RING);
        ring.drain(..excess);
    }
    let partitions = state.partitions.clone();
    let study = if state.readers_ask.load(Ordering::Relaxed) {
        Study::Finished(Box::new(finish(&state.partials, partitions, &ingest.obs)))
    } else {
        Study::Unfinished(Box::new(Unfinished {
            partials: state.partials.clone(),
            partitions,
            obs: Arc::clone(&ingest.obs),
            readers_ask: Arc::clone(&state.readers_ask),
        }))
    };
    // A publish is a CPU burst shorter than a scheduler slice, so a
    // handler that woke on this core during it has not run yet. Let it:
    // it answers from the epoch it arrived under. Swapping first makes
    // every such request straddle the swap — one more request period
    // on the reader's view of when an epoch arrived (DESIGN.md §2.8).
    std::thread::yield_now();
    ctx.seam.publish(Snapshot::new(
        fold,
        epoch,
        study,
        done,
        state.slot_indexes.clone(),
        Arc::clone(&state.ring),
    ));
}

/// Epoch 0: a new merger's `state` — the empty sum — finished, so every
/// query has a well-formed answer before the first segment folds.
pub(super) fn empty_epoch(fold: &FoldCtx, state: &MergerState) -> Snapshot {
    let results = finish(&state.partials, state.partitions.clone(), Obs::noop());
    Snapshot::new(
        fold,
        0,
        Study::Finished(Box::new(results)),
        false,
        state.slot_indexes.clone(),
        Arc::clone(&state.ring),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Alert, AlertKind};
    use crate::model::SampleHash;
    use crate::serve::counters::ServeCounters;
    use crate::serve::render::{
        render_engine, render_engines, render_fingerprint, render_recommend, render_results,
        render_status, study_fingerprint,
    };
    use crate::serve::tests::{
        bare_snapshot as snapshot, directly_folded_indexes, interleaved_updates, merger_ctx,
        published_in_one_burst, slot_update_streams,
    };
    use crate::serve::ServeConfig;
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

    #[test]
    fn a_panic_under_the_seam_lock_does_not_cascade() {
        let seam = Arc::new(Seam::new(snapshot(1)));
        let (ready, woke) = park(&seam, 1);
        ready.recv().expect("waiter started");
        let holder = Arc::clone(&seam);
        let died = std::thread::spawn(move || {
            let _guard = holder.current.lock().expect("first holder");
            panic!("test-injected: a handler dies holding the seam's lock");
        })
        .join();
        assert!(died.is_err());
        assert!(seam.current.is_poisoned(), "the fault was injected");
        // Readers, the merger and the parked subscriber all carry on.
        assert_eq!(seam.current().epoch, 1);
        seam.publish(snapshot(2));
        assert_eq!(woke.recv().expect("waiter finished"), Some(2));
        assert_eq!(seam.wait_past(1).map(|s| s.epoch), Some(2));
    }

    #[test]
    fn a_burst_and_a_trickle_of_the_same_updates_publish_the_same_study() {
        let config = ServeConfig::new(1_500, 0x51_07);

        let burst = published_in_one_burst(&merger_ctx(config.clone()));
        assert_eq!(burst.epoch, 1);
        assert!(burst.alerts.iter().all(|a| a.published == 1));

        // One at a time: the next update is sent only once the previous
        // one's publish has been seen.
        let ctx = merger_ctx(config);
        let (tx, rx) = channel();
        let mut stamped: Vec<((u64, u32, u8, u32), u64)> = Vec::new();
        let trickle = std::thread::scope(|scope| {
            // `tx` lives in here so that a failed assertion drops it on
            // the way out and the merger returns instead of the scope
            // waiting on it forever.
            let (ctx, rx, tx) = (&ctx, rx, tx);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, |_| {}));
            let mut epoch = 0;
            for update in interleaved_updates(ctx) {
                let keys: Vec<_> = update.alerts.iter().map(Alert::key).collect();
                ctx.fold.update_sent();
                tx.send(Box::new(update)).expect("rx");
                let seen = ctx.seam.wait_past(epoch).expect("no shutdown").epoch;
                assert_eq!(seen, epoch + 1, "one publish per update");
                epoch = seen;
                stamped.extend(keys.into_iter().map(|key| (key, epoch)));
            }
            drop(tx);
            merger.join().expect("the merger returns");
            let last = ctx.seam.current();
            assert_eq!(last.epoch, epoch + 1, "and the final one");
            last
        });

        assert!(!burst.alerts.is_empty(), "the fixture fires alerts");
        assert_eq!(
            study_fingerprint(trickle.results()),
            study_fingerprint(burst.results())
        );
        assert_eq!(trickle.slot_indexes, burst.slot_indexes);
        let keys = |snap: &Snapshot| -> Vec<_> {
            snap.alerts
                .iter()
                .map(|a| (a.key, a.rendered.clone()))
                .collect()
        };
        assert_eq!(keys(&trickle), keys(&burst));
        assert!(!trickle.ingest_done && !burst.ingest_done);
        // Each alert carries the epoch of the publish its update went
        // out in — stamped once, never re-stamped by a later publish.
        stamped.sort_unstable();
        let ring: Vec<_> = trickle
            .alerts
            .iter()
            .map(|a| (a.key, a.published))
            .collect();
        assert_eq!(ring, stamped);
    }

    /// A publish finishes nothing: `status` reads *S* off the copied
    /// sums, and a pinned snapshot is finished once, by its first
    /// aggregate ask, however many threads ask at once — into the bytes
    /// a finish at publish gave.
    #[test]
    fn a_publish_finishes_nothing_until_asked_and_then_exactly_once() {
        let ctx = merger_ctx(ServeConfig::new(1_500, 0x51_07));
        let obs = &ctx.fold.ingest.obs;
        let finishes = || {
            obs.snapshot()
                .span("pipeline/finish")
                .map_or(0, |s| s.count)
        };
        let counters = ServeCounters::register(Obs::noop());
        let (tx, rx) = channel();
        let last = std::thread::scope(|scope| {
            // `tx` moves in so that a failed assertion drops it and the
            // merger returns, as in the trickle test.
            let (ctx, rx, tx) = (&ctx, rx, tx);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, |_| {}));
            let mut epoch = 0;
            for update in interleaved_updates(ctx) {
                ctx.fold.update_sent();
                tx.send(Box::new(update)).expect("rx");
                let snap = ctx.seam.wait_past(epoch).expect("no shutdown");
                epoch = snap.epoch;
                assert!(render_status(&snap, &counters).contains(",\"s_samples\":"));
            }
            drop(tx);
            merger.join().expect("the merger returns");
            ctx.seam.current()
        });
        assert!(last.epoch >= 5, "{} publishes", last.epoch);
        let status = render_status(&last, &counters);
        assert!(status.contains(",\"s_samples\":63,"), "{status}");
        assert_eq!(finishes(), 0, "status finishes nothing");

        let renderers: [fn(&Snapshot) -> String; 5] = [
            |snap| render_results(snap).to_owned(),
            |snap| render_engines(snap).to_owned(),
            |snap| render_fingerprint(snap).to_owned(),
            |snap| render_recommend(snap).to_owned(),
            |snap| render_engine(snap, 0),
        ];
        let answers: Vec<String> = std::thread::scope(|scope| {
            let last = &last;
            let askers: Vec<_> = renderers
                .into_iter()
                .map(|render| scope.spawn(move || render(last)))
                .collect();
            askers
                .into_iter()
                .map(|asker| asker.join().expect("asker"))
                .collect()
        });
        assert_eq!(finishes(), 1, "one finish for every asker");
        // The documents of the burst-published epoch 1, after the epoch.
        let after_epoch = |doc: &str| doc.split_once(',').map(|(_, rest)| rest.to_owned());
        let expected: Vec<_> = include_str!("testdata/epoch1_documents.jsonl")
            .lines()
            .map(after_epoch)
            .collect();
        let served: Vec<_> = answers[..4].iter().map(|doc| after_epoch(doc)).collect();
        assert_eq!(served, expected);
        assert!(answers[4].contains("\"flip_ratio\""), "{}", answers[4]);
    }

    /// The first finish a reader has to do itself is the last: every
    /// later publish finishes before its swap, asked or not.
    #[test]
    fn once_a_reader_finishes_a_snapshot_every_publish_finishes_ahead() {
        let ctx = merger_ctx(ServeConfig::new(1_500, 0x51_07));
        let obs = &ctx.fold.ingest.obs;
        let finishes = || {
            obs.snapshot()
                .span("pipeline/finish")
                .map_or(0, |s| s.count)
        };
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            let (ctx, rx, tx) = (&ctx, rx, tx);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, |_| {}));
            let mut updates = interleaved_updates(ctx).into_iter();
            let mut publish = |epoch: u64| {
                let update = updates.next().expect("an update per publish");
                ctx.fold.update_sent();
                tx.send(Box::new(update)).expect("rx");
                ctx.seam.wait_past(epoch).expect("no shutdown")
            };
            let first = publish(0);
            let second = publish(first.epoch);
            assert_eq!((second.results.get().is_some(), finishes()), (false, 0));
            second.results();
            assert_eq!(finishes(), 1, "the reader finished it");
            let mut epoch = second.epoch;
            for n in 2..4 {
                let ahead = publish(epoch);
                assert!(ahead.results.get().is_some(), "finished at publish");
                assert!(ahead.study.is_none(), "no copy beside the results");
                assert_eq!(finishes(), n);
                epoch = ahead.epoch;
            }
            drop(tx);
            merger.join().expect("the merger returns");
        });
    }

    /// Every slot-order-preserving arrangement of `left[s]` picks of
    /// each slot `s`, appended to `out` after `prefix`.
    fn interleavings(left: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left.iter().all(|&n| n == 0) {
            out.push(prefix.clone());
        }
        for slot in 0..left.len() {
            if left[slot] > 0 {
                left[slot] -= 1;
                prefix.push(slot);
                interleavings(left, prefix, out);
                prefix.pop();
                left[slot] += 1;
            }
        }
    }

    /// The merger is a pure function of what reaches it: every
    /// interleaving of three slots' two updates each that keeps each
    /// slot's own order, sent as one burst, and every batching of one
    /// interleaving into consecutive publishes, end in the same study,
    /// slot indexes and alert log — each alert stamped with the epoch of
    /// the publish that carried its update — and every slot answers
    /// every hash as one index folded directly over its segments does.
    #[test]
    fn every_arrival_order_and_batching_publishes_the_same_study() {
        type Published = (
            (u64, u64),
            Vec<IndexChunks>,
            Vec<((u64, u32, u8, u32), String)>,
        );
        let ctx = merger_ctx(ServeConfig::new(1_500, 0x51_07));
        let slots = [1, 4, 6];
        let streams = slot_update_streams(&ctx, &slots, 2);
        assert!(streams.iter().all(|s| s.len() == 2), "two folds per slot");
        let direct = directly_folded_indexes(&ctx, &slots, 2);
        // Every fixture hash, and a miss, as the direct fold answers it.
        let answers = |snap: &Snapshot| -> Vec<String> {
            let miss = (slots[0], SampleHash::from_ordinal(u64::MAX));
            (slots.iter().zip(&direct))
                .flat_map(|(&slot, index)| index.iter().map(move |s| (slot, s.hash)))
                .chain(std::iter::once(miss))
                .map(|(slot, hash)| format!("{:?}", snap.slot_indexes[slot].get(hash)))
                .collect()
        };
        let want_answers: Vec<String> = (direct.iter())
            .flat_map(|index| index.iter().map(|s| format!("{:?}", Some(s))))
            .chain(std::iter::once("None".to_owned()))
            .collect();
        let arrival = |picks: &[usize]| -> Vec<SlotUpdate> {
            let mut next = [0; 3];
            picks
                .iter()
                .map(|&s| {
                    next[s] += 1;
                    streams[s][next[s] - 1].clone()
                })
                .collect()
        };
        // What a snapshot published, and apart from it each alert's stamp.
        let published = |snap: &Snapshot| {
            let alerts = &snap.alerts;
            let study: Published = (
                study_fingerprint(snap.results()),
                snap.slot_indexes.clone(),
                alerts.iter().map(|a| (a.key, a.rendered.clone())).collect(),
            );
            let stamps: Vec<_> = alerts.iter().map(|a| (a.key, a.published)).collect();
            (study, stamps)
        };
        // Each update's alert keys, stamped `epoch`, in key order.
        let stamped = |updates: &[SlotUpdate], epoch: u64| {
            let mut keys: Vec<_> = updates
                .iter()
                .flat_map(|u| u.alerts.iter().map(|a| (a.key(), epoch)))
                .collect();
            keys.sort_unstable();
            keys
        };

        let mut orders = Vec::new();
        interleavings(&mut [2, 2, 2], &mut Vec::new(), &mut orders);
        assert_eq!(orders.len(), 90, "6! / (2! 2! 2!)");
        let mut reference: Option<Published> = None;
        for picks in &orders {
            let updates = arrival(picks);
            let want = stamped(&updates, 1);
            let (tx, rx) = channel();
            for update in updates {
                ctx.fold.update_sent();
                tx.send(Box::new(update)).expect("rx");
            }
            drop(tx);
            merger_loop(&ctx, MergerState::new(&ctx.fold), &rx, |_| {});
            let snap = ctx.seam.current();
            assert_eq!(snap.epoch, 1, "one burst, one publish");
            let (study, stamps) = published(&snap);
            assert_eq!(stamps, want, "{picks:?}");
            assert!(answers(&snap) == want_answers, "arrival order {picks:?}");
            let reference = reference.get_or_insert_with(|| study.clone());
            assert!(*reference == study, "arrival order {picks:?}");
        }
        let reference = reference.expect("90 orders");
        assert!(!reference.2.is_empty(), "the fixture fires alerts");

        let round_robin = arrival(&[0, 1, 2, 0, 1, 2]);
        for cuts in 0u32..32 {
            // Bit `i` of `cuts` ends a publish after update `i`.
            let mut batches = vec![Vec::new()];
            for (i, update) in round_robin.iter().enumerate() {
                batches.last_mut().expect("open batch").push(update.clone());
                if cuts >> i & 1 == 1 {
                    batches.push(Vec::new());
                }
            }
            let mut state = MergerState::new(&ctx.fold);
            let mut want = Vec::new();
            for (epoch, batch) in (1..).zip(batches) {
                want.extend(stamped(&batch, epoch));
                let updates = batch.into_iter().map(Box::new);
                publish_merged(&ctx, &mut state, epoch, updates, false, &mut |_| {});
            }
            let snap = ctx.seam.current();
            assert_eq!(snap.epoch, u64::from(cuts.count_ones()) + 1);
            let (study, stamps) = published(&snap);
            want.sort_unstable();
            assert_eq!(stamps, want, "cuts {cuts:#07b}");
            assert!(answers(&snap) == want_answers, "cuts {cuts:#07b}");
            assert!(study == reference, "cuts {cuts:#07b}");
        }
    }

    /// The merger books its index at every publish, in the registry:
    /// `mem/index_bytes` is the heap the published chunks hold, and
    /// `serve/index_copied_samples` the samples compaction copied pushing
    /// every update's index — the slot lists a replay of those pushes
    /// builds.
    #[test]
    fn the_merger_books_the_index_it_publishes_and_the_samples_it_copied() {
        let ctx = merger_ctx(ServeConfig::new(1_500, 0x51_07));
        let mut replay = vec![IndexChunks::default(); INGEST_SLOTS];
        let copied: usize = (interleaved_updates(&ctx).into_iter())
            .map(|update| replay[update.slot].push(update.index))
            .sum();
        assert!(copied > 0, "the fixture compacts");
        let snap = published_in_one_burst(&ctx);
        assert_eq!(snap.slot_indexes, replay);
        let bytes: usize = (snap.slot_indexes.iter())
            .flat_map(IndexChunks::chunks)
            .map(|chunk| chunk.heap_bytes())
            .sum();
        let obs = &ctx.fold.ingest.obs;
        assert_eq!(obs.gauge("mem/index_bytes").value(), bytes as u64);
        assert_eq!(
            obs.counter("serve/index_copied_samples").value(),
            copied as u64
        );
    }

    /// An update that folded no sample: `count` alerts at `seq`.
    fn alerts_only(ctx: &PublishCtx, slot: usize, seq: u64, count: u32) -> Box<SlotUpdate> {
        let sim = &ctx.fold.ingest.sim;
        Box::new(SlotUpdate {
            slot,
            recovered: false,
            partials: StudyPartials::empty(sim.fleet(), sim.config().window_start()),
            partitions: Vec::new(),
            index: Arc::default(),
            alerts: (0..count)
                .map(|ordinal| Alert {
                    slot: slot as u32,
                    seq,
                    ordinal,
                    kind: AlertKind::RateCrossover {
                        overtaking: 0,
                        overtaken: 1,
                        overtaking_detections: 12 + u64::from(ordinal),
                        overtaking_scans: 100,
                        overtaken_detections: 11,
                        overtaken_scans: 100,
                    },
                })
                .collect(),
        })
    }

    /// A worker that returns or panics says so by dropping its sender:
    /// once every one of them is gone, the merger publishes its final
    /// snapshot, after the publish of the update it already had.
    #[test]
    fn a_fleet_that_died_without_a_word_still_ends_in_a_final_publish() {
        let mut config = ServeConfig::new(100, 7);
        config.shards = 2;
        let ctx = merger_ctx(config);
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            // The senders move in so that a failed assertion drops them
            // and the merger returns, as in the trickle test.
            let (ctx, rx, fleet) = (&ctx, rx, [tx.clone(), tx]);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, |_| {}));
            ctx.fold.update_sent();
            fleet[1].send(alerts_only(ctx, 3, 0, 1)).expect("rx");
            ctx.seam.wait_past(0).expect("no shutdown");
            // Both workers are gone, one without ever sending.
            drop(fleet);
            merger.join().expect("the merger returns");
        });
        let last = ctx.seam.current();
        assert_eq!(last.epoch, 2, "the update's publish, then the final one");
        assert!(!last.ingest_done);
        assert_eq!(last.alerts.len(), 1);
    }

    /// A fleet whose senders close in the same burst as its last updates:
    /// that burst gets no publish of its own — the final publish carries
    /// it — so one burst is one epoch, whatever `shards` says.
    #[test]
    fn a_fleet_that_hangs_up_in_its_last_burst_publishes_it_once_as_the_final_epoch() {
        let mut config = ServeConfig::new(1_500, 0x51_07);
        config.shards = 4;
        let ctx = merger_ctx(config);
        let updates = interleaved_updates(&ctx);
        let s_samples: u64 = updates.iter().map(|u| u.partials.s_samples()).sum();
        let alerts: usize = updates.iter().map(|u| u.alerts.len()).sum();
        assert!(alerts > 0, "the fixture fires alerts");
        let (tx, rx) = channel();
        let fleet = vec![tx; 4];
        for (n, update) in updates.into_iter().enumerate() {
            ctx.fold.update_sent();
            fleet[n % fleet.len()].send(Box::new(update)).expect("rx");
        }
        drop(fleet);
        merger_loop(&ctx, MergerState::new(&ctx.fold), &rx, |_| {});
        let last = ctx.seam.current();
        assert_eq!(last.epoch, 1, "the final publish, and no other");
        assert!(!last.ingest_done);
        assert_eq!(
            (last.s_samples(), last.alerts.len()),
            (s_samples, alerts),
            "every update of the closing burst"
        );
    }

    #[test]
    fn the_ring_is_the_tail_of_the_log_it_no_longer_keeps() {
        let ctx = merger_ctx(ServeConfig::new(100, 7));
        // Slot 1 runs ahead and slot 0 catches up, so late batches sort
        // *into* the retained tail and behind it, not only after it; the
        // empty batch publishes with nothing to add. Each count is in
        // thousands of alerts (x 1 024), so the log outgrows the ring.
        let batches = [
            (1, 0, 2),
            (1, 1, 3),
            (0, 0, 2),
            (1, 2, 1),
            (0, 1, 0),
            (0, 2, 3),
            (6, 0, 1),
            (0, 3, 2),
            (6, 3, 6),
        ];
        let (tx, rx) = channel();
        // The untruncated log the merger used to keep.
        let mut log: Vec<((u64, u32, u8, u32), u64)> = Vec::new();
        std::thread::scope(|scope| {
            // `tx` moves in so that a failed assertion drops it and the
            // merger returns, as in the trickle test.
            let (ctx, rx, tx) = (&ctx, rx, tx);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, |_| {}));
            for (n, (slot, seq, count)) in batches.into_iter().enumerate() {
                let epoch = n as u64 + 1;
                let update = alerts_only(ctx, slot, seq, count * 1_024);
                log.extend(update.alerts.iter().map(|a| (a.key(), epoch)));
                log.sort_unstable();
                ctx.fold.update_sent();
                tx.send(update).expect("rx");
                let snap = ctx.seam.wait_past(epoch - 1).expect("no shutdown");
                assert_eq!(snap.epoch, epoch);
                let tail = &log[log.len().saturating_sub(ALERTS_RING)..];
                let ring: Vec<_> = snap.alerts.iter().map(|a| (a.key, a.published)).collect();
                assert_eq!(ring, tail, "publish {epoch}");
                for since in 0..=epoch {
                    let served = snap.alerts.iter().filter(|a| a.published > since);
                    let wanted = tail.iter().filter(|(_, published)| *published > since);
                    assert!(
                        served.map(|a| a.key).eq(wanted.map(|(key, _)| *key)),
                        "publish {epoch}, since {since}"
                    );
                }
            }
            drop(tx);
            merger.join().expect("the merger returns");
        });
        assert!(
            log.len() > 4 * ALERTS_RING,
            "the log outgrew the ring several times over"
        );
    }

    /// The merger is the sinks' one producer: each update that fired
    /// hands the sink its rendered lines, once, before its publish is
    /// seen, in arrival order and flagged as the update was — the lines
    /// the ring cuts included.
    #[test]
    fn the_sink_gets_every_update_s_lines_once_in_arrival_order() {
        let ctx = merger_ctx(ServeConfig::new(100, 7));
        // Arrival order is not key order, and one update fires nothing;
        // each count is in thousands of alerts (x 1 024).
        let batches = [
            (1, 0, 2),
            (1, 1, 3),
            (0, 0, 2),
            (0, 1, 0),
            (6, 0, 1),
            (0, 2, 5),
        ];
        let (tx, rx) = channel();
        let (sink_tx, sink_rx) = channel::<SinkMsg>();
        let sink = move |msg| sink_tx.send(msg).expect("the receiver outlives the merger");
        let mut delivered = 0;
        std::thread::scope(|scope| {
            // `tx` moves in so that a failed assertion drops it and the
            // merger returns, as in the trickle test; `sink` so that the
            // sink hangs up when the merger does.
            let (ctx, rx, tx) = (&ctx, rx, tx);
            let merger =
                scope.spawn(move || merger_loop(ctx, MergerState::new(&ctx.fold), &rx, sink));
            for (n, (slot, seq, count)) in batches.into_iter().enumerate() {
                let mut update = alerts_only(ctx, slot, seq, count * 1_024);
                update.recovered = n % 2 == 1;
                let want = (update.alerts.iter())
                    .map(|alert| wire::render_alert(alert, &ctx.fold.roster))
                    .collect::<Vec<_>>();
                let recovered = update.recovered;
                ctx.fold.update_sent();
                tx.send(update).expect("rx");
                ctx.seam.wait_past(n as u64).expect("no shutdown");
                let got: Vec<_> = (sink_rx.try_iter())
                    .map(|m| (m.slot, m.lines, m.recovered))
                    .collect();
                if want.is_empty() {
                    assert!(got.is_empty(), "update {n} fired nothing: {got:?}");
                } else {
                    assert_eq!(got, [(slot, want.clone(), recovered)], "update {n}");
                }
                delivered += want.len();
            }
            drop(tx);
            merger.join().expect("the merger returns");
        });
        assert_eq!(
            sink_rx.try_iter().count(),
            0,
            "the final publish adds nothing"
        );
        let ring = ctx.seam.current().alerts.len();
        assert_eq!(
            (delivered, ring),
            (13 * 1_024, ALERTS_RING),
            "the ring cut 9 x 1 024 lines"
        );
    }
}
