//! Layer 1 — feed → sealed [`SegmentMsg`]s, handed to a callback.
//!
//! The feeder simulates the platform in 1 024-ordinal chunks, runs each
//! chunk's chaos feed through the fault-tolerant [`Collector`], groups
//! the reports it emits by sample ([`group_reports`] — the grouping a
//! store's bulk read is a caller of, so the order samples are pushed
//! in, and with it every sealed byte, is the one a per-chunk store
//! would give), routes every sample to its hash slot ([`slot_of`]) and
//! pushes it into that slot's [`SegmentWriter`]: a report is encoded
//! once on this path, there. Each segment a writer seals goes through
//! one step, [`seal`], to the `emit` callback [`run`] was given. The
//! feeder names no queue and no thread: the daemon's callback blocks on
//! a bounded shard queue when folds lag (backpressure — accepted samples
//! are never dropped), and a test's pushes into an unbounded one.
//!
//! ## The segment log is the WAL
//!
//! With a data dir, [`seal`] persists the segment through
//! [`crate::store::SegmentDir::persist`] — written, fsynced, renamed into
//! place, directory-fsynced — *before* it emits it, so nothing
//! downstream can fold or publish what a restart could not recover
//! (seal → fsync → publish, one call). Under `recover` the directory is
//! replayed first, as a stream: each segment of a slot's clean prefix is
//! emitted as a `recovered` message the moment the strict reader accepts
//! it whole, so the workers fold while the replay is still reading and
//! the feeder holds one segment, never the log. A file the strict reader
//! does not accept whole is quarantined (with everything behind it in
//! its slot) and counted as it moves. Live ingest then resumes from the
//! last whole-sample boundary — samples the replay found sealed are
//! skipped, everything else is re-ingested.
//!
//! Only the feed's end seals a segment that has not filled: a stop, a
//! gone consumer or a failed persist ends the feeder as SIGKILL does, so
//! every file a run writes is the never-stopped run's, byte for byte.
//!
//! Names nothing downstream of it: a stop predicate comes in, segments
//! go out through `emit` (and the `done` flag on [`IngestCtx`]), and a
//! fatal error is the return value.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use super::counters::ServeCounters;
use super::{ServeConfig, INGEST_SLOTS};
use crate::dynamics::Collector;
use crate::model::{SampleHash, ScanReport};
use crate::obs::Obs;
use crate::sim::fault::FaultyFeed;
use crate::sim::{SimConfig, VirusTotalSim};
use crate::store::{group_reports, Segment, SegmentDir, SegmentWriter, StoreObs};

/// Sample ordinals ingested per collector run (one `FaultyFeed` each);
/// several collector runs typically contribute to one sealed segment.
const INGEST_CHUNK_SAMPLES: u64 = 1_024;

/// The slot an accepted sample's whole trajectory is routed to. Purely
/// a function of the (well-mixed) hash, so every run at every shard
/// count routes identically.
pub(super) fn slot_of(hash: SampleHash) -> usize {
    (hash.0 % INGEST_SLOTS as u128) as usize
}

/// One sealed segment travelling from the feeder to a shard worker.
pub(super) struct SegmentMsg {
    pub(super) slot: usize,
    pub(super) segment: Segment,
    /// Replayed from the data dir rather than freshly sealed. Folded the
    /// same way either way; the flag travels on to the alert sinks.
    pub(super) recovered: bool,
}

/// The feeder's context — and, because every later layer's context
/// embeds the one before it, what all daemon threads share.
pub(super) struct IngestCtx {
    pub(super) config: ServeConfig,
    pub(super) sim: VirusTotalSim,
    /// The daemon's one registry; the connection handlers share this
    /// pointer to render `metrics` from it live.
    pub(super) obs: Arc<Obs>,
    /// The `store/*` handles of `obs`, resolved once: the slot writers'
    /// encode and every segment decode, replay's and fold's, record here.
    pub(super) store_obs: StoreObs,
    pub(super) counters: ServeCounters,
    /// Set once every sample has been sealed and emitted — never after a
    /// fatal error, a lost tail segment included; the merger stamps it
    /// into the final snapshot as `ingest_done`.
    done: AtomicBool,
}

impl IngestCtx {
    pub(super) fn new(config: ServeConfig) -> Self {
        let obs = Arc::new(Obs::new());
        Self {
            sim: VirusTotalSim::new(SimConfig::new(config.seed, config.samples)),
            config,
            counters: ServeCounters::register(&obs),
            store_obs: StoreObs::new(&obs),
            obs,
            done: AtomicBool::new(false),
        }
    }

    /// Was the whole feed sealed?
    pub(super) fn done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }
}

/// The one place a live segment leaves the feeder: persist it when there
/// is a data dir (write, fsync, rename, fsync the directory), and only
/// then emit it — seal → fsync → publish. Returns `false` when the
/// segment is not durable (and was not emitted) or `emit` refused it.
fn seal(
    segdir: Option<&SegmentDir>,
    slot: usize,
    segment: Segment,
    emit: &mut impl FnMut(SegmentMsg) -> bool,
) -> bool {
    if let Some(dir) = segdir {
        if let Err(e) = dir.persist(slot as u32, &segment) {
            eprintln!("vtld serve: segment persist failed, stopping ingest: {e}");
            return false;
        }
    }
    emit(SegmentMsg {
        slot,
        segment,
        recovered: false,
    })
}

/// The feeder: replay the data dir (under recovery), then simulate →
/// chaos feed → `collector` → hash-route → [`seal`] → `emit`, until the
/// feed is exhausted, `stop()` (daemon shutdown was requested) or a
/// fatal error. Only an exhausted feed seals and emits its in-progress
/// segments; a stop leaves them to `recover` to re-ingest. `emit`
/// returning `false` means its consumer is gone. Dropping `emit` on
/// return is what lets the daemon's workers drain their queues and exit.
///
/// Returns `false` when a fatal error ended the feed early (unreadable
/// data dir, failed persist, a consumer gone): the caller shuts the
/// daemon down.
pub(super) fn run(
    ctx: &IngestCtx,
    collector: &Collector,
    stop: impl Fn() -> bool,
    segdir: Option<SegmentDir>,
    mut emit: impl FnMut(SegmentMsg) -> bool,
) -> bool {
    let (config, sim) = (&ctx.config, &ctx.sim);
    let segdir = segdir.map(|dir| dir.with_obs(&ctx.store_obs));

    // ---- recovery replay --------------------------------------------
    // Streamed: each clean segment is emitted as the strict reader
    // accepts it, so folds run while later files are still read.
    let mut sealed_hashes: HashSet<SampleHash> = HashSet::new();
    let mut next_seq = [0u64; INGEST_SLOTS];
    if let (Some(dir), true) = (&segdir, config.recover) {
        let mut handed_over = true;
        let replayed = dir.replay_each(
            |slot, segment| {
                let slot = slot as usize;
                next_seq[slot] += 1;
                handed_over = emit(SegmentMsg {
                    slot,
                    segment,
                    recovered: true,
                });
                handed_over
            },
            || ctx.counters.quarantined_segments.incr(),
        );
        match replayed {
            Ok(hashes) if handed_over => sealed_hashes = hashes,
            Ok(_) => return false,
            Err(e) => {
                eprintln!("vtld serve: recovery replay failed: {e}");
                return false;
            }
        }
    }

    // ---- live ingest ------------------------------------------------
    let mut writers: Vec<SegmentWriter> = next_seq
        .iter()
        .map(|&seq| SegmentWriter::resuming(config.segment_reports, seq).with_obs(&ctx.store_obs))
        .collect();
    let mut healthy = true;
    let mut start = 0u64;
    'feed: while start < config.samples && !stop() {
        let end = (start + INGEST_CHUNK_SAMPLES).min(config.samples);
        // Resume fast-path: a chunk whose samples were all sealed before
        // the crash needs no re-simulation at all.
        if !sealed_hashes.is_empty()
            && (start..end).all(|o| sealed_hashes.contains(&sim.population().hash_of(o)))
        {
            start = end;
            continue;
        }
        let feed = FaultyFeed::from_sim(sim, start..end, config.plan);
        // Also bumps `collector/accepted` / `collector/quarantined`,
        // which `status` reports as `accepted` / `quarantined`.
        let mut accepted: Vec<ScanReport> = Vec::new();
        collector.run_into(feed, &ctx.obs, |batch| accepted.extend_from_slice(batch));
        for (hash, reports) in group_reports(accepted) {
            if sealed_hashes.contains(&hash) {
                continue;
            }
            let slot = slot_of(hash);
            if let Some(segment) = writers[slot].push_sample(&reports) {
                if !seal(segdir.as_ref(), slot, segment, &mut emit) {
                    healthy = false;
                    break 'feed;
                }
            }
        }
        start = end;
    }
    let completed = start >= config.samples;

    // ---- drain: the feed's end alone seals in-progress segments ----
    if completed && healthy {
        let mut tails = writers.into_iter().enumerate();
        healthy = tails.all(|(slot, writer)| match writer.finish() {
            Some(segment) => seal(segdir.as_ref(), slot, segment, &mut emit),
            None => true,
        });
        ctx.done.store(healthy, Ordering::SeqCst);
    }
    healthy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_segment_that_fails_to_persist_ends_ingest_unhealthy() {
        // Segments that never fill: every seal is the drain's.
        let mut config = ServeConfig::new(300, 0x7A11);
        config.segment_reports = u64::MAX;
        let ctx = IngestCtx::new(config);
        let root = std::env::temp_dir().join(format!("vtld-ingest-tail-{}", std::process::id()));
        let dir = SegmentDir::open(&root, INGEST_SLOTS as u32).expect("open data dir");
        std::fs::remove_dir_all(&root).expect("pull the directory out from under the seals");
        let mut emitted = 0;
        let emit = |_| {
            emitted += 1;
            true
        };
        let healthy = run(&ctx, &Collector::default(), || false, Some(dir), emit);
        assert!(
            !healthy,
            "a lost tail is as fatal as a lost segment mid-feed"
        );
        assert!(!ctx.done(), "and the feed was not fully sealed");
        assert_eq!(emitted, 0, "a segment that is not durable is never emitted");
    }
}
