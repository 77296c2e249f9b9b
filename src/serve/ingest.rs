//! Layer 1 — feed → sealed [`SegmentMsg`]s.
//!
//! The feeder thread simulates the platform in 1 024-ordinal chunks,
//! runs each chunk's chaos feed through the fault-tolerant
//! [`Collector`], groups the reports it emits by sample
//! ([`group_reports`] — the grouping a store's bulk read is a caller
//! of, so the order samples are pushed in, and with it every sealed
//! byte, is the one a per-chunk store would give), routes every sample
//! to its hash slot ([`slot_of`]) and pushes it into that slot's segment
//! writer: a report is encoded once on this path, there. A writer
//! that seals hands the segment to the slot's shard worker over a
//! bounded queue: when folds lag the feeder *blocks* (backpressure —
//! accepted samples are never dropped), with the high-water depth on the
//! `serve/queue_depth` gauge.
//!
//! ## The segment log is the WAL
//!
//! With a data dir, a segment is sealed through
//! [`crate::store::SegmentDir`] — written, fsynced, renamed into place,
//! directory-fsynced — *before* it leaves this layer, so nothing
//! downstream can fold or publish what a restart could not recover
//! (seal → fsync → publish). Under `recover` the directory is replayed
//! first, as a stream: each segment of a slot's clean prefix is sent as
//! a `recovered` message the moment the strict reader accepts it whole,
//! so the workers fold while the replay is still reading and the feeder
//! holds one segment beyond the bounded queues, never the log. A file
//! the strict reader does not accept whole is quarantined (with
//! everything behind it in its slot) and counted as it moves. Live
//! ingest then resumes from the last whole-sample boundary — samples the
//! replay found sealed are skipped, everything else is re-ingested.
//!
//! Names nothing downstream of it: a stop predicate comes in, segments (and
//! the queue depth and `done` flag on [`IngestCtx`]) go out, and a fatal
//! error is the return value.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use super::counters::ServeCounters;
use super::{ServeConfig, INGEST_SLOTS};
use crate::dynamics::Collector;
use crate::model::{SampleHash, ScanReport};
use crate::obs::Obs;
use crate::sim::fault::FaultyFeed;
use crate::sim::{SimConfig, VirusTotalSim};
use crate::store::{group_reports, DurableWriter, Segment, SegmentDir, SegmentWriter, StoreObs};

/// Sample ordinals ingested per collector run (one `FaultyFeed` each);
/// several collector runs typically contribute to one sealed segment.
const INGEST_CHUNK_SAMPLES: u64 = 1_024;

/// Sealed segments allowed in flight per shard worker before the feeder
/// blocks (the backpressure bound).
pub(super) const SHARD_QUEUE_SEGMENTS: usize = 4;

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
    /// Sealed segments sent and not yet taken off a shard queue.
    queued: AtomicU64,
    /// Set once every sample has been sealed and handed to a worker —
    /// never after a fatal error, a lost tail segment included; the
    /// merger stamps it into the final snapshot as `ingest_done`.
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
            queued: AtomicU64::new(0),
            done: AtomicBool::new(false),
        }
    }

    /// A shard worker took one segment off its queue.
    pub(super) fn dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
    }

    /// Was the whole feed sealed?
    pub(super) fn done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }
}

/// A slot's segment writer: durable (fsync-before-sealed through the
/// data dir) or in-memory.
enum SlotWriter {
    Durable(DurableWriter),
    Memory(SegmentWriter),
}

impl SlotWriter {
    fn push_sample(&mut self, reports: &[ScanReport]) -> std::io::Result<Option<Segment>> {
        match self {
            SlotWriter::Durable(w) => w.push_sample(reports),
            SlotWriter::Memory(w) => Ok(w.push_sample(reports)),
        }
    }

    fn finish(self) -> std::io::Result<Option<Segment>> {
        match self {
            SlotWriter::Durable(w) => w.finish(),
            SlotWriter::Memory(w) => Ok(w.finish()),
        }
    }
}

/// Hands one sealed segment to its slot's shard worker, blocking when
/// the bounded queue is full. Returns `false` if the worker is gone (it
/// panicked); the feeder then stops.
fn send_segment(ctx: &IngestCtx, senders: &[SyncSender<SegmentMsg>], msg: SegmentMsg) -> bool {
    let depth = ctx.queued.fetch_add(1, Ordering::SeqCst) + 1;
    ctx.counters.queue_depth.set_max(depth);
    if senders[msg.slot % senders.len()].send(msg).is_err() {
        ctx.dequeued();
        return false;
    }
    true
}

/// The feeder thread: replay the data dir (under recovery), then
/// simulate → chaos feed → `collector` → hash-route → seal durably →
/// hand to the shard fleet, until the feed is exhausted or `stop()`
/// (daemon shutdown was requested) — at which point it drains (seals
/// and ships in-progress segments). Dropping `senders` on return
/// is what lets the workers drain their queues and exit.
///
/// Returns `false` when a fatal error ended the feed early (unreadable
/// data dir, failed persist, dead worker): the caller shuts the daemon
/// down.
pub(super) fn run(
    ctx: &IngestCtx,
    collector: &Collector,
    stop: impl Fn() -> bool,
    senders: Vec<SyncSender<SegmentMsg>>,
    segdir: Option<SegmentDir>,
) -> bool {
    let (config, sim) = (&ctx.config, &ctx.sim);
    let segdir = segdir.map(|dir| dir.with_obs(&ctx.store_obs));
    let msg = |slot, segment, recovered| SegmentMsg {
        slot,
        segment,
        recovered,
    };

    // ---- recovery replay --------------------------------------------
    // Streamed: each clean segment goes to its worker as the strict
    // reader accepts it, so folds run while later files are still read.
    let mut sealed_hashes: HashSet<SampleHash> = HashSet::new();
    let mut next_seq = [0u64; INGEST_SLOTS];
    if let (Some(dir), true) = (&segdir, config.recover) {
        let mut handed_over = true;
        let replayed = dir.replay_each(
            |slot, segment| {
                let slot = slot as usize;
                next_seq[slot] += 1;
                handed_over = send_segment(ctx, &senders, msg(slot, segment, true));
                handed_over
            },
            || ctx.counters.quarantined_segments.incr(),
        );
        match replayed {
            Ok(replay) if handed_over => sealed_hashes = replay.sealed_hashes,
            Ok(_) => return false,
            Err(e) => {
                eprintln!("vtld serve: recovery replay failed: {e}");
                return false;
            }
        }
    }

    // ---- live ingest ------------------------------------------------
    let mut writers: Vec<SlotWriter> = (0..INGEST_SLOTS)
        .map(|slot| match &segdir {
            Some(dir) => SlotWriter::Durable(DurableWriter::new(
                dir.clone(),
                slot as u32,
                config.segment_reports,
                next_seq[slot],
            )),
            None => SlotWriter::Memory(
                SegmentWriter::resuming(config.segment_reports, next_seq[slot])
                    .with_obs(&ctx.store_obs),
            ),
        })
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
            match writers[slot].push_sample(&reports) {
                Ok(Some(segment)) => {
                    if !send_segment(ctx, &senders, msg(slot, segment, false)) {
                        healthy = false;
                        break 'feed;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("vtld serve: segment persist failed, stopping ingest: {e}");
                    healthy = false;
                    break 'feed;
                }
            }
        }
        start = end;
    }
    let completed = start >= config.samples;

    // ---- drain: seal in-progress segments, even on shutdown ---------
    for (slot, writer) in writers.into_iter().enumerate() {
        match writer.finish() {
            Ok(Some(segment)) => healthy &= send_segment(ctx, &senders, msg(slot, segment, false)),
            Ok(None) => {}
            Err(e) => {
                eprintln!("vtld serve: tail segment persist failed: {e}");
                healthy = false;
            }
        }
    }
    if completed && healthy {
        ctx.done.store(true, Ordering::SeqCst);
    }
    healthy
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn a_tail_segment_that_fails_to_persist_ends_ingest_unhealthy() {
        // Segments that never fill: every persist is the drain's.
        let mut config = ServeConfig::new(300, 0x7A11);
        config.segment_reports = u64::MAX;
        let ctx = IngestCtx::new(config);
        let root = std::env::temp_dir().join(format!("vtld-ingest-tail-{}", std::process::id()));
        let dir = SegmentDir::open(&root, INGEST_SLOTS as u32).expect("open data dir");
        std::fs::remove_dir_all(&root).expect("pull the directory out from under the writers");
        // Nothing can be sealed, so nothing is sent and the queue's
        // receiver only has to exist.
        let (tx, _rx) = sync_channel(SHARD_QUEUE_SEGMENTS);
        let healthy = run(&ctx, &Collector::default(), || false, vec![tx], Some(dir));
        assert!(
            !healthy,
            "a lost tail is as fatal as a lost segment mid-feed"
        );
        assert!(!ctx.done(), "and the feed was not fully sealed");
    }
}
