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
//! its slot) and counted as it moves. Live ingest then resumes past one
//! [`watermark`] per slot, from the earliest watermark's chunk: the
//! resume state is [`INGEST_SLOTS`] values, whatever the log's length.
//!
//! Only the feed's end seals a segment that has not filled: a stop, a
//! gone consumer or a failed persist ends the feeder as SIGKILL does, so
//! every file a run writes is the never-stopped run's, byte for byte.
//!
//! Names nothing downstream of it: a stop predicate comes in, segments
//! go out through `emit` (and the `done` flag on [`IngestCtx`]), and a
//! fatal error is the return value.

use std::io;
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

/// How far a replayed segment of `slot` takes the slot's sealed prefix:
/// the largest `(chunk, hash)` among its `samples`. A slot's push order
/// is chunk order, then [`group_reports`]' ascending hash, and what it
/// sealed is a prefix of that order: a sample is sealed iff it is at or
/// below its slot's watermark. A sample that is not this feed's
/// ([`ordinal_of`](crate::sim::PopulationGen::ordinal_of)) or `slot`'s
/// has no place in that order: an error.
fn watermark(
    sim: &VirusTotalSim,
    slot: usize,
    samples: &[SampleHash],
) -> io::Result<Option<(u64, SampleHash)>> {
    let mut last = None;
    for &hash in samples {
        let Some(ordinal) = (sim.population().ordinal_of(hash)).filter(|_| slot_of(hash) == slot)
        else {
            let msg = format!("slot {slot} holds sample {hash}, which is not this feed's");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        };
        last = last.max(Some((ordinal / INGEST_CHUNK_SAMPLES, hash)));
    }
    Ok(last)
}

/// The one place a live segment leaves the feeder: persist it when there
/// is a data dir (write, fsync, rename, fsync the directory), and only
/// then emit it — seal → fsync → publish. Fails when the segment is not
/// durable (and was not emitted) or `emit` refused it.
fn seal(
    segdir: Option<&SegmentDir>,
    slot: usize,
    segment: Segment,
    emit: &mut impl FnMut(SegmentMsg) -> bool,
) -> io::Result<()> {
    if let Some(dir) = segdir {
        (dir.persist(slot as u32, &segment))
            .map_err(|e| io::Error::new(e.kind(), format!("segment persist failed: {e}")))?;
    }
    let msg = SegmentMsg {
        slot,
        segment,
        recovered: false,
    };
    if emit(msg) {
        Ok(())
    } else {
        Err(consumer_gone())
    }
}

/// The error of an `emit` that refused a segment: its shard worker is
/// gone (it panicked).
fn consumer_gone() -> io::Error {
    io::Error::other("a shard worker stopped taking segments")
}

/// The feeder: replay the data dir (under recovery), then simulate →
/// chaos feed → [`Collector`] → hash-route → [`seal`] → `emit`, until the
/// feed is exhausted, `stop()` (daemon shutdown was requested) or a
/// fatal error. Only an exhausted feed seals and emits its in-progress
/// segments; a stop leaves them to `recover` to re-ingest. `emit`
/// returning `false` means its consumer is gone. Dropping `emit` on
/// return is what lets the daemon's workers drain their queues and exit.
///
/// Fails when a fatal error ended the feed early (unreadable data dir,
/// a segment of another feed, failed persist, a consumer gone): the
/// caller shuts the daemon down.
pub(super) fn run(
    ctx: &IngestCtx,
    stop: impl Fn() -> bool,
    segdir: Option<SegmentDir>,
    mut emit: impl FnMut(SegmentMsg) -> bool,
) -> io::Result<()> {
    let (config, sim) = (&ctx.config, &ctx.sim);
    let segdir = segdir.map(|dir| dir.with_obs(&ctx.store_obs));

    // ---- recovery replay --------------------------------------------
    // Streamed: each clean segment is emitted as the strict reader
    // accepts it, so folds run while later files are still read.
    let (mut watermarks, mut sealed) = ([None; INGEST_SLOTS], 0);
    let mut next_seq = [0u64; INGEST_SLOTS];
    if let (Some(dir), true) = (&segdir, config.recover) {
        let (mut placed, mut handed_over) = (Ok(()), true);
        let replayed = dir.replay_each(
            |slot, segment, samples| {
                let slot = slot as usize;
                placed = watermark(sim, slot, samples)
                    .map(|w| watermarks[slot] = watermarks[slot].max(w));
                if placed.is_err() {
                    return false;
                }
                sealed += samples.len() as u64;
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
        (replayed.and(placed))
            .map_err(|e| io::Error::new(e.kind(), format!("recovery replay failed: {e}")))?;
        if !handed_over {
            return Err(consumer_gone());
        }
    }

    // ---- live ingest ------------------------------------------------
    let mut writers: Vec<SegmentWriter> = next_seq
        .iter()
        .map(|&seq| SegmentWriter::resuming(config.segment_reports, seq).with_obs(&ctx.store_obs))
        .collect();
    // Every sample below the earliest watermark's chunk is sealed (`None`,
    // a slot that sealed nothing, is the earliest); a log that holds
    // every sample needs none of the feed.
    let earliest = watermarks.into_iter().min().flatten();
    let mut start = earliest.map_or(0, |(chunk, _)| chunk * INGEST_CHUNK_SAMPLES);
    if sealed == config.samples {
        start = config.samples;
    }
    while start < config.samples && !stop() {
        let end = (start + INGEST_CHUNK_SAMPLES).min(config.samples);
        let chunk = start / INGEST_CHUNK_SAMPLES;
        let feed = FaultyFeed::from_sim(sim, start..end, config.plan);
        // Also bumps `collector/accepted` / `collector/quarantined`,
        // which `status` reports as `accepted` / `quarantined`.
        let mut accepted: Vec<ScanReport> = Vec::new();
        Collector::default().run_into(feed, &ctx.obs, |batch| accepted.extend_from_slice(batch));
        for (hash, reports) in group_reports(accepted) {
            let slot = slot_of(hash);
            if Some((chunk, hash)) <= watermarks[slot] {
                continue;
            }
            if let Some(segment) = writers[slot].push_sample(&reports) {
                seal(segdir.as_ref(), slot, segment, &mut emit)?;
            }
        }
        start = end;
    }

    // ---- drain: the feed's end alone seals in-progress segments ----
    if start >= config.samples {
        for (slot, writer) in writers.into_iter().enumerate() {
            if let Some(segment) = writer.finish() {
                seal(segdir.as_ref(), slot, segment, &mut emit)?;
            }
        }
        ctx.done.store(true, Ordering::SeqCst);
    }
    Ok(())
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
        let fed = run(&ctx, || false, Some(dir), emit);
        let err = fed.expect_err("a lost tail is as fatal as a lost segment mid-feed");
        assert!(
            err.to_string().starts_with("segment persist failed: "),
            "{err}"
        );
        assert!(!ctx.done(), "and the feed was not fully sealed");
        assert_eq!(emitted, 0, "a segment that is not durable is never emitted");
    }

    /// A segment's watermark is its last sample in the slot's push
    /// order — chunk first, then hash — and a sample no watermark can
    /// place (another feed's, or one of this feed's in another slot) is a
    /// typed error naming it.
    #[test]
    fn a_watermark_orders_by_chunk_then_hash_and_places_only_its_slots_samples() {
        let ours = VirusTotalSim::new(SimConfig::new(7, 3_000));
        let hash_of = |o| ours.population().hash_of(o);
        let (early, slot) = (hash_of(5), slot_of(hash_of(5)));
        let later = (INGEST_CHUNK_SAMPLES..3_000)
            .find(|&o| slot_of(hash_of(o)) == slot && hash_of(o) < early)
            .expect("a later sample of the slot, with a smaller hash");
        let last = (later / INGEST_CHUNK_SAMPLES, hash_of(later));
        let placed = watermark(&ours, slot, &[hash_of(later), early]);
        assert_eq!(placed.expect("this feed's samples"), Some(last));
        assert_eq!(watermark(&ours, slot, &[]).expect("no samples"), None);

        let theirs = VirusTotalSim::new(SimConfig::new(8, 3_000))
            .population()
            .hash_of(5);
        for (slot, hash) in [
            (slot_of(theirs), theirs),
            ((slot + 1) % INGEST_SLOTS, early),
        ] {
            let err = watermark(&ours, slot, &[hash]).expect_err("unplaceable");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains(&format!("sample {hash}")), "{msg}");
        }
    }

    /// A segment another feed sealed, sitting among this feed's own in a
    /// data dir, ends the recovery with a typed error where the replay
    /// meets it: it is neither emitted nor quarantined, nothing after it
    /// is emitted, and live ingest never starts.
    #[test]
    fn a_segment_of_another_feed_ends_recovery_unhealthy() {
        let root = std::env::temp_dir().join(format!("vtld-ingest-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let sealed_by = |seed: u64, dir: &std::path::Path| {
            let mut config = ServeConfig::new(600, seed);
            config.segment_reports = 30;
            let segdir = SegmentDir::open(dir, INGEST_SLOTS as u32).expect("open data dir");
            let ctx = IngestCtx::new(config.clone());
            run(&ctx, || false, Some(segdir), |_| true).expect("sealed");
            config
        };
        let (ours, theirs) = (root.join("ours"), root.join("theirs"));
        let mut config = sealed_by(7, &ours);
        sealed_by(8, &theirs);
        let foreign = "seg-003-0000000001.vtseg";
        std::fs::copy(theirs.join(foreign), ours.join(foreign)).expect("a foreign seal");

        config.recover = true;
        let ctx = IngestCtx::new(config);
        let segdir = SegmentDir::open(&ours, INGEST_SLOTS as u32).expect("open data dir");
        let mut emitted = Vec::new();
        let emit = |msg: SegmentMsg| {
            emitted.push((msg.slot, msg.segment.seq(), msg.recovered));
            true
        };
        let fed = run(&ctx, || false, Some(segdir), emit);
        let err = fed.expect_err("an unplaceable sample is fatal");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .starts_with("recovery replay failed: slot 3 holds sample "),
            "{err}"
        );
        assert!(!ctx.done());
        assert_eq!(
            emitted.last(),
            Some(&(3, 0, true)),
            "the replay ends at the foreign seal"
        );
        assert!(
            emitted.iter().all(|&(_, _, recovered)| recovered),
            "nothing live is emitted"
        );
        assert_eq!(ctx.counters.accepted.value(), 0, "no chunk is simulated");
        assert_eq!(ctx.counters.quarantined_segments.value(), 0);
        assert!(
            ours.join(foreign).is_file(),
            "the foreign seal stays where it was"
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
