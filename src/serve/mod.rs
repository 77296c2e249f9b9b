//! `vtld serve` — the long-running label-dynamics daemon, hardened.
//!
//! The batch CLI answers one question and exits; `serve` keeps the
//! whole measurement *live*, and survives what a long-running service
//! meets in practice: crashes, slow or hostile clients, and overload.
//! Three robustness layers sit on top of the PR 5 incremental engine:
//!
//! ## Crash recovery (the segment log is the WAL)
//!
//! With `--data-dir`, every sealed segment is persisted through
//! [`vt_store::SegmentDir`] — written, fsynced, renamed into place,
//! directory-fsynced — *before* it is folded or published
//! (seal → fsync → publish). On restart with `recover`, the directory
//! is scanned with the salvage reader: each slot's clean segment prefix
//! replays into the study, segments salvage cannot fully recover (and
//! everything orphaned behind them) move to `quarantine/`, and live
//! ingest resumes from the last whole-sample boundary — samples already
//! sealed are skipped, everything else (including quarantined samples)
//! is re-ingested. Because every stage's Partial algebra satisfies
//! `merge(fold(x), fold(y)) == fold(x ++ y)` bit-identically, a daemon
//! killed mid-ingest and recovered converges to a snapshot
//! bit-identical to the never-killed run's (`tests/serve_chaos.rs`).
//!
//! ## Sharded ingest fleet
//!
//! Accepted samples are partitioned by hash into [`INGEST_SLOTS`] fixed
//! slots; each slot is an independent segment stream folded by one of
//! `shards` worker threads into slot-local
//! [`crate::dynamics::StudyPartials`]. A merger thread reassembles the
//! global study through a [`SlotMergeTree`] — a fixed-shape binary
//! merge tree over the slots whose cached internal nodes make each
//! publish O(changed-slot): a fold that touched one slot re-merges only
//! that leaf's log₂([`INGEST_SLOTS`]) path to the root, and the other
//! slots' partials are not even cloned. The tree's in-order leaf walk
//! is the canonical concatenation `slot 0 ++ slot 1 ++ …`, so the root
//! equals the flat slot-order merge bit for bit, and every published
//! bit is identical at shards 1, 2 and 4. The merger then finishes the
//! cached root and publishes the epoch-swapped `Arc<Snapshot>`.
//!
//! ## Admission control and graceful degradation
//!
//! The accept path is capped: beyond `max_clients` concurrent
//! connections, new clients get a typed `overloaded` response and are
//! closed (`serve/rejected`). Every accepted connection carries read and
//! write deadlines and a request-line length limit; slow or hostile
//! clients are evicted with a typed response (`serve/evicted`), never
//! serviced forever. The ingest queues between feeder and shard workers
//! are bounded: when folds lag, the feeder *blocks* (backpressure —
//! accepted samples are never dropped), with the high-water depth on the
//! `serve/queue_depth` gauge. Shutdown drains: the feeder seals and
//! persists in-progress segments, workers fold what is queued, and the
//! merger publishes a final snapshot before the daemon exits.
//!
//! ## Snapshot semantics
//!
//! Published state lives behind `RwLock<Arc<Snapshot>>`; handlers clone
//! the `Arc` and answer from that pinned snapshot. Epochs start at 0
//! (the empty study) and increase by at least 1 per publish; the final
//! publish (after every sealed segment has been folded and merged)
//! reports `ingest_done` when the feed was fully consumed. Any client's
//! observed epoch sequence is monotone.
//!
//! ## Per-hash queries (the sample index)
//!
//! Each shard worker folds a [`crate::dynamics::SampleIndex`] alongside
//! its slot's `StudyPartials`; the published `Arc<Snapshot>` carries
//! one index `Arc` **per slot** (a publish replaces only the dirty
//! slots' pointers — slot indexes are never merged), and per-hash
//! verbs route straight to `slot_of(hash)`'s index — so a per-hash
//! answer is always rendered from exactly the data its epoch's
//! aggregates summarize. Unlike the pre-rendered aggregate responses
//! (`results`, `engines`, `metrics`, `fingerprint`), per-hash
//! responses are rendered lazily per request behind a bounded LRU cache
//! keyed by the canonical request; entries are stamped with the epoch
//! their *slot* last changed at, so an epoch swap invalidates only the
//! answers whose slot actually republished — a hot sample in an
//! untouched slot stays cached across swaps (its epoch member is
//! spliced to the live epoch at serve time), and a cached answer can
//! never leak stale data across a swap.
//!
//! ## Drift alerting (streaming detectors over the segment folds)
//!
//! When alerting is on (the default), every shard worker's
//! [`IncrementalStudy`] carries a slot-local
//! [`crate::dynamics::AlertEngine`]: four streaming detectors (engine
//! model-update bursts, detection-rate crossovers, stabilization-time
//! regressions, per-sample [`crate::dynamics::SampleMonitor`] events)
//! observing each sealed segment's delta as it folds. Alerts are keyed
//! `(slot, seq, detector, ordinal)` — a pure function of the WAL, so
//! the stream is bit-identical at any shard × worker count and across
//! crash-recovery replay. The merger pulls each dirty slot's new alerts
//! at publish (tracked by a per-slot high-water key), stamps them with
//! the publish epoch, and ships a key-sorted, capped ring on every
//! `Arc<Snapshot>`; clients pull with `{"cmd":"alerts","since":E}` or
//! switch the connection to push mode with `{"cmd":"subscribe"}`.
//! Workers also hand fresh batches straight to the connector sinks
//! ([`sink`]): a JSONL file (`--alerts-out`, exactly-once across
//! recovery via content dedup) and a webhook-shaped TCP endpoint
//! (`--alerts-tcp`, at-most-once with retry/backoff). The
//! `{"cmd":"recommend"}` verb caps it with a Maat-style online
//! recommendation — the Fig. 9 AV-Rank threshold and engine subset that
//! would have labeled the stream most accurately, from the §6
//! stabilization masks already in the slot indexes.
//!
//! ## Wire protocol
//!
//! One JSON object per line, both directions, parsed into the typed
//! [`wire::Request`] enum (see [`wire`] — every legacy error string is
//! preserved byte for byte). Requests:
//! `{"cmd":"status"}`, `{"cmd":"results"}`, `{"cmd":"engines"}`,
//! `{"cmd":"metrics"}`, `{"cmd":"fingerprint"}`, `{"cmd":"shutdown"}`,
//! the per-hash verbs `{"cmd":"sample","hash":H}`,
//! `{"cmd":"stabilized","hash":H,"threshold":T}`,
//! `{"cmd":"engine","name":N}` and `{"cmd":"flip_leaders","k":K}`,
//! plus the alerting verbs `{"cmd":"alerts","since":E}`,
//! `{"cmd":"subscribe"}` and `{"cmd":"recommend"}`.
//! Every response carries the snapshot's `"epoch"`; malformed input gets
//! an `"error"` member, overload gets `"overloaded":true`, eviction gets
//! `"evicted":true`, and responses rendered after a slot lock was
//! poisoned carry `"degraded":true`. See `DESIGN.md` §§11–12 and §15
//! for the full schema.

mod sink;
mod wire;

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::dynamics::flips::FlipAnalysis;
use crate::dynamics::stabilization::FIG9_THRESHOLDS;
use crate::dynamics::{
    par, Alert, AlertConfig, Collector, DecodeArena, IncrementalStudy, SampleIndex, SlotMergeTree,
    StudyPartials, StudyResults,
};
use crate::engines::EngineFleet;
use crate::model::{EngineId, SampleHash};
use crate::obs::json::write_json_string;
use crate::obs::{Counter, Gauge, Obs};
use crate::sim::fault::{FaultPlan, FaultyFeed};
use crate::sim::{SimConfig, VirusTotalSim};
use crate::store::{
    read_segment, write_segment, DurableWriter, PartitionStats, Segment, SegmentDir, SegmentWriter,
};

/// Fixed number of hash-partition slots accepted samples are routed
/// through. Slots — not shard workers — are the unit the merger
/// reassembles in order, so the published study is bit-identical at any
/// shard count; `shards` only decides how many threads fold the slot
/// streams. Fixed so a data dir written at one shard count recovers
/// correctly at another.
pub const INGEST_SLOTS: usize = 8;

/// Sample ordinals ingested per collector run (one `FaultyFeed` each);
/// several collector runs typically contribute to one sealed segment.
const INGEST_CHUNK_SAMPLES: u64 = 1_024;

/// Sealed segments allowed in flight per shard worker before the feeder
/// blocks (the backpressure bound).
const SHARD_QUEUE_SEGMENTS: usize = 4;

/// Everything `vtld serve` needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Samples the simulated feed delivers before ingestion completes.
    pub samples: u64,
    /// Platform seed (fleet seed derived as in [`SimConfig::new`]).
    pub seed: u64,
    /// Reports per sealed segment (the incremental fold granularity),
    /// per slot stream.
    pub segment_reports: u64,
    /// Worker threads inside each per-segment fold.
    pub workers: usize,
    /// Shard worker threads folding the slot streams (clamped to
    /// `1..=`[`INGEST_SLOTS`]).
    pub shards: usize,
    /// Bind address, e.g. `127.0.0.1:7311` (port 0 picks one).
    pub addr: String,
    /// Fault injection applied to the feed (the daemon ingests through
    /// the same collector the chaos tests exercise).
    pub plan: FaultPlan,
    /// Segment write-ahead-log directory. `None` runs in-memory (no
    /// durability, no recovery).
    pub data_dir: Option<PathBuf>,
    /// Replay the data dir's sealed segments on startup and resume
    /// ingest past them. Requires `data_dir`. Without it, a data dir
    /// that already holds segments refuses to start (instead of
    /// silently interleaving two runs' streams).
    pub recover: bool,
    /// Concurrent connections admitted before new clients are shed with
    /// a typed `overloaded` response.
    pub max_clients: usize,
    /// Per-connection read deadline: a client that sends nothing for
    /// this long is evicted (typed response, connection closed).
    pub read_timeout: Duration,
    /// Per-connection write deadline: a client that will not drain its
    /// responses is evicted.
    pub write_timeout: Duration,
    /// Maximum request line length in bytes; longer lines evict.
    pub max_line_bytes: usize,
    /// Hot-sample response cache capacity (entries). Per-hash responses
    /// are rendered lazily and kept behind a bounded LRU invalidated on
    /// epoch swap; `0` disables caching.
    pub cache_samples: usize,
    /// Run the streaming drift detectors alongside every slot fold
    /// (the `alerts`/`subscribe`/`recommend` verbs answer either way;
    /// with detectors off the alert stream is empty).
    pub alerts: bool,
    /// Detector tuning shared by every slot (each worker stamps its own
    /// slot id into its copy).
    pub alert_config: AlertConfig,
    /// Alerts retained on the published snapshot (largest
    /// `(seq, slot, detector, ordinal)` keys win — a memory bound, not
    /// a correctness bound; sinks see every alert regardless).
    pub alerts_ring: usize,
    /// JSONL alert sink: every fired alert appended as one JSON line,
    /// exactly-once across crash recovery.
    pub alerts_out: Option<PathBuf>,
    /// Webhook-shaped TCP alert sink (`host:port`), at-most-once with
    /// retry/backoff.
    pub alerts_tcp: Option<String>,
}

impl ServeConfig {
    /// A config with the daemon defaults: ephemeral localhost port,
    /// 20k-report segments, one shard, default fold workers, 256-client
    /// cap, 10s deadlines, 64 KiB request lines, a 1 024-entry
    /// hot-sample cache, in-memory (no data dir), and a lightly chaotic
    /// feed (1% duplicates, 5% reordering within the collector's
    /// horizon).
    pub fn new(samples: u64, seed: u64) -> Self {
        Self {
            samples,
            seed,
            segment_reports: 20_000,
            workers: par::default_workers(),
            shards: 1,
            addr: "127.0.0.1:0".to_string(),
            plan: FaultPlan::clean(seed)
                .with_duplicates(0.01)
                .with_reordering(0.05, 30),
            data_dir: None,
            recover: false,
            max_clients: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            cache_samples: 1_024,
            alerts: true,
            alert_config: AlertConfig::default(),
            alerts_ring: 4_096,
            alerts_out: None,
            alerts_tcp: None,
        }
    }

    /// Clamps the tunables into their valid ranges.
    fn normalized(mut self) -> Self {
        self.segment_reports = self.segment_reports.max(1);
        self.workers = self.workers.max(1);
        self.shards = self.shards.clamp(1, INGEST_SLOTS);
        self.max_clients = self.max_clients.max(1);
        self.max_line_bytes = self.max_line_bytes.max(64);
        self.alerts_ring = self.alerts_ring.max(1);
        self
    }
}

/// One epoch-consistent view of the study: the aggregate responses
/// pre-rendered at publish time (request handling is allocation-only;
/// `status` alone is rendered per request, from the live registry),
/// plus everything the lazily rendered per-hash verbs answer from — the
/// sample index, the flip matrix and the engine roster — pinned to the
/// same epoch, so a handler that cloned the `Arc` can never mix stages
/// of the study.
#[derive(Debug)]
struct Snapshot {
    epoch: u64,
    /// The `status` members that must agree with this epoch's study —
    /// everything else in `status` is read live off the registry (see
    /// [`render_status`]).
    s_samples: u64,
    indexed: usize,
    ingest_done: bool,
    shards: usize,
    results: String,
    engines: String,
    metrics: String,
    fingerprint: String,
    /// Hash → trajectory summary, one index per ingest slot — the same
    /// folds this epoch's aggregates summarize. Publishing a new epoch
    /// replaces only the dirty slots' `Arc`s; per-hash verbs route by
    /// [`slot_of`] and never pay a cross-slot merge.
    slot_indexes: Vec<Arc<SampleIndex>>,
    /// Epoch at which each slot's index (and partials) last changed.
    /// The hot-sample cache compares these to decide which entries an
    /// epoch swap actually invalidated.
    slot_epochs: [u64; INGEST_SLOTS],
    /// The §7.1 flip matrix backing the `engine` scorecard verb.
    flips: Arc<FlipAnalysis>,
    /// Engine names in [`EngineId`] order (the `engine` verb resolves
    /// names against the snapshot, not the live fleet).
    engine_names: Arc<Vec<String>>,
    /// The retained drift-alert ring, sorted by alert key, each entry
    /// stamped with the epoch that published it (the `alerts` verb's
    /// `since` filter and the `subscribe` push cursor key off that
    /// stamp; the rendered bodies themselves carry no epoch).
    alerts: Arc<Vec<PublishedAlert>>,
    /// The `recommend` verb's pre-rendered response.
    recommend: String,
    /// True once a slot lock has been observed poisoned: the study no
    /// longer updates from that slot, answers may lag its stream.
    degraded: bool,
}

/// One alert on the published ring: its identity key, the epoch whose
/// publish first carried it, and the deterministic rendered body.
#[derive(Debug, Clone)]
struct PublishedAlert {
    /// [`Alert::key`] — `(seq, slot, detector, ordinal)`.
    key: (u64, u32, u8, u32),
    /// Epoch at which the merger first shipped this alert.
    published: u64,
    /// [`wire::render_alert`] body (no epoch member — byte-identical
    /// across shard/worker grids and recovery replays).
    rendered: String,
}

impl Snapshot {
    /// The slot index holding `hash`'s trajectory, if any was folded.
    fn slot_index(&self, hash: SampleHash) -> &SampleIndex {
        &self.slot_indexes[slot_of(hash)]
    }
}

/// The daemon's one book: registry handles for every running total it
/// keeps, registered once at startup. The threads that do the work bump
/// them, `status` reads them per request and `metrics` serves the same
/// registry — no second tally, no publish-time copy.
#[derive(Debug)]
struct ServeCounters {
    /// Reports the collector accepted, over every ingest chunk — the
    /// collector's own `collector/accepted`, re-fetched.
    accepted: Counter,
    /// Reports the collector quarantined (`collector/quarantined`).
    quarantined: Counter,
    /// Segments folded (`serve/segments`).
    segments: Counter,
    /// Samples folded (`serve/samples`).
    samples: Counter,
    /// Reports folded (`serve/reports`).
    reports: Counter,
    /// Connections shed at the accept gate (`serve/rejected`).
    rejected: Counter,
    /// Connections evicted mid-life — idle timeout, oversized line,
    /// stuck writes (`serve/evicted`).
    evicted: Counter,
    /// Sealed segments replayed from the data dir
    /// (`serve/recovered_segments`).
    recovered_segments: Counter,
    /// Segment files quarantined at recovery
    /// (`serve/quarantined_segments`).
    quarantined_segments: Counter,
    /// High-water mark of sealed segments queued between the feeder and
    /// the shard workers (`serve/queue_depth`).
    queue_depth: Gauge,
    /// Poisoned-lock recoveries: each time a slot lock is taken over
    /// from a panicked holder (`serve/poisoned`). Zero in a healthy
    /// daemon.
    poisoned: Counter,
    /// Per-hash responses served from the hot-sample cache
    /// (`serve/cache_hits`).
    cache_hits: Counter,
    /// Per-hash responses rendered on demand (`serve/cache_misses`).
    cache_misses: Counter,
    /// Drift alerts fired by the detectors (`serve/alerts_fired`).
    alerts_fired: Counter,
    /// [`crate::dynamics::MonitorEvent::Stabilized`] events observed
    /// (`serve/alerts_stabilized`) — counted, not alerted.
    alerts_stabilized: Counter,
    /// [`crate::dynamics::MonitorEvent::Destabilized`] events observed
    /// (`serve/alerts_destabilized`).
    alerts_destabilized: Counter,
    /// [`crate::dynamics::MonitorEvent::Swing`] events observed
    /// (`serve/alerts_swings`).
    alerts_swings: Counter,
    /// Alert lines delivered by the sinks (`serve/alerts_emitted`).
    alerts_emitted: Counter,
    /// Alert lines a sink deduped, skipped or gave up on
    /// (`serve/alerts_dropped`).
    alerts_dropped: Counter,
}

impl ServeCounters {
    fn register(obs: &Obs) -> Self {
        Self {
            accepted: obs.counter("collector/accepted"),
            quarantined: obs.counter("collector/quarantined"),
            segments: obs.counter("serve/segments"),
            samples: obs.counter("serve/samples"),
            reports: obs.counter("serve/reports"),
            rejected: obs.counter("serve/rejected"),
            evicted: obs.counter("serve/evicted"),
            recovered_segments: obs.counter("serve/recovered_segments"),
            quarantined_segments: obs.counter("serve/quarantined_segments"),
            queue_depth: obs.gauge("serve/queue_depth"),
            poisoned: obs.counter("serve/poisoned"),
            cache_hits: obs.counter("serve/cache_hits"),
            cache_misses: obs.counter("serve/cache_misses"),
            alerts_fired: obs.counter("serve/alerts_fired"),
            alerts_stabilized: obs.counter("serve/alerts_stabilized"),
            alerts_destabilized: obs.counter("serve/alerts_destabilized"),
            alerts_swings: obs.counter("serve/alerts_swings"),
            alerts_emitted: obs.counter("serve/alerts_emitted"),
            alerts_dropped: obs.counter("serve/alerts_dropped"),
        }
    }
}

/// One cached per-hash response: the rendered body with the epoch
/// digits spliced out, plus the provenance stamps that decide whether
/// an epoch swap invalidated it.
#[derive(Debug)]
struct CacheEntry {
    /// The response *after* the `{"epoch":` digits — every lazily
    /// rendered verb starts with that prefix, so serving a hit is a
    /// splice of the live epoch in front of this tail.
    tail: String,
    /// Which ingest slot the answer was rendered from (`None` for the
    /// whole-study verbs `engine` and `flip_leaders`).
    slot: Option<usize>,
    /// For slot-routed entries, the snapshot's `slot_epochs[slot]` at
    /// render time; for whole-study entries, the full epoch.
    stamp: u64,
    /// Whether the rendering snapshot was degraded (the suffix is baked
    /// into the tail, so a hit must match the live snapshot's flag).
    degraded: bool,
    /// Last-used stamp backing least-recently-used eviction.
    last_used: u64,
}

impl CacheEntry {
    /// Is this entry still exactly what rendering against `snap` would
    /// produce (up to the spliced epoch digits)?
    fn valid_for(&self, snap: &Snapshot) -> bool {
        let stamp = match self.slot {
            Some(slot) => snap.slot_epochs[slot],
            None => snap.epoch,
        };
        stamp == self.stamp && self.degraded == snap.degraded
    }
}

/// The bounded LRU cache behind the lazily rendered per-hash verbs.
///
/// Entries are stamped with the *slot epoch* they were rendered from —
/// the epoch at which their hash's ingest slot last changed. The first
/// request against a newer snapshot sweeps the map, dropping only the
/// entries whose slot actually republished since they were rendered
/// (plus the whole-study `engine`/`flip_leaders` entries, which every
/// epoch invalidates); entries for untouched slots survive the swap,
/// because their slot's index `Arc` is byte-for-byte the one they were
/// rendered from. A request that races a publish and holds an *older*
/// snapshot bypasses the cache entirely — a response for epoch N is
/// never stored once the cache has seen N+1, so answers cannot leak
/// across an epoch swap, and any one connection's epochs stay monotone.
#[derive(Debug, Default)]
struct ResponseCache {
    epoch: u64,
    /// Monotone use counter backing least-recently-used eviction.
    clock: u64,
    /// Canonical request key → cached response.
    map: HashMap<String, CacheEntry>,
}

/// State shared between every daemon thread and every connection
/// handler.
struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    shutdown: AtomicBool,
    obs: Obs,
    active_clients: AtomicU64,
    queue_depth: AtomicU64,
    counters: ServeCounters,
    /// Set by the feeder once every sample has been sealed; the merger
    /// stamps it into the final snapshot as `ingest_done`.
    feed_done: AtomicBool,
    cache: Mutex<ResponseCache>,
}

impl Shared {
    fn new() -> Self {
        let obs = Obs::new();
        let counters = ServeCounters::register(&obs);
        Shared {
            snapshot: RwLock::new(Arc::new(Snapshot {
                epoch: 0,
                s_samples: 0,
                indexed: 0,
                ingest_done: false,
                shards: 0,
                results: String::new(),
                engines: String::new(),
                metrics: String::new(),
                fingerprint: String::new(),
                slot_indexes: empty_slot_indexes(),
                slot_epochs: [0; INGEST_SLOTS],
                flips: Arc::new(FlipAnalysis::empty(0)),
                engine_names: Arc::new(Vec::new()),
                alerts: Arc::new(Vec::new()),
                recommend: String::new(),
                degraded: false,
            })),
            shutdown: AtomicBool::new(false),
            obs,
            active_clients: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            counters,
            feed_done: AtomicBool::new(false),
            cache: Mutex::new(ResponseCache::default()),
        }
    }

    // The snapshot lock only ever guards a swap of the `Arc` — a
    // panicked holder cannot leave the pointer half-written — so a
    // poisoned lock is recovered, not propagated: one crashing handler
    // must not cascade into every later connection panicking too.
    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, snapshot: Snapshot) {
        *self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Slot-local accumulation the shard workers write and the merger
/// reads: the slot's merged [`StudyPartials`] and [`SampleIndex`] plus
/// its Table 2 store accounting.
#[derive(Debug, Default)]
struct SlotState {
    /// Bumped on every fold into this slot; the merger compares it to
    /// the version behind its merge-tree leaf, so publishing touches
    /// only the slots that actually changed since the last epoch.
    version: u64,
    partials: Option<StudyPartials>,
    /// Frozen behind an `Arc` at fold time: publishing ships the
    /// pointer into the snapshot's per-slot index table instead of
    /// merging the slot indexes into one.
    index: Option<Arc<SampleIndex>>,
    partitions: Vec<PartitionStats>,
    /// The slot's cumulative alert log in key order (bounded by the
    /// per-segment detector caps, so never truncated here). Overwritten
    /// whole at fold time like every other field; the merger pulls the
    /// suffix past its per-slot high-water key.
    alerts: Arc<Vec<Alert>>,
}

/// One mutex per slot — a worker updates its slot while the merger
/// walks all of them; neither holds a lock for longer than a clone.
struct SlotTable {
    slots: Vec<Mutex<SlotState>>,
}

impl SlotTable {
    fn new() -> Self {
        Self {
            slots: (0..INGEST_SLOTS).map(|_| Mutex::default()).collect(),
        }
    }
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
fn lock_slot<'a>(
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

/// One sealed segment travelling from the feeder to a shard worker.
struct SegmentMsg {
    slot: usize,
    segment: Segment,
    /// Replayed from the data dir (already round-tripped through the
    /// on-disk container) rather than freshly sealed.
    recovered: bool,
}

/// Shard-worker → merger notifications.
enum MergeEvent {
    Folded,
    WorkerExited,
}

/// A running `vtld serve` daemon: feeder, shard fleet, merger and
/// accept threads, plus the published snapshot they share.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    table: Arc<SlotTable>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("epoch", &self.shared.current().epoch)
            .finish()
    }
}

impl Server {
    /// Binds the listener, opens (and on `recover` validates) the data
    /// dir, publishes the epoch-0 (empty study) snapshot, and starts
    /// the feeder, shard, merger and accept threads.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let config = config.normalized();
        let segdir = match &config.data_dir {
            Some(path) => {
                let dir = SegmentDir::open(path, INGEST_SLOTS as u32)?;
                if !config.recover && dir.has_segments()? {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!(
                            "data dir {} already holds sealed segments; \
                             restart with recovery enabled or point at a clean directory",
                            dir.root().display()
                        ),
                    ));
                }
                Some(dir)
            }
            None if config.recover => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "recovery needs a data dir to replay",
                ));
            }
            None => None,
        };

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new());
        let sim = Arc::new(VirusTotalSim::new(SimConfig::new(
            config.seed,
            config.samples,
        )));
        shared.publish(empty_snapshot(&config, sim.fleet()));
        let table = Arc::new(SlotTable::new());

        let mut threads = Vec::new();

        // The roster names alert bodies render with — a pure function
        // of the fleet, so workers, merger and sinks agree byte for
        // byte.
        let engine_names: Arc<Vec<String>> = Arc::new(
            (0..sim.fleet().engine_count())
                .map(|i| sim.fleet().profile(EngineId::new(i)).name.to_string())
                .collect(),
        );

        // Connector sinks get their own thread; workers hand it
        // rendered batches over an unbounded channel (producers are
        // bounded by the per-segment detector caps) so a slow or dead
        // connector can never backpressure ingest.
        let sink_config = sink::SinkConfig {
            out: config.alerts_out.clone(),
            tcp: config.alerts_tcp.clone(),
        };
        let alert_sink = if config.alerts && sink_config.is_active() {
            let (tx, rx) = channel::<sink::SinkMsg>();
            let emitted = shared.counters.alerts_emitted.clone();
            let dropped = shared.counters.alerts_dropped.clone();
            threads.push(std::thread::spawn(move || {
                sink::sink_loop(rx, sink_config, emitted, dropped)
            }));
            Some(tx)
        } else {
            None
        };

        let (merge_tx, merge_rx) = channel::<MergeEvent>();
        let mut shard_txs: Vec<SyncSender<SegmentMsg>> = Vec::new();
        for _ in 0..config.shards {
            let (tx, rx) = sync_channel::<SegmentMsg>(SHARD_QUEUE_SEGMENTS);
            shard_txs.push(tx);
            let (sim, shared, table, merge_tx) = (
                Arc::clone(&sim),
                Arc::clone(&shared),
                Arc::clone(&table),
                merge_tx.clone(),
            );
            let (config, alert_sink, engine_names) = (
                config.clone(),
                alert_sink.clone(),
                Arc::clone(&engine_names),
            );
            threads.push(std::thread::spawn(move || {
                shard_worker(
                    rx,
                    &sim,
                    &shared,
                    &table,
                    &merge_tx,
                    &config,
                    alert_sink,
                    &engine_names,
                )
            }));
        }
        drop(merge_tx);
        // The start-scope sink sender drops here; the sink thread exits
        // once every worker's clone is gone.
        drop(alert_sink);

        {
            let (sim, shared, table, config) = (
                Arc::clone(&sim),
                Arc::clone(&shared),
                Arc::clone(&table),
                config.clone(),
            );
            threads.push(std::thread::spawn(move || {
                merger_loop(&merge_rx, &shared, &table, &sim, &config)
            }));
        }
        {
            let (shared, config) = (Arc::clone(&shared), config.clone());
            threads.push(std::thread::spawn(move || {
                ingest_loop(&config, &shared, &sim, &shard_txs, segdir)
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &shared, &config)
            }));
        }
        Ok(Server {
            addr,
            shared,
            table,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Test hook: poisons one slot lock by panicking a thread that
    /// holds it — the failure mode a crashed shard worker leaves
    /// behind. The degraded-mode regression tests drive this; nothing
    /// in the daemon calls it.
    #[doc(hidden)]
    pub fn poison_slot(&self, slot: usize) {
        let table = Arc::clone(&self.table);
        let _ = std::thread::spawn(move || {
            let _guard = table.slots[slot % INGEST_SLOTS].lock();
            panic!("test-injected slot poisoning");
        })
        .join();
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// Signals shutdown: the feeder drains at the next boundary (sealing
    /// and persisting in-progress segments), workers fold what is
    /// queued, the merger publishes a final snapshot, and the accept
    /// loop exits. Idempotent; does not wait (see [`wait`](Self::wait)).
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
        // The accept loop may be parked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until every daemon thread exits (after
    /// [`shutdown`](Self::shutdown), feed exhaustion plus a client's
    /// `shutdown` command, or a fatal ingest error).
    pub fn wait(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The slot an accepted sample's whole trajectory is routed to. Purely
/// a function of the (well-mixed) hash, so every run at every shard
/// count routes identically.
fn slot_of(hash: SampleHash) -> usize {
    (hash.0 % INGEST_SLOTS as u128) as usize
}

/// A slot's segment writer: durable (fsync-before-sealed through the
/// data dir) or in-memory.
enum SlotWriter {
    Durable(DurableWriter),
    Memory(SegmentWriter),
}

impl SlotWriter {
    fn push_sample(
        &mut self,
        reports: &[crate::model::ScanReport],
    ) -> std::io::Result<Option<Segment>> {
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
/// the bounded queue is full (backpressure — the feed waits, accepted
/// samples are never dropped). Returns `false` if the worker is gone
/// (it panicked); the feeder then stops.
fn send_segment(shared: &Shared, senders: &[SyncSender<SegmentMsg>], msg: SegmentMsg) -> bool {
    let depth = shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    shared.counters.queue_depth.set_max(depth);
    if senders[msg.slot % senders.len()].send(msg).is_err() {
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        shared.request_shutdown();
        return false;
    }
    true
}

/// The feeder thread: replay the data dir (under recovery), then
/// simulate → chaos feed → collector → hash-route → seal durably →
/// hand to the shard fleet, until the feed is exhausted or shutdown is
/// requested — at which point it drains (seals and ships in-progress
/// segments) before dropping the queues.
fn ingest_loop(
    config: &ServeConfig,
    shared: &Shared,
    sim: &Arc<VirusTotalSim>,
    senders: &[SyncSender<SegmentMsg>],
    segdir: Option<SegmentDir>,
) {
    // ---- recovery replay --------------------------------------------
    let mut sealed_hashes: HashSet<SampleHash> = HashSet::new();
    let mut next_seq = [0u64; INGEST_SLOTS];
    if let (Some(dir), true) = (&segdir, config.recover) {
        let replay = match dir.replay() {
            Ok(replay) => replay,
            Err(e) => {
                eprintln!("vtld serve: recovery replay failed: {e}");
                shared.request_shutdown();
                return;
            }
        };
        shared
            .counters
            .quarantined_segments
            .add(replay.quarantined_segments);
        for (slot, segments) in replay.slots.into_iter().enumerate() {
            next_seq[slot] = segments.len() as u64;
            for segment in segments {
                for hash in segment.sample_hashes() {
                    sealed_hashes.insert(hash);
                }
                if !send_segment(
                    shared,
                    senders,
                    SegmentMsg {
                        slot,
                        segment,
                        recovered: true,
                    },
                ) {
                    return;
                }
            }
        }
    }

    // ---- live ingest ------------------------------------------------
    let mut writers: Vec<Option<SlotWriter>> = (0..INGEST_SLOTS)
        .map(|slot| {
            Some(match &segdir {
                Some(dir) => SlotWriter::Durable(DurableWriter::new(
                    dir.clone(),
                    slot as u32,
                    config.segment_reports,
                    next_seq[slot],
                )),
                None => SlotWriter::Memory(SegmentWriter::resuming(
                    config.segment_reports,
                    next_seq[slot],
                )),
            })
        })
        .collect();

    let mut start = 0u64;
    'feed: while start < config.samples && !shared.shutdown_requested() {
        let end = (start + INGEST_CHUNK_SAMPLES).min(config.samples);
        // Resume fast-path: a chunk whose samples were all sealed before
        // the crash needs no re-simulation at all.
        if !sealed_hashes.is_empty()
            && (start..end).all(|o| sealed_hashes.contains(&sim.population().sample(o).hash))
        {
            start = end;
            continue;
        }
        let feed = FaultyFeed::from_sim(sim, start..end, config.plan);
        // Also bumps `collector/accepted` / `collector/quarantined`,
        // which `status` reports as `accepted` / `quarantined`.
        let outcome = Collector::default().run_with_obs(feed, &shared.obs);
        for (hash, reports) in outcome.store.group_by_sample() {
            if sealed_hashes.contains(&hash) {
                continue;
            }
            let slot = slot_of(hash);
            match writers[slot]
                .as_mut()
                .expect("writer taken only at drain")
                .push_sample(&reports)
            {
                Ok(Some(segment)) => {
                    if !send_segment(
                        shared,
                        senders,
                        SegmentMsg {
                            slot,
                            segment,
                            recovered: false,
                        },
                    ) {
                        break 'feed;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("vtld serve: segment persist failed, stopping ingest: {e}");
                    shared.request_shutdown();
                    break 'feed;
                }
            }
        }
        start = end;
    }
    let completed = start >= config.samples;

    // ---- drain: seal in-progress segments, even on shutdown ---------
    for (slot, writer) in writers.iter_mut().enumerate() {
        let writer = writer.take().expect("each writer drains once");
        match writer.finish() {
            Ok(Some(segment)) => {
                send_segment(
                    shared,
                    senders,
                    SegmentMsg {
                        slot,
                        segment,
                        recovered: false,
                    },
                );
            }
            Ok(None) => {}
            Err(e) => eprintln!("vtld serve: tail segment persist failed: {e}"),
        }
    }
    if completed {
        shared.feed_done.store(true, Ordering::SeqCst);
    }
    // Senders drop here: workers drain their queues and exit, and the
    // merger publishes the final snapshot once they have.
}

/// One shard worker: folds its slots' segment streams, in arrival
/// (= per-slot seal) order, into slot-local partials (and per-sample
/// indexes), runs the slot's drift detectors over each fold's delta,
/// and notifies the merger after every fold.
///
/// All accumulation — studies, partition accounting *and* alert logs —
/// lives in worker-local state; every write under a slot lock fully
/// overwrites the slot's fields from it. That overwrite-only discipline
/// is what makes poisoned-lock recovery ([`lock_slot`]) sound.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    rx: Receiver<SegmentMsg>,
    sim: &VirusTotalSim,
    shared: &Shared,
    table: &SlotTable,
    merge_tx: &Sender<MergeEvent>,
    config: &ServeConfig,
    alert_sink: Option<Sender<sink::SinkMsg>>,
    engine_names: &[String],
) {
    let fleet = sim.fleet();
    let window_start = sim.config().window_start();
    let fold_workers = config.workers;
    let mut studies: HashMap<usize, IncrementalStudy<'_>> = HashMap::new();
    let mut partitions: HashMap<usize, Vec<PartitionStats>> = HashMap::new();
    // Per-slot cumulative alert logs (the lock-protected copy is an
    // overwrite of these) and the last totals already counted, so the
    // shared counters advance by exact deltas.
    let mut alert_logs: HashMap<usize, Vec<Alert>> = HashMap::new();
    let mut alert_totals: HashMap<usize, crate::dynamics::AlertTotals> = HashMap::new();
    // One decode arena per worker, reused across every segment it
    // folds: the row buffer reaches steady-state capacity after the
    // first few segments and stops allocating.
    let mut arena = DecodeArena::new();
    while let Ok(msg) = rx.recv() {
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let SegmentMsg {
            slot,
            segment,
            recovered,
        } = msg;
        // Freshly sealed segments round-trip through their checksummed
        // container before folding: what the daemon folds is exactly
        // what a restart would recover from disk. Replayed segments
        // already came through it.
        let segment = if recovered {
            segment
        } else {
            let mut buf = Vec::new();
            write_segment(&segment, &mut buf).expect("in-memory segment write");
            read_segment(&mut buf.as_slice()).expect("own segment re-reads")
        };
        // Zero-copy fold: the segment's blocks stream into the worker's
        // reusable decode arena and the columnar table is built straight
        // from it — no `Vec<ScanReport>`/`Vec<SampleRecord>` round-trip
        // per segment (bit-identical to the old record-materializing
        // path; see `IncrementalStudy::fold_store`).
        let study = studies.entry(slot).or_insert_with(|| {
            let study = IncrementalStudy::new(fleet, window_start)
                .with_workers(fold_workers)
                .with_index();
            if config.alerts {
                study.with_alerts(AlertConfig {
                    slot: slot as u32,
                    ..config.alert_config
                })
            } else {
                study
            }
        });
        let samples = study.fold_store(segment.store(), &mut arena, &shared.obs);
        let slot_partitions = partitions.entry(slot).or_default();
        merge_partitions(slot_partitions, &segment.store().partition_stats());
        let frozen_index = study.index().cloned().map(Arc::new);

        // Drain this fold's alerts: extend the slot's cumulative log
        // (already in key order — seq grows per fold, ordinals are
        // deterministic within one), advance the shared counters by the
        // totals delta, and hand the fresh batch to the sinks.
        let new_alerts = study.take_alerts();
        let totals = study.alert_totals();
        let prev = alert_totals.insert(slot, totals).unwrap_or_default();
        shared.counters.alerts_fired.add(totals.fired - prev.fired);
        shared
            .counters
            .alerts_stabilized
            .add(totals.stabilized - prev.stabilized);
        shared
            .counters
            .alerts_destabilized
            .add(totals.destabilized - prev.destabilized);
        shared
            .counters
            .alerts_swings
            .add(totals.swings - prev.swings);
        if let (Some(sink), false) = (&alert_sink, new_alerts.is_empty()) {
            let _ = sink.send(sink::SinkMsg {
                lines: new_alerts
                    .iter()
                    .map(|a| wire::render_alert(a, engine_names))
                    .collect(),
                recovered,
            });
        }
        let frozen_alerts = if new_alerts.is_empty() {
            None
        } else {
            let log = alert_logs.entry(slot).or_default();
            log.extend(new_alerts);
            Some(Arc::new(log.clone()))
        };

        {
            let (mut state, _was_poisoned) = lock_slot(&table.slots[slot], &shared.counters);
            state.version += 1;
            state.partials = study.partials().cloned();
            state.index = frozen_index;
            state.partitions = slot_partitions.clone();
            if let Some(alerts) = frozen_alerts {
                state.alerts = alerts;
            }
        }
        shared.counters.segments.incr();
        shared.counters.samples.add(samples as u64);
        shared.counters.reports.add(segment.report_count());
        if recovered {
            shared.counters.recovered_segments.incr();
        }
        let _ = merge_tx.send(MergeEvent::Folded);
    }
    let _ = merge_tx.send(MergeEvent::WorkerExited);
}

/// The merger's cross-publish accumulation: the binary merge tree over
/// the slot partials (internal nodes cached, so a publish re-merges
/// only the changed slot's root path), the per-slot index `Arc`s and
/// the bookkeeping that detects which slots changed.
struct MergerState {
    tree: SlotMergeTree,
    /// [`SlotState::version`] behind each leaf — a mismatch marks the
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
    /// Roster names alert bodies are rendered with.
    engine_names: Vec<String>,
}

impl MergerState {
    fn new(engine_names: Vec<String>) -> Self {
        Self {
            tree: SlotMergeTree::new(INGEST_SLOTS),
            leaf_versions: [0; INGEST_SLOTS],
            slot_epochs: [0; INGEST_SLOTS],
            slot_indexes: empty_slot_indexes(),
            alert_high: [None; INGEST_SLOTS],
            alerts: Vec::new(),
            engine_names,
        }
    }
}

/// The merger thread: on every fold notification (coalescing bursts),
/// refresh the merge tree's dirty leaves, finish the cached root, and
/// publish the next epoch. After the whole fleet exits — every sealed
/// segment folded — publish the final snapshot, marking `ingest_done`
/// when the feed was fully consumed.
fn merger_loop(
    rx: &Receiver<MergeEvent>,
    shared: &Shared,
    table: &SlotTable,
    sim: &VirusTotalSim,
    config: &ServeConfig,
) {
    let engine_names: Vec<String> = (0..sim.fleet().engine_count())
        .map(|i| sim.fleet().profile(EngineId::new(i)).name.to_string())
        .collect();
    let mut state = MergerState::new(engine_names);
    let mut epoch = 0u64;
    let mut exited = 0usize;
    while exited < config.shards {
        let Ok(first) = rx.recv() else { break };
        let mut folded = false;
        for event in std::iter::once(first).chain(std::iter::from_fn(|| rx.try_recv().ok())) {
            match event {
                MergeEvent::Folded => folded = true,
                MergeEvent::WorkerExited => exited += 1,
            }
        }
        if folded && exited < config.shards {
            epoch += 1;
            publish_merged(epoch, false, shared, table, sim, config, &mut state);
        }
    }
    // Final publish: every sealed segment has been folded and merged.
    epoch += 1;
    let done = shared.feed_done.load(Ordering::SeqCst);
    publish_merged(epoch, done, shared, table, sim, config, &mut state);
}

/// Publishes one epoch from the merge tree: pull the slots whose
/// version moved since the last publish into their leaves (an
/// O(changed-slot) walk — each dirty slot re-merges only its log₂(8)
/// root path, and clean slots are not even cloned), finish the cached
/// root, and swap in the rendered snapshot. The tree's fixed shape
/// keeps the merge order the canonical `slot 0 ++ slot 1 ++ …`, so the
/// published bits are identical to the old flat slot-order merge — at
/// any shard count. A poisoned slot lock marks the snapshot degraded —
/// its last consistent accumulation still merges, the daemon keeps
/// answering.
#[allow(clippy::too_many_arguments)]
fn publish_merged(
    epoch: u64,
    done: bool,
    shared: &Shared,
    table: &SlotTable,
    sim: &VirusTotalSim,
    config: &ServeConfig,
    state: &mut MergerState,
) {
    let mut degraded = false;
    let mut dirty_alerts: Vec<(usize, Arc<Vec<Alert>>)> = Vec::new();
    for (slot, lock) in table.slots.iter().enumerate() {
        let (slot_state, was_poisoned) = lock_slot(lock, &shared.counters);
        degraded |= was_poisoned;
        if slot_state.version == state.leaf_versions[slot] {
            continue;
        }
        state.leaf_versions[slot] = slot_state.version;
        state.slot_epochs[slot] = epoch;
        let partials = slot_state.partials.clone();
        let partitions = slot_state.partitions.clone();
        state.slot_indexes[slot] = slot_state
            .index
            .clone()
            .unwrap_or_else(|| Arc::new(SampleIndex::default()));
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
                rendered: wire::render_alert(alert, &state.engine_names),
            });
            published_new = true;
        }
    }
    if published_new {
        state.alerts.sort_unstable_by_key(|a| a.key);
    }
    let ring_start = state.alerts.len().saturating_sub(config.alerts_ring);
    let alerts_ring = Arc::new(state.alerts[ring_start..].to_vec());
    let results = match state.tree.root() {
        Some(partials) => partials.finish(state.tree.root_partitions().to_vec(), &shared.obs),
        None => IncrementalStudy::new(sim.fleet(), sim.config().window_start())
            .results(state.tree.root_partitions().to_vec(), &shared.obs),
    };
    shared.publish(render_snapshot(
        epoch,
        &results,
        sim.fleet(),
        done,
        config.shards,
        degraded,
        &shared.obs.snapshot(),
        state.slot_indexes.clone(),
        state.slot_epochs,
        alerts_ring,
    ));
}

/// Month-wise accumulation of per-segment Table 2 accounting
/// (delegates to the core algebra the merge tree accumulates with, so
/// the shard workers' slot-local totals and the tree's cached internal
/// nodes agree on ordering).
fn merge_partitions(acc: &mut Vec<PartitionStats>, seg: &[PartitionStats]) {
    crate::dynamics::merge_partition_stats(acc, seg);
}

/// One default (empty) index per ingest slot.
fn empty_slot_indexes() -> Vec<Arc<SampleIndex>> {
    (0..INGEST_SLOTS)
        .map(|_| Arc::new(SampleIndex::default()))
        .collect()
}

/// The epoch-0 snapshot: the finished empty study, so every query has a
/// well-formed answer before the first segment folds.
fn empty_snapshot(config: &ServeConfig, fleet: &EngineFleet) -> Snapshot {
    let window_start = SimConfig::new(config.seed, config.samples).window_start();
    let study = IncrementalStudy::new(fleet, window_start);
    let results = study.results(Vec::new(), Obs::noop());
    render_snapshot(
        0,
        &results,
        fleet,
        false,
        config.shards,
        false,
        &Obs::noop().snapshot(),
        empty_slot_indexes(),
        [0; INGEST_SLOTS],
        Arc::new(Vec::new()),
    )
}

// ---- connection handling -----------------------------------------------

/// The accept loop: admission-controlled, one handler thread per
/// admitted connection, until shutdown.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, config: &ServeConfig) {
    for stream in listener.incoming() {
        if shared.shutdown_requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.active_clients.load(Ordering::SeqCst) >= config.max_clients as u64 {
            shed_connection(stream, shared, config);
            continue;
        }
        shared.active_clients.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(shared);
        let config = config.clone();
        std::thread::spawn(move || {
            // Decrement even if the handler panics, so one bad
            // connection can never wedge the admission gate.
            struct Guard(Arc<Shared>);
            impl Drop for Guard {
                fn drop(&mut self) {
                    self.0.active_clients.fetch_sub(1, Ordering::SeqCst);
                }
            }
            let guard = Guard(Arc::clone(&shared));
            handle_connection(stream, &shared, &config);
            drop(guard);
        });
    }
}

/// Sheds one connection at the admission gate with a typed `overloaded`
/// response (best effort — a client that will not even read it is
/// simply dropped).
fn shed_connection(mut stream: TcpStream, shared: &Shared, config: &ServeConfig) {
    shared.counters.rejected.incr();
    let epoch = shared.current().epoch;
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.write_all(
        format!(
            "{{\"epoch\":{epoch},\"overloaded\":true,\
             \"error\":\"overloaded: connection limit reached, retry later\"}}\n"
        )
        .as_bytes(),
    );
}

/// Why a bounded line read stopped without producing a line.
enum LineError {
    /// The line exceeded the configured byte limit.
    TooLong,
    /// The read deadline expired with no complete line.
    Timeout,
    /// Any other I/O failure (connection reset and friends).
    Io,
}

/// Reads one `\n`-terminated line of at most `max` bytes (exclusive of
/// the terminator). `Ok(None)` is EOF. EOF with a partial line buffered
/// yields that line — a client that shuts down its write half right
/// after its final unterminated request still gets an answer (the next
/// call sees a clean EOF). The bound is exact: the length check runs
/// *before* bytes are buffered, so a line of `max` bytes passes and
/// `max + 1` fails, regardless of how the reader chunks its input.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    max: usize,
) -> Result<Option<String>, LineError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, complete) = {
            let available = match reader.fill_buf() {
                Ok([]) => {
                    if buf.is_empty() {
                        return Ok(None);
                    }
                    // EOF terminates the final line.
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                Ok(bytes) => bytes,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(LineError::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(LineError::Io),
            };
            let take = match available.iter().position(|&b| b == b'\n') {
                Some(pos) => pos,
                None => available.len(),
            };
            if buf.len() + take > max {
                return Err(LineError::TooLong);
            }
            buf.extend_from_slice(&available[..take]);
            let complete = take < available.len();
            (take + usize::from(complete), complete)
        };
        reader.consume(consumed);
        if complete {
            // Non-UTF-8 input degrades to a replacement-character string
            // that fails JSON parsing and earns a typed error response.
            return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
}

/// One client connection: newline-delimited JSON requests under read
/// and write deadlines, each answered from the snapshot current at that
/// moment; deadline or line-limit violations evict with a typed
/// response.
fn handle_connection(stream: TcpStream, shared: &Shared, config: &ServeConfig) {
    if stream
        .set_read_timeout(Some(config.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(config.write_timeout)))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        if shared.shutdown_requested() {
            break;
        }
        match read_bounded_line(&mut reader, config.max_line_bytes) {
            Ok(None) => break,
            Ok(Some(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let action = respond(&line, shared, config);
                let response = match &action {
                    Action::Reply(r) | Action::ReplyThenShutdown(r) => r,
                    Action::Subscribe { ack, .. } => ack,
                };
                if writer
                    .write_all(format!("{response}\n").as_bytes())
                    .is_err()
                {
                    shared.counters.evicted.incr();
                    break;
                }
                match action {
                    Action::Reply(_) => {}
                    Action::ReplyThenShutdown(_) => {
                        shared.request_shutdown();
                        // Wake the accept loop so it observes the flag.
                        if let Ok(addr) = writer.local_addr() {
                            let _ = TcpStream::connect(SocketAddr::new(addr.ip(), addr.port()));
                        }
                        break;
                    }
                    Action::Subscribe { epoch, .. } => {
                        subscribe_loop(&mut writer, shared, epoch);
                        break;
                    }
                }
            }
            Err(LineError::TooLong) => {
                evict(&mut writer, shared, "request line exceeds the length limit");
                break;
            }
            Err(LineError::Timeout) => {
                evict(&mut writer, shared, "idle past the read deadline");
                break;
            }
            Err(LineError::Io) => break,
        }
    }
}

/// Evicts one connection with a typed response (best effort) and counts
/// it.
fn evict(writer: &mut TcpStream, shared: &Shared, reason: &str) {
    shared.counters.evicted.incr();
    let epoch = shared.current().epoch;
    let _ = writer.write_all(
        format!(
            "{{\"epoch\":{epoch},\"evicted\":true,\"error\":{}}}\n",
            quoted(&format!("connection evicted: {reason}"))
        )
        .as_bytes(),
    );
}

/// What the connection reactor does with one parsed request.
enum Action {
    /// Write the response and keep reading requests.
    Reply(String),
    /// Write the response, then begin daemon shutdown and close.
    ReplyThenShutdown(String),
    /// Write the ack, then switch the connection to alert push mode
    /// ([`subscribe_loop`]) until shutdown or the client hangs up.
    /// `epoch` is the push cursor — the ack's epoch, so no alert
    /// published between the ack render and the loop start is skipped.
    Subscribe {
        /// The rendered `subscribed` acknowledgement.
        ack: String,
        /// Epoch the ack was rendered at.
        epoch: u64,
    },
}

/// Routes one request line through the typed [`wire::Request`] API to
/// its response — pre-rendered for the aggregate verbs, rendered from
/// the live registry for `status`, lazily rendered (behind the
/// hot-sample cache) for the per-hash verbs.
fn respond(line: &str, shared: &Shared, config: &ServeConfig) -> Action {
    use wire::{Render, Request};
    let snap = shared.current();
    let req = match Request::parse_line(line) {
        Ok(req) => req,
        Err(e) => return Action::Reply(e.render(snap.epoch)),
    };
    match req {
        Request::Status => Action::Reply(render_status(&snap, &shared.counters)),
        Request::Results => Action::Reply(snap.results.clone()),
        Request::Engines => Action::Reply(snap.engines.clone()),
        Request::Metrics => Action::Reply(snap.metrics.clone()),
        Request::Fingerprint => Action::Reply(snap.fingerprint.clone()),
        Request::Sample { hash } => {
            let key = format!("sample:{}", hash.to_hex());
            Action::Reply(cached_response(
                shared,
                config.cache_samples,
                &snap,
                &key,
                Some(slot_of(hash)),
                || render_sample(&snap, hash),
            ))
        }
        Request::Stabilized { hash, threshold } => {
            let key = format!("stabilized:{}:{threshold}", hash.to_hex());
            Action::Reply(cached_response(
                shared,
                config.cache_samples,
                &snap,
                &key,
                Some(slot_of(hash)),
                || render_stabilized(&snap, hash, threshold),
            ))
        }
        Request::Engine { name } => {
            // Resolution happens against the snapshot's roster, not at
            // parse time (the parser cannot know the roster). Unknown
            // names are answered uncached: the cache is keyed by
            // client-controlled strings only after they resolve, so
            // misses cannot crowd out real entries.
            let Some(engine) = snap.engine_names.iter().position(|n| *n == name) else {
                return Action::Reply(format!(
                    "{{\"epoch\":{},\"error\":{}}}",
                    snap.epoch,
                    quoted(&format!("unknown engine '{name}'"))
                ));
            };
            // Whole-study answer (`slot: None`): every epoch swap
            // invalidates it, since the flip matrix re-finishes.
            let key = format!("engine:{engine}");
            Action::Reply(cached_response(
                shared,
                config.cache_samples,
                &snap,
                &key,
                None,
                || render_engine(&snap, engine),
            ))
        }
        Request::FlipLeaders { k } => {
            // Ranks across every slot, so any slot change invalidates
            // it — cached under the whole-study rule (`slot: None`).
            let key = format!("flip_leaders:{k}");
            Action::Reply(cached_response(
                shared,
                config.cache_samples,
                &snap,
                &key,
                None,
                || render_flip_leaders(&snap, k),
            ))
        }
        // Uncached: the filter is a cheap scan of the pre-rendered
        // ring, and `since` is client-controlled (unbounded key space).
        Request::Alerts { since } => Action::Reply(render_alerts(&snap, since)),
        Request::Subscribe => Action::Subscribe {
            ack: wire::SubscribeAck.render(snap.epoch),
            epoch: snap.epoch,
        },
        Request::Recommend => Action::Reply(snap.recommend.clone()),
        Request::Shutdown => Action::ReplyThenShutdown(wire::ShutdownAck.render(snap.epoch)),
    }
}

/// The `alerts` pull verb: every retained alert published after epoch
/// `since`, in key order. The array holds the deterministic [`wire`]
/// bodies only — no publish stamps — so at `since: 0` everything after
/// the epoch prefix is bit-identical at any shard × worker grid and
/// across crash-recovery replay (the chaos and determinism suites
/// compare exactly that tail). Clients resume by passing the last
/// response's top-level `epoch` as the next `since`.
fn render_alerts(snap: &Snapshot, since: u64) -> String {
    let items: Vec<&str> = snap
        .alerts
        .iter()
        .filter(|a| a.published > since)
        .map(|a| a.rendered.as_str())
        .collect();
    format!(
        "{{\"epoch\":{},\"since\":{since},\"count\":{},\"alerts\":[{}]{}}}",
        snap.epoch,
        items.len(),
        items.join(","),
        degraded_suffix(snap),
    )
}

/// Push mode: after the `subscribe` ack, poll the published snapshot
/// and stream every alert stamped after the epochs this connection has
/// already seen, one `{"epoch":E,"alert":{…}}` line each, until
/// shutdown or the client hangs up. Alerts published before the
/// subscription are not replayed — a client wanting history pulls
/// `{"cmd":"alerts","since":0}` first and dedups by the alert key.
fn subscribe_loop(writer: &mut TcpStream, shared: &Shared, mut seen_epoch: u64) {
    while !shared.shutdown_requested() {
        let snap = shared.current();
        if snap.epoch != seen_epoch {
            for alert in snap.alerts.iter().filter(|a| a.published > seen_epoch) {
                let line = format!(
                    "{{\"epoch\":{},\"alert\":{}}}\n",
                    alert.published, alert.rendered
                );
                if writer.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            seen_epoch = snap.epoch;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Splits a lazily rendered response after its `{"epoch":<digits>`
/// prefix, returning the epoch-independent tail. Every per-hash verb
/// renders that prefix first; `None` (uncacheable) otherwise.
fn epoch_tail(response: &str) -> Option<&str> {
    let rest = response.strip_prefix("{\"epoch\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    Some(&rest[digits..])
}

/// Reassembles a cached tail under the serving snapshot's epoch.
fn splice_epoch(epoch: u64, tail: &str) -> String {
    format!("{{\"epoch\":{epoch}{tail}")
}

/// Serves one lazily rendered response through the hot-sample cache
/// (see [`ResponseCache`] for the epoch-safety argument). `slot` is the
/// ingest slot the answer is rendered from (`None` for whole-study
/// answers); it decides which epoch swaps invalidate the entry.
/// `capacity` of 0 disables caching entirely.
fn cached_response(
    shared: &Shared,
    capacity: usize,
    snap: &Snapshot,
    key: &str,
    slot: Option<usize>,
    render: impl FnOnce() -> String,
) -> String {
    if capacity == 0 {
        return render();
    }
    {
        let mut cache = lock_cache(shared);
        if cache.epoch != snap.epoch {
            if snap.epoch > cache.epoch {
                // First request against a newer snapshot: sweep out the
                // entries whose slot republished (or whole-study
                // entries); untouched slots' answers stay hot.
                cache.epoch = snap.epoch;
                cache.map.retain(|_, entry| entry.valid_for(snap));
            } else {
                // This request pinned a snapshot from before the swap
                // the cache has already seen: serve it uncached rather
                // than ever mixing epochs.
                drop(cache);
                shared.counters.cache_misses.incr();
                return render();
            }
        }
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(entry) = cache.map.get_mut(key) {
            entry.last_used = stamp;
            shared.counters.cache_hits.incr();
            // The entry may have been rendered epochs ago (its slot
            // unchanged since); splicing the live epoch reproduces the
            // fresh rendering byte for byte.
            return splice_epoch(snap.epoch, &entry.tail);
        }
    }
    // Render outside the lock — a fold-sized index walk must not block
    // every other per-hash reader.
    shared.counters.cache_misses.incr();
    let rendered = render();
    let Some(tail) = epoch_tail(&rendered) else {
        return rendered;
    };
    let mut cache = lock_cache(shared);
    if cache.epoch == snap.epoch {
        if cache.map.len() >= capacity && !cache.map.contains_key(key) {
            let victim = cache
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                cache.map.remove(&victim);
            }
        }
        cache.clock += 1;
        let stamp = cache.clock;
        cache.map.insert(
            key.to_string(),
            CacheEntry {
                tail: tail.to_string(),
                slot,
                stamp: match slot {
                    Some(slot) => snap.slot_epochs[slot],
                    None => snap.epoch,
                },
                degraded: snap.degraded,
                last_used: stamp,
            },
        );
    }
    rendered
}

/// Takes the cache lock, recovering from poisoning by dropping every
/// entry (a handler that panicked mid-insert may have left the map in
/// an arbitrary but memory-safe state; an empty cache is always
/// correct).
fn lock_cache(shared: &Shared) -> MutexGuard<'_, ResponseCache> {
    shared.cache.lock().unwrap_or_else(|poisoned| {
        shared.counters.poisoned.incr();
        let mut guard = poisoned.into_inner();
        *guard = ResponseCache::default();
        guard
    })
}

/// `,"degraded":true` when the snapshot was published past a poisoned
/// slot lock, empty otherwise — appended to every lazily rendered
/// response.
fn degraded_suffix(snap: &Snapshot) -> &'static str {
    if snap.degraded {
        ",\"degraded\":true"
    } else {
        ""
    }
}

/// The `sample` verb: one hash's full trajectory summary from the
/// snapshot's index.
fn render_sample(snap: &Snapshot, hash: SampleHash) -> String {
    let epoch = snap.epoch;
    let suffix = degraded_suffix(snap);
    match snap.slot_index(hash).get(hash) {
        None => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"found\":false{suffix}}}",
            hash.to_hex()
        ),
        Some(s) => {
            let positives: Vec<String> = s.positives.iter().map(u32::to_string).collect();
            let dates: Vec<String> = s.dates_min.iter().map(i64::to_string).collect();
            let stab: Vec<String> = FIG9_THRESHOLDS
                .iter()
                .map(|&t| {
                    format!(
                        "{{\"threshold\":{t},\"stabilized\":{}}}",
                        s.stabilized_at(t).unwrap_or(false)
                    )
                })
                .collect();
            format!(
                "{{\"epoch\":{epoch},\"hash\":\"{}\",\"found\":true,\
                 \"file_type\":{},\"reports\":{},\"current_positives\":{},\
                 \"p_min\":{},\"p_max\":{},\"flips\":{},\
                 \"multi_report\":{},\"stable\":{},\"fresh\":{},\"in_s\":{},\
                 \"stabilization\":[{}],\"positives\":[{}],\"dates_min\":[{}]{suffix}}}",
                hash.to_hex(),
                quoted(&s.file_type.name()),
                s.report_count(),
                s.current_positives(),
                s.p_min(),
                s.p_max(),
                s.flips,
                s.is_multi_report(),
                s.is_stable(),
                s.is_fresh(),
                s.in_s(),
                stab.join(","),
                positives.join(","),
                dates.join(","),
            )
        }
    }
}

/// The `stabilized` verb: has this hash's threshold-`t` label sequence
/// stabilized (§6.2)?
fn render_stabilized(snap: &Snapshot, hash: SampleHash, t: u32) -> String {
    let epoch = snap.epoch;
    let suffix = degraded_suffix(snap);
    match snap.slot_index(hash).get(hash) {
        None => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"threshold\":{t},\"found\":false{suffix}}}",
            hash.to_hex()
        ),
        Some(s) => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"threshold\":{t},\"found\":true,\
             \"stabilized\":{}{suffix}}}",
            hash.to_hex(),
            s.stabilized_at(t).unwrap_or(false),
        ),
    }
}

/// The `engine` verb: one engine's flip scorecard — totals plus every
/// top-20 type it has had flip opportunities on.
fn render_engine(snap: &Snapshot, engine: usize) -> String {
    let epoch = snap.epoch;
    let suffix = degraded_suffix(snap);
    let name = &snap.engine_names[engine];
    let row = &snap.flips.matrix[engine];
    let flips: u64 = row.iter().map(|cell| cell.flips).sum();
    let opportunities: u64 = row.iter().map(|cell| cell.opportunities).sum();
    let ratio = if opportunities == 0 {
        0.0
    } else {
        flips as f64 / opportunities as f64
    };
    let types: Vec<String> = row
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.opportunities > 0)
        .map(|(j, cell)| {
            format!(
                "{{\"type\":{},\"flips\":{},\"opportunities\":{},\"flip_ratio\":{}}}",
                quoted(&crate::model::FileType::from_dense_index(j).name()),
                cell.flips,
                cell.opportunities,
                json_f64(cell.ratio()),
            )
        })
        .collect();
    format!(
        "{{\"epoch\":{epoch},\"engine\":{},\"flips\":{flips},\
         \"opportunities\":{opportunities},\"flip_ratio\":{},\"types\":[{}]{suffix}}}",
        quoted(name),
        json_f64(ratio),
        types.join(","),
    )
}

/// The `flip_leaders` verb: the top-`k` samples by engine-label flip
/// count (ties by hash — a total order, identical at every shard and
/// worker count). Ranked by merging each slot's own top-`k` under that
/// total order — the global top `k` is contained in the union, so the
/// answer is bit-identical to ranking one merged index.
fn render_flip_leaders(snap: &Snapshot, k: usize) -> String {
    let epoch = snap.epoch;
    let suffix = degraded_suffix(snap);
    let mut ranked: Vec<_> = snap
        .slot_indexes
        .iter()
        .flat_map(|index| index.top_flips(k))
        .collect();
    ranked.sort_unstable_by(|a, b| b.flips.cmp(&a.flips).then_with(|| a.hash.cmp(&b.hash)));
    ranked.truncate(k);
    let leaders: Vec<String> = ranked
        .iter()
        .map(|s| {
            format!(
                "{{\"hash\":\"{}\",\"flips\":{},\"reports\":{},\"current_positives\":{}}}",
                s.hash.to_hex(),
                s.flips,
                s.report_count(),
                s.current_positives(),
            )
        })
        .collect();
    format!(
        "{{\"epoch\":{epoch},\"k\":{k},\"leaders\":[{}]{suffix}}}",
        leaders.join(","),
    )
}

// ---- response rendering ------------------------------------------------

/// The `status` verb, rendered per request: the snapshot's own
/// epoch-consistent members (`epoch`, `s_samples`, `ingest_done`,
/// `shards`, `indexed`, `degraded`) beside the live registry totals, so
/// `cache_hits`, `rejected`, `evicted` and the rest keep moving after
/// the last publish.
fn render_status(snap: &Snapshot, c: &ServeCounters) -> String {
    format!(
        "{{\"epoch\":{},\"segments\":{},\"samples\":{},\"reports\":{},\
         \"accepted\":{},\"quarantined\":{},\"s_samples\":{},\"ingest_done\":{},\
         \"shards\":{},\"recovered_segments\":{},\"quarantined_segments\":{},\
         \"rejected\":{},\"evicted\":{},\"indexed\":{},\"degraded\":{},\
         \"poisoned\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"alerts_fired\":{},\"alerts_stabilized\":{},\"alerts_destabilized\":{},\
         \"alerts_swings\":{},\"alerts_emitted\":{},\"alerts_dropped\":{}}}",
        snap.epoch,
        c.segments.value(),
        c.samples.value(),
        c.reports.value(),
        c.accepted.value(),
        c.quarantined.value(),
        snap.s_samples,
        snap.ingest_done,
        snap.shards,
        c.recovered_segments.value(),
        c.quarantined_segments.value(),
        c.rejected.value(),
        c.evicted.value(),
        snap.indexed,
        snap.degraded,
        c.poisoned.value(),
        c.cache_hits.value(),
        c.cache_misses.value(),
        c.alerts_fired.value(),
        c.alerts_stabilized.value(),
        c.alerts_destabilized.value(),
        c.alerts_swings.value(),
        c.alerts_emitted.value(),
        c.alerts_dropped.value(),
    )
}

/// JSON number for an `f64`: non-finite values have no JSON spelling
/// and render as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal, for `format!` arguments; the escaping
/// is [`write_json_string`]'s.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// FNV-1a accumulation over a byte slice.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The chaos-gate fingerprint of a finished study: an FNV-1a digest of
/// the Debug rendering of every result field **except** the wall-clock
/// `stage_timings` (never deterministic), plus a digest of the raw
/// `to_bits` of every Spearman plane (global + per-type), so NaN
/// payloads and signed zeros count. Two runs whose fingerprints match
/// agree on every published statistic bit for bit — this is what
/// `tests/serve_chaos.rs` compares across kill/restart and shard
/// counts.
fn study_fingerprint(results: &StudyResults) -> (u64, u64) {
    let debug = format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        results.dataset,
        results.fig1,
        results.partitions,
        results.stability,
        results.s_samples,
        results.s_reports,
        results.metrics,
        results.window_growth,
        results.intervals,
        results.categories_all,
        results.categories_pe,
        results.causes,
        results.rank_stabilization,
        results.label_stabilization_all,
        results.label_stabilization_multi,
        results.flips,
        results.correlation_global,
        results.correlation_per_type,
    );
    let mut debug_fnv = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut debug_fnv, debug.as_bytes());
    fnv1a(
        &mut debug_fnv,
        &results.window_growth.to_bits().to_le_bytes(),
    );
    let mut rho_fnv = 0xcbf2_9ce4_8422_2325u64;
    for plane in std::iter::once(&results.correlation_global).chain(&results.correlation_per_type) {
        for v in &plane.rho {
            fnv1a(&mut rho_fnv, &v.to_bits().to_le_bytes());
        }
    }
    (debug_fnv, rho_fnv)
}

/// Renders every response for one epoch in one place, so a snapshot can
/// never mix stages of the study.
#[allow(clippy::too_many_arguments)]
fn render_snapshot(
    epoch: u64,
    results: &StudyResults,
    fleet: &EngineFleet,
    ingest_done: bool,
    shards: usize,
    degraded: bool,
    metrics: &crate::obs::RunMetrics,
    slot_indexes: Vec<Arc<SampleIndex>>,
    slot_epochs: [u64; INGEST_SLOTS],
    alerts: Arc<Vec<PublishedAlert>>,
) -> Snapshot {
    let c = &results.correlation_global;
    let ranks: Vec<String> = results
        .rank_stabilization
        .iter()
        .map(|r| {
            format!(
                "{{\"r\":{},\"samples\":{},\"stabilized\":{}}}",
                r.r, r.samples, r.stabilized
            )
        })
        .collect();
    let results_json = format!(
        "{{\"epoch\":{epoch},\"dataset\":{{\"samples\":{},\"reports\":{}}},\
         \"s_samples\":{},\"s_reports\":{},\
         \"stability\":{{\"stable\":{},\"dynamic\":{}}},\
         \"window_growth\":{},\
         \"flips\":{{\"total\":{},\"up\":{},\"down\":{},\"hazard\":{}}},\
         \"correlation\":{{\"engine_count\":{},\"rows\":{},\"strong_pairs\":{},\"groups\":{}}},\
         \"rank_stabilization\":[{}]}}",
        results.dataset.total_samples(),
        results.dataset.total_reports(),
        results.s_samples,
        results.s_reports,
        results.stability.stable,
        results.stability.dynamic,
        json_f64(results.window_growth),
        results.flips.flips,
        results.flips.flips_up,
        results.flips.flips_down,
        results.flips.hazard_flips,
        c.engine_count,
        c.rows,
        c.strong_pairs.len(),
        c.groups.len(),
        ranks.join(","),
    );

    let engines: Vec<String> = (0..results.flips.engine_count)
        .map(|i| {
            let id = EngineId::new(i);
            let row = &results.flips.matrix[i];
            let flips: u64 = row.iter().map(|cell| cell.flips).sum();
            let opportunities: u64 = row.iter().map(|cell| cell.opportunities).sum();
            let ratio = if opportunities == 0 {
                0.0
            } else {
                flips as f64 / opportunities as f64
            };
            format!(
                "{{\"name\":{},\"flips\":{flips},\"opportunities\":{opportunities},\
                 \"flip_ratio\":{}}}",
                quoted(fleet.profile(id).name),
                json_f64(ratio)
            )
        })
        .collect();
    let engines_json = format!("{{\"epoch\":{epoch},\"engines\":[{}]}}", engines.join(","));

    // `RunMetrics::to_json` pretty-prints; the wire format is one line
    // per response. String values escape control characters, so every
    // literal newline in the rendering is structural whitespace.
    let metrics_json = format!(
        "{{\"epoch\":{epoch},\"metrics\":{}}}",
        metrics.to_json().replace('\n', " ")
    );

    let (debug_fnv, rho_fnv) = study_fingerprint(results);
    let fingerprint = format!(
        "{{\"epoch\":{epoch},\"ingest_done\":{},\
         \"fingerprint\":\"{debug_fnv:016x}\",\"rho_fnv\":\"{rho_fnv:016x}\"}}",
        ingest_done,
    );

    let engine_names: Vec<String> = (0..results.flips.engine_count)
        .map(|i| fleet.profile(EngineId::new(i)).name.to_string())
        .collect();
    let recommend = render_recommend(epoch, &slot_indexes, &results.flips, &engine_names);

    Snapshot {
        epoch,
        s_samples: results.s_samples,
        indexed: slot_indexes.iter().map(|i| i.len()).sum(),
        ingest_done,
        shards,
        results: results_json,
        engines: engines_json,
        metrics: metrics_json,
        fingerprint,
        slot_indexes,
        slot_epochs,
        flips: Arc::new(results.flips.clone()),
        engine_names: Arc::new(engine_names),
        alerts,
        recommend,
        degraded,
    }
}

/// The `recommend` verb, pre-rendered at publish: a Maat-style online
/// recommendation of (a) the Fig. 9 AV-Rank threshold whose label
/// sequences stabilized for the most fresh-dynamic samples so far —
/// the threshold that would have labeled the stream most accurately —
/// and (b) the engine subset whose flip ratio is at or below the
/// fleet-wide ratio (the engines whose labels move least per
/// opportunity, §7.1). Everything is summed from the per-slot §6
/// stabilization masks ([`SampleIndex::stab_counts_in_s`]), so the
/// counts equal the offline `label_stabilization_all` sweep bit for
/// bit, and ties break deterministically (lowest threshold; ratio then
/// name order for engines).
fn render_recommend(
    epoch: u64,
    slot_indexes: &[Arc<SampleIndex>],
    flips: &FlipAnalysis,
    engine_names: &[String],
) -> String {
    // Threshold sweep: sum each slot's in-S stabilization-mask counts.
    let mut counts = [0u64; FIG9_THRESHOLDS.len()];
    let mut in_s = 0u64;
    for index in slot_indexes {
        let (slot_counts, slot_in_s) = index.stab_counts_in_s();
        for (acc, c) in counts.iter_mut().zip(slot_counts) {
            *acc += c;
        }
        in_s += slot_in_s;
    }
    let best = (0..FIG9_THRESHOLDS.len())
        .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(b.cmp(&a)))
        .expect("FIG9_THRESHOLDS is nonempty");

    // Engine subset: flip ratio at or below the fleet-wide ratio,
    // compared exactly by cross-multiplication (no float thresholds).
    let per_engine: Vec<(usize, u64, u64)> = (0..flips.engine_count)
        .map(|i| {
            let row = &flips.matrix[i];
            let f: u64 = row.iter().map(|cell| cell.flips).sum();
            let o: u64 = row.iter().map(|cell| cell.opportunities).sum();
            (i, f, o)
        })
        .collect();
    let total_flips: u64 = per_engine.iter().map(|&(_, f, _)| f).sum();
    let total_opps: u64 = per_engine.iter().map(|&(_, _, o)| o).sum();
    let mut subset: Vec<&(usize, u64, u64)> = per_engine
        .iter()
        .filter(|&&(_, f, o)| {
            // f/o <= total_flips/total_opps  ⇔  f·TO <= TF·o
            o > 0 && (f as u128) * (total_opps as u128) <= (total_flips as u128) * (o as u128)
        })
        .collect();
    subset.sort_by(|&&(i, fi, oi), &&(j, fj, oj)| {
        ((fi as u128) * (oj as u128))
            .cmp(&((fj as u128) * (oi as u128)))
            .then_with(|| engine_names[i].cmp(&engine_names[j]))
    });
    let engines: Vec<String> = subset
        .iter()
        .map(|&&(i, f, o)| {
            format!(
                "{{\"name\":{},\"flips\":{f},\"opportunities\":{o},\"flip_ratio\":{}}}",
                quoted(&engine_names[i]),
                json_f64(f as f64 / o as f64),
            )
        })
        .collect();
    format!(
        "{{\"epoch\":{epoch},\"recommend\":{{\
         \"threshold\":{},\"stabilized\":{},\"in_s\":{in_s},\
         \"thresholds\":[{}],\
         \"engines\":[{}]}}}}",
        FIG9_THRESHOLDS[best],
        counts[best],
        FIG9_THRESHOLDS
            .iter()
            .zip(counts)
            .map(|(t, c)| format!("{{\"threshold\":{t},\"stabilized\":{c}}}"))
            .collect::<Vec<_>>()
            .join(","),
        engines.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_guard_edge_cases() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(quoted("a\"b\n"), "\"a\\\"b\\n\"");
    }

    #[test]
    fn empty_snapshot_renders_parseable_responses() {
        let config = ServeConfig::new(100, 7);
        let fleet = EngineFleet::with_seed(config.seed ^ 0xF1EE_7000);
        let snap = empty_snapshot(&config, &fleet);
        assert_eq!(snap.epoch, 0);
        let status = render_status(&snap, &ServeCounters::register(Obs::noop()));
        for doc in [
            &status,
            &snap.results,
            &snap.engines,
            &snap.metrics,
            &snap.fingerprint,
        ] {
            let v = crate::obs::json::parse(doc).expect("valid JSON");
            assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(0));
        }
        let v = crate::obs::json::parse(&snap.fingerprint).expect("valid JSON");
        assert_eq!(
            v.get("fingerprint").and_then(|f| f.as_str()).map(str::len),
            Some(16)
        );
    }

    #[test]
    fn merge_partitions_accumulates_by_month() {
        let a = PartitionStats {
            month: None,
            reports: 3,
            raw_bytes: 30,
            stored_bytes: 10,
        };
        let mut acc = vec![a];
        merge_partitions(&mut acc.clone(), &[]);
        merge_partitions(&mut acc, &[a, a]);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].reports, 9);
        assert_eq!(acc[0].stored_bytes, 30);
    }

    #[test]
    fn slot_routing_is_total_and_stable() {
        for ordinal in 0..512u64 {
            let hash = SampleHash::from_ordinal(ordinal);
            let slot = slot_of(hash);
            assert!(slot < INGEST_SLOTS);
            assert_eq!(slot, slot_of(hash), "routing must be pure");
        }
    }

    #[test]
    fn config_normalization_clamps() {
        let mut config = ServeConfig::new(10, 1);
        config.shards = 0;
        config.segment_reports = 0;
        config.max_clients = 0;
        let n = config.normalized();
        assert_eq!(n.shards, 1);
        assert_eq!(n.segment_reports, 1);
        assert_eq!(n.max_clients, 1);
        let mut config = ServeConfig::new(10, 1);
        config.shards = 64;
        assert_eq!(config.normalized().shards, INGEST_SLOTS);
    }

    fn bare_snapshot(epoch: u64) -> Snapshot {
        // Every slot stamped with the snapshot's own epoch — the
        // "everything changed" worst case the old wholesale-clearing
        // cache behaved like.
        bare_snapshot_with_slots(epoch, [epoch; INGEST_SLOTS])
    }

    fn bare_snapshot_with_slots(epoch: u64, slot_epochs: [u64; INGEST_SLOTS]) -> Snapshot {
        Snapshot {
            epoch,
            s_samples: 0,
            indexed: 0,
            ingest_done: false,
            shards: 1,
            results: String::new(),
            engines: String::new(),
            metrics: String::new(),
            fingerprint: String::new(),
            slot_indexes: empty_slot_indexes(),
            slot_epochs,
            flips: Arc::new(FlipAnalysis::empty(0)),
            engine_names: Arc::new(Vec::new()),
            alerts: Arc::new(Vec::new()),
            recommend: String::new(),
            degraded: false,
        }
    }

    /// A cacheable body as the lazy renderers produce one.
    fn body(epoch: u64, tag: &str) -> String {
        format!("{{\"epoch\":{epoch},\"tag\":\"{tag}\"}}")
    }

    #[test]
    fn cache_serves_hits_within_an_epoch_and_clears_on_swap() {
        let shared = Shared::new();
        let snap1 = bare_snapshot(1);
        let a = cached_response(&shared, 8, &snap1, "k", Some(0), || body(1, "one"));
        let b = cached_response(&shared, 8, &snap1, "k", Some(0), || body(1, "two"));
        assert_eq!(a, body(1, "one"));
        assert_eq!(b, body(1, "one"), "second is a hit");
        assert_eq!(shared.counters.cache_hits.value(), 1);
        assert_eq!(shared.counters.cache_misses.value(), 1);
        // Epoch swap that republished slot 0: the same key renders
        // fresh.
        let snap2 = bare_snapshot(2);
        let c = cached_response(&shared, 8, &snap2, "k", Some(0), || body(2, "three"));
        assert_eq!(c, body(2, "three"), "epoch swap invalidates");
        // A reader still pinning epoch 1 bypasses the cache entirely —
        // it neither serves nor stores stale entries.
        let d = cached_response(&shared, 8, &snap1, "k", Some(0), || body(1, "stale"));
        assert_eq!(d, body(1, "stale"));
        let e = cached_response(&shared, 8, &snap2, "k", Some(0), || body(2, "four"));
        assert_eq!(
            e,
            body(2, "three"),
            "epoch-2 entry survived the stale reader"
        );
    }

    #[test]
    fn cache_keeps_unchanged_slots_across_epoch_swaps() {
        let shared = Shared::new();
        // Epoch 3: slot 0 last changed at epoch 1, slot 1 at epoch 3.
        let mut slot_epochs = [0; INGEST_SLOTS];
        slot_epochs[0] = 1;
        slot_epochs[1] = 3;
        let snap3 = bare_snapshot_with_slots(3, slot_epochs);
        let a = cached_response(&shared, 8, &snap3, "a", Some(0), || body(3, "slot0"));
        let b = cached_response(&shared, 8, &snap3, "b", Some(1), || body(3, "slot1"));
        let c = cached_response(&shared, 8, &snap3, "c", None, || body(3, "study"));
        assert_eq!(
            (a, b, c),
            (body(3, "slot0"), body(3, "slot1"), body(3, "study"))
        );
        // Epoch 4 republishes only slot 1.
        slot_epochs[1] = 4;
        let snap4 = bare_snapshot_with_slots(4, slot_epochs);
        let a2 = cached_response(&shared, 8, &snap4, "a", Some(0), || body(4, "MISS"));
        assert_eq!(
            a2,
            body(4, "slot0"),
            "unchanged slot's entry survives the swap, re-stamped to the live epoch"
        );
        assert_eq!(shared.counters.cache_hits.value(), 1);
        let b2 = cached_response(&shared, 8, &snap4, "b", Some(1), || body(4, "fresh1"));
        assert_eq!(b2, body(4, "fresh1"), "dirty slot's entry was dropped");
        let c2 = cached_response(&shared, 8, &snap4, "c", None, || body(4, "fresh2"));
        assert_eq!(
            c2,
            body(4, "fresh2"),
            "whole-study entries drop every epoch"
        );
    }

    #[test]
    fn cache_never_serves_entries_across_a_degraded_transition() {
        let shared = Shared::new();
        let snap1 = bare_snapshot_with_slots(1, [1; INGEST_SLOTS]);
        cached_response(&shared, 8, &snap1, "k", Some(2), || body(1, "clean"));
        // Epoch 2 degrades without touching slot 2: the baked-in
        // (absent) degraded suffix no longer matches, so no hit.
        let mut snap2 = bare_snapshot_with_slots(2, [1; INGEST_SLOTS]);
        snap2.degraded = true;
        let got = cached_response(&shared, 8, &snap2, "k", Some(2), || body(2, "flagged"));
        assert_eq!(got, body(2, "flagged"));
        assert_eq!(shared.counters.cache_hits.value(), 0);
    }

    #[test]
    fn cache_evicts_least_recently_used_at_capacity() {
        let shared = Shared::new();
        let snap = bare_snapshot(1);
        let hit = |key: &str, tag: &str| {
            let want = body(1, tag);
            cached_response(&shared, 2, &snap, key, Some(0), || want.clone())
        };
        hit("a", "A");
        hit("b", "B");
        hit("a", "A2"); // touch a
        hit("c", "C"); // evicts b
        assert_eq!(hit("a", "A3"), body(1, "A"), "a stayed cached");
        assert_eq!(hit("b", "B2"), body(1, "B2"), "b was the LRU victim");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let shared = Shared::new();
        let snap = bare_snapshot(1);
        assert_eq!(
            cached_response(&shared, 0, &snap, "k", Some(0), || body(1, "x")),
            body(1, "x")
        );
        assert_eq!(
            cached_response(&shared, 0, &snap, "k", Some(0), || body(1, "y")),
            body(1, "y"),
            "nothing is retained"
        );
        assert_eq!(shared.counters.cache_hits.value(), 0);
    }

    #[test]
    fn epoch_tail_splits_only_wellformed_prefixes() {
        assert_eq!(epoch_tail("{\"epoch\":17,\"x\":1}"), Some(",\"x\":1}"));
        assert_eq!(epoch_tail("{\"epoch\":0}"), Some("}"));
        assert_eq!(epoch_tail("{\"epoch\":}"), None);
        assert_eq!(epoch_tail("{\"other\":1}"), None);
        assert_eq!(splice_epoch(42, ",\"x\":1}"), "{\"epoch\":42,\"x\":1}");
    }

    #[test]
    fn lazy_renderers_answer_missing_hashes_and_empty_indexes() {
        let snap = bare_snapshot(3);
        let hash = SampleHash::from_ordinal(7);
        let sample = crate::obs::json::parse(&render_sample(&snap, hash)).expect("json");
        assert_eq!(sample.get("epoch").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(sample.get("found").and_then(|v| v.as_bool()), Some(false));
        let stab = crate::obs::json::parse(&render_stabilized(&snap, hash, 10)).expect("json");
        assert_eq!(stab.get("found").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(stab.get("threshold").and_then(|v| v.as_u64()), Some(10));
        let leaders = crate::obs::json::parse(&render_flip_leaders(&snap, 5)).expect("json");
        assert_eq!(
            leaders
                .get("leaders")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(0)
        );
    }

    /// The published fingerprint is a function of the finished study
    /// only — merging the slot partials through the cached
    /// [`SlotMergeTree`] must produce the same bits as the flat
    /// left-to-right slot merge the daemon used to do, at every fold
    /// worker count.
    #[test]
    fn tree_merged_fingerprint_matches_flat_slot_merge() {
        let samples = 600u64;
        let sim = VirusTotalSim::new(SimConfig::new(0xF1A7, samples));
        let feed = FaultyFeed::from_sim(&sim, 0..samples, FaultPlan::clean(0xF1A7));
        let outcome = Collector::default().run(feed);
        let records = crate::dynamics::records_from_store(&outcome.store);
        let ws = sim.config().window_start();
        let mut slot_records: Vec<Vec<_>> = vec![Vec::new(); INGEST_SLOTS];
        for r in &records {
            slot_records[slot_of(r.meta.hash)].push(r.clone());
        }
        let mut fingerprints = Vec::new();
        for fold_workers in [1usize, 2] {
            let mut studies: Vec<IncrementalStudy<'_>> = (0..INGEST_SLOTS)
                .map(|_| IncrementalStudy::new(sim.fleet(), ws).with_workers(fold_workers))
                .collect();
            let mut tree = SlotMergeTree::new(INGEST_SLOTS);
            for (slot, recs) in slot_records.iter().enumerate() {
                for seg in recs.chunks(recs.len().div_ceil(2).max(1)) {
                    studies[slot].fold_segment(seg, Obs::noop());
                }
                tree.update_slot(slot, studies[slot].partials().cloned(), Vec::new());
            }
            let flat = studies
                .iter()
                .filter_map(|st| st.partials().cloned())
                .reduce(StudyPartials::merge)
                .expect("the fixture folds at least one slot");
            let tree_results = tree
                .root()
                .expect("tree accumulated")
                .finish(Vec::new(), Obs::noop());
            let flat_results = flat.finish(Vec::new(), Obs::noop());
            let fp = study_fingerprint(&tree_results);
            assert_eq!(
                fp,
                study_fingerprint(&flat_results),
                "tree merge must publish the flat merge's bits (fold_workers={fold_workers})"
            );
            fingerprints.push(fp);
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "fold parallelism must never show in the fingerprint"
        );
    }

    #[test]
    fn fingerprint_ignores_stage_timings_only() {
        let fleet = EngineFleet::with_seed(42);
        let window_start = SimConfig::new(42, 10).window_start();
        let study = IncrementalStudy::new(&fleet, window_start);
        let mut a = study.results(Vec::new(), Obs::noop());
        let b = study.results(Vec::new(), Obs::noop());
        let fp_a = study_fingerprint(&a);
        assert_eq!(fp_a, study_fingerprint(&b), "same study, same fingerprint");
        a.s_samples += 1;
        assert_ne!(fp_a, study_fingerprint(&a), "results changes must show");
    }
}
