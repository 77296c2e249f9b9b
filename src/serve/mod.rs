//! `vtld serve` — the long-running label-dynamics daemon, hardened.
//!
//! The batch CLI answers one question and exits; `serve` keeps the
//! whole measurement *live*, and survives what a long-running service
//! meets in practice: crashes, slow or hostile clients, and overload.
//! It is five layers along the data flow, each a private module with
//! one context struct (a layer's context embeds the next layer's, so
//! the outermost one is all the shared state there is) and its own unit
//! tests; a layer names only the layers to its right:
//!
//! ```text
//! conn → render → publish → fold → ingest
//! ```
//!
//! * `ingest` — feed → sealed segments, handed to a callback. Simulated
//!   chaos feed through the collector, hash-routed into
//!   [`INGEST_SLOTS`] slot streams; with `--data-dir` one `seal` step
//!   fsyncs each segment into a [`crate::store::SegmentDir`] before it
//!   emits it (the segment log is the WAL), and `recover` replays that
//!   log first through the same callback, so the workers fold while it
//!   reads.
//! * `fold` — segments → slot updates. `shards` workers fold each
//!   slot's stream into worker-local
//!   [`crate::dynamics::StudyPartials`], a
//!   [`crate::dynamics::SampleIndex`] and (by default) the four
//!   streaming drift detectors' alerts, and send the merger one message
//!   per fold carrying that fold's partials, index and alerts. No state
//!   is shared between a worker and the merger: nothing to lock, nothing
//!   to poison. A worker that ends, returned or panicked, drops its
//!   sender; that is its only goodbye.
//! * `publish` — slot updates → `Arc<Snapshot>`. The merger is a sum
//!   over its channel: it starts at the empty study (epoch 0, built once
//!   at start) and adds each update's delta — one merge per fold, in
//!   arrival order, the same sum in any order and so at any shard count —
//!   pushes each update's index onto its slot's compacted chunk list
//!   ([`crate::dynamics::IndexChunks`]), and swaps a copy of the sum and
//!   the lists' chunk pointers in as the next epoch's snapshot, nothing
//!   rendered, through the **publish seam**: the one place readers pin
//!   a snapshot and the one thing a `subscribe` stream waits on (publish
//!   and shutdown are its only wake-ups). The copy is finished into
//!   results once: before the swap if readers asked the last snapshot
//!   for results, else by the first request that needs them. When the
//!   channel closes, the last worker gone, it publishes the final
//!   snapshot. Alerts leave the daemon through the merger's sink callback.
//! * `render` — snapshot → bytes, on request. Per-hash answers are
//!   rendered per request; each aggregate document, and the
//!   `flip_leaders` ranking, once per snapshot by the first request
//!   that asks, into a cell that lives and dies with that snapshot. A
//!   response is a function of the snapshot it pinned (`status` and
//!   `metrics` also read the live registry), so nothing is cached
//!   across epochs and nothing is invalidated.
//! * `conn` — sockets ↔ lines. Admission cap, read/write deadlines, an
//!   exact request-line bound, typed `overloaded`/`evicted` responses,
//!   and dispatch of each parsed request.
//!
//! Beside them sit three leaves any layer may use: `wire` (the typed
//! request enum, error strings and alert bodies), `sink` (the
//! `--alerts-out` / `--alerts-tcp` connectors) and `counters` (the
//! daemon's one book of `serve/*` registry handles). This file is the
//! rest: [`ServeConfig`], [`Server`], and the thread wiring.
//!
//! No step spawns a thread. [`Server::start`] runs each on its own, the
//! feeder's callback sending into bounded shard queues and the workers
//! into a bounded merge queue (a full one blocks its sender:
//! backpressure, never loss), and the merger's sink callback into the
//! TCP connector's (a full one drops the batch, counted); `serve::tests`
//! runs them one after another on one thread.
//!
//! Because every stage's Partial algebra satisfies
//! `merge(fold(x), fold(y)) == fold(x ++ y)` bit-identically, a daemon
//! killed mid-ingest and recovered converges to a snapshot
//! bit-identical to the never-killed run's, at any shard × worker count
//! (`tests/serve_chaos.rs`). A shutdown is a crash that loses nothing:
//! the feeder seals nothing unfilled (`recover` re-ingests it), workers
//! fold what is queued, and the merger publishes a final snapshot.
//!
//! ## Wire protocol
//!
//! One JSON object per line, both directions. Requests:
//! `{"cmd":"status"}`, `{"cmd":"results"}`, `{"cmd":"engines"}`,
//! `{"cmd":"metrics"}`, `{"cmd":"fingerprint"}`, `{"cmd":"shutdown"}`,
//! the per-hash verbs `{"cmd":"sample","hash":H}`,
//! `{"cmd":"stabilized","hash":H,"threshold":T}`,
//! `{"cmd":"engine","name":N}` and `{"cmd":"flip_leaders","k":K}`,
//! plus the alerting verbs `{"cmd":"alerts","since":E}`,
//! `{"cmd":"subscribe"}` and `{"cmd":"recommend"}`.
//! Every response carries the snapshot's `"epoch"`; malformed input gets
//! an `"error"` member, overload gets `"overloaded":true` and eviction
//! gets `"evicted":true`. See `DESIGN.md` §§10.3–12 and §15 for the
//! full schema.

mod conn;
mod counters;
mod fold;
mod ingest;
mod publish;
mod render;
mod sink;
#[cfg(test)]
mod tests;
mod wire;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::dynamics::{par, AlertConfig};
use crate::sim::fault::FaultPlan;
use crate::store::SegmentDir;

/// Fixed number of hash-partition slots accepted samples are routed
/// through. Slots — not shard workers — key the segment streams, the
/// per-slot indexes and the alerts, so nothing published depends on the
/// shard count; `shards` only decides how many threads fold the slot
/// streams. Fixed so a data dir written at one shard count recovers
/// correctly at another.
pub const INGEST_SLOTS: usize = 8;

/// Maximum request line length in bytes, the newline excluded; a longer
/// line evicts its connection.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Sealed segments allowed in flight per shard worker before the feeder
/// blocks (the backpressure bound).
const SHARD_QUEUE_SEGMENTS: usize = 4;

/// Slot updates queued between the shard workers and the merger before
/// a worker blocks: a worker folds its next segment while the merger
/// merges its last. Each update holds one fold's partials and index, so
/// the bound keeps a `--recover` replay, whose folds outrun the merger,
/// at live ingest's peak.
const MERGE_QUEUE_UPDATES: usize = 1;

/// Everything `vtld serve` needs to run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Samples the simulated feed delivers before ingestion completes.
    pub samples: u64,
    /// Platform seed (fleet seed derived as in
    /// [`crate::sim::SimConfig::new`]).
    pub seed: u64,
    /// Reports per sealed segment (the incremental fold granularity),
    /// per slot stream.
    pub segment_reports: u64,
    /// Worker threads inside each per-segment fold (clamped to
    /// `1..=`[`par::MAX_WORKERS`]).
    pub workers: usize,
    /// Shard worker threads folding the slot streams (clamped to
    /// `1..=`[`INGEST_SLOTS`]).
    pub shards: usize,
    /// Bind address, e.g. `127.0.0.1:7311` (port 0 picks one).
    pub addr: String,
    /// Fault injection applied to the feed (the daemon ingests through
    /// the same collector the chaos tests exercise). Any plan is served:
    /// the collector holds reports as long as the plan's own lateness
    /// bound.
    pub plan: FaultPlan,
    /// Segment write-ahead-log directory. `None` runs in-memory (no
    /// durability, no recovery).
    pub data_dir: Option<PathBuf>,
    /// Replay the data dir's sealed segments on startup and resume
    /// ingest past them. Requires `data_dir`. Without it, a data dir
    /// that already holds segments refuses to start (instead of
    /// silently interleaving two runs' streams); with it, so does a data
    /// dir written under another `seed` or `samples`.
    pub recover: bool,
    /// Concurrent connections admitted before new clients are shed with
    /// a typed `overloaded` response.
    pub max_clients: usize,
    /// Per-connection read deadline: a client that sends nothing for
    /// this long is evicted (typed response, connection closed).
    pub read_timeout: Duration,
    /// Run the streaming drift detectors alongside every slot fold
    /// (the `alerts`/`subscribe`/`recommend` verbs answer either way;
    /// with detectors off the alert stream is empty).
    pub alerts: bool,
    /// Detector tuning shared by every slot (each worker stamps its own
    /// slot id into its copy).
    pub alert_config: AlertConfig,
    /// JSONL alert sink: every fired alert appended as one JSON line,
    /// exactly-once across crash recovery.
    pub alerts_out: Option<PathBuf>,
    /// Webhook-shaped TCP alert sink (`host:port`) with retry/backoff;
    /// a batch whose write failed is resent whole.
    pub alerts_tcp: Option<String>,
}

impl ServeConfig {
    /// A config with the daemon defaults: ephemeral localhost port,
    /// 20k-report segments, one shard, default fold workers, 256-client
    /// cap, a 10s read deadline, in-memory (no data dir), and a lightly
    /// chaotic feed (1% duplicates, 5% of entries up to 30 minutes
    /// late).
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
            alerts: true,
            alert_config: AlertConfig::default(),
            alerts_out: None,
            alerts_tcp: None,
        }
    }

    /// Clamps the tunables into their valid ranges, the one place that does.
    pub fn normalized(mut self) -> Self {
        self.segment_reports = self.segment_reports.max(1);
        self.workers = self.workers.clamp(1, par::MAX_WORKERS);
        self.shards = self.shards.clamp(1, INGEST_SLOTS);
        self.max_clients = self.max_clients.max(1);
        self
    }
}

/// A running `vtld serve` daemon: feeder, shard fleet, merger and
/// accept threads, plus the published snapshot they share.
pub struct Server {
    addr: SocketAddr,
    /// The outermost thread context; it embeds the `fold` and `ingest`
    /// ones, so this is everything the daemon threads share.
    daemon: Arc<publish::PublishCtx>,
    /// Every daemon thread; the feeder's error, if one ended the feed,
    /// is its handle's result, and every other thread returns `Ok`.
    threads: Vec<JoinHandle<std::io::Result<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl Server {
    /// Opens the data dir and pins it to this feed (on `recover`,
    /// refusing a dir another feed wrote), opens the `--alerts-out`
    /// file, binds the listener, publishes the epoch-0 (empty study)
    /// snapshot, and starts the feeder, shard, merger and accept threads
    /// (and, with `--alerts-tcp`, the TCP connector's).
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
                let feed = format!("seed={} samples={}", config.seed, config.samples);
                dir.pin_feed(&feed, config.recover)?;
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
        // Opened before any thread starts, so a sink the daemon cannot
        // open fails the start where the caller sees it; before the bind,
        // so the listener is not taken for a start that fails.
        let (mut sinks, tcp) = if config.alerts {
            let (out, tcp) = (config.alerts_out.as_deref(), config.alerts_tcp.as_deref());
            sink::Sinks::open(out, tcp, config.recover)?
        } else {
            Default::default()
        };

        let listener = TcpListener::bind(&config.addr).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot bind {}: {e}", config.addr))
        })?;
        let addr = listener.local_addr()?;
        let fold = fold::FoldCtx::new(config);
        // The empty study, built once: the merger's sum starts at it, and
        // epoch 0 is it finished.
        let merger = publish::MergerState::new(&fold);
        let seam = Arc::new(publish::Seam::new(publish::empty_epoch(&fold, &merger)));
        let daemon = Arc::new(publish::PublishCtx { fold, seam });
        let (config, counters) = (&daemon.fold.ingest.config, &daemon.fold.ingest.counters);
        let conn = Arc::new(conn::ConnCtx {
            config: config.clone(),
            seam: Arc::clone(&daemon.seam),
            counters: counters.clone(),
            obs: Arc::clone(&daemon.fold.ingest.obs),
            active_clients: AtomicU64::new(0),
        });

        let mut threads = Vec::new();

        // The TCP connector is the one sink thread, behind the bounded
        // queue the merger's `sinks` feeds without waiting; it exits after
        // the final publish, when the merger drops `sinks`, and stops
        // retrying once a shutdown is requested.
        if let Some(tcp) = tcp {
            let (seam, c) = (Arc::clone(&daemon.seam), counters.clone());
            threads.push(std::thread::spawn(move || {
                let stop = || seam.shutdown_requested();
                sink::tcp_loop(tcp, stop, &c.alerts_emitted, &c.alerts_dropped);
                Ok(())
            }));
        }

        // Each worker's sender drops when its thread ends, returned or
        // panicked; the merger's channel closes with the last.
        let (merge_tx, merge_rx) = sync_channel::<Box<fold::SlotUpdate>>(MERGE_QUEUE_UPDATES);
        let mut shard_txs = Vec::new();
        for _ in 0..config.shards {
            let (tx, rx) = sync_channel::<ingest::SegmentMsg>(SHARD_QUEUE_SEGMENTS);
            shard_txs.push(tx);
            let (d, merge_tx) = (Arc::clone(&daemon), merge_tx.clone());
            threads.push(std::thread::spawn(move || {
                fold::shard_worker(&d.fold, &rx, &merge_tx);
                Ok(())
            }));
        }
        drop(merge_tx);

        // The merger writes the alerts file itself, before each publish.
        let d = Arc::clone(&daemon);
        threads.push(std::thread::spawn(move || {
            let c = &d.fold.ingest.counters;
            let deliver = |msg| sinks.deliver(msg, &c.alerts_emitted, &c.alerts_dropped);
            publish::merger_loop(&d, merger, &merge_rx, deliver);
            Ok(())
        }));
        threads.push(std::thread::spawn(move || {
            conn::accept_loop(&listener, &conn);
            Ok(())
        }));
        // The feeder last: it alone starts CPU-bound, and on two cores a
        // thread created after it queues behind it for a scheduler slice.
        let d = Arc::clone(&daemon);
        threads.push(std::thread::spawn(move || {
            let (fold, seam) = (&d.fold, &d.seam);
            // Hands one sealed segment to its slot's shard worker,
            // blocking while the bounded queue is full; `false` once the
            // worker is gone (it panicked), which stops the feeder. The
            // feeder drops it on return, and with it the senders, which
            // is what lets the workers drain their queues and exit.
            let emit = move |msg: ingest::SegmentMsg| {
                fold.enqueued();
                let sent = shard_txs[msg.slot % shard_txs.len()].send(msg).is_ok();
                if !sent {
                    fold.dequeued();
                }
                sent
            };
            let stop = || seam.shutdown_requested();
            let fed = ingest::run(&fold.ingest, stop, segdir, emit);
            if fed.is_err() {
                shut_down(seam, addr);
            }
            fed
        }));
        Ok(Server {
            addr,
            daemon,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.daemon.seam.current().epoch
    }

    /// Signals shutdown: the feeder stops at the next boundary, sealing
    /// nothing unfilled, workers fold what is queued, the merger
    /// publishes a final snapshot, and the accept loop exits.
    /// Idempotent; does not wait (see [`wait`](Self::wait)).
    pub fn shutdown(&self) {
        shut_down(&self.daemon.seam, self.addr);
    }

    /// Blocks until every daemon thread exits (after
    /// [`shutdown`](Self::shutdown), feed exhaustion plus a client's
    /// `shutdown` command, or a fatal ingest error), and returns what
    /// ended the daemon abnormally: the feeder's fatal error (a failed
    /// recovery replay or persist, a shard worker gone) or a thread's
    /// panic. `None` is a clean exit, a stop mid-feed included.
    pub fn wait(mut self) -> Option<std::io::Error> {
        let mut failure = None;
        for handle in self.threads.drain(..) {
            let error = match handle.join() {
                Ok(ended) => ended.err(),
                Err(_) => Some(std::io::Error::other("a daemon thread panicked")),
            };
            failure = failure.or(error);
        }
        failure
    }
}

/// Requests the daemon's shutdown, and wakes the accept loop on `addr`,
/// which may be parked in accept() with no client to come.
fn shut_down(seam: &publish::Seam, addr: SocketAddr) {
    seam.request_shutdown();
    let _ = TcpStream::connect(addr);
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}
