//! The five untraced workloads. Each drives the real `vtld` binary as a
//! child process, measures for about `seconds` of wall-clock, checks
//! what came back, and fills the uniform end-to-end vector plus the
//! workload-specific readings that ride in the per-layer list.

use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

use vt_label_dynamics::dynamics::stabilization::FIG9_THRESHOLDS;
use vt_label_dynamics::model::EngineId;
use vt_label_dynamics::obs::json::Value;
use vt_label_dynamics::sim::{SimConfig, VirusTotalSim};

use crate::calibrate::{Calibrator, REFERENCE_S};
use crate::child::{cpu_s, dir_bytes, peak_rss_mb, Conn, Daemon, Vtld};
use crate::metrics::Values;
use crate::stats::{median, pacer_due_ns, percentile, tail_quantile, Rng, Zipf};

/// Input sizes. The defaults are scaled (from the issue's 200 k / 600 k)
/// so that one run with its set-up fits the contract's time cap and
/// every timed repetition is short enough for the median to shrug off
/// this box's bursts; `--quick` divides them by ten.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub study_samples: u64,
    pub analyze_samples: u64,
    pub serve_samples: u64,
    pub query_samples: u64,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Fewest timed repetitions of a child run, whatever `--seconds`.
    pub min_reps: usize,
}

impl Sizes {
    pub const DEFAULT: Sizes = Sizes {
        study_samples: 50_000,
        analyze_samples: 150_000,
        serve_samples: 50_000,
        query_samples: 100_000,
        setup_reps: 3,
        min_reps: 3,
    };

    pub fn quick() -> Sizes {
        let d = Sizes::DEFAULT;
        Sizes {
            study_samples: d.study_samples / 10,
            analyze_samples: d.analyze_samples / 10,
            serve_samples: d.serve_samples / 10,
            query_samples: d.query_samples / 10,
            setup_reps: 1,
            min_reps: 1,
        }
    }
}

/// Reports per sealed segment, per workload (fixed by the issue).
pub const DURABLE_SEGMENT_REPORTS: u64 = 4_000;
pub const MIXED_SEGMENT_REPORTS: u64 = 2_000;
pub const QUERY_SEGMENT_REPORTS: u64 = 4_000;
/// The open-loop reader's rate on `serve_mixed`.
const PACED_PERIOD_NS: u64 = 1_000_000;
/// A paced send counts as late past this.
const LATE_NS: u64 = 100_000;
/// How long before a paced send's due time the pacer stops sleeping and
/// spins.
const PACER_SPIN: Duration = Duration::from_micros(200);

pub struct Ctx<'a> {
    pub vtld: &'a Vtld,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Timed before every repetition that is reported in reference
    /// seconds; see [`crate::calibrate`].
    pub cal: RefCell<Calibrator>,
}

impl Ctx<'_> {
    /// Feeds one run draws its inputs from. Work per sample varies by
    /// some 5% from seed to seed (reports per sample are heavy-tailed),
    /// so every repetition cycles through this many seeds derived from
    /// `--seed` and the medians see all of them.
    fn feeds(&self) -> usize {
        self.sizes.setup_reps
    }

    /// Times the calibration kernel, while no child is busy; returns the
    /// multiplier to reference seconds for the repetition that follows.
    fn calibrate(&self) -> f64 {
        self.cal.borrow_mut().factor_now()
    }

    /// The `vtld --seed` of feed `i`; distinct `--seed`s give disjoint
    /// feeds.
    pub fn feed_seed(&self, i: usize) -> u64 {
        let feeds = self.feeds() as u64;
        self.seed.wrapping_mul(feeds).wrapping_add(i as u64 % feeds)
    }
}

/// Attempted and failed operations (child runs and requests).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation and the problems found with it.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.notes.len() < 8 {
                    self.notes.push(p);
                }
            }
        }
    }

    /// One checked request; `None` (and a failed operation) on any
    /// problem.
    fn ask(&mut self, conn: &mut Conn, request: &str) -> Option<Value> {
        match conn.ask(request) {
            Ok(v) => {
                self.record(Vec::new());
                Some(v)
            }
            Err(e) => {
                self.record(vec![format!("{request}: {e}")]);
                None
            }
        }
    }
}

/// Repetitions of one timing: what the clock read, and the multiplier
/// to reference seconds taken just before each.
#[derive(Default)]
struct Reps(Vec<(f64, f64)>);

impl Reps {
    fn push(&mut self, measured_s: f64, factor: f64) {
        self.0.push((measured_s, factor));
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Median of the measured seconds.
    fn raw_s(&self) -> f64 {
        median(&self.0.iter().map(|&(s, _)| s).collect::<Vec<_>>())
    }

    /// Median of the repetitions in reference seconds, each scaled by
    /// its own factor.
    fn reference_s(&self) -> f64 {
        median(&self.0.iter().map(|&(s, f)| s * f).collect::<Vec<_>>())
    }
}

/// Sets a gated timing and, beside it as `raw.<name>`, the same
/// statistic of the unscaled readings (equal where the timing is not
/// normalised): BASELINE.json compares the spread of the two.
fn set_gated(values: &mut Values, name: &str, value: f64, raw: f64, samples: usize) {
    values.set(name, value, samples);
    values.set(&format!("raw.{name}"), raw, samples);
}

pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// Human-readable extras (min/max, tail percentiles, sample counts).
    pub info: Vec<String>,
    /// Fingerprint of each feed's final snapshot, for cross-workload
    /// comparison.
    pub fingerprints: Vec<Option<String>>,
}

/// Closes a workload: the failure ratio and the calibration record.
fn finish(
    ctx: &Ctx,
    mut tally: Tally,
    mut values: Values,
    mut info: Vec<String>,
    fingerprints: Vec<Option<String>>,
) -> Outcome {
    if tally.attempted == 0 {
        tally.record(vec!["no operation was attempted".into()]);
    }
    values.set(
        "failed_ratio",
        tally.failed as f64 / tally.attempted as f64,
        0,
    );
    let gated: Vec<String> = ["throughput_per_s", "latency_p50_ms", "setup_s"]
        .iter()
        .map(|name| format!("{name} {}", values.get(&format!("raw.{name}"))))
        .collect();
    let cal = ctx.cal.borrow();
    let mut line = format!("measured (not reference) seconds: {};", gated.join(", "));
    if cal.samples() > 0 {
        let kernel_s = cal.kernel_s();
        values.set("calibration.kernel_ms", kernel_s * 1e3, cal.samples());
        values.set("calibration.factor", REFERENCE_S / kernel_s, cal.samples());
        line.push_str(&format!(
            " kernel median {:.2} ms over {} timings",
            kernel_s * 1e3,
            cal.samples()
        ));
    }
    info.push(line);
    Outcome {
        tally,
        values,
        info,
        fingerprints,
    }
}

/// `samples / seconds`, 0 for no time at all.
fn per_second(samples: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        samples as f64 / seconds
    } else {
        0.0
    }
}

/// Ingest throughput from the spawn->`ingest_done` walls, under both
/// its names. Not normalised: the feeder, the shard worker and the
/// merger contend for two vCPUs, and the regimes that sets (36 k vs 45 k
/// samples/s for minutes at a time) do not follow the calibration
/// kernel: scaling by it narrowed the ten-seed spread in two series and
/// widened it in two.
fn ingest_values(values: &mut Values, samples: u64, ingests: &[f64]) -> f64 {
    let ingest = median(ingests);
    let rate = per_second(samples, ingest);
    set_gated(values, "throughput_per_s", rate, rate, ingests.len());
    values.set("ingest_samples_per_s", rate, ingests.len());
    ingest
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn fleet_seed(seed: u64) -> u64 {
    seed ^ 0xF1EE_7000
}

// ---- batch ----------------------------------------------------------

/// Runs one batch child as one operation: exit status 0, non-empty
/// stdout, and stdout byte-identical to `reference` (set by the first
/// run that gets here). Pushes the wall-clock onto `walls` and returns
/// the peak RSS.
fn batch_op(
    ctx: &Ctx,
    tally: &mut Tally,
    args: &[String],
    reference: &mut Option<Vec<u8>>,
    walls: &mut Reps,
) -> Option<f64> {
    let factor = ctx.calibrate();
    match ctx.vtld.run_batch(args) {
        Err(e) => {
            tally.record(vec![e]);
            None
        }
        Ok(run) => {
            let mut problems = Vec::new();
            if !run.ok {
                problems.push(format!("vtld {} exited non-zero", args[0]));
            }
            if run.stdout.is_empty() {
                problems.push(format!("vtld {} printed nothing", args[0]));
            }
            match reference {
                Some(expected) if *expected != run.stdout => {
                    problems.push(format!("vtld {} stdout differs between runs", args[0]));
                }
                Some(_) => {}
                None => *reference = Some(run.stdout),
            }
            let failed = !problems.is_empty();
            tally.record(problems);
            if failed {
                return None;
            }
            walls.push(run.wall_s, factor);
            Some(run.rss_mb)
        }
    }
}

/// Repeats the command, cycling through the feeds, until `seconds` have
/// passed (and at least `min_reps` runs were made), then fills the
/// batch readings.
fn timed_batch(
    ctx: &Ctx,
    tally: &mut Tally,
    values: &mut Values,
    info: &mut Vec<String>,
    samples: u64,
    args_of: impl Fn(usize) -> Vec<String>,
    references: &mut [Option<Vec<u8>>],
) {
    let started = Instant::now();
    let mut walls = Reps::default();
    let mut rss = 0.0f64;
    while walls.len() < ctx.sizes.min_reps || started.elapsed().as_secs_f64() < ctx.seconds {
        let feed = walls.len() % references.len();
        let Some(mb) = batch_op(
            ctx,
            tally,
            &args_of(feed),
            &mut references[feed],
            &mut walls,
        ) else {
            break;
        };
        rss = rss.max(mb);
    }
    let (wall, raw) = (walls.reference_s(), walls.raw_s());
    values.set("wall_s", raw, walls.len());
    set_gated(values, "latency_p50_ms", wall * 1e3, raw * 1e3, walls.len());
    set_gated(
        values,
        "throughput_per_s",
        per_second(samples, wall),
        per_second(samples, raw),
        walls.len(),
    );
    values.set("peak_rss_mb", rss, walls.len());
    let measured = walls.0.iter().map(|&(s, _)| s);
    info.push(format!(
        "wall_s over {} runs: min {:.4} median {raw:.4} max {:.4}",
        walls.len(),
        measured.clone().fold(f64::INFINITY, f64::min),
        measured.fold(0.0, f64::max)
    ));
}

fn set_setup(values: &mut Values, setup: &Reps) {
    set_gated(
        values,
        "setup_s",
        setup.reference_s(),
        setup.raw_s(),
        setup.len(),
    );
}

/// `vtld study --workers 2`, timed; set-up is the same job at
/// `--workers 1` on each feed (the single-threaded baseline, and the
/// reference every timed run's stdout must equal byte for byte).
pub fn batch_study(ctx: &Ctx) -> Outcome {
    let (mut tally, mut values, mut info) = (Tally::default(), Values::default(), Vec::new());
    let n = ctx.sizes.study_samples.to_string();
    let args = |feed: usize, workers: &str| {
        strings(&[
            "study",
            "--samples",
            &n,
            "--seed",
            &ctx.feed_seed(feed).to_string(),
            "--workers",
            workers,
        ])
    };
    let mut references = vec![None; ctx.feeds()];
    let mut setup = Reps::default();
    for (feed, reference) in references.iter_mut().enumerate() {
        batch_op(ctx, &mut tally, &args(feed, "1"), reference, &mut setup);
    }
    set_setup(&mut values, &setup);
    timed_batch(
        ctx,
        &mut tally,
        &mut values,
        &mut info,
        ctx.sizes.study_samples,
        |feed| args(feed, "2"),
        &mut references,
    );
    finish(ctx, tally, values, info, Vec::new())
}

/// `vtld analyze --workers 2` on persisted feeds, timed; set-up is the
/// `vtld simulate` that writes each feed.
pub fn batch_analyze(ctx: &Ctx) -> Outcome {
    let (mut tally, mut values, mut info) = (Tally::default(), Values::default(), Vec::new());
    let path = |feed: usize| {
        ctx.vtld
            .path(&format!("feed-{feed}.vtstore"))
            .to_string_lossy()
            .into_owned()
    };
    let mut setup = Reps::default();
    let (mut reports, mut bytes) = (0u64, 0u64);
    for feed in 0..ctx.feeds() {
        let simulate = strings(&[
            "simulate",
            "--samples",
            &ctx.sizes.analyze_samples.to_string(),
            "--seed",
            &ctx.feed_seed(feed).to_string(),
            "--out",
            &path(feed),
        ]);
        let mut stdout = None;
        batch_op(ctx, &mut tally, &simulate, &mut stdout, &mut setup);
        // "wrote R reports / S samples to ..."
        reports += stdout
            .as_deref()
            .map(String::from_utf8_lossy)
            .and_then(|text| text.split_whitespace().nth(1)?.parse::<u64>().ok())
            .unwrap_or(0);
        bytes += std::fs::metadata(path(feed)).map(|m| m.len()).unwrap_or(0);
    }
    set_setup(&mut values, &setup);
    if reports == 0 || bytes == 0 {
        tally.record(vec!["simulate left no readable feed".into()]);
    } else {
        values.set("store_bytes_per_report", bytes as f64 / reports as f64, 0);
    }

    let args = |feed: usize, workers: &str| {
        strings(&[
            "analyze",
            "--store",
            &path(feed),
            "--fleet-seed",
            &fleet_seed(ctx.feed_seed(feed)).to_string(),
            "--workers",
            workers,
        ])
    };
    let mut references = vec![None; ctx.feeds()];
    for (feed, reference) in references.iter_mut().enumerate() {
        batch_op(
            ctx,
            &mut tally,
            &args(feed, "1"),
            reference,
            &mut Reps::default(),
        );
    }
    timed_batch(
        ctx,
        &mut tally,
        &mut values,
        &mut info,
        ctx.sizes.analyze_samples,
        |feed| args(feed, "2"),
        &mut references,
    );
    for feed in 0..ctx.feeds() {
        let _ = std::fs::remove_file(path(feed));
    }
    finish(ctx, tally, values, info, Vec::new())
}

// ---- serve ----------------------------------------------------------

fn serve_args(
    seed: u64,
    samples: u64,
    segment_reports: u64,
    data_dir: Option<&Path>,
    recover: bool,
) -> Vec<String> {
    let mut args = strings(&[
        "--samples",
        &samples.to_string(),
        "--seed",
        &seed.to_string(),
        "--segment-reports",
        &segment_reports.to_string(),
        "--shards",
        "1",
        "--workers",
        "1",
    ]);
    if let Some(dir) = data_dir {
        args.push("--data-dir".into());
        args.push(dir.to_string_lossy().into_owned());
    }
    if recover {
        args.push("--recover".into());
    }
    args
}

fn is_done(status: &Value) -> bool {
    status.get("ingest_done").and_then(Value::as_bool) == Some(true)
}

fn u64_member(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// What one daemon run, from spawn to a complete ingest, showed.
struct Ingested {
    daemon: Daemon,
    conn: Conn,
    boot_s: f64,
    wall_s: f64,
    status: Value,
}

/// Spawns a daemon and polls `status` on one connection until
/// `ingest_done`, timing both from the spawn.
fn ingest_to_done(
    ctx: &Ctx,
    tally: &mut Tally,
    args: &[String],
    poll: Duration,
) -> Option<Ingested> {
    let daemon = match Daemon::spawn(ctx.vtld, args) {
        Ok(d) => d,
        Err(e) => {
            tally.record(vec![e]);
            return None;
        }
    };
    let mut conn = match Conn::open(daemon.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record(vec![e]);
            return None;
        }
    };
    let mut status = tally.ask(&mut conn, "{\"cmd\":\"status\"}")?;
    let boot_s = daemon.spawned.elapsed().as_secs_f64();
    while !is_done(&status) {
        std::thread::sleep(poll);
        status = tally.ask(&mut conn, "{\"cmd\":\"status\"}")?;
    }
    let wall_s = daemon.spawned.elapsed().as_secs_f64();
    Some(Ingested {
        daemon,
        conn,
        boot_s,
        wall_s,
        status,
    })
}

/// The checks every completed ingest gets: everything indexed, and a
/// fingerprint equal to every other run of the same feed.
fn check_snapshot(
    tally: &mut Tally,
    run: &mut Ingested,
    samples: u64,
    fingerprint: &mut Option<String>,
) {
    let mut problems = Vec::new();
    let indexed = u64_member(&run.status, "indexed");
    if indexed != samples {
        problems.push(format!("indexed {indexed} != samples {samples}"));
    }
    match run.conn.ask("{\"cmd\":\"fingerprint\"}") {
        Err(e) => problems.push(format!("fingerprint: {e}")),
        Ok(v) => {
            let fp = format!(
                "{}/{}",
                v.get("fingerprint").and_then(Value::as_str).unwrap_or("?"),
                v.get("rho_fnv").and_then(Value::as_str).unwrap_or("?")
            );
            match fingerprint {
                Some(expected) if *expected != fp => {
                    problems.push(format!("fingerprint {fp} != {expected}"));
                }
                Some(_) => {}
                None => *fingerprint = Some(fp),
            }
        }
    }
    tally.record(problems);
}

/// Clean shutdown as one operation (the child run itself).
fn stop(tally: &mut Tally, daemon: Daemon, conn: &mut Conn) {
    if daemon.shutdown(conn) {
        tally.record(Vec::new());
    } else {
        tally.record(vec!["vtld serve did not shut down cleanly".into()]);
    }
}

/// CPU and epoch/segment readings of a daemon at `ingest_done`.
fn daemon_values(values: &mut Values, run: &Ingested) {
    if let Some(cpu) = cpu_s(run.daemon.pid()) {
        values.set("daemon.cpu_s", cpu, 0);
        values.set("daemon.cpu_util", cpu / run.wall_s.max(1e-9), 0);
    }
    values.set("daemon.epochs", u64_member(&run.status, "epoch") as f64, 0);
    values.set(
        "daemon.segments",
        u64_member(&run.status, "segments") as f64,
        0,
    );
}

/// Set-up of the two ingest workloads is the daemon's boot: spawn to the
/// first `status` answered. Some 10 ms of exec, bind and thread spawns,
/// not normalised (the kernel does not track it).
fn set_boot(values: &mut Values, boots: &[f64]) {
    let boot = median(boots);
    set_gated(values, "setup_s", boot, boot, boots.len());
}

/// Durable ingest (fresh data dir per feed, fsync per seal) for the
/// first 60% of the budget, then `--recover` restarts on those
/// directories.
pub fn serve_durable(ctx: &Ctx) -> Outcome {
    let (mut tally, mut values, mut info) = (Tally::default(), Values::default(), Vec::new());
    let samples = ctx.sizes.serve_samples;
    let started = Instant::now();
    let (mut boots, mut ingests, mut recovers) = (Vec::new(), Vec::new(), Reps::default());
    let mut rss = 0.0f64;
    let mut fingerprints = vec![None; ctx.feeds()];
    let dir = |feed: usize| ctx.vtld.path(&format!("wal-{feed}"));
    let args = |feed: usize, recover: bool| {
        serve_args(
            ctx.feed_seed(feed),
            samples,
            DURABLE_SEGMENT_REPORTS,
            Some(&dir(feed)),
            recover,
        )
    };

    while ingests.len() < ctx.feeds() || started.elapsed().as_secs_f64() < 0.6 * ctx.seconds {
        let feed = ingests.len() % ctx.feeds();
        let _ = std::fs::remove_dir_all(dir(feed));
        let Some(mut run) = ingest_to_done(
            ctx,
            &mut tally,
            &args(feed, false),
            Duration::from_millis(5),
        ) else {
            break;
        };
        boots.push(run.boot_s);
        ingests.push(run.wall_s);
        check_snapshot(&mut tally, &mut run, samples, &mut fingerprints[feed]);
        rss = rss.max(peak_rss_mb(run.daemon.pid()).unwrap_or(0.0));
        daemon_values(&mut values, &run);
        let reports = u64_member(&run.status, "reports");
        daemon_spans(&mut tally, &mut values, &mut run.conn);
        stop(&mut tally, run.daemon, &mut run.conn);
        if reports > 0 {
            values.set(
                "wal_bytes_per_report",
                dir_bytes(&dir(feed)) as f64 / reports as f64,
                0,
            );
        }
    }

    let ingested = ingests.len().min(ctx.feeds());
    while ingested > 0
        && (recovers.len() < ctx.sizes.min_reps.max(ingested)
            || started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let feed = recovers.len() % ingested;
        let factor = ctx.calibrate();
        let Some(mut run) =
            ingest_to_done(ctx, &mut tally, &args(feed, true), Duration::from_millis(1))
        else {
            break;
        };
        boots.push(run.boot_s);
        recovers.push(run.wall_s, factor);
        check_snapshot(&mut tally, &mut run, samples, &mut fingerprints[feed]);
        rss = rss.max(peak_rss_mb(run.daemon.pid()).unwrap_or(0.0));
        stop(&mut tally, run.daemon, &mut run.conn);
    }
    for feed in 0..ctx.feeds() {
        let _ = std::fs::remove_dir_all(dir(feed));
    }

    let ingest = ingest_values(&mut values, samples, &ingests);
    let recover = recovers.raw_s();
    set_boot(&mut values, &boots);
    set_gated(
        &mut values,
        "latency_p50_ms",
        recovers.reference_s() * 1e3,
        recover * 1e3,
        recovers.len(),
    );
    values.set(
        "recover_samples_per_s",
        per_second(samples, recover),
        recovers.len(),
    );
    values.set("peak_rss_mb", rss, boots.len());
    info.push(format!(
        "spawn->ingest_done: {} durable runs median {ingest:.4} s, {} --recover runs median {recover:.4} s",
        ingests.len(),
        recovers.len()
    ));
    finish(ctx, tally, values, info, fingerprints)
}

/// Reads the daemon's own `pipeline/segment` and `collector/ingest`
/// span totals off `{"cmd":"metrics"}` (read-only use of spans that
/// already exist), for the outside-vs-inside cross-check.
fn daemon_spans(tally: &mut Tally, values: &mut Values, conn: &mut Conn) {
    let Some(v) = tally.ask(conn, "{\"cmd\":\"metrics\"}") else {
        return;
    };
    let spans = v.get("metrics").and_then(|m| m.get("spans"));
    let total_s = |name: &str| {
        spans
            .and_then(|s| s.get(name))
            .and_then(|s| s.get("total_ns"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 1e9
    };
    values.set("daemon.span.segment_s", total_s("pipeline/segment"), 0);
    values.set("daemon.span.collector_s", total_s("collector/ingest"), 0);
}

/// The seeded inputs of the query side: every generated hash and the
/// engine roster, from the same simulator configuration the daemon is
/// given.
struct QueryInputs {
    hashes: Vec<String>,
    engines: Vec<String>,
}

impl QueryInputs {
    fn new(seed: u64, samples: u64) -> Self {
        let sim = VirusTotalSim::new(SimConfig::new(seed, samples));
        let hashes = (0..samples)
            .map(|o| sim.population().sample(o).hash.to_hex())
            .collect();
        let engines = (0..sim.fleet().engine_count())
            .map(|i| sim.fleet().profile(EngineId::new(i)).name.to_string())
            .collect();
        QueryInputs { hashes, engines }
    }

    fn sample(&self, i: usize) -> String {
        format!("{{\"cmd\":\"sample\",\"hash\":\"{}\"}}", self.hashes[i])
    }

    /// One request of the aggregate verb mix: `status` 40 / `engine` 15
    /// / `results` 10 / `flip_leaders` 10 / `stabilized` 10 / `engines`
    /// 5 / `recommend` 5 / `alerts since=epoch-2` 5. With `with_sample`
    /// a fifth of the draws become uniform `sample` lookups instead.
    fn mixed(&self, rng: &mut Rng, epoch: u64, with_sample: bool) -> String {
        if with_sample && rng.below(5) == 0 {
            return self.sample(rng.below(self.hashes.len()));
        }
        match rng.below(100) {
            0..=39 => "{\"cmd\":\"status\"}".to_string(),
            40..=54 => format!(
                "{{\"cmd\":\"engine\",\"name\":\"{}\"}}",
                self.engines[rng.below(self.engines.len())]
            ),
            55..=64 => "{\"cmd\":\"results\"}".to_string(),
            65..=74 => "{\"cmd\":\"flip_leaders\",\"k\":10}".to_string(),
            75..=84 => format!(
                "{{\"cmd\":\"stabilized\",\"hash\":\"{}\",\"threshold\":{}}}",
                self.hashes[rng.below(self.hashes.len())],
                FIG9_THRESHOLDS[rng.below(FIG9_THRESHOLDS.len())]
            ),
            85..=89 => "{\"cmd\":\"engines\"}".to_string(),
            90..=94 => "{\"cmd\":\"recommend\"}".to_string(),
            _ => format!(
                "{{\"cmd\":\"alerts\",\"since\":{}}}",
                epoch.saturating_sub(2)
            ),
        }
    }
}

/// Pooled request latencies in microseconds plus the usual readings.
fn latency_values(values: &mut Values, info: &mut Vec<String>, lat_us: &mut [f64]) {
    lat_us.sort_by(f64::total_cmp);
    let p50 = percentile(lat_us, 0.5);
    values.set("query_p50_us", p50, lat_us.len());
    values.set("query_p99_us", percentile(lat_us, 0.99), lat_us.len());
    if let Some((label, q)) = tail_quantile(lat_us.len()) {
        info.push(format!(
            "request latency over {} samples: p25 {:.1} us, p50 {p50:.1} us, p75 {:.1} us, p90 {:.1} us, {label} {:.1} us",
            lat_us.len(),
            percentile(lat_us, 0.25),
            percentile(lat_us, 0.75),
            percentile(lat_us, 0.9),
            percentile(lat_us, q)
        ));
    }
}

fn alert_key(alert: &Value) -> String {
    format!(
        "{}:{}:{}:{}",
        u64_member(alert, "slot"),
        u64_member(alert, "seq"),
        alert.get("detector").and_then(Value::as_str).unwrap_or("?"),
        u64_member(alert, "ordinal"),
    )
}

/// In-memory ingest with two connections for its whole length: A is an
/// open-loop reader paced at 1 000 req/s whose latency is timed from
/// each request's due time, B a `subscribe` push stream.
pub fn serve_mixed(ctx: &Ctx) -> Outcome {
    let (mut tally, mut values, mut info) = (Tally::default(), Values::default(), Vec::new());
    let samples = ctx.sizes.serve_samples;
    let inputs: Vec<QueryInputs> = (0..ctx.feeds())
        .map(|feed| QueryInputs::new(ctx.feed_seed(feed), samples))
        .collect();
    let started = Instant::now();
    let (mut boots, mut ingests, mut lat_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lags_ms, mut lag_bounds_ms) = (Vec::new(), Vec::new());
    let (mut sends, mut late_us) = (0u64, Vec::new());
    let mut rss = 0.0f64;
    let mut fingerprints = vec![None; ctx.feeds()];
    let mut rng = Rng::new(ctx.seed ^ 0xA);

    while ingests.len() < ctx.feeds() || started.elapsed().as_secs_f64() < ctx.seconds {
        let feed = ingests.len() % ctx.feeds();
        let inputs = &inputs[feed];
        let args = serve_args(
            ctx.feed_seed(feed),
            samples,
            MIXED_SEGMENT_REPORTS,
            None,
            false,
        );
        let daemon = match Daemon::spawn(ctx.vtld, &args) {
            Ok(d) => d,
            Err(e) => {
                tally.record(vec![e]);
                break;
            }
        };
        let (Ok(mut a), Ok(mut b)) = (Conn::open(daemon.addr), Conn::open(daemon.addr)) else {
            tally.record(vec!["cannot connect to the daemon".into()]);
            break;
        };
        if tally.ask(&mut a, "{\"cmd\":\"status\"}").is_none()
            || tally.ask(&mut b, "{\"cmd\":\"subscribe\"}").is_none()
        {
            break;
        }
        boots.push(daemon.spawned.elapsed().as_secs_f64());
        // B: timestamp every pushed line until the daemon hangs up.
        let pushed = std::thread::spawn(move || {
            let mut lines = Vec::new();
            while let Ok(line) = b.read_line() {
                lines.push((Instant::now(), line));
            }
            lines
        });

        // A: the paced reader. For each epoch it keeps when a response
        // first carried it, and when the request before that one was
        // sent: the epoch cannot have been published earlier than that.
        let origin = Instant::now();
        let mut seen: Vec<(u64, Instant, Instant)> = Vec::new();
        let mut previous_sent = origin;
        let mut epoch = 0u64;
        let mut done_status = None;
        for i in 0u64.. {
            let due = origin + Duration::from_nanos(pacer_due_ns(i, PACED_PERIOD_NS));
            // Sleep to just short of the due time, then spin: a plain
            // sleep wakes 100 us or more late on this box, which would
            // be most of a latency timed from the due time.
            if let Some(nap) = due
                .checked_duration_since(Instant::now())
                .and_then(|left| left.checked_sub(PACER_SPIN))
            {
                std::thread::sleep(nap);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let request = inputs.mixed(&mut rng, epoch, true);
            let sent = Instant::now();
            let line = a.send(&request).and_then(|()| a.read_line());
            let received = Instant::now();
            sends += 1;
            let late = sent.duration_since(due).as_nanos() as u64;
            if late > LATE_NS {
                late_us.push(late as f64 / 1e3);
            }
            match line.and_then(|line| a.check(&line)) {
                Err(e) => {
                    tally.record(vec![format!("{request}: {e}")]);
                    break;
                }
                Ok(v) => {
                    tally.record(Vec::new());
                    lat_us.push(received.duration_since(due).as_nanos() as f64 / 1e3);
                    let e = u64_member(&v, "epoch");
                    if seen.last().map_or(true, |&(last, _, _)| e > last) {
                        seen.push((e, received, previous_sent));
                    }
                    previous_sent = sent;
                    epoch = e;
                    if v.get("ingest_done").is_some() && is_done(&v) {
                        ingests.push(received.duration_since(daemon.spawned).as_secs_f64());
                        done_status = Some(v);
                        break;
                    }
                }
            }
        }
        let Some(status) = done_status else { break };
        let mut run = Ingested {
            daemon,
            conn: a,
            boot_s: 0.0,
            wall_s: *ingests.last().expect("just pushed"),
            status,
        };
        check_snapshot(&mut tally, &mut run, samples, &mut fingerprints[feed]);
        rss = rss.max(peak_rss_mb(run.daemon.pid()).unwrap_or(0.0));
        daemon_values(&mut values, &run);
        let hits = u64_member(&run.status, "cache_hits") as f64;
        let misses = u64_member(&run.status, "cache_misses") as f64;
        if hits + misses > 0.0 {
            values.set("cache.hit_ratio", hits / (hits + misses), 0);
        }
        let retained = tally.ask(&mut run.conn, "{\"cmd\":\"alerts\",\"since\":0}");
        // The subscriber polls every 20 ms: leave it time to push the
        // last epoch's alerts before the daemon goes away.
        std::thread::sleep(Duration::from_millis(60));
        stop(&mut tally, run.daemon, &mut run.conn);
        let lines = pushed.join().unwrap_or_default();

        // Pushed alerts: parseable, never duplicated, all retained.
        let retained_keys: Vec<String> = retained
            .as_ref()
            .and_then(|v| v.get("alerts"))
            .and_then(Value::as_array)
            .map(|alerts| alerts.iter().map(alert_key).collect())
            .unwrap_or_default();
        let mut pushed_keys = std::collections::HashSet::new();
        let mut first_push: Vec<(u64, Instant)> = Vec::new();
        for (at, line) in &lines {
            let mut problems = Vec::new();
            match vt_label_dynamics::obs::json::parse(line) {
                Err(e) => problems.push(format!("unparseable push: {e}")),
                Ok(v) => match v.get("alert") {
                    None => problems.push(format!("push without an alert: {line:.80}")),
                    Some(alert) => {
                        let key = alert_key(alert);
                        if !retained_keys.is_empty() && !retained_keys.contains(&key) {
                            problems.push(format!("pushed alert {key} not in alerts since=0"));
                        }
                        if !pushed_keys.insert(key.clone()) {
                            problems.push(format!("alert {key} pushed twice"));
                        }
                        let e = u64_member(&v, "epoch");
                        if !first_push.iter().any(|&(seen, _)| seen == e) {
                            first_push.push((e, *at));
                        }
                    }
                },
            }
            tally.record(problems);
        }
        for (e, pushed_at) in first_push {
            if let Some(&(_, seen_at, unpublished_at)) = seen.iter().find(|&&(se, _, _)| se >= e) {
                let lag = pushed_at.saturating_duration_since(seen_at);
                lags_ms.push(lag.as_secs_f64() * 1e3);
                let since = pushed_at.saturating_duration_since(unpublished_at);
                lag_bounds_ms.push(since.as_secs_f64() * 1e3);
            }
        }
    }

    ingest_values(&mut values, samples, &ingests);
    set_boot(&mut values, &boots);
    values.set("peak_rss_mb", rss, boots.len());
    latency_values(&mut values, &mut info, &mut lat_us);
    values.set("push_lag_p50_ms", median(&lags_ms), lags_ms.len());
    // Gated as this workload's latency: the push lag. No request latency
    // is gated here, because none repeats: the paced requests wait behind
    // the ingest threads for anything from 30 us to milliseconds, and
    // between 10 s windows of one run their p50 moved 20-28%, p75
    // 60-100%, p90 13-22%, p95 8-21% and p99 10-28% (they are printed
    // ungated). The lag is counted from the last request known to
    // precede the publish, so it is an upper bound that can never read
    // 0; it is set by the subscriber's 20 ms timer, not by processor
    // speed, and is not normalised.
    let lag = median(&lag_bounds_ms);
    set_gated(&mut values, "latency_p50_ms", lag, lag, lag_bounds_ms.len());
    values.set(
        "loadgen.late_ratio",
        late_us.len() as f64 / sends.max(1) as f64,
        sends as usize,
    );
    late_us.sort_by(f64::total_cmp);
    values.set(
        "loadgen.late_p99_us",
        percentile(&late_us, 0.99),
        late_us.len(),
    );
    info.push(format!(
        "open loop at {} req/s from one connection; {} ingest runs, {} epochs with pushed alerts",
        1_000_000_000 / PACED_PERIOD_NS,
        ingests.len(),
        lags_ms.len()
    ));
    finish(ctx, tally, values, info, fingerprints)
}

/// One closed-loop connection: send, wait for the reply, time it, check
/// it, repeat until `deadline`.
fn closed_loop(
    conn: &mut Conn,
    deadline: Instant,
    mut next: impl FnMut(u64) -> String,
    expect_found: bool,
) -> (Vec<f64>, Tally) {
    let mut lat_us = Vec::new();
    let mut tally = Tally::default();
    let mut epoch = 0;
    while Instant::now() < deadline {
        let request = next(epoch);
        let sent = Instant::now();
        let line = conn.send(&request).and_then(|()| conn.read_line());
        let elapsed = sent.elapsed();
        match line.and_then(|line| conn.check(&line)) {
            Err(e) => {
                tally.record(vec![format!("{request}: {e}")]);
                break;
            }
            Ok(v) => {
                epoch = u64_member(&v, "epoch");
                if expect_found && v.get("found").and_then(Value::as_bool) != Some(true) {
                    tally.record(vec![format!("{request}: generated hash not found")]);
                } else {
                    tally.record(Vec::new());
                    lat_us.push(elapsed.as_nanos() as f64 / 1e3);
                }
            }
        }
    }
    (lat_us, tally)
}

/// A daemon that has finished ingesting (set-up, once per feed; the last
/// one stays up), then two closed-loop connections for `seconds`: A
/// draws `sample` hashes Zipf(1.0) over every generated hash (the working
/// set is far larger than the default 1 024-entry cache), B runs the
/// aggregate verb mix.
pub fn serve_query(ctx: &Ctx) -> Outcome {
    let (mut tally, mut values, mut info) = (Tally::default(), Values::default(), Vec::new());
    let samples = ctx.sizes.query_samples;
    let last = ctx.feeds() - 1;
    let inputs = QueryInputs::new(ctx.feed_seed(last), samples);
    let mut setup = Vec::new();
    let mut fingerprints = vec![None; ctx.feeds()];
    let mut ready = None;
    for (feed, fingerprint) in fingerprints.iter_mut().enumerate() {
        let args = serve_args(
            ctx.feed_seed(feed),
            samples,
            QUERY_SEGMENT_REPORTS,
            None,
            false,
        );
        let Some(mut run) = ingest_to_done(ctx, &mut tally, &args, Duration::from_millis(5)) else {
            break;
        };
        setup.push(run.wall_s);
        check_snapshot(&mut tally, &mut run, samples, fingerprint);
        if feed < last {
            stop(&mut tally, run.daemon, &mut run.conn);
        } else {
            ready = Some(run);
        }
    }
    // The pre-ingests are live ingest; see `ingest_values`.
    let pre_ingest = median(&setup);
    set_gated(&mut values, "setup_s", pre_ingest, pre_ingest, setup.len());

    if let Some(mut run) = ready {
        let zipf = Zipf::new(inputs.hashes.len());
        match Conn::open(run.daemon.addr) {
            Err(e) => tally.record(vec![e]),
            Ok(mut b) => {
                let cpu_before = cpu_s(run.daemon.pid()).unwrap_or(0.0);
                let (mut rng_a, mut rng_b) = (Rng::new(ctx.seed ^ 0xA), Rng::new(ctx.seed ^ 0xB));
                let (mut lat_a, mut lat_b) = (Vec::new(), Vec::new());
                let mut elapsed = 0.0;
                // Measured in slices of about a second so the calibration
                // kernel can run between them, while the daemon is idle;
                // a slice is a repetition whose timing is the seconds one
                // request took.
                let slices = ctx.seconds.round().max(1.0);
                let mut per_request = Reps::default();
                for _ in 0..slices as usize {
                    let factor = ctx.calibrate();
                    let started = Instant::now();
                    let deadline = started + Duration::from_secs_f64(ctx.seconds / slices);
                    let a = &mut run.conn;
                    let ((slice_a, tally_a), (slice_b, tally_b)) = std::thread::scope(|scope| {
                        let reader = scope.spawn(|| {
                            closed_loop(a, deadline, |_| inputs.sample(zipf.draw(&mut rng_a)), true)
                        });
                        let mixed = closed_loop(
                            &mut b,
                            deadline,
                            |epoch| inputs.mixed(&mut rng_b, epoch, false),
                            false,
                        );
                        (reader.join().expect("reader thread"), mixed)
                    });
                    let slice_s = started.elapsed().as_secs_f64();
                    elapsed += slice_s;
                    let completed = slice_a.len() + slice_b.len();
                    if completed > 0 {
                        per_request.push(slice_s / completed as f64, factor);
                    }
                    lat_a.extend(slice_a);
                    lat_b.extend(slice_b);
                    for t in [tally_a, tally_b] {
                        tally.attempted += t.attempted;
                        tally.failed += t.failed;
                        tally.notes.extend(t.notes);
                    }
                }
                let cpu = cpu_s(run.daemon.pid()).unwrap_or(0.0) - cpu_before;
                let completed = lat_a.len() + lat_b.len();
                let rate = completed as f64 / elapsed.max(1e-9);
                set_gated(
                    &mut values,
                    "throughput_per_s",
                    per_second(1, per_request.reference_s()),
                    rate,
                    completed,
                );
                values.set("queries_per_s", rate, completed);
                values.set("daemon.cpu_s", cpu, 0);
                values.set("daemon.cpu_util", cpu / elapsed.max(1e-9), 0);
                info.push(format!(
                    "closed loop, 2 connections, {elapsed:.2} s: {} sample lookups, {} mixed requests",
                    lat_a.len(),
                    lat_b.len()
                ));
                // Gated: the per-hash reader's median. The pooled median
                // sits where cache hits end and renders begin (hits are
                // ~62% of A, A ~80% of all requests), so it flips between
                // the two modes from run to run. Not normalised: a 15 us
                // round trip is thread wake-ups, not processor speed, and
                // scaling it widened its spread (7% -> 10%).
                let mut reader_us = lat_a.clone();
                reader_us.sort_by(f64::total_cmp);
                let reader_p50 = percentile(&reader_us, 0.5);
                let mut lat_us = lat_a;
                lat_us.extend(lat_b);
                latency_values(&mut values, &mut info, &mut lat_us);
                set_gated(
                    &mut values,
                    "latency_p50_ms",
                    reader_p50 / 1e3,
                    reader_p50 / 1e3,
                    reader_us.len(),
                );
            }
        }
        values.set(
            "peak_rss_mb",
            peak_rss_mb(run.daemon.pid()).unwrap_or(0.0),
            1,
        );
        values.set("daemon.epochs", u64_member(&run.status, "epoch") as f64, 0);
        values.set(
            "daemon.segments",
            u64_member(&run.status, "segments") as f64,
            0,
        );
        stop(&mut tally, run.daemon, &mut run.conn);
    }
    finish(ctx, tally, values, info, fingerprints)
}
