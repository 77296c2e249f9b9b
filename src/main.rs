//! `vtld` — the vt-label-dynamics command line.
//!
//! ```text
//! vtld simulate --samples N [--seed S] --out FEED.vtstore
//!     Generate a seeded VirusTotal feed and persist it.
//!
//! vtld analyze --store FEED.vtstore [--fleet-seed S] [--csv-dir DIR]
//!              [--workers W] [--metrics-out FILE] [--verbose]
//!     Load a persisted feed and print the full paper-vs-measured
//!     report (every table and figure); optionally export each
//!     figure's data series as CSV.
//!
//! vtld study [--samples N] [--seed S] [--csv-dir DIR]
//!            [--workers W] [--metrics-out FILE] [--verbose]
//!     Simulate and analyze in one step (no file involved).
//!
//! vtld serve [--samples N] [--seed S] [--segment-reports R]
//!            [--workers W] [--shards K] [--addr HOST:PORT]
//!            [--data-dir DIR] [--recover] [--max-clients C]
//!            [--alerts-out PATH] [--alerts-tcp ADDR] [--no-alerts]
//!     Run the long-lived daemon: ingest the chaos-injected feed
//!     through the fault-tolerant collector, fold each sealed segment
//!     incrementally across a sharded worker fleet, run the streaming
//!     drift detectors over every fold, and answer JSON queries —
//!     aggregate, per-hash and alerting — over TCP while ingestion
//!     continues. With `--data-dir`
//!     every sealed segment is fsynced to disk before it is published;
//!     with `--recover` a restarted daemon replays that directory and
//!     resumes ingest where the previous process died (see
//!     `vt_label_dynamics::serve`).
//! ```
//!
//! Each subcommand parses into a typed argument struct
//! ([`SimulateArgs`], [`AnalyzeArgs`], [`StudyArgs`]; `serve` straight
//! into the daemon's [`ServeConfig`]) with its own `--help` text; flag
//! names, defaults and error messages are stable.
//!
//! `--metrics-out FILE` writes the run's observability snapshot
//! (per-stage spans, collector/store counters, per-worker busy-time
//! histograms) as JSON; `--verbose` renders the same snapshot as a
//! table on stderr. Either flag enables instrumentation; without them
//! the pipeline runs with the no-op [`Obs`] and pays nothing.
//!
//! `study` holds one chunk of the feed at a time: it generates, tallies
//! Table 2 and folds the samples chunk by chunk
//! (`pipeline::run_streamed`), and `simulate` generates through the same
//! chunks into the one store it writes.
//!
//! The analyze path reconstructs sample metadata purely from the stored
//! reports — the same situation the paper faced. The file is read once,
//! strictly, and the read's integrity decode lands in the decode arena
//! (`read_store_into`); the compressed blocks are dropped as soon as
//! that read returns, and the arena is folded as one segment
//! (`fold_arena`), the route `vtld serve` runs per sealed segment. A
//! report is decoded once between the file and the report.
//!
//! The simulator's calibration is fixed; a command sets only the seed
//! and the sample count, through [`SimConfig::builder`], whose one check
//! (`--samples` ≥ 1) surfaces as a typed error. `analyze` sets only the
//! fleet seed.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vt_label_dynamics::dynamics::{par, pipeline, DecodeArena, IncrementalStudy};
use vt_label_dynamics::engines::EngineFleet;
use vt_label_dynamics::obs::Obs;
use vt_label_dynamics::report::experiments::render_full_report;
use vt_label_dynamics::serve::{ServeConfig, Server};
use vt_label_dynamics::sim::{SimConfig, SimConfigError, VirusTotalSim};
use vt_label_dynamics::store::{
    read_store_into, write_durable, write_store, PersistError, StoreBuilder, StoreObs,
};

/// Everything that can go wrong in a `vtld` invocation, typed by layer:
/// bad command line, bad configuration, unreadable store, plain I/O.
#[derive(Debug)]
enum VtldError {
    /// Malformed command line (unknown command/flag, missing value…).
    Usage(String),
    /// A flag value failed configuration validation.
    Config(SimConfigError),
    /// A store file failed to load.
    Load(PersistError),
    /// Filesystem failure, with the path for context.
    Io { context: String, source: io::Error },
}

impl std::fmt::Display for VtldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VtldError::Usage(message) => write!(f, "{message}"),
            VtldError::Config(e) => write!(f, "invalid configuration: {e}"),
            VtldError::Load(e) => write!(f, "load failed: {e}"),
            VtldError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for VtldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VtldError::Usage(_) => None,
            VtldError::Config(e) => Some(e),
            VtldError::Load(e) => Some(e),
            VtldError::Io { source, .. } => Some(source),
        }
    }
}

impl From<SimConfigError> for VtldError {
    fn from(e: SimConfigError) -> Self {
        VtldError::Config(e)
    }
}

impl From<PersistError> for VtldError {
    fn from(e: PersistError) -> Self {
        VtldError::Load(e)
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> VtldError {
    let context = context.into();
    move |source| VtldError::Io { context, source }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "simulate" => with_args(rest, SimulateArgs::parse, SimulateArgs::HELP, cmd_simulate),
        "analyze" => with_args(rest, AnalyzeArgs::parse, AnalyzeArgs::HELP, cmd_analyze),
        "study" => with_args(rest, StudyArgs::parse, StudyArgs::HELP, cmd_study),
        "serve" => with_args(rest, parse_serve, SERVE_HELP, cmd_serve),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(VtldError::Usage(format!(
            "unknown command '{other}'\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("vtld: {error}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  vtld simulate --samples N [--seed S] --out FEED.vtstore
  vtld analyze  --store FEED.vtstore [--fleet-seed S] [--csv-dir DIR]
                [--workers W] [--metrics-out FILE] [--verbose]
  vtld study    [--samples N] [--seed S] [--csv-dir DIR]
                [--workers W] [--metrics-out FILE] [--verbose]
  vtld serve    [--samples N] [--seed S] [--segment-reports R]
                [--workers W] [--shards K] [--addr HOST:PORT]
                [--data-dir DIR] [--recover] [--max-clients C]
                [--alerts-out PATH] [--alerts-tcp ADDR] [--no-alerts]
  vtld help

run any subcommand with --help for its flags and defaults";

/// Runs one subcommand: `--help` prints the subcommand's help text,
/// anything else parses into the typed argument struct and executes.
fn with_args<A>(
    args: &[String],
    parse: impl FnOnce(&[String]) -> Result<A, VtldError>,
    help: &str,
    run: impl FnOnce(A) -> Result<(), VtldError>,
) -> Result<(), VtldError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{help}");
        return Ok(());
    }
    run(parse(args)?)
}

// ---- flag-level parsing helpers ----------------------------------------

/// Parses `--key value` flags (and valueless `--switch` flags named in
/// `switches`, recorded with an empty value); rejects unknown and
/// repeated keys.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, VtldError> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| VtldError::Usage(format!("expected a --flag, got '{}'", args[i])))?;
        if flag(&out, key).is_some() {
            return Err(VtldError::Usage(format!("--{key} given twice")));
        }
        if switches.contains(&key) {
            out.push((key, ""));
            i += 1;
            continue;
        }
        if !allowed.contains(&key) {
            return Err(VtldError::Usage(format!("unknown flag --{key}")));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| VtldError::Usage(format!("--{key} requires a value")))?;
        out.push((key, value.as_str()));
        i += 2;
    }
    Ok(out)
}

fn flag<'a>(flags: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn has_switch(flags: &[(&str, &str)], key: &str) -> bool {
    flags.iter().any(|(k, _)| *k == key)
}

fn parse_u64(flags: &[(&str, &str)], key: &str, default: u64) -> Result<u64, VtldError> {
    let Some(v) = flag(flags, key) else {
        return Ok(default);
    };
    let (digits, radix) = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (v, 10),
    };
    // Digits only: `from_str_radix` would also take a leading `+`.
    Some(digits)
        .filter(|d| d.bytes().all(|b| char::from(b).is_digit(radix)))
        .and_then(|d| u64::from_str_radix(d, radix).ok())
        .ok_or_else(|| VtldError::Usage(format!("--{key} expects an integer, got '{v}'")))
}

/// `--workers`, clamped to `1..=par::MAX_WORKERS`: each worker is a
/// thread with its own accumulators, and results are bit-identical at
/// any count, so a larger value only costs memory.
fn parse_workers(flags: &[(&str, &str)]) -> Result<usize, VtldError> {
    Ok(
        parse_u64(flags, "workers", par::default_workers() as u64)?
            .clamp(1, par::MAX_WORKERS as u64) as usize,
    )
}

// ---- typed per-subcommand arguments ------------------------------------

/// `vtld simulate`: generate a feed and persist it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimulateArgs {
    samples: u64,
    seed: u64,
    out: String,
}

impl SimulateArgs {
    const HELP: &'static str = "vtld simulate — generate a seeded feed and persist it

flags:
  --samples N   samples to simulate           (default 100000)
  --seed S      platform seed, decimal or 0x  (default 0x7e575eed)
  --out PATH    output store file             (required)";

    fn parse(args: &[String]) -> Result<Self, VtldError> {
        let flags = parse_flags(args, &["samples", "seed", "out"], &[])?;
        Ok(Self {
            samples: parse_u64(&flags, "samples", 100_000)?,
            seed: parse_u64(&flags, "seed", 0x7e57_5eed)?,
            out: flag(&flags, "out")
                .ok_or_else(|| VtldError::Usage("simulate requires --out PATH".into()))?
                .to_string(),
        })
    }
}

/// The shared observability flags (`--metrics-out`, `--verbose`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct ObsArgs {
    metrics_out: Option<String>,
    verbose: bool,
}

impl ObsArgs {
    fn parse(flags: &[(&str, &str)]) -> Self {
        Self {
            metrics_out: flag(flags, "metrics-out").map(str::to_string),
            verbose: has_switch(flags, "verbose"),
        }
    }

    /// The registry a command runs under: enabled only when
    /// `--metrics-out` or `--verbose` asked for it.
    fn obs(&self) -> Obs {
        if self.metrics_out.is_some() || self.verbose {
            Obs::new()
        } else {
            Obs::disabled()
        }
    }

    /// Emits the run's metrics as requested: JSON to `--metrics-out`,
    /// a human-readable table to stderr for `--verbose`.
    fn emit(&self, obs: &Obs) -> Result<(), VtldError> {
        if !obs.is_enabled() {
            return Ok(());
        }
        let metrics = obs.snapshot();
        if let Some(path) = &self.metrics_out {
            write_durable(Path::new(path), metrics.to_json().as_bytes())
                .map_err(io_err(format!("cannot write {path}")))?;
            eprintln!("wrote metrics to {path}");
        }
        if self.verbose {
            eprint!("{}", metrics.render_table());
        }
        Ok(())
    }
}

/// `vtld analyze`: load a persisted feed and print the full report.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AnalyzeArgs {
    store: String,
    fleet_seed: u64,
    csv_dir: Option<String>,
    workers: usize,
    obs: ObsArgs,
}

impl AnalyzeArgs {
    const HELP: &'static str = "vtld analyze — analyze a persisted feed

flags:
  --store PATH        store file to load                  (required)
  --fleet-seed S      engine-fleet seed                   (default 0x7e575eed ^ 0xf1ee7000)
  --csv-dir DIR       export figure data series as CSV
  --workers W         analysis worker threads (1..=16)    (default: cores)
  --metrics-out FILE  write observability snapshot JSON
  --verbose           render the snapshot table on stderr";

    fn parse(args: &[String]) -> Result<Self, VtldError> {
        let flags = parse_flags(
            args,
            &["store", "fleet-seed", "csv-dir", "workers", "metrics-out"],
            &["verbose"],
        )?;
        Ok(Self {
            store: flag(&flags, "store")
                .ok_or_else(|| VtldError::Usage("analyze requires --store PATH".into()))?
                .to_string(),
            fleet_seed: parse_u64(&flags, "fleet-seed", 0x7e57_5eed ^ 0xF1EE_7000)?,
            csv_dir: flag(&flags, "csv-dir").map(str::to_string),
            workers: parse_workers(&flags)?,
            obs: ObsArgs::parse(&flags),
        })
    }
}

/// `vtld study`: simulate and analyze in one step.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StudyArgs {
    samples: u64,
    seed: u64,
    csv_dir: Option<String>,
    workers: usize,
    obs: ObsArgs,
}

impl StudyArgs {
    const HELP: &'static str = "vtld study — simulate and analyze in one step

flags:
  --samples N         samples to simulate                 (default 100000)
  --seed S            platform seed, decimal or 0x        (default 0x7e575eed)
  --csv-dir DIR       export figure data series as CSV
  --workers W         generation/analysis worker threads
                      (1..=16)                            (default: cores)
  --metrics-out FILE  write observability snapshot JSON
  --verbose           render the snapshot table on stderr";

    fn parse(args: &[String]) -> Result<Self, VtldError> {
        let flags = parse_flags(
            args,
            &["samples", "seed", "csv-dir", "workers", "metrics-out"],
            &["verbose"],
        )?;
        Ok(Self {
            samples: parse_u64(&flags, "samples", 100_000)?,
            seed: parse_u64(&flags, "seed", 0x7e57_5eed)?,
            csv_dir: flag(&flags, "csv-dir").map(str::to_string),
            workers: parse_workers(&flags)?,
            obs: ObsArgs::parse(&flags),
        })
    }
}

/// `vtld serve`'s help text; its flags parse straight into the daemon's
/// [`ServeConfig`] ([`parse_serve`]).
const SERVE_HELP: &str = "vtld serve — incremental ingestion daemon with a TCP query endpoint

flags:
  --samples N           samples the simulated feed delivers  (default 100000)
  --seed S              platform seed, decimal or 0x         (default 0x7e575eed)
  --segment-reports R   reports per sealed segment           (default 20000)
  --workers W           per-segment fold worker threads
                        (1..=16)                             (default: cores)
  --shards K            shard worker threads folding the
                        fixed hash slots (1..=8)             (default 1)
  --addr HOST:PORT      bind address (port 0 = ephemeral)    (default 127.0.0.1:7311)
  --data-dir DIR        durable segment log: every sealed
                        segment is fsynced here before it
                        is folded or published
  --recover             replay DIR's sealed segments on
                        startup and resume ingest past them
                        (requires --data-dir, written under
                        the same --seed and --samples)
  --max-clients C       concurrent connections before new
                        clients are shed with a typed
                        'overloaded' response               (default 256)
  --alerts-out PATH     append drift alerts to PATH as JSONL,
                        exactly-once across --recover (a regular
                        file of one feed: empty unless --recover)
  --alerts-tcp ADDR     stream drift alerts to a TCP endpoint
                        (retried with backoff until shutdown; a
                        failed batch is resent whole, replays
                        are skipped; batches past a 32-batch
                        queue are dropped and counted in
                        serve/alerts_dropped)
  --no-alerts           disable the streaming drift detectors

protocol: one JSON object per line over TCP; commands are
{\"cmd\":\"status\"}, {\"cmd\":\"results\"}, {\"cmd\":\"engines\"},
{\"cmd\":\"metrics\"}, {\"cmd\":\"fingerprint\"}, {\"cmd\":\"shutdown\"},
the per-hash query verbs {\"cmd\":\"sample\",\"hash\":H},
{\"cmd\":\"stabilized\",\"hash\":H,\"threshold\":T},
{\"cmd\":\"engine\",\"name\":N} and {\"cmd\":\"flip_leaders\",\"k\":K},
plus the alerting verbs {\"cmd\":\"alerts\",\"since\":E} (drift alerts
published after epoch E), {\"cmd\":\"subscribe\"} (switches the
connection to a push stream of new alerts) and {\"cmd\":\"recommend\"}
(the online threshold/engine-subset recommendation).
Every response carries the snapshot epoch.";

/// `vtld serve`: the flags over the daemon's own defaults.
fn parse_serve(args: &[String]) -> Result<ServeConfig, VtldError> {
    let flags = parse_flags(
        args,
        &[
            "samples",
            "seed",
            "segment-reports",
            "workers",
            "shards",
            "addr",
            "data-dir",
            "max-clients",
            "alerts-out",
            "alerts-tcp",
        ],
        &["recover", "no-alerts"],
    )?;
    let data_dir = flag(&flags, "data-dir").map(PathBuf::from);
    let recover = has_switch(&flags, "recover");
    if recover && data_dir.is_none() {
        return Err(VtldError::Usage(
            "--recover requires --data-dir DIR (there is nothing to replay without a \
             segment log)"
                .into(),
        ));
    }
    let samples = parse_u64(&flags, "samples", 100_000)?;
    let seed = parse_u64(&flags, "seed", 0x7e57_5eed)?;
    // The daemon's own defaults and slot bound, not a second copy.
    let defaults = ServeConfig::new(samples, seed);
    // `normalized` is where the bounds are clamped, for the flags as for
    // any other caller.
    Ok(ServeConfig {
        segment_reports: parse_u64(&flags, "segment-reports", defaults.segment_reports)?,
        workers: parse_workers(&flags)?,
        shards: parse_u64(&flags, "shards", defaults.shards as u64)? as usize,
        addr: flag(&flags, "addr").unwrap_or("127.0.0.1:7311").to_string(),
        data_dir,
        recover,
        max_clients: parse_u64(&flags, "max-clients", defaults.max_clients as u64)? as usize,
        alerts: !has_switch(&flags, "no-alerts"),
        alerts_out: flag(&flags, "alerts-out").map(PathBuf::from),
        alerts_tcp: flag(&flags, "alerts-tcp").map(str::to_string),
        ..defaults
    }
    .normalized())
}

// ---- subcommand bodies -------------------------------------------------

/// Writes every figure's data series into `dir` as CSV files, each
/// replaced whole or not at all.
fn write_csvs(
    dir: &str,
    results: &vt_label_dynamics::dynamics::StudyResults,
    fleet: &EngineFleet,
) -> Result<(), VtldError> {
    std::fs::create_dir_all(dir).map_err(io_err(format!("cannot create {dir}")))?;
    let files = vt_label_dynamics::report::export_csv(results, fleet);
    let n = files.len();
    for (name, contents) in files {
        let path = Path::new(dir).join(name);
        write_durable(&path, contents.as_bytes())
            .map_err(io_err(format!("cannot write {}", path.display())))?;
    }
    eprintln!("wrote {n} CSV files to {dir}");
    Ok(())
}

fn cmd_simulate(args: SimulateArgs) -> Result<(), VtldError> {
    let SimulateArgs { samples, seed, out } = args;
    let config = SimConfig::builder().seed(seed).samples(samples).build()?;

    eprintln!("simulating {samples} samples (seed {seed:#x})...");
    // The feed is generated a chunk at a time; the store keeps every
    // block, because it is what gets written.
    let sim = VirusTotalSim::new(config);
    let mut builder = StoreBuilder::new();
    pipeline::generate_chunks(&sim, par::default_workers(), Obs::noop(), |chunk| {
        for record in chunk {
            builder.append_batch(&record.reports);
        }
    });
    let store = builder.seal();
    let mut bytes = Vec::new();
    write_store(&store, &mut bytes).map_err(io_err("write failed"))?;
    // Replace `out` whole or not at all: a failed or interrupted write
    // leaves whatever store was there.
    write_durable(Path::new(&out), &bytes).map_err(io_err(format!("cannot write {out}")))?;
    let stats = store.partition_stats();
    let bytes: u64 = stats.iter().map(|p| p.stored_bytes).sum();
    println!(
        "wrote {} reports / {} samples to {out} ({:.2} MB packed)",
        store.report_count(),
        samples,
        bytes as f64 / 1e6
    );
    println!(
        "analyze it with: vtld analyze --store {out} --fleet-seed {:#x}",
        seed ^ 0xF1EE_7000
    );
    Ok(())
}

fn cmd_analyze(args: AnalyzeArgs) -> Result<(), VtldError> {
    let obs = args.obs.obs();
    let path = &args.store;
    let file = std::fs::File::open(path).map_err(io_err(format!("cannot open {path}")))?;
    // Frame headers are read four bytes at a time.
    let mut reader = std::io::BufReader::new(file);
    let mut arena = DecodeArena::new();
    let store = arena.refill(|rows| read_store_into(&mut reader, rows, &StoreObs::new(&obs)))?;
    // The strict read has checked and decoded every block into the
    // arena; nothing reads them again, so only the counts outlive it.
    let (reports, stats) = (store.report_count(), store.partition_stats());
    drop(store);
    eprintln!("loaded {reports} reports from {path}");
    let fleet = EngineFleet::with_seed(args.fleet_seed);
    let window_start = vt_label_dynamics::model::time::Month::COLLECTION_START.start();
    let mut study = IncrementalStudy::new(&fleet, window_start).with_workers(args.workers);
    let samples = study.fold_arena(&arena, &obs);
    eprintln!("folded {samples} samples");
    let results = study.results(stats, &obs);
    println!("{}", render_full_report(&results, &fleet));
    if let Some(dir) = &args.csv_dir {
        write_csvs(dir, &results, &fleet)?;
    }
    args.obs.emit(&obs)
}

fn cmd_study(args: StudyArgs) -> Result<(), VtldError> {
    let config = SimConfig::builder()
        .seed(args.seed)
        .samples(args.samples)
        .build()?;
    let obs = args.obs.obs();

    eprintln!(
        "simulating {} samples (seed {:#x})...",
        args.samples, args.seed
    );
    let sim = VirusTotalSim::new(config);
    let results = pipeline::run_streamed(&sim, args.workers, &obs);
    println!("{}", render_full_report(&results, sim.fleet()));
    if let Some(dir) = &args.csv_dir {
        write_csvs(dir, &results, sim.fleet())?;
    }
    args.obs.emit(&obs)
}

fn cmd_serve(config: ServeConfig) -> Result<(), VtldError> {
    let server = Server::start(config).map_err(io_err("cannot start serve"))?;
    eprintln!(
        "vtld serve listening on {} (newline-delimited JSON; try {{\"cmd\":\"status\"}})",
        server.addr()
    );
    if let Some(failure) = server.wait() {
        return Err(io_err("serve failed")(failure));
    }
    eprintln!("vtld serve: shut down");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_label_dynamics::dynamics::Study;
    use vt_label_dynamics::serve::INGEST_SLOTS;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn simulate_args_parse_and_validate() {
        let ok = SimulateArgs::parse(&strings(&[
            "--samples",
            "500",
            "--seed",
            "0x2A",
            "--out",
            "f.vtstore",
        ]))
        .expect("valid");
        assert_eq!(
            ok,
            SimulateArgs {
                samples: 500,
                seed: 42,
                out: "f.vtstore".into()
            }
        );
        let err = SimulateArgs::parse(&strings(&["--samples", "500"])).unwrap_err();
        assert_eq!(err.to_string(), "simulate requires --out PATH");
        let err = SimulateArgs::parse(&strings(&["--bogus", "1"])).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --bogus");
        let err = SimulateArgs::parse(&strings(&["samples"])).unwrap_err();
        assert_eq!(err.to_string(), "expected a --flag, got 'samples'");
        let err = SimulateArgs::parse(&strings(&["--seed"])).unwrap_err();
        assert_eq!(err.to_string(), "--seed requires a value");
        let err = SimulateArgs::parse(&strings(&["--samples", "many"])).unwrap_err();
        assert_eq!(err.to_string(), "--samples expects an integer, got 'many'");
        let err = SimulateArgs::parse(&strings(&[
            "--samples",
            "3",
            "--out",
            "f.vtstore",
            "--samples",
            "2000",
        ]))
        .unwrap_err();
        assert_eq!(err.to_string(), "--samples given twice");
        let err = StudyArgs::parse(&strings(&["--verbose", "--verbose"])).unwrap_err();
        assert_eq!(err.to_string(), "--verbose given twice");
    }

    #[test]
    fn integer_flags_take_digits_only() {
        assert_eq!(parse_u64(&[("seed", "0xfF")], "seed", 0).unwrap(), 255);
        assert_eq!(parse_u64(&[("samples", "05")], "samples", 0).unwrap(), 5);
        for (key, bad) in [
            ("samples", "+5"),
            ("seed", "0x+5"),
            ("seed", "0x"),
            ("samples", ""),
        ] {
            let err = parse_u64(&[(key, bad)], key, 0).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("--{key} expects an integer, got '{bad}'")
            );
        }
    }

    /// Boundary spellings of an integer flag whose own bound is `max`,
    /// each with the integer it must read as (`None`: a usage error): 0,
    /// 1, `max`, `max + 1`, `u64::MAX`, past it and `n`, each in decimal
    /// and in hex, and the signed `+1`, `-1`, `-0`, `0x+1` and `0x-1`.
    fn flag_boundaries(max: u64, n: u64) -> Vec<(String, Option<u64>)> {
        let past = u128::from(u64::MAX) + 1;
        let values = [
            0,
            1,
            max.into(),
            u128::from(max) + 1,
            u64::MAX.into(),
            past,
            n.into(),
        ];
        let mut spellings = Vec::new();
        for v in values {
            let read = u64::try_from(v).ok();
            spellings.extend([(v.to_string(), read), (format!("{v:#x}"), read)]);
        }
        let signed = ["+1", "-1", "-0", "0x+1", "0x-1"];
        spellings.extend(signed.map(|v| (v.to_string(), None)));
        spellings
    }

    /// One integer flag of one subcommand: its name, the parse that reads
    /// it back, its own bound, and its documented clamp.
    type NumericFlag = (
        &'static str,
        fn(&[String]) -> Result<u64, VtldError>,
        u64,
        fn(u64) -> u64,
    );

    /// Every integer flag of simulate, analyze, study and serve. The
    /// parses add `--out` / `--store` where a subcommand requires it.
    fn numeric_flags() -> [NumericFlag; 13] {
        fn simulate(a: &[String]) -> Result<SimulateArgs, VtldError> {
            SimulateArgs::parse(&[a, &strings(&["--out", "f"])].concat())
        }
        fn analyze(a: &[String]) -> Result<AnalyzeArgs, VtldError> {
            AnalyzeArgs::parse(&[a, &strings(&["--store", "f"])].concat())
        }
        let exact = |v| v;
        let at_least_one = |v: u64| v.max(1);
        let workers = |v: u64| v.clamp(1, par::MAX_WORKERS as u64);
        let shards = |v: u64| v.clamp(1, INGEST_SLOTS as u64);
        let (any, w, k) = (u64::MAX, par::MAX_WORKERS as u64, INGEST_SLOTS as u64);
        [
            ("samples", |a| Ok(simulate(a)?.samples), any, exact),
            ("seed", |a| Ok(simulate(a)?.seed), any, exact),
            ("workers", |a| Ok(analyze(a)?.workers as u64), w, workers),
            ("fleet-seed", |a| Ok(analyze(a)?.fleet_seed), any, exact),
            ("samples", |a| Ok(StudyArgs::parse(a)?.samples), any, exact),
            ("seed", |a| Ok(StudyArgs::parse(a)?.seed), any, exact),
            (
                "workers",
                |a| Ok(StudyArgs::parse(a)?.workers as u64),
                w,
                workers,
            ),
            ("samples", |a| Ok(parse_serve(a)?.samples), any, exact),
            ("seed", |a| Ok(parse_serve(a)?.seed), any, exact),
            (
                "segment-reports",
                |a| Ok(parse_serve(a)?.segment_reports),
                any,
                at_least_one,
            ),
            (
                "workers",
                |a| Ok(parse_serve(a)?.workers as u64),
                w,
                workers,
            ),
            ("shards", |a| Ok(parse_serve(a)?.shards as u64), k, shards),
            (
                "max-clients",
                |a| Ok(parse_serve(a)?.max_clients as u64),
                any,
                at_least_one,
            ),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(32))]
        /// Every integer flag at its boundaries and at an arbitrary value
        /// reads as its exact value, its documented clamp or its typed
        /// usage error, never a panic.
        #[test]
        fn numeric_flags_read_exactly_clamp_or_fail_typed(n in proptest::arbitrary::any::<u64>()) {
            for (flag, read, max, clamp) in numeric_flags() {
                for (value, want) in flag_boundaries(max, n) {
                    let got = read(&strings(&[&format!("--{flag}"), &value]));
                    let bad = format!("--{flag} expects an integer, got '{value}'");
                    let (got, want) = (got.map_err(|e| e.to_string()), want.map(clamp).ok_or(bad));
                    proptest::prop_assert_eq!(got, want, "--{} {}", flag, value);
                }
            }
            // `--samples 0` reads as 0; building the study's config is
            // what refuses it, with its typed error.
            let zero = SimConfig::builder().seed(n).samples(0).build().map(|_| ());
            proptest::prop_assert_eq!(zero.map_err(|e| e.to_string()), Err("samples must be at least 1".to_string()));
        }
    }

    #[test]
    fn analyze_and_study_args_defaults() {
        let a = AnalyzeArgs::parse(&strings(&["--store", "f.vtstore", "--verbose"])).expect("ok");
        assert_eq!(a.store, "f.vtstore");
        assert_eq!(a.fleet_seed, 0x7e57_5eed ^ 0xF1EE_7000);
        assert!(a.obs.verbose);
        assert!(a.obs.metrics_out.is_none());
        assert!(a.csv_dir.is_none());
        let err = AnalyzeArgs::parse(&[]).unwrap_err();
        assert_eq!(err.to_string(), "analyze requires --store PATH");

        let s =
            StudyArgs::parse(&strings(&["--workers", "3", "--metrics-out", "m.json"])).expect("ok");
        assert_eq!(s.samples, 100_000);
        assert_eq!(s.seed, 0x7e57_5eed);
        assert_eq!(s.workers, 3);
        assert_eq!(s.obs.metrics_out.as_deref(), Some("m.json"));
        assert!(s.obs.obs().is_enabled());
        assert!(!StudyArgs::parse(&[]).expect("ok").obs.obs().is_enabled());

        // `--workers` clamps to the pass bound, as `--shards` does to the
        // slot count, and every subcommand's help names it.
        for (given, kept) in [("100000", par::MAX_WORKERS), ("0", 1)] {
            let study = StudyArgs::parse(&strings(&["--workers", given])).expect("ok");
            let analyze =
                AnalyzeArgs::parse(&strings(&["--store", "f", "--workers", given])).expect("ok");
            let serve = parse_serve(&strings(&["--workers", given])).expect("ok");
            assert_eq!([study.workers, analyze.workers, serve.workers], [kept; 3]);
        }
        let bound = format!("(1..={})", par::MAX_WORKERS);
        for help in [AnalyzeArgs::HELP, StudyArgs::HELP, SERVE_HELP] {
            assert!(help.contains(&bound), "{help}");
        }
    }

    #[test]
    fn serve_args_defaults_and_overrides() {
        let d = parse_serve(&[]).expect("ok");
        assert_eq!(d.samples, 100_000);
        assert_eq!(d.segment_reports, 20_000);
        assert_eq!(d.addr, "127.0.0.1:7311");
        assert_eq!(d.shards, 1);
        assert_eq!(d.max_clients, 256);
        assert!(d.data_dir.is_none());
        assert!(!d.recover);
        assert!(d.alerts, "detectors are on by default");
        assert!(d.alerts_out.is_none());
        assert!(d.alerts_tcp.is_none());
        let s = parse_serve(&strings(&[
            "--samples",
            "2000",
            "--segment-reports",
            "0",
            "--addr",
            "127.0.0.1:0",
        ]))
        .expect("ok");
        assert_eq!(s.samples, 2_000);
        assert_eq!(s.segment_reports, 1, "zero clamps to one");
        assert_eq!(s.addr, "127.0.0.1:0");
        let err = parse_serve(&strings(&["--csv-dir", "x"])).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --csv-dir");
    }

    #[test]
    fn serve_args_hardening_flags() {
        let s = parse_serve(&strings(&[
            "--shards",
            "4",
            "--data-dir",
            "/tmp/wal",
            "--recover",
            "--max-clients",
            "2",
        ]))
        .expect("ok");
        assert_eq!(s.shards, 4);
        assert_eq!(s.data_dir, Some(PathBuf::from("/tmp/wal")));
        assert!(s.recover);
        assert_eq!(s.max_clients, 2);

        assert_eq!(
            parse_serve(&strings(&["--shards", "99"]))
                .expect("ok")
                .shards,
            8,
            "shards clamp to the slot count"
        );
        assert_eq!(
            parse_serve(&strings(&["--max-clients", "0"]))
                .expect("ok")
                .max_clients,
            1,
            "a zero client cap clamps to one"
        );
        let err = parse_serve(&strings(&["--cache-samples", "0"])).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --cache-samples");
        let err = parse_serve(&strings(&["--recover"])).unwrap_err();
        assert!(
            err.to_string().starts_with("--recover requires --data-dir"),
            "{err}"
        );
    }

    /// `Server::start` fails for more reasons than the listener; each
    /// message names its own cause, and only the listener's says "bind".
    #[test]
    fn serve_start_failures_name_their_cause() {
        use vt_label_dynamics::model::time::{Date, Timestamp};
        use vt_label_dynamics::model::{FileType, ReportKind, SampleHash, ScanReport, VerdictVec};
        use vt_label_dynamics::store::{SegmentDir, SegmentWriter};

        let start = |flag: &str, value: &str| {
            let args = strings(&["--samples", "10", flag, value]);
            cmd_serve(parse_serve(&args).expect("valid flags"))
                .expect_err("start must fail")
                .to_string()
        };

        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = taken.local_addr().expect("addr").to_string();
        let msg = start("--addr", &addr);
        assert!(
            msg.starts_with(&format!("cannot start serve: cannot bind {addr}: ")),
            "{msg}"
        );

        let root = std::env::temp_dir().join(format!("vtld-start-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let narrow = root.join("four-slots");
        SegmentDir::open(&narrow, 4).expect("open");
        assert_eq!(
            start("--data-dir", narrow.to_str().expect("utf-8")),
            "cannot start serve: segment dir manifest mismatch: \
             found \"VTSEGDIR1 slots=4\", expected \"VTSEGDIR1 slots=8\""
        );

        let used = root.join("used");
        let dir = SegmentDir::open(&used, INGEST_SLOTS as u32).expect("open");
        let day = Timestamp::from_date(Date::new(2021, 7, 1));
        let report = ScanReport {
            sample: SampleHash::from_ordinal(1),
            file_type: FileType::Pdf,
            analysis_date: day,
            last_submission_date: day,
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::new(70),
        };
        let sealed = SegmentWriter::new(1).push_sample(&[report]);
        let sealed = sealed.expect("one report fills a one-report segment");
        dir.persist(0, &sealed).expect("persist");
        let msg = start("--data-dir", used.to_str().expect("utf-8"));
        assert_eq!(
            msg,
            format!(
                "cannot start serve: data dir {} already holds sealed segments; \
                 restart with recovery enabled or point at a clean directory",
                used.display()
            )
        );

        // An alerts file the daemon cannot open refuses the start.
        let missing = root.join("no-such-dir").join("alerts.jsonl");
        let msg = start("--alerts-out", missing.to_str().expect("utf-8"));
        assert!(
            msg.starts_with(&format!(
                "cannot start serve: cannot open alerts sink {}: ",
                missing.display()
            )),
            "{msg}"
        );
        // So does a path that is not a regular file, before it is opened:
        // a FIFO would block the open until a writer came.
        let fifo = root.join("alerts.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.expect("mkfifo runs").success(), "mkfifo");
        for path in [fifo.as_path(), Path::new("/dev/null")] {
            assert_eq!(
                start("--alerts-out", path.to_str().expect("utf-8")),
                format!(
                    "cannot start serve: cannot open alerts sink {}: not a regular file",
                    path.display()
                )
            );
        }
        // And, without --recover, a file another run already wrote to.
        let written = root.join("alerts.jsonl");
        std::fs::write(&written, "{\"slot\":0}\n").expect("write");
        assert_eq!(
            start("--alerts-out", written.to_str().expect("utf-8")),
            format!(
                "cannot start serve: alerts file {} already holds alerts; \
                 restart with --recover or point at a clean file",
                written.display()
            )
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A scratch directory for one test, emptied first.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vtld-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn simulate_into(out: &Path) -> Result<(), VtldError> {
        cmd_simulate(SimulateArgs {
            samples: 200,
            seed: 7,
            out: out.to_str().expect("utf-8").into(),
        })
    }

    /// `--out` is written through `write_durable`: the bytes are the
    /// store's, and a stale `<out>.tmp` from an interrupted run is
    /// truncated and reused, then renamed away.
    #[test]
    fn simulate_reuses_a_stale_tmp_file() {
        let dir = scratch("simulate-stale-tmp");
        let out = dir.join("feed.vtstore");
        let tmp = dir.join("feed.vtstore.tmp");
        std::fs::write(&tmp, vec![0xAB; 1 << 16]).expect("stale tmp");
        simulate_into(&out).expect("simulate");
        let config = SimConfig::builder()
            .seed(7)
            .samples(200)
            .build()
            .expect("config");
        let mut expect = Vec::new();
        write_store(&Study::generate(config).build_store(), &mut expect).expect("write");
        assert_eq!(std::fs::read(&out).expect("read out"), expect);
        assert!(!tmp.exists(), "the tmp file was renamed into place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write that cannot happen is a typed error and leaves the store
    /// already at `--out` byte for byte.
    #[test]
    fn a_failed_simulate_leaves_the_old_store() {
        let dir = scratch("simulate-failed-write");
        let out = dir.join("feed.vtstore");
        simulate_into(&out).expect("first simulate");
        let before = std::fs::read(&out).expect("read out");
        std::fs::create_dir(dir.join("feed.vtstore.tmp")).expect("tmp as a directory");
        let err = simulate_into(&out).expect_err("the tmp path is a directory");
        assert!(matches!(err, VtldError::Io { .. }), "{err:?}");
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", out.display())),
            "{err}"
        );
        assert_eq!(std::fs::read(&out).expect("read out"), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--metrics-out` and every `--csv-dir` file are written through
    /// `write_durable` too: a write that cannot happen is a typed error
    /// and leaves the file already there byte for byte.
    #[test]
    fn a_failed_metrics_or_csv_write_leaves_the_old_file() {
        let dir = scratch("report-failed-write");
        let metrics = dir.join("metrics.json");
        let obs_args = ObsArgs {
            metrics_out: Some(metrics.to_str().expect("utf-8").into()),
            verbose: false,
        };
        let obs = obs_args.obs();
        obs.counter("run/marker").add(1);
        obs_args.emit(&obs).expect("first emit");
        let before = std::fs::read(&metrics).expect("read metrics");
        obs.counter("run/marker").add(1);
        std::fs::create_dir(dir.join("metrics.json.tmp")).expect("tmp as a directory");
        let err = obs_args
            .emit(&obs)
            .expect_err("the tmp path is a directory");
        assert!(matches!(err, VtldError::Io { .. }), "{err:?}");
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", metrics.display())),
            "{err}"
        );
        assert_eq!(std::fs::read(&metrics).expect("read metrics"), before);

        let config = SimConfig::builder()
            .seed(7)
            .samples(200)
            .build()
            .expect("config");
        let sim = VirusTotalSim::new(config);
        let results = pipeline::run_streamed(&sim, 1, Obs::noop());
        let csv = dir.join("csv");
        let csv_dir = csv.to_str().expect("utf-8");
        write_csvs(csv_dir, &results, sim.fleet()).expect("first export");
        let files = vt_label_dynamics::report::export_csv(&results, sim.fleet());
        let (name, _) = files.last().expect("some CSV file");
        let target = csv.join(name);
        std::fs::write(&target, b"older export").expect("overwrite");
        std::fs::create_dir(csv.join(format!("{name}.tmp"))).expect("tmp as a directory");
        let err =
            write_csvs(csv_dir, &results, sim.fleet()).expect_err("the tmp path is a directory");
        assert!(matches!(err, VtldError::Io { .. }), "{err:?}");
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", target.display())),
            "{err}"
        );
        assert_eq!(std::fs::read(&target).expect("read csv"), b"older export");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_args_alerting_flags() {
        let s = parse_serve(&strings(&[
            "--alerts-out",
            "/tmp/alerts.jsonl",
            "--alerts-tcp",
            "127.0.0.1:9000",
        ]))
        .expect("ok");
        assert!(s.alerts);
        assert_eq!(s.alerts_out, Some(PathBuf::from("/tmp/alerts.jsonl")));
        assert_eq!(s.alerts_tcp.as_deref(), Some("127.0.0.1:9000"));

        let off = parse_serve(&strings(&["--no-alerts"])).expect("ok");
        assert!(!off.alerts, "--no-alerts turns the detectors off");
        assert!(off.alerts_out.is_none());
    }
}
