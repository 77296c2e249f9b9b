//! One end-to-end benchmark for `vtld` (batch + serve) with an
//! outside-in per-layer trace. See README.md beside this package and
//! BENCHMARK.json at the repository root.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed S --seconds T --trace 0|1` runs one
//!   workload and prints one JSON result line last (what the benchmark
//!   driver calls);
//! * without `--workload`, all five workloads run as one *set* and every
//!   metric is printed by name with its unit (`--sets N` repeats the set
//!   and compares, `--trace` adds the traced pass, `--quick` is a smoke
//!   run at a tenth of the sizes).

mod calibrate;
mod child;
mod metrics;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vt_label_dynamics::obs::json;

use child::Vtld;
use metrics::{Values, END_TO_END, RUN_SECONDS, WORKLOADS};
use spans::Tracer;
use workloads::{Ctx, Outcome, Sizes};

const DEFAULT_SEED: u64 = 4269;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    quick: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]]
                 [--sets [N]] [--quick] [--out DIR]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        sets: 1,
        quick: false,
        out: None,
    };
    let mut i = 0;
    // A flag's value; optional flags only take one that parses.
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        raw.get(*i)
            .ok_or_else(|| format!("{} requires a value", raw[*i - 1]))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => args.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                let v = value(&mut i)?;
                args.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value(&mut i)?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got '{v}'"))?;
            }
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--sets" => match raw.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => {
                    args.sets = n.max(1);
                    i += 1;
                }
                None => args.sets = 2,
            },
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut i)?)),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.contains(&name.as_str()) {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    Ok(args)
}

// ---- start-up self-check ------------------------------------------------

/// Checks the benchmark's own instruments before every pass (example
/// and bench `#[test]`s are not part of the repository's tier-1 run).
fn self_check() -> Result<(), String> {
    use stats::{median, pacer_due_ns, percentile, tail_quantile, Rng, Zipf};
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("self-check failed: {what}"))
        }
    };

    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check(percentile(&ten, 0.5) == 5.0, "p50 of 1..=10 is 5")?;
    check(percentile(&ten, 0.9) == 9.0, "p90 of 1..=10 is 9")?;
    check(percentile(&ten, 0.99) == 10.0, "p99 of 1..=10 is 10")?;
    check(percentile(&ten, 0.0) == 1.0, "p0 is the minimum")?;
    check(percentile(&[], 0.5) == 0.0, "empty percentile is 0")?;
    check(median(&[3.0, 1.0, 2.0]) == 2.0, "odd median")?;
    check(median(&[4.0, 1.0, 2.0, 3.0]) == 2.5, "even median")?;
    check(tail_quantile(19).is_none(), "no tail below 20 samples")?;
    check(tail_quantile(1_000) == Some(("p99", 0.99)), "tail of 1000")?;

    let zipf = Zipf::new(1_000);
    check(
        zipf.cdf().windows(2).all(|w| w[0] < w[1]),
        "Zipf CDF is strictly increasing",
    )?;
    check((zipf.cdf()[999] - 1.0).abs() < 1e-12, "Zipf CDF ends at 1")?;
    let draws = |seed| {
        let mut rng = Rng::new(seed);
        (0..64).map(|_| zipf.draw(&mut rng)).collect::<Vec<_>>()
    };
    check(draws(7) == draws(7), "Zipf draws repeat for a seed")?;
    check(draws(7) != draws(8), "Zipf draws differ across seeds")?;

    check(
        (0..100_000u64)
            .all(|i| pacer_due_ns(i + 1, 1_000_000) - pacer_due_ns(i, 1_000_000) == 1_000_000)
            && pacer_due_ns(3_600_000, 1_000_000) == 3_600_000_000_000,
        "pacer schedule has zero drift",
    )?;

    let mut tr = Tracer::new();
    let root = tr.enter("root", 0);
    for i in 0..3 {
        let mid = tr.enter("mid", i);
        tr.time("leaf", i, || std::hint::black_box((0..1_000).sum::<u64>()));
        tr.time("leaf", i, || std::hint::black_box((0..1_000).sum::<u64>()));
        tr.exit(mid);
    }
    tr.exit(root);
    check(
        tr.self_ns_sum() == tr.roots_ns_sum(),
        "span self times sum to the root",
    )?;
    check(tr.count("leaf") == 6, "span count")?;
    // A second pipeline with the same span names, in a recorder of its
    // own, leaves the first one's totals alone; one recorder shared by
    // both would not close.
    let (leaf_s, mut shared) = (tr.total_s("leaf"), Tracer::new());
    for root in ["root", "other"] {
        let id = shared.enter(root, 0);
        shared.time("leaf", 0, || ());
        shared.exit(id);
    }
    check(
        tr.total_s("leaf") == leaf_s && shared.close(&["root"]).is_err(),
        "a recorder holds one pipeline",
    )?;
    let tr = tr.close(&["root"])?;
    check(
        json::parse(&trace_json(&[("self_check", "root", tr)])).is_ok(),
        "trace.json re-parses",
    )?;

    check(
        metrics::STAGES.to_vec() == vt_label_dynamics::dynamics::stage_names(),
        "stage list equals pipeline::stage_names()",
    )?;
    let mut values = Values::default();
    values.set("latency_p50_ms", 1.25, 3);
    let line = result_line(true, 3, 0, &values, false);
    let parsed = json::parse(&line).map_err(|e| format!("self-check failed: result line: {e}"))?;
    check(
        parsed
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .and_then(|m| m.get("value"))
            .and_then(json::Value::as_f64)
            == Some(1.25),
        "result line re-parses with vt_obs::json",
    )?;

    check_contract()
}

/// `BENCHMARK.json` must list what this program measures: the same
/// workloads, end-to-end metrics (unit, direction, bound) and per-layer
/// metrics, in the same order, and the same run length.
fn check_contract() -> Result<(), String> {
    let path = child::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let text_of = |v: &json::Value, key: &str| {
        v.get(key)
            .and_then(json::Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    // One comparable line per entry of a list of the file.
    let listed = |key: &str, line: &dyn Fn(&json::Value) -> String| -> Vec<String> {
        file.get(key)
            .and_then(json::Value::as_array)
            .map(|entries| entries.iter().map(line).collect())
            .unwrap_or_default()
    };
    let metric = |v: &json::Value| {
        format!(
            "{} {} {}",
            text_of(v, "name"),
            text_of(v, "unit"),
            text_of(v, "better")
        )
    };
    let same = listed("workloads", &|v| text_of(v, "name")) == WORKLOADS
        && listed("end_to_end", &|v| {
            let bound = v.get("bound").and_then(json::Value::as_f64);
            format!("{} {}", metric(v), bound.unwrap_or(-1.0))
        }) == END_TO_END
            .iter()
            .map(|m| format!("{} {} {} {}", m.name, m.unit, m.better, m.bound))
            .collect::<Vec<_>>()
        && listed("per_layer", &metric)
            == metrics::per_layer()
                .iter()
                .map(|m| format!("{} {} {}", m.name, m.unit, m.better))
                .collect::<Vec<_>>()
        && file.get("run_seconds").and_then(json::Value::as_u64) == Some(u64::from(RUN_SECONDS));
    if same {
        Ok(())
    } else {
        Err("self-check failed: BENCHMARK.json disagrees with src/metrics.rs".into())
    }
}

// ---- environment ---------------------------------------------------------

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where the numbers were taken: recorded in results.json and
/// BASELINE.json next to them.
fn environment() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        (
            "rustc",
            command_line("rustc", &["-V"], Path::new(".")).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], &child::repo_root())
                .unwrap_or_else(|| "unknown".into()),
        ),
    ]
}

// ---- running ---------------------------------------------------------------

/// Runs one workload untraced and, when asked, its traced pass; returns
/// the closed recorder of every traced pipeline, by root name.
fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> (Outcome, Vec<(&'static str, Tracer)>) {
    let load = load_average();
    if load > 0.5 * nproc() as f64 {
        eprintln!(
            "warning: 1-min load average {load:.2} is above {:.1}; timings will be noisy",
            0.5 * nproc() as f64
        );
    }
    eprintln!("[{name}] seed {} for {:.0} s ...", ctx.seed, ctx.seconds);
    let mut outcome = match name {
        "batch_study" => workloads::batch_study(ctx),
        "batch_analyze" => workloads::batch_analyze(ctx),
        "serve_durable" => workloads::serve_durable(ctx),
        "serve_mixed" => workloads::serve_mixed(ctx),
        "serve_query" => workloads::serve_query(ctx),
        other => unreachable!("workload '{other}' passed argument validation"),
    };
    outcome.values.set("load_average", load, 0);
    if !trace {
        return (outcome, Vec::new());
    }

    eprintln!("[{name}] traced pass ...");
    // The traced pass takes the first feed.
    let seed = ctx.feed_seed(0);
    let v = &outcome.values;
    // Coverage is against the measured medians, not reference seconds.
    let wall_s = v.get("wall_s");
    let serve_s = |rate: &str| ctx.sizes.serve_samples as f64 / v.get(rate).max(1e-9);
    let traced = match name {
        "batch_study" => traced::study(seed, &ctx.sizes, wall_s),
        "batch_analyze" => traced::analyze(seed, &ctx.sizes, &ctx.vtld.work, wall_s),
        "serve_durable" => traced::ingest(
            seed,
            &ctx.sizes,
            workloads::DURABLE_SEGMENT_REPORTS,
            Some(&ctx.vtld.path("traced-wal")),
            serve_s("ingest_samples_per_s"),
            serve_s("recover_samples_per_s"),
        ),
        "serve_mixed" => traced::ingest(
            seed,
            &ctx.sizes,
            workloads::MIXED_SEGMENT_REPORTS,
            None,
            serve_s("ingest_samples_per_s"),
            0.0,
        ),
        // Two closed-loop connections: each request took 2/rate.
        _ => traced::query(
            seed,
            &ctx.sizes,
            workloads::QUERY_SEGMENT_REPORTS,
            2.0 / v.get("queries_per_s").max(1e-9),
        ),
    };
    let recorders = match traced {
        Ok(traced) => {
            outcome.values.extend(traced.values);
            traced.recorders
        }
        Err(e) => {
            outcome.tally.record(vec![format!("traced pass: {e}")]);
            Vec::new()
        }
    };
    if name == "serve_durable" {
        cross_check(&mut outcome);
    }
    (outcome, recorders)
}

/// `trace.json`: the spans of every traced pipeline, each in a section
/// of its own (span ids, parents and times are the section's).
fn trace_json(recorders: &[(&str, &str, Tracer)]) -> String {
    let sections: Vec<String> = recorders
        .iter()
        .map(|(workload, pipeline, tr)| {
            format!(
                "{{\"workload\":\"{workload}\",\"pipeline\":\"{pipeline}\",\"spans\":{}}}",
                tr.to_json()
            )
        })
        .collect();
    format!("{{\"pipelines\":[\n{}\n]}}\n", sections.join(",\n"))
}

/// Outside vs inside: the daemon's own span totals next to the traced
/// replica's, flagged above 15% disagreement.
fn cross_check(outcome: &mut Outcome) {
    let v = &outcome.values;
    for (inside, outside) in [
        ("daemon.span.segment_s", "fold.store.s"),
        ("daemon.span.collector_s", "collector.run.s"),
    ] {
        let (a, b) = (v.get(inside), v.get(outside));
        let diff = stats::rel_diff(a, b);
        let flag = if diff > 0.15 {
            "  <-- disagree by more than 15%"
        } else {
            ""
        };
        outcome.info.push(format!(
            "cross-check {inside} {a:.4} s (daemon's spans) vs {outside} {b:.4} s (traced replica): {:.1}%{flag}",
            diff * 100.0
        ));
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: every end-to-end metric untraced, every
/// per-layer metric traced (a layer the workload bypasses reads 0).
fn result_line(correct: bool, attempted: u64, failed: u64, values: &Values, trace: bool) -> String {
    let names: Vec<(String, &str)> = if trace {
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(values.get(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

fn print_outcome(name: &str, outcome: &Outcome) {
    println!(
        "\n## {name}  (attempted {}, failed {})",
        outcome.tally.attempted, outcome.tally.failed
    );
    let units = metrics::units();
    let is_e2e = |n: &str| END_TO_END.iter().any(|m| m.name == n);
    for pass in [true, false] {
        for (metric, &(value, samples)) in &outcome.values.0 {
            if is_e2e(metric) != pass {
                continue;
            }
            let gate = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .map(|m| format!("  [bound {}]", m.bound))
                .unwrap_or_default();
            let n = if samples > 0 {
                format!("  (n={samples})")
            } else {
                String::new()
            };
            println!(
                "  {metric:<32} {value:>16.4} {:<6}{n}{gate}",
                units.get(metric).copied().unwrap_or("")
            );
        }
    }
    for line in &outcome.info {
        println!("  - {line}");
    }
    for note in &outcome.tally.notes {
        println!("  ! {note}");
    }
}

fn outcome_json(outcome: &Outcome) -> String {
    let units = metrics::units();
    let metrics: Vec<String> = outcome
        .values
        .0
        .iter()
        .map(|(name, &(value, samples))| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{samples}}}",
                json_number(value),
                units.get(name).copied().unwrap_or("")
            )
        })
        .collect();
    format!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

/// A fresh context (and calibrator) for one workload.
fn new_ctx<'a>(args: &Args, vtld: &'a Vtld, sizes: Sizes) -> Ctx<'a> {
    Ctx {
        vtld,
        seed: args.seed,
        seconds: args.seconds,
        sizes,
        cal: Default::default(),
    }
}

/// All five workloads, `sets` times; prints every metric by name and
/// unit, writes results.json (and trace.json), and for more than one
/// set compares them against the bounds.
fn run_sets(args: &Args, vtld: &Vtld, sizes: Sizes) -> Result<bool, String> {
    let env = environment();
    println!("# vtld benchmark");
    for (key, value) in &env {
        println!("{key}: {value}");
    }
    println!(
        "seed {}  seconds/workload {}  sizes {sizes:?}{}",
        args.seed,
        args.seconds,
        if args.quick {
            "  (--quick: NOT comparable with full runs)"
        } else {
            ""
        }
    );
    let mut recorders: Vec<(&str, &str, Tracer)> = Vec::new();
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    let mut all_ok = true;
    for set in 0..args.sets {
        println!("\n# set {} of {}", set + 1, args.sets);
        let mut outcomes: Vec<Outcome> = Vec::new();
        for name in WORKLOADS {
            let ctx = new_ctx(args, vtld, sizes);
            // The traced pass belongs to the first set only.
            let (mut outcome, traced) = run_workload(name, &ctx, args.trace && set == 0);
            recorders.extend(traced.into_iter().map(|(root, tr)| (name, root, tr)));
            if name == "serve_mixed" {
                // Same feeds, other segmentation, no WAL: the statistics
                // must still agree bit for bit. Only the rho half of the
                // fingerprint is compared: the Debug half also hashes the
                // Table 2 byte accounting, which moves with where
                // segments seal.
                let rho = |fp: &Option<String>| {
                    fp.as_deref()
                        .and_then(|fp| fp.split('/').nth(1))
                        .map(str::to_string)
                };
                let durable = outcomes
                    .iter()
                    .find(|o: &&Outcome| !o.fingerprints.is_empty())
                    .map(|o| o.fingerprints.clone())
                    .unwrap_or_default();
                for (a, b) in durable.iter().zip(&outcome.fingerprints) {
                    if let (Some(a), Some(b)) = (rho(a), rho(b)) {
                        let differs =
                            (a != b).then(|| format!("rho_fnv {b} != serve_durable's {a}"));
                        outcome.tally.record(differs.into_iter().collect());
                    }
                }
            }
            print_outcome(name, &outcome);
            all_ok &= outcome.tally.failed == 0;
            outcomes.push(outcome);
        }
        sets.push(outcomes);
    }

    if args.sets > 1 {
        println!("\n# set-to-set agreement (largest relative difference between any two sets)");
        for (wi, name) in WORKLOADS.into_iter().enumerate() {
            for m in END_TO_END {
                let readings: Vec<f64> = sets.iter().map(|s| s[wi].values.get(m.name)).collect();
                let worst = readings
                    .iter()
                    .flat_map(|&a| readings.iter().map(move |&b| stats::rel_diff(a, b)))
                    .fold(0.0, f64::max);
                let demoted = metrics::DEMOTED
                    .iter()
                    .find(|&&(dw, dm, _)| dw == name && dm == m.name);
                let verdict = match (worst <= m.bound, demoted) {
                    (true, _) => "ok".to_string(),
                    (false, Some((_, _, why))) => format!("demoted, not held: {why}"),
                    (false, None) => {
                        all_ok = false;
                        "DISAGREE".to_string()
                    }
                };
                println!(
                    "  {:<14} {:<18} {:>8.2}%  bound {:>5.1}%  {verdict}   {readings:.4?}",
                    name,
                    m.name,
                    worst * 100.0,
                    m.bound * 100.0
                );
            }
        }
    }

    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| vtld.target_dir.join("benchmark-out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    let sets_json: Vec<String> = sets
        .iter()
        .map(|outcomes| {
            let members: Vec<String> = WORKLOADS
                .iter()
                .zip(outcomes)
                .map(|(name, o)| format!("\"{name}\":{}", outcome_json(o)))
                .collect();
            format!("{{{}}}", members.join(","))
        })
        .collect();
    let results = format!(
        "{{\"claim\":null,\"environment\":{{{}}},\"seed\":{},\"seconds\":{},\"quick\":{},\
         \"comparable\":{},\"sizes\":{{\"study_samples\":{},\"analyze_samples\":{},\
         \"serve_samples\":{},\"query_samples\":{},\"setup_reps\":{}}},\"sets\":[{}]}}\n",
        env_json.join(","),
        args.seed,
        json_number(args.seconds),
        args.quick,
        !args.quick,
        sizes.study_samples,
        sizes.analyze_samples,
        sizes.serve_samples,
        sizes.query_samples,
        sizes.setup_reps,
        sets_json.join(",")
    );
    json::parse(&results).map_err(|e| format!("results.json does not re-parse: {e}"))?;
    let path = out_dir.join("results.json");
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if args.trace {
        let path = out_dir.join("trace.json");
        std::fs::write(&path, trace_json(&recorders))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let spans: usize = recorders.iter().map(|(_, _, tr)| tr.spans().len()).sum();
        println!(
            "wrote {} ({} pipelines, {spans} spans)",
            path.display(),
            recorders.len()
        );
    }
    Ok(all_ok)
}

fn run(args: &Args) -> Result<bool, String> {
    self_check()?;
    let vtld = Vtld::build()?;
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::DEFAULT
    };
    let Some(name) = &args.workload else {
        return run_sets(args, &vtld, sizes);
    };
    let ctx = new_ctx(args, &vtld, sizes);
    let (outcome, traced) = run_workload(name, &ctx, args.trace);
    for line in outcome.info.iter().chain(&outcome.tally.notes) {
        eprintln!("[{name}] {line}");
    }
    if let (true, Some(dir)) = (args.trace, &args.out) {
        let recorders: Vec<_> = traced
            .into_iter()
            .map(|(root, tr)| (name.as_str(), root, tr))
            .collect();
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(dir.join("trace.json"), trace_json(&recorders))
            .map_err(|e| format!("trace.json: {e}"))?;
    }
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.values,
            args.trace
        )
    );
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
