//! §3–§4 benches: Table 1 (API semantics), Table 2 (store accounting),
//! Table 3 (file-type distribution), Fig. 1 (reports-per-sample CDF).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vt_bench::{bench_ctx, study, BENCH_SAMPLES, BENCH_SEED};
use vt_dynamics::landscape::{self, Landscape};
use vt_dynamics::Analysis;
use vt_engines::EngineFleet;
use vt_model::time::{Date, Duration, Timestamp};
use vt_model::{FileType, GroundTruth, SampleHash, SampleMeta};
use vt_sim::{SampleSession, SimConfig, VirusTotalSim};
use vt_store::StoreBuilder;

/// Table 1 — one full upload/rescan/report API cycle.
fn table1_api_semantics(c: &mut Criterion) {
    let fleet = EngineFleet::with_seed(1);
    let origin = Timestamp::from_date(Date::new(2021, 6, 1));
    let meta = SampleMeta {
        hash: SampleHash::from_ordinal(7),
        file_type: FileType::Win32Exe,
        origin,
        first_submission: origin + Duration::days(3),
        truth: GroundTruth::Malicious { detectability: 0.6 },
    };
    c.bench_function("table1_api_semantics", |b| {
        b.iter(|| {
            let t0 = meta.first_submission;
            let (mut session, first) = SampleSession::open(&fleet, meta, t0);
            let rescan = session.rescan(t0 + Duration::days(2));
            let upload = session.upload(t0 + Duration::days(5));
            let report = session.report();
            black_box((first, rescan, upload, report))
        })
    });
}

/// Table 2 — load the full benchmark feed into the compressed,
/// month-partitioned store and account per month.
fn table2_monthly_volume(c: &mut Criterion) {
    let study = study();
    let mut group = c.benchmark_group("table2_monthly_volume");
    group.sample_size(10);
    group.bench_function("store_and_account", |b| {
        b.iter(|| {
            let mut store = StoreBuilder::new();
            for rec in study.records() {
                store.append_batch(&rec.reports);
            }
            black_box(store.seal().partition_stats())
        })
    });
    group.finish();
}

/// Table 3 + Fig. 1 — one pass dataset overview.
fn table3_and_fig1(c: &mut Criterion) {
    let ctx = bench_ctx();
    c.bench_function("table3_filetypes", |b| {
        b.iter(|| {
            let (stats, _) = Landscape.run(&ctx);
            black_box(stats.table3())
        })
    });
    c.bench_function("fig1_reports_per_sample", |b| {
        let (stats, _) = Landscape.run(&ctx);
        b.iter(|| black_box(landscape::fig1_points(&stats)))
    });
}

/// The feed generator — what `vtld simulate`, `vtld study` and the serve
/// feeder spend their time in — and its two halves: the plan resolved
/// once per sample and the fleet scan run once per report. The fleet is
/// warm (its day plane fills during the first sweep), which is the
/// state every report after a day's first one sees.
fn sim_generate(c: &mut Criterion) {
    let sim = VirusTotalSim::new(SimConfig::new(BENCH_SEED, BENCH_SAMPLES));
    let fleet = sim.fleet();
    let mut group = c.benchmark_group("sim_generate");
    group.sample_size(10);
    group.bench_function("trajectories_1_worker", |b| {
        b.iter(|| sim.trajectories().map(|(_, r)| r.len()).sum::<usize>())
    });
    let feed: Vec<(SampleMeta, Vec<Timestamp>)> = sim
        .trajectories()
        .map(|(meta, reports)| (meta, reports.iter().map(|r| r.analysis_date).collect()))
        .collect();
    group.bench_function("sample_plan", |b| {
        b.iter(|| {
            for (meta, _) in &feed {
                black_box(fleet.sample_plan(meta));
            }
        })
    });
    let plans: Vec<_> = feed.iter().map(|(m, _)| fleet.sample_plan(m)).collect();
    group.bench_function("fleet_scan", |b| {
        b.iter(|| {
            for ((meta, times), plan) in feed.iter().zip(&plans) {
                for &t in times {
                    black_box(fleet.scan(plan, meta, t));
                }
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    table1_api_semantics,
    sim_generate,
    table2_monthly_volume,
    table3_and_fig1
);
criterion_main!(benches);
