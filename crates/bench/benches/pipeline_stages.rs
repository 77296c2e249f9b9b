//! Tentpole bench for the columnar pipeline: the
//! [`TrajectoryTable`]-backed parallel stages with a per-stage worker
//! ablation (1/2/4/8) and the full `analyze_records` wall clock. The
//! worker-1 arm stands in for the retired serial reference path (whose
//! historical `serial_total` numbers are kept in `BENCH_pipeline.json`).
//!
//! All timings run over the memoized ≥200k-sample seeded study
//! ([`vt_bench::correlation_study`], 500k samples), so the speedup
//! claim in `BENCH_pipeline.json` is demonstrated at the scale the
//! paper's dataset demands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vt_bench::{correlation_ctx, correlation_fresh_dynamic, correlation_study, correlation_table};
use vt_dynamics::categorize::Categorize;
use vt_dynamics::causes::Causes;
use vt_dynamics::flips::Flips;
use vt_dynamics::intervals::Intervals;
use vt_dynamics::landscape::Landscape;
use vt_dynamics::metrics::{Metrics, WindowGrowth};
use vt_dynamics::stability::Stability;
use vt_dynamics::stabilization::Stabilization;
use vt_dynamics::{pipeline, Analysis, AnalysisCtx, DecodeArena, TrajectoryTable};
use vt_obs::Obs;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The ten formerly-serial stages (everything except correlation, which
/// `engines.rs` benches on its own), run back to back through their
/// `Analysis` entry points.
fn run_stages(ctx: &AnalysisCtx) {
    black_box(Landscape.run(ctx));
    black_box(Stability.run(ctx));
    black_box(Metrics.run(ctx));
    black_box(WindowGrowth::default().run(ctx));
    black_box(Intervals::default().run(ctx));
    black_box(Categorize::ALL.run(ctx));
    black_box(Categorize::PE.run(ctx));
    black_box(Causes.run(ctx));
    black_box(Stabilization.run(ctx));
    black_box(Flips.run(ctx));
}

/// Columnar stage total at each worker count. The worker-1 arm is the
/// single-threaded baseline; the historical serial reference
/// implementations were deleted with the deprecated shims.
fn stage_totals(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_stages");
    for &workers in &WORKER_SWEEP {
        let ctx = correlation_ctx().with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new("parallel_total", workers),
            &workers,
            |b, _| b.iter(|| run_stages(&ctx)),
        );
    }
    group.finish();
}

/// Per-stage worker ablation over the shared table.
fn stage_ablation(c: &mut Criterion) {
    type StageFn = Box<dyn Fn(&AnalysisCtx)>;
    let stages: Vec<(&str, StageFn)> = vec![
        (
            "landscape",
            Box::new(|ctx| drop(black_box(Landscape.run(ctx)))),
        ),
        (
            "stability",
            Box::new(|ctx| drop(black_box(Stability.run(ctx)))),
        ),
        ("metrics", Box::new(|ctx| drop(black_box(Metrics.run(ctx))))),
        (
            "window_growth",
            Box::new(|ctx| {
                black_box(WindowGrowth::default().run(ctx));
            }),
        ),
        (
            "intervals",
            Box::new(|ctx| drop(black_box(Intervals::default().run(ctx)))),
        ),
        (
            "categorize_all",
            Box::new(|ctx| drop(black_box(Categorize::ALL.run(ctx)))),
        ),
        (
            "categorize_pe",
            Box::new(|ctx| drop(black_box(Categorize::PE.run(ctx)))),
        ),
        (
            "causes",
            Box::new(|ctx| {
                black_box(Causes.run(ctx));
            }),
        ),
        (
            "stabilization",
            Box::new(|ctx| drop(black_box(Stabilization.run(ctx)))),
        ),
        ("flips", Box::new(|ctx| drop(black_box(Flips.run(ctx))))),
    ];
    let mut group = c.benchmark_group("stage");
    for (name, run) in &stages {
        for &workers in &WORKER_SWEEP {
            let ctx = correlation_ctx().with_workers(workers);
            group.bench_with_input(BenchmarkId::new(*name, workers), &workers, |b, _| {
                b.iter(|| run(&ctx))
            });
        }
    }
    group.finish();
}

/// The shared one-pass table build (kernel `table_build`): the
/// row-struct path (`build`, from materialized `SampleRecord`s) next to
/// the zero-copy segment-fold path (`build_arena`, streaming the sealed
/// store's blocks into a reused [`DecodeArena`] and building the
/// columns straight from it — the route `vtld serve` folds through).
fn table_build(c: &mut Criterion) {
    let st = correlation_study();
    let ws = st.sim().config().window_start();
    let mut group = c.benchmark_group("table");
    group.sample_size(10);
    for &workers in &WORKER_SWEEP {
        group.bench_with_input(BenchmarkId::new("build", workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(TrajectoryTable::build_with(
                    st.records(),
                    ws,
                    w,
                    Obs::noop(),
                ))
            })
        });
    }
    let store = st.build_store();
    let mut arena = DecodeArena::new();
    // Untimed first-touch warmup: the first arena fill + build faults
    // in ~50MB of fresh pages, and the 3-iteration harness would
    // charge that one-off artifact to the first arm's mean.
    arena.clear();
    store.for_each_row(&mut arena);
    black_box(TrajectoryTable::build_from_arena(
        &arena,
        ws,
        1,
        Obs::noop(),
    ));
    for &workers in &WORKER_SWEEP {
        group.bench_with_input(
            BenchmarkId::new("build_arena", workers),
            &workers,
            |b, &w| {
                b.iter(|| {
                    arena.clear();
                    store.for_each_row(&mut arena);
                    black_box(TrajectoryTable::build_from_arena(
                        &arena,
                        ws,
                        w,
                        Obs::noop(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Full `analyze_records` (all eleven registry stages, table and *S*
/// construction included) at the default worker count.
fn full_pipeline(c: &mut Criterion) {
    let st = correlation_study();
    // Warm the memoized fixtures so the first iteration isn't charged
    // for them.
    let _ = correlation_table();
    let _ = correlation_fresh_dynamic();
    let mut group = c.benchmark_group("pipeline_full");
    group.bench_function("analyze_records", |b| {
        b.iter(|| {
            black_box(pipeline::analyze_records(
                st.records(),
                Vec::new(),
                st.sim().fleet(),
                st.sim().config().window_start(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    stage_totals,
    stage_ablation,
    table_build,
    full_pipeline
);
criterion_main!(benches);
