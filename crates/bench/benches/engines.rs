//! §5.5 + §7 benches: Obs. 7 (flip-cause attribution), Fig. 10
//! (per-engine flip matrix), Fig. 11 (global correlation), Fig. 12 +
//! Tables 4–8 (per-type correlation), plus the correlation kernel at
//! feed scale and its worker-count ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vt_bench::{bench_ctx, correlation_ctx};
use vt_dynamics::causes::Causes;
use vt_dynamics::correlation::Correlation;
use vt_dynamics::flips::Flips;
use vt_dynamics::Analysis;
use vt_model::FileType;

fn obs7_flip_causes(c: &mut Criterion) {
    let ctx = bench_ctx();
    let mut group = c.benchmark_group("causes");
    group.sample_size(10);
    group.bench_function("obs7_flip_causes", |b| {
        b.iter(|| black_box(Causes.run(&ctx)))
    });
    group.finish();
}

fn fig10_flip_matrix(c: &mut Criterion) {
    let ctx = bench_ctx();
    let mut group = c.benchmark_group("flips");
    group.sample_size(10);
    group.bench_function("sec71_flip_counts_and_fig10_heatmap", |b| {
        b.iter(|| black_box(Flips.run(&ctx)))
    });
    group.finish();
}

fn fig11_fig12_correlation(c: &mut Criterion) {
    let ctx = bench_ctx();
    let mut group = c.benchmark_group("correlation");
    group.sample_size(10);
    // The global scope is always analyzed; `scopes` adds per-type ones.
    for (name, scopes) in [
        ("fig11_global_graph", &[][..]),
        ("fig12_win32exe_graph", &[FileType::Win32Exe][..]),
        (
            "tables4_8_groups",
            &[FileType::Txt, FileType::Html, FileType::Zip, FileType::Pdf][..],
        ),
    ] {
        let stage = Correlation {
            scopes,
            ..Correlation::default()
        };
        group.bench_function(name, |b| b.iter(|| black_box(stage.run(&ctx))));
    }
    group.finish();
}

/// The §7.2 hot path on a feed-scale slice (≥ 100k global rows): the
/// stage's `finish(fold(ctx))` over all 8 scopes, plus a worker-count
/// ablation.
fn correlation_kernel(c: &mut Criterion) {
    let ctx = correlation_ctx();
    assert!(
        ctx.s.reports >= 100_000,
        "correlation-kernel bench needs ≥ 100k global rows, got {}",
        ctx.s.reports
    );
    let mut group = c.benchmark_group("correlation_kernel");
    group.sample_size(10);
    group.bench_function("all_scopes_default_workers", |b| {
        b.iter(|| black_box(Correlation::default().run(&ctx)))
    });
    for workers in [1usize, 2, 4, 8, 16] {
        let ctx = ctx.with_workers(workers);
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| black_box(Correlation::default().run(&ctx)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    obs7_flip_causes,
    fig10_flip_matrix,
    fig11_fig12_correlation,
    correlation_kernel
);
criterion_main!(benches);
