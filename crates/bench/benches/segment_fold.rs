//! Segment-fold cost: the incremental engine's O(segment) claim.
//!
//! The tentpole contract of [`vt_dynamics::IncrementalStudy`] is that
//! incorporating one sealed segment costs O(segment) — table + fold the
//! new records, merge fixed-size partials — while re-running the batch
//! pipeline costs O(everything seen so far). Four arms demonstrate it
//! over the memoized 60k-sample study cut into 5k-sample segments:
//!
//! * `fold_first_segment` — fold one segment into an empty study.
//! * `fold_last_segment` — fold the same-sized segment into a study
//!   that has already absorbed the other eleven. O(segment) means this
//!   arm matches `fold_first_segment`, not the amount of history.
//! * `full_recompute` — the batch pipeline over all twelve segments,
//!   which is what a naive daemon would re-run per seal (~12× the fold).
//! * `publish_results` — clone-and-finish of the cached partials, the
//!   per-seal cost of snapshotting [`StudyResults`] in `vtld serve`
//!   before the merge tree (kept as the flat-publish baseline).
//! * `publish_first_segment` / `publish_last_segment` — the
//!   O(changed-slot) epoch publish: update one leaf of the serve
//!   merger's [`vt_dynamics::SlotMergeTree`] and finish the cached
//!   root. The `first` arm publishes epoch 1 (one slot, one segment);
//!   the `last` arm re-publishes a dirty slot with the other eleven
//!   segments of history already merged behind the cached internal
//!   nodes. History-independence means the two arms match — the
//!   per-epoch cost is the dirty slot's log₂(8) root path plus a
//!   finish whose dominant term (Spearman over engine pairs) does not
//!   grow with samples.
//!
//! Headline numbers land in `BENCH_pipeline.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vt_bench::study;
use vt_dynamics::{
    analyze_records_obs, DecodeArena, IncrementalStudy, SampleRecord, SlotMergeTree,
};
use vt_obs::Obs;
use vt_store::PartitionStats;

const SEGMENT_SAMPLES: usize = 5_000;
const WORKERS: usize = 4;

fn segments() -> Vec<&'static [SampleRecord]> {
    study().records().chunks(SEGMENT_SAMPLES).collect()
}

fn partitions() -> Vec<PartitionStats> {
    study().build_store().partition_stats()
}

fn fresh_study() -> IncrementalStudy<'static> {
    let st = study();
    IncrementalStudy::new(st.sim().fleet(), st.sim().config().window_start()).with_workers(WORKERS)
}

fn segment_fold(c: &mut Criterion) {
    let segs = segments();
    let mut group = c.benchmark_group("segment_fold");
    group.sample_size(20);

    group.bench_function("fold_first_segment", |b| {
        b.iter(|| {
            let mut inc = fresh_study();
            inc.fold_segment(black_box(segs[0]), Obs::noop());
            black_box(inc.segments())
        })
    });

    // All history but the last segment, folded once up front; each
    // iteration pays only the clone of the cached partials plus the
    // fold of the final segment.
    let mut warm = fresh_study();
    for seg in &segs[..segs.len() - 1] {
        warm.fold_segment(seg, Obs::noop());
    }
    let last = *segs.last().expect("bench study is non-empty");
    group.bench_function("fold_last_segment", |b| {
        b.iter(|| {
            let mut inc = warm.clone();
            inc.fold_segment(black_box(last), Obs::noop());
            black_box(inc.segments())
        })
    });

    // The zero-copy serve-ingest path: the same first segment as a
    // sealed store, folded through the reusable decode arena
    // (`fold_store`) — no `Vec<ScanReport>`, no `SampleRecord`.
    let seg_store = {
        let mut store = vt_store::StoreBuilder::new();
        for r in segs[0] {
            store.append_batch(&r.reports);
        }
        store.seal()
    };
    let mut arena = DecodeArena::new();
    group.bench_function("fold_first_segment_store", |b| {
        b.iter(|| {
            let mut inc = fresh_study();
            inc.fold_store(black_box(&seg_store), &mut arena, Obs::noop());
            black_box(inc.segments())
        })
    });

    let parts = partitions();
    group.bench_function("full_recompute", |b| {
        let st = study();
        b.iter(|| {
            black_box(analyze_records_obs(
                black_box(st.records()),
                parts.clone(),
                st.sim().fleet(),
                st.sim().config().window_start(),
                WORKERS,
                Obs::noop(),
            ))
        })
    });

    let mut full = warm.clone();
    full.fold_segment(last, Obs::noop());
    group.bench_function("publish_results", |b| {
        b.iter(|| black_box(full.results(parts.clone(), Obs::noop())))
    });

    // ---- incremental epoch publishing (the serve merge tree) ---------
    // Slot-route the study as `vtld serve` does: per-slot studies fold
    // their own streams; a publish is one leaf update plus finishing
    // the cached root.
    const SLOTS: usize = 8;
    let st = study();
    let mut slot_records: Vec<Vec<SampleRecord>> = vec![Vec::new(); SLOTS];
    for r in st.records() {
        slot_records[(r.meta.hash.0 % SLOTS as u128) as usize].push(r.clone());
    }

    // Epoch 1: only one slot has folded anything — its first segment.
    let first_seg = &slot_records[0][..slot_records[0].len().min(SEGMENT_SAMPLES)];
    let first_partial = {
        let mut inc = fresh_study();
        inc.fold_segment(first_seg, Obs::noop());
        inc.partials().cloned()
    };
    let mut first_tree = SlotMergeTree::new(SLOTS);
    first_tree.update_slot(0, first_partial.clone(), parts.clone());
    group.bench_function("publish_first_segment", |b| {
        b.iter(|| {
            first_tree.update_slot(0, black_box(first_partial.clone()), parts.clone());
            let root = first_tree.root().expect("leaf 0 is set");
            black_box(root.finish(first_tree.root_partitions().to_vec(), Obs::noop()))
        })
    });

    // Epoch N: every slot fully folded; one slot republishes against
    // eleven segments of history cached in the internal nodes.
    let full_partials: Vec<_> = slot_records
        .iter()
        .map(|recs| {
            let mut inc = fresh_study();
            for seg in recs.chunks(SEGMENT_SAMPLES) {
                inc.fold_segment(seg, Obs::noop());
            }
            inc.partials().cloned()
        })
        .collect();
    let mut last_tree = SlotMergeTree::new(SLOTS);
    for (slot, partials) in full_partials.iter().enumerate() {
        let slot_parts = if slot == 0 { parts.clone() } else { Vec::new() };
        last_tree.update_slot(slot, partials.clone(), slot_parts);
    }
    group.bench_function("publish_last_segment", |b| {
        b.iter(|| {
            last_tree.update_slot(0, black_box(full_partials[0].clone()), parts.clone());
            let root = last_tree.root().expect("warm tree");
            black_box(root.finish(last_tree.root_partitions().to_vec(), Obs::noop()))
        })
    });

    group.finish();
}

criterion_group!(benches, segment_fold);
criterion_main!(benches);
