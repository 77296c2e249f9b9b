//! DESIGN.md §2.6's work budget as a test: what `vtld analyze`'s fold
//! costs in heap, counted by a test-only global allocator.
//!
//! The flow is `cmd_analyze`'s at workers 1 — a strict read of a store
//! file into the decode arena, the compressed blocks dropped, one
//! `fold_arena`, `results` — over a fixed seed. Two numbers are gated:
//!
//! * the peak of live heap bytes over the flow, per report;
//! * the allocations one table build makes (`build_from_arena`), a
//!   constant independent of the row count.
//!
//! Both `heap_bytes()` estimators are checked against the allocator:
//! the bytes a column structure holds are exactly its live bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use vt_label_dynamics::model::time::Month;
use vt_label_dynamics::prelude::*;
use vt_label_dynamics::store::{read_store_into, PartitionStats, StoreObs};

/// The system allocator, counting live bytes, their peak, and every
/// allocation (`alloc`, `alloc_zeroed` and `realloc` each count one).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const SEED: u64 = 7;
const SAMPLES: u64 = 20_000;

/// Allocations in one `build_from_arena` at workers 1, whatever the
/// row count: the permutation, the bucket ends, the CSR offsets and
/// their one shrink, nine column buffers, the worker ranges and their
/// column windows.
const TABLE_BUILD_ALLOCS: usize = 15;

/// The arena's heap for `n` rows: 66 bytes a row over six columns, each
/// grown by doubling from a capacity of 4.
fn arena_budget(n: usize) -> usize {
    66 * n.next_power_of_two().max(4)
}

/// The table's heap for `n` rows of `s` samples: 44 bytes a row
/// (AV-Rank, date, two bitmaps), 35 a sample (offset, type, envelope,
/// flags, hash), and the closing offset.
fn table_budget(n: usize, s: usize) -> usize {
    44 * n + 35 * s + 8
}

/// What the fold holds beside the arena and its table at the peak — the
/// stages' partials and temporaries, and the row permutation while the
/// build runs — in bytes per report, at most.
const FOLD_PER_REPORT: usize = 48;

#[test]
fn analyze_heap_fits_its_budget() {
    let path =
        std::env::temp_dir().join(format!("vtld-work-budget-{}.vtstore", std::process::id()));
    {
        let study = Study::generate_with_workers(SimConfig::new(SEED, SAMPLES), 2);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create feed"));
        write_store(&study.build_store(), &mut file).expect("write feed");
    }
    let fleet = EngineFleet::with_seed(SEED ^ 0xF1EE_7000);
    let window_start = Month::COLLECTION_START.start();

    // ---- the flow, as `vtld analyze` runs it -------------------------
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let mut reader = BufReader::new(std::fs::File::open(&path).expect("open feed"));
    let mut arena = DecodeArena::new();
    let store = arena
        .refill(|rows| read_store_into(&mut reader, rows, &StoreObs::new(Obs::noop())))
        .expect("strict read");
    let (reports, stats) = (store.report_count() as usize, store.partition_stats());
    drop((store, reader));
    let stats_bytes = stats.capacity() * std::mem::size_of::<PartitionStats>();
    assert_eq!(
        live() - base,
        arena.heap_bytes() + stats_bytes,
        "after the read only the arena and the partition stats are live"
    );
    let mut study = IncrementalStudy::new(&fleet, window_start).with_workers(1);
    let samples = study.fold_arena(&arena, Obs::noop());
    let results = study.results(stats, Obs::noop());
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(results.dataset.total_samples(), samples as u64);
    drop((results, study));

    // ---- one table build, counted ------------------------------------
    let before = (live(), ALLOCS.load(Ordering::Relaxed));
    let table = TrajectoryTable::build_from_arena(&arena, window_start, 1, Obs::noop());
    let allocs = ALLOCS.load(Ordering::Relaxed) - before.1;
    assert_eq!(
        live() - before.0,
        table.heap_bytes(),
        "the table's estimate is its live bytes"
    );
    assert_eq!(table.report_rows(), reports);
    let _ = std::fs::remove_file(&path);

    let (arena_bytes, table_bytes) = (arena.heap_bytes(), table.heap_bytes());
    let budget = arena_budget(reports) + table_budget(reports, samples) + FOLD_PER_REPORT * reports;
    println!(
        "work budget: {reports} reports / {samples} samples; peak {peak} B = {:.1} B/report \
         (arena {:.1}, table {:.1}, budget {:.1}); table build {allocs} allocations",
        peak as f64 / reports as f64,
        arena_bytes as f64 / reports as f64,
        table_bytes as f64 / reports as f64,
        budget as f64 / reports as f64,
    );
    assert_eq!(arena_bytes, arena_budget(reports), "arena bytes");
    assert_eq!(table_bytes, table_budget(reports, samples), "table bytes");
    assert!(
        (arena_bytes + table_bytes..=budget).contains(&peak),
        "peak live heap {peak} B over {reports} reports: the fold holds the arena and its \
         table at once, and at most {FOLD_PER_REPORT} B a report beside them ({budget} B)"
    );
    assert_eq!(allocs, TABLE_BUILD_ALLOCS, "allocations in one table build");
}
