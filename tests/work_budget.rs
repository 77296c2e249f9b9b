//! DESIGN.md §2.6's work budget as a test: what `vtld analyze`'s fold
//! and `vtld study` cost in heap, counted by a test-only global
//! allocator.
//!
//! The analyze flow is `cmd_analyze`'s at workers 1 — a strict read of
//! a store file into the decode arena, the compressed blocks dropped,
//! one `fold_arena`, `results` — over a fixed seed. Two numbers are
//! gated:
//!
//! * the peak of live heap bytes over the flow, per report;
//! * the allocations one table build makes (`build_from_arena`), a
//!   constant independent of the row count.
//!
//! The `heap_bytes()` of the arena, the table and the per-hash index
//! (folded from that table, and concatenated from two halves) are
//! checked against the allocator: the bytes a column structure holds
//! are exactly its live bytes, and each is a formula in the counts.
//!
//! The study flow is `cmd_study`'s at workers 1 (`run_streamed`), at
//! two feed sizes: its peak live heap is one chunk's, so the two peaks
//! differ by at most a constant.
//!
//! The §7.2 correlation fold makes the same allocations at two sizes of
//! *S*, and its only scratch is one row tile. A strict store read of a
//! header that claims a million blocks fails without allocating them.
//!
//! The counters are process-wide, so the tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use vt_label_dynamics::dynamics::correlation::Correlation;
use vt_label_dynamics::dynamics::{freshdyn, run_streamed, STUDY_CHUNK_SAMPLES};
use vt_label_dynamics::model::time::Month;
use vt_label_dynamics::prelude::*;
use vt_label_dynamics::store::{read_store_into, PartitionStats, PersistError, StoreObs};

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

/// Held by each test for its whole run: a peak read while another test
/// allocates would be that test's too.
static TURN: Mutex<()> = Mutex::new(());

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

/// The per-hash index's heap for `r` reports of `s` samples: 33 bytes
/// a sample (hash 16, type 2, flags 1, flips 4, stabilization mask 2,
/// offset 8), 12 a report (AV-Rank, date), and the closing offset.
fn index_budget(r: usize, s: usize) -> usize {
    33 * s + 12 * r + 8
}

/// What the fold holds beside the arena and its table at the peak — the
/// stages' partials and temporaries, and the row permutation while the
/// build runs — in bytes per report, at most.
const FOLD_PER_REPORT: usize = 48;

#[test]
fn analyze_heap_fits_its_budget() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let path =
        std::env::temp_dir().join(format!("vtld-work-budget-{}.vtstore", std::process::id()));
    let feed = Study::generate_with_workers(SimConfig::new(SEED, SAMPLES), 2);
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create feed"));
        write_store(&feed.build_store(), &mut file).expect("write feed");
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

    // ---- the per-hash index: of the table, and of two halves ---------
    let before = live();
    let index = SampleIndex::fold_table(&table);
    assert_eq!(
        live() - before,
        index.heap_bytes(),
        "the index's estimate is its live bytes"
    );
    let (first, second) = feed.records().split_at(feed.records().len() / 2);
    let [first, second] = [first, second]
        .map(|half| SampleIndex::fold_table(&TrajectoryTable::build(half, window_start)));
    let before = live();
    let merged = SampleIndex::concat(&[&second, &first]);
    assert_eq!(
        live() - before,
        merged.heap_bytes(),
        "the merged index's estimate is its live bytes"
    );
    assert_eq!(merged, index, "the halves merge to the table's index");

    let (arena_bytes, table_bytes, index_bytes) =
        (arena.heap_bytes(), table.heap_bytes(), index.heap_bytes());
    let budget = arena_budget(reports) + table_budget(reports, samples) + FOLD_PER_REPORT * reports;
    println!(
        "work budget: {reports} reports / {samples} samples; peak {peak} B = {:.1} B/report \
         (arena {:.1}, table {:.1}, budget {:.1}); table build {allocs} allocations; \
         index {:.1} B/sample",
        peak as f64 / reports as f64,
        arena_bytes as f64 / reports as f64,
        table_bytes as f64 / reports as f64,
        budget as f64 / reports as f64,
        index_bytes as f64 / samples as f64,
    );
    assert_eq!(arena_bytes, arena_budget(reports), "arena bytes");
    assert_eq!(table_bytes, table_budget(reports, samples), "table bytes");
    assert_eq!(index_bytes, index_budget(reports, samples), "index bytes");
    assert!(
        (arena_bytes + table_bytes..=budget).contains(&peak),
        "peak live heap {peak} B over {reports} reports: the fold holds the arena and its \
         table at once, and at most {FOLD_PER_REPORT} B a report beside them ({budget} B)"
    );
    assert_eq!(allocs, TABLE_BUILD_ALLOCS, "allocations in one table build");
}

/// The study's feed sizes: 20 000 samples is three chunks, 80 000 ten.
const STUDY_SAMPLES: [u64; 2] = [20_000, 80_000];

/// How far apart the two study peaks may be, in bytes. What the study
/// holds past a chunk is the merged partials, and the one of their
/// members that grows with the feed is stability's span maps: a key per
/// distinct stable span in minutes, bounded by the window, not by the
/// samples (155 KB between the two sizes at seed 7). A chunk is ~5 MB.
const STUDY_PEAK_SPREAD: usize = 256 << 10;

#[test]
fn study_heap_is_one_chunk_at_any_feed_size() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let peaks = STUDY_SAMPLES.map(|samples| {
        let sim = VirusTotalSim::new(SimConfig::new(SEED, samples));
        let base = live();
        PEAK.store(base, Ordering::Relaxed);
        let results = run_streamed(&sim, 1, Obs::noop());
        let peak = PEAK.load(Ordering::Relaxed) - base;
        assert_eq!(results.dataset.total_samples(), samples);
        println!(
            "work budget: study at {samples} samples ({} chunks of {STUDY_CHUNK_SAMPLES}); \
             peak {peak} B = {:.1} B/sample",
            samples.div_ceil(STUDY_CHUNK_SAMPLES),
            peak as f64 / samples as f64,
        );
        peak
    });
    assert!(
        peaks[0].abs_diff(peaks[1]) <= STUDY_PEAK_SPREAD,
        "study peak live heap {} B at {} samples and {} B at {}: one chunk's, so within \
         {STUDY_PEAK_SPREAD} B of each other",
        peaks[0],
        STUDY_SAMPLES[0],
        peaks[1],
        STUDY_SAMPLES[1],
    );
}

/// The correlation fold's scratch: one tile of 512 rows, four words a
/// row (`pos` and `zero`, two 64-engine lanes each).
const CORRELATION_TILE_BYTES: usize = 512 * 4 * 8;

#[test]
fn correlation_fold_allocates_the_same_at_any_s() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let stage = Correlation::default();
    let [small, large] = [2_000, 8_000].map(|samples| {
        let study = Study::generate_with_workers(SimConfig::new(SEED, samples), 2);
        let (records, fleet) = (study.records(), study.sim().fleet());
        let window_start = study.sim().config().window_start();
        let table = TrajectoryTable::build(records, window_start);
        let s = freshdyn::build(records, window_start);
        let ctx = AnalysisCtx::new(records, &table, &s, fleet, window_start);
        let (base, allocs) = (live(), ALLOCS.load(Ordering::Relaxed));
        PEAK.store(base, Ordering::Relaxed);
        let partial = stage.fold(&ctx);
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
        let kept = live() - base;
        let scratch = PEAK.load(Ordering::Relaxed) - base - kept;
        drop(partial);
        println!(
            "work budget: correlation fold over {} rows of S: {allocs} allocations, \
             {kept} B kept, {scratch} B scratch",
            s.reports
        );
        (s.reports, allocs, kept, scratch)
    });
    assert!(
        large.0 > 3 * small.0,
        "S grows: {} → {} rows",
        small.0,
        large.0
    );
    assert_eq!(small.1, large.1, "allocations in one correlation fold");
    assert_eq!(small.2, large.2, "the partial's bytes");
    for (rows, _, _, scratch) in [small, large] {
        assert_eq!(
            scratch, CORRELATION_TILE_BYTES,
            "scratch beside the partial over {rows} rows"
        );
    }
}

/// How much a strict read of a 21-byte header may allocate.
const HEADER_READ_SLACK: usize = 64 << 10;

#[test]
fn store_header_claims_are_not_allocation_sizes() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Magic, one partition, its marker, the catch-all tag and a block
    // count of 2^20 (the plausible maximum) — and no blocks.
    let mut file = b"VTSTORE2".to_vec();
    file.extend(1u32.to_le_bytes());
    file.extend(0x9A87_110Eu32.to_le_bytes());
    file.push(0);
    file.extend((1u32 << 20).to_le_bytes());
    assert_eq!(file.len(), 21);
    let base = live();
    PEAK.store(base, Ordering::Relaxed);
    let err = read_store(&mut file.as_slice()).expect_err("no block follows the header");
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(
        matches!(&err, PersistError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "a short read, got {err}"
    );
    assert!(
        peak < HEADER_READ_SLACK,
        "a 21-byte store raised live heap by {peak} B"
    );
}
