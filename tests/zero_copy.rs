//! Bit-identity gates for the zero-copy segment decode path (ISSUE 8).
//!
//! The contract under test (DESIGN.md §2.6): folding a sealed store
//! through the streaming arena path — [`IncrementalStudy::fold_store`],
//! which decodes blocks straight into a [`DecodeArena`] and builds the
//! columnar [`TrajectoryTable`] without ever materializing
//! `Vec<ScanReport>` — must produce `StudyResults` and a [`SampleIndex`]
//! **bit-identical** to the row-struct path
//! (`fold_segment(&records_from_store(store))`):
//!
//! * at every fold worker count (1, 2, 8),
//! * at every segment split (1, 3, 17 stores over the same feed),
//! * with one arena reused across all segments,
//! * over damaged inputs (collector quarantine, file-level salvage),
//! * and end to end through `vtld serve`, where the fingerprint verb
//!   must return byte-identical answers at shard counts 1 and 4.

mod common;

use common::{await_ingest_done, query_raw};
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;
use vt_label_dynamics::store::{read_store_salvage, write_store};

/// Splits the records into `splits` contiguous chunks and seals one
/// store per chunk, mirroring `Study::build_store` per segment.
fn chunk_stores(records: &[SampleRecord], splits: usize) -> Vec<ReportStore> {
    let chunk = records.len().div_ceil(splits).max(1);
    records
        .chunks(chunk)
        .map(|c| {
            let mut store = StoreBuilder::new();
            for r in c {
                store.append_batch(&r.reports);
            }
            store.seal()
        })
        .collect()
}

/// Folds the same stores through both decode paths and asserts the
/// final `StudyResults` debug representations and sample indexes are
/// identical. Returns the number of samples the arena path saw.
fn assert_paths_identical(
    stores: &[ReportStore],
    fleet: &EngineFleet,
    window_start: vt_label_dynamics::model::Timestamp,
    workers: usize,
    tag: &str,
) -> usize {
    let mut via_records = IncrementalStudy::new(fleet, window_start)
        .with_workers(workers)
        .with_index();
    let mut via_store = IncrementalStudy::new(fleet, window_start)
        .with_workers(workers)
        .with_index();
    let mut arena = DecodeArena::new();
    let mut folded = 0;
    for store in stores {
        let records = records_from_store(store);
        via_records.fold_segment(&records, Obs::noop());
        folded += via_store.fold_store(store, &mut arena, Obs::noop());
    }
    let a = via_records.results(Vec::new(), Obs::noop());
    let b = via_store.results(Vec::new(), Obs::noop());
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "StudyResults diverged ({tag})"
    );
    assert_eq!(
        via_records.index(),
        via_store.index(),
        "SampleIndex diverged ({tag})"
    );
    folded
}

/// The core grid: workers × segment splits over a clean 3k-sample
/// study, one `DecodeArena` reused across every segment of a run.
#[test]
fn fold_store_bit_identical_to_row_path_at_any_parallelism() {
    let study = Study::generate(SimConfig::new(0x2E80C0, 3_000));
    let fleet = study.sim().fleet();
    let window_start = study.sim().config().window_start();
    for workers in [1usize, 2, 8] {
        for splits in [1usize, 3, 17] {
            let stores = chunk_stores(study.records(), splits);
            let folded = assert_paths_identical(
                &stores,
                fleet,
                window_start,
                workers,
                &format!("workers={workers} splits={splits}"),
            );
            assert_eq!(folded, study.records().len());
        }
    }
}

/// A corrupt feed: the collector quarantines damaged entries and the
/// surviving store must fold identically through both paths.
#[test]
fn quarantined_store_folds_identically() {
    const SAMPLES: u64 = 1_500;
    let sim = VirusTotalSim::new(SimConfig::new(0xBADF00D, SAMPLES));
    let plan = FaultPlan::clean(7)
        .with_duplicates(0.1)
        .with_corruption(0.05);
    let feed = FaultyFeed::from_sim(&sim, 0..SAMPLES, plan);
    let outcome = Collector::default().run(feed);
    assert!(outcome.stats.quarantined > 0, "plan injected no corruption");
    let records = records_from_store(&outcome.store);
    let folded = assert_paths_identical(
        std::slice::from_ref(&outcome.store),
        sim.fleet(),
        sim.config().window_start(),
        2,
        "quarantine",
    );
    assert_eq!(folded, records.len());
}

/// Mid-file corruption: salvage drops the damaged blocks, and whatever
/// survives must fold identically through both paths.
#[test]
fn salvaged_store_folds_identically() {
    let study = Study::generate(SimConfig::new(0x5A17A6E, 2_000));
    let store = study.build_store();
    let mut buf = Vec::new();
    write_store(&store, &mut buf).expect("write store");
    for frac in [3, 2] {
        let site = buf.len() / frac;
        buf[site] ^= 0x40;
    }
    let (salvaged, recovery) =
        read_store_salvage(&mut buf.as_slice()).expect("salvage a damaged file");
    assert!(salvaged.report_count() > 0);
    assert!(salvaged.report_count() <= store.report_count());
    let _ = recovery; // damage location decides how many blocks drop
    let folded = assert_paths_identical(
        std::slice::from_ref(&salvaged),
        study.sim().fleet(),
        study.sim().config().window_start(),
        1,
        "salvage",
    );
    assert_eq!(folded as u64, salvaged.sample_count());
}

/// End to end through the daemon: the shard workers now fold segments
/// through `fold_store`, so the published fingerprint must still be
/// byte-identical across shard counts.
#[test]
fn serve_fingerprint_identical_across_shard_counts() {
    const SAMPLES: u64 = 1_000;
    const SEED: u64 = 0xF1A6;
    let mut fingerprints = Vec::new();
    for shards in [1usize, 4] {
        let mut config = ServeConfig::new(SAMPLES, SEED);
        config.segment_reports = 300;
        config.workers = 2;
        config.shards = shards;
        let server = Server::start(config).expect("bind ephemeral port");
        let (mut stream, mut reader) = await_ingest_done(server.addr());
        let line = query_raw(&mut stream, &mut reader, "{\"cmd\":\"fingerprint\"}");
        let v = json::parse(&line).unwrap_or_else(|e| panic!("unparseable fingerprint: {e}"));
        // The epoch counts publishes and legitimately varies with the
        // shard count; the two digests are the bit-identity gate.
        let digest = |key: &str| {
            v.get(key)
                .and_then(|f| f.as_str())
                .unwrap_or_else(|| panic!("missing {key} in {line}"))
                .to_string()
        };
        fingerprints.push((digest("fingerprint"), digest("rho_fnv")));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "shard count visible in the published fingerprint"
    );
}
