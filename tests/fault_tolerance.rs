//! Degenerate inputs and fault injection: the pipeline must stay
//! well-defined at the edges (empty studies, tiny studies, hostile
//! fleet configurations), and the collection path must survive a
//! misbehaving feed and a damaged store file.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};
use vt_label_dynamics::dynamics::{
    analyze_records, records_from_store, Analysis, Collector, CollectorConfig, Study,
};
use vt_label_dynamics::serve::{ServeConfig, Server};
use vt_label_dynamics::sim::fault::{FaultPlan, FaultyFeed};
use vt_label_dynamics::sim::rng::SimRng;
use vt_label_dynamics::sim::SimConfig;
use vt_label_dynamics::store::crc32::crc32;
use vt_label_dynamics::store::{
    read_store, read_store_salvage, write_segment, write_store, SegmentWriter,
};

#[test]
fn empty_study_runs() {
    let study = Study::generate(SimConfig::new(1, 0));
    let r = study.run();
    assert_eq!(r.dataset.total_samples(), 0);
    assert_eq!(r.s_samples, 0);
    assert_eq!(r.flips.flips, 0);
    assert!(r.intervals.correlation.is_none());
    for sh in &r.categories_all.shares {
        // Empty sweep degrades to all-white (0/0 conventions), still a
        // partition.
        assert!((sh.white + sh.black + sh.gray - 1.0).abs() < 1e-9);
    }
    for s in &r.rank_stabilization {
        assert_eq!(s.samples, 0);
        assert_eq!(s.stabilized_fraction(), 0.0);
    }
}

#[test]
fn single_sample_study_runs() {
    let study = Study::generate(SimConfig::new(2, 1));
    let r = study.run();
    assert_eq!(r.dataset.total_samples(), 1);
    // One sample is almost surely single-report; S may be empty — all
    // downstream analyses must still hold their invariants.
    assert!(r.s_samples <= 1);
    assert_eq!(r.flips.flips, r.flips.flips_up + r.flips.flips_down);
}

#[test]
fn zero_glitch_rate_means_zero_hazard_flips() {
    let mut config = SimConfig::new(3, 30_000);
    config.fleet.glitch_rate = 0.0;
    let study = Study::generate(config);
    let r = study.run();
    assert!(r.flips.flips > 0, "study too small to observe flips");
    assert_eq!(
        r.flips.hazard_flips, 0,
        "hazard flips are structurally impossible without glitches"
    );
}

#[test]
fn saturated_timeouts_degrade_activity() {
    // Timeout probability saturated (the per-sample rate caps at 0.5 and
    // epoch/load factors modulate below it): activity must fall far
    // below nominal, and the pipeline must keep its invariants.
    let activity = |timeout_mult: f64| {
        let mut config = SimConfig::new(4, 2_000);
        config.fleet.timeout_mult = timeout_mult;
        let study = Study::generate(config);
        let mut active = 0u64;
        let mut slots = 0u64;
        for rec in study.records() {
            for rep in &rec.reports {
                active += rep.verdicts.active_count() as u64;
                slots += rep.verdicts.engine_count() as u64;
            }
        }
        let r = study.run();
        assert_eq!(
            r.stability.stable + r.stability.dynamic,
            r.stability.multi_report_samples
        );
        active as f64 / slots as f64
    };
    let nominal = activity(1.0);
    let degraded = activity(1e9);
    assert!(nominal > 0.9, "nominal activity {nominal}");
    assert!(
        degraded < 0.8 * nominal,
        "saturated timeouts must visibly degrade activity: {degraded} vs {nominal}"
    );
}

#[test]
fn perfect_availability_is_quieter_than_nominal() {
    let mut perfect = SimConfig::new(5, 40_000);
    perfect.fleet.timeout_mult = 0.0;
    perfect.fleet.outage_mult = 0.0;
    let nominal = SimConfig::new(5, 40_000);

    let stable_fraction = |config: SimConfig| {
        let study = Study::generate(config);
        let s = vt_label_dynamics::dynamics::freshdyn::build(
            study.records(),
            study.sim().config().window_start(),
        );
        let table = vt_label_dynamics::dynamics::TrajectoryTable::build(
            study.records(),
            study.sim().config().window_start(),
        );
        let ctx = vt_label_dynamics::dynamics::AnalysisCtx::new(
            study.records(),
            &table,
            &s,
            study.sim().fleet(),
            study.sim().config().window_start(),
        );
        vt_label_dynamics::dynamics::stability::Stability
            .run(&ctx)
            .stable_fraction()
    };
    let s_perfect = stable_fraction(perfect);
    let s_nominal = stable_fraction(nominal);
    assert!(
        s_perfect > s_nominal + 0.05,
        "removing activity noise must raise stability: perfect {s_perfect} vs nominal {s_nominal}"
    );
}

/// `--samples 0` is the one setting the command line can get wrong:
/// `study` and `simulate` refuse it with the builder's typed message
/// before they write anything.
#[test]
fn zero_samples_is_refused_before_anything_is_written() {
    let dir = std::env::temp_dir().join(format!("vtld-zero-samples-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let csv = dir.join("csv");
    let store = dir.join("feed.vtstore");
    for (command, file_flag, path) in [("study", "--csv-dir", &csv), ("simulate", "--out", &store)]
    {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vtld"))
            .args([command, "--samples", "0", file_flag])
            .arg(path)
            .output()
            .expect("vtld runs");
        assert!(!out.status.success(), "{command} must fail");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "vtld: invalid configuration: samples must be at least 1\n",
            "{command}"
        );
        assert!(out.stdout.is_empty(), "{command}");
    }
    assert!(!dir.exists(), "a refused command creates no file");
}

#[test]
fn store_rejects_misuse_gracefully() {
    // Sealing an empty store and reading from it is fine.
    let store = vt_label_dynamics::store::StoreBuilder::new().seal();
    assert_eq!(store.report_count(), 0);
    assert!(store.group_by_sample().is_empty());
    assert!(store
        .sample_reports(vt_label_dynamics::model::SampleHash::from_ordinal(1))
        .is_empty());
    // Persisting an empty store round-trips.
    let mut buf = Vec::new();
    vt_label_dynamics::store::write_store(&store, &mut buf).expect("write empty");
    let loaded = vt_label_dynamics::store::read_store(&mut buf.as_slice()).expect("read empty");
    assert_eq!(loaded.report_count(), 0);
}

#[test]
fn persisted_study_store_round_trips() {
    let study = Study::generate(SimConfig::new(6, 5_000));
    let store = study.build_store();
    let mut buf = Vec::new();
    vt_label_dynamics::store::write_store(&store, &mut buf).expect("write");
    let loaded = vt_label_dynamics::store::read_store(&mut buf.as_slice()).expect("read");
    assert_eq!(loaded.report_count(), store.report_count());
    assert_eq!(loaded.sample_count(), store.sample_count());
    for rec in study.records().iter().take(100) {
        assert_eq!(loaded.sample_reports(rec.meta.hash), rec.reports);
    }
}

/// The capstone equality: with duplicate + reorder faults only, the
/// collector's output analyzed end to end must be indistinguishable
/// from the fault-free study on the headline measurements.
#[test]
fn chaos_dup_reorder_ingestion_matches_fault_free_study() {
    const SAMPLES: u64 = 3_000;
    let study = Study::generate(SimConfig::new(0xC4A05, SAMPLES));
    let clean = study.run();

    let plan = FaultPlan::clean(0xFA117)
        .with_duplicates(0.25)
        .with_reordering(0.35, 20);
    let feed = FaultyFeed::from_sim(study.sim(), 0..SAMPLES, plan);
    let dups = feed.duplicated_entries();
    let delayed = feed.delayed_entries();
    let config = CollectorConfig {
        reorder_horizon: 20,
        ..CollectorConfig::default()
    };
    let outcome = Collector::new(config).run(feed);

    // The chaos actually happened and was fully absorbed.
    assert!(dups > 0 && delayed > 0, "plan injected no faults");
    assert_eq!(outcome.stats.deduped, dups);
    assert!(outcome.stats.reordered > 0);
    assert_eq!(outcome.stats.quarantined, 0);
    assert_eq!(outcome.stats.gap_minutes, 0);
    assert_eq!(outcome.stats.lost_entries, 0);
    assert_eq!(outcome.stats.emitted_out_of_order, 0);

    let records = records_from_store(&outcome.store);
    let results = analyze_records(
        &records,
        outcome.store.partition_stats(),
        study.sim().fleet(),
        study.sim().config().window_start(),
    );

    // Dataset totals.
    assert_eq!(
        results.dataset.total_samples(),
        clean.dataset.total_samples()
    );
    assert_eq!(
        results.dataset.total_reports(),
        clean.dataset.total_reports()
    );
    // Stability counts.
    assert_eq!(
        results.stability.multi_report_samples,
        clean.stability.multi_report_samples
    );
    assert_eq!(results.stability.stable, clean.stability.stable);
    assert_eq!(results.stability.dynamic, clean.stability.dynamic);
    // The fresh dynamic dataset S.
    assert_eq!(results.s_samples, clean.s_samples);
    assert_eq!(results.s_reports, clean.s_reports);
    // Flip totals.
    assert_eq!(results.flips.flips, clean.flips.flips);
    assert_eq!(results.flips.flips_up, clean.flips.flips_up);
    assert_eq!(results.flips.flips_down, clean.flips.flips_down);
    assert_eq!(results.flips.hazard_flips, clean.flips.hazard_flips);
}

/// Same plan, same seed → byte-identical `IngestStats`, independent of
/// how many workers generated the upstream dataset.
#[test]
fn ingest_stats_deterministic_across_runs_and_worker_counts() {
    let config = SimConfig::new(0xD00D, 800);
    let plan = FaultPlan::clean(99)
        .with_duplicates(0.2)
        .with_reordering(0.3, 12)
        .with_corruption(0.05)
        .with_outages(0.05, 0.25);
    let run = |workers: usize| {
        let study = Study::generate_with_workers(config, workers);
        let reports = study
            .records()
            .iter()
            .flat_map(|r| r.reports.iter().cloned())
            .collect::<Vec<_>>();
        Collector::default()
            .run(FaultyFeed::new(reports, plan))
            .stats
    };
    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a, b, "same run twice");
    assert_eq!(a, c, "1 worker vs 4 workers");
    assert!(a.accepted > 0 && a.deduped > 0 && a.quarantined > 0);
}

/// Corrupting a fraction `p` of the blocks of a `VTSTORE2` file must
/// cost at most those blocks: salvage recovers ≥ (1 − p) of them.
#[test]
fn salvage_recovers_at_least_one_minus_p_of_blocks() {
    const P: f64 = 0.15;
    let study = Study::generate(SimConfig::new(0x5A17A6E, 14_000));
    let store = study.build_store();
    let mut buf = Vec::new();
    write_store(&store, &mut buf).expect("write v2");

    // Locate real block frames by validating marker + header + CRC —
    // the same check the salvage reader applies, so a marker byte
    // pattern inside a payload cannot fool the corruptor either.
    let marker = 0xB10C_F00Du32.to_le_bytes();
    let mut frames: Vec<(usize, usize)> = Vec::new(); // (payload offset, len)
    for pos in 0..buf.len().saturating_sub(16) {
        if buf[pos..pos + 4] != marker {
            continue;
        }
        let byte_len = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().unwrap());
        let payload = pos + 16;
        if byte_len > 0
            && payload + byte_len <= buf.len()
            && crc32(&buf[payload..payload + byte_len]) == crc
        {
            frames.push((payload, byte_len));
        }
    }
    let total_blocks = frames.len() as u64;
    assert!(total_blocks >= 20, "study too small: {total_blocks} blocks");

    // Corrupt exactly ⌊p · blocks⌋ of them, chosen by a seeded shuffle.
    let corrupted = ((P * total_blocks as f64).floor() as u64).max(1);
    let mut rng = SimRng::seed_from_u64(0xC0AAA5E);
    let mut order: Vec<usize> = (0..frames.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for &idx in order.iter().take(corrupted as usize) {
        let (payload, len) = frames[idx];
        let off = rng.below(len as u64) as usize;
        buf[payload + off] ^= 0x40;
    }

    let (salvaged, recovery) =
        read_store_salvage(&mut buf.as_slice()).expect("salvage a damaged file");
    assert_eq!(
        recovery.skipped_blocks(),
        corrupted,
        "one block lost per corruption"
    );
    assert_eq!(recovery.recovered_blocks(), total_blocks - corrupted);
    assert!(
        recovery.recovered_blocks() as f64 >= (1.0 - P) * total_blocks as f64,
        "recovered {} of {} blocks",
        recovery.recovered_blocks(),
        total_blocks
    );
    assert!(salvaged.report_count() > 0);
    assert!(salvaged.report_count() <= store.report_count());
}

/// Randomized damage sweep: whatever bytes we hand them, the strict and
/// salvage readers must return (Ok or Err) — never panic.
#[test]
fn damaged_store_bytes_never_panic_the_readers() {
    let study = Study::generate(SimConfig::new(0xB17F11, 1_500));
    let store = study.build_store();
    let mut base = Vec::new();
    write_store(&store, &mut base).expect("write");

    let mut rng = SimRng::seed_from_u64(0xBADC0DE);
    for case in 0..200 {
        let mut bytes = base.clone();
        // Truncate, flip bits, or both.
        if case % 3 != 0 {
            let cut = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(cut);
        }
        if case % 3 != 1 && !bytes.is_empty() {
            for _ in 0..1 + rng.below(23) {
                let bit = rng.below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // Must not panic; when salvage succeeds the result must be a
        // usable, sealed store.
        let _ = read_store(&mut bytes.as_slice());
        if let Ok((salvaged, recovery)) = read_store_salvage(&mut bytes.as_slice()) {
            assert!(recovery.recovered_reports() == salvaged.report_count());
            let _ = salvaged.group_by_sample();
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes the store writes, pinned: FNV-1a over the `VTSTORE2` file
/// of a 4 000-sample study, and over the concatenated `VTSEG001` files
/// of the same records cut every 500 reports (tail included). The
/// constants were recorded from the binary of PR 14 (debug and release
/// agreeing), before the store was split into builder and sealed store:
/// a change to how a store is built, sealed or walked must leave them
/// alone, a change to the codec or the container re-records them on
/// purpose.
#[test]
fn store_bytes_are_pinned() {
    for (seed, pinned) in [
        (7u64, (0x1f17_0bc2_dae4_81c8u64, 0x8089_7898_be95_2212u64)),
        (4269, (0xd9aa_e221_0012_a130, 0x094d_b570_c370_1c29)),
    ] {
        let study = Study::generate_with_workers(SimConfig::new(seed, 4_000), 2);
        let mut store_bytes = Vec::new();
        write_store(&study.build_store(), &mut store_bytes).expect("write store");

        let mut segment_bytes = Vec::new();
        let mut writer = SegmentWriter::new(500);
        for rec in study.records() {
            if let Some(segment) = writer.push_sample(&rec.reports) {
                write_segment(&segment, &mut segment_bytes).expect("write segment");
            }
        }
        if let Some(tail) = writer.finish() {
            write_segment(&tail, &mut segment_bytes).expect("write tail segment");
        }

        let got = (fnv1a(&store_bytes), fnv1a(&segment_bytes));
        assert_eq!(
            got, pinned,
            "seed {seed}: (store, segments) = ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

/// The segment log a durable daemon writes, pinned: FNV-1a over the
/// sorted `(file name, bytes)` of every `seg-*.vtseg` an in-process
/// `Server` leaves in its data dir after `ingest_done` — 6 000 samples,
/// 300-report segments (about four seals per slot; at 1 500 no slot
/// reaches the threshold and only the eight tails are written), one
/// shard, the default chaos plan. The
/// constants were recorded from the tree of PR 15 (debug and release
/// agreeing), before the ingest path stopped building a per-chunk
/// store: they move if the grouping order, the 1 024-ordinal chunk
/// boundaries or a seal point moves by one report.
#[test]
fn segment_log_is_pinned() {
    for (seed, pinned) in [
        (7u64, 0x2977_ef64_2399_0e4du64),
        (4269, 0x5ee9_213a_2ffe_8bed),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "vtld-segment-log-pin-{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new(6_000, seed);
        config.segment_reports = 300;
        config.shards = 1;
        config.data_dir = Some(dir.clone());
        let server = Server::start(config).expect("start server");
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"{\"cmd\":\"status\"}\n")
                .expect("write status");
            let mut line = String::new();
            BufReader::new(stream)
                .read_line(&mut line)
                .expect("read status");
            if line.contains("\"ingest_done\":true") {
                break;
            }
            assert!(Instant::now() < deadline, "ingestion never finished");
            std::thread::sleep(Duration::from_millis(25));
        }
        server.shutdown();
        server.wait();

        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("read data dir")
            .map(|e| e.expect("dir entry"))
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name.starts_with("seg-") && name.ends_with(".vtseg"))
                    .then(|| (name, std::fs::read(e.path()).expect("read segment")))
            })
            .collect();
        files.sort();
        assert!(
            files.len() >= 3 * 8,
            "several seals per slot: {} files",
            files.len()
        );
        let mut log = Vec::new();
        for (name, bytes) in &files {
            log.extend_from_slice(name.as_bytes());
            log.extend_from_slice(bytes);
        }
        let got = fnv1a(&log);
        assert_eq!(got, pinned, "seed {seed}: segment log = {got:#018x}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
