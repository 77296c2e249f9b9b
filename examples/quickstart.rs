//! Quickstart: simulate a small VirusTotal feed, inspect one sample's
//! label trajectory, and label each report with a threshold.
//!
//! Run with: `cargo run --release --example quickstart`

use vt_label_dynamics::prelude::*;

fn main() {
    // A seeded study: same seed → same dataset, bit for bit.
    let config = SimConfig::new(42, 20_000);
    let study = Study::generate(config);

    println!("generated {} samples", study.records().len());
    let reports: usize = study.records().iter().map(|r| r.reports.len()).sum();
    println!("           {reports} scan reports over 14 simulated months\n");

    // Find an interesting sample: multiple scans, changing AV-Rank.
    let sample = study
        .records()
        .iter()
        .filter(|r| r.report_count() >= 4)
        .max_by_key(|r| r.delta_max().unwrap_or(0))
        .expect("some sample has 4+ reports");

    println!(
        "sample {} ({}), {} scans:",
        sample.meta.hash,
        sample.meta.file_type,
        sample.report_count()
    );
    for report in &sample.reports {
        // The threshold-voting label most papers use (§3.1): malicious
        // iff AV-Rank ≥ t.
        let label = if report.positives() >= 10 {
            "Malicious"
        } else {
            "Benign"
        };
        println!(
            "  {}  AV-Rank {:>2}/{}  active {:>2}  label(t=10): {label}",
            report.analysis_date,
            report.positives(),
            report.verdicts.engine_count(),
            report.verdicts.active_count(),
        );
    }

    // Run the full measurement pipeline and print the headline numbers.
    let results = study.run();
    println!("\nheadline statistics (paper values in parentheses):");
    println!(
        "  singleton samples      {:.2}%  (88.81%)",
        results.fig1.singleton * 100.0
    );
    println!(
        "  stable samples         {:.2}%  (49.90%)",
        results.stability.stable_fraction() * 100.0
    );
    println!(
        "  stable at AV-Rank 0    {:.2}%  (66.36%)",
        results.stability.stable_at_zero_fraction() * 100.0
    );
    println!(
        "  hazard flips           {} of {} flips  (9 of 16.8M)",
        results.flips.hazard_flips, results.flips.flips
    );
    if let Some(c) = results.intervals.correlation {
        println!(
            "  interval correlation   rho={:.3}  (0.9181; noise-limited at this",
            c.rho
        );
        println!("                          demo scale — run full_study for the real series)");
    }

    // The same study, folded zero-copy: the sealed store's blocks
    // stream into a reusable decode arena and the columnar table is
    // built straight from it — no per-report structs on the way. This
    // is the path `vtld serve` folds every segment through, and it is
    // bit-identical to the batch run above.
    let store = study.build_store();
    let mut arena = DecodeArena::new();
    let mut inc = IncrementalStudy::new(study.sim().fleet(), study.sim().config().window_start());
    let folded = inc.fold_store(&store, &mut arena, Obs::noop());
    let streamed = inc.results(store.partition_stats(), Obs::noop());
    assert_eq!(streamed.flips.flips, results.flips.flips);
    println!("\nzero-copy fold over the sealed store: {folded} samples, identical results");

    println!("\nnext: cargo run --release --example full_study");
}
