//! Layer 4 — snapshot → bytes.
//!
//! A response is a function of one pinned [`Snapshot`], and nothing is
//! rendered before a request asks. The per-hash verbs are rendered per
//! request from the snapshot's slot indexes (each chunk of a slot's list
//! is sorted by hash and a hash lives in at most one of them, so a
//! lookup binary-searches each chunk until one answers), flip matrix and
//! roster. The
//! aggregate documents (`results`, `engines`, `fingerprint`,
//! `recommend`) and the study-wide flip ranking behind `flip_leaders`
//! follow one rule: each is made once per snapshot, by the first
//! request that pins it and asks, into that snapshot's own cell, and
//! dropped with it. A snapshot's study is immutable, so two answers at
//! one epoch are the same bytes and there is nothing to invalidate.
//! `status` and `metrics` are rendered per request from the live
//! registry, under the pinned snapshot's epoch.
//!
//! Renders strings and nothing else: no socket, no lock, no state of
//! its own.

use super::counters::ServeCounters;
use super::ingest::slot_of;
use super::publish::Snapshot;
use super::wire::{quoted, MAX_FLIP_LEADERS};
use crate::dynamics::flips::FlipCell;
use crate::dynamics::stabilization::FIG9_THRESHOLDS;
use crate::dynamics::{IndexChunks, StudyResults};
use crate::model::{EngineId, FileType, SampleHash};
use crate::obs::Obs;

// ---- per-request renderers ---------------------------------------------

/// The `sample` verb: one hash's full trajectory summary from the
/// snapshot's index.
pub(super) fn render_sample(snap: &Snapshot, hash: SampleHash) -> String {
    let epoch = snap.epoch;
    match snap.slot_indexes[slot_of(hash)].get(hash) {
        None => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"found\":false}}",
            hash.to_hex()
        ),
        Some(s) => {
            let positives: Vec<String> = s.positives.iter().map(u32::to_string).collect();
            let dates: Vec<String> = s.dates_min.iter().map(i64::to_string).collect();
            let stab: Vec<String> = FIG9_THRESHOLDS
                .iter()
                .map(|&t| {
                    format!(
                        "{{\"threshold\":{t},\"stabilized\":{}}}",
                        s.stabilized_at(t).unwrap_or(false)
                    )
                })
                .collect();
            format!(
                "{{\"epoch\":{epoch},\"hash\":\"{}\",\"found\":true,\
                 \"file_type\":{},\"reports\":{},\"current_positives\":{},\
                 \"p_min\":{},\"p_max\":{},\"flips\":{},\
                 \"multi_report\":{},\"stable\":{},\"fresh\":{},\"in_s\":{},\
                 \"stabilization\":[{}],\"positives\":[{}],\"dates_min\":[{}]}}",
                hash.to_hex(),
                quoted(&s.file_type.name()),
                s.report_count(),
                s.current_positives(),
                s.p_min(),
                s.p_max(),
                s.flips,
                s.is_multi_report(),
                s.is_stable(),
                s.is_fresh(),
                s.in_s(),
                stab.join(","),
                positives.join(","),
                dates.join(","),
            )
        }
    }
}

/// The `stabilized` verb: has this hash's threshold-`t` label sequence
/// stabilized (§6.2)?
pub(super) fn render_stabilized(snap: &Snapshot, hash: SampleHash, t: u32) -> String {
    let epoch = snap.epoch;
    match snap.slot_indexes[slot_of(hash)].get(hash) {
        None => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"threshold\":{t},\"found\":false}}",
            hash.to_hex()
        ),
        Some(s) => format!(
            "{{\"epoch\":{epoch},\"hash\":\"{}\",\"threshold\":{t},\"found\":true,\
             \"stabilized\":{}}}",
            hash.to_hex(),
            s.stabilized_at(t).unwrap_or(false),
        ),
    }
}

/// The `engine` verb: one engine's flip scorecard — totals plus every
/// top-20 type it has had flip opportunities on.
pub(super) fn render_engine(snap: &Snapshot, engine: usize) -> String {
    let epoch = snap.epoch;
    let flips = &snap.results().flips;
    let total = flips.engine_total(EngineId::new(engine));
    let types: Vec<String> = flips.matrix[engine]
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.opportunities > 0)
        .map(|(j, cell)| {
            format!(
                "{{\"type\":{},\"flips\":{},\"opportunities\":{},\"flip_ratio\":{}}}",
                quoted(&FileType::from_dense_index(j).name()),
                cell.flips,
                cell.opportunities,
                json_f64(cell.ratio()),
            )
        })
        .collect();
    format!(
        "{{\"epoch\":{epoch},\"engine\":{},\"flips\":{},\
         \"opportunities\":{},\"flip_ratio\":{},\"types\":[{}]}}",
        quoted(&snap.engine_names[engine]),
        total.flips,
        total.opportunities,
        json_f64(total.ratio()),
        types.join(","),
    )
}

/// The `flip_leaders` verb: the top-`k` samples by engine-label flip
/// count (ties by hash — a total order, identical at every shard and
/// worker count) — the first `k` of the snapshot's one ranking, which
/// the first request to pin the snapshot computes.
pub(super) fn render_flip_leaders(snap: &Snapshot, k: usize) -> String {
    let leaders = snap
        .leaders
        .get_or_init(|| rank_flip_leaders(&snap.slot_indexes));
    format!(
        "{{\"epoch\":{},\"k\":{k},\"leaders\":[{}]}}",
        snap.epoch,
        leaders[..k.min(leaders.len())].join(","),
    )
}

/// The study-wide flip ranking, cut at [`MAX_FLIP_LEADERS`] (the parser
/// clamps `k` there, so every answer is a prefix) and rendered. Ranked
/// by merging every chunk's own leaders, of every slot, under the total
/// order — the global leaders are contained in the union, so the
/// ranking is bit-identical to ranking one merged index.
fn rank_flip_leaders(slot_indexes: &[IndexChunks]) -> Vec<String> {
    let cut = MAX_FLIP_LEADERS as usize;
    let mut ranked = Vec::new();
    for index in slot_indexes.iter().flat_map(IndexChunks::chunks) {
        // Two sorted runs, the leaders so far and this chunk's: the
        // stable sort merges them (the order is total, so stability
        // shows nowhere), and nothing past the cut is carried along.
        ranked.extend(index.top_flips(cut));
        ranked.sort_by(|a, b| b.flips.cmp(&a.flips).then_with(|| a.hash.cmp(&b.hash)));
        ranked.truncate(cut);
    }
    ranked
        .iter()
        .map(|s| {
            format!(
                "{{\"hash\":\"{}\",\"flips\":{},\"reports\":{},\"current_positives\":{}}}",
                s.hash.to_hex(),
                s.flips,
                s.report_count(),
                s.current_positives(),
            )
        })
        .collect()
}

/// The `alerts` pull verb: every retained alert published after epoch
/// `since`, in key order. The array holds the deterministic `wire`
/// bodies only — no publish stamps — so at `since: 0` everything after
/// the epoch prefix is bit-identical at any shard × worker grid and
/// across crash-recovery replay (the chaos and determinism suites
/// compare exactly that tail). Clients resume by passing the last
/// response's top-level `epoch` as the next `since`. The filter is a
/// cheap scan of the pre-rendered ring.
pub(super) fn render_alerts(snap: &Snapshot, since: u64) -> String {
    let items: Vec<&str> = snap
        .alerts
        .iter()
        .filter(|a| a.published > since)
        .map(|a| a.rendered.as_str())
        .collect();
    format!(
        "{{\"epoch\":{},\"since\":{since},\"count\":{},\"alerts\":[{}]}}",
        snap.epoch,
        items.len(),
        items.join(","),
    )
}

/// The `status` verb, rendered per request: the snapshot's own
/// epoch-consistent members (`epoch`, `s_samples`, `ingest_done`,
/// `shards`, `indexed`) beside the live registry totals, so `rejected`,
/// `evicted` and the rest keep moving after the last publish.
pub(super) fn render_status(snap: &Snapshot, c: &ServeCounters) -> String {
    format!(
        "{{\"epoch\":{},\"segments\":{},\"samples\":{},\"reports\":{},\
         \"accepted\":{},\"quarantined\":{},\"s_samples\":{},\"ingest_done\":{},\
         \"shards\":{},\"recovered_segments\":{},\"quarantined_segments\":{},\
         \"rejected\":{},\"evicted\":{},\"indexed\":{},\
         \"alerts_fired\":{},\"alerts_stabilized\":{},\"alerts_destabilized\":{},\
         \"alerts_swings\":{},\"alerts_emitted\":{},\"alerts_dropped\":{}}}",
        snap.epoch,
        c.segments.value(),
        c.samples.value(),
        c.reports.value(),
        c.accepted.value(),
        c.quarantined.value(),
        snap.s_samples(),
        snap.ingest_done,
        snap.shards,
        c.recovered_segments.value(),
        c.quarantined_segments.value(),
        c.rejected.value(),
        c.evicted.value(),
        snap.slot_indexes
            .iter()
            .map(IndexChunks::len)
            .sum::<usize>(),
        c.alerts_fired.value(),
        c.alerts_stabilized.value(),
        c.alerts_destabilized.value(),
        c.alerts_swings.value(),
        c.alerts_emitted.value(),
        c.alerts_dropped.value(),
    )
}

/// The `metrics` verb, rendered per request like `status`: the live
/// registry on one line under the pinned snapshot's epoch.
/// `RunMetrics::to_json` pretty-prints and the wire format is one line
/// per response; string values escape control characters, so every
/// literal newline in the rendering is structural whitespace.
pub(super) fn render_metrics(snap: &Snapshot, obs: &Obs) -> String {
    format!(
        "{{\"epoch\":{},\"metrics\":{}}}",
        snap.epoch,
        obs.snapshot().to_json().replace('\n', " ")
    )
}

/// JSON number for an `f64`: non-finite values have no JSON spelling
/// and render as `null`.
pub(super) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---- per-snapshot documents --------------------------------------------

/// FNV-1a accumulation over a byte slice.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The chaos-gate fingerprint of a finished study: an FNV-1a digest of
/// the Debug rendering of every result field, plus a digest of the raw
/// `to_bits` of every Spearman plane (global + per-type), so NaN
/// payloads and signed zeros count. Two runs whose fingerprints match
/// agree on every published statistic bit for bit — this is what
/// `tests/serve_chaos.rs` compares across kill/restart and shard
/// counts.
pub(super) fn study_fingerprint(results: &StudyResults) -> (u64, u64) {
    // Exhaustive on purpose: a field added to `StudyResults` is
    // fingerprinted or this stops compiling.
    let StudyResults {
        dataset,
        fig1,
        partitions,
        stability,
        s_samples,
        s_reports,
        metrics,
        window_growth,
        intervals,
        categories_all,
        categories_pe,
        causes,
        rank_stabilization,
        label_stabilization_all,
        label_stabilization_multi,
        flips,
        correlation_global,
        correlation_per_type,
    } = results;
    let debug = format!(
        "{dataset:?}|{fig1:?}|{partitions:?}|{stability:?}|{s_samples}|{s_reports}|\
         {metrics:?}|{window_growth:?}|{intervals:?}|{categories_all:?}|{categories_pe:?}|\
         {causes:?}|{rank_stabilization:?}|{label_stabilization_all:?}|\
         {label_stabilization_multi:?}|{flips:?}|{correlation_global:?}|\
         {correlation_per_type:?}",
    );
    let mut debug_fnv = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut debug_fnv, debug.as_bytes());
    fnv1a(&mut debug_fnv, &window_growth.to_bits().to_le_bytes());
    let mut rho_fnv = 0xcbf2_9ce4_8422_2325u64;
    for plane in std::iter::once(correlation_global).chain(correlation_per_type) {
        for v in &plane.rho {
            fnv1a(&mut rho_fnv, &v.to_bits().to_le_bytes());
        }
    }
    (debug_fnv, rho_fnv)
}

/// One engine's `{"name","flips","opportunities","flip_ratio"}` roster
/// object, shared by the `engines` and `recommend` documents.
fn engine_flip_json(name: &str, total: FlipCell) -> String {
    format!(
        "{{\"name\":{},\"flips\":{},\"opportunities\":{},\"flip_ratio\":{}}}",
        quoted(name),
        total.flips,
        total.opportunities,
        json_f64(total.ratio())
    )
}

/// The `results` verb: the study's headline counts.
pub(super) fn render_results(snap: &Snapshot) -> &str {
    snap.results_json.get_or_init(|| {
        let (epoch, results) = (snap.epoch, snap.results());
        let c = &results.correlation_global;
        let ranks: Vec<String> = results
            .rank_stabilization
            .iter()
            .map(|r| {
                format!(
                    "{{\"r\":{},\"samples\":{},\"stabilized\":{}}}",
                    r.r, r.samples, r.stabilized
                )
            })
            .collect();
        format!(
            "{{\"epoch\":{epoch},\"dataset\":{{\"samples\":{},\"reports\":{}}},\
             \"s_samples\":{},\"s_reports\":{},\
             \"stability\":{{\"stable\":{},\"dynamic\":{}}},\
             \"window_growth\":{},\
             \"flips\":{{\"total\":{},\"up\":{},\"down\":{},\"hazard\":{}}},\
             \"correlation\":{{\"engine_count\":{},\"rows\":{},\"strong_pairs\":{},\"groups\":{}}},\
             \"rank_stabilization\":[{}]}}",
            results.dataset.total_samples(),
            results.dataset.total_reports(),
            results.s_samples,
            results.s_reports,
            results.stability.stable,
            results.stability.dynamic,
            json_f64(results.window_growth),
            results.flips.flips,
            results.flips.flips_up,
            results.flips.flips_down,
            results.flips.hazard_flips,
            c.engine_count,
            c.rows,
            c.strong_pairs.len(),
            c.groups.len(),
            ranks.join(","),
        )
    })
}

/// The `engines` verb: every engine's flip totals, in roster order.
pub(super) fn render_engines(snap: &Snapshot) -> &str {
    snap.engines_json.get_or_init(|| {
        let flips = &snap.results().flips;
        let engines: Vec<String> = (0..flips.engine_count)
            .map(|i| {
                let total = flips.engine_total(EngineId::new(i));
                engine_flip_json(&snap.engine_names[i], total)
            })
            .collect();
        format!(
            "{{\"epoch\":{},\"engines\":[{}]}}",
            snap.epoch,
            engines.join(",")
        )
    })
}

/// The `fingerprint` verb: [`study_fingerprint`] of the snapshot's
/// study, beside `ingest_done`.
pub(super) fn render_fingerprint(snap: &Snapshot) -> &str {
    snap.fingerprint_json.get_or_init(|| {
        let (debug_fnv, rho_fnv) = study_fingerprint(snap.results());
        format!(
            "{{\"epoch\":{},\"ingest_done\":{},\
             \"fingerprint\":\"{debug_fnv:016x}\",\"rho_fnv\":\"{rho_fnv:016x}\"}}",
            snap.epoch, snap.ingest_done,
        )
    })
}

/// The `recommend` verb: a Maat-style online recommendation of (a) the
/// Fig. 9 AV-Rank threshold whose label sequences stabilized for the
/// most fresh-dynamic samples so far — the threshold that would have
/// labeled the stream most accurately — and (b) the engine subset whose
/// flip ratio is at or below the fleet-wide ratio (the engines whose
/// labels move least per opportunity, §7.1). Both read the snapshot's
/// finished study: the threshold sweep is its §6.2
/// `label_stabilization_all` and `in_s` its |*S*|, so the served counts
/// are the offline sweep's own, and ties break deterministically
/// (lowest threshold; ratio then name order for engines).
pub(super) fn render_recommend(snap: &Snapshot) -> &str {
    snap.recommend_json.get_or_init(|| recommend(snap))
}

fn recommend(snap: &Snapshot) -> String {
    let (epoch, results, engine_names) = (snap.epoch, snap.results(), &snap.engine_names);
    let (sweep, flips) = (&results.label_stabilization_all, &results.flips);
    let best = sweep
        .iter()
        .max_by(|a, b| a.stabilized.cmp(&b.stabilized).then(b.t.cmp(&a.t)))
        .expect("the sweep holds one row per Fig. 9 threshold");

    // Engine subset: flip ratio at or below the fleet-wide ratio,
    // compared exactly by cross-multiplication (no float thresholds).
    let per_engine: Vec<(usize, FlipCell)> = (0..flips.engine_count)
        .map(|i| (i, flips.engine_total(EngineId::new(i))))
        .collect();
    let total_flips: u128 = per_engine.iter().map(|(_, t)| u128::from(t.flips)).sum();
    let total_opps: u128 = per_engine
        .iter()
        .map(|(_, t)| u128::from(t.opportunities))
        .sum();
    let mut subset: Vec<&(usize, FlipCell)> = per_engine
        .iter()
        .filter(|(_, t)| {
            // f/o <= total_flips/total_opps  ⇔  f·TO <= TF·o
            t.opportunities > 0
                && u128::from(t.flips) * total_opps <= total_flips * u128::from(t.opportunities)
        })
        .collect();
    subset.sort_by(|(i, a), (j, b)| {
        (u128::from(a.flips) * u128::from(b.opportunities))
            .cmp(&(u128::from(b.flips) * u128::from(a.opportunities)))
            .then_with(|| engine_names[*i].cmp(&engine_names[*j]))
    });
    let engines: Vec<String> = subset
        .iter()
        .map(|(i, total)| engine_flip_json(&engine_names[*i], *total))
        .collect();
    format!(
        "{{\"epoch\":{epoch},\"recommend\":{{\
         \"threshold\":{},\"stabilized\":{},\"in_s\":{},\
         \"thresholds\":[{}],\
         \"engines\":[{}]}}}}",
        best.t,
        best.stabilized,
        results.s_samples,
        sweep
            .iter()
            .map(|r| format!("{{\"threshold\":{},\"stabilized\":{}}}", r.t, r.stabilized))
            .collect::<Vec<_>>()
            .join(","),
        engines.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{DecodeArena, IncrementalStudy, SampleSummary};
    use crate::serve::tests::{bare_snapshot, merger_ctx, published_in_one_burst, sealed_segments};
    use crate::serve::ServeConfig;
    use crate::sim::{SimConfig, VirusTotalSim};
    use std::sync::Arc;

    /// A snapshot whose slot indexes come out of real folds: three
    /// slots, a third of a `samples`-sample feed each, two folds apiece,
    /// each fold's index pushed onto its slot's chunks as the merger
    /// does.
    fn folded_snapshot(samples: u64) -> Snapshot {
        let sim = VirusTotalSim::new(SimConfig::new(0x1EAD, samples));
        let mut snap = bare_snapshot(4);
        let mut arena = DecodeArena::new();
        for (third, slot) in [1usize, 4, 6].into_iter().enumerate() {
            let third = third as u64;
            let ordinals = third * samples / 3..(third + 1) * samples / 3;
            let mut study =
                IncrementalStudy::new(sim.fleet(), sim.config().window_start()).with_index();
            for segment in sealed_segments(&sim, ordinals, 2) {
                study.fold_store(segment.store(), &mut arena, Obs::noop());
                let delta = study.take_index().expect("indexed");
                snap.slot_indexes[slot].push(Arc::new(delta));
            }
        }
        snap
    }

    #[test]
    fn flip_leaders_at_any_k_is_a_prefix_of_one_ranking_made_once_per_snapshot() {
        let cut = MAX_FLIP_LEADERS as usize;
        // One study that fits under the cut and one the cut truncates.
        for samples in [450u64, 1_500] {
            let snap = folded_snapshot(samples);
            let mut all: Vec<SampleSummary<'_>> = (snap.slot_indexes.iter())
                .flat_map(IndexChunks::chunks)
                .flat_map(|chunk| chunk.iter())
                .collect();
            let len = all.len();
            assert_eq!(len as u64, samples, "every sample is indexed");
            assert!(
                snap.slot_indexes.iter().filter(|i| !i.is_empty()).count() >= 3,
                "several slots contribute"
            );
            all.sort_unstable_by(|a, b| b.flips.cmp(&a.flips).then_with(|| a.hash.cmp(&b.hash)));
            assert!(all[0].flips > 0, "the fixture flips");
            let reference: Vec<String> = all
                .iter()
                .map(|s| {
                    format!(
                        "{{\"hash\":\"{}\",\"flips\":{},\"reports\":{},\"current_positives\":{}}}",
                        s.hash.to_hex(),
                        s.flips,
                        s.report_count(),
                        s.current_positives(),
                    )
                })
                .collect();

            assert!(snap.leaders.get().is_none(), "nothing ranks at publish");
            let mut memo: Option<*const String> = None;
            // `k` as the parser hands it over: never past the cut.
            for k in [0, 1, 10, len - 1, len, cut].map(|k| k.min(cut)) {
                assert_eq!(
                    render_flip_leaders(&snap, k),
                    format!(
                        "{{\"epoch\":4,\"k\":{k},\"leaders\":[{}]}}",
                        reference[..k.min(len)].join(",")
                    ),
                    "samples={samples} k={k}"
                );
                let ranked = snap.leaders.get().expect("the first request ranks");
                assert_eq!(ranked.len(), len.min(cut));
                assert_eq!(
                    *memo.get_or_insert(ranked.as_ptr()),
                    ranked.as_ptr(),
                    "later requests read the same allocation"
                );
            }
        }
    }

    /// The four documents the publish-time renderer this replaced made
    /// of the study below, one per line: `results`, `engines`,
    /// `fingerprint`, `recommend`. The `fingerprint` member alone was
    /// re-frozen when the correlation row cap left `StudyResults`'
    /// `Debug` (its `rho_fnv` did not move).
    const EPOCH_1_DOCUMENTS: &str = include_str!("testdata/epoch1_documents.jsonl");

    #[test]
    fn an_aggregate_document_is_rendered_by_its_first_request_and_once_per_snapshot() {
        // One real publish: a seeded 1 500-sample study through two
        // slots' folds and the merger.
        let snap = published_in_one_burst(&merger_ctx(ServeConfig::new(1_500, 0x51_07)));
        assert_eq!(snap.epoch, 1);

        let cells = |snap: &Snapshot| {
            [
                &snap.results_json,
                &snap.engines_json,
                &snap.fingerprint_json,
                &snap.recommend_json,
            ]
            .map(|cell| cell.get().map(|doc| doc.as_ptr()))
        };
        assert_eq!(cells(&snap), [None; 4], "nothing renders at publish");
        let renderers: [fn(&Snapshot) -> &str; 4] = [
            render_results,
            render_engines,
            render_fingerprint,
            render_recommend,
        ];
        let expected: Vec<&str> = EPOCH_1_DOCUMENTS.lines().collect();
        assert_eq!(expected.len(), renderers.len());
        for (n, render) in renderers.into_iter().enumerate() {
            let first = render(&snap);
            assert_eq!(
                first, expected[n],
                "document {n}: the bytes are the old ones"
            );
            let filled = cells(&snap);
            assert_eq!(filled[n], Some(first.as_ptr()));
            assert!(
                filled[n + 1..].iter().all(Option::is_none),
                "document {n}: the first ask fills the cell asked for and no other"
            );
            assert_eq!(
                render(&snap).as_ptr(),
                first.as_ptr(),
                "document {n}: a second ask reads the same allocation"
            );
        }
        assert!(
            snap.leaders.get().is_none(),
            "and nobody asked for the ranking"
        );
        // `status` reads its study members off the same snapshot.
        let status = render_status(&snap, &ServeCounters::register(Obs::noop()));
        assert!(
            status.contains(",\"s_samples\":63,\"ingest_done\":false,\"shards\":1,")
                && status.contains(",\"indexed\":1500,"),
            "{status}"
        );
    }
}
