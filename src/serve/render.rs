//! Layer 4 — snapshot → bytes.
//!
//! Everything a response is made of comes off one pinned [`Snapshot`].
//! The aggregate documents (`results`, `engines`, `metrics`,
//! `fingerprint`, `recommend`) are rendered once per epoch by
//! [`render_snapshot`], which the merger publishes with; `status` is
//! rendered per request from the live registry; the per-hash verbs
//! ([`Lazy`]) are rendered per request from the snapshot's slot indexes
//! behind the bounded [`ResponseCache`], whose entries are stamped with
//! the epoch their *slot* last changed at — so an epoch swap invalidates
//! only the answers whose slot actually republished (a hot sample in an
//! untouched slot stays cached across swaps, its epoch member spliced to
//! the live epoch at serve time), and a cached answer can never leak
//! stale data across a swap.
//!
//! Renders strings and nothing else: no socket, no lock but the
//! cache's own.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use super::counters::ServeCounters;
use super::ingest::slot_of;
use super::publish::{Merged, Snapshot};
use super::wire::quoted;
use crate::dynamics::flips::{FlipAnalysis, FlipCell};
use crate::dynamics::stabilization::FIG9_THRESHOLDS;
use crate::dynamics::{SampleIndex, StudyResults};
use crate::model::{EngineId, FileType, SampleHash};
use crate::obs::Counter;

// ---- the hot-sample cache ----------------------------------------------

/// One cached per-hash response: the rendered body with the epoch
/// digits spliced out, plus the provenance stamps that decide whether
/// an epoch swap invalidated it.
#[derive(Debug)]
struct CacheEntry {
    /// The response *after* the `{"epoch":` digits — every lazily
    /// rendered verb starts with that prefix, so serving a hit is a
    /// splice of the live epoch in front of this tail.
    tail: String,
    /// Which ingest slot the answer was rendered from (`None` for the
    /// whole-study verbs `engine` and `flip_leaders`).
    slot: Option<usize>,
    /// For slot-routed entries, the snapshot's `slot_epochs[slot]` at
    /// render time; for whole-study entries, the full epoch.
    stamp: u64,
    /// Last-used stamp backing least-recently-used eviction.
    last_used: u64,
}

impl CacheEntry {
    /// Is this entry still exactly what rendering against `snap` would
    /// produce (up to the spliced epoch digits)?
    fn valid_for(&self, snap: &Snapshot) -> bool {
        let stamp = match self.slot {
            Some(slot) => snap.slot_epochs[slot],
            None => snap.epoch,
        };
        stamp == self.stamp
    }
}

#[derive(Debug, Default)]
struct CacheState {
    epoch: u64,
    /// Monotone use counter backing least-recently-used eviction.
    clock: u64,
    /// Canonical request key → cached response.
    map: HashMap<String, CacheEntry>,
}

/// The bounded LRU cache behind the lazily rendered per-hash verbs.
///
/// Entries are stamped with the *slot epoch* they were rendered from —
/// the epoch at which their hash's ingest slot last changed. The first
/// request against a newer snapshot sweeps the map, dropping only the
/// entries whose slot actually republished since they were rendered
/// (plus the whole-study `engine`/`flip_leaders` entries, which every
/// epoch invalidates); entries for untouched slots survive the swap,
/// because their slot's index `Arc` is byte-for-byte the one they were
/// rendered from. A request that races a publish and holds an *older*
/// snapshot bypasses the cache entirely — a response for epoch N is
/// never stored once the cache has seen N+1, so answers cannot leak
/// across an epoch swap, and any one connection's epochs stay monotone.
#[derive(Debug)]
pub(super) struct ResponseCache {
    /// Entries retained; 0 disables caching entirely.
    capacity: usize,
    hits: Counter,
    misses: Counter,
    poisoned: Counter,
    state: Mutex<CacheState>,
}

impl ResponseCache {
    pub(super) fn new(capacity: usize, counters: &ServeCounters) -> Self {
        Self {
            capacity,
            hits: counters.cache_hits.clone(),
            misses: counters.cache_misses.clone(),
            poisoned: counters.poisoned.clone(),
            state: Mutex::default(),
        }
    }

    /// Serves one lazily rendered verb through the cache.
    pub(super) fn serve(&self, snap: &Snapshot, verb: &Lazy) -> String {
        let (key, slot) = verb.key_and_slot();
        self.respond(snap, &key, slot, || verb.render(snap))
    }

    /// Serves the response cached under `key`, or renders and caches
    /// it. `slot` is the ingest slot the answer is rendered from
    /// (`None` for whole-study answers); it decides which epoch swaps
    /// invalidate the entry.
    pub(super) fn respond(
        &self,
        snap: &Snapshot,
        key: &str,
        slot: Option<usize>,
        render: impl FnOnce() -> String,
    ) -> String {
        if self.capacity == 0 {
            return render();
        }
        {
            let mut cache = self.lock();
            if cache.epoch != snap.epoch {
                if snap.epoch > cache.epoch {
                    // First request against a newer snapshot: sweep out the
                    // entries whose slot republished (or whole-study
                    // entries); untouched slots' answers stay hot.
                    cache.epoch = snap.epoch;
                    cache.map.retain(|_, entry| entry.valid_for(snap));
                } else {
                    // This request pinned a snapshot from before the swap
                    // the cache has already seen: serve it uncached rather
                    // than ever mixing epochs.
                    drop(cache);
                    self.misses.incr();
                    return render();
                }
            }
            cache.clock += 1;
            let stamp = cache.clock;
            if let Some(entry) = cache.map.get_mut(key) {
                entry.last_used = stamp;
                self.hits.incr();
                // The entry may have been rendered epochs ago (its slot
                // unchanged since); splicing the live epoch reproduces the
                // fresh rendering byte for byte.
                return splice_epoch(snap.epoch, &entry.tail);
            }
        }
        // Render outside the lock — a fold-sized index walk must not block
        // every other per-hash reader.
        self.misses.incr();
        let rendered = render();
        let Some(tail) = epoch_tail(&rendered) else {
            return rendered;
        };
        let mut cache = self.lock();
        if cache.epoch == snap.epoch {
            if cache.map.len() >= self.capacity && !cache.map.contains_key(key) {
                let victim = cache
                    .map
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(victim) = victim {
                    cache.map.remove(&victim);
                }
            }
            cache.clock += 1;
            let stamp = cache.clock;
            cache.map.insert(
                key.to_string(),
                CacheEntry {
                    tail: tail.to_string(),
                    slot,
                    stamp: match slot {
                        Some(slot) => snap.slot_epochs[slot],
                        None => snap.epoch,
                    },
                    last_used: stamp,
                },
            );
        }
        rendered
    }

    /// Takes the cache lock, recovering from poisoning by dropping every
    /// entry (a handler that panicked mid-insert may have left the map
    /// in an arbitrary but memory-safe state; an empty cache is always
    /// correct).
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            self.poisoned.incr();
            let mut guard = poisoned.into_inner();
            *guard = CacheState::default();
            guard
        })
    }
}

/// Splits a lazily rendered response after its `{"epoch":<digits>`
/// prefix, returning the epoch-independent tail. Every per-hash verb
/// renders that prefix first; `None` (uncacheable) otherwise.
pub(super) fn epoch_tail(response: &str) -> Option<&str> {
    let rest = response.strip_prefix("{\"epoch\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    Some(&rest[digits..])
}

/// Reassembles a cached tail under the serving snapshot's epoch.
pub(super) fn splice_epoch(epoch: u64, tail: &str) -> String {
    format!("{{\"epoch\":{epoch}{tail}")
}

// ---- per-request renderers ---------------------------------------------

/// A verb rendered per request, behind the [`ResponseCache`].
pub(super) enum Lazy {
    Sample(SampleHash),
    /// A hash and a Fig. 9 threshold.
    Stabilized(SampleHash, u32),
    /// By roster index: the cache is keyed by client-controlled strings
    /// only after they resolve, so unknown names cannot crowd out real
    /// entries.
    Engine(usize),
    FlipLeaders(usize),
}

impl Lazy {
    /// The canonical cache key, and the one ingest slot the answer is
    /// rendered from. `engine` re-finishes with the flip matrix and
    /// `flip_leaders` ranks across every slot, so both are whole-study
    /// answers (`None`): every epoch swap invalidates them.
    fn key_and_slot(&self) -> (String, Option<usize>) {
        match *self {
            Lazy::Sample(hash) => (format!("sample:{}", hash.to_hex()), Some(slot_of(hash))),
            Lazy::Stabilized(hash, t) => (
                format!("stabilized:{}:{t}", hash.to_hex()),
                Some(slot_of(hash)),
            ),
            Lazy::Engine(engine) => (format!("engine:{engine}"), None),
            Lazy::FlipLeaders(k) => (format!("flip_leaders:{k}"), None),
        }
    }

    fn render(&self, snap: &Snapshot) -> String {
        match *self {
            Lazy::Sample(hash) => render_sample(snap, hash),
            Lazy::Stabilized(hash, t) => render_stabilized(snap, hash, t),
            Lazy::Engine(engine) => render_engine(snap, engine),
            Lazy::FlipLeaders(k) => render_flip_leaders(snap, k),
        }
    }
}

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
fn render_engine(snap: &Snapshot, engine: usize) -> String {
    let epoch = snap.epoch;
    let total = snap.flips.engine_total(EngineId::new(engine));
    let types: Vec<String> = snap.flips.matrix[engine]
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
/// worker count). Ranked by merging each slot's own top-`k` under that
/// total order — the global top `k` is contained in the union, so the
/// answer is bit-identical to ranking one merged index.
pub(super) fn render_flip_leaders(snap: &Snapshot, k: usize) -> String {
    let epoch = snap.epoch;
    let mut ranked: Vec<_> = snap
        .slot_indexes
        .iter()
        .flat_map(|index| index.top_flips(k))
        .collect();
    ranked.sort_unstable_by(|a, b| b.flips.cmp(&a.flips).then_with(|| a.hash.cmp(&b.hash)));
    ranked.truncate(k);
    let leaders: Vec<String> = ranked
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
    format!(
        "{{\"epoch\":{epoch},\"k\":{k},\"leaders\":[{}]}}",
        leaders.join(","),
    )
}

/// The `alerts` pull verb: every retained alert published after epoch
/// `since`, in key order. The array holds the deterministic `wire`
/// bodies only — no publish stamps — so at `since: 0` everything after
/// the epoch prefix is bit-identical at any shard × worker grid and
/// across crash-recovery replay (the chaos and determinism suites
/// compare exactly that tail). Clients resume by passing the last
/// response's top-level `epoch` as the next `since`. Uncached: the
/// filter is a cheap scan of the pre-rendered ring, and `since` is
/// client-controlled (unbounded key space).
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
/// `shards`, `indexed`) beside the live registry totals, so
/// `cache_hits`, `rejected`, `evicted` and the rest keep moving after
/// the last publish.
pub(super) fn render_status(snap: &Snapshot, c: &ServeCounters) -> String {
    format!(
        "{{\"epoch\":{},\"segments\":{},\"samples\":{},\"reports\":{},\
         \"accepted\":{},\"quarantined\":{},\"s_samples\":{},\"ingest_done\":{},\
         \"shards\":{},\"recovered_segments\":{},\"quarantined_segments\":{},\
         \"rejected\":{},\"evicted\":{},\"indexed\":{},\
         \"poisoned\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"alerts_fired\":{},\"alerts_stabilized\":{},\"alerts_destabilized\":{},\
         \"alerts_swings\":{},\"alerts_emitted\":{},\"alerts_dropped\":{}}}",
        snap.epoch,
        c.segments.value(),
        c.samples.value(),
        c.reports.value(),
        c.accepted.value(),
        c.quarantined.value(),
        snap.s_samples,
        snap.ingest_done,
        snap.shards,
        c.recovered_segments.value(),
        c.quarantined_segments.value(),
        c.rejected.value(),
        c.evicted.value(),
        snap.indexed,
        c.poisoned.value(),
        c.cache_hits.value(),
        c.cache_misses.value(),
        c.alerts_fired.value(),
        c.alerts_stabilized.value(),
        c.alerts_destabilized.value(),
        c.alerts_swings.value(),
        c.alerts_emitted.value(),
        c.alerts_dropped.value(),
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

// ---- per-epoch rendering -----------------------------------------------

/// FNV-1a accumulation over a byte slice.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// The chaos-gate fingerprint of a finished study: an FNV-1a digest of
/// the Debug rendering of every result field **except** the wall-clock
/// `stage_timings` (never deterministic), plus a digest of the raw
/// `to_bits` of every Spearman plane (global + per-type), so NaN
/// payloads and signed zeros count. Two runs whose fingerprints match
/// agree on every published statistic bit for bit — this is what
/// `tests/serve_chaos.rs` compares across kill/restart and shard
/// counts.
pub(super) fn study_fingerprint(results: &StudyResults) -> (u64, u64) {
    let debug = format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        results.dataset,
        results.fig1,
        results.partitions,
        results.stability,
        results.s_samples,
        results.s_reports,
        results.metrics,
        results.window_growth,
        results.intervals,
        results.categories_all,
        results.categories_pe,
        results.causes,
        results.rank_stabilization,
        results.label_stabilization_all,
        results.label_stabilization_multi,
        results.flips,
        results.correlation_global,
        results.correlation_per_type,
    );
    let mut debug_fnv = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut debug_fnv, debug.as_bytes());
    fnv1a(
        &mut debug_fnv,
        &results.window_growth.to_bits().to_le_bytes(),
    );
    let mut rho_fnv = 0xcbf2_9ce4_8422_2325u64;
    for plane in std::iter::once(&results.correlation_global).chain(&results.correlation_per_type) {
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

/// Renders every response for one epoch in one place, so a snapshot can
/// never mix stages of the study.
pub(super) fn render_snapshot(merged: Merged) -> Snapshot {
    let Merged {
        epoch,
        results,
        engine_names,
        slot_indexes,
        ..
    } = merged;
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
    let results_json = format!(
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
    );

    let engines: Vec<String> = (0..results.flips.engine_count)
        .map(|i| {
            engine_flip_json(
                &engine_names[i],
                results.flips.engine_total(EngineId::new(i)),
            )
        })
        .collect();
    let engines_json = format!("{{\"epoch\":{epoch},\"engines\":[{}]}}", engines.join(","));

    // `RunMetrics::to_json` pretty-prints; the wire format is one line
    // per response. String values escape control characters, so every
    // literal newline in the rendering is structural whitespace.
    let metrics_json = format!(
        "{{\"epoch\":{epoch},\"metrics\":{}}}",
        merged.metrics.to_json().replace('\n', " ")
    );

    let (debug_fnv, rho_fnv) = study_fingerprint(&results);
    let fingerprint = format!(
        "{{\"epoch\":{epoch},\"ingest_done\":{},\
         \"fingerprint\":\"{debug_fnv:016x}\",\"rho_fnv\":\"{rho_fnv:016x}\"}}",
        merged.ingest_done,
    );

    let recommend = render_recommend(epoch, &slot_indexes, &results.flips, &engine_names);

    Snapshot {
        epoch,
        s_samples: results.s_samples,
        indexed: slot_indexes.iter().map(|i| i.len()).sum(),
        ingest_done: merged.ingest_done,
        shards: merged.shards,
        results: results_json,
        engines: engines_json,
        metrics: metrics_json,
        fingerprint,
        slot_indexes,
        slot_epochs: merged.slot_epochs,
        flips: Arc::new(results.flips),
        engine_names,
        alerts: merged.alerts,
        recommend,
    }
}

/// The `recommend` verb, pre-rendered at publish: a Maat-style online
/// recommendation of (a) the Fig. 9 AV-Rank threshold whose label
/// sequences stabilized for the most fresh-dynamic samples so far —
/// the threshold that would have labeled the stream most accurately —
/// and (b) the engine subset whose flip ratio is at or below the
/// fleet-wide ratio (the engines whose labels move least per
/// opportunity, §7.1). Everything is summed from the per-slot §6
/// stabilization masks ([`SampleIndex::stab_counts_in_s`]), so the
/// counts equal the offline `label_stabilization_all` sweep bit for
/// bit, and ties break deterministically (lowest threshold; ratio then
/// name order for engines).
fn render_recommend(
    epoch: u64,
    slot_indexes: &[Arc<SampleIndex>],
    flips: &FlipAnalysis,
    engine_names: &[String],
) -> String {
    // Threshold sweep: sum each slot's in-S stabilization-mask counts.
    let mut counts = [0u64; FIG9_THRESHOLDS.len()];
    let mut in_s = 0u64;
    for index in slot_indexes {
        let (slot_counts, slot_in_s) = index.stab_counts_in_s();
        for (acc, c) in counts.iter_mut().zip(slot_counts) {
            *acc += c;
        }
        in_s += slot_in_s;
    }
    let best = (0..FIG9_THRESHOLDS.len())
        .max_by(|&a, &b| counts[a].cmp(&counts[b]).then(b.cmp(&a)))
        .expect("FIG9_THRESHOLDS is nonempty");

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
         \"threshold\":{},\"stabilized\":{},\"in_s\":{in_s},\
         \"thresholds\":[{}],\
         \"engines\":[{}]}}}}",
        FIG9_THRESHOLDS[best],
        counts[best],
        FIG9_THRESHOLDS
            .iter()
            .zip(counts)
            .map(|(t, c)| format!("{{\"threshold\":{t},\"stabilized\":{c}}}"))
            .collect::<Vec<_>>()
            .join(","),
        engines.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Obs;
    use crate::serve::tests::bare_snapshot;

    #[test]
    fn a_panic_under_the_cache_lock_is_counted_and_does_not_cascade() {
        let counters = ServeCounters::register(&Obs::new());
        let cache = Arc::new(ResponseCache::new(8, &counters));
        let snap = bare_snapshot(1);
        let body = |tag: &str| format!("{{\"epoch\":1,\"tag\":\"{tag}\"}}");
        let first = cache.respond(&snap, "k", Some(0), || body("first"));
        assert_eq!(first, body("first"));
        let holder = Arc::clone(&cache);
        let died = std::thread::spawn(move || {
            let _guard = holder.state.lock().expect("first holder");
            panic!("test-injected: a handler dies holding the cache's lock");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(counters.poisoned.value(), 0, "nothing has recovered it yet");
        // The next request takes the lock over, finds the cache emptied
        // — "first" is gone — and answers with a fresh rendering.
        let next = cache.respond(&snap, "k", Some(0), || body("second"));
        assert_eq!(next, body("second"));
        assert!(counters.poisoned.value() >= 1, "the takeover is counted");
        let again = cache.respond(&snap, "other", None, || body("third"));
        assert_eq!(again, body("third"), "and later requests are still served");
    }
}
