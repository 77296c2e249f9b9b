//! Fault-tolerant feed ingestion: the collection campaign's front end.
//!
//! The paper's pipeline (§4.1) polls the premium feed every minute for
//! 14 months and lands ~847 M reports in storage. At that duration the
//! feed's failure modes are not corner cases — outages, duplicated
//! deliveries, late batches, damaged payloads — and the collector's job
//! is to produce a clean, deduplicated, time-ordered report stream
//! anyway. [`Collector`] is that component over the chaos-injected
//! [`FaultyFeed`]:
//!
//! * **Retry with bounded backoff** — a failed poll is retried up to
//!   [`CollectorConfig::max_retries`] times (backoff is simulated
//!   logically; virtual time, not wall clock). A minute that never
//!   heals is abandoned and counted as a *gap*.
//! * **Dedup** — reports are keyed on `(sample, analysis_date, kind)`;
//!   per-sample scan minutes are strictly increasing in the platform
//!   model, so the key is collision-free for distinct reports and a
//!   repeat key is always a redelivery. Keys are **evicted** once their
//!   analysis minute falls behind the reorder watermark: a redelivery
//!   arrives at most the feed's lateness bound (≤
//!   [`CollectorConfig::reorder_horizon`]) after its generation minute,
//!   so older duplicates cannot legally arrive and the dedup set stays
//!   bounded by the horizon's report volume instead of growing for the
//!   whole campaign.
//! * **Bounded reorder buffer** — entries may arrive up to the feed's
//!   lateness bound after their generation minute; accepted reports are
//!   held in a buffer and emitted in `analysis_date` order once the
//!   watermark (poll minute − [`CollectorConfig::reorder_horizon`])
//!   passes them.
//! * **Quarantine** — a payload that fails its checksum or does not
//!   decode is never silently dropped: it is kept with a typed
//!   [`IngestError`] for post-campaign inspection.
//!
//! Everything is deterministic: the same feed (same
//! [`FaultPlan`] seed) produces byte-identical
//! [`IngestStats`], independent of upstream generation worker counts.

use std::collections::{BTreeMap, BTreeSet};

use vt_model::ScanReport;
use vt_obs::Obs;
use vt_sim::fault::{FaultPlan, FaultyFeed, FeedEntry};
use vt_store::codec::decode_report;
use vt_store::crc32::crc32;
use vt_store::{ReportStore, StoreBuilder, StoreObs};

/// Collector tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Poll attempts per minute beyond the first before the minute is
    /// abandoned as a gap.
    pub max_retries: u32,
    /// Reorder-buffer horizon in minutes: a buffered report generated
    /// at minute `g` is emitted once polling reaches `g + horizon`.
    /// Must be ≥ the feed's maximum lateness to fully restore order —
    /// the same bound that makes dedup-key eviction safe (a redelivery
    /// can only arrive within the lateness bound of its generation
    /// minute).
    pub reorder_horizon: u32,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        Self {
            max_retries: 5,
            reorder_horizon: 64,
        }
    }
}

/// Why an entry was quarantined instead of ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The payload no longer matches its sender-side checksum — damaged
    /// in flight.
    ChecksumMismatch {
        /// Checksum the sender computed.
        expected: u32,
        /// Checksum of the bytes that arrived.
        actual: u32,
    },
    /// The payload passed its checksum but failed to decode as a scan
    /// report (sender-side damage or a framing bug).
    DecodeFailure,
    /// The payload decoded but bytes were left over — the frame holds
    /// more than one report's worth of data.
    TrailingBytes {
        /// Number of undecoded bytes left in the frame.
        leftover: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            IngestError::DecodeFailure => write!(f, "payload failed to decode as a scan report"),
            IngestError::TrailingBytes { leftover } => {
                write!(f, "payload decoded with {leftover} trailing bytes")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// A collector configuration rejected by [`Collector::for_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectorConfigError {
    /// The reorder horizon does not cover the feed's lateness bound, so
    /// late arrivals would be emitted out of order and redeliveries
    /// could outlive their dedup keys.
    HorizonTooShort {
        /// The configured [`CollectorConfig::reorder_horizon`].
        horizon: u32,
        /// The plan's maximum lateness in minutes.
        max_lateness: u32,
    },
}

impl std::fmt::Display for CollectorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectorConfigError::HorizonTooShort {
                horizon,
                max_lateness,
            } => write!(
                f,
                "reorder horizon {horizon} min is shorter than the feed's \
                 lateness bound {max_lateness} min: order restoration and \
                 dedup-key eviction would both be unsound"
            ),
        }
    }
}

impl std::error::Error for CollectorConfigError {}

/// An entry the collector refused, kept for inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedEntry {
    /// The minute whose poll delivered the entry.
    pub delivery_minute: i64,
    /// Why it was refused.
    pub error: IngestError,
    /// The offending entry, byte for byte.
    pub entry: FeedEntry,
}

/// Counters for one ingestion run. With a fixed feed seed these are
/// byte-identical run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Minutes successfully polled (including empty ones).
    pub polled_minutes: u64,
    /// Reports accepted into the output store.
    pub accepted: u64,
    /// Entries dropped as redeliveries of an accepted report.
    pub deduped: u64,
    /// Accepted reports that arrived after their generation minute and
    /// were re-sequenced by the reorder buffer.
    pub reordered: u64,
    /// Entries quarantined with an [`IngestError`].
    pub quarantined: u64,
    /// Failed poll attempts that were retried.
    pub retries: u64,
    /// Minutes abandoned after exhausting retries (hard outages).
    pub gap_minutes: u64,
    /// Entries lost inside abandoned minutes.
    pub lost_entries: u64,
    /// High-water mark of the reorder buffer, in reports.
    pub max_buffer_depth: u64,
    /// High-water mark of the dedup key set. Bounded by the reorder
    /// horizon's report volume, not the campaign length.
    pub max_dedup_keys: u64,
    /// Dedup keys evicted after their analysis minute passed the
    /// reorder watermark (no duplicate can legally arrive that late).
    pub dedup_evicted: u64,
    /// Reports emitted behind an already-emitted later report — 0
    /// whenever the horizon covers the feed's actual lateness bound.
    pub emitted_out_of_order: u64,
}

/// Everything an ingestion run produces.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The sealed store holding every accepted report.
    pub store: ReportStore,
    /// Run counters.
    pub stats: IngestStats,
    /// Refused entries, in delivery order.
    pub quarantine: Vec<QuarantinedEntry>,
}

/// Report identity key, analysis minute first: collision-free for
/// distinct reports because per-sample scan minutes strictly increase
/// in the platform model. The minute-major ordering serves both uses —
/// BTreeMap iteration over the reorder buffer is emission (time) order,
/// and the dedup set can evict everything behind the watermark with one
/// `split_off`.
type ReportKey = (i64, u128, u8);

fn report_key(r: &ScanReport) -> ReportKey {
    (r.analysis_date.0, r.sample.0, r.kind as u8)
}

/// The fault-tolerant feed collector. See the module docs for the
/// pipeline it implements.
#[derive(Debug, Default)]
pub struct Collector {
    config: CollectorConfig,
}

impl Collector {
    /// A collector with the given tuning.
    pub fn new(config: CollectorConfig) -> Self {
        Self { config }
    }

    /// A collector validated against the fault plan it will face:
    /// rejects a reorder horizon shorter than the plan's lateness bound
    /// (which would make both order restoration and dedup-key eviction
    /// unsound) instead of silently emitting out of order.
    pub fn for_plan(
        config: CollectorConfig,
        plan: &FaultPlan,
    ) -> Result<Self, CollectorConfigError> {
        if config.reorder_horizon < plan.max_lateness {
            return Err(CollectorConfigError::HorizonTooShort {
                horizon: config.reorder_horizon,
                max_lateness: plan.max_lateness,
            });
        }
        Ok(Self::new(config))
    }

    /// Drains `feed` to completion, handing each poll minute's ripe
    /// reports — accepted, deduplicated, in emission order — to `emit`,
    /// and returns the run counters and the quarantine. The one ingest
    /// loop: [`run`](Self::run) and [`run_with_obs`](Self::run_with_obs)
    /// are this with a [`StoreBuilder`] behind `emit`; `vtld serve`
    /// groups what it is handed straight into its segment writers.
    ///
    /// Timed under the `collector/ingest` span, with the run's
    /// [`IngestStats`] mirrored into `obs` counters
    /// (`collector/accepted`, `collector/deduped`, …) and high-water
    /// gauges (`collector/max_buffer_depth`, `collector/max_dedup_keys`)
    /// afterwards. The ingestion itself is untouched — what is emitted,
    /// counted and quarantined is identical whether `obs` is enabled,
    /// disabled or [`Obs::noop`].
    pub fn run_into(
        &self,
        mut feed: FaultyFeed,
        obs: &Obs,
        mut emit: impl FnMut(&[ScanReport]),
    ) -> (IngestStats, Vec<QuarantinedEntry>) {
        let span = obs.span("collector/ingest");
        let mut stats = IngestStats::default();
        let mut quarantine = Vec::new();
        let mut seen: BTreeSet<ReportKey> = BTreeSet::new();
        // Reorder buffer, keyed so iteration order is emission order.
        let mut buffer: BTreeMap<ReportKey, ScanReport> = BTreeMap::new();
        let mut last_emitted_minute = i64::MIN;

        while let Some(minute) = feed.first_minute() {
            // Poll with retries; simulated exponential backoff (the
            // schedule is virtual-time, so backoff costs no wall clock
            // and adds no nondeterminism).
            let mut attempt = 0u32;
            let delivered = loop {
                match feed.poll(minute, attempt) {
                    Ok(entries) => {
                        stats.polled_minutes += 1;
                        break Some(entries);
                    }
                    Err(_) if attempt < self.config.max_retries => {
                        stats.retries += 1;
                        attempt += 1;
                    }
                    Err(_) => {
                        stats.gap_minutes += 1;
                        stats.lost_entries += feed.abandon(minute) as u64;
                        break None;
                    }
                }
            };

            for entry in delivered.into_iter().flatten() {
                match Self::decode_entry(&entry) {
                    Ok(report) => {
                        let key = report_key(&report);
                        if !seen.insert(key) {
                            stats.deduped += 1;
                            continue;
                        }
                        stats.max_dedup_keys = stats.max_dedup_keys.max(seen.len() as u64);
                        if minute > entry.generated_minute {
                            stats.reordered += 1;
                        }
                        buffer.insert(key, report);
                        stats.max_buffer_depth = stats.max_buffer_depth.max(buffer.len() as u64);
                    }
                    Err(error) => {
                        stats.quarantined += 1;
                        quarantine.push(QuarantinedEntry {
                            delivery_minute: minute,
                            error,
                            entry,
                        });
                    }
                }
            }

            // Emit everything the watermark has passed. Entries still
            // inside the horizon may yet be preceded by a late arrival.
            // The minute's ripe reports go out as one batch, in buffer
            // order (one `append_batch` per ripe minute when the sink
            // is a store).
            let watermark = minute - self.config.reorder_horizon as i64;
            let mut ripe = Vec::new();
            while let Some((&key, _)) = buffer.iter().next() {
                if key.0 > watermark {
                    break;
                }
                let report = buffer.remove(&key).expect("first key present");
                Self::note_emit(&report, &mut last_emitted_minute, &mut stats);
                ripe.push(report);
            }
            if !ripe.is_empty() {
                emit(&ripe);
            }

            // Evict dedup keys the watermark has passed: a redelivery
            // arrives at most the lateness bound (≤ horizon) after its
            // generation minute, and future polls are strictly later
            // than this one, so a key at minute ≤ watermark can never
            // recur. Without this the set grows with the campaign.
            let retained = seen.split_off(&(watermark + 1, 0, 0));
            stats.dedup_evicted += seen.len() as u64;
            seen = retained;
        }

        // Feed drained: flush the tail of the buffer in order.
        let tail: Vec<ScanReport> = std::mem::take(&mut buffer).into_values().collect();
        for report in &tail {
            Self::note_emit(report, &mut last_emitted_minute, &mut stats);
        }
        if !tail.is_empty() {
            emit(&tail);
        }
        drop(span);
        if obs.is_enabled() {
            let s = &stats;
            obs.counter("collector/polled_minutes")
                .add(s.polled_minutes);
            obs.counter("collector/accepted").add(s.accepted);
            obs.counter("collector/deduped").add(s.deduped);
            obs.counter("collector/reordered").add(s.reordered);
            obs.counter("collector/quarantined").add(s.quarantined);
            obs.counter("collector/retries").add(s.retries);
            obs.counter("collector/gap_minutes").add(s.gap_minutes);
            obs.counter("collector/lost_entries").add(s.lost_entries);
            obs.counter("collector/dedup_evicted").add(s.dedup_evicted);
            obs.counter("collector/emitted_out_of_order")
                .add(s.emitted_out_of_order);
            obs.gauge("collector/max_buffer_depth")
                .set_max(s.max_buffer_depth);
            obs.gauge("collector/max_dedup_keys")
                .set_max(s.max_dedup_keys);
        }
        (stats, quarantine)
    }

    /// [`run`](Self::run) with the `collector/*` metrics of
    /// [`run_into`](Self::run_into) and the `store/*` metrics (encode
    /// timings, sealed bytes) of a store built with
    /// [`StoreBuilder::with_obs`].
    pub fn run_with_obs(&self, feed: FaultyFeed, obs: &Obs) -> IngestOutcome {
        let mut store = StoreBuilder::with_obs(&StoreObs::new(obs));
        let (stats, quarantine) = self.run_into(feed, obs, |batch| store.append_batch(batch));
        IngestOutcome {
            store: store.seal(),
            stats,
            quarantine,
        }
    }

    /// Drains `feed` to completion and returns the sealed store, the
    /// run counters, and the quarantine.
    pub fn run(&self, feed: FaultyFeed) -> IngestOutcome {
        self.run_with_obs(feed, Obs::noop())
    }

    /// Verifies and decodes one framed entry.
    fn decode_entry(entry: &FeedEntry) -> Result<ScanReport, IngestError> {
        let actual = crc32(&entry.payload);
        if actual != entry.checksum {
            return Err(IngestError::ChecksumMismatch {
                expected: entry.checksum,
                actual,
            });
        }
        let mut cursor: &[u8] = &entry.payload;
        let (report, _) = decode_report(&mut cursor, 0).ok_or(IngestError::DecodeFailure)?;
        if !cursor.is_empty() {
            return Err(IngestError::TrailingBytes {
                leftover: cursor.len(),
            });
        }
        Ok(report)
    }

    /// Books one report's emission (ordering check + counters); the
    /// caller emits the batch.
    fn note_emit(report: &ScanReport, last_emitted_minute: &mut i64, stats: &mut IngestStats) {
        if report.analysis_date.0 < *last_emitted_minute {
            stats.emitted_out_of_order += 1;
        }
        *last_emitted_minute = (*last_emitted_minute).max(report.analysis_date.0);
        stats.accepted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_sim::fault::FaultPlan;
    use vt_sim::{SimConfig, VirusTotalSim};

    fn sim(samples: u64) -> VirusTotalSim {
        VirusTotalSim::new(SimConfig::new(0xFA117, samples))
    }

    fn feed(sim: &VirusTotalSim, samples: u64, plan: FaultPlan) -> FaultyFeed {
        FaultyFeed::from_sim(sim, 0..samples, plan)
    }

    #[test]
    fn clean_feed_ingests_everything_in_order() {
        let sim = sim(300);
        let expected: usize = vt_sim::TimeOrderedFeed::new(&sim, 0..300).count();
        let outcome = Collector::default().run(feed(&sim, 300, FaultPlan::clean(1)));
        assert_eq!(outcome.stats.accepted as usize, expected);
        assert_eq!(outcome.stats.deduped, 0);
        assert_eq!(outcome.stats.quarantined, 0);
        assert_eq!(outcome.stats.gap_minutes, 0);
        assert_eq!(outcome.stats.emitted_out_of_order, 0);
        assert_eq!(outcome.store.report_count() as usize, expected);
        assert!(outcome.quarantine.is_empty());
    }

    #[test]
    fn duplicates_are_absorbed_exactly() {
        let sim = sim(300);
        let clean: usize = vt_sim::TimeOrderedFeed::new(&sim, 0..300).count();
        let f = feed(&sim, 300, FaultPlan::clean(2).with_duplicates(0.4));
        let dups = f.duplicated_entries();
        assert!(dups > 0);
        let outcome = Collector::default().run(f);
        assert_eq!(outcome.stats.accepted as usize, clean);
        assert_eq!(outcome.stats.deduped, dups, "every duplicate absorbed");
        assert_eq!(outcome.store.report_count() as usize, clean);
    }

    /// Regression for the unbounded dedup set: keys behind the reorder
    /// watermark are evicted (duplicates beyond the lateness bound
    /// cannot legally arrive), yet every duplicate is still absorbed —
    /// including late-delivered ones under combined reordering.
    #[test]
    fn dedup_set_is_bounded_and_still_absorbs_all_duplicates() {
        let sim = sim(300);
        let clean: usize = vt_sim::TimeOrderedFeed::new(&sim, 0..300).count();
        let plan = FaultPlan::clean(7)
            .with_duplicates(0.4)
            .with_reordering(0.4, 30);
        let f = feed(&sim, 300, plan);
        let dups = f.duplicated_entries();
        assert!(dups > 0);
        let outcome = Collector::default().run(f);
        assert_eq!(outcome.stats.accepted as usize, clean);
        assert_eq!(outcome.stats.deduped, dups, "every duplicate absorbed");
        assert_eq!(outcome.store.report_count() as usize, clean);
        // The set was actually evicted down, and its high-water mark
        // stayed far below the campaign's total key count (which is
        // what the old HashSet grew to).
        assert!(outcome.stats.dedup_evicted > 0, "eviction engaged");
        assert!(
            outcome.stats.max_dedup_keys < outcome.stats.accepted / 2,
            "dedup set bounded by the horizon, not the campaign: {} keys vs {} accepted",
            outcome.stats.max_dedup_keys,
            outcome.stats.accepted
        );
        // Eviction accounts for every accepted key that left the set.
        assert!(outcome.stats.dedup_evicted <= outcome.stats.accepted);
    }

    #[test]
    fn reordering_is_restored_within_horizon() {
        let sim = sim(300);
        let plan = FaultPlan::clean(3).with_reordering(0.5, 20);
        let config = CollectorConfig {
            reorder_horizon: 20,
            ..CollectorConfig::default()
        };
        let outcome = Collector::new(config).run(feed(&sim, 300, plan));
        assert!(outcome.stats.reordered > 0, "late arrivals observed");
        assert_eq!(
            outcome.stats.emitted_out_of_order, 0,
            "order fully restored"
        );
    }

    #[test]
    fn corruption_is_quarantined_not_ingested() {
        let sim = sim(300);
        let f = feed(&sim, 300, FaultPlan::clean(4).with_corruption(0.1));
        let corrupted = f.corrupted_entries();
        let scheduled = f.scheduled_entries();
        assert!(corrupted > 0);
        let outcome = Collector::default().run(f);
        assert_eq!(outcome.stats.quarantined, corrupted);
        assert_eq!(outcome.quarantine.len() as u64, corrupted);
        assert_eq!(outcome.stats.accepted, scheduled - corrupted);
        for q in &outcome.quarantine {
            assert!(
                matches!(q.error, IngestError::ChecksumMismatch { .. }),
                "bit flips are caught by the checksum: {:?}",
                q.error
            );
            assert!(!q.entry.checksum_ok());
        }
    }

    #[test]
    fn outages_retry_then_gap() {
        let sim = sim(300);
        let plan = FaultPlan::clean(5).with_outages(0.10, 0.3);
        let outcome = Collector::default().run(feed(&sim, 300, plan));
        assert!(outcome.stats.retries > 0, "transient outages retried");
        assert!(outcome.stats.gap_minutes > 0, "hard outages become gaps");
        assert_eq!(
            outcome.stats.accepted + outcome.stats.lost_entries,
            vt_sim::TimeOrderedFeed::new(&sim, 0..300).count() as u64,
            "every entry is either ingested or accounted lost"
        );
    }

    #[test]
    fn for_plan_rejects_a_horizon_below_the_lateness_bound() {
        let plan = FaultPlan::clean(1).with_reordering(0.3, 40);
        let short = CollectorConfig {
            reorder_horizon: 20,
            ..CollectorConfig::default()
        };
        assert_eq!(
            Collector::for_plan(short, &plan).unwrap_err(),
            CollectorConfigError::HorizonTooShort {
                horizon: 20,
                max_lateness: 40,
            }
        );
        // The default horizon (64) covers the bound.
        assert!(Collector::for_plan(CollectorConfig::default(), &plan).is_ok());
    }

    #[test]
    fn obs_mirrors_stats_without_changing_the_run() {
        let sim = sim(300);
        let plan = FaultPlan::clean(8)
            .with_duplicates(0.3)
            .with_reordering(0.3, 15)
            .with_corruption(0.05);
        let plain = Collector::default().run(feed(&sim, 300, plan));
        let obs = Obs::new();
        let observed = Collector::default().run_with_obs(feed(&sim, 300, plan), &obs);
        assert_eq!(plain.stats, observed.stats);
        assert_eq!(plain.store.report_count(), observed.store.report_count());
        let m = obs.snapshot();
        assert_eq!(m.counter("collector/accepted"), Some(plain.stats.accepted));
        assert_eq!(m.counter("collector/deduped"), Some(plain.stats.deduped));
        assert_eq!(
            m.counter("collector/quarantined"),
            Some(plain.stats.quarantined)
        );
        assert_eq!(
            m.gauge("collector/max_buffer_depth"),
            Some(plain.stats.max_buffer_depth)
        );
        assert_eq!(m.span("collector/ingest").map(|s| s.count), Some(1));
        // The run's store is instrumented too: every accepted report
        // was encoded exactly once.
        assert_eq!(
            m.counter("store/encoded_reports"),
            Some(plain.stats.accepted)
        );
        assert!(m.gauge("store/sealed_bytes").unwrap_or(0) > 0);
        // A disabled handle records nothing and changes nothing.
        let off = Obs::disabled();
        let silent = Collector::default().run_with_obs(feed(&sim, 300, plan), &off);
        assert_eq!(silent.stats, plain.stats);
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn stats_are_deterministic() {
        let sim = sim(300);
        let plan = FaultPlan::clean(6)
            .with_duplicates(0.2)
            .with_reordering(0.3, 15)
            .with_corruption(0.05)
            .with_outages(0.05, 0.2);
        let a = Collector::default().run(feed(&sim, 300, plan));
        let b = Collector::default().run(feed(&sim, 300, plan));
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.quarantine, b.quarantine);
        assert_eq!(a.store.report_count(), b.store.report_count());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use vt_store::group_reports;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// What `vtld serve` does — group the reports the collector
            /// emits — equals what it did: `group_by_sample` of a store
            /// built from the same emission. Groups and order both,
            /// under duplicates and bounded reordering: a sealed
            /// segment's bytes are a function of exactly this.
            #[test]
            fn grouping_the_emitted_reports_equals_grouping_the_store_built_from_them(
                seed in any::<u64>(),
                samples in 1u64..250,
                duplicates in 0.0f64..0.5,
                reordering in 0.0f64..0.5,
                lateness in 1u32..60,
            ) {
                let sim = VirusTotalSim::new(SimConfig::new(seed, samples));
                let plan = FaultPlan::clean(seed ^ 0xFA17)
                    .with_duplicates(duplicates)
                    .with_reordering(reordering, lateness);
                let mut emitted = Vec::new();
                let (stats, quarantine) = Collector::default().run_into(
                    feed(&sim, samples, plan),
                    Obs::noop(),
                    |batch| emitted.extend_from_slice(batch),
                );
                let outcome = Collector::default().run(feed(&sim, samples, plan));
                prop_assert_eq!(stats, outcome.stats);
                prop_assert_eq!(quarantine, outcome.quarantine);
                prop_assert_eq!(emitted.len() as u64, stats.accepted);
                prop_assert_eq!(group_reports(emitted), outcome.store.group_by_sample());
            }
        }
    }
}
