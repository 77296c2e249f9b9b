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
//!   [`MAX_POLL_RETRIES`] times (backoff is simulated logically;
//!   virtual time, not wall clock). A minute that never heals is
//!   abandoned and counted as a *gap*.
//! * **One reorder buffer, which is also the dedup set** — an entry
//!   arrives at most the feed's lateness bound
//!   ([`FaultyFeed::max_lateness`]) after its generation minute.
//!   Accepted reports are held in a buffer keyed on
//!   `(analysis_date, sample, kind)` and emitted in key order once the
//!   watermark (poll minute − lateness bound) passes them, so emitted
//!   keys rise strictly. The key is collision-free for distinct reports
//!   (per-sample scan minutes strictly increase in the platform model),
//!   so a repeat key is always a redelivery; and a redelivery arrives
//!   within the lateness bound too, while its first copy is still
//!   buffered. A key found in the buffer is therefore a duplicate, and
//!   an emitted key never recurs: the buffer is all the dedup state
//!   there is, bounded by the lateness bound's report volume rather
//!   than the campaign's.
//! * **Quarantine** — a payload that fails its checksum or does not
//!   decode is never silently dropped: it is kept with a typed
//!   [`IngestError`] for post-campaign inspection.
//!
//! Everything is deterministic: the same feed (same
//! [`FaultPlan`](vt_sim::fault::FaultPlan) seed) produces byte-identical
//! [`IngestStats`], independent of upstream generation worker counts.

use std::collections::BTreeMap;

use vt_model::ScanReport;
use vt_obs::Obs;
use vt_sim::fault::{FaultyFeed, FeedEntry};
use vt_store::codec::decode_report;
use vt_store::crc32::crc32;
use vt_store::{ReportStore, StoreBuilder};

/// Poll attempts per minute beyond the first before the minute is
/// abandoned as a gap.
pub const MAX_POLL_RETRIES: u32 = 5;

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
    /// High-water mark of the reorder buffer, in reports — which is
    /// also the dedup state's. Bounded by the feed's lateness bound's
    /// report volume, not the campaign length.
    pub max_buffer_depth: u64,
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
/// in the platform model. The minute-major ordering makes the reorder
/// buffer's iteration order emission (time) order, and everything the
/// watermark has passed its first entries.
type ReportKey = (i64, u128, u8);

fn report_key(r: &ScanReport) -> ReportKey {
    (r.analysis_date.0, r.sample.0, r.kind as u8)
}

/// The fault-tolerant feed collector. See the module docs for the
/// pipeline it implements. It has no fields and no settings: the reorder
/// horizon is the feed's own lateness bound and the retry bound is
/// [`MAX_POLL_RETRIES`]. Braced rather than a unit struct, so that
/// `Collector::default()`, the way callers make one, is no lint finding.
#[derive(Debug, Default)]
pub struct Collector {}

impl Collector {
    /// Drains `feed` to completion, handing each poll minute's ripe
    /// reports — accepted, deduplicated, in emission order — to `emit`,
    /// and returns the run counters and the quarantine. The one ingest
    /// loop: [`run`](Self::run) is this with a [`StoreBuilder`] behind
    /// `emit`; `vtld serve` groups what it is handed straight into its
    /// segment writers.
    ///
    /// Timed under the `collector/ingest` span, with the run's
    /// [`IngestStats`] mirrored into `obs` counters
    /// (`collector/accepted`, `collector/deduped`, …) and the
    /// `collector/max_buffer_depth` high-water gauge afterwards. The
    /// ingestion itself is untouched — what is emitted, counted and
    /// quarantined is identical whether `obs` is enabled, disabled or
    /// [`Obs::noop`].
    pub fn run_into(
        &self,
        mut feed: FaultyFeed,
        obs: &Obs,
        mut emit: impl FnMut(&[ScanReport]),
    ) -> (IngestStats, Vec<QuarantinedEntry>) {
        let span = obs.span("collector/ingest");
        let lateness = i64::from(feed.max_lateness());
        let mut stats = IngestStats::default();
        let mut quarantine = Vec::new();
        // The reorder buffer, keyed so iteration order is emission
        // order; its keys are the dedup set (see the module docs).
        let mut buffer: BTreeMap<ReportKey, ScanReport> = BTreeMap::new();

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
                    Err(_) if attempt < MAX_POLL_RETRIES => {
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
                        if buffer.contains_key(&key) {
                            stats.deduped += 1;
                            continue;
                        }
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

            // Emit everything the watermark has passed: every later poll
            // delivers only entries generated after it. The minute's ripe
            // reports go out as one batch, in buffer order (one
            // `append_batch` per ripe minute when the sink is a store).
            let watermark = minute - lateness;
            let mut ripe = Vec::new();
            while let Some(first) = buffer.first_entry().filter(|e| e.key().0 <= watermark) {
                ripe.push(first.remove());
            }
            if !ripe.is_empty() {
                stats.accepted += ripe.len() as u64;
                emit(&ripe);
            }
        }

        // Feed drained: flush the tail of the buffer in order.
        let tail: Vec<ScanReport> = buffer.into_values().collect();
        if !tail.is_empty() {
            stats.accepted += tail.len() as u64;
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
            obs.gauge("collector/max_buffer_depth")
                .set_max(s.max_buffer_depth);
        }
        (stats, quarantine)
    }

    /// Drains `feed` to completion and returns the sealed store, the
    /// run counters, and the quarantine.
    pub fn run(&self, feed: FaultyFeed) -> IngestOutcome {
        let mut store = StoreBuilder::new();
        let (stats, quarantine) =
            self.run_into(feed, Obs::noop(), |batch| store.append_batch(batch));
        IngestOutcome {
            store: store.seal(),
            stats,
            quarantine,
        }
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

    /// Every report `run_into` emits, concatenated across its batches,
    /// with the run's counters.
    fn emitted(feed: FaultyFeed) -> (Vec<ScanReport>, IngestStats) {
        let mut emitted = Vec::new();
        let (stats, _) = Collector::default()
            .run_into(feed, Obs::noop(), |batch| emitted.extend_from_slice(batch));
        (emitted, stats)
    }

    /// Whether the reports' keys rise strictly: emitted in order, and
    /// no key twice.
    fn strictly_rising(reports: &[ScanReport]) -> bool {
        reports
            .windows(2)
            .all(|w| report_key(&w[0]) < report_key(&w[1]))
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
        let (reports, _) = emitted(feed(&sim, 300, FaultPlan::clean(1)));
        assert!(strictly_rising(&reports), "emitted in key order");
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

    /// The reorder buffer is the dedup state, and it stays bounded by
    /// the lateness bound's report volume, not the campaign's — yet
    /// every duplicate is still absorbed, late-delivered ones included.
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
        assert!(
            outcome.stats.max_buffer_depth < outcome.stats.accepted / 2,
            "buffer bounded by the lateness bound, not the campaign: {} reports vs {} accepted",
            outcome.stats.max_buffer_depth,
            outcome.stats.accepted
        );
    }

    #[test]
    fn reordering_is_restored_within_horizon() {
        let sim = sim(300);
        let plan = FaultPlan::clean(3).with_reordering(0.5, 20);
        let (reports, stats) = emitted(feed(&sim, 300, plan));
        assert!(stats.reordered > 0, "late arrivals observed");
        assert!(strictly_rising(&reports), "order fully restored");
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
    fn obs_mirrors_stats_without_changing_the_run() {
        let sim = sim(300);
        let plan = FaultPlan::clean(8)
            .with_duplicates(0.3)
            .with_reordering(0.3, 15)
            .with_corruption(0.05);
        let plain = Collector::default().run(feed(&sim, 300, plan));
        let obs = Obs::new();
        let mut reports = 0;
        let (stats, quarantine) = Collector::default()
            .run_into(feed(&sim, 300, plan), &obs, |b| reports += b.len() as u64);
        assert_eq!(plain.stats, stats);
        assert_eq!(plain.quarantine, quarantine);
        assert_eq!(plain.store.report_count(), reports);
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
        // A disabled handle records nothing and changes nothing.
        let off = Obs::disabled();
        let (silent, _) = Collector::default().run_into(feed(&sim, 300, plan), &off, |_| {});
        assert_eq!(silent, plain.stats);
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

            /// Generated fault plans, lateness bounds of any size: the
            /// emitted keys rise strictly across all batches. A feed that
            /// loses nothing (no outages, no corruption) is emitted
            /// exactly as the clean feed sorted by key, with every
            /// duplicate absorbed; any other feed emits a subset of the
            /// clean feed's reports.
            #[test]
            fn generated_fault_plans_emit_a_strictly_rising_subset_of_the_clean_feed(
                seed in any::<u64>(),
                samples in 1u64..=300,
                duplicates in 0.0f64..0.5,
                reordering in 0.0f64..0.6,
                lateness in 1u32..=200,
                lossy in any::<bool>(),
                outages in 0.0f64..0.1,
                hard in 0.0f64..0.5,
                corruption in 0.0f64..0.05,
            ) {
                let sim = VirusTotalSim::new(SimConfig::new(seed, samples));
                let mut plan = FaultPlan::clean(seed ^ 0x9E37)
                    .with_duplicates(duplicates)
                    .with_reordering(reordering, lateness);
                if lossy {
                    plan = plan.with_outages(outages, hard).with_corruption(corruption);
                }
                let f = feed(&sim, samples, plan);
                let duplicated = f.duplicated_entries();
                let (reports, stats) = emitted(f);
                prop_assert!(strictly_rising(&reports), "emitted out of key order");
                prop_assert_eq!(reports.len() as u64, stats.accepted);

                let mut clean: Vec<ScanReport> =
                    vt_sim::TimeOrderedFeed::new(&sim, 0..samples).collect();
                clean.sort_by_key(report_key);
                if lossy {
                    let clean: BTreeMap<ReportKey, ScanReport> =
                        clean.into_iter().map(|r| (report_key(&r), r)).collect();
                    for r in &reports {
                        prop_assert_eq!(clean.get(&report_key(r)), Some(r));
                    }
                } else {
                    prop_assert_eq!(reports, clean);
                    prop_assert_eq!(stats.deduped, duplicated);
                }
            }
        }
    }
}
