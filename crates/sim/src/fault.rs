//! Chaos injection over the minute-polled collection feed.
//!
//! The paper's collector (§4.1) polls a premium endpoint once a minute
//! and ingests every report generated platform-wide in that minute. A
//! real 14-month collection campaign does not see a clean stream: the
//! endpoint has outages, retries deliver the same report twice, batches
//! arrive late and out of order, and payloads arrive damaged.
//! [`FaultyFeed`] reproduces that collection reality over the pristine
//! [`TimeOrderedFeed`](crate::feed::TimeOrderedFeed) stream so the
//! ingestion pipeline's fault handling can be tested end to end.
//!
//! Every fault is *seeded and deterministic*: each decision (is this
//! minute down, is this entry duplicated / delayed / corrupted) derives
//! from a hash of the [`FaultPlan`] seed and the decision's identity —
//! never from iteration order or wall-clock time. The same plan over
//! the same report stream produces the same faults, bit for bit,
//! regardless of how the consumer paces or retries its polls.
//!
//! Wire shape: entries carry the report as *encoded bytes* plus a
//! sender-side CRC-32 of those bytes, like a framed network payload.
//! Corruption flips bits in the payload *after* the checksum is
//! computed, so a receiver can always detect damage — exactly the
//! property the collector's quarantine path relies on.

use std::collections::BTreeMap;

use vt_model::hash::{mix64, mix64_from, unit_f64};
use vt_model::ScanReport;
use vt_store::codec::encode_report;
use vt_store::crc32::crc32;

use crate::platform::VirusTotalSim;

/// Decision-domain tags, so the per-minute and per-entry hash streams
/// never collide with each other.
const TAG_OUTAGE: u64 = 0xFA01;
const TAG_OUTAGE_HEAL: u64 = 0xFA02;
const TAG_DUP: u64 = 0xFA03;
const TAG_DELAY: u64 = 0xFA04;
const TAG_DELAY_SPAN: u64 = 0xFA05;
const TAG_CORRUPT: u64 = 0xFA06;
const TAG_CORRUPT_BIT: u64 = 0xFA07;

/// A seeded description of how the feed misbehaves.
///
/// Rates are probabilities in `[0, 1]`. [`FaultPlan::clean`] disables
/// everything; builder-style setters enable individual fault classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Probability that a polled minute is in outage.
    pub outage_rate: f64,
    /// Among outages, probability the minute never heals no matter how
    /// often it is retried (the collector must abandon it).
    pub hard_outage_rate: f64,
    /// Upper bound on the attempt index at which a transient outage
    /// heals: attempt `1 + hash % outage_heal_attempts` succeeds (0 is
    /// read as 1).
    pub outage_heal_attempts: u32,
    /// Probability an entry is delivered twice.
    pub duplicate_rate: f64,
    /// Probability an entry is delivered late (out of order).
    pub reorder_rate: f64,
    /// Maximum lateness, in minutes, of a reordered entry (the bound a
    /// receiver's reorder buffer must cover; 0 is read as 1).
    pub max_lateness: u32,
    /// Probability an entry's payload is corrupted in flight.
    pub corruption_rate: f64,
}

impl FaultPlan {
    /// A plan injecting no faults at all.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            outage_rate: 0.0,
            hard_outage_rate: 0.0,
            outage_heal_attempts: 3,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            max_lateness: 30,
            corruption_rate: 0.0,
        }
    }

    /// Enables minute outages: `rate` of minutes are down; `hard` of
    /// those never heal.
    pub fn with_outages(mut self, rate: f64, hard: f64) -> Self {
        self.outage_rate = rate;
        self.hard_outage_rate = hard;
        self
    }

    /// Enables duplicate delivery at `rate`.
    pub fn with_duplicates(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Enables bounded-lateness reordering: `rate` of entries arrive up
    /// to `max_lateness` minutes late.
    pub fn with_reordering(mut self, rate: f64, max_lateness: u32) -> Self {
        self.reorder_rate = rate;
        self.max_lateness = max_lateness.max(1);
        self
    }

    /// Enables payload corruption at `rate`.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corruption_rate = rate;
        self
    }

    fn chance(&self, tag: u64, identity: &[u64], rate: f64) -> bool {
        rate > 0.0 && unit_f64(self.draw(tag, identity)) < rate
    }

    /// `mix64` of `[seed, tag] ++ identity`.
    fn draw(&self, tag: u64, identity: &[u64]) -> u64 {
        mix64_from(mix64(&[self.seed, tag]), identity)
    }
}

/// One framed payload delivered by a poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedEntry {
    /// Minute the platform generated the report (delivery may be
    /// later, never earlier).
    pub generated_minute: i64,
    /// Sender-side CRC-32 of the *clean* encoded report, computed
    /// before any in-flight corruption.
    pub checksum: u32,
    /// The encoded report ([`vt_store::codec`] wire form, delta base
    /// 0), possibly damaged in flight.
    pub payload: Vec<u8>,
}

impl FeedEntry {
    /// True if the payload still matches its checksum.
    pub fn checksum_ok(&self) -> bool {
        crc32(&self.payload) == self.checksum
    }
}

/// A poll hit a feed outage; retry the same minute with a higher
/// attempt index (after backoff), or abandon it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedOutage {
    /// The minute whose poll failed.
    pub minute: i64,
    /// The attempt index that failed (0-based).
    pub attempt: u32,
}

impl std::fmt::Display for FeedOutage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "feed outage at minute {} (attempt {})",
            self.minute, self.attempt
        )
    }
}

impl std::error::Error for FeedOutage {}

/// The chaos-injected, minute-polled collection feed.
///
/// Consumers poll minute by minute ([`FaultyFeed::poll`]); a poll
/// either fails with [`FeedOutage`] or delivers every [`FeedEntry`]
/// scheduled for that minute and marks the minute consumed. The
/// schedule — which entries land in which minute, duplicated, delayed,
/// or damaged — is fixed at construction from the [`FaultPlan`] alone.
#[derive(Debug)]
pub struct FaultyFeed {
    plan: FaultPlan,
    /// Delivery minute → entries, in deterministic construction order.
    schedule: BTreeMap<i64, Vec<FeedEntry>>,
    scheduled_entries: u64,
    duplicated_entries: u64,
    delayed_entries: u64,
    corrupted_entries: u64,
}

impl FaultyFeed {
    /// Builds the feed over `reports` (any deterministic order; the
    /// schedule is keyed on report identity, not arrival order).
    pub fn new(reports: impl IntoIterator<Item = ScanReport>, plan: FaultPlan) -> Self {
        let mut feed = Self {
            plan,
            schedule: BTreeMap::new(),
            scheduled_entries: 0,
            duplicated_entries: 0,
            delayed_entries: 0,
            corrupted_entries: 0,
        };
        let mut buf = Vec::new();
        for report in reports {
            feed.schedule_report(&mut buf, &report);
        }
        feed
    }

    /// Builds the feed for a sample-ordinal range of the simulated
    /// platform (use `0..config.samples` for the whole platform).
    pub fn from_sim(sim: &VirusTotalSim, range: std::ops::Range<u64>, plan: FaultPlan) -> Self {
        Self::new(crate::feed::TimeOrderedFeed::new(sim, range), plan)
    }

    /// The identity words of one delivery of `report` (`copy` is 0 for
    /// the original, 1 for a duplicate).
    fn entry_identity(report: &ScanReport, copy: u64) -> [u64; 4] {
        [
            report.sample.0 as u64,
            report.analysis_date.0 as u64,
            report.kind as u64,
            copy,
        ]
    }

    /// Schedules the deliveries of `report`, encoding it into `buf` (a
    /// scratch buffer the caller reuses): each delivered entry's payload
    /// is the one allocation made.
    fn schedule_report(&mut self, buf: &mut Vec<u8>, report: &ScanReport) {
        buf.clear();
        encode_report(buf, report, 0);
        let checksum = crc32(buf);
        let generated_minute = report.analysis_date.0;

        let copies = if self.plan.chance(
            TAG_DUP,
            &Self::entry_identity(report, 0),
            self.plan.duplicate_rate,
        ) {
            self.duplicated_entries += 1;
            2
        } else {
            1
        };

        for copy in 0..copies {
            let identity = Self::entry_identity(report, copy);
            let delay = if self
                .plan
                .chance(TAG_DELAY, &identity, self.plan.reorder_rate)
            {
                self.delayed_entries += 1;
                1 + self.plan.draw(TAG_DELAY_SPAN, &identity) % self.plan.max_lateness.max(1) as u64
            } else {
                0
            };
            let mut payload = buf.to_vec();
            if self
                .plan
                .chance(TAG_CORRUPT, &identity, self.plan.corruption_rate)
            {
                let bit = self.plan.draw(TAG_CORRUPT_BIT, &identity) % (payload.len() as u64 * 8);
                payload[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.corrupted_entries += 1;
            }
            self.schedule
                .entry(generated_minute + delay as i64)
                .or_default()
                .push(FeedEntry {
                    generated_minute,
                    checksum,
                    payload,
                });
            self.scheduled_entries += 1;
        }
    }

    /// Earliest minute with undelivered entries.
    pub fn first_minute(&self) -> Option<i64> {
        self.schedule.keys().next().copied()
    }

    /// Latest minute with undelivered entries.
    pub fn last_minute(&self) -> Option<i64> {
        self.schedule.keys().next_back().copied()
    }

    /// True once every scheduled entry has been delivered or abandoned.
    pub fn is_drained(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Total entries scheduled at construction (originals + duplicates).
    pub fn scheduled_entries(&self) -> u64 {
        self.scheduled_entries
    }

    /// Entries that were scheduled twice.
    pub fn duplicated_entries(&self) -> u64 {
        self.duplicated_entries
    }

    /// Entries scheduled later than their generation minute.
    pub fn delayed_entries(&self) -> u64 {
        self.delayed_entries
    }

    /// Entries whose payload was damaged in flight.
    pub fn corrupted_entries(&self) -> u64 {
        self.corrupted_entries
    }

    /// True if `minute` is scheduled to be in outage for `attempt`.
    ///
    /// Outage status is a pure function of the plan, so the feed can be
    /// probed without consuming anything.
    pub fn outage_at(&self, minute: i64, attempt: u32) -> bool {
        if !self
            .plan
            .chance(TAG_OUTAGE, &[minute as u64], self.plan.outage_rate)
        {
            return false;
        }
        if self.plan.chance(
            TAG_OUTAGE_HEAL,
            &[minute as u64],
            self.plan.hard_outage_rate,
        ) {
            return true; // Hard outage: never heals.
        }
        let heals_at = 1 + self.plan.draw(TAG_OUTAGE_HEAL, &[minute as u64, 1])
            % self.plan.outage_heal_attempts.max(1) as u64;
        (attempt as u64) < heals_at
    }

    /// Polls one minute. On success, returns every entry scheduled for
    /// that minute (possibly none) and marks the minute delivered;
    /// failing polls consume nothing and can be retried with a higher
    /// `attempt`.
    pub fn poll(&mut self, minute: i64, attempt: u32) -> Result<Vec<FeedEntry>, FeedOutage> {
        if self.outage_at(minute, attempt) {
            return Err(FeedOutage { minute, attempt });
        }
        Ok(self.schedule.remove(&minute).unwrap_or_default())
    }

    /// Gives up on a minute (e.g. a hard outage after retries are
    /// exhausted), dropping whatever was scheduled there. Returns the
    /// number of entries lost.
    pub fn abandon(&mut self, minute: i64) -> usize {
        self.schedule.remove(&minute).map_or(0, |v| v.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use vt_store::codec::decode_report;

    fn sim() -> VirusTotalSim {
        VirusTotalSim::new(SimConfig::new(0xC0FFEE, 400))
    }

    fn drain(feed: &mut FaultyFeed) -> Vec<FeedEntry> {
        let mut out = Vec::new();
        while let Some(minute) = feed.first_minute() {
            let mut attempt = 0;
            loop {
                match feed.poll(minute, attempt) {
                    Ok(entries) => {
                        out.extend(entries);
                        break;
                    }
                    Err(_) if attempt < 16 => attempt += 1,
                    Err(_) => {
                        feed.abandon(minute);
                        break;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn clean_plan_is_the_identity() {
        let sim = sim();
        let direct: Vec<ScanReport> = crate::feed::TimeOrderedFeed::new(&sim, 0..400).collect();
        let mut feed = FaultyFeed::from_sim(&sim, 0..400, FaultPlan::clean(1));
        assert_eq!(feed.scheduled_entries(), direct.len() as u64);
        assert_eq!(feed.duplicated_entries(), 0);
        assert_eq!(feed.corrupted_entries(), 0);
        let entries = drain(&mut feed);
        assert!(feed.is_drained());
        let decoded: Vec<ScanReport> = entries
            .iter()
            .map(|e| {
                assert!(e.checksum_ok());
                decode_report(&mut &e.payload[..], 0)
                    .expect("clean payload decodes")
                    .0
            })
            .collect();
        assert_eq!(decoded, direct);
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let sim = sim();
        let plan = FaultPlan::clean(42)
            .with_duplicates(0.1)
            .with_reordering(0.2, 15)
            .with_corruption(0.05)
            .with_outages(0.02, 0.2);
        let a = drain(&mut FaultyFeed::from_sim(&sim, 0..400, plan));
        let b = drain(&mut FaultyFeed::from_sim(&sim, 0..400, plan));
        assert_eq!(a, b, "same plan, same chaos");
        let mut other = plan;
        other.seed = 43;
        let c = drain(&mut FaultyFeed::from_sim(&sim, 0..400, other));
        assert_ne!(a, c, "different seed, different chaos");
    }

    #[test]
    fn duplicates_add_exact_copies() {
        let sim = sim();
        let mut feed = FaultyFeed::from_sim(&sim, 0..400, FaultPlan::clean(7).with_duplicates(0.3));
        let dups = feed.duplicated_entries();
        assert!(
            dups > 0,
            "rate 0.3 over hundreds of reports should duplicate some"
        );
        assert_eq!(feed.scheduled_entries(), {
            let direct = crate::feed::TimeOrderedFeed::new(&sim, 0..400).count() as u64;
            direct + dups
        });
        let entries = drain(&mut feed);
        let mut by_key: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for e in &entries {
            *by_key.entry(e.checksum).or_default() += 1;
        }
        assert!(
            by_key.values().any(|&n| n >= 2),
            "some entry delivered twice"
        );
    }

    #[test]
    fn reordering_is_bounded_lateness() {
        let sim = sim();
        let mut feed =
            FaultyFeed::from_sim(&sim, 0..400, FaultPlan::clean(9).with_reordering(0.5, 20));
        assert!(feed.delayed_entries() > 0);
        let mut late_minutes = Vec::new();
        while let Some(minute) = feed.first_minute() {
            for e in feed.poll(minute, 0).expect("no outages planned") {
                assert!(minute >= e.generated_minute, "never early");
                assert!(
                    minute - e.generated_minute <= 20,
                    "lateness bounded by max_lateness"
                );
                if minute > e.generated_minute {
                    late_minutes.push(minute - e.generated_minute);
                }
            }
        }
        assert!(!late_minutes.is_empty());
    }

    #[test]
    fn corruption_is_always_detectable() {
        let sim = sim();
        let mut feed =
            FaultyFeed::from_sim(&sim, 0..400, FaultPlan::clean(11).with_corruption(0.2));
        let planned = feed.corrupted_entries();
        assert!(planned > 0);
        let entries = drain(&mut feed);
        let bad = entries.iter().filter(|e| !e.checksum_ok()).count() as u64;
        assert_eq!(bad, planned, "every corrupted payload fails its checksum");
    }

    #[test]
    fn outages_heal_or_stay_hard_deterministically() {
        let sim = sim();
        let plan = FaultPlan::clean(13).with_outages(0.3, 0.25);
        let feed = FaultyFeed::from_sim(&sim, 0..50, plan);
        let (mut transient, mut hard) = (0, 0);
        let first = feed.first_minute().unwrap();
        for minute in first..first + 2_000 {
            if !feed.outage_at(minute, 0) {
                continue;
            }
            // Status must be stable: probing twice gives the same answer.
            assert!(feed.outage_at(minute, 0));
            if (1..=plan.outage_heal_attempts).any(|a| !feed.outage_at(minute, a)) {
                transient += 1;
            } else {
                hard += 1;
            }
        }
        assert!(transient > 0, "some outages heal within the attempt bound");
        assert!(hard > 0, "some outages never heal");
    }

    #[test]
    fn a_literal_plan_with_zero_bounds_reads_them_as_one() {
        // A struct literal bypasses `with_reordering`'s clamp.
        let sim = sim();
        let zero = FaultPlan {
            outage_rate: 1.0,
            outage_heal_attempts: 0,
            reorder_rate: 1.0,
            max_lateness: 0,
            ..FaultPlan::clean(5)
        };
        let one = FaultPlan {
            outage_heal_attempts: 1,
            max_lateness: 1,
            ..zero
        };
        let mut feed = FaultyFeed::from_sim(&sim, 0..50, zero);
        assert!(feed.delayed_entries() > 0);
        let first = feed.first_minute().unwrap();
        assert!(feed.outage_at(first, 0));
        assert!(!feed.outage_at(first, 1), "heals at the first retry");
        let entries = drain(&mut feed);
        assert_eq!(entries, drain(&mut FaultyFeed::from_sim(&sim, 0..50, one)));
    }

    #[test]
    fn abandon_drops_exactly_that_minute() {
        let sim = sim();
        let mut feed = FaultyFeed::from_sim(&sim, 0..400, FaultPlan::clean(17));
        let total = feed.scheduled_entries();
        let first = feed.first_minute().unwrap();
        let lost = feed.abandon(first) as u64;
        assert!(lost > 0);
        let rest = drain(&mut feed).len() as u64;
        assert_eq!(rest + lost, total);
        assert_eq!(feed.abandon(first), 0, "abandoning twice is a no-op");
    }
}
