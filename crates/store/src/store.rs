//! The report store, one type per state: a [`StoreBuilder`] is appended
//! to, [`StoreBuilder::seal`] moves it into a [`ReportStore`], and a
//! `ReportStore` is only read.
//!
//! Reports append into their analysis-month's partition. Everything
//! read back is a fold over one row stream
//! ([`ReportStore::for_each_row`]): bulk consumers group by sample
//! themselves, and per-hash serving is `vt-dynamics`' `SampleIndex`,
//! not the store — it keeps no per-sample index. Grouping is one
//! function, [`group_reports`], whether the reports come out of a store
//! ([`ReportStore::group_by_sample`]) or never went into one (the serve
//! feeder groups a collector chunk's accepted reports directly).

use crate::block::{Block, ReportSink, SinkFn};
use crate::codec::ReportRow;
use crate::partition::{Partition, PartitionStats};
use std::collections::HashMap;
use std::time::Instant;
use vt_model::time::Month;
use vt_model::{SampleHash, ScanReport};
use vt_obs::{saturating_ns, Counter, Gauge, Histogram, Obs};

/// Why [`ReportStore::from_persisted`] rejected a partition layout.
///
/// These are *semantic* (layout-level) failures, distinct from the
/// byte-level corruption [`crate::persist::CorruptKind`] covers: the
/// container parsed, but its content is not a store this build can
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The file holds a different partition count than the expected
    /// 14-months-plus-catch-all shape.
    PartitionCount {
        /// Partitions this build expects.
        expected: usize,
        /// Partitions the file declared.
        got: usize,
    },
    /// A partition's month label does not match the collection-window
    /// order (catch-all last).
    PartitionMonthOrder {
        /// Index of the offending partition.
        partition: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::PartitionCount { expected, got } => {
                write!(
                    f,
                    "unexpected partition count: expected {expected}, got {got}"
                )
            }
            StoreError::PartitionMonthOrder { partition } => {
                write!(f, "partition {partition} is out of month order")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Pre-registered [`vt_obs`] handles the store records into.
///
/// Handles are resolved once at attach time (the only time the obs
/// registry mutex is taken); every recording afterwards is a relaxed
/// atomic. A `Default` instance (or one attached from a disabled
/// [`Obs`]) never reads the clock and records nothing, so an
/// uninstrumented store pays only a branch per batch, not per report.
///
/// Metric names: `store/encode_ns` + `store/encoded_reports` on the
/// append path, `store/decode_ns` + `store/decoded_reports` on the
/// read paths, and `store/sealed_bytes` / `store/sealed_blocks`
/// gauges set once at [`StoreBuilder::seal`]. Every report encode and
/// every block decode in the crate lands on them when handles are
/// attached — builders ([`StoreBuilder::with_obs`],
/// [`crate::SegmentWriter::with_obs`], [`crate::SegmentDir::with_obs`]),
/// [`ReportStore::for_each_row`] and the strict reader's one decode
/// ([`crate::persist::read_store_into`]) — so encodes and decodes per
/// report are countable per path (`tests/codec_budget.rs`).
#[derive(Debug, Clone, Default)]
pub struct StoreObs {
    enabled: bool,
    encode_ns: Histogram,
    encoded_reports: Counter,
    decode_ns: Histogram,
    decoded_reports: Counter,
    sealed_bytes: Gauge,
    sealed_blocks: Gauge,
}

impl StoreObs {
    /// Resolves the store's metric handles against `obs`. With a
    /// disabled registry this is `Default` — all handles no-ops.
    pub fn new(obs: &Obs) -> Self {
        if !obs.is_enabled() {
            return Self::default();
        }
        Self {
            enabled: true,
            encode_ns: obs.histogram("store/encode_ns"),
            encoded_reports: obs.counter("store/encoded_reports"),
            decode_ns: obs.histogram("store/decode_ns"),
            decoded_reports: obs.counter("store/decoded_reports"),
            sealed_bytes: obs.gauge("store/sealed_bytes"),
            sealed_blocks: obs.gauge("store/sealed_blocks"),
        }
    }

    /// Starts a timing measurement — `None` (no clock read) when
    /// disabled.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    #[inline]
    fn record_encode(&self, start: Option<Instant>, reports: u64) {
        if let Some(t) = start {
            self.encode_ns.observe(saturating_ns(t.elapsed()));
            self.encoded_reports.add(reports);
        }
    }

    #[inline]
    pub(crate) fn record_decode(&self, start: Option<Instant>, reports: u64) {
        if let Some(t) = start {
            self.decode_ns.observe(saturating_ns(t.elapsed()));
            self.decoded_reports.add(reports);
        }
    }
}

/// The append half of a store's life: owned, `&mut`, and consumed by
/// [`seal`](Self::seal) — the only way to obtain a [`ReportStore`]
/// other than loading one. Reports append into their analysis-month's
/// partition (out-of-window dates into the catch-all).
///
/// ```
/// use vt_store::{write_store, StoreBuilder};
///
/// let mut builder = StoreBuilder::new();
/// builder.append_batch(&[]);
/// let store = builder.seal();
/// assert!(store.group_by_sample().is_empty());
/// write_store(&store, &mut Vec::new()).expect("in-memory write");
/// ```
#[derive(Debug)]
pub struct StoreBuilder {
    /// Partition 0..14 = the collection window months; last = catch-all.
    partitions: Vec<Partition>,
    obs: StoreObs,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreBuilder {
    /// Creates an empty builder with one partition per
    /// collection-window month plus a catch-all for out-of-window
    /// reports.
    pub fn new() -> Self {
        let mut partitions: Vec<Partition> = Month::collection_window()
            .map(|m| Partition::new(Some(m)))
            .collect();
        partitions.push(Partition::new(None));
        Self {
            partitions,
            obs: StoreObs::default(),
        }
    }

    /// [`new`](Self::new), with encode/decode instrumentation recorded
    /// into `obs` (see [`StoreObs`] for the metric names) by the builder
    /// and by the store it seals into. Contents are identical to an
    /// uninstrumented store — the observability is write-only.
    pub fn with_obs(obs: &StoreObs) -> Self {
        let mut builder = Self::new();
        builder.obs = obs.clone();
        builder
    }

    /// Appends one report.
    pub fn append(&mut self, report: &ScanReport) {
        self.append_batch(std::slice::from_ref(report));
    }

    /// Appends a batch, in order.
    pub fn append_batch(&mut self, reports: &[ScanReport]) {
        let start = self.obs.timer();
        let catch_all = self.partitions.len() - 1;
        for report in reports {
            let pi = report
                .analysis_date
                .month()
                .collection_index()
                .unwrap_or(catch_all);
            self.partitions[pi].append(report);
        }
        self.obs.record_encode(start, reports.len() as u64);
    }

    /// Reports appended so far.
    pub(crate) fn report_count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Seals every partition's open block and hands the data over as a
    /// read-only [`ReportStore`]. The builder is consumed, so appending
    /// to a sealed store does not type-check:
    ///
    /// ```compile_fail,E0382
    /// use vt_store::StoreBuilder;
    ///
    /// let mut builder = StoreBuilder::new();
    /// let store = builder.seal();
    /// builder.append_batch(&[]); // error[E0382]: borrow of moved value
    /// ```
    pub fn seal(mut self) -> ReportStore {
        self.seal_partitions();
        ReportStore {
            partitions: self.partitions,
            obs: self.obs,
        }
    }

    /// Seals every partition's open block and sets the `store/sealed_*`
    /// gauges from the partitions' booked counts.
    fn seal_partitions(&mut self) {
        for p in &mut self.partitions {
            p.seal();
        }
        if self.obs.enabled {
            let mut bytes = 0u64;
            let mut blocks = 0u64;
            for p in &self.partitions {
                bytes += p.stats().stored_bytes;
                blocks += p.sealed_blocks();
            }
            self.obs.sealed_bytes.set_max(bytes);
            self.obs.sealed_blocks.set_max(blocks);
        }
    }
}

/// Table 2's accounting without the store: a [`StoreBuilder`] whose
/// sealed blocks are dropped as soon as their counts are booked, so it
/// holds at most one open block per partition however many reports
/// pass through. It appends exactly as the builder does — same
/// encodes, same `store/*` counters and gauges — and its only output
/// is the builder's [`ReportStore::partition_stats`], so a builder that
/// dropped blocks can never become a store.
///
/// ```
/// use vt_store::{StoreBuilder, StoreTally};
///
/// let tally = StoreTally::default();
/// assert_eq!(tally.partition_stats(), StoreBuilder::new().seal().partition_stats());
/// ```
#[derive(Debug, Default)]
pub struct StoreTally {
    builder: StoreBuilder,
}

impl StoreTally {
    /// An empty tally recording into `obs` as [`StoreBuilder::with_obs`]
    /// does.
    pub fn with_obs(obs: &StoreObs) -> Self {
        Self {
            builder: StoreBuilder::with_obs(obs),
        }
    }

    /// Appends a batch, in order, and drops any block it sealed.
    pub fn append_batch(&mut self, reports: &[ScanReport]) {
        self.builder.append_batch(reports);
        for p in &mut self.builder.partitions {
            p.drop_sealed();
        }
    }

    /// Seals the open blocks and returns the per-partition statistics,
    /// in window order (catch-all last): what the sealed store's
    /// [`ReportStore::partition_stats`] would have returned.
    pub fn partition_stats(mut self) -> Vec<PartitionStats> {
        self.builder.seal_partitions();
        self.builder.partitions.iter().map(|p| p.stats()).collect()
    }
}

/// A sealed, compressed, month-partitioned report store: immutable
/// data with read methods only. It comes from [`StoreBuilder::seal`] or
/// from a persisted file ([`from_persisted`](Self::from_persisted), via
/// the `read_*` functions), so reading or persisting something still
/// being appended to does not type-check:
///
/// ```compile_fail,E0599
/// use vt_store::StoreBuilder;
///
/// let builder = StoreBuilder::new();
/// builder.group_by_sample(); // error[E0599]: no such method on the builder
/// ```
///
/// ```compile_fail,E0308
/// use vt_store::{write_store, StoreBuilder};
///
/// let builder = StoreBuilder::new();
/// // error[E0308]: expected `&ReportStore`, found `&StoreBuilder`
/// write_store(&builder, &mut Vec::new()).expect("in-memory write");
/// ```
#[derive(Debug)]
pub struct ReportStore {
    /// Sealed partitions in window order, catch-all last.
    partitions: Vec<Partition>,
    obs: StoreObs,
}

impl ReportStore {
    /// Total number of reports stored.
    pub fn report_count(&self) -> u64 {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Number of distinct samples. O(store), like
    /// [`sample_hashes`](Self::sample_hashes), whose length it is.
    pub fn sample_count(&self) -> u64 {
        self.sample_hashes().len() as u64
    }

    /// Every distinct sample hash in the store, sorted ascending: one
    /// scan of the row stream keeping the hash column only.
    pub fn sample_hashes(&self) -> Vec<SampleHash> {
        let mut hashes = Vec::with_capacity(self.report_count() as usize);
        self.for_each_row(&mut SinkFn(|row: &ReportRow| hashes.push(row.sample)));
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    }

    /// Per-partition statistics, in window order (catch-all last).
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.partitions.iter().map(|p| p.stats()).collect()
    }

    /// Gathers one sample's reports, sorted by analysis date (equal
    /// dates in append order).
    ///
    /// O(store): a filter over the whole row stream — the store keeps
    /// no per-sample index. It is what tests use to compare a store
    /// against its input; bulk readers take
    /// [`group_by_sample`](Self::group_by_sample) or
    /// [`for_each_row`](Self::for_each_row) instead.
    pub fn sample_reports(&self, hash: SampleHash) -> Vec<ScanReport> {
        let mut out = Vec::new();
        self.for_each_row(&mut SinkFn(|row: &ReportRow| {
            if row.sample == hash {
                out.push(row.to_report());
            }
        }));
        out.sort_by_key(|r| r.analysis_date);
        out
    }

    /// Iterates all reports grouped by sample, each group sorted by
    /// analysis date. Materializes the grouping (bulk-analysis path).
    pub fn group_by_sample(&self) -> Vec<(SampleHash, Vec<ScanReport>)> {
        let mut rows: Vec<ScanReport> = Vec::with_capacity(self.report_count() as usize);
        self.for_each_row(&mut rows);
        group_reports(rows)
    }

    /// The sealed partitions, in window order (catch-all last) — what
    /// [`crate::persist::write_store`] walks.
    pub(crate) fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Rebuilds a sealed store from persisted partitions, its reads
    /// recording into `obs` (the handles the strict reader counted its
    /// own decode with). Returns a typed [`StoreError`] if the partition
    /// layout is not the expected 14-months-plus-catch-all shape.
    pub fn from_persisted(
        parts: Vec<(Option<Month>, Vec<Block>)>,
        obs: StoreObs,
    ) -> Result<Self, StoreError> {
        let expected: Vec<Option<Month>> = Month::collection_window()
            .map(Some)
            .chain(std::iter::once(None))
            .collect();
        if parts.len() != expected.len() {
            return Err(StoreError::PartitionCount {
                expected: expected.len(),
                got: parts.len(),
            });
        }
        let mut partitions = Vec::with_capacity(parts.len());
        for (pi, ((month, blocks), want)) in parts.into_iter().zip(expected).enumerate() {
            if month != want {
                return Err(StoreError::PartitionMonthOrder { partition: pi });
            }
            partitions.push(Partition::from_blocks(month, blocks));
        }
        Ok(Self { partitions, obs })
    }

    /// Streams every stored row into `sink` in physical order —
    /// partitions in window order (catch-all last), blocks in append
    /// order, offsets ascending — without materializing [`ScanReport`]s.
    /// This is the zero-copy bulk-decode entry the columnar table build
    /// consumes, and the one row stream every other read method is a
    /// fold over; the ordering is part of the contract (arrival order
    /// is the tie-break key for equal-date reports).
    pub fn for_each_row(&self, sink: &mut impl ReportSink) {
        let start = self.obs.timer();
        let mut decoded = 0u64;
        // Blocks here were either built by a `StoreBuilder` or
        // integrity-checked at load time, so a decode failure is a
        // program error, not an input error.
        for p in &self.partitions {
            for block in p.blocks() {
                decoded += block
                    .decode_into(sink)
                    .expect("sealed in-store block decodes") as u64;
            }
        }
        self.obs.record_decode(start, decoded);
    }
}

/// Groups reports by sample: ascending hash order, each group sorted by
/// analysis date with equal dates in arrival order (a stable sort).
///
/// The one grouping in the crate. A sealed segment's bytes are a
/// function of the order samples are pushed in, so the store's bulk
/// read ([`ReportStore::group_by_sample`]) and the serve feeder — which
/// groups a collector chunk's accepted reports without a store — must
/// agree to the report; they do by calling this.
pub fn group_reports(reports: Vec<ScanReport>) -> Vec<(SampleHash, Vec<ScanReport>)> {
    // Sized for one sample per report: an upper bound, and most samples
    // of a VT feed are scanned once.
    let mut groups: HashMap<SampleHash, Vec<ScanReport>> = HashMap::with_capacity(reports.len());
    for report in reports {
        groups.entry(report.sample).or_default().push(report);
    }
    let mut out: Vec<(SampleHash, Vec<ScanReport>)> = groups.into_iter().collect();
    for (_, reports) in &mut out {
        reports.sort_by_key(|r| r.analysis_date);
    }
    // Deterministic order for reproducible analyses.
    out.sort_by_key(|(h, _)| *h);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{FileType, ReportKind, VerdictVec};

    fn report(sample: u64, date: Date, minute: i64) -> ScanReport {
        ScanReport {
            sample: SampleHash::from_ordinal(sample),
            file_type: FileType::Pdf,
            analysis_date: Timestamp::from_date_time(date, minute),
            last_submission_date: Timestamp::from_date(date),
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::new(70),
        }
    }

    #[test]
    fn append_and_gather() {
        let mut store = StoreBuilder::new();
        store.append(&report(1, Date::new(2021, 6, 3), 10));
        store.append(&report(2, Date::new(2021, 6, 4), 10));
        store.append(&report(1, Date::new(2022, 1, 9), 10));
        store.append(&report(1, Date::new(2021, 5, 2), 10));
        let store = store.seal();

        assert_eq!(store.report_count(), 4);
        assert_eq!(store.sample_count(), 2);
        let r1 = store.sample_reports(SampleHash::from_ordinal(1));
        assert_eq!(r1.len(), 3);
        // Sorted by time even though appended out of order.
        assert!(r1[0].analysis_date < r1[1].analysis_date);
        assert!(r1[1].analysis_date < r1[2].analysis_date);
        assert!(store
            .sample_reports(SampleHash::from_ordinal(99))
            .is_empty());
    }

    #[test]
    fn reports_land_in_their_month() {
        let mut store = StoreBuilder::new();
        store.append(&report(1, Date::new(2021, 5, 15), 0)); // month 0
        store.append(&report(2, Date::new(2022, 6, 15), 0)); // month 13
        store.append(&report(3, Date::new(2020, 1, 1), 0)); // catch-all
        let store = store.seal();
        let stats = store.partition_stats();
        assert_eq!(stats.len(), 15);
        assert_eq!(stats[0].reports, 1);
        assert_eq!(stats[13].reports, 1);
        assert_eq!(stats[14].reports, 1);
        assert_eq!(stats[14].month, None);
        assert_eq!(stats[1].reports, 0);
    }

    #[test]
    fn group_by_sample_covers_everything() {
        let mut store = StoreBuilder::new();
        for i in 0..500u64 {
            store.append(&report(
                i % 50,
                Date::new(2021, 8, 1 + (i % 20) as u8),
                i as i64 % 1440,
            ));
        }
        let store = store.seal();
        let groups = store.group_by_sample();
        assert_eq!(groups.len(), 50);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 500);
        for (hash, reports) in &groups {
            for w in reports.windows(2) {
                assert!(w[0].analysis_date <= w[1].analysis_date);
            }
            for r in reports {
                assert_eq!(r.sample, *hash);
            }
        }
        // Deterministic ordering.
        let again = store.group_by_sample();
        assert_eq!(groups.len(), again.len());
        assert!(groups.iter().zip(&again).all(|(a, b)| a.0 == b.0));
    }

    #[test]
    fn obs_records_encode_and_decode_without_changing_content() {
        let obs = Obs::new();
        let mut store = StoreBuilder::with_obs(&StoreObs::new(&obs));
        let mut plain = StoreBuilder::new();
        for i in 0..40u64 {
            let r = report(i % 8, Date::new(2021, 7, 1 + (i % 20) as u8), i as i64);
            store.append(&r);
            plain.append(&r);
        }
        let store = store.seal();
        let plain = plain.seal();
        // Instrumentation is write-only: contents are identical.
        assert_eq!(store.group_by_sample(), plain.group_by_sample());
        let m = obs.snapshot();
        assert_eq!(m.counter("store/encoded_reports"), Some(40));
        assert_eq!(m.counter("store/decoded_reports"), Some(40));
        assert_eq!(m.histogram("store/encode_ns").map(|h| h.count), Some(40));
        assert_eq!(m.histogram("store/decode_ns").map(|h| h.count), Some(1));
        assert!(m.gauge("store/sealed_bytes").unwrap_or(0) > 0);
        assert!(m.gauge("store/sealed_blocks").unwrap_or(0) >= 1);
        // A disabled registry records nothing.
        let off = Obs::disabled();
        let mut silent = StoreBuilder::with_obs(&StoreObs::new(&off));
        silent.append(&report(1, Date::new(2021, 6, 3), 10));
        silent.seal();
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn from_persisted_rejects_a_wrong_partition_count() {
        let err =
            ReportStore::from_persisted(vec![(None, Vec::new())], StoreObs::default()).unwrap_err();
        assert_eq!(
            err,
            StoreError::PartitionCount {
                expected: 15,
                got: 1
            }
        );
        assert!(err.to_string().contains("partition count"));
    }

    mod props {
        use super::*;
        use crate::block::BLOCK_CAPACITY;
        use crate::persist::tests::reference_read_store;
        use crate::persist::{read_store, read_store_into, write_store, CorruptKind};
        use proptest::prelude::*;

        /// `(hash ordinal, day slot, minute)` → a report. Twelve hashes,
        /// so trajectories interleave; day slots 25 days apart from
        /// 2021-01-01, so slots 0–4 fall before the collection window
        /// and 22–23 after it (both catch-all); two minutes, so equal
        /// dates are common. `times_submitted` carries the input
        /// position, which is what tells tied rows apart.
        fn row(position: usize, (sample, slot, minute): (u64, i64, i64)) -> ScanReport {
            let date = Timestamp((slot * 25) * 1440 + minute);
            ScanReport {
                sample: SampleHash::from_ordinal(sample),
                file_type: FileType::Pdf,
                analysis_date: date,
                last_submission_date: date,
                times_submitted: position as u32,
                kind: ReportKind::Upload,
                verdicts: VerdictVec::new(70),
            }
        }

        fn rows_of(store: &ReportStore) -> Vec<ScanReport> {
            let mut rows = Vec::new();
            store.for_each_row(&mut rows);
            rows
        }

        proptest! {
            // 24 cases, about one in six with a rolled block: the crate's
            // tests also run under Miri (ci.yml), where a row costs ~100×.
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// builder → `seal` → `write_store` → `read_store` loses and
            /// reorders nothing, and every read method agrees with the
            /// input it was built from. The streaming strict read hands
            /// its sink the rows `for_each_row` delivers from the store
            /// it returns; and on a damaged file — every bit of every
            /// probed byte flipped, every probed length cut — it fails
            /// exactly as the reader that verified and discarded did,
            /// its sink holding a prefix of the clean rows.
            #[test]
            fn built_and_reloaded_stores_agree_with_their_input(
                batches in proptest::collection::vec(
                    proptest::collection::vec((0u64..12, 0i64..24, 0i64..2), 0..40),
                    0..6,
                ),
                roll in 0u8..6,
            ) {
                let mut input = Vec::new();
                let mut builder = StoreBuilder::new();
                for batch in &batches {
                    let from = input.len();
                    input.extend(batch.iter().enumerate().map(|(i, &r)| row(from + i, r)));
                    builder.append_batch(&input[from..]);
                }
                if roll == 0 {
                    // One month past a block's capacity: a block rolls.
                    for i in 0..BLOCK_CAPACITY as u64 + 3 {
                        input.push(row(input.len(), (i % 12, 8, (i % 2) as i64)));
                        builder.append(&input[input.len() - 1]);
                    }
                }
                let built = builder.seal();
                let mut bytes = Vec::new();
                write_store(&built, &mut bytes).expect("write");
                let loaded = read_store(&mut bytes.as_slice()).expect("read");

                prop_assert_eq!(rows_of(&loaded), rows_of(&built));
                prop_assert_eq!(loaded.partition_stats(), built.partition_stats());
                prop_assert_eq!(built.report_count(), input.len() as u64);
                let mut rewritten = Vec::new();
                write_store(&loaded, &mut rewritten).expect("rewrite");
                prop_assert_eq!(&rewritten, &bytes);

                let mut streamed: Vec<ScanReport> = Vec::new();
                read_store_into(&mut bytes.as_slice(), &mut streamed, &StoreObs::default())
                    .expect("streaming read");
                prop_assert_eq!(&streamed, &rows_of(&loaded));
                // Every byte of a small file; 64 of a larger one (a
                // rolled block is ~30 KB), 8 under Miri, which pays
                // ~100× per decoded row.
                let stride = match bytes.len() {
                    len if cfg!(miri) => len / 8,
                    len if len <= 1024 => 1,
                    len => len / 64,
                };
                for site in (0..bytes.len()).step_by(stride) {
                    let mut damaged: Vec<Vec<u8>> = (0..8)
                        .map(|bit| {
                            let mut flipped = bytes.clone();
                            flipped[site] ^= 1 << bit;
                            flipped
                        })
                        .collect();
                    damaged.push(bytes[..site].to_vec());
                    for file in damaged {
                        let mut seen: Vec<ScanReport> = Vec::new();
                        let got = read_store_into(
                            &mut file.as_slice(),
                            &mut seen,
                            &StoreObs::default(),
                        );
                        // The old reader stopped at the last declared
                        // partition: a flip that shrinks the last block
                        // count loaded a shorter store without a word.
                        let mut rest = file.as_slice();
                        let want = reference_read_store(&mut rest).and_then(|store| {
                            if rest.is_empty() {
                                Ok(store)
                            } else {
                                Err(CorruptKind::TrailingBytes.into())
                            }
                        });
                        prop_assert_eq!(
                            got.map(|s| s.report_count()).map_err(|e| e.to_string()),
                            want.map(|s| s.report_count()).map_err(|e| e.to_string()),
                            "site {}",
                            site
                        );
                        prop_assert!(seen.len() <= streamed.len());
                        prop_assert_eq!(&seen[..], &streamed[..seen.len()]);
                    }
                }

                let mut hashes: Vec<SampleHash> = input.iter().map(|r| r.sample).collect();
                hashes.sort_unstable();
                hashes.dedup();
                for store in [&built, &loaded] {
                    prop_assert_eq!(store.sample_hashes(), hashes.clone());
                    prop_assert_eq!(store.sample_count(), hashes.len() as u64);
                    for &hash in &hashes {
                        let mut want: Vec<ScanReport> =
                            input.iter().filter(|r| r.sample == hash).copied().collect();
                        want.sort_by_key(|r| r.analysis_date);
                        prop_assert_eq!(store.sample_reports(hash), want);
                    }
                }
            }
        }

        proptest! {
            // Each case encodes three to six blocks' worth of reports
            // twice; Miri pays ~100× a report.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 16 }))]

            /// A tally's stats are the sealed store's, whatever it
            /// dropped: three partitions — two window months and the
            /// catch-all — each cross a block's capacity one to two
            /// times, interleaved with random rows in batches of random
            /// length.
            #[test]
            fn a_tally_books_what_a_kept_store_seals(
                noise in proptest::collection::vec((0u64..12, 0i64..24, 0i64..2), 0..60),
                months in (0usize..14, 1usize..14, 0usize..7),
                over in (0usize..BLOCK_CAPACITY, 0usize..BLOCK_CAPACITY, 0usize..BLOCK_CAPACITY),
                batch in 1usize..700,
            ) {
                let window: Vec<Month> = Month::collection_window().collect();
                let (first, step, outside) = months;
                let starts = [
                    window[first].start().0,
                    window[(first + step) % 14].start().0,
                    // Slots 0–4 and 22–23 fall outside the window.
                    [0, 1, 2, 3, 4, 22, 23][outside] * 25 * 1440,
                ];
                let mut input: Vec<ScanReport> =
                    noise.iter().enumerate().map(|(i, &r)| row(i, r)).collect();
                for (start, over) in starts.into_iter().zip([over.0, over.1, over.2]) {
                    for i in 0..(BLOCK_CAPACITY + over) as u64 {
                        let mut r = row(input.len(), (i % 12, 0, (i % 2) as i64));
                        r.analysis_date = Timestamp(start + r.analysis_date.0);
                        input.insert((i as usize * 7919) % (input.len() + 1), r);
                    }
                }
                let obs = Obs::new();
                let mut tally = StoreTally::with_obs(&StoreObs::new(&obs));
                let mut builder = StoreBuilder::new();
                for part in input.chunks(batch) {
                    tally.append_batch(part);
                    builder.append_batch(part);
                }
                let store = builder.seal();
                prop_assert!(store.partitions().iter().filter(|p| p.blocks().len() > 1).count() >= 3);
                prop_assert!(store.partition_stats()[14].reports > BLOCK_CAPACITY as u64);
                prop_assert_eq!(tally.partition_stats(), store.partition_stats());
                let m = obs.snapshot();
                prop_assert_eq!(m.counter("store/encoded_reports"), Some(input.len() as u64));
                let blocks: usize = store.partitions().iter().map(|p| p.blocks().len()).sum();
                prop_assert_eq!(m.gauge("store/sealed_blocks"), Some(blocks as u64));
            }
        }
    }
}
