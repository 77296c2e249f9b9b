//! The report store: append path, per-sample index, iteration.
//!
//! Reports append into their analysis-month's partition; a per-sample
//! index records every report's location so per-sample trajectories can
//! be gathered later (the unit every analysis consumes). The paper's
//! pipeline does the same thing with MongoDB collections keyed by
//! sample hash.

use crate::block::{Block, ReportSink, SinkFn};
use crate::codec::ReportRow;
use crate::partition::{Loc, Partition, PartitionStats};
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// A block failed to decode while re-deriving the per-sample index.
    BlockDecode {
        /// Partition holding the block.
        partition: usize,
        /// Block index within the partition.
        block: usize,
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
            StoreError::BlockDecode { partition, block } => {
                write!(f, "block {block} of partition {partition} failed to decode")
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
/// gather/iterate paths, and `store/sealed_bytes` / `store/sealed_blocks`
/// gauges set once at [`ReportStore::seal`].
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
    fn timer(&self) -> Option<Instant> {
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
    fn record_decode(&self, start: Option<Instant>, reports: u64) {
        if let Some(t) = start {
            self.decode_ns.observe(saturating_ns(t.elapsed()));
            self.decoded_reports.add(reports);
        }
    }
}

/// An in-process, compressed, month-partitioned report store.
#[derive(Debug)]
pub struct ReportStore {
    inner: RwLock<Inner>,
    obs: StoreObs,
}

#[derive(Debug)]
struct Inner {
    /// Partition 0..14 = the collection window months; last = catch-all.
    partitions: Vec<Partition>,
    index: HashMap<SampleHash, Vec<Loc>>,
    sealed: bool,
}

impl Default for ReportStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportStore {
    /// Creates an empty store with one partition per collection-window
    /// month plus a catch-all for out-of-window reports.
    pub fn new() -> Self {
        let mut partitions: Vec<Partition> = Month::collection_window()
            .map(|m| Partition::new(Some(m)))
            .collect();
        partitions.push(Partition::new(None));
        Self {
            inner: RwLock::new(Inner {
                partitions,
                index: HashMap::new(),
                sealed: false,
            }),
            obs: StoreObs::default(),
        }
    }

    /// [`new`](Self::new), with encode/decode instrumentation recorded
    /// into `obs` (see [`StoreObs`] for the metric names). Contents are
    /// identical to an uninstrumented store — the observability is
    /// write-only.
    pub fn with_obs(obs: &Obs) -> Self {
        let mut store = Self::new();
        store.obs = StoreObs::new(obs);
        store
    }

    /// Attaches (or replaces) the store's instrumentation after
    /// construction — the hook for stores built by
    /// [`from_persisted`](Self::from_persisted) / the persist readers,
    /// which have no `Obs` in scope.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = StoreObs::new(obs);
    }

    /// Shared access. Poison is ignored: the panics raised under a guard
    /// are the misuse asserts (append after seal, read before seal),
    /// which fire before anything is mutated, so a poisoned store is
    /// still whole.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access; poison is ignored as in [`read`](Self::read).
    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn partition_for(month_index: Option<usize>, n: usize) -> usize {
        month_index.unwrap_or(n - 1)
    }

    /// Appends one report.
    ///
    /// # Panics
    /// Panics if the store was already sealed.
    pub fn append(&self, report: &ScanReport) {
        let start = self.obs.timer();
        let mut inner = self.write();
        assert!(!inner.sealed, "append after seal");
        let n = inner.partitions.len();
        let pi = Self::partition_for(report.analysis_date.month().collection_index(), n);
        let (block, offset) = inner.partitions[pi].append(report);
        inner.index.entry(report.sample).or_default().push(Loc {
            partition: pi as u16,
            block,
            offset,
        });
        drop(inner);
        self.obs.record_encode(start, 1);
    }

    /// Appends a batch (one lock acquisition).
    pub fn append_batch(&self, reports: &[ScanReport]) {
        let start = self.obs.timer();
        let mut inner = self.write();
        assert!(!inner.sealed, "append after seal");
        let n = inner.partitions.len();
        for report in reports {
            let pi = Self::partition_for(report.analysis_date.month().collection_index(), n);
            let (block, offset) = inner.partitions[pi].append(report);
            inner.index.entry(report.sample).or_default().push(Loc {
                partition: pi as u16,
                block,
                offset,
            });
        }
        drop(inner);
        self.obs.record_encode(start, reports.len() as u64);
    }

    /// Seals every partition. Must be called before reads; afterwards
    /// appends panic.
    pub fn seal(&self) {
        let mut inner = self.write();
        for p in &mut inner.partitions {
            p.seal();
        }
        inner.sealed = true;
        if self.obs.enabled {
            let mut bytes = 0u64;
            let mut blocks = 0u64;
            for p in &inner.partitions {
                bytes += p.stats().stored_bytes;
                blocks += p.blocks().len() as u64;
            }
            self.obs.sealed_bytes.set_max(bytes);
            self.obs.sealed_blocks.set_max(blocks);
        }
    }

    /// Total number of reports stored.
    pub fn report_count(&self) -> u64 {
        self.read().partitions.iter().map(|p| p.len()).sum()
    }

    /// Number of distinct samples.
    pub fn sample_count(&self) -> u64 {
        self.read().index.len() as u64
    }

    /// Every distinct sample hash in the store, sorted ascending.
    ///
    /// Reads the per-sample index only — no block is decoded — so this
    /// is how a recovering daemon cheaply learns which samples a sealed
    /// segment already covers.
    pub fn sample_hashes(&self) -> Vec<SampleHash> {
        let mut hashes: Vec<SampleHash> = self.read().index.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Per-partition statistics, in window order (catch-all last).
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.read().partitions.iter().map(|p| p.stats()).collect()
    }

    /// Gathers one sample's reports, sorted by analysis date.
    ///
    /// # Panics
    /// Panics if the store is not sealed.
    pub fn sample_reports(&self, hash: SampleHash) -> Vec<ScanReport> {
        let start = self.obs.timer();
        let inner = self.read();
        assert!(inner.sealed, "seal the store before reading");
        let Some(locs) = inner.index.get(&hash) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(locs.len());
        let mut decoded = 0u64;
        // Decode each needed block once. Blocks reachable here were
        // either built by this store or integrity-checked at load time,
        // so a decode failure is a program error, not an input error.
        let mut cache: HashMap<(u16, u32), Vec<ScanReport>> = HashMap::new();
        for loc in locs {
            let block_reports = cache.entry((loc.partition, loc.block)).or_insert_with(|| {
                let reports = inner.partitions[loc.partition as usize].blocks()[loc.block as usize]
                    .decode_all()
                    .expect("sealed in-store block decodes");
                decoded += reports.len() as u64;
                reports
            });
            out.push(block_reports[loc.offset as usize]);
        }
        out.sort_by_key(|r| r.analysis_date);
        self.obs.record_decode(start, decoded);
        out
    }

    /// Iterates all reports grouped by sample, each group sorted by
    /// analysis date. Materializes the grouping (bulk-analysis path).
    ///
    /// # Panics
    /// Panics if the store is not sealed.
    pub fn group_by_sample(&self) -> Vec<(SampleHash, Vec<ScanReport>)> {
        let start = self.obs.timer();
        let inner = self.read();
        assert!(inner.sealed, "seal the store before reading");
        let mut groups: HashMap<SampleHash, Vec<ScanReport>> =
            HashMap::with_capacity(inner.index.len());
        let mut decoded = 0u64;
        for p in &inner.partitions {
            for block in p.blocks() {
                block
                    .decode_into(&mut SinkFn(|row: &ReportRow| {
                        decoded += 1;
                        groups.entry(row.sample).or_default().push(row.to_report());
                    }))
                    .expect("sealed in-store block decodes");
            }
        }
        self.obs.record_decode(start, decoded);
        let mut out: Vec<(SampleHash, Vec<ScanReport>)> = groups.into_iter().collect();
        for (_, reports) in &mut out {
            reports.sort_by_key(|r| r.analysis_date);
        }
        // Deterministic order for reproducible analyses.
        out.sort_by_key(|(h, _)| *h);
        out
    }

    /// Snapshot of the sealed partitions for persistence:
    /// `(month, blocks)` per partition.
    ///
    /// # Panics
    /// Panics if the store is not sealed.
    pub fn partitions_for_persist(&self) -> Vec<(Option<Month>, Vec<Block>)> {
        let inner = self.read();
        assert!(inner.sealed, "seal the store before persisting");
        inner
            .partitions
            .iter()
            .map(|p| (p.month(), p.blocks().to_vec()))
            .collect()
    }

    /// Rebuilds a sealed store from persisted partitions, re-deriving
    /// the per-sample index by decoding each block once. Returns a
    /// typed [`StoreError`] if the partition layout is not the expected
    /// 14-months-plus-catch-all shape.
    pub fn from_persisted(parts: Vec<(Option<Month>, Vec<Block>)>) -> Result<Self, StoreError> {
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
        let mut index: HashMap<SampleHash, Vec<Loc>> = HashMap::new();
        for (pi, ((month, blocks), want)) in parts.into_iter().zip(expected).enumerate() {
            if month != want {
                return Err(StoreError::PartitionMonthOrder { partition: pi });
            }
            for (bi, block) in blocks.iter().enumerate() {
                // Only the sample hash is needed to rebuild the index —
                // stream the rows instead of materializing the reports.
                let mut off = 0u32;
                block
                    .decode_into(&mut SinkFn(|row: &ReportRow| {
                        index.entry(row.sample).or_default().push(Loc {
                            partition: pi as u16,
                            block: bi as u32,
                            offset: off,
                        });
                        off += 1;
                    }))
                    .map_err(|_| StoreError::BlockDecode {
                        partition: pi,
                        block: bi,
                    })?;
            }
            partitions.push(Partition::from_blocks(month, blocks));
        }
        Ok(Self {
            inner: RwLock::new(Inner {
                partitions,
                index,
                sealed: true,
            }),
            obs: StoreObs::default(),
        })
    }

    /// Visits every stored report (unordered across samples).
    ///
    /// Materializing adapter over [`for_each_row`](Self::for_each_row):
    /// one stack-local [`ScanReport`] per row, never a `Vec`.
    pub fn for_each_report(&self, mut f: impl FnMut(&ScanReport)) {
        self.for_each_row(&mut SinkFn(|row: &ReportRow| f(&row.to_report())));
    }

    /// Streams every stored row into `sink` in physical order —
    /// partitions in window order (catch-all last), blocks in append
    /// order, offsets ascending — without materializing [`ScanReport`]s.
    /// This is the zero-copy bulk-decode entry the columnar table build
    /// consumes; the ordering is part of the contract (arrival order is
    /// the tie-break key for equal-date reports).
    ///
    /// # Panics
    /// Panics if the store is not sealed.
    pub fn for_each_row(&self, sink: &mut impl ReportSink) {
        let start = self.obs.timer();
        let inner = self.read();
        assert!(inner.sealed, "seal the store before reading");
        let mut decoded = 0u64;
        for p in &inner.partitions {
            for block in p.blocks() {
                decoded += block
                    .decode_into(sink)
                    .expect("sealed in-store block decodes") as u64;
            }
        }
        self.obs.record_decode(start, decoded);
    }
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
        let store = ReportStore::new();
        store.append(&report(1, Date::new(2021, 6, 3), 10));
        store.append(&report(2, Date::new(2021, 6, 4), 10));
        store.append(&report(1, Date::new(2022, 1, 9), 10));
        store.append(&report(1, Date::new(2021, 5, 2), 10));
        store.seal();

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
        let store = ReportStore::new();
        store.append(&report(1, Date::new(2021, 5, 15), 0)); // month 0
        store.append(&report(2, Date::new(2022, 6, 15), 0)); // month 13
        store.append(&report(3, Date::new(2020, 1, 1), 0)); // catch-all
        store.seal();
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
        let store = ReportStore::new();
        for i in 0..500u64 {
            store.append(&report(
                i % 50,
                Date::new(2021, 8, 1 + (i % 20) as u8),
                i as i64 % 1440,
            ));
        }
        store.seal();
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
    #[should_panic(expected = "append after seal")]
    fn append_after_seal_panics() {
        let store = ReportStore::new();
        store.seal();
        store.append(&report(1, Date::new(2021, 6, 1), 0));
    }

    #[test]
    #[should_panic(expected = "seal the store")]
    fn read_before_seal_panics() {
        let store = ReportStore::new();
        store.append(&report(1, Date::new(2021, 6, 1), 0));
        store.sample_reports(SampleHash::from_ordinal(1));
    }

    #[test]
    fn obs_records_encode_and_decode_without_changing_content() {
        let obs = Obs::new();
        let store = ReportStore::with_obs(&obs);
        let plain = ReportStore::new();
        for i in 0..40u64 {
            let r = report(i % 8, Date::new(2021, 7, 1 + (i % 20) as u8), i as i64);
            store.append(&r);
            plain.append(&r);
        }
        store.seal();
        plain.seal();
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
        let silent = ReportStore::with_obs(&off);
        silent.append(&report(1, Date::new(2021, 6, 3), 10));
        silent.seal();
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn from_persisted_rejects_a_wrong_partition_count() {
        let err = ReportStore::from_persisted(vec![(None, Vec::new())]).unwrap_err();
        assert_eq!(
            err,
            StoreError::PartitionCount {
                expected: 15,
                got: 1
            }
        );
        assert!(err.to_string().contains("partition count"));
    }

    #[test]
    fn for_each_report_counts() {
        let store = ReportStore::new();
        for i in 0..37 {
            store.append(&report(i, Date::new(2021, 9, 9), i as i64));
        }
        store.seal();
        let mut n = 0;
        store.for_each_report(|_| n += 1);
        assert_eq!(n, 37);
    }
}
