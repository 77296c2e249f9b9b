//! Monthly partitions with raw/compressed accounting.
//!
//! Table 2 of the paper reports, per calendar month of the collection
//! window, the number of reports and their stored size; §4.1 reports a
//! 10.06× compression rate from field pruning + compression. Each
//! partition (crate-private; [`PartitionStats`] is what leaves the
//! crate) owns the blocks for one month and tracks both the naive row
//! size and the encoded size, so the harness can print the same
//! accounting for simulated data.

use crate::block::{Block, BlockBuilder};
use crate::codec::RAW_REPORT_BYTES;
use vt_model::time::Month;
use vt_model::ScanReport;

/// Summary statistics of one partition (one Table 2 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// The calendar month (or `None` for the catch-all partition).
    pub month: Option<Month>,
    /// Number of reports stored.
    pub reports: u64,
    /// Naive row-encoding size in bytes.
    pub raw_bytes: u64,
    /// Encoded (stored) size in bytes.
    pub stored_bytes: u64,
}

impl PartitionStats {
    /// Compression ratio (raw / stored); 1.0 for an empty partition.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// One month of reports: sealed blocks plus one open builder (empty
/// once the owning store is sealed or was loaded).
///
/// Reports are counted as they append, and each block's bytes are
/// booked when it seals, so the accounting never re-reads `blocks`, and
/// the payloads can be dropped once booked
/// ([`drop_sealed`](Self::drop_sealed)) without moving a number of
/// Table 2.
#[derive(Debug)]
pub(crate) struct Partition {
    month: Option<Month>,
    blocks: Vec<Block>,
    open: BlockBuilder,
    reports: u64,
    sealed_blocks: u64,
    sealed_bytes: u64,
}

impl Partition {
    /// Creates an empty partition for `month` (`None` = catch-all for
    /// reports outside the collection window).
    pub fn new(month: Option<Month>) -> Self {
        Self::from_blocks(month, Vec::new())
    }

    /// Appends a report, rolling the open block at capacity.
    pub fn append(&mut self, report: &ScanReport) {
        if self.open.is_full() {
            self.seal_open();
        }
        self.open.push(report);
        self.reports += 1;
    }

    /// Seals the open builder (no-op when empty), so every report lives
    /// in an immutable block.
    pub fn seal(&mut self) {
        if !self.open.is_empty() {
            self.seal_open();
        }
    }

    fn seal_open(&mut self) {
        let block = self.open.seal();
        self.sealed_blocks += 1;
        self.sealed_bytes += block.byte_len() as u64;
        self.blocks.push(block);
    }

    /// Drops the payloads of the blocks sealed so far; their counts stay
    /// booked, so [`stats`](Self::stats) does not move.
    pub fn drop_sealed(&mut self) {
        self.blocks.clear();
    }

    /// The sealed blocks still held.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Blocks sealed so far, held or dropped.
    pub fn sealed_blocks(&self) -> u64 {
        self.sealed_blocks
    }

    /// The partition's month (`None` = catch-all).
    pub fn month(&self) -> Option<Month> {
        self.month
    }

    /// Rebuilds a sealed partition from persisted blocks.
    pub fn from_blocks(month: Option<Month>, blocks: Vec<Block>) -> Self {
        Self {
            month,
            reports: blocks.iter().map(|b| b.len() as u64).sum(),
            sealed_blocks: blocks.len() as u64,
            sealed_bytes: blocks.iter().map(|b| b.byte_len() as u64).sum(),
            blocks,
            open: BlockBuilder::new(),
        }
    }

    /// Accounting for this partition.
    pub fn stats(&self) -> PartitionStats {
        PartitionStats {
            month: self.month,
            reports: self.reports,
            raw_bytes: self.reports * RAW_REPORT_BYTES,
            stored_bytes: self.sealed_bytes + self.open.byte_len() as u64,
        }
    }

    /// Number of reports stored (sealed + open).
    pub fn len(&self) -> u64 {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_CAPACITY;
    use vt_model::{FileType, ReportKind, SampleHash, Timestamp, VerdictVec};

    fn report(i: u64) -> ScanReport {
        ScanReport {
            sample: SampleHash::from_ordinal(i),
            file_type: FileType::Pdf,
            analysis_date: Timestamp(i as i64),
            last_submission_date: Timestamp(i as i64),
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::new(70),
        }
    }

    #[test]
    fn append_rolls_blocks_at_capacity() {
        let mut p = Partition::new(None);
        for i in 0..(BLOCK_CAPACITY as u64 * 2 + 10) {
            p.append(&report(i));
            assert_eq!(p.blocks().len() as u64, i / BLOCK_CAPACITY as u64);
        }
        p.seal();
        assert_eq!(p.blocks().len(), 3);
        assert_eq!(p.blocks()[2].len(), 10);
        assert_eq!(p.len(), BLOCK_CAPACITY as u64 * 2 + 10);
    }

    #[test]
    fn stats_account_for_open_builder() {
        let mut p = Partition::new(Some(Month {
            year: 2021,
            month: 5,
        }));
        p.append(&report(1));
        let before_seal = p.stats();
        assert_eq!(before_seal.reports, 1);
        assert!(before_seal.stored_bytes > 0);
        assert_eq!(before_seal.raw_bytes, RAW_REPORT_BYTES);
        p.seal();
        let after_seal = p.stats();
        assert_eq!(after_seal.stored_bytes, before_seal.stored_bytes);
        assert!(after_seal.compression_ratio() > 1.0);
    }

    #[test]
    fn empty_partition_stats() {
        let p = Partition::new(None);
        let s = p.stats();
        assert_eq!(p.len(), 0);
        assert_eq!(s.reports, 0);
        assert_eq!(s.compression_ratio(), 1.0);
    }

    #[test]
    fn dropping_sealed_payloads_keeps_the_accounting() {
        let mut kept = Partition::new(None);
        let mut dropped = Partition::new(None);
        for i in 0..(BLOCK_CAPACITY as u64 * 3 + 7) {
            kept.append(&report(i));
            dropped.append(&report(i));
            dropped.drop_sealed();
            assert_eq!(dropped.stats(), kept.stats());
        }
        kept.seal();
        dropped.seal();
        assert_eq!(dropped.stats(), kept.stats());
        assert_eq!(dropped.sealed_blocks(), kept.blocks().len() as u64);
        assert_eq!(dropped.blocks().len(), 1, "only the last seal is held");
        let stored: usize = kept.blocks().iter().map(Block::byte_len).sum();
        assert_eq!(kept.stats().stored_bytes, stored as u64);
    }

    #[test]
    fn seal_is_idempotent() {
        let mut p = Partition::new(None);
        p.append(&report(1));
        p.seal();
        p.seal();
        assert_eq!(p.blocks().len(), 1);
    }
}
