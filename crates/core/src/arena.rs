//! The per-worker decode arena: reusable column storage between a
//! sealed segment's compressed blocks and the columnar
//! [`crate::TrajectoryTable`].
//!
//! A [`DecodeArena`] is a [`vt_store::ReportSink`]: streaming a
//! segment's blocks into it ([`vt_store::ReportStore::for_each_row`])
//! copies out exactly the columns the table build needs — one `Vec` per
//! column (hash, analysis, submission, active, detected, type index;
//! 66 bytes a row, no struct padding) in physical arrival order —
//! without ever materializing a `ScanReport`, a `SampleRecord`, or a
//! per-sample `Vec`. [`crate::TrajectoryTable::build_from_arena`] then
//! orders a `u32` row permutation canonically by `(hash, date,
//! arrival)`, reading the key straight from these columns, and fills
//! the table columns directly.
//!
//! The arena is *reusable*: [`DecodeArena::clear`] drops the rows but
//! keeps every column's allocation, so a long-lived shard worker
//! folding segment after segment reaches a steady state with zero
//! decode-path allocations.

use std::mem::size_of;
use vt_model::SampleHash;
use vt_store::{ReportRow, ReportSink};

/// Reusable column storage for streaming segment decode (see the module
/// docs). Implements [`ReportSink`], so any block/store/segment decode
/// entry point can fill it.
///
/// `kind` and `times_submitted` are dropped at the arena boundary: no
/// analysis stage reads them (they exist for the store's accounting),
/// so carrying them would only dilute the cache.
#[derive(Debug, Default)]
pub struct DecodeArena {
    /// Sample hash (the grouping key).
    hash: Vec<SampleHash>,
    /// Analysis date in raw timestamp minutes.
    analysis: Vec<i64>,
    /// Last submission date in raw timestamp minutes (drives the
    /// derived `first_submission` / freshness of the record).
    submission: Vec<i64>,
    /// Active-engine bitmap words.
    active: Vec<[u64; 2]>,
    /// Detected-engine bitmap words (subset of `active`).
    detected: Vec<[u64; 2]>,
    /// Dense file-type index.
    type_idx: Vec<u16>,
}

impl DecodeArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows collected.
    pub fn len(&self) -> usize {
        self.hash.len()
    }

    /// True when no rows have been collected.
    pub fn is_empty(&self) -> bool {
        self.hash.is_empty()
    }

    /// Forgets the rows but keeps every column's allocation — call
    /// between segments to reach steady-state zero-allocation folding.
    pub fn clear(&mut self) {
        self.hash.clear();
        self.analysis.clear();
        self.submission.clear();
        self.active.clear();
        self.detected.clear();
        self.type_idx.clear();
    }

    /// Clears the arena, lets `read` stream into it, and clears it
    /// again if `read` fails. A strict read hands its sink every row
    /// before the violation it stops at; filling through here is what
    /// keeps that partial prefix from ever being folded.
    pub fn refill<T, E>(&mut self, read: impl FnOnce(&mut Self) -> Result<T, E>) -> Result<T, E> {
        self.clear();
        let outcome = read(self);
        if outcome.is_err() {
            self.clear();
        }
        outcome
    }

    /// Heap bytes the columns hold: capacity × element size, summed
    /// (what `clear` keeps).
    pub fn heap_bytes(&self) -> usize {
        self.hash.capacity() * size_of::<SampleHash>()
            + self.analysis.capacity() * size_of::<i64>()
            + self.submission.capacity() * size_of::<i64>()
            + self.active.capacity() * size_of::<[u64; 2]>()
            + self.detected.capacity() * size_of::<[u64; 2]>()
            + self.type_idx.capacity() * size_of::<u16>()
    }

    /// The hash column, in arrival order.
    pub(crate) fn hashes(&self) -> &[SampleHash] {
        &self.hash
    }

    /// The analysis-date column (raw minutes), in arrival order.
    pub(crate) fn analysis(&self) -> &[i64] {
        &self.analysis
    }

    /// The submission-date column (raw minutes), in arrival order.
    pub(crate) fn submission(&self) -> &[i64] {
        &self.submission
    }

    /// The active-bitmap column, in arrival order.
    pub(crate) fn active(&self) -> &[[u64; 2]] {
        &self.active
    }

    /// The detected-bitmap column, in arrival order.
    pub(crate) fn detected(&self) -> &[[u64; 2]] {
        &self.detected
    }

    /// The dense file-type column, in arrival order.
    pub(crate) fn type_idx(&self) -> &[u16] {
        &self.type_idx
    }
}

impl ReportSink for DecodeArena {
    fn report(&mut self, row: &ReportRow) {
        self.hash.push(row.sample);
        self.analysis.push(row.analysis);
        self.submission.push(row.submission);
        self.active.push(row.active);
        self.detected.push(row.detected);
        self.type_idx.push(row.type_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::ReportKind;

    fn row(ordinal: u64, analysis: i64) -> ReportRow {
        ReportRow {
            sample: SampleHash::from_ordinal(ordinal),
            type_idx: 3 + ordinal as u16,
            analysis,
            submission: analysis - 10,
            times_submitted: 1,
            kind: ReportKind::Upload,
            engine_count: 70,
            active: [u64::MAX, 0x3f],
            detected: [ordinal, 0],
        }
    }

    /// Every column's capacity, in declaration order.
    fn capacities(arena: &DecodeArena) -> [usize; 6] {
        [
            arena.hash.capacity(),
            arena.analysis.capacity(),
            arena.submission.capacity(),
            arena.active.capacity(),
            arena.detected.capacity(),
            arena.type_idx.capacity(),
        ]
    }

    #[test]
    fn every_column_collects_in_arrival_order() {
        let mut arena = DecodeArena::new();
        arena.report(&row(2, 50));
        arena.report(&row(1, 40));
        assert_eq!(arena.len(), 2);
        assert_eq!(
            arena.hashes(),
            [SampleHash::from_ordinal(2), SampleHash::from_ordinal(1)]
        );
        assert_eq!(arena.analysis(), [50, 40]);
        assert_eq!(arena.submission(), [40, 30]);
        assert_eq!(arena.active(), [[u64::MAX, 0x3f]; 2]);
        assert_eq!(arena.detected(), [[2, 0], [1, 0]]);
        assert_eq!(arena.type_idx(), [5, 4]);
    }

    #[test]
    fn a_failed_refill_leaves_no_rows_behind() {
        let mut arena = DecodeArena::new();
        arena.report(&row(9, 9));
        let ok: Result<u8, ()> = arena.refill(|a| {
            a.report(&row(1, 10));
            Ok(7)
        });
        assert_eq!(ok, Ok(7));
        assert_eq!(arena.len(), 1, "cleared first, then filled");
        assert_eq!(arena.analysis(), [10]);
        let failed: Result<(), &str> = arena.refill(|a| {
            a.report(&row(2, 20));
            a.report(&row(3, 30));
            Err("violation after two rows")
        });
        assert!(failed.is_err());
        assert!(arena.is_empty(), "the partial prefix is gone");
        for column in [
            arena.analysis().len(),
            arena.submission().len(),
            arena.active().len(),
            arena.detected().len(),
            arena.type_idx().len(),
        ] {
            assert_eq!(column, 0, "every column is empty, not only the hashes");
        }
    }

    #[test]
    fn clear_keeps_every_columns_capacity() {
        let mut arena = DecodeArena::new();
        for i in 0..100 {
            arena.report(&row(i, i as i64));
        }
        let caps = capacities(&arena);
        assert!(caps.iter().all(|&c| c >= 100), "{caps:?}");
        let bytes = arena.heap_bytes();
        assert!(bytes >= 100 * 66, "66 bytes a row at least, got {bytes}");
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(capacities(&arena), caps);
        assert_eq!(arena.heap_bytes(), bytes);
    }
}
