//! The per-worker decode arena: reusable row storage between a sealed
//! segment's compressed blocks and the columnar [`crate::TrajectoryTable`].
//!
//! A [`DecodeArena`] is a [`vt_store::ReportSink`]: streaming a
//! segment's blocks into it ([`vt_store::ReportStore::for_each_row`])
//! copies out exactly the columns the table build needs — one flat
//! `Vec<ArenaRow>` in physical arrival order — without ever
//! materializing a `ScanReport`, a `SampleRecord`, or a per-sample
//! `Vec`. [`crate::TrajectoryTable::build_from_arena`] then sorts a row
//! permutation into canonical `(hash, date, arrival)` order and fills
//! the table columns directly.
//!
//! The arena is *reusable*: [`DecodeArena::clear`] drops the rows but
//! keeps the allocation, so a long-lived shard worker folding segment
//! after segment reaches a steady state with zero decode-path
//! allocations.

use vt_model::SampleHash;
use vt_store::{ReportRow, ReportSink};

/// One decoded report row, exactly the columns the table build keeps.
///
/// `kind` and `times_submitted` are dropped at the arena boundary: no
/// analysis stage reads them (they exist for the store's accounting),
/// so carrying them would only dilute the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaRow {
    /// Sample hash (the grouping key).
    pub hash: SampleHash,
    /// Analysis date in raw timestamp minutes.
    pub analysis: i64,
    /// Last submission date in raw timestamp minutes (drives the
    /// derived `first_submission` / freshness of the record).
    pub submission: i64,
    /// Active-engine bitmap words.
    pub active: [u64; 2],
    /// Detected-engine bitmap words (subset of `active`).
    pub detected: [u64; 2],
    /// Dense file-type index.
    pub type_idx: u16,
}

/// Reusable row storage for streaming segment decode (see the module
/// docs). Implements [`ReportSink`], so any block/store/segment decode
/// entry point can fill it.
#[derive(Debug, Default)]
pub struct DecodeArena {
    rows: Vec<ArenaRow>,
}

impl DecodeArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected rows, in the order they were streamed (physical
    /// arrival order — the tie-break key for equal-date reports).
    pub fn rows(&self) -> &[ArenaRow] {
        &self.rows
    }

    /// Number of rows collected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forgets the rows but keeps the allocation — call between
    /// segments to reach steady-state zero-allocation folding.
    pub fn clear(&mut self) {
        self.rows.clear();
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
}

impl ReportSink for DecodeArena {
    fn report(&mut self, row: &ReportRow) {
        self.rows.push(ArenaRow {
            hash: row.sample,
            analysis: row.analysis,
            submission: row.submission,
            active: row.active,
            detected: row.detected,
            type_idx: row.type_idx,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::ReportKind;

    fn row(ordinal: u64, analysis: i64) -> ReportRow {
        ReportRow {
            sample: SampleHash::from_ordinal(ordinal),
            type_idx: 3,
            analysis,
            submission: analysis - 10,
            times_submitted: 1,
            kind: ReportKind::Upload,
            engine_count: 70,
            active: [u64::MAX, 0x3f],
            detected: [ordinal, 0],
        }
    }

    #[test]
    fn collects_rows_in_arrival_order() {
        let mut arena = DecodeArena::new();
        arena.report(&row(2, 50));
        arena.report(&row(1, 40));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.rows()[0].hash, SampleHash::from_ordinal(2));
        assert_eq!(arena.rows()[1].analysis, 40);
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
        let failed: Result<(), &str> = arena.refill(|a| {
            a.report(&row(2, 20));
            a.report(&row(3, 30));
            Err("violation after two rows")
        });
        assert!(failed.is_err());
        assert!(arena.is_empty(), "the partial prefix is gone");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut arena = DecodeArena::new();
        for i in 0..100 {
            arena.report(&row(i, i as i64));
        }
        let cap = arena.rows.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.rows.capacity(), cap);
    }
}
