//! Generated report stores for the property tests: the row shapes a
//! seeded study rarely produces, on purpose.
//!
//! A generated store holds few samples with many `(hash, date)` ties
//! within one partition and across the catch-all and window months, or
//! many single-report samples; its dates sit at the window's edge; its
//! verdicts use both bitmap words; and its hashes either spread over the
//! arena's sort buckets or all share one.

use vt_model::time::{Month, Timestamp, MINUTES_PER_DAY};
use vt_model::{FileType, ReportKind, SampleHash, ScanReport, VerdictVec};
use vt_store::{ReportStore, StoreBuilder};

/// Engines in a generated report's verdict vector (both bitmap words).
pub(crate) const ENGINES: usize = 70;

/// The analysis date of generated row kind `idx`: two before the
/// window (the catch-all partition), the window's first minute and
/// the one after it, a mid-window month and the last month.
fn date(idx: u64) -> Timestamp {
    let month = |n: usize| Month::COLLECTION_START.plus(n).start().0;
    Timestamp(match idx {
        0 => month(0) - 40 * MINUTES_PER_DAY,
        1 => month(0) - 1,
        2 => month(0),
        3 => month(0) + 1,
        4 => month(3) + 7,
        _ => month(13) + 99,
    })
}

/// A store of `rows` — `(sample, date kind, bits)`, appended in that
/// arrival order; date kinds are `0..6` ([`date`]). `one_bucket` gives
/// every hash the same top 16 bits, so the whole arena lands in one sort
/// bucket.
pub(crate) fn store(rows: &[(u64, u64, u64)], one_bucket: bool) -> ReportStore {
    let mut store = StoreBuilder::new();
    for &(sample, date_idx, bits) in rows {
        let mut sample = SampleHash::from_ordinal(sample);
        if one_bucket {
            sample.0 = (0x5EED << 112) | (sample.0 & ((1 << 112) - 1));
        }
        let analysis_date = date(date_idx);
        let active = [!(bits & 0xF0F), 0x3F];
        let detected = [bits.rotate_left(17) & active[0], (bits >> 58) & 0x3F];
        store.append(&ScanReport {
            sample,
            file_type: FileType::from_dense_index((bits % 351) as usize),
            analysis_date,
            last_submission_date: Timestamp(
                analysis_date.0 - ((bits >> 20) % (90 * MINUTES_PER_DAY as u64)) as i64,
            ),
            times_submitted: 1 + (bits >> 40) as u32 % 3,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::from_raw(active, detected, ENGINES),
        });
    }
    store.seal()
}
