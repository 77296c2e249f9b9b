//! §5.3.1 — construction of the fresh dynamic dataset *S*.
//!
//! *S* contains samples that are (i) **fresh** — first submitted inside
//! the collection window, so their label history is observed from the
//! beginning; (ii) **dynamic** — Δ > 0 over multiple scans; and (iii)
//! of one of the **top-20 file types**. In the paper S holds 32,051,433
//! samples / 109,142,027 reports.

use crate::par;
use crate::records::SampleRecord;
use crate::table::{flag, TrajectoryTable};
use vt_model::time::Timestamp;
use vt_obs::Obs;

/// The fresh dynamic dataset: indices into the record slice.
#[derive(Debug, Clone)]
pub struct FreshDynamic {
    /// Indices of the records in *S*.
    pub indices: Vec<usize>,
    /// Total reports across *S*.
    pub reports: u64,
}

impl FreshDynamic {
    /// Number of samples in *S*.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when *S* is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates the records of *S*.
    pub fn iter<'a>(
        &'a self,
        records: &'a [SampleRecord],
    ) -> impl Iterator<Item = &'a SampleRecord> {
        self.indices.iter().map(move |&i| &records[i])
    }
}

/// Builds *S* from the full record set (columnar pass under the hood).
pub fn build(records: &[SampleRecord], window_start: Timestamp) -> FreshDynamic {
    let table = TrajectoryTable::build(records, window_start);
    build_from_table(&table, par::default_workers())
}

/// Builds *S* from the table's precomputed membership flags: a parallel
/// scan whose per-partition index lists concatenate in partition order,
/// so `indices` comes out ascending — identical to the serial filter —
/// at every worker count.
///
/// The scan reads the flag bytes 32 records at a time (four u64 word
/// loads, the 4-word kernel layout): each word tests eight IN_S bits at
/// once, and a block of 32 non-members costs four AND/compare pairs
/// instead of 32 byte loads. Members are extracted in ascending order
/// via `trailing_zeros`, so the emitted indices are exactly the
/// one-byte-at-a-time scan's.
pub fn build_from_table(table: &TrajectoryTable, workers: usize) -> FreshDynamic {
    // Bit 5 (IN_S) of every byte lane in a u64 word.
    let lanes = u64::from_ne_bytes([flag::IN_S; 8]);
    let ranges = par::partition_ranges(table.len() as u64, workers);
    let parts = par::map_ranges_obs(&ranges, Obs::noop(), "freshdyn", |_, range| {
        let start = range.start as usize;
        let slice = &table.flags_raw()[start..range.end as usize];
        let mut indices = Vec::new();
        let mut reports = 0u64;
        let push = |i: usize, indices: &mut Vec<usize>, reports: &mut u64| {
            indices.push(i);
            *reports += table.report_count(i) as u64;
        };
        let mut k = 0usize;
        while k + 32 <= slice.len() {
            let mut words = [0u64; 4];
            for (j, w) in words.iter_mut().enumerate() {
                let bytes: [u8; 8] = slice[k + j * 8..k + j * 8 + 8].try_into().expect("8 bytes");
                // from_le so byte j of the slice owns bits 8j..8j+8
                // regardless of host endianness.
                *w = u64::from_le_bytes(bytes) & lanes;
            }
            for (j, mut w) in words.into_iter().enumerate() {
                // At most one bit per byte lane is set, so clearing the
                // lowest set bit steps one member byte at a time,
                // ascending.
                while w != 0 {
                    let byte = (w.trailing_zeros() / 8) as usize;
                    push(start + k + j * 8 + byte, &mut indices, &mut reports);
                    w &= w - 1;
                }
            }
            k += 32;
        }
        for (tail, &f) in slice.iter().enumerate().skip(k) {
            if f & flag::IN_S != 0 {
                push(start + tail, &mut indices, &mut reports);
            }
        }
        (indices, reports)
    });
    let mut indices = Vec::with_capacity(parts.iter().map(|(i, _)| i.len()).sum());
    let mut reports = 0u64;
    for (part, r) in parts {
        indices.extend(part);
        reports += r;
    }
    FreshDynamic { indices, reports }
}

/// The original serial filter, kept as the bit-identity reference for
/// [`build_from_table`].
#[cfg(test)]
pub(crate) fn build_serial(records: &[SampleRecord], window_start: Timestamp) -> FreshDynamic {
    let mut indices = Vec::new();
    let mut reports = 0u64;
    for (i, r) in records.iter().enumerate() {
        if !r.meta.file_type.is_top20() {
            continue;
        }
        if !r.meta.is_fresh(window_start) {
            continue;
        }
        if !r.is_multi_report() || r.is_stable() {
            continue;
        }
        indices.push(i);
        reports += r.report_count() as u64;
    }
    FreshDynamic { indices, reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Duration};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict,
        VerdictVec,
    };

    fn record(i: u64, ft: FileType, fresh: bool, positives_seq: &[u32]) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = if fresh {
            window + Duration::days(30)
        } else {
            window - Duration::days(30)
        };
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: ft,
            origin: first - Duration::days(2),
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = positives_seq
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let mut verdicts = VerdictVec::new(70);
                for e in 0..p {
                    verdicts.set(EngineId(e as u8), Verdict::Malicious);
                }
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date: window + Duration::days(31 + k as i64),
                    last_submission_date: first,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    #[test]
    fn applies_all_three_filters() {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let records = vec![
            record(0, FileType::Win32Exe, true, &[1, 3]),  // in S
            record(1, FileType::Win32Exe, false, &[1, 3]), // not fresh
            record(2, FileType::Other(0), true, &[1, 3]),  // not top-20
            record(3, FileType::Null, true, &[1, 3]),      // not top-20
            record(4, FileType::Win32Exe, true, &[3, 3]),  // stable
            record(5, FileType::Win32Exe, true, &[3]),     // single report
            record(6, FileType::Pdf, true, &[0, 2, 1]),    // in S
        ];
        let s = build(&records, window);
        assert_eq!(s.indices, vec![0, 6]);
        assert_eq!(s.reports, 5);
        assert_eq!(s.len(), 2);
        let collected: Vec<u64> = s.iter(&records).map(|r| r.meta.hash.seed64()).collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn table_build_matches_serial_reference_at_every_worker_count() {
        use crate::pipeline::Study;
        use vt_sim::SimConfig;

        let study = Study::generate_with_workers(SimConfig::new(0x5D, 3_000), 2);
        let ws = study.sim().config().window_start();
        let serial = build_serial(study.records(), ws);
        let table = TrajectoryTable::build(study.records(), ws);
        for workers in [1usize, 2, 3, 8] {
            let s = build_from_table(&table, workers);
            assert_eq!(s.indices, serial.indices, "workers={workers}");
            assert_eq!(s.reports, serial.reports, "workers={workers}");
        }
        assert!(!serial.is_empty(), "study too small to exercise S");
    }
}
