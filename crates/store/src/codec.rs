//! Column codecs: LEB128 varints, zigzag deltas, and the packed report
//! encoding.
//!
//! A [`vt_model::ScanReport`] serialized naively costs
//! [`RAW_REPORT_BYTES`] bytes (16-byte hash, three timestamps/counters,
//! kind, and one byte per engine verdict — the shape a row-per-engine
//! document store pays). The packed encoding exploits the structure the
//! paper's own pipeline exploited: timestamps are near each other
//! (delta + zigzag + varint), `times_submitted` is small (varint), and
//! the verdict vector is two 70-bit bitmaps where *active* is nearly
//! all-ones (stored inverted) and *detected* is sparse for benign
//! samples.

use vt_model::filetype::TOTAL_TYPE_COUNT;
use vt_model::{FileType, ReportKind, SampleHash, ScanReport, Timestamp, VerdictVec};

/// Logical size of one report in the naive row encoding: 16 (hash)
/// + 2 (file type) + 8 (analysis date) + 8 (submission date)
/// + 4 (times submitted) + 1 (kind) + 70 (one byte per engine verdict).
pub const RAW_REPORT_BYTES: u64 = 16 + 2 + 8 + 8 + 4 + 1 + 70;

/// Smallest possible encoded report: 16 (hash) + 1 (type) + 1 (analysis
/// delta) + 1 (submission offset) + 1 (times submitted) + 1 (kind)
/// + 1 (engine count) + 4 (four bitmap varints).
///
/// Persistence readers use this to reject block headers whose claimed
/// report count cannot fit in the claimed byte length before allocating
/// anything.
pub const MIN_ENCODED_REPORT_BYTES: u64 = 16 + 1 + 1 + 1 + 1 + 1 + 1 + 4;

/// Reads one byte off the front of the cursor, or `None` (cursor
/// unmoved) at its end. With [`take_u128`] this is every fixed-width read
/// the decoder issues, so truncated input is a decode failure, never a
/// panic.
fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = buf.split_first()?;
    *buf = rest;
    Some(byte)
}

/// Reads a big-endian `u128` off the front of the cursor, or `None`
/// (cursor unmoved) when fewer than 16 bytes remain.
fn take_u128(buf: &mut &[u8]) -> Option<u128> {
    if buf.len() < 16 {
        return None;
    }
    let (head, rest) = buf.split_at(16);
    *buf = rest;
    Some(u128::from_be_bytes(head.try_into().ok()?))
}

/// Appends a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint. Returns `None` on truncated input or overlong
/// encodings past 64 bits.
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return None;
        }
        let byte = take_u8(buf)?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag encoding of a signed value (small magnitudes → small varints).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes one report, delta-compressing the analysis date against
/// `prev_analysis` (the previous report in the block; pass 0 for the
/// first).
pub fn encode_report(buf: &mut Vec<u8>, r: &ScanReport, prev_analysis: i64) {
    buf.extend_from_slice(&r.sample.0.to_be_bytes());
    put_varint(buf, r.file_type.dense_index() as u64);
    put_varint(buf, zigzag(r.analysis_date.0 - prev_analysis));
    // Submission date is at or before the analysis date, usually equal
    // (upload) or recent: store the non-negative backward offset.
    put_varint(buf, zigzag(r.analysis_date.0 - r.last_submission_date.0));
    put_varint(buf, r.times_submitted as u64);
    buf.push(match r.kind {
        ReportKind::Upload => 0,
        ReportKind::Rescan => 1,
        ReportKind::Report => 2,
    });
    let (active, detected) = r.verdicts.raw();
    buf.push(r.verdicts.engine_count() as u8);
    // Active is nearly all-ones: store the inverted mask (sparse).
    let ec = r.verdicts.engine_count();
    let full = full_mask(ec);
    put_varint(buf, !active[0] & full.0);
    put_varint(buf, !active[1] & full.1);
    put_varint(buf, detected[0]);
    put_varint(buf, detected[1]);
}

/// One decoded report as plain column values — no `VerdictVec`, no heap.
///
/// This is what the wire format actually carries; [`ScanReport`] is a
/// materialized view over it. Streaming consumers ([`crate::ReportSink`])
/// receive rows by reference and copy out only the columns they keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportRow {
    /// The sample this report describes.
    pub sample: SampleHash,
    /// Dense file-type index, `< TOTAL_TYPE_COUNT` (validated on decode).
    pub type_idx: u16,
    /// Analysis date in raw timestamp minutes.
    pub analysis: i64,
    /// Last submission date in raw timestamp minutes.
    pub submission: i64,
    /// Times the sample was submitted as of this report.
    pub times_submitted: u32,
    /// How the report was produced.
    pub kind: ReportKind,
    /// Engines in the fleet at scan time, `<= MAX_ENGINES`.
    pub engine_count: u8,
    /// Bitmap of engines that returned a verdict (bit e = engine e).
    pub active: [u64; 2],
    /// Bitmap of engines that detected; always a subset of `active`
    /// (validated on decode).
    pub detected: [u64; 2],
}

impl ReportRow {
    /// AV-Rank: number of detecting engines.
    pub fn positives(&self) -> u32 {
        self.detected[0].count_ones() + self.detected[1].count_ones()
    }

    /// Materializes the row-struct view.
    pub fn to_report(&self) -> ScanReport {
        ScanReport {
            sample: self.sample,
            file_type: FileType::from_dense_index(self.type_idx as usize),
            analysis_date: Timestamp(self.analysis),
            last_submission_date: Timestamp(self.submission),
            times_submitted: self.times_submitted,
            kind: self.kind,
            verdicts: VerdictVec::from_raw(self.active, self.detected, self.engine_count as usize),
        }
    }
}

/// Decodes one report into plain column values (inverse of
/// [`encode_report`], minus the [`ScanReport`] materialization). Returns
/// the row and its analysis-date for use as the next delta base.
pub fn decode_report_raw(buf: &mut &[u8], prev_analysis: i64) -> Option<(ReportRow, i64)> {
    let sample = SampleHash(take_u128(buf)?);
    let type_idx = get_varint(buf)? as usize;
    if type_idx >= TOTAL_TYPE_COUNT {
        return None;
    }
    // Checked arithmetic: adversarial bytes can encode deltas that
    // overflow i64, which must surface as a decode failure, not a
    // debug-mode panic.
    let analysis = prev_analysis.checked_add(unzigzag(get_varint(buf)?))?;
    let submission = analysis.checked_sub(unzigzag(get_varint(buf)?))?;
    let times_submitted = u32::try_from(get_varint(buf)?).ok()?;
    let kind = match take_u8(buf)? {
        0 => ReportKind::Upload,
        1 => ReportKind::Rescan,
        2 => ReportKind::Report,
        _ => return None,
    };
    let engine_count = take_u8(buf)?;
    if engine_count as usize > vt_model::engine::MAX_ENGINES {
        return None;
    }
    let full = full_mask(engine_count as usize);
    let inactive0 = get_varint(buf)?;
    let inactive1 = get_varint(buf)?;
    let detected0 = get_varint(buf)?;
    let detected1 = get_varint(buf)?;
    let active = [!inactive0 & full.0, !inactive1 & full.1];
    // Defensive: reject corrupt detected-without-active encodings.
    if detected0 & !active[0] != 0 || detected1 & !active[1] != 0 {
        return None;
    }
    let row = ReportRow {
        sample,
        type_idx: type_idx as u16,
        analysis,
        submission,
        times_submitted,
        kind,
        engine_count,
        active,
        detected: [detected0, detected1],
    };
    Some((row, analysis))
}

/// Decodes one report (inverse of [`encode_report`]). Returns the report
/// and its analysis-date for use as the next delta base.
///
/// Thin adapter over [`decode_report_raw`] that materializes the
/// [`ScanReport`]; streaming decoders use the raw form directly.
pub fn decode_report(buf: &mut &[u8], prev_analysis: i64) -> Option<(ScanReport, i64)> {
    let (row, analysis) = decode_report_raw(buf, prev_analysis)?;
    Some((row.to_report(), analysis))
}

fn full_mask(engine_count: usize) -> (u64, u64) {
    let lo = if engine_count >= 64 {
        u64::MAX
    } else {
        (1u64 << engine_count) - 1
    };
    let hi = if engine_count <= 64 {
        0
    } else if engine_count >= 128 {
        u64::MAX
    } else {
        (1u64 << (engine_count - 64)) - 1
    };
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vt_model::{EngineId, Verdict};

    #[test]
    fn varint_roundtrip_known() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = &buf[..];
            assert_eq!(get_varint(&mut cur), Some(v));
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn varint_truncation_is_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        let mut cut = &buf[..buf.len() - 1];
        assert_eq!(get_varint(&mut cut), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-3) < 8);
    }

    fn sample_report(ordinal: u64) -> ScanReport {
        let mut verdicts = VerdictVec::new(70);
        for i in 0..70u8 {
            let v = match (ordinal + i as u64) % 5 {
                0 => Verdict::Malicious,
                4 => Verdict::Undetected,
                _ => Verdict::Benign,
            };
            verdicts.set(EngineId(i), v);
        }
        ScanReport {
            sample: SampleHash::from_ordinal(ordinal),
            file_type: FileType::from_dense_index(ordinal as usize % TOTAL_TYPE_COUNT),
            analysis_date: Timestamp(200_000 + ordinal as i64 * 37),
            last_submission_date: Timestamp(200_000 + ordinal as i64 * 37 - 1_440),
            times_submitted: (ordinal % 7) as u32 + 1,
            kind: match ordinal % 3 {
                0 => ReportKind::Upload,
                1 => ReportKind::Rescan,
                _ => ReportKind::Report,
            },
            verdicts,
        }
    }

    #[test]
    fn report_roundtrip_chain() {
        let reports: Vec<ScanReport> = (0..50).map(sample_report).collect();
        let mut buf = Vec::new();
        let mut prev = 0i64;
        for r in &reports {
            encode_report(&mut buf, r, prev);
            prev = r.analysis_date.0;
        }
        let mut cur = &buf[..];
        let mut prev = 0i64;
        for expected in &reports {
            let (got, p) = decode_report(&mut cur, prev).expect("decode");
            assert_eq!(&got, expected);
            prev = p;
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn every_truncation_of_a_report_is_a_decode_failure() {
        let mut buf = Vec::new();
        encode_report(&mut buf, &sample_report(3), 0);
        for cut in 0..buf.len() {
            assert_eq!(decode_report(&mut &buf[..cut], 0), None, "cut at {cut}");
        }
        assert!(decode_report(&mut &buf[..], 0).is_some());
    }

    #[test]
    fn packed_encoding_beats_raw() {
        let reports: Vec<ScanReport> = (0..1000).map(sample_report).collect();
        let mut buf = Vec::new();
        let mut prev = 0i64;
        for r in &reports {
            encode_report(&mut buf, r, prev);
            prev = r.analysis_date.0;
        }
        let packed = buf.len() as u64;
        let raw = RAW_REPORT_BYTES * reports.len() as u64;
        assert!(
            packed * 2 < raw,
            "packed {packed} should be well under half of raw {raw}"
        );
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = &buf[..];
            prop_assert_eq!(get_varint(&mut cur), Some(v));
        }

        #[test]
        fn zigzag_roundtrip_prop(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn report_roundtrip_prop(
            ordinal in 0u64..1_000_000,
            prev in 0i64..100_000_000,
            delta in -1_000_000i64..1_000_000,
            back in 0i64..1_000_000,
            ts in 1u32..100_000,
            pattern in proptest::collection::vec(0u8..3, 70..=70),
            type_idx in 0usize..TOTAL_TYPE_COUNT,
        ) {
            let verdicts: Vec<Verdict> = pattern.iter().map(|&p| match p {
                0 => Verdict::Benign,
                1 => Verdict::Malicious,
                _ => Verdict::Undetected,
            }).collect();
            let r = ScanReport {
                sample: SampleHash::from_ordinal(ordinal),
                file_type: FileType::from_dense_index(type_idx),
                analysis_date: Timestamp(prev + delta),
                last_submission_date: Timestamp(prev + delta - back),
                times_submitted: ts,
                kind: ReportKind::Rescan,
                verdicts: VerdictVec::from_verdicts(&verdicts),
            };
            let mut buf = Vec::new();
            encode_report(&mut buf, &r, prev);
            let mut cur = &buf[..];
            let (got, next_prev) = decode_report(&mut cur, prev).expect("decode");
            prop_assert_eq!(got, r);
            prop_assert_eq!(next_prev, prev + delta);
            prop_assert!(cur.is_empty());
        }
    }
}
