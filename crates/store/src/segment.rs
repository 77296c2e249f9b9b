//! Sealed, append-ordered store *segments* — the unit the incremental
//! pipeline folds.
//!
//! A long-running collector cannot keep one monolithic dataset open: an
//! analysis snapshot would have to re-read everything ingested so far.
//! Instead the feed is cut into segments: a [`SegmentWriter`] appends
//! whole-sample report batches to an open [`StoreBuilder`] and seals a
//! [`Segment`] every `threshold` reports — always on a **sample
//! boundary**, never mid-trajectory, because the analysis fold algebra
//! (`vt-dynamics`' `Analysis::merge`) is only exact when segments
//! partition samples.
//!
//! Segments are append-ordered: each carries a monotonically increasing
//! sequence number assigned at seal time. The study partials merge in
//! any order, but downstream folds still consume segments in seal order,
//! because the drift detectors compare each segment with the ones before
//! it and a replay must rebuild the same per-hash index layout.
//!
//! On disk a segment reuses the whole `VTSTORE2` machinery — per-block
//! CRCs, salvage markers and all — behind an 8-byte segment magic and
//! the sequence number:
//!
//! ```text
//! magic "VTSEG001"
//! u64   sequence number (little-endian)
//! <VTSTORE2 container — see crate::persist>
//! ```
//!
//! There is one way to read a segment, and it is strict:
//! [`read_segment_into`] (and [`read_segment`], its discard-sink case)
//! accept a file iff every check of [`read_store_into`] passes and the
//! file ends with its container. A daemon does not salvage its own
//! log — a damaged segment is quarantined and its samples re-ingested
//! ([`crate::segdir`]); salvage is for damaged monolithic feeds
//! ([`crate::read_store_salvage`]).

use crate::block::{ReportSink, SinkFn};
use crate::codec::ReportRow;
use crate::persist::{read_store_into, write_store, CorruptKind, PersistError};
use crate::store::{ReportStore, StoreBuilder, StoreObs};
use std::io::{self, Read, Write};
use vt_model::ScanReport;

const SEGMENT_MAGIC: &[u8; 8] = b"VTSEG001";

/// One sealed segment of the report stream: a read-only
/// [`ReportStore`] over a contiguous run of whole samples, plus its
/// position in the stream.
#[derive(Debug)]
pub struct Segment {
    seq: u64,
    store: ReportStore,
}

impl Segment {
    /// The segment's position in the stream (0-based, assigned in seal
    /// order by the writer).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The sealed store holding the segment's reports.
    pub fn store(&self) -> &ReportStore {
        &self.store
    }

    /// Reports sealed in this segment.
    pub fn report_count(&self) -> u64 {
        self.store.report_count()
    }
}

/// Cuts an append-ordered report stream into sealed [`Segment`]s of
/// roughly `threshold` reports each, never splitting a sample.
///
/// ```
/// use vt_store::SegmentWriter;
///
/// let mut writer = SegmentWriter::new(100);
/// // ... writer.push_sample(&reports) per sample, in stream order ...
/// let tail = writer.finish();
/// assert!(tail.is_none(), "nothing was pushed");
/// ```
#[derive(Debug)]
pub struct SegmentWriter {
    threshold: u64,
    next_seq: u64,
    open: StoreBuilder,
    /// Handles every builder this writer opens records its encodes into.
    obs: StoreObs,
}

impl SegmentWriter {
    /// A writer sealing every `threshold` reports (≥ 1; a sample whose
    /// batch crosses the threshold stays whole in the current segment).
    pub fn new(threshold: u64) -> Self {
        Self::resuming(threshold, 0)
    }

    /// A writer whose first sealed segment carries sequence number
    /// `next_seq` — the restart path: a recovering daemon replays its
    /// sealed segments and resumes the stream right after them, keeping
    /// the per-stream sequence numbering gapless across the crash.
    pub fn resuming(threshold: u64, next_seq: u64) -> Self {
        assert!(threshold >= 1, "segment threshold must be at least 1");
        Self {
            threshold,
            next_seq,
            open: StoreBuilder::new(),
            obs: StoreObs::default(),
        }
    }

    /// Records the encode of every report pushed from here on (and the
    /// reads of every segment sealed) into `obs`. Segment contents are
    /// the same either way.
    pub fn with_obs(mut self, obs: &StoreObs) -> Self {
        assert_eq!(self.open.report_count(), 0, "attach before pushing");
        self.open = StoreBuilder::with_obs(obs);
        self.obs = obs.clone();
        self
    }

    /// Appends one sample's full report batch to the open segment,
    /// sealing and returning it once it holds at least `threshold`
    /// reports. All of a sample's reports must arrive in one call —
    /// that is what keeps every sealed segment a union of whole
    /// trajectories.
    pub fn push_sample(&mut self, reports: &[ScanReport]) -> Option<Segment> {
        self.open.append_batch(reports);
        if self.open.report_count() >= self.threshold {
            return Some(self.seal());
        }
        None
    }

    /// Seals whatever the open segment holds, if anything — the stream
    /// tail that never reached the threshold.
    pub fn finish(mut self) -> Option<Segment> {
        if self.open.report_count() == 0 {
            return None;
        }
        Some(self.seal())
    }

    fn seal(&mut self) -> Segment {
        let store = std::mem::replace(&mut self.open, StoreBuilder::with_obs(&self.obs)).seal();
        let seq = self.next_seq;
        self.next_seq += 1;
        Segment { seq, store }
    }
}

/// Serializes a sealed segment: segment magic, sequence number, then
/// the standard `VTSTORE2` container.
pub fn write_segment(segment: &Segment, w: &mut impl Write) -> io::Result<()> {
    w.write_all(SEGMENT_MAGIC)?;
    w.write_all(&segment.seq.to_le_bytes())?;
    write_store(&segment.store, w)
}

/// Loads a segment file strictly: bad magic, bad markers, CRC
/// mismatches, undecodable blocks or trailing bytes abort the load.
/// [`read_segment_into`] with a sink that discards the rows.
pub fn read_segment(r: &mut impl Read) -> Result<Segment, PersistError> {
    read_segment_into(r, &mut SinkFn(|_: &ReportRow| {}), &StoreObs::default())
}

/// The strict segment reader: the segment header, then
/// [`read_store_into`] — the integrity decode of every block streams
/// into `sink` and is recorded on `obs`; on `Err` the sink holds a
/// partial prefix the caller must clear.
pub fn read_segment_into(
    r: &mut impl Read,
    sink: &mut impl ReportSink,
    obs: &StoreObs,
) -> Result<Segment, PersistError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != SEGMENT_MAGIC {
        return Err(PersistError::Corrupt(CorruptKind::BadMagic));
    }
    let mut seq = [0u8; 8];
    r.read_exact(&mut seq)?;
    let seq = u64::from_le_bytes(seq);
    let store = read_store_into(r, sink, obs)?;
    Ok(Segment { seq, store })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{FileType, ReportKind, SampleHash, VerdictVec};

    fn sample_batch(sample: u64, reports: usize) -> Vec<ScanReport> {
        (0..reports)
            .map(|i| ScanReport {
                sample: SampleHash::from_ordinal(sample),
                file_type: FileType::Pdf,
                analysis_date: Timestamp::from_date(Date::new(2021, 7, 1 + (i % 28) as u8)),
                last_submission_date: Timestamp::from_date(Date::new(2021, 7, 1)),
                times_submitted: 1,
                kind: ReportKind::Upload,
                verdicts: VerdictVec::new(70),
            })
            .collect()
    }

    #[test]
    fn seals_on_sample_boundaries_with_ordered_seqs() {
        let mut writer = SegmentWriter::new(10);
        let mut sealed = Vec::new();
        for sample in 0..20u64 {
            // 3 reports per sample: seals land mid-threshold but never
            // mid-sample.
            if let Some(seg) = writer.push_sample(&sample_batch(sample, 3)) {
                sealed.push(seg);
            }
        }
        if let Some(tail) = writer.finish() {
            sealed.push(tail);
        }
        assert!(sealed.len() > 1, "threshold must have cut the stream");
        let total: u64 = sealed.iter().map(|s| s.store().report_count()).sum();
        assert_eq!(total, 60);
        for (i, seg) in sealed.iter().enumerate() {
            assert_eq!(seg.seq(), i as u64);
            // Whole samples only: every sample's 3 reports live in one
            // segment.
            for (_, reports) in seg.store().group_by_sample() {
                assert_eq!(reports.len(), 3);
            }
            assert!(
                seg.store().report_count() >= 10 || i == sealed.len() - 1,
                "only the tail may be under threshold"
            );
        }
    }

    #[test]
    fn empty_writer_finishes_to_nothing() {
        assert!(SegmentWriter::new(5).finish().is_none());
        let mut writer = SegmentWriter::new(5);
        let seg = writer
            .push_sample(&sample_batch(0, 7))
            .expect("over threshold");
        assert_eq!(seg.seq(), 0);
        assert!(writer.finish().is_none(), "nothing left after the seal");
    }

    #[test]
    fn segment_roundtrips_through_disk_format() {
        let mut writer = SegmentWriter::new(50);
        for sample in 0..30u64 {
            let _ = writer.push_sample(&sample_batch(sample, 2));
        }
        let seg = writer.finish().expect("tail segment");
        let mut buf = Vec::new();
        write_segment(&seg, &mut buf).expect("write");
        assert_eq!(&buf[..8], SEGMENT_MAGIC);

        let loaded = read_segment(&mut buf.as_slice()).expect("read");
        assert_eq!(loaded.seq(), seg.seq());
        assert_eq!(loaded.store().report_count(), seg.store().report_count());
        for sample in 0..30u64 {
            let hash = SampleHash::from_ordinal(sample);
            assert_eq!(
                loaded.store().sample_reports(hash),
                seg.store().sample_reports(hash)
            );
        }
    }

    #[test]
    fn corrupt_segment_is_rejected_and_the_sink_holds_a_prefix() {
        let mut writer = SegmentWriter::new(1_000_000);
        for sample in 0..400u64 {
            let _ = writer.push_sample(&sample_batch(sample, 6));
        }
        let seg = writer.finish().expect("tail segment");
        let mut buf = Vec::new();
        write_segment(&seg, &mut buf).expect("write");
        let mut clean_rows: Vec<ScanReport> = Vec::new();
        read_segment_into(&mut buf.as_slice(), &mut clean_rows, &StoreObs::default())
            .expect("clean segment reads");
        assert_eq!(clean_rows.len() as u64, seg.report_count());
        // Flip a payload byte well past the headers.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        let mut rows: Vec<ScanReport> = Vec::new();
        let err = read_segment_into(&mut buf.as_slice(), &mut rows, &StoreObs::default())
            .expect_err("strict rejects");
        assert!(
            matches!(err, PersistError::Corrupt(CorruptKind::ChecksumMismatch)),
            "{err}"
        );
        // Whole blocks before the damaged one, and nothing after it.
        assert!(!rows.is_empty() && rows.len() < clean_rows.len());
        assert_eq!(rows[..], clean_rows[..rows.len()]);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_segment(&mut &b"VTSTORE2abcdefgh"[..]).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(CorruptKind::BadMagic)),
            "{err}"
        );
    }
}
