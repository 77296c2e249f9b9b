//! Report blocks: the unit of compression and decoding.
//!
//! Reports append into a [`BlockBuilder`]; when it reaches
//! [`BLOCK_CAPACITY`] reports (or the partition is sealed) it freezes
//! into an immutable [`Block`] of contiguous encoded bytes. Decoding is
//! sequential within a block (the delta chain requires it), which is the
//! access pattern every analysis uses.
//!
//! There is one decode, [`Block::decode_into`]: checked (exactly the
//! declared count, nothing left over) and streaming into a
//! [`ReportSink`]. Verifying untrusted bytes *is* that decode — the
//! strict reader runs it once per block, into whatever sink its caller
//! holds — so no block is decoded to be checked and again to be read.

use crate::codec::{decode_report_raw, encode_report, ReportRow};
use std::sync::Arc;
use vt_model::ScanReport;

/// Streaming consumer of decoded reports.
///
/// [`Block::decode_into`] drives a sink instead of materializing a
/// `Vec<ScanReport>`, so bulk consumers (the columnar table build, the
/// store's hash-only scan) copy out only the columns they keep.
///
/// # Contract
///
/// * **Ordering** — rows arrive in block offset order (the physical
///   append order), exactly once each, with offsets `0..block.len()`.
///   Within one block, analysis dates are whatever the writer appended;
///   no sorting is applied.
/// * **Errors** — on a corrupt block the sink has already observed every
///   row *before* the corrupt one; the decoder stops at the first bad
///   report and returns [`BlockDecodeError`]. Callers that need
///   all-or-nothing semantics buffer (as [`Block::decode_all`] does,
///   discarding its partial `Vec` on error) or clear the sink on `Err`
///   (the contract of the streaming strict reader,
///   [`crate::persist::read_store_into`]).
/// * **Borrowing** — the `&ReportRow` is only valid for the duration of
///   the call; sinks copy out what they keep.
pub trait ReportSink {
    /// Accepts the next decoded row.
    fn report(&mut self, row: &ReportRow);
}

/// Adapter that lets a closure act as a [`ReportSink`].
///
/// (A blanket `impl<F: FnMut(&ReportRow)> ReportSink for F` would
/// conflict with the `Vec<ScanReport>` impl under coherence rules, so
/// closures wrap in this named struct instead.)
pub struct SinkFn<F>(pub F);

impl<F: FnMut(&ReportRow)> ReportSink for SinkFn<F> {
    fn report(&mut self, row: &ReportRow) {
        (self.0)(row);
    }
}

/// The materializing sink: collects rows as [`ScanReport`]s.
impl ReportSink for Vec<ScanReport> {
    fn report(&mut self, row: &ReportRow) {
        self.push(row.to_report());
    }
}

/// A block's bytes failed to decode — either a report is corrupt or the
/// byte stream does not end exactly at the last report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDecodeError {
    /// Index of the report whose decode failed (== the block's report
    /// count when the failure is trailing garbage after a clean decode).
    pub report_index: u32,
    /// Reports claimed by the block header.
    pub report_count: u32,
}

impl std::fmt::Display for BlockDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.report_index == self.report_count {
            write!(f, "trailing bytes after {} reports", self.report_count)
        } else {
            write!(
                f,
                "corrupt block at report {}/{}",
                self.report_index, self.report_count
            )
        }
    }
}

impl std::error::Error for BlockDecodeError {}

/// Reports per block. Big enough to amortize per-block overhead, small
/// enough that decoding a block to reach one report stays cheap.
pub const BLOCK_CAPACITY: usize = 1024;

/// An immutable, encoded run of reports.
#[derive(Debug, Clone)]
pub struct Block {
    data: Arc<[u8]>,
    len: u32,
}

impl Block {
    /// Number of reports in the block.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the block holds no reports.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Reconstructs a block from its raw parts (the persistence path).
    /// Nothing is checked here: untrusted bytes are trusted only once a
    /// [`decode_into`](Self::decode_into) of them has returned `Ok`.
    pub fn from_parts(data: Arc<[u8]>, len: u32) -> Self {
        Self { data, len }
    }

    /// The encoded bytes (for persistence).
    pub fn raw_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Streams every report in the block into `sink`, in offset order,
    /// without materializing [`ScanReport`]s. Returns the number of rows
    /// delivered. Fails (instead of panicking) when the bytes are corrupt
    /// or do not end exactly at the last report; on failure the sink has
    /// already seen every row before the corrupt one (see [`ReportSink`]).
    pub fn decode_into(&self, sink: &mut impl ReportSink) -> Result<u32, BlockDecodeError> {
        let mut cur = &self.data[..];
        let mut prev = 0i64;
        for i in 0..self.len {
            let (row, p) = decode_report_raw(&mut cur, prev).ok_or(BlockDecodeError {
                report_index: i,
                report_count: self.len,
            })?;
            sink.report(&row);
            prev = p;
        }
        if !cur.is_empty() {
            return Err(BlockDecodeError {
                report_index: self.len,
                report_count: self.len,
            });
        }
        Ok(self.len)
    }

    /// Decodes every report in the block, materialized. Thin adapter over
    /// [`Block::decode_into`] with a `Vec<ScanReport>` sink; the partial
    /// `Vec` is discarded on error, giving all-or-nothing semantics.
    pub fn decode_all(&self) -> Result<Vec<ScanReport>, BlockDecodeError> {
        // Cap the pre-allocation by what the bytes could possibly hold:
        // a corrupt header may claim billions of reports.
        let plausible =
            (self.data.len() as u64 / crate::codec::MIN_ENCODED_REPORT_BYTES.max(1)) as usize;
        let mut out = Vec::with_capacity((self.len as usize).min(plausible + 1));
        self.decode_into(&mut out)?;
        Ok(out)
    }
}

/// An open block accepting appends.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    len: u32,
    prev_analysis: i64,
}

impl BlockBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reports appended so far.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// True when the block has reached capacity and should be sealed.
    pub fn is_full(&self) -> bool {
        self.len as usize >= BLOCK_CAPACITY
    }

    /// Appends one report. Returns the offset (report index within the
    /// block) it was stored at.
    pub fn push(&mut self, report: &ScanReport) -> u32 {
        let offset = self.len;
        encode_report(&mut self.buf, report, self.prev_analysis);
        self.prev_analysis = report.analysis_date.0;
        self.len += 1;
        offset
    }

    /// Freezes into an immutable [`Block`], resetting the builder.
    pub fn seal(&mut self) -> Block {
        let data = std::mem::take(&mut self.buf).into();
        let len = self.len;
        self.len = 0;
        self.prev_analysis = 0;
        Block { data, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::{FileType, ReportKind, SampleHash, Timestamp, VerdictVec};

    fn report(i: u64) -> ScanReport {
        ScanReport {
            sample: SampleHash::from_ordinal(i),
            file_type: FileType::Pdf,
            analysis_date: Timestamp(1_000 + i as i64 * 7),
            last_submission_date: Timestamp(1_000 + i as i64 * 7),
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::new(70),
        }
    }

    #[test]
    fn build_seal_decode() {
        let mut b = BlockBuilder::new();
        assert!(b.is_empty());
        for i in 0..10 {
            assert_eq!(b.push(&report(i)), i as u32);
        }
        assert_eq!(b.len(), 10);
        let block = b.seal();
        assert!(b.is_empty(), "builder resets after seal");
        assert_eq!(block.len(), 10);
        let decoded = block.decode_all().expect("clean block decodes");
        for (i, r) in decoded.iter().enumerate() {
            assert_eq!(r, &report(i as u64));
        }
    }

    #[test]
    fn seal_resets_delta_chain() {
        let mut b = BlockBuilder::new();
        b.push(&report(5));
        let first = b.seal();
        b.push(&report(6));
        let second = b.seal();
        assert_eq!(first.decode_all().unwrap()[0], report(5));
        assert_eq!(second.decode_all().unwrap()[0], report(6));
    }

    #[test]
    fn capacity_flag() {
        let mut b = BlockBuilder::new();
        for i in 0..BLOCK_CAPACITY as u64 {
            assert!(!b.is_full());
            b.push(&report(i));
        }
        assert!(b.is_full());
    }

    #[test]
    fn empty_block() {
        let mut b = BlockBuilder::new();
        let block = b.seal();
        assert!(block.is_empty());
        assert!(block.decode_all().unwrap().is_empty());
    }

    #[test]
    fn corrupt_block_decode_is_an_error() {
        let mut b = BlockBuilder::new();
        for i in 0..4 {
            b.push(&report(i));
        }
        let block = b.seal();
        // Truncated payload with the original report count.
        let bytes = Arc::from(&block.raw_bytes()[..block.byte_len() - 3]);
        let bad = Block::from_parts(bytes, block.len() as u32);
        let err = bad.decode_all().unwrap_err();
        assert!(err.report_index <= err.report_count);
        // Trailing garbage after a clean decode is also an error.
        let mut extended = block.raw_bytes().to_vec();
        extended.extend_from_slice(&[0xAB; 5]);
        let trailing = Block::from_parts(extended.into(), block.len() as u32);
        assert!(trailing.decode_all().is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The streaming sink sees exactly the rows `decode_all`
            /// materializes, in offset order, and every `ReportRow`
            /// accessor agrees with its materialized `ScanReport`.
            #[test]
            fn sink_rows_match_materialized_reports(
                ordinals in proptest::collection::vec(0u64..5_000, 1..60),
            ) {
                let reports: Vec<ScanReport> = ordinals.iter().map(|&i| report(i)).collect();
                let mut b = BlockBuilder::new();
                for r in &reports {
                    b.push(r);
                }
                let block = b.seal();
                let mut rows: Vec<(SampleHash, u32, i64)> = Vec::new();
                let n = block
                    .decode_into(&mut SinkFn(|row: &ReportRow| {
                        rows.push((row.sample, row.positives(), row.analysis));
                    }))
                    .expect("clean block decodes");
                prop_assert_eq!(n as usize, reports.len());
                let all = block.decode_all().expect("clean block decodes");
                prop_assert_eq!(all.len(), rows.len());
                for (r, (hash, positives, analysis)) in all.iter().zip(&rows) {
                    prop_assert_eq!(r.sample, *hash);
                    prop_assert_eq!(r.positives(), *positives);
                    prop_assert_eq!(r.analysis_date.0, *analysis);
                }
                prop_assert_eq!(&all, &reports);
            }

            /// Arbitrary single-byte corruption and truncation never
            /// panic the decoder: it returns Ok (the flip happened to
            /// stay decodable) or a structured error after delivering
            /// exactly the rows before the failure point.
            #[test]
            fn corrupt_bytes_never_panic(
                ordinals in proptest::collection::vec(0u64..5_000, 1..40),
                site in any::<u16>(),
                flip in 1u8..=255,
                cut in any::<u16>(),
            ) {
                let mut b = BlockBuilder::new();
                for &i in &ordinals {
                    b.push(&report(i));
                }
                let block = b.seal();
                let mut bytes = block.raw_bytes().to_vec();
                let site = site as usize % bytes.len();
                bytes[site] ^= flip;
                let cut_len = cut as usize % (bytes.len() + 1);
                for data in [
                    Arc::<[u8]>::from(&bytes[..]),
                    Arc::<[u8]>::from(&bytes[..cut_len]),
                ] {
                    let bad = Block::from_parts(data, ordinals.len() as u32);
                    let mut seen = 0u32;
                    let res = bad.decode_into(&mut SinkFn(|_: &ReportRow| seen += 1));
                    match res {
                        Ok(n) => prop_assert_eq!(n, ordinals.len() as u32),
                        Err(e) => {
                            prop_assert!(e.report_index <= e.report_count);
                            prop_assert_eq!(seen, e.report_index);
                        }
                    }
                }
            }
        }
    }
}
