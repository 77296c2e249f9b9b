//! On-disk persistence for sealed stores.
//!
//! The paper's pipeline persists compressed reports in MongoDB so the
//! 14-month collection can be analyzed repeatedly. Our equivalent is a
//! `VTSTORE2` container file, written by [`write_store`]:
//!
//! ```text
//! magic "VTSTORE2"
//! u32   partition count
//! per partition:
//!   u32 PART_MARKER
//!   u8  has_month (1) → i32 year, u8 month   | (0) catch-all
//!   u32 block count
//!   per block:
//!     u32 BLOCK_MARKER
//!     u32 report count
//!     u32 byte length
//!     u32 crc32 of the encoded bytes
//!     <encoded bytes>
//! ```
//!
//! All integers little-endian. The markers and per-block CRCs buy two
//! things a months-long collector needs: corruption is detected *before*
//! decode (CRC), and a damaged region does not poison the rest of the
//! file — [`read_store_salvage`] skips bad blocks and re-synchronizes on
//! the next marker, returning whatever survives plus a
//! [`RecoveryReport`] saying exactly what was lost where.
//!
//! Both readers parse frames with the same three functions — a
//! partition header, a block header, a block payload — over any
//! [`Read`]; salvage runs them over the file's bytes at each offset.
//! The strict reader fails on the first integrity violation — bytes
//! after the last declared partition included
//! ([`CorruptKind::TrailingBytes`]); the salvage reader degrades
//! instead. Any other magic — the retired marker-less `VTSTORE1` layout
//! included — is [`CorruptKind::BadMagic`] to both. Neither panics on
//! arbitrary input bytes (exercised by the randomized sweep in
//! `tests/fault_tolerance.rs`).
//!
//! A strict load decodes each block exactly once, and that decode is
//! both the integrity check and the read: [`read_store_into`] streams it
//! into the caller's [`ReportSink`] (a decode arena, a hash collector),
//! and [`read_store`] is the same call with a sink that discards.
//! Nothing else is derived at load time. Only a sealed store can be
//! written — there is no other kind of [`ReportStore`].

use crate::block::{Block, ReportSink, SinkFn, BLOCK_CAPACITY};
use crate::codec::{ReportRow, MIN_ENCODED_REPORT_BYTES};
use crate::crc32::crc32;
use crate::store::{ReportStore, StoreBuilder, StoreError, StoreObs};
use std::io::{self, Read, Write};
use vt_model::time::Month;

const MAGIC: &[u8; 8] = b"VTSTORE2";

/// Marks the start of a partition header. Chosen to be unlikely in
/// encoded payload, but salvage never trusts a marker alone — the frame
/// behind it must also validate.
const PART_MARKER: u32 = 0x9A87_110E;
/// Marks the start of a block frame.
const BLOCK_MARKER: u32 = 0xB10C_F00D;

/// Structural plausibility bounds, checked as each header is read.
/// They reject nonsense early; they do not make a header's claim safe
/// to allocate for — a block's bytes are read by [`read_payload`],
/// which grows with what actually arrives.
const MAX_PARTITIONS: u32 = 1024;
const MAX_BLOCKS_PER_PARTITION: u32 = 1 << 20;
const MAX_BLOCK_BYTES: u32 = 1 << 30;

/// The exact structural violation a strict load aborted on.
///
/// Each variant corresponds to one integrity check in the read path;
/// [`std::fmt::Display`] reproduces the legacy free-text descriptions so
/// rendered error messages are stable across the typed migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Shorter than the 8-byte magic — not a VTSTORE container.
    FileShorterThanMagic,
    /// Leading magic is not `VTSTORE2`.
    BadMagic,
    /// Declared partition count exceeds `MAX_PARTITIONS`.
    ImplausiblePartitionCount,
    /// A partition did not start with its marker.
    BadPartitionMarker,
    /// Declared block count exceeds `MAX_BLOCKS_PER_PARTITION`.
    ImplausibleBlockCount,
    /// A block did not start with its marker.
    BadBlockMarker,
    /// Declared block byte length exceeds `MAX_BLOCK_BYTES`.
    ImplausibleBlockSize,
    /// Declared report count exceeds the block builder's capacity.
    ImplausibleReportCount,
    /// Declared report count cannot fit in the declared byte length.
    ReportCountVsByteLength,
    /// A month tag's month byte fell outside `1..=12`.
    MonthOutOfRange,
    /// A month tag byte was neither 0 (catch-all) nor 1 (month).
    BadMonthTag,
    /// A block's payload no longer matches its stored CRC.
    ChecksumMismatch,
    /// A block's payload passed its CRC but did not decode to exactly
    /// the declared report count.
    BlockDecode,
    /// Bytes follow the last declared partition: the container does not
    /// end where its own header says it does.
    TrailingBytes,
}

impl CorruptKind {
    /// Human-readable description (the pre-typed-error message text).
    pub fn describe(self) -> &'static str {
        match self {
            CorruptKind::FileShorterThanMagic => "file shorter than magic",
            CorruptKind::BadMagic => "bad magic",
            CorruptKind::ImplausiblePartitionCount => "implausible partition count",
            CorruptKind::BadPartitionMarker => "bad partition marker",
            CorruptKind::ImplausibleBlockCount => "implausible block count",
            CorruptKind::BadBlockMarker => "bad block marker",
            CorruptKind::ImplausibleBlockSize => "implausible block size",
            CorruptKind::ImplausibleReportCount => "implausible report count",
            CorruptKind::ReportCountVsByteLength => "report count implausible for byte length",
            CorruptKind::MonthOutOfRange => "month out of range",
            CorruptKind::BadMonthTag => "bad month tag",
            CorruptKind::ChecksumMismatch => "block checksum mismatch",
            CorruptKind::BlockDecode => "block failed to decode",
            CorruptKind::TrailingBytes => "trailing bytes after the last partition",
        }
    }
}

impl std::fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// Errors surfaced while loading a store file.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a VTSTORE container or is structurally corrupt
    /// at the byte level.
    Corrupt(CorruptKind),
    /// The container parsed, but its partition layout is not a store
    /// this build can host (see [`StoreError`]).
    Store(StoreError),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<CorruptKind> for PersistError {
    fn from(kind: CorruptKind) -> Self {
        PersistError::Corrupt(kind)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt store file: {what}"),
            PersistError::Store(e) => write!(f, "inconsistent store layout: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt(_) => None,
            PersistError::Store(e) => Some(e),
        }
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Rejects block headers whose claimed report count cannot fit in the
/// claimed byte length (or exceeds the builder's capacity), before the
/// payload is read.
fn check_block_header(report_count: u32, byte_len: u32) -> Result<(), PersistError> {
    if byte_len > MAX_BLOCK_BYTES {
        return Err(PersistError::Corrupt(CorruptKind::ImplausibleBlockSize));
    }
    if report_count as usize > BLOCK_CAPACITY {
        return Err(PersistError::Corrupt(CorruptKind::ImplausibleReportCount));
    }
    if (byte_len as u64) < report_count as u64 * MIN_ENCODED_REPORT_BYTES {
        return Err(PersistError::Corrupt(CorruptKind::ReportCountVsByteLength));
    }
    Ok(())
}

/// Reads one block's `byte_len` payload bytes into `scratch` (cleared
/// first, reused across blocks). The header's length bounds the read,
/// never an allocation: a frame claiming a gigabyte in front of a
/// 37-byte file costs the bytes that arrive, and ends in the same
/// `UnexpectedEof` a short `read_exact` reports.
fn read_payload(r: &mut impl Read, byte_len: u32, scratch: &mut Vec<u8>) -> io::Result<()> {
    scratch.clear();
    r.by_ref().take(u64::from(byte_len)).read_to_end(scratch)?;
    if scratch.len() < byte_len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        ));
    }
    Ok(())
}

fn write_month_tag(w: &mut impl Write, month: Option<Month>) -> io::Result<()> {
    match month {
        Some(m) => {
            w.write_all(&[1])?;
            w.write_all(&m.year.to_le_bytes())?;
            w.write_all(&[m.month])
        }
        None => w.write_all(&[0]),
    }
}

/// Serializes a sealed store in the `VTSTORE2` format (per-block CRCs +
/// salvage markers).
pub fn write_store(store: &ReportStore, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let partitions = store.partitions();
    put_u32(w, partitions.len() as u32)?;
    for partition in partitions {
        put_u32(w, PART_MARKER)?;
        write_month_tag(w, partition.month())?;
        put_u32(w, partition.blocks().len() as u32)?;
        for block in partition.blocks() {
            put_u32(w, BLOCK_MARKER)?;
            put_u32(w, block.len() as u32)?;
            put_u32(w, block.byte_len() as u32)?;
            put_u32(w, crc32(block.raw_bytes()))?;
            w.write_all(block.raw_bytes())?;
        }
    }
    Ok(())
}

fn read_month_tag(r: &mut impl Read) -> Result<Option<Month>, PersistError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        1 => {
            let mut ybuf = [0u8; 4];
            r.read_exact(&mut ybuf)?;
            let mut mbuf = [0u8; 1];
            r.read_exact(&mut mbuf)?;
            if !(1..=12).contains(&mbuf[0]) {
                return Err(PersistError::Corrupt(CorruptKind::MonthOutOfRange));
            }
            Ok(Some(Month {
                year: i32::from_le_bytes(ybuf),
                month: mbuf[0],
            }))
        }
        0 => Ok(None),
        _ => Err(PersistError::Corrupt(CorruptKind::BadMonthTag)),
    }
}

/// Loads a store file.
/// Strict: the first integrity violation — bad marker, CRC mismatch,
/// implausible header, undecodable block, or anything after the last
/// declared partition — aborts the load. Use [`read_store_salvage`] to
/// recover what a damaged file still holds.
///
/// [`read_store_into`] with a sink that discards the rows.
pub fn read_store(r: &mut impl Read) -> Result<ReportStore, PersistError> {
    read_store_into(r, &mut SinkFn(|_: &ReportRow| {}), &StoreObs::default())
}

/// The strict reader. Each block is checked in the order header
/// plausibility → CRC → decode to exactly the declared count, and that one
/// decode streams into `sink` — rows in the order
/// [`ReportStore::for_each_row`] would deliver them from the loaded
/// store — so a caller that wants the rows does not decode them again.
/// The decode is recorded on `obs`, which the returned store keeps for
/// its own reads.
///
/// On `Err` the sink has seen a prefix of the file's rows (everything
/// before the violation): a caller that keeps what its sink collected
/// must clear it.
pub fn read_store_into(
    r: &mut impl Read,
    sink: &mut impl ReportSink,
    obs: &StoreObs,
) -> Result<ReportStore, PersistError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::Corrupt(CorruptKind::BadMagic));
    }
    let partition_count = get_u32(r)?;
    if partition_count > MAX_PARTITIONS {
        return Err(PersistError::Corrupt(
            CorruptKind::ImplausiblePartitionCount,
        ));
    }
    // The header's counts are unverified claims: the vectors grow with
    // what the file proves, never to what it declares.
    let mut partitions = Vec::new();
    let mut scratch = Vec::new();
    for _ in 0..partition_count {
        let (month, block_count) = read_partition_header(r)?;
        let mut blocks = Vec::new();
        for _ in 0..block_count {
            let header = read_block_header(r)?;
            read_block_payload(r, &header, &mut scratch)?;
            let block = Block::from_parts(scratch.as_slice().into(), header.report_count);
            // Integrity: the block must decode to exactly report_count
            // reports with nothing left over.
            let start = obs.timer();
            block
                .decode_into(sink)
                .map_err(|_| PersistError::Corrupt(CorruptKind::BlockDecode))?;
            obs.record_decode(start, header.report_count as u64);
            blocks.push(block);
        }
        partitions.push((month, blocks));
    }
    let store =
        ReportStore::from_persisted(partitions, obs.clone()).map_err(PersistError::Store)?;
    // Strict includes where the container ends: one more byte is one
    // too many.
    match r.read_exact(&mut [0u8; 1]) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(store),
        Err(e) => Err(e.into()),
        Ok(()) => Err(PersistError::Corrupt(CorruptKind::TrailingBytes)),
    }
}

/// Reads a partition header — marker, month tag, block count — and
/// returns its month (`None` for the catch-all) and declared block count.
fn read_partition_header(r: &mut impl Read) -> Result<(Option<Month>, u32), PersistError> {
    if get_u32(r)? != PART_MARKER {
        return Err(PersistError::Corrupt(CorruptKind::BadPartitionMarker));
    }
    let month = read_month_tag(r)?;
    let block_count = get_u32(r)?;
    if block_count > MAX_BLOCKS_PER_PARTITION {
        return Err(PersistError::Corrupt(CorruptKind::ImplausibleBlockCount));
    }
    Ok((month, block_count))
}

/// A block frame's header, read and found plausible.
struct BlockHeader {
    report_count: u32,
    byte_len: u32,
    crc: u32,
}

/// Reads a block header — marker, report count, byte length, CRC — and
/// rejects an implausible one before its payload is read.
fn read_block_header(r: &mut impl Read) -> Result<BlockHeader, PersistError> {
    if get_u32(r)? != BLOCK_MARKER {
        return Err(PersistError::Corrupt(CorruptKind::BadBlockMarker));
    }
    let report_count = get_u32(r)?;
    let byte_len = get_u32(r)?;
    check_block_header(report_count, byte_len)?;
    let crc = get_u32(r)?;
    Ok(BlockHeader {
        report_count,
        byte_len,
        crc,
    })
}

/// Reads the payload `header` declares into `scratch` and checks it
/// against the header's CRC: a short read is [`PersistError::Io`], a
/// mismatch [`CorruptKind::ChecksumMismatch`].
fn read_block_payload(
    r: &mut impl Read,
    header: &BlockHeader,
    scratch: &mut Vec<u8>,
) -> Result<(), PersistError> {
    read_payload(r, header.byte_len, scratch)?;
    if crc32(scratch) != header.crc {
        return Err(PersistError::Corrupt(CorruptKind::ChecksumMismatch));
    }
    Ok(())
}

/// How a salvaged partition was identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageLabel {
    /// The partition header named a calendar month.
    Month(Month),
    /// The partition header named the catch-all partition.
    CatchAll,
    /// Blocks (or unparseable regions) met before any partition header
    /// survived. Those met after one are charged to the last partition
    /// met, even when their own partition's header was destroyed.
    Unlabeled,
}

/// Per-partition salvage accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionRecovery {
    /// Which partition section of the file these counts describe.
    pub label: SalvageLabel,
    /// Blocks that passed marker + header + CRC + decode and were
    /// re-ingested.
    pub recovered_blocks: u64,
    /// Blocks (or unparseable regions) that were skipped.
    pub skipped_blocks: u64,
    /// Reports recovered from this partition's blocks.
    pub recovered_reports: u64,
}

/// What [`read_store_salvage`] managed to recover, and what it lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// One entry per partition section encountered in the file, in file
    /// order (plus `Unlabeled` entries for orphaned regions).
    pub partitions: Vec<PartitionRecovery>,
    /// Times the scanner lost framing and had to hunt forward for the
    /// next valid marker.
    pub resyncs: u64,
    /// True when the file ended in the middle of a declared structure,
    /// or when a resync found no later frame (an unparseable tail).
    pub truncated: bool,
}

impl RecoveryReport {
    /// Total blocks recovered across partitions.
    pub fn recovered_blocks(&self) -> u64 {
        self.partitions.iter().map(|p| p.recovered_blocks).sum()
    }

    /// Total blocks skipped across partitions.
    pub fn skipped_blocks(&self) -> u64 {
        self.partitions.iter().map(|p| p.skipped_blocks).sum()
    }

    /// Total reports recovered.
    pub fn recovered_reports(&self) -> u64 {
        self.partitions.iter().map(|p| p.recovered_reports).sum()
    }

    /// True when nothing was lost: no skips, no resyncs, no truncation.
    pub fn is_clean(&self) -> bool {
        self.skipped_blocks() == 0 && self.resyncs == 0 && !self.truncated
    }
}

/// A frame header that parses at some offset of a salvaged file.
enum Frame {
    Partition(Option<Month>, u32),
    Block(BlockHeader),
}

/// Reads the frame header `r` starts with, advancing `r` past it; `None`
/// when neither a partition nor a block header parses there. The two
/// markers differ, so at most one of them can, and the order they are
/// tried in does not matter.
fn read_frame(r: &mut &[u8]) -> Option<Frame> {
    let start = *r;
    if let Ok((month, block_count)) = read_partition_header(r) {
        return Some(Frame::Partition(month, block_count));
    }
    *r = start;
    read_block_header(r).ok().map(Frame::Block)
}

/// Loads as much of a (possibly damaged) store file as possible.
///
/// Skips blocks whose CRC or decode fails and re-synchronizes on the
/// next partition/block marker when framing is lost, so one damaged
/// region costs one block, not the rest of the file. Every frame is read
/// by the strict reader's own functions. Recovered reports are
/// re-ingested into a fresh
/// [`StoreBuilder`] (re-partitioned by analysis month), which is
/// returned sealed together with the [`RecoveryReport`].
///
/// Errors only on I/O failure or when the file is too short / not a
/// VTSTORE container at all; damage beyond the magic degrades the
/// report instead.
pub fn read_store_salvage(
    r: &mut impl Read,
) -> Result<(ReportStore, RecoveryReport), PersistError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    if data.len() < 8 {
        return Err(PersistError::Corrupt(CorruptKind::FileShorterThanMagic));
    }
    if &data[..8] != MAGIC {
        return Err(PersistError::Corrupt(CorruptKind::BadMagic));
    }
    Ok(salvage(&data[8..]))
}

/// The section the next block is charged to: the last partition header
/// met, or an `Unlabeled` one when none has survived yet.
fn current_section(partitions: &mut Vec<PartitionRecovery>) -> &mut PartitionRecovery {
    if partitions.is_empty() {
        partitions.push(PartitionRecovery {
            label: SalvageLabel::Unlabeled,
            recovered_blocks: 0,
            skipped_blocks: 0,
            recovered_reports: 0,
        });
    }
    partitions.last_mut().expect("nonempty")
}

fn salvage(body: &[u8]) -> (ReportStore, RecoveryReport) {
    let mut store = StoreBuilder::new();
    let mut partitions: Vec<PartitionRecovery> = Vec::new();
    let mut resyncs = 0u64;
    let mut scratch = Vec::new();

    // Declared partition count — advisory only; the parse is driven by
    // markers so a corrupt count cannot derail it. A body too short to
    // hold it is scanned from its first byte.
    let mut truncated = body.len() < 4;
    let mut rest = body.get(4..).unwrap_or(body);
    // Blocks the last partition header declared and salvage has not met.
    let mut remaining_blocks = 0u32;
    while !rest.is_empty() {
        let mut next = rest;
        match read_frame(&mut next) {
            Some(Frame::Partition(month, block_count)) => {
                // A corrupt block count can leave us expecting blocks
                // when the next partition header has already arrived —
                // charge the phantom blocks as skipped.
                if let Some(last) = partitions.last_mut() {
                    last.skipped_blocks += u64::from(remaining_blocks);
                }
                partitions.push(PartitionRecovery {
                    label: month.map_or(SalvageLabel::CatchAll, SalvageLabel::Month),
                    recovered_blocks: 0,
                    skipped_blocks: 0,
                    recovered_reports: 0,
                });
                remaining_blocks = block_count;
            }
            // A block inside its partition, or an orphan (its partition
            // header was destroyed, or a lying block count left extra
            // frames behind).
            Some(Frame::Block(header)) => {
                let section = current_section(&mut partitions);
                let decoded = read_block_payload(&mut next, &header, &mut scratch).and_then(|()| {
                    Block::from_parts(scratch.as_slice().into(), header.report_count)
                        .decode_all()
                        .map_err(|_| PersistError::Corrupt(CorruptKind::BlockDecode))
                });
                match decoded {
                    Ok(reports) => {
                        section.recovered_blocks += 1;
                        section.recovered_reports += reports.len() as u64;
                        store.append_batch(&reports);
                    }
                    // The payload runs past the end of the file: this
                    // block and every one still declared are lost.
                    Err(PersistError::Io(_)) => {
                        section.skipped_blocks += u64::from(remaining_blocks.max(1));
                        truncated = true;
                        break;
                    }
                    Err(_) => section.skipped_blocks += 1,
                }
                remaining_blocks = remaining_blocks.saturating_sub(1);
            }
            // Framing lost: hunt forward for the next frame that actually
            // validates (a marker alone is not trusted — payload bytes can
            // contain marker-shaped u32s by chance).
            None => {
                resyncs += 1;
                current_section(&mut partitions).skipped_blocks += 1;
                remaining_blocks = 0;
                match (1..rest.len()).find(|&skip| read_frame(&mut &rest[skip..]).is_some()) {
                    Some(skip) => next = &rest[skip..],
                    None => {
                        truncated = true;
                        break;
                    }
                }
            }
        }
        rest = next;
    }
    truncated = truncated || remaining_blocks > 0;

    (
        store.seal(),
        RecoveryReport {
            partitions,
            resyncs,
            truncated,
        },
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{FileType, ReportKind, SampleHash, ScanReport, VerdictVec};

    /// The strict reader as it stood before its integrity decode
    /// streamed into a sink and before it looked for EOF: every block
    /// verified by a decode whose rows are thrown away. The oracle the
    /// streaming reader's errors are compared against
    /// (`store::tests::props`).
    pub(crate) fn reference_read_store(r: &mut impl Read) -> Result<ReportStore, PersistError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::Corrupt(CorruptKind::BadMagic));
        }
        let partition_count = get_u32(r)?;
        if partition_count > MAX_PARTITIONS {
            return Err(PersistError::Corrupt(
                CorruptKind::ImplausiblePartitionCount,
            ));
        }
        let mut partitions = Vec::new();
        let mut scratch = Vec::new();
        for _ in 0..partition_count {
            if get_u32(r)? != PART_MARKER {
                return Err(PersistError::Corrupt(CorruptKind::BadPartitionMarker));
            }
            let month = read_month_tag(r)?;
            let block_count = get_u32(r)?;
            if block_count > MAX_BLOCKS_PER_PARTITION {
                return Err(PersistError::Corrupt(CorruptKind::ImplausibleBlockCount));
            }
            let mut blocks = Vec::new();
            for _ in 0..block_count {
                if get_u32(r)? != BLOCK_MARKER {
                    return Err(PersistError::Corrupt(CorruptKind::BadBlockMarker));
                }
                let report_count = get_u32(r)?;
                let byte_len = get_u32(r)?;
                check_block_header(report_count, byte_len)?;
                let expected_crc = get_u32(r)?;
                read_payload(r, byte_len, &mut scratch)?;
                if crc32(&scratch) != expected_crc {
                    return Err(PersistError::Corrupt(CorruptKind::ChecksumMismatch));
                }
                let block = Block::from_parts(scratch.as_slice().into(), report_count);
                if block.decode_all().is_err() {
                    return Err(PersistError::Corrupt(CorruptKind::BlockDecode));
                }
                blocks.push(block);
            }
            partitions.push((month, blocks));
        }
        ReportStore::from_persisted(partitions, StoreObs::default()).map_err(PersistError::Store)
    }

    fn report(sample: u64, day: u8) -> ScanReport {
        ScanReport {
            sample: SampleHash::from_ordinal(sample),
            file_type: FileType::Pdf,
            analysis_date: Timestamp::from_date(Date::new(2021, 7, day)),
            last_submission_date: Timestamp::from_date(Date::new(2021, 7, day)),
            times_submitted: 1,
            kind: ReportKind::Upload,
            verdicts: VerdictVec::new(70),
        }
    }

    fn sample_store() -> ReportStore {
        let mut store = StoreBuilder::new();
        for i in 0..2_500u64 {
            store.append(&report(i % 40, 1 + (i % 28) as u8));
        }
        store.seal()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        let loaded = read_store(&mut buf.as_slice()).expect("read");
        assert_eq!(loaded.report_count(), store.report_count());
        assert_eq!(loaded.sample_count(), store.sample_count());
        for i in 0..40u64 {
            let hash = SampleHash::from_ordinal(i);
            assert_eq!(loaded.sample_reports(hash), store.sample_reports(hash));
        }
        let a = store.partition_stats();
        let b = loaded.partition_stats();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reports, y.reports);
            assert_eq!(x.month, y.month);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        // A well-formed file under the retired `VTSTORE1` magic is as
        // foreign as garbage: both readers refuse it by its magic.
        let mut retired = Vec::new();
        write_store(&sample_store(), &mut retired).expect("write");
        retired[..8].copy_from_slice(b"VTSTORE1");
        for file in [&b"NOTASTORE!"[..], &retired] {
            let err = read_store(&mut &file[..]).unwrap_err();
            assert!(
                matches!(err, PersistError::Corrupt(CorruptKind::BadMagic)),
                "{err}"
            );
            let err = read_store_salvage(&mut &file[..]).unwrap_err();
            assert!(
                matches!(err, PersistError::Corrupt(CorruptKind::BadMagic)),
                "{err}"
            );
        }
    }

    #[test]
    fn truncation_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        for cut in [10, buf.len() / 2, buf.len() - 3] {
            let err = read_store(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "cut at {cut}: {err}");
        }
    }

    /// A 37-byte file whose one block frame claims a gigabyte: the
    /// claim bounds the read, it is not an allocation size.
    #[test]
    fn a_lying_block_length_is_a_short_read_not_a_gigabyte() {
        let claimed = MAX_BLOCK_BYTES;
        let mut file = MAGIC.to_vec();
        put_u32(&mut file, 1).unwrap();
        put_u32(&mut file, PART_MARKER).unwrap();
        write_month_tag(&mut file, None).unwrap();
        put_u32(&mut file, 1).unwrap();
        for word in [BLOCK_MARKER, 0, claimed, 0] {
            put_u32(&mut file, word).unwrap();
        }
        assert_eq!(file.len(), 37);
        for got in [
            read_store(&mut file.as_slice()),
            reference_read_store(&mut file.as_slice()),
        ] {
            match got {
                Err(PersistError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    assert_eq!(e.to_string(), "failed to fill whole buffer");
                }
                other => panic!("expected a short read, got {other:?}"),
            }
        }
        // The buffer the payload lands in grows with the bytes that
        // arrive — here five of the claimed gigabyte.
        let mut scratch = Vec::new();
        let err = read_payload(&mut &b"short"[..], claimed, &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(scratch, b"short");
        assert!(scratch.capacity() < 4096, "{}", scratch.capacity());
        // And a full payload is read exactly, leaving what follows it.
        let mut rest = &b"payload|next"[..];
        read_payload(&mut rest, 7, &mut scratch).expect("seven bytes are there");
        assert_eq!(scratch, b"payload");
        assert_eq!(rest, b"|next");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        write_store(&sample_store(), &mut buf).expect("write");
        buf.push(0);
        let err = read_store(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(CorruptKind::TrailingBytes)),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "corrupt store file: trailing bytes after the last partition"
        );
    }

    #[test]
    fn corruption_rejected() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        // Flip a byte in the middle of block data.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        // Either a checksum/decode failure or (if we hit a length field)
        // a structural error — both must surface as errors, never a
        // silently-wrong store.
        assert!(read_store(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn salvage_clean_file_recovers_everything() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        let (loaded, report) = read_store_salvage(&mut buf.as_slice()).expect("salvage");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(loaded.report_count(), store.report_count());
        assert_eq!(loaded.sample_count(), store.sample_count());
        assert_eq!(report.recovered_reports(), store.report_count());
    }

    #[test]
    fn salvage_skips_corrupt_block_and_keeps_rest() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        // Corrupt one payload byte inside the first block: find the
        // first BLOCK_MARKER and flip a byte 40 past its header.
        let marker = BLOCK_MARKER.to_le_bytes();
        let pos = buf
            .windows(4)
            .position(|w| w == marker)
            .expect("some block exists");
        buf[pos + 16 + 40] ^= 0x55;
        let (loaded, report) = read_store_salvage(&mut buf.as_slice()).expect("salvage");
        assert_eq!(report.skipped_blocks(), 1);
        assert_eq!(report.resyncs, 0, "framing intact, no resync needed");
        assert!(!report.truncated);
        assert!(loaded.report_count() < store.report_count());
        assert_eq!(
            loaded.report_count(),
            report.recovered_reports(),
            "rebuilt store holds exactly the recovered reports"
        );
    }

    #[test]
    fn salvage_resyncs_past_destroyed_length_field() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_store(&store, &mut buf).expect("write");
        let marker = BLOCK_MARKER.to_le_bytes();
        let pos = buf
            .windows(4)
            .position(|w| w == marker)
            .expect("some block exists");
        // Destroy the byte-length field so the frame header itself lies.
        buf[pos + 8..pos + 12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let (loaded, report) = read_store_salvage(&mut buf.as_slice()).expect("salvage");
        assert!(report.resyncs >= 1, "{report:?}");
        assert!(loaded.report_count() > 0, "later blocks recovered");
        assert!(report.skipped_blocks() >= 1);
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join(format!("vtstore_test_{}.bin", std::process::id()));
        {
            let mut f = std::fs::File::create(&path).expect("create");
            write_store(&store, &mut f).expect("write");
        }
        let mut f = std::fs::File::open(&path).expect("open");
        let loaded = read_store(&mut f).expect("read");
        assert_eq!(loaded.report_count(), store.report_count());
        std::fs::remove_file(&path).ok();
    }
}
