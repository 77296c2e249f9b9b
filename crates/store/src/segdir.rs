//! Directory-backed segment persistence — the serve tier's write-ahead
//! log.
//!
//! A long-running daemon cannot treat sealed segments as in-memory
//! ephemera: a crash mid-ingest would lose the whole epoch. This module
//! turns a directory into a crash-recoverable segment log:
//!
//! * [`SegmentDir`] owns the directory. [`SegmentDir::persist`] writes a
//!   sealed [`Segment`] to a temporary file, fsyncs the file, renames it
//!   into place, and fsyncs the directory — only then is the segment
//!   *durable*, and only durable segments may be published. The
//!   seal → fsync → publish ordering is the recovery protocol's one
//!   load-bearing invariant (DESIGN.md §2.5); a writer keeps it by
//!   persisting each segment it seals before handing it on.
//! * [`SegmentDir::replay_each`] is the restart path: scan the
//!   directory, read every segment with the one strict reader
//!   ([`read_segment_into`] — the reader every other consumer of a
//!   segment file uses), hand each segment of a slot's longest clean
//!   prefix (contiguous sequence numbers from 0, every file accepted
//!   whole) to the caller the moment it is accepted, and move
//!   everything after the first damaged or missing segment into a
//!   `quarantine/` subdirectory. The daemon folds the clean prefix while
//!   the replay is still reading, and re-ingests the rest instead of
//!   refusing to start. Nothing is held back: the replay keeps the one
//!   segment it is reading, never the log. The read's integrity decode
//!   feeds a hash collector, so the replay returns the samples the
//!   prefix already covers.
//!
//! Segments are keyed by `(slot, seq)`: `slot` is the fixed hash
//! partition the serve tier routes samples through, `seq` the per-slot
//! seal order. File names are `seg-SSS-NNNNNNNNNN.vtseg`. A small
//! manifest records the slot count so a directory can never be replayed
//! under a different partitioning than it was written with (that would
//! silently break the clean-prefix property), and a feed record
//! ([`SegmentDir::pin_feed`]) names the stream the log holds, so a
//! resumed writer cannot append another stream's samples to it.

use crate::block::SinkFn;
use crate::codec::ReportRow;
use crate::segment::{read_segment_into, write_segment, Segment};
use crate::store::StoreObs;
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use vt_model::SampleHash;

/// Manifest file name inside a segment directory.
const MANIFEST: &str = "segdir.manifest";
/// Manifest format tag.
const MANIFEST_TAG: &str = "VTSEGDIR1";
/// Feed record file name inside a segment directory.
const FEED: &str = "segdir.feed";
/// Quarantine subdirectory for segments replay did not accept.
const QUARANTINE: &str = "quarantine";

/// A directory of durable sealed segments, partitioned into a fixed
/// number of slots. See the module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct SegmentDir {
    root: PathBuf,
    slots: u32,
    /// Handles the replay's decode records into.
    obs: StoreObs,
}

/// One segment file found by [`SegmentDir::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFile {
    /// Hash-partition slot parsed from the file name.
    pub slot: u32,
    /// Per-slot sequence number parsed from the file name.
    pub seq: u64,
    /// Absolute path of the segment file.
    pub path: PathBuf,
}

impl SegmentDir {
    /// Opens (creating if needed) a segment directory for `slots` hash
    /// partitions. Writes the manifest on first use; on reuse, a slot
    /// count that disagrees with the manifest is an
    /// [`io::ErrorKind::InvalidData`] error — replaying under a
    /// different partitioning would corrupt the recovery semantics.
    pub fn open(root: impl Into<PathBuf>, slots: u32) -> io::Result<SegmentDir> {
        assert!(slots >= 1, "a segment directory needs at least one slot");
        let root = root.into();
        fs::create_dir_all(&root)?;
        let manifest = root.join(MANIFEST);
        match fs::read_to_string(&manifest) {
            Ok(text) => {
                let expected = format!("{MANIFEST_TAG} slots={slots}\n");
                if text != expected {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "segment dir manifest mismatch: found {:?}, expected {:?}",
                            text.trim(),
                            expected.trim()
                        ),
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let text = format!("{MANIFEST_TAG} slots={slots}\n");
                write_durable(&root.join(MANIFEST), text.as_bytes())?;
            }
            Err(e) => return Err(e),
        }
        Ok(SegmentDir {
            root,
            slots,
            obs: StoreObs::default(),
        })
    }

    /// Records the replay's decode into `obs` (see [`StoreObs`]); what
    /// is recovered is the same either way.
    pub fn with_obs(mut self, obs: &StoreObs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// The directory this log lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fixed slot count recorded in the manifest.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Pins the directory to the feed its log holds, named by `feed` (one
    /// line, the caller's identity of its stream). A fresh log records
    /// `feed`; a log being resumed (`resume`) keeps its record, and a
    /// recorded feed other than `feed` is an
    /// [`io::ErrorKind::InvalidInput`] error naming both that changes
    /// nothing. A resumed log with no record adopts `feed`. The record is
    /// written through the manifest's tmp → fsync → rename → fsync-dir
    /// path.
    pub fn pin_feed(&self, feed: &str, resume: bool) -> io::Result<()> {
        if resume {
            match fs::read_to_string(self.root.join(FEED)) {
                Ok(text) if text.trim_end() == feed => return Ok(()),
                Ok(text) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "data dir {} holds feed {}, not {feed}; \
                             recover it under the feed that wrote it or point at a clean directory",
                            self.root.display(),
                            text.trim_end()
                        ),
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        write_durable(&self.root.join(FEED), format!("{feed}\n").as_bytes())
    }

    /// Whether the directory holds any segment files (quarantined ones
    /// do not count).
    pub fn has_segments(&self) -> io::Result<bool> {
        Ok(!self.scan()?.is_empty())
    }

    /// Durably persists one sealed segment: write to `*.tmp`, fsync the
    /// file, rename into place, fsync the directory — the same path the
    /// manifest is written through. Returns the final path. After this
    /// returns, a crash at any point leaves either the whole segment or
    /// (for an interrupted call) an ignorable `*.tmp`.
    pub fn persist(&self, slot: u32, segment: &Segment) -> io::Result<PathBuf> {
        assert!(slot < self.slots, "slot {slot} out of range");
        let mut buf = Vec::new();
        write_segment(segment, &mut buf)?;
        let path = self.root.join(segment_file_name(slot, segment.seq()));
        write_durable(&path, &buf)?;
        Ok(path)
    }

    /// Lists the segment files present, sorted by `(slot, seq)`.
    /// Ignores the manifest, `*.tmp` leftovers, the quarantine
    /// subdirectory and anything else that does not parse as a segment
    /// file name.
    pub fn scan(&self) -> io::Result<Vec<SegmentFile>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some((slot, seq)) = parse_segment_file_name(&name.to_string_lossy()) else {
                continue;
            };
            out.push(SegmentFile {
                slot,
                seq,
                path: entry.path(),
            });
        }
        out.sort_by_key(|f| (f.slot, f.seq));
        Ok(out)
    }

    /// Recovers each slot's clean segment prefix and quarantines the
    /// rest, handing each accepted segment to `on_segment(slot,
    /// segment)` in `(slot, seq)` order and calling `on_quarantine` once
    /// per file moved aside, as it moves. See the module docs for the
    /// policy; the short version:
    ///
    /// * a segment joins the clean prefix iff its sequence number is the
    ///   next expected one for its slot, its header agrees with its file
    ///   name, and the strict reader accepts the file **whole** — every
    ///   marker, header, CRC and exact-count decode, the declared
    ///   partition layout, and nothing after it — so `on_segment` only
    ///   ever sees whole segments;
    /// * the first violation in a slot quarantines that file and every
    ///   later file of the same slot (they are orphaned behind the gap —
    ///   folding across a hole would break the stream-prefix invariant
    ///   recovery correctness rests on);
    /// * slots whose files parse to a slot ≥ the manifest's count are
    ///   quarantined wholesale.
    ///
    /// Quarantined files are moved (not deleted) into `quarantine/`
    /// under their own names — a name already taken there (a re-sealed
    /// `(slot, seq)` quarantined by a later recovery) gets a numeric
    /// suffix — so an operator can inspect every one of them.
    ///
    /// Returns every sample sealed in a segment handed over (collected
    /// by the read that accepted it) — what a resuming feeder must not
    /// ingest again. `on_segment` returning `false` ends the replay
    /// there (the consumer is gone): the files not yet visited stay
    /// where they are, and the returned set covers what was visited.
    pub fn replay_each(
        &self,
        mut on_segment: impl FnMut(u32, Segment) -> bool,
        mut on_quarantine: impl FnMut(),
    ) -> io::Result<HashSet<SampleHash>> {
        let mut sealed_hashes = HashSet::new();
        // Per slot: the next expected `seq`, and whether the clean
        // prefix has already ended (everything later in that slot
        // quarantines).
        let mut next_seq = vec![0u64; self.slots as usize];
        let mut broken = vec![false; self.slots as usize];
        for file in self.scan()? {
            let slot = file.slot as usize;
            let loaded = if file.slot >= self.slots || broken[slot] {
                None
            } else {
                self.load(&file, next_seq[slot])
            };
            let Some((segment, hashes)) = loaded else {
                if file.slot < self.slots {
                    broken[slot] = true;
                }
                self.quarantine_file(&file.path)?;
                on_quarantine();
                continue;
            };
            next_seq[slot] += 1;
            sealed_hashes.extend(hashes);
            if !on_segment(file.slot, segment) {
                break;
            }
        }
        Ok(sealed_hashes)
    }

    /// Reads one segment file strictly as its slot's segment `seq`,
    /// collecting its rows' hashes. Any I/O or format error, or a
    /// sequence number (name or header) other than `seq`, yields `None`
    /// — dropping the partial prefix of hashes a failed read collected —
    /// and the caller quarantines.
    fn load(&self, file: &SegmentFile, seq: u64) -> Option<(Segment, Vec<SampleHash>)> {
        let mut reader = io::BufReader::new(File::open(&file.path).ok()?);
        let mut hashes = Vec::new();
        let mut sink = SinkFn(|row: &ReportRow| hashes.push(row.sample));
        let segment = read_segment_into(&mut reader, &mut sink, &self.obs).ok()?;
        (file.seq == seq && segment.seq() == seq).then_some((segment, hashes))
    }

    fn quarantine_file(&self, path: &Path) -> io::Result<()> {
        let qdir = self.root.join(QUARANTINE);
        fs::create_dir_all(&qdir)?;
        let name = path.file_name().expect("scanned files have names");
        let mut target = qdir.join(name);
        let mut copy = 0u32;
        while target.exists() {
            copy += 1;
            target = qdir.join(format!("{}.{copy}", name.to_string_lossy()));
        }
        fs::rename(path, target)?;
        // Both directories changed: the copy must not vanish from one
        // before the original leaves the other.
        sync_dir(&qdir)?;
        sync_dir(&self.root)?;
        Ok(())
    }
}

/// Writes `bytes` to `path` durably: write `<path>.tmp`, fsync it,
/// rename it over `path`, fsync the directory. A crash at any step
/// leaves either the old entry or the whole new file, never a torn or
/// empty one; a stale `<path>.tmp` from an interrupted call is
/// truncated and reused.
///
/// The crate's one durable write: segments, the manifest, the feed
/// record, `vtld simulate --out`, `--metrics-out` and every `--csv-dir`
/// file all go through it.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if path.file_name().is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a durable write needs a file name",
        ));
    }
    let mut tmp_path = path.as_os_str().to_owned();
    tmp_path.push(".tmp");
    let mut file = File::create(&tmp_path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, path)?;
    // A bare file name's parent is the empty path: the working directory.
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// Fsyncs a directory so a just-renamed entry survives a crash.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn segment_file_name(slot: u32, seq: u64) -> String {
    format!("seg-{slot:03}-{seq:010}.vtseg")
}

fn parse_segment_file_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".vtseg")?;
    let (slot, seq) = rest.split_once('-')?;
    // Digits only: `str::parse` would also take a leading `+`.
    let digits = |s: &str, n: usize| s.len() == n && s.bytes().all(|b| b.is_ascii_digit());
    if !digits(slot, 3) || !digits(seq, 10) {
        return None;
    }
    Some((slot.parse().ok()?, seq.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentWriter;
    use vt_model::time::{Date, Timestamp};
    use vt_model::{FileType, ReportKind, ScanReport, VerdictVec};

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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vt-segdir-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Seals and persists `n` segments into slot `slot`, 4 samples × 3
    /// reports each.
    fn fill_slot(dir: &SegmentDir, slot: u32, n: u64) {
        let mut writer = SegmentWriter::new(12);
        let mut sealed = 0;
        let mut sample = u64::from(slot) * 10_000;
        while sealed < n {
            if let Some(segment) = writer.push_sample(&sample_batch(sample, 3)) {
                dir.persist(slot, &segment).expect("persist");
                sealed += 1;
            }
            sample += 1;
        }
    }

    /// What one replay told its caller, counted through its callbacks.
    struct Replayed {
        /// Every segment handed over as `(slot, segment)`, in order.
        seen: Vec<(u32, Segment)>,
        /// `on_quarantine` calls.
        quarantined: u64,
        /// The returned sealed-hash set.
        sealed_hashes: HashSet<SampleHash>,
    }

    impl Replayed {
        fn recovered(&self) -> u64 {
            self.seen.len() as u64
        }
    }

    fn replay_all(dir: &SegmentDir) -> Replayed {
        let (mut seen, mut quarantined) = (Vec::new(), 0);
        let sealed_hashes = dir
            .replay_each(
                |slot, segment| {
                    seen.push((slot, segment));
                    true
                },
                || quarantined += 1,
            )
            .expect("replay");
        Replayed {
            seen,
            quarantined,
            sealed_hashes,
        }
    }

    /// The `seq`s handed over for `slot`.
    fn seqs_of(seen: &[(u32, Segment)], slot: u32) -> Vec<u64> {
        seen.iter()
            .filter(|(s, _)| *s == slot)
            .map(|(_, segment)| segment.seq())
            .collect()
    }

    /// Flips a byte in the middle of `(slot, seq)`'s file: the strict
    /// read rejects it.
    fn damage(root: &Path, slot: u32, seq: u64) {
        let victim = root.join(segment_file_name(slot, seq));
        let mut bytes = fs::read(&victim).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&victim, bytes).expect("rewrite victim");
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(3, 17), "seg-003-0000000017.vtseg");
        assert_eq!(
            parse_segment_file_name("seg-003-0000000017.vtseg"),
            Some((3, 17))
        );
        for bogus in [
            "seg-3-17.vtseg",
            "seg-003-0000000017.vtseg.tmp",
            "segdir.manifest",
            "seg-003-0000000017.vtstore",
            // `str::parse` takes a sign; `segment_file_name` never prints one.
            "seg-+03-0000000017.vtseg",
            "seg-003-+000000017.vtseg",
            "seg-+01-+000000000.vtseg",
        ] {
            assert_eq!(parse_segment_file_name(bogus), None, "{bogus}");
        }
    }

    #[test]
    fn a_persisted_segment_is_on_disk_and_replay_recovers_it() {
        let root = temp_dir("durable");
        let dir = SegmentDir::open(&root, 2).expect("open");
        let mut writer = SegmentWriter::new(6);
        let mut segments: Vec<Segment> = (0..8u64)
            .filter_map(|sample| writer.push_sample(&sample_batch(sample, 3)))
            .collect();
        segments.extend(writer.finish());
        let mut sealed = 0u64;
        for segment in segments {
            let path = dir.persist(0, &segment).expect("persist");
            // The moment persist returns, the file is on disk, whole.
            assert_eq!(path, root.join(segment_file_name(0, segment.seq())));
            let mut bytes = Vec::new();
            write_segment(&segment, &mut bytes).expect("encode");
            assert_eq!(fs::read(&path).expect("read back"), bytes);
            sealed += 1;
        }
        assert!(dir.has_segments().expect("scan"));

        let replay = replay_all(&dir);
        assert_eq!(replay.quarantined, 0);
        assert_eq!(replay.recovered(), sealed);
        let seen = &replay.seen;
        assert!(seqs_of(seen, 1).is_empty());
        assert!(seqs_of(seen, 0).into_iter().eq(0..sealed));
        let total: u64 = seen.iter().map(|(_, s)| s.store().report_count()).sum();
        assert_eq!(total, 24);
        let expected: HashSet<SampleHash> = (0..8).map(SampleHash::from_ordinal).collect();
        assert_eq!(replay.sealed_hashes, expected);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn replay_quarantines_damaged_segment_and_orphaned_suffix() {
        let root = temp_dir("quarantine");
        let dir = SegmentDir::open(&root, 2).expect("open");
        fill_slot(&dir, 0, 4);
        fill_slot(&dir, 1, 2);
        // Stray tmp files from an interrupted persist are ignored.
        fs::write(root.join("seg-000-0000000099.vtseg.tmp"), b"junk").expect("tmp");

        damage(&root, 0, 1);

        let replay = replay_all(&dir);
        // Slot 0: seq 0 survives; seq 1 (damaged) and seqs 2..3
        // (orphaned behind the gap) quarantine. Slot 1 untouched.
        assert_eq!(seqs_of(&replay.seen, 0), [0]);
        assert_eq!(seqs_of(&replay.seen, 1), [0, 1]);
        assert_eq!(replay.recovered(), 3);
        assert_eq!(replay.quarantined, 3);
        for seq in [1u64, 2, 3] {
            let q = root.join(QUARANTINE).join(segment_file_name(0, seq));
            assert!(q.is_file(), "expected {} in quarantine", q.display());
        }
        // Quarantined files are out of the way: a second replay sees a
        // clean directory with the same prefix.
        let again = replay_all(&dir);
        assert_eq!(again.recovered(), 3);
        assert_eq!(again.quarantined, 0);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn replay_reports_the_hashes_of_accepted_segments_only() {
        let root = temp_dir("hashes");
        let dir = SegmentDir::open(&root, 1).expect("open");
        fill_slot(&dir, 0, 3); // samples 0..12, four per segment
        let victim = root.join(segment_file_name(0, 1));
        let mut bytes = fs::read(&victim).expect("read victim");
        let last = bytes.len() - 1;
        // The catch-all partition's block count, the file's last word:
        // every row of the file has reached the sink by then.
        bytes[last] ^= 0x01;
        fs::write(&victim, bytes).expect("rewrite victim");
        let replay = replay_all(&dir);
        assert_eq!(seqs_of(&replay.seen, 0), [0]);
        let expected: HashSet<SampleHash> = (0..4).map(SampleHash::from_ordinal).collect();
        assert_eq!(replay.sealed_hashes, expected);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn a_second_quarantine_of_the_same_name_keeps_both_files() {
        let root = temp_dir("requarantine");
        let dir = SegmentDir::open(&root, 1).expect("open");
        let victim = root.join(segment_file_name(0, 0));
        for (round, junk) in [&b"first damage"[..], b"second damage"].iter().enumerate() {
            // A re-sealed (slot, seq) damaged again before the next recovery.
            fs::write(&victim, junk).expect("write victim");
            assert_eq!(replay_all(&dir).quarantined, 1, "round {round}");
        }
        let qdir = root.join(QUARANTINE);
        let name = segment_file_name(0, 0);
        assert_eq!(fs::read(qdir.join(&name)).expect("first"), b"first damage");
        assert_eq!(
            fs::read(qdir.join(format!("{name}.1"))).expect("second"),
            b"second damage"
        );
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn replay_quarantines_a_segment_with_trailing_bytes() {
        let root = temp_dir("trailing");
        let dir = SegmentDir::open(&root, 1).expect("open");
        fill_slot(&dir, 0, 3);
        let victim = root.join(segment_file_name(0, 1));
        let mut bytes = fs::read(&victim).expect("read victim");
        bytes.extend_from_slice(b"tail");
        fs::write(&victim, bytes).expect("rewrite victim");

        let replay = replay_all(&dir);
        assert_eq!(
            seqs_of(&replay.seen, 0),
            [0],
            "the prefix ends before the victim"
        );
        assert_eq!(replay.recovered(), 1);
        assert_eq!(replay.quarantined, 2);
        for seq in [1u64, 2] {
            assert!(root
                .join(QUARANTINE)
                .join(segment_file_name(0, seq))
                .is_file());
        }
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn manifest_slot_count_is_enforced() {
        let root = temp_dir("manifest");
        let dir = SegmentDir::open(&root, 8).expect("open");
        assert_eq!(dir.slots(), 8);
        drop(dir);
        let reopened = SegmentDir::open(&root, 8).expect("same slot count reopens");
        assert_eq!(reopened.slots(), 8);
        let err = SegmentDir::open(&root, 4).expect_err("slot mismatch must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    /// A fresh log records its feed, a resumed one keeps it, and a
    /// resume under another feed is refused without touching the record;
    /// a log written before records existed adopts the resuming feed.
    #[test]
    fn a_resumed_log_keeps_the_feed_it_was_pinned_to() {
        let root = temp_dir("feed");
        let dir = SegmentDir::open(&root, 1).expect("open");
        let record = || fs::read_to_string(root.join(FEED)).expect("feed record");
        dir.pin_feed("seed=7 samples=30", false)
            .expect("a fresh log pins");
        assert_eq!(record(), "seed=7 samples=30\n");
        dir.pin_feed("seed=7 samples=30", true)
            .expect("the same feed resumes");
        let err = dir
            .pin_feed("seed=8 samples=30", true)
            .expect_err("another feed");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(
            msg.contains("feed seed=7 samples=30, not seed=8 samples=30;"),
            "{msg}"
        );
        assert_eq!(record(), "seed=7 samples=30\n", "a refusal changes nothing");
        fs::remove_file(root.join(FEED)).expect("unpin");
        dir.pin_feed("seed=8 samples=30", true)
            .expect("no record to disagree");
        assert_eq!(record(), "seed=8 samples=30\n");
        fs::remove_dir_all(&root).expect("cleanup");
    }

    /// A first start interrupted before its manifest rename leaves only
    /// `segdir.manifest.tmp`; the next start writes the manifest whole
    /// through the same tmp → fsync → rename path and leaves no `.tmp`.
    #[test]
    fn a_stale_manifest_tmp_is_replaced_by_a_whole_manifest() {
        let root = temp_dir("manifest-tmp");
        fs::create_dir_all(&root).expect("mkdir");
        let tmp = root.join(format!("{MANIFEST}.tmp"));
        fs::write(&tmp, b"VTSEG").expect("stale tmp");
        let dir = SegmentDir::open(&root, 3).expect("opens over a stale tmp");
        assert_eq!(dir.slots(), 3);
        assert_eq!(
            fs::read_to_string(root.join(MANIFEST)).expect("manifest"),
            format!("{MANIFEST_TAG} slots=3\n")
        );
        assert!(!tmp.exists(), "the tmp was renamed into place");
        SegmentDir::open(&root, 3).expect("reopens");
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn replay_quarantines_out_of_range_slots_and_header_mismatches() {
        let root = temp_dir("misc");
        let dir = SegmentDir::open(&root, 1).expect("open");
        fill_slot(&dir, 0, 2);
        // A file claiming slot 7 in a 1-slot directory.
        fs::copy(
            root.join(segment_file_name(0, 0)),
            root.join("seg-007-0000000000.vtseg"),
        )
        .expect("copy");
        // A file whose name seq disagrees with its header seq.
        fs::copy(
            root.join(segment_file_name(0, 1)),
            root.join("seg-000-0000000005.vtseg"),
        )
        .expect("copy");
        let replay = replay_all(&dir);
        assert_eq!(seqs_of(&replay.seen, 0), [0, 1]);
        assert_eq!(replay.quarantined, 2);
        fs::remove_dir_all(&root).expect("cleanup");
    }

    /// A foreign file whose name merely *parses* as `(1, 0)` must not
    /// shadow the real segment and orphan the slot behind it.
    #[test]
    fn replay_ignores_a_signed_name_beside_the_real_segment() {
        let root = temp_dir("signed");
        let dir = SegmentDir::open(&root, 2).expect("open");
        fill_slot(&dir, 1, 3);
        let stray = root.join("seg-+01-+000000000.vtseg");
        fs::copy(root.join(segment_file_name(1, 0)), &stray).expect("copy");
        let replay = replay_all(&dir);
        assert_eq!(replay.recovered(), 3);
        assert_eq!(replay.quarantined, 0);
        assert!(stray.exists(), "a foreign file stays where it was");
        fs::remove_dir_all(&root).expect("cleanup");
    }

    /// What the replay tells its caller, in the order it tells it.
    #[derive(Debug, PartialEq)]
    enum Told {
        Segment(u32, u64),
        Quarantined,
    }

    /// Only whole segments of the clean prefix are handed over, in
    /// `(slot, seq)` order, each before the next file is read; a file
    /// is counted as it is quarantined, not once the replay ends.
    #[test]
    fn replay_hands_over_exactly_the_clean_prefix_in_order() {
        let root = temp_dir("stream");
        let dir = SegmentDir::open(&root, 2).expect("open");
        fill_slot(&dir, 0, 4);
        fill_slot(&dir, 1, 2);
        damage(&root, 0, 2);

        let told = std::cell::RefCell::new(Vec::new());
        let sealed_hashes = dir
            .replay_each(
                |slot, segment| {
                    told.borrow_mut().push(Told::Segment(slot, segment.seq()));
                    true
                },
                || told.borrow_mut().push(Told::Quarantined),
            )
            .expect("replay");
        let told = told.into_inner();
        assert_eq!(
            told,
            [
                Told::Segment(0, 0),
                Told::Segment(0, 1),
                Told::Quarantined,
                Told::Quarantined,
                Told::Segment(1, 0),
                Told::Segment(1, 1),
            ]
        );
        let handed = told
            .iter()
            .filter(|t| matches!(t, Told::Segment(..)))
            .count();
        assert_eq!(
            (handed, told.len() - handed),
            (4, 2),
            "recovered, quarantined"
        );
        let quarantined: HashSet<_> = fs::read_dir(root.join(QUARANTINE))
            .expect("quarantine dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        let expected: HashSet<_> = [2, 3].map(|seq| segment_file_name(0, seq).into()).into();
        assert_eq!(quarantined, expected);
        // `fill_slot` seals four samples per segment from `slot * 10 000`.
        let accepted: HashSet<SampleHash> = (0..8)
            .chain(10_000..10_008)
            .map(SampleHash::from_ordinal)
            .collect();
        assert_eq!(sealed_hashes, accepted);

        // A consumer that is gone ends the replay at the segment it
        // refused: nothing past it is read.
        let mut handed = 0;
        let stopped = dir
            .replay_each(
                |_, _| {
                    handed += 1;
                    false
                },
                || {},
            )
            .expect("replay");
        assert_eq!(handed, 1);
        let first: HashSet<SampleHash> = (0..4).map(SampleHash::from_ordinal).collect();
        assert_eq!(stopped, first, "the set covers the one segment visited");
        fs::remove_dir_all(&root).expect("cleanup");
    }
}
