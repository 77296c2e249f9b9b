//! Compressed, month-partitioned scan-report store.
//!
//! The paper's data engineering (§4.1) stores 847 M reports in MongoDB,
//! splitting sample info from scan results, keeping only relevant
//! fields, and compressing — reaching a 10.06× compression rate and the
//! per-month accounting of Table 2. This crate is that substrate as a
//! real, in-process storage engine:
//!
//! * [`codec`] — varint / zigzag-delta / packed-bitmap encoding of
//!   report columns.
//! * [`block`] — append → seal lifecycle of compressed report blocks.
//! * [`partition`] — one partition per calendar month of the collection
//!   window, with raw-vs-compressed byte accounting (Table 2's rows).
//! * [`store`] — one type per state: [`StoreBuilder`] is the append
//!   path, [`StoreBuilder::seal`] moves it into a read-only
//!   [`ReportStore`] (bulk iteration, grouping, and a per-sample gather
//!   that is a scan — the store keeps no per-sample index).
//!   [`StoreTally`] is a builder that keeps only Table 2's counts.
//!   [`group_reports`] is the one grouping, with or without a store.
//! * [`dataset`] — dataset-overview statistics: file-type distribution
//!   (Table 3), reports-per-sample CDF (Fig. 1), monthly volumes
//!   (Table 2).
//! * [`persist`] / [`crc32`] — the on-disk `VTSTORE2` container:
//!   checksummed, marker-framed blocks; a strict reader whose one
//!   decode per block is the integrity check *and* the read
//!   ([`read_store_into`] streams it into the caller's [`ReportSink`];
//!   [`read_store`] discards); and a salvage reader that recovers what
//!   a damaged monolithic file still holds.
//! * [`segment`] — sealed, append-ordered segments of the report
//!   stream: [`SegmentWriter`] cuts ingestion into whole-sample
//!   [`Segment`]s every N reports, each persistable through the same
//!   checksummed container and read back one way, strictly
//!   ([`read_segment_into`]), so the incremental pipeline folds
//!   O(segment) work per seal instead of recomputing the monolith.
//! * [`segdir`] — the serve tier's write-ahead log: a directory of
//!   durably persisted segments ([`SegmentDir::persist`] fsyncs file
//!   and directory; a writer persists each segment it seals before
//!   anything downstream sees it) with a crash-recovery scan
//!   ([`SegmentDir::replay_each`]) that hands over each slot's clean
//!   prefix — files the strict reader accepts whole — one segment at a
//!   time, each with its samples' hashes, and quarantines the rest.
//!
//! A layer hands its neighbour what it already holds: a report is
//! encoded once and decoded once on the batch and live-ingest paths
//! (twice on recovery), counted on [`StoreObs`] and asserted by
//! `tests/codec_budget.rs`.
//!
//! The store is synchronous and lock-free by construction: a builder
//! is owned by its one writer, and a sealed store is immutable data —
//! `Send + Sync`, shared by reference — in line with the project's
//! threads-over-async design for CPU-bound batch work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod codec;
pub mod crc32;
pub mod dataset;
pub mod partition;
pub mod persist;
mod replay_log;
pub mod segdir;
pub mod segment;
pub mod store;

pub use block::{Block, BlockDecodeError, ReportSink, SinkFn};
pub use codec::ReportRow;
pub use dataset::DatasetStats;
pub use partition::PartitionStats;
pub use persist::{
    read_store, read_store_into, read_store_salvage, write_store, CorruptKind, PartitionRecovery,
    PersistError, RecoveryReport, SalvageLabel,
};
pub use replay_log::ReplayLog;
pub use segdir::{write_durable, SegmentDir, SegmentFile};
pub use segment::{read_segment, read_segment_into, write_segment, Segment, SegmentWriter};
pub use store::{group_reports, ReportStore, StoreBuilder, StoreError, StoreObs, StoreTally};
