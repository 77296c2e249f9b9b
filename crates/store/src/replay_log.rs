//! [`SegmentDir::replay`]: the streaming replay collected into memory.
//!
//! The daemon never holds the log: it folds each segment as
//! [`SegmentDir::replay_each`] hands it over. This collected form stays
//! public only because the benchmark's traced replica
//! (`examples/benchmark/src/traced.rs`) replays through it (ROADMAP
//! item 1); it leaves once that pin is released.

use crate::segdir::SegmentDir;
use crate::segment::Segment;
use std::io;

/// [`SegmentDir::replay`]'s result: every slot's clean prefix, held in
/// memory at once.
#[derive(Debug)]
pub struct ReplayLog {
    /// Per-slot clean prefixes, `slots.len()` == the directory's slot
    /// count, each inner vec in ascending contiguous `seq` order.
    pub slots: Vec<Vec<Segment>>,
}

impl SegmentDir {
    /// [`replay_each`](Self::replay_each) collected into one
    /// [`ReplayLog`]: the same clean prefixes, the same quarantine.
    pub fn replay(&self) -> io::Result<ReplayLog> {
        let mut slots: Vec<Vec<Segment>> = (0..self.slots()).map(|_| Vec::new()).collect();
        self.replay_each(
            |slot, segment, _| {
                slots[slot as usize].push(segment);
                true
            },
            || {},
        )?;
        Ok(ReplayLog { slots })
    }
}
