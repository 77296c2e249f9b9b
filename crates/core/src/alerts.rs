//! Streaming drift alerting over segment folds (§8.1, ROADMAP item 5).
//!
//! The paper's §8.1 recommends notifying users when a sample's AV-Rank
//! stabilizes or swings; this module generalizes that to *engine-level*
//! drift detection over the live ingest stream. An [`AlertEngine`]
//! rides along one slot's [`IncrementalStudy`](crate::IncrementalStudy)
//! (see [`with_alerts`](crate::IncrementalStudy::with_alerts)) and
//! observes every sealed segment as it is folded, running four
//! detectors:
//!
//! | id | detector | signal |
//! |---|---|---|
//! | 0 | `engine_burst` | one engine relabeling many samples the same day — the §7.1 "model update" signature |
//! | 1 | `rate_crossover` | two engines' cumulative detection rates swapping order |
//! | 2 | `stabilization_regression` | the segment's mean time-to-stabilize (§6, Fig. 9) regressing vs the running baseline |
//! | 3 | `sample_event` | per-sample [`SampleMonitor`] events (destabilized / swing) |
//!
//! **Determinism.** Every detector is a fold over *slot-local* state:
//! the per-segment inputs (the segment's columnar table and its
//! [`StudyPartials`] delta) and the accumulated baseline are
//! bit-identical however the serve tier is sharded, because segments
//! within a slot always fold in WAL sequence order. Ordinals within one
//! `(slot, seq, detector)` group come from deterministic orders
//! (`BTreeMap` iteration, engine-index pair order, canonical table
//! order), so the full alert stream — keyed `(seq, slot, detector,
//! ordinal)` — is bit-identical at any shard × worker count, and
//! replaying a crash-recovered WAL regenerates exactly the same alerts
//! under the same keys.

use std::collections::BTreeMap;

use vt_model::engine::MAX_ENGINES;
use vt_model::{SampleHash, Timestamp};

use crate::incremental::StudyPartials;
use crate::monitor::{MonitorCriteria, MonitorEvent, SampleMonitor};
use crate::table::TrajectoryTable;

/// Stable numeric detector ids — the `detector` component of an alert
/// key. Wire clients and sink consumers key dedup off these, so they
/// are append-only.
pub mod detector {
    /// [`AlertKind::EngineBurst`](super::AlertKind::EngineBurst).
    pub const ENGINE_BURST: u8 = 0;
    /// [`AlertKind::RateCrossover`](super::AlertKind::RateCrossover).
    pub const RATE_CROSSOVER: u8 = 1;
    /// [`AlertKind::StabilizationRegression`](super::AlertKind::StabilizationRegression).
    pub const STABILIZATION_REGRESSION: u8 = 2;
    /// [`AlertKind::SampleEvent`](super::AlertKind::SampleEvent).
    pub const SAMPLE_EVENT: u8 = 3;
}

/// One fired drift alert. The four id fields form the alert's identity;
/// [`kind`](Self::kind) carries the detector-specific payload in
/// integers only (minutes, counts, engine indexes), so a rendered alert
/// is bit-stable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Ingest slot whose segment stream fired the alert.
    pub slot: u32,
    /// Segment sequence number within the slot, aligned with the
    /// durable WAL's segment order — crash-recovery replay regenerates
    /// the same `seq` for the same segment.
    pub seq: u64,
    /// Detector id (see [`detector`]).
    pub detector: u8,
    /// Position within the `(slot, seq, detector)` group, assigned in a
    /// deterministic order by each detector.
    pub ordinal: u32,
    /// What fired.
    pub kind: AlertKind,
}

impl Alert {
    /// The global ordering/dedup key. `seq` leads so alert streams from
    /// different slots interleave by segment progress, not by slot.
    pub fn key(&self) -> (u64, u32, u8, u32) {
        (self.seq, self.slot, self.detector, self.ordinal)
    }

    /// Wire name of the detector that fired.
    pub fn detector_name(&self) -> &'static str {
        match self.detector {
            detector::ENGINE_BURST => "engine_burst",
            detector::RATE_CROSSOVER => "rate_crossover",
            detector::STABILIZATION_REGRESSION => "stabilization_regression",
            detector::SAMPLE_EVENT => "sample_event",
            _ => "unknown",
        }
    }
}

/// Detector-specific alert payloads. Engines are dense roster indexes
/// (the serve tier renders names); all quantities are exact integers so
/// rendering never depends on float formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertKind {
    /// One engine flipped `flips` fresh-dynamic samples on one day —
    /// the mass same-day relabel burst a vendor model update produces
    /// (§7.1's flip-cause analysis, streamed).
    EngineBurst {
        /// Dense engine index.
        engine: u32,
        /// Day number (whole days since the window epoch) of the burst.
        day: i64,
        /// Label flips attributed to that engine on that day.
        flips: u64,
    },
    /// Two engines' cumulative detection rates crossed: `overtaking`
    /// was strictly below `overtaken` before this segment and is
    /// strictly above after it.
    RateCrossover {
        /// Engine that moved above.
        overtaking: u32,
        /// Engine that was overtaken.
        overtaken: u32,
        /// Cumulative detections of the overtaking engine (post-segment).
        overtaking_detections: u64,
        /// Cumulative scans of the overtaking engine (post-segment).
        overtaking_scans: u64,
        /// Cumulative detections of the overtaken engine (post-segment).
        overtaken_detections: u64,
        /// Cumulative scans of the overtaken engine (post-segment).
        overtaken_scans: u64,
    },
    /// The segment's mean minutes-to-stabilize at the configured Fig. 9
    /// threshold regressed past the configured factor of the running
    /// baseline's mean.
    StabilizationRegression {
        /// The Fig. 9 AV-Rank threshold the regression was measured at.
        threshold: u32,
        /// Segment mean minutes-to-stabilize (integer floor).
        segment_mean_minutes: u64,
        /// Baseline (all prior segments) mean minutes-to-stabilize.
        baseline_mean_minutes: u64,
        /// Stabilized samples in the segment at this threshold.
        segment_stabilized: u64,
    },
    /// A per-sample [`SampleMonitor`] event — the §8.1 notification
    /// feature, streamed over the whole ingest.
    SampleEvent {
        /// The sample whose trajectory fired.
        hash: SampleHash,
        /// The monitor event (destabilized or swing; plain
        /// stabilizations are counted in totals but not alerted).
        event: MonitorEvent,
    },
}

/// Detector tuning. Every threshold is an exact integer (permille
/// ratios, not floats) so firing decisions are bit-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertConfig {
    /// Slot id stamped on every alert this engine emits.
    pub slot: u32,
    /// Minimum same-day flips by one engine to fire an `engine_burst`.
    pub burst_min: u64,
    /// Cap on `engine_burst` alerts per segment (largest bursts beyond
    /// the cap are dropped in deterministic `(engine, day)` order).
    pub max_burst_alerts: usize,
    /// Minimum cumulative scans *before* the segment for an engine to
    /// participate in crossover comparisons.
    pub crossover_min_scans: u64,
    /// Minimum post-crossover rate gap, in permille of detection rate.
    pub crossover_min_gap_permille: u64,
    /// Cap on `rate_crossover` alerts per segment.
    pub max_crossover_alerts: usize,
    /// Fig. 9 threshold the regression detector watches (must be one of
    /// [`FIG9_THRESHOLDS`](crate::stabilization::FIG9_THRESHOLDS)).
    pub regression_threshold: u32,
    /// Fire when `segment_mean ≥ factor/1000 × baseline_mean`.
    pub regression_factor_permille: u64,
    /// Minimum stabilized samples (segment and baseline both) before
    /// the regression comparison is meaningful.
    pub regression_min_stabilized: u64,
    /// Per-sample monitor criteria (§8.1 "user-customizable").
    pub criteria: MonitorCriteria,
    /// Cap on `sample_event` alerts per segment (events beyond the cap
    /// still count in [`AlertTotals`]).
    pub max_sample_alerts: usize,
}

impl Default for AlertConfig {
    fn default() -> Self {
        Self {
            slot: 0,
            burst_min: 8,
            max_burst_alerts: 16,
            crossover_min_scans: 500,
            crossover_min_gap_permille: 2,
            max_crossover_alerts: 16,
            regression_threshold: 10,
            regression_factor_permille: 1_250,
            regression_min_stabilized: 20,
            criteria: MonitorCriteria::default(),
            max_sample_alerts: 16,
        }
    }
}

/// Cumulative event totals, including monitor events that the
/// per-segment alert cap suppressed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlertTotals {
    /// Alerts emitted (all detectors).
    pub fired: u64,
    /// [`MonitorEvent::Stabilized`] events observed.
    pub stabilized: u64,
    /// [`MonitorEvent::Destabilized`] events observed.
    pub destabilized: u64,
    /// [`MonitorEvent::Swing`] events observed.
    pub swings: u64,
}

/// Slot-local streaming drift detector state: a fold over the slot's
/// segment sequence. Feeding the same segments in the same order always
/// yields the same alerts — the serve tier relies on this to replay a
/// crash-recovered WAL without inventing or losing alerts.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    config: AlertConfig,
    /// Next segment sequence number (aligned with the WAL).
    seq: u64,
    /// Cumulative per-engine scan counts across folded segments.
    scans: Vec<u64>,
    /// Cumulative per-engine detection counts across folded segments.
    detections: Vec<u64>,
    /// The regression baseline: `(stabilized, minutes_sum)` at
    /// `regression_threshold`, summed over folded segments.
    stabilized: (u64, u64),
    /// Alerts fired but not yet drained by the caller.
    pending: Vec<Alert>,
    totals: AlertTotals,
}

impl AlertEngine {
    /// A fresh detector bank at segment sequence 0.
    pub fn new(config: AlertConfig) -> Self {
        Self {
            config,
            seq: 0,
            scans: vec![0; MAX_ENGINES],
            detections: vec![0; MAX_ENGINES],
            stabilized: (0, 0),
            pending: Vec::new(),
            totals: AlertTotals::default(),
        }
    }

    /// The tuning this bank runs with.
    pub fn config(&self) -> &AlertConfig {
        &self.config
    }

    /// Segments observed so far (the next alert's `seq`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Cumulative event totals.
    pub fn totals(&self) -> AlertTotals {
        self.totals
    }

    /// Drains alerts fired since the last drain, in key order.
    pub fn take_pending(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.pending)
    }

    /// Runs every detector over one sealed segment: `seg` is the
    /// segment's own partial delta, `table` its columnar trajectories.
    /// Every baseline a detector compares against — the cumulative
    /// per-engine rates, the regression's stabilization sums — is this
    /// engine's own, advanced here by the segment, so nothing reads the
    /// study's accumulation.
    pub fn observe_segment(&mut self, seg: &StudyPartials, table: &TrajectoryTable) {
        let seq = self.seq;
        self.seq += 1;
        let mut out = Vec::new();
        self.detect_bursts(seq, table, &mut out);
        self.detect_crossovers(seq, table, &mut out);
        self.detect_regression(seq, seg, &mut out);
        self.detect_sample_events(seq, table, &mut out);
        self.totals.fired += out.len() as u64;
        self.pending.extend(out);
    }

    fn alert(&self, seq: u64, detector: u8, ordinal: u32, kind: AlertKind) -> Alert {
        Alert {
            slot: self.config.slot,
            seq,
            detector,
            ordinal,
            kind,
        }
    }

    /// Detector 0: per-(engine, day) flip counts over the segment's
    /// fresh-dynamic samples, walked with the same bit-sliced lane
    /// state as the §7.1 fold so the counts match the flip analysis.
    fn detect_bursts(&mut self, seq: u64, table: &TrajectoryTable, out: &mut Vec<Alert>) {
        let mut per_day: BTreeMap<(u32, i64), u64> = BTreeMap::new();
        let active = table.active_rows();
        let detected = table.detected_rows();
        for i in 0..table.len() {
            if !table.in_s(i) {
                continue;
            }
            let range = table.rows(i);
            // [seen lo, seen hi, prev lo, prev hi], as in the index walk.
            let mut state = [0u64; 4];
            for ((row, a), d) in range
                .clone()
                .zip(&active[range.clone()])
                .zip(&detected[range])
            {
                let flipped = [
                    (state[2] ^ d[0]) & a[0] & state[0],
                    (state[3] ^ d[1]) & a[1] & state[1],
                ];
                if flipped[0] | flipped[1] != 0 {
                    let day = table.date(row).day_number();
                    for (w, mut bits) in flipped.into_iter().enumerate() {
                        while bits != 0 {
                            let engine = bits.trailing_zeros() + 64 * w as u32;
                            *per_day.entry((engine, day)).or_insert(0) += 1;
                            bits &= bits - 1;
                        }
                    }
                }
                state[2] = (state[2] & !a[0]) | (d[0] & a[0]);
                state[3] = (state[3] & !a[1]) | (d[1] & a[1]);
                state[0] |= a[0];
                state[1] |= a[1];
            }
        }
        let mut ordinal = 0u32;
        for (&(engine, day), &flips) in &per_day {
            if flips < self.config.burst_min {
                continue;
            }
            if ordinal as usize >= self.config.max_burst_alerts {
                break;
            }
            out.push(self.alert(
                seq,
                detector::ENGINE_BURST,
                ordinal,
                AlertKind::EngineBurst { engine, day, flips },
            ));
            ordinal += 1;
        }
    }

    /// Detector 1: cumulative detection-rate order reversals, compared
    /// by exact cross-multiplication — no float rates anywhere near a
    /// firing decision. Per-segment scan/detection counts come from the
    /// bit-sliced vertical counter ([`engine_report_counts`]), and the
    /// O(engines²) pair scan is prefiltered by exact rate ranks
    /// ([`rate_ranks`]): only pairs whose rank order actually inverted
    /// pay the cross-multiplied confirmation, which keeps this detector
    /// off the segment-fold critical path's budget.
    fn detect_crossovers(&mut self, seq: u64, table: &TrajectoryTable, out: &mut Vec<Alert>) {
        let (seg_scans, seg_dets) = engine_report_counts(table);
        // Engines past the scan floor, ascending id — the only possible
        // crossover parties. Pair order over this list is identical to
        // the naive `i < j` scan with ineligible engines skipped.
        let eligible: Vec<usize> = (0..MAX_ENGINES)
            .filter(|&e| self.scans[e] >= self.config.crossover_min_scans)
            .collect();
        // Rank the eligible engines by exact rate order before and after
        // this segment. Ranks are order-isomorphic to the cross-
        // multiplied comparison (exact ties share a rank), so a pair's
        // rate order inverted iff its rank order inverted — two integer
        // compares per pair instead of four u128 multiplications.
        let before_rank = rate_ranks(&eligible, |e| (self.detections[e], self.scans[e]));
        let after_rank = rate_ranks(&eligible, |e| {
            (
                self.detections[e] + seg_dets[e],
                self.scans[e] + seg_scans[e],
            )
        });
        let mut ordinal = 0u32;
        'pairs: for (xi, &i) in eligible.iter().enumerate() {
            for (off, &j) in eligible[xi + 1..].iter().enumerate() {
                let xj = xi + 1 + off;
                if seg_scans[i] == 0 && seg_scans[j] == 0 {
                    continue;
                }
                let inverted = (before_rank[xi] < before_rank[xj]
                    && after_rank[xi] > after_rank[xj])
                    || (before_rank[xi] > before_rank[xj] && after_rank[xi] < after_rank[xj]);
                if !inverted {
                    continue;
                }
                let before = rate_cmp(
                    self.detections[i],
                    self.scans[i],
                    self.detections[j],
                    self.scans[j],
                );
                let (di, si) = (
                    self.detections[i] + seg_dets[i],
                    self.scans[i] + seg_scans[i],
                );
                let (dj, sj) = (
                    self.detections[j] + seg_dets[j],
                    self.scans[j] + seg_scans[j],
                );
                let after = rate_cmp(di, si, dj, sj);
                use std::cmp::Ordering::{Greater, Less};
                let (up, down) = match (before, after) {
                    (Less, Greater) => ((di, si), (dj, sj)),
                    (Greater, Less) => ((dj, sj), (di, si)),
                    _ => continue,
                };
                // Post-crossover gap ≥ min_gap_permille, exactly:
                // (d_up/s_up − d_dn/s_dn) × 1000 ≥ gap.
                let gap_lhs = (up.0 as u128 * down.1 as u128 - down.0 as u128 * up.1 as u128)
                    .saturating_mul(1000);
                let gap_rhs =
                    self.config.crossover_min_gap_permille as u128 * up.1 as u128 * down.1 as u128;
                if gap_lhs < gap_rhs {
                    continue;
                }
                if ordinal as usize >= self.config.max_crossover_alerts {
                    break 'pairs;
                }
                let (overtaking, overtaken) = if up == (di, si) {
                    (i as u32, j as u32)
                } else {
                    (j as u32, i as u32)
                };
                out.push(self.alert(
                    seq,
                    detector::RATE_CROSSOVER,
                    ordinal,
                    AlertKind::RateCrossover {
                        overtaking,
                        overtaken,
                        overtaking_detections: up.0,
                        overtaking_scans: up.1,
                        overtaken_detections: down.0,
                        overtaken_scans: down.1,
                    },
                ));
                ordinal += 1;
            }
        }
        for e in 0..MAX_ENGINES {
            self.scans[e] += seg_scans[e];
            self.detections[e] += seg_dets[e];
        }
    }

    /// Detector 2: the segment's mean minutes-to-stabilize (§6 label
    /// variant over all samples) vs the running baseline's — the sums
    /// over all prior segments, empty before the first — compared by
    /// exact cross-multiplication against the configured factor.
    fn detect_regression(&mut self, seq: u64, seg: &StudyPartials, out: &mut Vec<Alert>) {
        let t = self.config.regression_threshold;
        let Some((_, s_st, s_min)) = seg
            .stabilization_partial()
            .label_all_totals()
            .find(|&(tt, _, _)| tt == t)
        else {
            return;
        };
        let (b_st, b_min) = self.stabilized;
        self.stabilized = (b_st + s_st, b_min + s_min);
        let floor = self.config.regression_min_stabilized;
        if s_st < floor.max(1) || b_st < floor.max(1) {
            return;
        }
        if s_min == 0 && b_min == 0 {
            // Everything stabilized instantly on both sides — a zero
            // mean cannot regress from a zero baseline.
            return;
        }
        // s_min/s_st ≥ factor/1000 × b_min/b_st.
        let lhs = s_min as u128 * b_st as u128 * 1000;
        let rhs = self.config.regression_factor_permille as u128 * b_min as u128 * s_st as u128;
        if lhs < rhs {
            return;
        }
        out.push(self.alert(
            seq,
            detector::STABILIZATION_REGRESSION,
            0,
            AlertKind::StabilizationRegression {
                threshold: t,
                segment_mean_minutes: s_min / s_st,
                baseline_mean_minutes: b_min / b_st,
                segment_stabilized: s_st,
            },
        ));
    }

    /// Detector 3: the §8.1 per-sample monitor over every trajectory in
    /// the segment (segments always hold whole samples, so one pass per
    /// segment sees each sample's full report stream).
    fn detect_sample_events(&mut self, seq: u64, table: &TrajectoryTable, out: &mut Vec<Alert>) {
        let mut ordinal = 0u32;
        // One monitor reused across every sample: `reset` keeps the
        // window buffer's capacity, so steady state runs allocation-free.
        let mut monitor = SampleMonitor::new(self.config.criteria);
        for i in 0..table.len() {
            if table.report_count(i) < 2 {
                continue;
            }
            monitor.reset();
            let hash = table.hash(i);
            for (&at, &rank) in table.dates_of(i).iter().zip(table.positives_of(i)) {
                for event in monitor.observe(Timestamp(at), rank) {
                    let emit = match event {
                        MonitorEvent::Stabilized { .. } => {
                            self.totals.stabilized += 1;
                            false
                        }
                        MonitorEvent::Destabilized { .. } => {
                            self.totals.destabilized += 1;
                            true
                        }
                        MonitorEvent::Swing { .. } => {
                            self.totals.swings += 1;
                            true
                        }
                    };
                    if emit && (ordinal as usize) < self.config.max_sample_alerts {
                        out.push(self.alert(
                            seq,
                            detector::SAMPLE_EVENT,
                            ordinal,
                            AlertKind::SampleEvent { hash, event },
                        ));
                        ordinal += 1;
                    }
                }
            }
        }
    }
}

/// Exact rate order of `di/si` vs `dj/sj` by u128 cross-multiplication.
#[inline]
fn rate_cmp(di: u64, si: u64, dj: u64, sj: u64) -> std::cmp::Ordering {
    (di as u128 * sj as u128).cmp(&(dj as u128 * si as u128))
}

/// Dense rate ranks over `eligible` (indexed by list position): engines
/// sorted by the exact cross-multiplied rate order, exact ties sharing
/// a rank — so `rank[x] < rank[y]` iff x's rate is strictly below y's.
fn rate_ranks(eligible: &[usize], rate: impl Fn(usize) -> (u64, u64)) -> Vec<u32> {
    let mut order: Vec<u32> = (0..eligible.len() as u32).collect();
    order.sort_unstable_by(|&x, &y| {
        let (dx, sx) = rate(eligible[x as usize]);
        let (dy, sy) = rate(eligible[y as usize]);
        rate_cmp(dx, sx, dy, sy).then(x.cmp(&y))
    });
    let mut ranks = vec![0u32; eligible.len()];
    let mut r = 0u32;
    for k in 1..order.len() {
        let (dp, sp) = rate(eligible[order[k - 1] as usize]);
        let (dc, sc) = rate(eligible[order[k] as usize]);
        if rate_cmp(dp, sp, dc, sc) != std::cmp::Ordering::Equal {
            r += 1;
        }
        ranks[order[k] as usize] = r;
    }
    ranks
}

/// Per-engine (active, detected) report counts over every row of one
/// segment's table, accumulated with bit-sliced carry-save counters:
/// each engine's count grows vertically across [`PLANES`] bit planes
/// (bit `e` of plane `p` is bit `p` of engine `e`'s count), flushed
/// into the 64-bit totals at most once per 2^PLANES - 1 rows — once
/// per segment in practice. A row costs a handful of word ops for
/// all 128 engines instead of one loop iteration per set bit — the
/// totals are bit-exactly those of the per-bit walk.
fn engine_report_counts(table: &TrajectoryTable) -> (Vec<u64>, Vec<u64>) {
    let mut scans = vec![0u64; MAX_ENGINES];
    let mut dets = vec![0u64; MAX_ENGINES];
    let mut scan_planes = [[0u64; PLANES]; 2];
    let mut det_planes = [[0u64; PLANES]; 2];
    let mut pending = 0u32;
    for (a, d) in table.active_rows().iter().zip(table.detected_rows()) {
        for w in 0..2 {
            vertical_add(&mut scan_planes[w], a[w]);
            vertical_add(&mut det_planes[w], d[w] & a[w]);
        }
        pending += 1;
        if pending == (1 << PLANES) - 1 {
            flush_planes(&mut scan_planes, &mut scans);
            flush_planes(&mut det_planes, &mut dets);
            pending = 0;
        }
    }
    if pending > 0 {
        flush_planes(&mut scan_planes, &mut scans);
        flush_planes(&mut det_planes, &mut dets);
    }
    (scans, dets)
}

/// Bit planes per vertical counter: counts up to 2^16 - 1 rows between
/// flushes, so a typical segment flushes exactly once.
const PLANES: usize = 16;

/// Adds one 64-lane bit vector into a vertical counter by ripple-carry
/// across planes. Callers flush before 2^PLANES - 1 adds, so the carry
/// cannot run off the top plane.
#[inline]
fn vertical_add(planes: &mut [u64; PLANES], mut carry: u64) {
    // The low planes run branch-free: a carry survives past plane 4 for
    // only ~1/16 of adds, so one well-predicted branch replaces four
    // unpredictable early exits on the hot path.
    for p in &mut planes[..4] {
        let t = *p & carry;
        *p ^= carry;
        carry = t;
    }
    if carry == 0 {
        return;
    }
    for p in &mut planes[4..] {
        if carry == 0 {
            return;
        }
        let t = *p & carry;
        *p ^= carry;
        carry = t;
    }
    debug_assert_eq!(carry, 0, "vertical counter overflow: flush cadence broken");
}

/// Drains a two-bank 8-plane vertical counter into per-engine totals
/// and zeroes the planes.
fn flush_planes(planes: &mut [[u64; PLANES]; 2], totals: &mut [u64]) {
    for (w, bank) in planes.iter_mut().enumerate() {
        for (p, plane) in bank.iter_mut().enumerate() {
            let mut bits = *plane;
            while bits != 0 {
                let e = bits.trailing_zeros() as usize + 64 * w;
                totals[e] += 1 << p;
                bits &= bits - 1;
            }
            *plane = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::SampleRecord;
    use vt_engines::EngineFleet;
    use vt_model::time::{Date, Duration};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleMeta, ScanReport, Verdict, VerdictVec,
    };
    use vt_obs::Obs;

    fn window() -> Timestamp {
        Timestamp::from_date(Date::new(2021, 5, 1))
    }

    fn meta(i: u64) -> SampleMeta {
        let first = window() + Duration::days(1);
        SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: FileType::Win32Exe,
            origin: first - Duration::days(2),
            first_submission: first,
            truth: GroundTruth::Benign,
        }
    }

    /// A fresh Win32 sample (→ in *S* whenever its AV-Rank moves) whose
    /// k-th report has `active` engines labeling and `detections[k]`
    /// detecting, reports `minutes_apart` apart.
    fn record_with(
        i: u64,
        active: &[usize],
        detections: &[&[usize]],
        minutes_apart: i64,
    ) -> SampleRecord {
        let m = meta(i);
        let reports = detections
            .iter()
            .enumerate()
            .map(|(k, det)| {
                let mut v = VerdictVec::new(70);
                for &e in active {
                    v.set(EngineId::new(e), Verdict::Benign);
                }
                for &e in *det {
                    v.set(EngineId::new(e), Verdict::Malicious);
                }
                ScanReport {
                    sample: m.hash,
                    file_type: m.file_type,
                    analysis_date: m.first_submission + Duration::minutes(k as i64 * minutes_apart),
                    last_submission_date: m.first_submission,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts: v,
                }
            })
            .collect();
        SampleRecord::new(m, reports)
    }

    fn table_of(records: &[SampleRecord]) -> TrajectoryTable {
        TrajectoryTable::build(records, window())
    }

    /// `reports` labels by engine 0 alternating detect / clear — one
    /// flip per report after the first, all on the same day.
    fn flippy_sample(i: u64, reports: usize) -> SampleRecord {
        let detections: Vec<&[usize]> = (0..reports)
            .map(|k| if k % 2 == 0 { &[0usize][..] } else { &[][..] })
            .collect();
        record_with(i, &[0, 1, 2], &detections, 10)
    }

    fn engine_of(config: AlertConfig) -> AlertEngine {
        AlertEngine::new(config)
    }

    /// Folds a real partial for the table so the regression detector
    /// has genuine §6 accumulators to read.
    fn partials_of(table: &TrajectoryTable) -> StudyPartials {
        let fleet = EngineFleet::with_seed(1);
        let mut study = crate::IncrementalStudy::new(&fleet, window()).with_workers(1);
        study.fold_table(table, Obs::noop());
        study.take_partials().expect("one table folded")
    }

    #[test]
    fn burst_detector_counts_same_day_flips() {
        // 3 samples × 4 reports = 3 engine-0 flips each, same day.
        let records: Vec<SampleRecord> = (0..3).map(|i| flippy_sample(i, 4)).collect();
        let table = table_of(&records);
        assert!((0..table.len()).all(|i| table.in_s(i)));
        let mut out = Vec::new();
        engine_of(AlertConfig {
            burst_min: 9,
            ..AlertConfig::default()
        })
        .detect_bursts(0, &table, &mut out);
        assert_eq!(out.len(), 1);
        match out[0].kind {
            AlertKind::EngineBurst { engine, day, flips } => {
                assert_eq!(engine, 0);
                assert_eq!(day, (window() + Duration::days(1)).day_number());
                assert_eq!(flips, 9);
            }
            ref other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(out[0].detector, detector::ENGINE_BURST);
        assert_eq!(out[0].ordinal, 0);
    }

    #[test]
    fn burst_detector_respects_threshold_and_cap() {
        let records: Vec<SampleRecord> = (0..3).map(|i| flippy_sample(i, 4)).collect();
        let table = table_of(&records);
        let mut out = Vec::new();
        engine_of(AlertConfig {
            burst_min: 10,
            ..AlertConfig::default()
        })
        .detect_bursts(0, &table, &mut out);
        assert!(out.is_empty(), "below burst_min must not fire");
        let mut capped = Vec::new();
        engine_of(AlertConfig {
            burst_min: 1,
            max_burst_alerts: 1,
            ..AlertConfig::default()
        })
        .detect_bursts(0, &table, &mut capped);
        assert_eq!(capped.len(), 1, "cap must truncate deterministically");
    }

    #[test]
    fn crossover_fires_on_exact_rate_reversal() {
        let mut eng = engine_of(AlertConfig {
            crossover_min_scans: 10,
            crossover_min_gap_permille: 0,
            ..AlertConfig::default()
        });
        // Cumulative state: engine 0 at 2/10, engine 1 at 5/10.
        eng.scans[0] = 10;
        eng.detections[0] = 2;
        eng.scans[1] = 10;
        eng.detections[1] = 5;
        // Segment: engine 0 detects in all 10 scans, engine 1 in none →
        // after: 12/20 vs 5/20, a strict reversal.
        let records: Vec<SampleRecord> = (0..5)
            .map(|i| record_with(100 + i, &[0, 1], &[&[0], &[0]], 10))
            .collect();
        let table = table_of(&records);
        let mut out = Vec::new();
        eng.detect_crossovers(0, &table, &mut out);
        assert_eq!(out.len(), 1);
        match out[0].kind {
            AlertKind::RateCrossover {
                overtaking,
                overtaken,
                overtaking_detections,
                overtaking_scans,
                overtaken_detections,
                overtaken_scans,
            } => {
                assert_eq!((overtaking, overtaken), (0, 1));
                assert_eq!((overtaking_detections, overtaking_scans), (12, 20));
                assert_eq!((overtaken_detections, overtaken_scans), (5, 20));
            }
            ref other => panic!("unexpected kind {other:?}"),
        }
        // Cumulative state committed...
        assert_eq!((eng.scans[0], eng.detections[0]), (20, 12));
        // ...so an identical fold no longer reverses the order.
        let mut again = Vec::new();
        eng.detect_crossovers(1, &table, &mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn crossover_gap_guard_suppresses_noise() {
        let mut eng = engine_of(AlertConfig {
            crossover_min_scans: 10,
            crossover_min_gap_permille: 500,
            ..AlertConfig::default()
        });
        eng.scans[0] = 1000;
        eng.detections[0] = 499;
        eng.scans[1] = 1000;
        eng.detections[1] = 500;
        // Two detections flip the order by a hair — far under a
        // 500-permille gap.
        let records = [record_with(7, &[0], &[&[0], &[0]], 10)];
        let table = table_of(&records);
        let mut out = Vec::new();
        eng.detect_crossovers(0, &table, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sample_events_count_and_cap() {
        // AV-Rank 5 → 40 within an hour: a swing under the default
        // criteria (threshold 10, interval 3 days).
        let low: Vec<usize> = (0..5).collect();
        let high: Vec<usize> = (0..40).collect();
        let active: Vec<usize> = (0..45).collect();
        let records = [record_with(1, &active, &[&low, &high], 60)];
        let table = table_of(&records);
        let mut eng = engine_of(AlertConfig::default());
        let mut out = Vec::new();
        eng.detect_sample_events(0, &table, &mut out);
        assert_eq!(eng.totals().swings, 1);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].kind,
            AlertKind::SampleEvent {
                event: MonitorEvent::Swing { delta: 35, .. },
                ..
            }
        ));
        // Capped at zero: totals still count, nothing emitted.
        let mut eng2 = engine_of(AlertConfig {
            max_sample_alerts: 0,
            ..AlertConfig::default()
        });
        let mut none = Vec::new();
        eng2.detect_sample_events(0, &table, &mut none);
        assert_eq!(eng2.totals().swings, 1);
        assert!(none.is_empty());
    }

    #[test]
    fn regression_detector_compares_means_exactly() {
        // AV-Rank 3,3,0,0 at threshold 2: labels 1,1,0,0 → stabilizes
        // at the third report, 20 minutes after the first.
        let records: Vec<SampleRecord> = (0..4)
            .map(|i| record_with(i, &[0, 1, 2, 3], &[&[0, 1, 2], &[0, 1, 2], &[], &[]], 10))
            .collect();
        let table = table_of(&records);
        let partial = partials_of(&table);
        let (_, stabilized, minutes) = partial
            .stabilization_partial()
            .label_all_totals()
            .find(|&(t, _, _)| t == 2)
            .unwrap();
        assert_eq!((stabilized, minutes), (4, 80));
        let mut eng = engine_of(AlertConfig {
            regression_threshold: 2,
            regression_min_stabilized: 1,
            ..AlertConfig::default()
        });
        let mut out = Vec::new();
        eng.detect_regression(0, &partial, &mut out);
        assert!(out.is_empty(), "no baseline before the first segment");
        assert_eq!(eng.stabilized, (4, 80), "the first segment is the baseline");
        eng.detect_regression(1, &partial, &mut out);
        assert!(out.is_empty(), "equal means are not a 1.25× regression");
        assert_eq!(eng.stabilized, (8, 160), "each segment joins the baseline");
        // At factor 1000 permille (1.0×) equal nonzero means do fire.
        let mut eq_eng = engine_of(AlertConfig {
            regression_threshold: 2,
            regression_min_stabilized: 1,
            regression_factor_permille: 1000,
            ..AlertConfig::default()
        });
        let mut eq_out = Vec::new();
        eq_eng.detect_regression(0, &partial, &mut eq_out);
        eq_eng.detect_regression(1, &partial, &mut eq_out);
        assert_eq!(eq_out.len(), 1);
        match eq_out[0].kind {
            AlertKind::StabilizationRegression {
                threshold,
                segment_mean_minutes,
                baseline_mean_minutes,
                segment_stabilized,
            } => {
                assert_eq!(threshold, 2);
                assert_eq!((segment_mean_minutes, baseline_mean_minutes), (20, 20));
                assert_eq!(segment_stabilized, 4);
            }
            ref other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn observe_segment_is_deterministic_and_keyed() {
        let records: Vec<SampleRecord> = (0..4).map(|i| flippy_sample(i, 4)).collect();
        let table = table_of(&records);
        let partial = partials_of(&table);
        let config = AlertConfig {
            slot: 3,
            burst_min: 2,
            ..AlertConfig::default()
        };
        let run = || {
            let mut eng = AlertEngine::new(config);
            eng.observe_segment(&partial, &table);
            eng.observe_segment(&partial, &table);
            (eng.take_pending(), eng.totals())
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b, "identical folds must fire identical alerts");
        assert_eq!(ta, tb);
        assert!(!a.is_empty());
        // Keys strictly increase in drain order and carry the slot.
        for pair in a.windows(2) {
            assert!(pair[0].key() < pair[1].key());
        }
        assert!(a.iter().all(|al| al.slot == 3));
        assert!(
            a.iter().any(|al| al.seq == 1),
            "second segment alerts at seq 1"
        );
        assert_eq!(ta.fired, a.len() as u64);
        // Drain is destructive; seq keeps advancing.
        let mut eng = AlertEngine::new(config);
        eng.observe_segment(&partial, &table);
        let first = eng.take_pending();
        assert!(eng.take_pending().is_empty());
        assert!(!first.is_empty());
        assert_eq!(eng.seq(), 1);
    }

    #[test]
    fn detector_names_are_stable() {
        let names: Vec<&str> = [
            detector::ENGINE_BURST,
            detector::RATE_CROSSOVER,
            detector::STABILIZATION_REGRESSION,
            detector::SAMPLE_EVENT,
        ]
        .iter()
        .map(|&d| {
            Alert {
                slot: 0,
                seq: 0,
                detector: d,
                ordinal: 0,
                kind: AlertKind::EngineBurst {
                    engine: 0,
                    day: 0,
                    flips: 0,
                },
            }
            .detector_name()
        })
        .collect();
        assert_eq!(
            names,
            [
                "engine_burst",
                "rate_crossover",
                "stabilization_regression",
                "sample_event"
            ]
        );
    }
}
