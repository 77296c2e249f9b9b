//! Per-engine model-update schedules.
//!
//! §5.5 attributes ~60% of label flips to engine updates: a signature
//! exists server-side but only takes effect when the engine ships its
//! next model/database update. We give every engine a periodic update
//! grid (period from its profile, phase derived from the engine index)
//! and expose the two queries the rest of the system needs:
//!
//! * *when is the next update at or after `t`* — used by the verdict
//!   function to quantize signature-acquisition times, and
//! * *did an update land in `(t₁, t₂]`* — used by the §5.5 cause
//!   attribution to check whether a flip coincides with an update.

use vt_model::hash::mix64;
use vt_model::time::{Timestamp, MINUTES_PER_DAY};

/// A periodic update grid for one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSchedule {
    period_minutes: i64,
    phase_minutes: i64,
}

impl UpdateSchedule {
    /// Builds the schedule for engine `engine_idx` with the given period
    /// (from its profile). Phase is a deterministic function of the
    /// engine index so schedules are stable across runs.
    pub fn new(engine_idx: usize, period_days: f64) -> Self {
        let period_minutes = ((period_days * MINUTES_PER_DAY as f64).round() as i64).max(30);
        let phase_minutes =
            (mix64(&[0x5c4e_d01e, engine_idx as u64]) % period_minutes as u64) as i64;
        Self {
            period_minutes,
            phase_minutes,
        }
    }

    /// The first update time at or after `t`.
    pub fn next_update_at_or_after(&self, t: Timestamp) -> Timestamp {
        let k = (t.0 - self.phase_minutes).div_euclid(self.period_minutes);
        let candidate = self.phase_minutes + k * self.period_minutes;
        if candidate >= t.0 {
            Timestamp(candidate)
        } else {
            Timestamp(candidate + self.period_minutes)
        }
    }

    /// Whether at least one update lands in the half-open interval
    /// `(t1, t2]`.
    pub fn updated_in(&self, t1: Timestamp, t2: Timestamp) -> bool {
        if t2 <= t1 {
            return false;
        }
        let f = |t: i64| (t - self.phase_minutes).div_euclid(self.period_minutes);
        f(t2.0) > f(t1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::time::Duration;

    #[test]
    fn next_update_is_on_grid_and_at_or_after() {
        let s = UpdateSchedule::new(3, 1.0);
        for t in [0i64, 1, 500, 1439, 1440, 99_999] {
            let u = s.next_update_at_or_after(Timestamp(t));
            assert!(u.0 >= t);
            assert_eq!((u.0 - s.phase_minutes).rem_euclid(s.period_minutes), 0);
            assert!(u.0 - t < s.period_minutes);
        }
    }

    #[test]
    fn updated_in_detects_grid_points() {
        let s = UpdateSchedule::new(0, 2.0);
        let u = s.next_update_at_or_after(Timestamp(10_000));
        // Interval straddling the update.
        assert!(s.updated_in(u - Duration::minutes(5), u));
        assert!(s.updated_in(u - Duration::minutes(5), u + Duration::minutes(5)));
        // Interval strictly between updates.
        assert!(!s.updated_in(u, u + Duration::minutes(5)));
        // Degenerate/reversed intervals.
        assert!(!s.updated_in(u, u));
        assert!(!s.updated_in(u, u - Duration::minutes(1)));
    }

    #[test]
    fn schedule_is_deterministic_per_engine() {
        assert_eq!(UpdateSchedule::new(7, 1.5), UpdateSchedule::new(7, 1.5));
        assert_ne!(
            UpdateSchedule::new(7, 1.5).phase_minutes,
            UpdateSchedule::new(8, 1.5).phase_minutes
        );
    }
}
