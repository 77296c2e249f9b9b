//! The assembled platform: population + traffic + APIs + fleet.
//!
//! [`VirusTotalSim`] streams the full simulated dataset: for each sample
//! it opens a [`crate::api::SampleSession`] (first upload), then drives
//! the remaining scheduled scans through a mix of upload
//! (re-submission) and rescan calls, yielding `(SampleMeta,
//! Vec<ScanReport>)` per sample. Reports within a sample are in
//! analysis-time order; samples stream in ordinal order (any subrange
//! can be generated independently, which is how the parallel analyses
//! partition work).

use crate::api::SampleSession;
use crate::config::SimConfig;
use crate::population::PopulationGen;
use crate::rng::SimRng;
use crate::traffic::TrafficModel;
use vt_engines::EngineFleet;
use vt_model::hash::mix64;
use vt_model::{SampleMeta, ScanReport};

/// Fraction of a sample's follow-up scans issued through the upload
/// API (re-submissions) rather than the rescan API.
const RESUBMIT_FRACTION: f64 = 0.55;

/// The simulated VirusTotal platform.
#[derive(Debug)]
pub struct VirusTotalSim {
    config: SimConfig,
    population: PopulationGen,
    traffic: TrafficModel,
    fleet: EngineFleet,
}

impl VirusTotalSim {
    /// Builds the platform from a config.
    pub fn new(config: SimConfig) -> Self {
        Self {
            config,
            population: PopulationGen::new(config),
            traffic: TrafficModel::new(config),
            fleet: EngineFleet::new(config.fleet),
        }
    }

    /// The simulation config.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The engine fleet (analyses need it for update schedules and
    /// engine names).
    pub fn fleet(&self) -> &EngineFleet {
        &self.fleet
    }

    /// The population generator.
    pub fn population(&self) -> &PopulationGen {
        &self.population
    }

    /// Generates one sample's full trajectory: metadata plus all scan
    /// reports, in analysis-time order.
    pub fn sample_trajectory(&self, ordinal: u64) -> (SampleMeta, Vec<ScanReport>) {
        let meta = self.population.sample(ordinal);
        let times = self.traffic.scan_times(&meta);
        let mut rng = SimRng::seed_from_u64(mix64(&[self.config.seed, 0xA91, ordinal]));
        let (mut session, first) = if meta.first_submission < self.config.window_start() {
            // Pre-existing sample: resume with its pre-window history.
            let prior = 1 + (rng.next_u64() % 3) as u32;
            SampleSession::open_resumed(&self.fleet, meta, times[0], prior)
        } else {
            SampleSession::open(&self.fleet, meta, times[0])
        };
        let mut reports = Vec::with_capacity(times.len());
        reports.push(first);
        for &t in &times[1..] {
            let r = if rng.unit_f64() < RESUBMIT_FRACTION {
                session.upload(t)
            } else {
                session.rescan(t)
            };
            reports.push(r);
        }
        (meta, reports)
    }

    /// Streams every sample's trajectory.
    pub fn trajectories(&self) -> impl Iterator<Item = (SampleMeta, Vec<ScanReport>)> + '_ {
        (0..self.config.samples).map(move |i| self.sample_trajectory(i))
    }

    /// Streams trajectories for an ordinal subrange (parallel
    /// partitioning hook).
    pub fn trajectories_in(
        &self,
        range: std::ops::Range<u64>,
    ) -> impl Iterator<Item = (SampleMeta, Vec<ScanReport>)> + '_ {
        range.map(move |i| self.sample_trajectory(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_model::ReportKind;

    #[test]
    fn trajectories_are_deterministic_and_ordered() {
        let sim = VirusTotalSim::new(SimConfig::new(7, 500));
        for i in [0u64, 13, 499] {
            let (m1, r1) = sim.sample_trajectory(i);
            let (m2, r2) = sim.sample_trajectory(i);
            assert_eq!(m1, m2);
            assert_eq!(r1, r2);
            for w in r1.windows(2) {
                assert!(w[0].analysis_date < w[1].analysis_date);
            }
            assert!(!r1.is_empty());
            if m1.first_submission >= sim.config().window_start() {
                assert_eq!(r1[0].kind, ReportKind::Upload);
            } else {
                assert_eq!(r1[0].kind, ReportKind::Rescan);
                assert_eq!(r1[0].last_submission_date, m1.first_submission);
                assert!(r1[0].times_submitted >= 1);
            }
            for r in &r1 {
                assert_eq!(r.sample, m1.hash);
            }
        }
    }

    #[test]
    fn times_submitted_is_monotone_nondecreasing() {
        let sim = VirusTotalSim::new(SimConfig::new(11, 2_000));
        for (_, reports) in sim.trajectories() {
            let mut last: Option<u32> = None;
            for r in &reports {
                assert!(r.times_submitted >= 1);
                if let Some(prev) = last {
                    assert!(r.times_submitted >= prev);
                    // Rescans never bump the counter past the upload count.
                    if r.kind == ReportKind::Rescan {
                        assert_eq!(r.times_submitted, prev);
                    }
                }
                last = Some(r.times_submitted);
            }
        }
    }

    #[test]
    fn subrange_matches_full_stream() {
        let sim = VirusTotalSim::new(SimConfig::new(3, 100));
        let full: Vec<_> = sim.trajectories().collect();
        let part: Vec<_> = sim.trajectories_in(40..60).collect();
        assert_eq!(&full[40..60], part.as_slice());
    }

    #[test]
    fn report_mix_contains_uploads_and_rescans() {
        let sim = VirusTotalSim::new(SimConfig::new(5, 5_000));
        let mut uploads = 0u64;
        let mut rescans = 0u64;
        for (_, reports) in sim.trajectories() {
            for r in &reports[1..] {
                match r.kind {
                    ReportKind::Upload => uploads += 1,
                    ReportKind::Rescan => rescans += 1,
                    ReportKind::Report => panic!("report API generates no reports"),
                }
            }
        }
        assert!(uploads > 0 && rescans > 0);
        let frac = uploads as f64 / (uploads + rescans) as f64;
        assert!((frac - 0.55).abs() < 0.05, "upload fraction {frac}");
    }
}
