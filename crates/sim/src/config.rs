//! Simulation configuration.

use vt_engines::FleetConfig;
use vt_model::time::{Month, Timestamp};

/// Full configuration of one simulated dataset: the seed, the sample
/// count and the engine fleet. The calibration — the fresh fraction,
/// the re-submission fraction and the report cap — is constants in the
/// modules that read them.
///
/// The defaults reproduce the paper's collection window (May 2021 –
/// June 2022) at a laptop-friendly scale (100k samples ≈ 150k reports;
/// the paper's feed is 571 M samples / 847 M reports — all reported
/// statistics are ratios and distribution shapes, which are
/// scale-invariant once the per-sample report-count and file-type
/// distributions match).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of samples to generate.
    pub samples: u64,
    /// Engine fleet configuration (fault injection etc.).
    pub fleet: FleetConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x7e57_5eed,
            samples: 100_000,
            fleet: FleetConfig::default(),
        }
    }
}

impl SimConfig {
    /// A config with the given seed and sample count, and the fleet
    /// seed derived from the seed.
    pub fn new(seed: u64, samples: u64) -> Self {
        let fleet = FleetConfig {
            seed: seed ^ 0xF1EE_7000,
            ..FleetConfig::default()
        };
        Self {
            seed,
            samples,
            fleet,
        }
    }

    /// First minute of the collection window.
    pub fn window_start(&self) -> Timestamp {
        Month::COLLECTION_START.start()
    }

    /// First minute *after* the collection window.
    pub fn window_end(&self) -> Timestamp {
        Month::COLLECTION_START.plus(Month::COLLECTION_LEN).start()
    }

    /// A validating builder seeded with the defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: Self::default(),
        }
    }
}

/// A validation failure from [`SimConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimConfigError {
    /// `samples` must be at least 1 — an empty study has no statistics.
    ZeroSamples,
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroSamples => write!(f, "samples must be at least 1"),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Validating builder for [`SimConfig`] — the construction path the CLI
/// parses through, so a sample count of zero surfaces as a typed error
/// instead of an empty study.
///
/// [`build`](Self::build) derives the fleet seed from the master seed
/// exactly like [`SimConfig::new`], so
/// `SimConfig::builder().seed(s).samples(n).build()` ≡
/// `SimConfig::new(s, n)`.
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the master seed (the fleet seed is derived from it).
    pub fn seed(mut self, v: u64) -> Self {
        self.config.seed = v;
        self
    }

    /// Sets the sample count.
    pub fn samples(mut self, v: u64) -> Self {
        self.config.samples = v;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<SimConfig, SimConfigError> {
        let SimConfig { seed, samples, .. } = self.config;
        if samples == 0 {
            return Err(SimConfigError::ZeroSamples);
        }
        Ok(SimConfig::new(seed, samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vt_model::time::Date;

    #[test]
    fn window_matches_paper() {
        let c = SimConfig::new(1, 10);
        assert_eq!(c.window_start().date(), Date::new(2021, 5, 1));
        assert_eq!(c.window_end().date(), Date::new(2022, 7, 1));
    }

    #[test]
    fn new_derives_fleet_seed() {
        let a = SimConfig::new(1, 10);
        let b = SimConfig::new(2, 10);
        assert_ne!(a.fleet.seed, b.fleet.seed);
        assert_eq!(a.samples, 10);
    }

    proptest! {
        /// Compared by `Debug`, so a field added to either config is
        /// compared without this test naming it.
        #[test]
        fn builder_matches_new(seed in any::<u64>(), samples in 1u64..=u64::MAX) {
            let built = SimConfig::builder().seed(seed).samples(samples).build();
            prop_assert_eq!(
                format!("{:?}", built.expect("samples >= 1")),
                format!("{:?}", SimConfig::new(seed, samples))
            );
        }
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert_eq!(
            SimConfig::builder().samples(0).build().unwrap_err(),
            SimConfigError::ZeroSamples
        );
    }
}
