//! The deterministic verdict function.
//!
//! [`EngineFleet`] answers the question at the heart of the simulator:
//! *what does engine `e` say about sample `s` at time `t`?* The answer
//! is a pure function of `(fleet seed, sample, engine, t)` — every
//! "random" decision is derived by hashing, never by mutable RNG state —
//! so scans are reproducible, order-independent, and cachable.
//!
//! ## Pair plans
//!
//! For each (engine, sample) pair the fleet resolves a [`PairPlan`]:
//!
//! 1. **Copy resolution** — if a [`crate::groups::CopyRule`] covers the
//!    pair's file type and the per-sample copy draw fires, the follower
//!    adopts its leader's plan (recursively), modelling label copying.
//! 2. **Malicious samples** — the pair *eventually detects* with
//!    probability `min(1, detectability × capability)`. If it detects:
//!    with probability `instant_prob` the signature was live at the
//!    sample's origin (plan: flag from origin; may later *retract* with
//!    `retract_prob`); otherwise the signature arrives after a lognormal
//!    latency, optionally quantized to the engine's next model update
//!    (plan: flag from the acquisition time, forever).
//! 3. **Benign samples** — a false positive fires with probability
//!    `fp_rate × fp_mult(type)`; FPs exist from origin and are usually
//!    retracted after a lognormal delay.
//!
//! Retraction is *only* possible for origin-flagging pairs, which is
//! what makes hazard flips (`0→1→0` / `1→0→1`) structurally impossible
//! outside the tiny glitch path (see the crate docs).
//!
//! ## Per-scan noise
//!
//! On top of the plan, every scan independently applies *activity*
//! noise: whole-day engine outages and per-scan timeouts (both →
//! [`Verdict::Undetected`]), plus the rare glitch that inverts a label
//! for one scan.
//!
//! ## What a scan asks once
//!
//! Outages and the availability epochs depend on *(fleet seed, engine,
//! day)* only, so the fleet keeps them in a **day plane**: one row per
//! calendar day of the collection window, filled on first use from the
//! public [`EngineFleet::in_outage`] / [`EngineFleet::epoch_factor`]
//! (which stay the definitions) and shared by every scan of that day.
//! The load factor depends on *(sample, day)* only and is drawn once
//! per scan. What is left per verdict is the two hashes keyed on the
//! pair: the timeout draw and the glitch draw.
//!
//! ## What a sample hashes once
//!
//! Every draw about a sample is keyed `[seed, sample, ..]`, and
//! [`mix64`] is a fold, so a key's prefix is hashed where it is
//! constant: [`EngineFleet::sample_plan`] folds `[seed, sample]` once
//! and `[.., engine]` once per engine, each plan draw finishes from
//! there with its tag, and the [`SamplePlan`] carries the states the
//! per-scan draws resume from — one round over the day for the timeout
//! draw, one over the minute for the glitch draw, two for the load
//! factor.

use crate::groups::{build_copy_rules, CopyIndex};
use crate::registry::{build_roster, EngineProfile, ENGINE_COUNT};
use crate::typemods::{engine_type_latency_mult, type_mods, TypeMods};
use crate::update::UpdateSchedule;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::OnceLock;
use vt_model::hash::{mix64, mix64_from, unit_f64};
use vt_model::time::{Month, MINUTES_PER_DAY};
use vt_model::{EngineId, FileType, GroundTruth, SampleMeta, Timestamp, Verdict, VerdictVec};

// Hash-stream tags: each purpose gets its own stream so draws are
// independent.
const TAG_COPY: u64 = 1;
const TAG_DETECT: u64 = 2;
const TAG_INSTANT: u64 = 3;
const TAG_LATENCY: u64 = 4;
const TAG_QUANT: u64 = 5;
const TAG_RETRACT: u64 = 6;
const TAG_RETRACT_T: u64 = 7;
const TAG_FP: u64 = 8;
const TAG_FP_RETRACT: u64 = 9;
const TAG_FP_RETRACT_T: u64 = 10;
const TAG_TIMEOUT: u64 = 11;
const TAG_OUTAGE: u64 = 12;
const TAG_GLITCH: u64 = 13;
const TAG_SLOWNESS: u64 = 14;
const TAG_LOAD: u64 = 15;
const TAG_EPOCH: u64 = 16;
const TAG_EPOCH_LEN: u64 = 17;
const TAG_EPOCH_SLOW: u64 = 18;
const TAG_EPOCH_SLOW_LEN: u64 = 19;
const TAG_TREND: u64 = 20;

// The engine-activity calibration: lognormal σ of the noise factors
// behind Obs. 7's "engine activity" cause and the §5.3.5 interval
// correlation. Fixed, and held to the bit by the pinned feed digests.

/// Lognormal σ of the per-sample "slowness" factor that stretches
/// every engine's latency for evasive samples.
const SLOWNESS_SIGMA: f64 = 0.6;
/// Lognormal σ of the per-(sample, day) load factor that scales
/// every engine's timeout probability that day (mean-normalized to
/// 1). Correlated engine dropouts within a scan are a major source
/// of AV-Rank jitter — the paper's "engine activity" cause.
const LOAD_SIGMA: f64 = 0.55;
/// Lognormal σ of the per-(engine, epoch) availability factor.
/// Engines go through multi-week good/bad periods (infra incidents,
/// regressed builds); scans weeks apart therefore differ more than
/// scans days apart, which is what drives the §5.3.5 correlation
/// between scan interval and AV-Rank difference.
const EPOCH_SIGMA: f64 = 0.95;
/// Lognormal σ of the slow availability tier (2–5 month epochs):
/// infrastructure migrations, roster churn, long-lived regressions.
/// This is what keeps AV-Rank differences growing over intervals of
/// months rather than plateauing after the fast tier's ~3 weeks.
const EPOCH_SLOW_SIGMA: f64 = 1.0;
/// σ of the per-engine *secular trend*: each engine's availability
/// drifts monotonically (log-linearly) across the collection window
/// — vendor coverage waxes or wanes over a year. Unlike the epoch
/// tiers (piecewise-constant random draws), the trend guarantees
/// that scans further apart see systematically different engine
/// availability at every interval scale, which is the §5.3.5
/// monotone interval–difference relationship.
const TREND_SIGMA: f64 = 1.0;

/// The fleet's seed and its three fault-injection settings.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Seed for all behavioural draws.
    pub seed: u64,
    /// Global multiplier on per-scan timeout rates (fault injection;
    /// 1.0 = nominal).
    pub timeout_mult: f64,
    /// Global multiplier on per-day outage rates (fault injection).
    pub outage_mult: f64,
    /// Per-scan probability that an engine's label is inverted for that
    /// scan only — the sole source of hazard flips. The paper observed
    /// 9 in 109 M reports ≈ 1e-7 per report-pair.
    pub glitch_rate: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed_0001,
            timeout_mult: 1.0,
            outage_mult: 1.0,
            glitch_rate: 1.0e-7,
        }
    }
}

impl FleetConfig {
    /// A builder seeded with the defaults.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`FleetConfig`]: the default config with a chosen seed.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the fleet seed.
    pub fn seed(mut self, v: u64) -> Self {
        self.config.seed = v;
        self
    }

    /// Returns the config; no seed is invalid.
    pub fn build(self) -> Result<FleetConfig, std::convert::Infallible> {
        Ok(self.config)
    }
}

/// The lifetime plan of one (engine, sample) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairPlan {
    /// The engine never flags this sample.
    Never,
    /// The engine flags from `from` onward, forever.
    From(Timestamp),
    /// The engine flags from the sample's origin until `until`
    /// (retraction), then never again.
    UntilRetract(Timestamp),
}

impl PairPlan {
    /// Whether the plan has the pair flagged at time `t` (ignoring
    /// per-scan noise), given the sample's origin.
    pub fn flagged_at(self, t: Timestamp) -> bool {
        match self {
            PairPlan::Never => false,
            PairPlan::From(from) => t >= from,
            PairPlan::UntilRetract(until) => t < until,
        }
    }
}

/// Precomputed plans for every engine against one sample. Building this
/// once per sample and reusing it across that sample's scans is the
/// fast path the simulator uses.
#[derive(Debug, Clone)]
pub struct SamplePlan {
    plans: [PairPlan; ENGINE_COUNT],
    /// Timeout rate per engine for this sample's type (the *effective*
    /// engine's profile rate × type multiplier × fleet multiplier —
    /// copied engines share an engine core and hang on the same
    /// samples).
    timeout_rates: [f64; ENGINE_COUNT],
    /// Effective engine index per engine (after copy resolution); the
    /// timeout draw is keyed by it so copier pairs drop out together.
    effective: [u8; ENGINE_COUNT],
    /// `mix64(&[seed, sample, e, TAG_TIMEOUT])` per engine `e`: the
    /// timeout draw of a pair resumes its *effective* engine's state
    /// with the scan day.
    timeout_keys: [u64; ENGINE_COUNT],
    /// `mix64(&[seed, sample, e, TAG_GLITCH])` per engine `e`: the
    /// glitch draw resumes it with the scan minute.
    glitch_keys: [u64; ENGINE_COUNT],
    /// `mix64(&[seed, sample])`: the load factor resumes it with
    /// `[TAG_LOAD, day]`.
    sample_key: u64,
}

/// The [`mix64`] states the plan draws of one sample resume from.
struct SampleKeys {
    /// `mix64(&[seed, sample])`.
    sample: u64,
    /// `mix64(&[seed, sample, e])` per engine `e`.
    engines: [u64; ENGINE_COUNT],
    /// [`EngineFleet::sample_slowness`], drawn by the first pair that
    /// takes the latency path.
    slowness: OnceCell<f64>,
}

/// Everything about one calendar day that does not depend on what is
/// scanned: a function of `(fleet seed, engine, day)` only.
#[derive(Debug, Clone)]
struct DayRow {
    /// Bit `e` is [`EngineFleet::in_outage`] for engine `e`.
    outage: u128,
    /// [`EngineFleet::epoch_factor`] per engine.
    epoch: [f64; ENGINE_COUNT],
}

/// Columns of the hot-spot table: the 20 named types, NULL, and one
/// column shared by every `Other(_)` (no hot spot names a tail type).
const HOT_COLUMNS: usize = FileType::TOP20.len() + 2;

fn hot_column(ft: FileType) -> usize {
    ft.dense_index().min(HOT_COLUMNS - 1)
}

/// The full engine fleet: profiles, update schedules, copy rules.
#[derive(Debug, Clone)]
pub struct EngineFleet {
    profiles: Vec<EngineProfile>,
    schedules: Vec<UpdateSchedule>,
    copy: CopyIndex,
    /// The Fig. 10 hot-spot latency multiplier per (engine,
    /// [`hot_column`]).
    hot: Vec<[f64; HOT_COLUMNS]>,
    config: FleetConfig,
    /// The day plane: `days[d]` memoises the [`DayRow`] of day
    /// `first_day + d`. It spans the collection window (426 days,
    /// ~250 KB if every day is scanned) and starts empty; a day outside
    /// it gets its row computed per call by the same function.
    days: Box<[OnceLock<Box<DayRow>>]>,
    first_day: i64,
}

impl EngineFleet {
    /// Builds the fleet with the given configuration.
    pub fn new(config: FleetConfig) -> Self {
        let profiles = build_roster();
        let schedules = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| UpdateSchedule::new(i, p.update_period_days))
            .collect();
        let hot = profiles
            .iter()
            .map(|p| {
                std::array::from_fn(|col| {
                    engine_type_latency_mult(p.name, FileType::from_dense_index(col))
                })
            })
            .collect();
        let first_day = Month::COLLECTION_START.start().day_number();
        let end_day = Month::COLLECTION_START
            .plus(Month::COLLECTION_LEN)
            .start()
            .day_number();
        Self {
            copy: CopyIndex::new(build_copy_rules()),
            profiles,
            schedules,
            hot,
            config,
            days: (first_day..end_day).map(|_| OnceLock::new()).collect(),
            first_day,
        }
    }

    /// Builds the fleet with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(FleetConfig {
            seed,
            ..FleetConfig::default()
        })
    }

    /// Number of engines.
    pub fn engine_count(&self) -> usize {
        self.profiles.len()
    }

    /// The profile of engine `e`.
    pub fn profile(&self, e: EngineId) -> &EngineProfile {
        &self.profiles[e.index()]
    }

    /// The update schedule of engine `e` (for §5.5 cause attribution).
    pub fn schedule(&self, e: EngineId) -> &UpdateSchedule {
        &self.schedules[e.index()]
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Engine id by roster name (panics on unknown name).
    pub fn engine_by_name(&self, name: &str) -> EngineId {
        EngineId(crate::registry::engine_index(name) as u8)
    }

    // ---- draw helpers ------------------------------------------------

    /// `mix64(&[seed, sample])`, the prefix of every key about `sample`.
    fn sample_key(&self, sample: &SampleMeta) -> u64 {
        mix64(&[self.config.seed, sample.hash.seed64()])
    }

    fn keys(&self, sample: &SampleMeta) -> SampleKeys {
        let sample = self.sample_key(sample);
        SampleKeys {
            sample,
            engines: std::array::from_fn(|e| mix64_from(sample, &[e as u64])),
            slowness: OnceCell::new(),
        }
    }

    /// The uniform draw of stream `tag` under `key`: one round.
    fn u(key: u64, tag: u64) -> f64 {
        unit_f64(mix64_from(key, &[tag]))
    }

    /// Deterministic lognormal draw in days: `exp(N(ln median, sigma))`.
    fn lognormal_days(key: u64, tag: u64, median: f64, sigma: f64) -> f64 {
        let u = Self::u(key, tag).clamp(1e-12, 1.0 - 1e-12);
        let z = vt_stats::special::probit(u);
        median.max(1e-3) * (sigma * z).exp()
    }

    /// The per-sample slowness factor shared by all engines (evasive
    /// samples are slow for everyone — this correlates latencies across
    /// the fleet).
    fn sample_slowness(&self, keys: &SampleKeys) -> f64 {
        *keys.slowness.get_or_init(|| {
            let u = Self::u(keys.sample, TAG_SLOWNESS).clamp(1e-12, 1.0 - 1e-12);
            (SLOWNESS_SIGMA * vt_stats::special::probit(u)).exp()
        })
    }

    // ---- plan resolution ----------------------------------------------

    /// Resolves the engine whose behavioural draws the pair uses:
    /// follows copy rules (recursively) while the per-sample copy draws
    /// fire. Returns the effective engine index.
    fn resolve_effective(&self, engine: usize, sample: &SampleMeta, keys: &SampleKeys) -> usize {
        let mut cur = engine;
        let mut depth = 0;
        while let Some(rule) = self.copy.rule_for(cur, sample.file_type) {
            // The copy draw is keyed by the *follower* so independent
            // followers of one leader decorrelate independently.
            if Self::u(keys.engines[cur], TAG_COPY) < rule.prob {
                cur = rule.leader;
                depth += 1;
                if depth >= 8 {
                    break; // cycle guard; build_copy_rules() is acyclic
                }
            } else {
                break;
            }
        }
        cur
    }

    /// Computes the lifetime plan of `(engine, sample)`.
    pub fn pair_plan(&self, engine: EngineId, sample: &SampleMeta) -> PairPlan {
        let keys = self.keys(sample);
        let eff = self.resolve_effective(engine.index(), sample, &keys);
        let mods = type_mods(sample.file_type);
        self.pair_plan_with_eff(engine.index(), eff, &mods, sample, &keys)
    }

    fn pair_plan_with_eff(
        &self,
        follower: usize,
        eff: usize,
        mods: &TypeMods,
        sample: &SampleMeta,
        keys: &SampleKeys,
    ) -> PairPlan {
        match sample.truth {
            GroundTruth::Benign => {
                Self::benign_plan(keys.engines[eff], &self.profiles[eff], mods, sample)
            }
            GroundTruth::Malicious { detectability } => {
                self.malicious_plan(follower, eff, mods, sample, keys, detectability as f64)
            }
        }
    }

    /// `key` is the effective engine's state, `keys.engines[eff]`.
    fn benign_plan(
        key: u64,
        profile: &EngineProfile,
        mods: &TypeMods,
        sample: &SampleMeta,
    ) -> PairPlan {
        let fp_rate = (profile.fp_rate * mods.fp_mult).min(1.0);
        if Self::u(key, TAG_FP) >= fp_rate {
            return PairPlan::Never;
        }
        // False positive, live from origin. Usually retracted — and the
        // retraction clock starts at first submission: FPs surface once
        // the file circulates and users report them.
        if Self::u(key, TAG_FP_RETRACT) < profile.fp_retract_prob {
            let days = Self::lognormal_days(key, TAG_FP_RETRACT_T, 9.0, 0.9);
            let until = sample.first_submission
                + vt_model::time::Duration::minutes((days * MINUTES_PER_DAY as f64) as i64);
            if until <= sample.origin {
                PairPlan::Never
            } else {
                PairPlan::UntilRetract(until)
            }
        } else {
            PairPlan::From(sample.origin)
        }
    }

    fn malicious_plan(
        &self,
        follower: usize,
        eff: usize,
        mods: &TypeMods,
        sample: &SampleMeta,
        keys: &SampleKeys,
        detectability: f64,
    ) -> PairPlan {
        let profile = &self.profiles[eff];
        let key = keys.engines[eff];
        let q = (detectability * profile.capability).min(1.0);
        if Self::u(key, TAG_DETECT) >= q {
            return PairPlan::Never;
        }
        if Self::u(key, TAG_INSTANT) < profile.instant_prob {
            // Signature live at origin. Possibly retracted later.
            let retract = (profile.retract_prob * mods.retract_mult).min(1.0);
            if Self::u(key, TAG_RETRACT) < retract {
                // Retraction (pruning/whitelisting) follows visibility:
                // anchored at first submission.
                let days = Self::lognormal_days(key, TAG_RETRACT_T, 12.0, 1.0);
                let until = sample.first_submission
                    + vt_model::time::Duration::minutes((days * MINUTES_PER_DAY as f64) as i64);
                if until <= sample.origin {
                    return PairPlan::Never;
                }
                return PairPlan::UntilRetract(until);
            }
            return PairPlan::From(sample.origin);
        }
        // Signature arrives after a latency. The hot-spot override uses
        // the *follower's* identity (Fig. 10 is about the engine whose
        // column flips, even when it copies labels).
        let hot = self.hot[follower][hot_column(sample.file_type)];
        let median =
            profile.latency_median_days * mods.latency_scale * hot * self.sample_slowness(keys);
        let days = Self::lognormal_days(key, TAG_LATENCY, median, profile.latency_sigma);
        let mut at = sample.origin
            + vt_model::time::Duration::minutes((days * MINUTES_PER_DAY as f64) as i64);
        // Quantize to the *effective* engine's next model update with
        // the profile's probability (the §5.5 "engine update"
        // mechanism). Copier pairs share the leader's database, so they
        // acquire signatures on the leader's schedule.
        if Self::u(key, TAG_QUANT) < profile.update_quant_prob {
            at = self.schedules[eff].next_update_at_or_after(at);
        }
        PairPlan::From(at)
    }

    /// Precomputes the plans of every engine against `sample`.
    pub fn sample_plan(&self, sample: &SampleMeta) -> SamplePlan {
        let mods = type_mods(sample.file_type);
        let keys = self.keys(sample);
        let mut plan = SamplePlan {
            plans: [PairPlan::Never; ENGINE_COUNT],
            timeout_rates: [0.0; ENGINE_COUNT],
            effective: [0; ENGINE_COUNT],
            timeout_keys: [0; ENGINE_COUNT],
            glitch_keys: [0; ENGINE_COUNT],
            sample_key: keys.sample,
        };
        for i in 0..ENGINE_COUNT {
            let eff = self.resolve_effective(i, sample, &keys);
            plan.plans[i] = self.pair_plan_with_eff(i, eff, &mods, sample, &keys);
            plan.timeout_rates[i] =
                (self.profiles[eff].timeout_rate * mods.timeout_mult * self.config.timeout_mult)
                    .min(0.5);
            plan.effective[i] = eff as u8;
            plan.timeout_keys[i] = mix64_from(keys.engines[i], &[TAG_TIMEOUT]);
            plan.glitch_keys[i] = mix64_from(keys.engines[i], &[TAG_GLITCH]);
        }
        plan
    }

    // ---- per-scan evaluation -------------------------------------------

    /// Whether engine `e` is in a whole-day outage on the day of `t`.
    pub fn in_outage(&self, e: EngineId, t: Timestamp) -> bool {
        let rate = self.profiles[e.index()].outage_rate * self.config.outage_mult;
        let day = t.day_number() as u64;
        unit_f64(mix64(&[
            self.config.seed,
            TAG_OUTAGE,
            e.index() as u64,
            day,
        ])) < rate
    }

    /// Mean-normalized lognormal factor from a uniform word.
    fn lognormal_factor(word: u64, sigma: f64) -> f64 {
        let u = unit_f64(word).clamp(1e-12, 1.0 - 1e-12);
        (sigma * vt_stats::special::probit(u) - sigma * sigma / 2.0).exp()
    }

    /// The per-(sample, day) load factor, from the sample's key: scales
    /// every engine's timeout probability for scans of this sample that
    /// day. Lognormal, mean-normalized to 1.
    fn load_on(&self, sample_key: u64, t: Timestamp) -> f64 {
        Self::lognormal_factor(
            mix64_from(sample_key, &[TAG_LOAD, t.day_number() as u64]),
            LOAD_SIGMA,
        )
    }

    /// The load factor of a scan of `sample` under its `plan`, resumed
    /// from the key the plan carries.
    fn load_of(&self, plan: &SamplePlan, sample: &SampleMeta, t: Timestamp) -> f64 {
        debug_assert_eq!(
            plan.sample_key,
            self.sample_key(sample),
            "a plan scans the sample and fleet it was made for"
        );
        self.load_on(plan.sample_key, t)
    }

    /// The per-(engine, epoch) availability factor. Each engine's
    /// timeline is cut into epochs of 7–21 days (length and phase
    /// engine-specific); within an epoch the engine's timeout rate is a
    /// constant multiple of its base rate. Scans far apart in time land
    /// in different epochs and therefore see systematically different
    /// engine availability — the slow component of AV-Rank drift.
    pub fn epoch_factor(&self, engine: usize, t: Timestamp) -> f64 {
        let seed = self.config.seed;
        // Fast tier: 7–21 day epochs.
        let fast_len = 7 + (mix64(&[seed, TAG_EPOCH_LEN, engine as u64]) % 15) as i64;
        let fast = Self::lognormal_factor(
            mix64(&[
                seed,
                TAG_EPOCH,
                engine as u64,
                t.day_number().div_euclid(fast_len) as u64,
            ]),
            EPOCH_SIGMA,
        );
        // Slow tier: 60–150 day epochs.
        let slow_len = 60 + (mix64(&[seed, TAG_EPOCH_SLOW_LEN, engine as u64]) % 91) as i64;
        let slow = Self::lognormal_factor(
            mix64(&[
                seed,
                TAG_EPOCH_SLOW,
                engine as u64,
                t.day_number().div_euclid(slow_len) as u64,
            ]),
            EPOCH_SLOW_SIGMA,
        );
        // Secular tier: log-linear drift across the collection window
        // (day 0 = 2021-01-01; the window spans days ~120..546, centred
        // near day 333).
        let u = unit_f64(mix64(&[seed, TAG_TREND, engine as u64])).clamp(1e-12, 1.0 - 1e-12);
        let slope = TREND_SIGMA * vt_stats::special::probit(u);
        let frac = (t.day_number() as f64 - 333.0) / 426.0; // ≈ ±0.5 over the window
        let trend = (slope * frac).exp();
        fast * slow * trend
    }

    /// The [`DayRow`] of the day of `t`, computed from the two public
    /// definitions.
    fn compute_day_row(&self, t: Timestamp) -> DayRow {
        let mut row = DayRow {
            outage: 0,
            epoch: [0.0; ENGINE_COUNT],
        };
        for e in 0..self.profiles.len() {
            row.outage |= (self.in_outage(EngineId(e as u8), t) as u128) << e;
            row.epoch[e] = self.epoch_factor(e, t);
        }
        row
    }

    /// The memoised [`DayRow`] of the day of `t`. Threads that race on
    /// a cold day compute the same pure value; one of them stores it.
    fn day_row(&self, t: Timestamp) -> Cow<'_, DayRow> {
        let slot = usize::try_from(t.day_number() - self.first_day)
            .ok()
            .and_then(|d| self.days.get(d));
        match slot {
            Some(slot) => Cow::Borrowed(slot.get_or_init(|| Box::new(self.compute_day_row(t)))),
            None => Cow::Owned(self.compute_day_row(t)),
        }
    }

    /// The one verdict routine: engine `i`'s verdict given the day's
    /// row, the scan's load factor and `day`, the day number of `t`
    /// (taken once per scan).
    fn verdict_on(
        &self,
        row: &DayRow,
        load: f64,
        plan: &SamplePlan,
        i: usize,
        t: Timestamp,
        day: u64,
    ) -> Verdict {
        if row.outage >> i & 1 == 1 {
            return Verdict::Undetected;
        }
        // Timeout draw keyed by the *effective* engine and the scan day:
        // copier pairs share an engine core (they hang on the same
        // samples), and scans of a sample within one day see identical
        // engine availability.
        let eff = plan.effective[i] as usize;
        let p = (plan.timeout_rates[i] * row.epoch[eff] * load).min(0.9);
        if Self::u(plan.timeout_keys[eff], day) < p {
            return Verdict::Undetected;
        }
        let mut flagged = plan.plans[i].flagged_at(t);
        if self.config.glitch_rate > 0.0
            && Self::u(plan.glitch_keys[i], t.0 as u64) < self.config.glitch_rate
        {
            flagged = !flagged;
        }
        if flagged {
            Verdict::Malicious
        } else {
            Verdict::Benign
        }
    }

    /// One engine's verdict for one scan, using a precomputed plan.
    pub fn verdict_with_plan(
        &self,
        plan: &SamplePlan,
        e: EngineId,
        sample: &SampleMeta,
        t: Timestamp,
    ) -> Verdict {
        let load = self.load_of(plan, sample, t);
        self.verdict_on(
            &self.day_row(t),
            load,
            plan,
            e.index(),
            t,
            t.day_number() as u64,
        )
    }

    /// One engine's verdict for one scan (resolves the plan on the fly;
    /// prefer [`EngineFleet::sample_plan`] + [`EngineFleet::verdict_with_plan`]
    /// when scanning a sample repeatedly).
    pub fn verdict(&self, e: EngineId, sample: &SampleMeta, t: Timestamp) -> Verdict {
        let plan = self.sample_plan(sample);
        self.verdict_with_plan(&plan, e, sample, t)
    }

    /// Scans a sample with the whole fleet at time `t`: the day's row
    /// and the load factor are fetched once and shared by the roster.
    pub fn scan(&self, plan: &SamplePlan, sample: &SampleMeta, t: Timestamp) -> VerdictVec {
        let row = self.day_row(t);
        let load = self.load_of(plan, sample, t);
        let day = t.day_number() as u64;
        let mut v = VerdictVec::new(self.profiles.len());
        for i in 0..self.profiles.len() {
            v.set(
                EngineId(i as u8),
                self.verdict_on(&row, load, plan, i, t, day),
            );
        }
        v
    }
}

impl SamplePlan {
    /// The plan of one engine.
    pub fn plan(&self, e: EngineId) -> PairPlan {
        self.plans[e.index()]
    }

    /// The asymptotic AV-Rank: how many engines flag the sample as
    /// `t → ∞` (after all acquisitions and retractions settle).
    pub fn asymptotic_positives(&self) -> u32 {
        self.plans
            .iter()
            .filter(|p| matches!(p, PairPlan::From(_)))
            .count() as u32
    }

    /// How many engines flag at time `t` under the plan (no noise).
    pub fn positives_at(&self, t: Timestamp) -> u32 {
        self.plans.iter().filter(|p| p.flagged_at(t)).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vt_model::filetype::TOTAL_TYPE_COUNT;
    use vt_model::time::{Date, Duration};
    use vt_model::SampleHash;

    fn fleet() -> EngineFleet {
        EngineFleet::with_seed(42)
    }

    fn sample(ordinal: u64, ft: FileType, truth: GroundTruth) -> SampleMeta {
        let origin = Timestamp::from_date(Date::new(2021, 6, 1));
        SampleMeta {
            hash: SampleHash::from_ordinal(ordinal),
            file_type: ft,
            origin,
            first_submission: origin + Duration::days(4),
            truth,
        }
    }

    #[test]
    fn verdicts_are_deterministic() {
        let f = fleet();
        let s = sample(
            7,
            FileType::Win32Exe,
            GroundTruth::Malicious { detectability: 0.6 },
        );
        let t = s.first_submission + Duration::days(3);
        let plan = f.sample_plan(&s);
        for e in 0..f.engine_count() {
            let id = EngineId(e as u8);
            assert_eq!(
                f.verdict_with_plan(&plan, id, &s, t),
                f.verdict_with_plan(&plan, id, &s, t)
            );
            assert_eq!(f.verdict_with_plan(&plan, id, &s, t), f.verdict(id, &s, t));
        }
    }

    #[test]
    fn benign_samples_mostly_scan_clean() {
        let f = fleet();
        let mut total_positives = 0u32;
        let n = 200;
        for i in 0..n {
            let s = sample(1000 + i, FileType::Jpeg, GroundTruth::Benign);
            let plan = f.sample_plan(&s);
            let v = f.scan(&plan, &s, s.first_submission);
            total_positives += v.positives();
        }
        // JPEG FP rates are tiny: expect well under 0.2 positives/sample.
        assert!(
            (total_positives as f64) < 0.2 * n as f64,
            "benign positives too high: {total_positives}"
        );
    }

    #[test]
    fn detectability_drives_asymptotic_rank() {
        let f = fleet();
        let mean_rank = |d: f32| {
            let mut acc = 0u32;
            let n = 120;
            for i in 0..n {
                let s = sample(
                    5000 + i,
                    FileType::Win32Exe,
                    GroundTruth::Malicious { detectability: d },
                );
                acc += f.sample_plan(&s).asymptotic_positives();
            }
            acc as f64 / n as f64
        };
        let low = mean_rank(0.2);
        let mid = mean_rank(0.5);
        let high = mean_rank(0.9);
        assert!(low < mid && mid < high, "{low} {mid} {high}");
        // ≈ 70 × detectability (capability mean ≈ 1).
        assert!((high - 63.0).abs() < 12.0, "high = {high}");
        assert!((low - 14.0).abs() < 7.0, "low = {low}");
    }

    #[test]
    fn ranks_ramp_up_over_time() {
        let f = fleet();
        let mut early = 0u32;
        let mut late = 0u32;
        for i in 0..150 {
            let s = sample(
                9000 + i,
                FileType::Win32Exe,
                GroundTruth::Malicious { detectability: 0.7 },
            );
            let plan = f.sample_plan(&s);
            early += plan.positives_at(s.first_submission);
            late += plan.positives_at(s.first_submission + Duration::days(90));
        }
        assert!(late > early, "no ramp: early={early} late={late}");
        // And a decent share must already be armed at first submission
        // (the §5.4 gray curves require fresh samples not to start at 0).
        assert!(
            early as f64 > 0.35 * late as f64,
            "early share too small: {early}/{late}"
        );
    }

    #[test]
    fn pair_transitions_at_most_once() {
        // Scan densely over a year; per engine the (active-only) label
        // sequence must change at most once with glitches disabled.
        let mut cfg = FleetConfig {
            seed: 9,
            glitch_rate: 0.0,
            ..FleetConfig::default()
        };
        cfg.timeout_mult = 0.0;
        cfg.outage_mult = 0.0;
        let f = EngineFleet::new(cfg);
        for i in 0..40 {
            let s = sample(
                100 + i,
                FileType::Html,
                GroundTruth::Malicious { detectability: 0.5 },
            );
            let plan = f.sample_plan(&s);
            for e in 0..f.engine_count() {
                let id = EngineId(e as u8);
                let mut changes = 0;
                let mut last: Option<bool> = None;
                for day in 0..400 {
                    let t = s.first_submission + Duration::days(day);
                    let v = f.verdict_with_plan(&plan, id, &s, t);
                    let label = v.is_malicious();
                    if let Some(prev) = last {
                        if prev != label {
                            changes += 1;
                        }
                    }
                    last = Some(label);
                }
                assert!(changes <= 1, "engine {e} flipped {changes} times");
            }
        }
    }

    #[test]
    fn copy_groups_agree() {
        let f = fleet();
        let avast = f.engine_by_name("Avast");
        let avg = f.engine_by_name("AVG");
        let paloalto = f.engine_by_name("Paloalto");
        let apex = f.engine_by_name("APEX");
        let mut avast_avg_agree = 0;
        let mut pa_apex_agree = 0;
        let mut unrelated_agree = 0;
        let kasp = f.engine_by_name("Kaspersky");
        let zoner = f.engine_by_name("Zoner");
        let n = 400;
        for i in 0..n {
            let s = sample(
                50_000 + i,
                FileType::Win32Exe,
                GroundTruth::Malicious { detectability: 0.5 },
            );
            let plan = f.sample_plan(&s);
            let t = s.first_submission + Duration::days(10);
            let lab = |e: EngineId| f.verdict_with_plan(&plan, e, &s, t).is_malicious();
            if lab(avast) == lab(avg) {
                avast_avg_agree += 1;
            }
            if lab(paloalto) == lab(apex) {
                pa_apex_agree += 1;
            }
            if lab(kasp) == lab(zoner) {
                unrelated_agree += 1;
            }
        }
        // Copy pairs agree far more often than unrelated engines at
        // detectability 0.5 (where independent engines agree ~50-60%).
        assert!(
            avast_avg_agree as f64 > 0.93 * n as f64,
            "{avast_avg_agree}/{n}"
        );
        assert!(
            pa_apex_agree as f64 > 0.95 * n as f64,
            "{pa_apex_agree}/{n}"
        );
        assert!(
            unrelated_agree < avast_avg_agree,
            "unrelated {unrelated_agree} vs copy {avast_avg_agree}"
        );
    }

    #[test]
    fn timeouts_respect_fault_injection() {
        let nominal = EngineFleet::new(FleetConfig {
            seed: 5,
            ..FleetConfig::default()
        });
        let stormy = EngineFleet::new(FleetConfig {
            seed: 5,
            timeout_mult: 30.0,
            ..FleetConfig::default()
        });
        let s = sample(77, FileType::Pdf, GroundTruth::Benign);
        let count_undetected = |f: &EngineFleet| {
            let plan = f.sample_plan(&s);
            let mut n = 0;
            for day in 0..60 {
                let v = f.scan(&plan, &s, s.first_submission + Duration::days(day));
                n += f.engine_count() as u32 - v.active_count();
            }
            n
        };
        assert!(count_undetected(&stormy) > 3 * count_undetected(&nominal).max(1));
    }

    #[test]
    fn different_seeds_differ() {
        let f1 = EngineFleet::with_seed(1);
        let f2 = EngineFleet::with_seed(2);
        let s = sample(
            3,
            FileType::Win32Exe,
            GroundTruth::Malicious { detectability: 0.5 },
        );
        let t = s.first_submission;
        let v1 = f1.scan(&f1.sample_plan(&s), &s, t);
        let v2 = f2.scan(&f2.sample_plan(&s), &s, t);
        assert_ne!(v1, v2, "seeds should decorrelate verdict vectors");
    }

    /// A draw about `sample` spelled as its whole key, `[seed, sample] ++
    /// rest`, hashed in one go: what a draw resumed from a carried state
    /// must equal.
    fn u_by_definition(f: &EngineFleet, sample: &SampleMeta, rest: &[u64]) -> f64 {
        let key = [&[f.config.seed, sample.hash.seed64()], rest].concat();
        unit_f64(mix64(&key))
    }

    /// One engine's verdict assembled from the public day functions and
    /// whole-key hashes, as `verdict_with_plan` composed them before the
    /// day plane and the carried keys existed: the definition
    /// [`EngineFleet::scan`] must reproduce.
    fn verdict_by_definition(
        f: &EngineFleet,
        plan: &SamplePlan,
        e: EngineId,
        sample: &SampleMeta,
        t: Timestamp,
    ) -> Verdict {
        let i = e.index();
        if f.in_outage(e, t) {
            return Verdict::Undetected;
        }
        let eff = plan.effective[i] as usize;
        let day = t.day_number() as u64;
        let load = EngineFleet::lognormal_factor(
            mix64(&[f.config.seed, sample.hash.seed64(), TAG_LOAD, day]),
            LOAD_SIGMA,
        );
        let p = (plan.timeout_rates[i] * f.epoch_factor(eff, t) * load).min(0.9);
        if u_by_definition(f, sample, &[eff as u64, TAG_TIMEOUT, day]) < p {
            return Verdict::Undetected;
        }
        let mut flagged = plan.plan(e).flagged_at(t);
        if f.config.glitch_rate > 0.0
            && u_by_definition(f, sample, &[i as u64, TAG_GLITCH, t.0 as u64])
                < f.config.glitch_rate
        {
            flagged = !flagged;
        }
        if flagged {
            Verdict::Malicious
        } else {
            Verdict::Benign
        }
    }

    fn window_start() -> Timestamp {
        Month::COLLECTION_START.start()
    }

    fn window_end() -> Timestamp {
        Month::COLLECTION_START.plus(Month::COLLECTION_LEN).start()
    }

    proptest! {
        #[test]
        fn scan_is_the_definition(
            seed in any::<u64>(),
            ordinal in any::<u64>(),
            type_idx in 0usize..HOT_COLUMNS + 1,
            benign in any::<bool>(),
            detectability in 0.0f64..=1.0,
            // Inside the window, before day 0, past the memoised range.
            region in 0usize..3,
            minute in 0i64..426 * MINUTES_PER_DAY,
            timeout_mult in 0usize..3,
            outage_mult in 0usize..3,
            glitch in any::<bool>(),
        ) {
            const MULTS: [f64; 3] = [0.0, 1.0, 30.0];
            let f = EngineFleet::new(FleetConfig {
                seed,
                timeout_mult: MULTS[timeout_mult],
                outage_mult: MULTS[outage_mult],
                glitch_rate: if glitch { 1.0 } else { 0.0 },
            });
            let truth = if benign {
                GroundTruth::Benign
            } else {
                GroundTruth::Malicious { detectability: detectability as f32 }
            };
            let s = sample(ordinal, FileType::from_dense_index(type_idx), truth);
            let t = match region {
                0 => Timestamp(window_start().0 + minute),
                1 => Timestamp(-1 - minute),
                _ => Timestamp(window_end().0 + minute),
            };
            let plan = f.sample_plan(&s);
            let scanned = f.scan(&plan, &s, t);
            for e in (0..f.engine_count()).map(|e| EngineId(e as u8)) {
                let defined = verdict_by_definition(&f, &plan, e, &s, t);
                prop_assert_eq!(scanned.get(e), defined, "engine {} at {:?}", e.index(), t);
                prop_assert_eq!(f.verdict_with_plan(&plan, e, &s, t), defined);
            }
        }
    }

    proptest! {
        #[test]
        fn keyed_draws_are_the_whole_key_hashes(seed in any::<u64>(), ordinal in any::<u64>()) {
            let f = EngineFleet::with_seed(seed);
            let s = sample(ordinal, FileType::Win32Exe, GroundTruth::Benign);
            let s64 = s.hash.seed64();
            let keys = f.keys(&s);
            let plan = f.sample_plan(&s);
            prop_assert_eq!(plan.sample_key, mix64(&[seed, s64]));
            let day = s.origin.day_number() as u64;
            prop_assert_eq!(
                f.load_on(plan.sample_key, s.origin),
                EngineFleet::lognormal_factor(mix64(&[seed, s64, TAG_LOAD, day]), LOAD_SIGMA)
            );
            let slow = u_by_definition(&f, &s, &[TAG_SLOWNESS]).clamp(1e-12, 1.0 - 1e-12);
            prop_assert_eq!(
                f.sample_slowness(&keys),
                (SLOWNESS_SIGMA * vt_stats::special::probit(slow)).exp()
            );
            for e in 0..ENGINE_COUNT {
                for tag in TAG_COPY..=TAG_TREND {
                    prop_assert_eq!(
                        EngineFleet::u(keys.engines[e], tag),
                        u_by_definition(&f, &s, &[e as u64, tag]),
                        "engine {} tag {}", e, tag
                    );
                }
                prop_assert_eq!(plan.timeout_keys[e], mix64(&[seed, s64, e as u64, TAG_TIMEOUT]));
                prop_assert_eq!(plan.glitch_keys[e], mix64(&[seed, s64, e as u64, TAG_GLITCH]));
            }
        }
    }

    #[test]
    fn pair_plan_is_the_sample_plans_column() {
        let f = fleet();
        let mut copied = 0;
        for ordinal in 0..60 {
            for (ft, truth) in [
                (FileType::Pdf, GroundTruth::Benign),
                (FileType::Win32Exe, GroundTruth::Benign),
                (
                    FileType::Win32Exe,
                    GroundTruth::Malicious { detectability: 0.6 },
                ),
                (
                    FileType::Html,
                    GroundTruth::Malicious { detectability: 0.3 },
                ),
            ] {
                let s = sample(70_000 + ordinal, ft, truth);
                let plan = f.sample_plan(&s);
                for e in 0..ENGINE_COUNT {
                    assert_eq!(
                        f.pair_plan(EngineId(e as u8), &s),
                        plan.plan(EngineId(e as u8)),
                        "engine {e} on {ft} ordinal {ordinal}"
                    );
                    copied += (plan.effective[e] as usize != e) as u32;
                }
            }
        }
        assert!(copied > 100, "only {copied} copied pairs were covered");
    }

    #[test]
    fn hot_spot_table_is_the_typemods_function() {
        let f = fleet();
        for idx in 0..TOTAL_TYPE_COUNT {
            let ft = FileType::from_dense_index(idx);
            for (p, row) in f.profiles.iter().zip(&f.hot) {
                assert_eq!(
                    row[hot_column(ft)],
                    engine_type_latency_mult(p.name, ft),
                    "{} on {ft}",
                    p.name
                );
            }
        }
    }

    fn memoised_days(f: &EngineFleet) -> usize {
        f.days.iter().filter(|d| d.get().is_some()).count()
    }

    #[test]
    fn day_plane_is_empty_until_a_scan_asks() {
        let f = fleet();
        assert_eq!(f.days.len(), 426);
        assert_eq!(f.first_day, window_start().day_number());
        assert_eq!(memoised_days(&f), 0, "EngineFleet::new must fill nothing");
        let s = sample(1, FileType::Pdf, GroundTruth::Benign);
        let plan = f.sample_plan(&s);
        assert_eq!(memoised_days(&f), 0, "plans do not touch the day plane");
        f.scan(&plan, &s, s.first_submission);
        f.scan(&plan, &s, s.first_submission + Duration::minutes(7));
        assert_eq!(memoised_days(&f), 1);
    }

    #[test]
    fn day_plane_out_of_range_days_use_the_same_row() {
        let f = fleet();
        let s = sample(
            2,
            FileType::Win32Exe,
            GroundTruth::Malicious { detectability: 0.6 },
        );
        let plan = f.sample_plan(&s);
        for t in [
            Timestamp(-1),
            window_start() + Duration::minutes(-1),
            window_end(),
        ] {
            let scanned = f.scan(&plan, &s, t);
            for e in (0..f.engine_count()).map(|e| EngineId(e as u8)) {
                assert_eq!(scanned.get(e), verdict_by_definition(&f, &plan, e, &s, t));
            }
        }
        assert_eq!(memoised_days(&f), 0, "out-of-range days are not stored");
    }

    #[test]
    fn day_plane_two_threads_agree_on_cold_days() {
        // Both threads leave the barrier into the same cold days of one
        // shared fleet: whichever fills a row, both must read the value
        // a private (cloned, still cold) fleet computes on its own.
        let shared = EngineFleet::new(FleetConfig {
            seed: 11,
            timeout_mult: 30.0,
            outage_mult: 30.0,
            ..FleetConfig::default()
        });
        let private = shared.clone();
        let s = sample(
            3,
            FileType::Win32Dll,
            GroundTruth::Malicious { detectability: 0.5 },
        );
        let plan = shared.sample_plan(&s);
        let days = [0, 1, 2, 40];
        let barrier = std::sync::Barrier::new(2);
        let sweep = |f: &EngineFleet| -> Vec<VerdictVec> {
            days.iter()
                .map(|&d| f.scan(&plan, &s, s.first_submission + Duration::days(d)))
                .collect()
        };
        let (a, b) = std::thread::scope(|scope| {
            let racer = || {
                barrier.wait();
                sweep(&shared)
            };
            let a = scope.spawn(racer);
            let b = scope.spawn(racer);
            (a.join().expect("racer a"), b.join().expect("racer b"))
        });
        assert_eq!(a, b);
        assert_eq!(memoised_days(&shared), days.len());
        assert_eq!(memoised_days(&private), 0, "the clone was taken cold");
        assert_eq!(sweep(&private), a);
        // A clone taken warm carries the rows and still agrees.
        let warm = shared.clone();
        assert_eq!(memoised_days(&warm), days.len());
        assert_eq!(sweep(&warm), a);
    }
}
