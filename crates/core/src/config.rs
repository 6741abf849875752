//! RAID group configuration and the paper's Table 2 parameter sets.

use crate::CoreError;
use raidsim_dists::{Exponential, LifeDistribution, Weibull3};
use raidsim_hdd::scrub::ScrubPolicy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Named constants for the paper's base-case parameters (Table 2, with
/// the values reconstructed from the prose of Sections 6.1–6.4 — the
/// table itself is garbled in the available text; see DESIGN.md §4).
pub mod params {
    /// Time-to-operational-failure location γ (hours).
    pub const TTOP_GAMMA: f64 = 0.0;
    /// Time-to-operational-failure characteristic life η (hours):
    /// "a field population of over 120,000 HDDs".
    pub const TTOP_ETA: f64 = 461_386.0;
    /// Time-to-operational-failure shape β ("slightly increasing
    /// failure rate").
    pub const TTOP_BETA: f64 = 1.12;

    /// Time-to-restore location γ (hours): "The minimum time of six
    /// hours is used for the location parameter."
    pub const TTR_GAMMA: f64 = 6.0;
    /// Time-to-restore characteristic life η (hours): "the
    /// characteristic life is 12 hours".
    pub const TTR_ETA: f64 = 12.0;
    /// Time-to-restore shape β: "The shape parameter of 2 generates a
    /// right-skewed distribution".
    pub const TTR_BETA: f64 = 2.0;

    /// Time-to-latent-defect characteristic life η (hours): the medium
    /// read-error rate (8×10⁻¹⁴ err/B) at the low read rate
    /// (1.35×10⁹ B/h) gives 1.08×10⁻⁴ defects/hour.
    pub const TTLD_ETA: f64 = 1.0 / 1.08e-4;
    /// Time-to-latent-defect shape β: "The latent defect rate is
    /// assumed to be constant with respect to time (β=1)".
    pub const TTLD_BETA: f64 = 1.0;

    /// Time-to-scrub location γ (hours): the minimum scrub-pass delay.
    pub const TTSCRUB_GAMMA: f64 = 6.0;
    /// Time-to-scrub characteristic life η (hours): the base case
    /// scrubs with a 168-hour (one week) characteristic duration.
    pub const TTSCRUB_ETA: f64 = 168.0;
    /// Time-to-scrub shape β: "In all cases the shape parameter, β, is
    /// 3, which produces a Normal shaped distribution".
    pub const TTSCRUB_BETA: f64 = 3.0;

    /// Mission length: "This research uses a mission of 87,600 hours
    /// (10 years)."
    pub const MISSION_HOURS: f64 = 87_600.0;

    /// Drives per RAID group in all the paper's studies: "All analyses
    /// have an 87,600-hour (10-year) mission and 8 HDDs in a RAID
    /// group."
    pub const GROUP_DRIVES: usize = 8;
}

/// The longest mission [`RaidGroupConfig::validate`] accepts: 10⁶ hours,
/// about 114 years — over eleven times the paper's ten-year mission
/// (87,600 h), the longest any experiment in this repository runs.
/// Simulated work grows with the mission, so a finite but huge one
/// (`1e300` hours) would make a single group run for ever instead of
/// failing fast.
pub const MAX_MISSION_HOURS: f64 = 1.0e6;

/// The widest group [`RaidGroupConfig::validate`] accepts: 1,024
/// drives, far above the 14 of the widest group any experiment here
/// runs. Work per group grows with the square of the width (every
/// failure is checked against every other slot): a base-case group
/// takes about 5 ms at 500 drives and 87 ms at 2,000 (release build,
/// two threads), so a width like 100,000 would make one group run for
/// ever instead of failing fast — and an interrupted run waits for the
/// group in flight.
pub const MAX_DRIVES: usize = 1024;

/// How many simultaneous drive losses the group survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Redundancy {
    /// RAID 4/5 — one parity drive; a second concurrent failure is data
    /// loss. The paper's (N+1) configuration.
    SingleParity,
    /// RAID 6 / RAID-DP — two parity drives; data loss needs a third
    /// concurrent failure. The paper's conclusion: "It appears that,
    /// eventually, RAID 6 will be required to meet high reliability
    /// requirements."
    DoubleParity,
}

impl Redundancy {
    /// Number of concurrent *other* bad drives that turns an
    /// operational failure into data loss.
    pub fn tolerated(&self) -> usize {
        match self {
            Redundancy::SingleParity => 1,
            Redundancy::DoubleParity => 2,
        }
    }
}

/// The four transition distributions of the state model (paper
/// Figure 4).
///
/// `ttld`/`ttscrub` are optional: `ttld = None` disables latent defects
/// entirely (the Figure 6 configurations), `ttscrub = None` with
/// latent defects enabled models a system that never scrubs (the
/// "recipe for disaster" of Section 8).
#[derive(Debug, Clone)]
pub struct TransitionDistributions {
    /// Time to operational failure of a (new) drive.
    pub ttop: Arc<dyn LifeDistribution>,
    /// Time to restore (replace + reconstruct) an operationally failed
    /// drive.
    pub ttr: Arc<dyn LifeDistribution>,
    /// Time for a (clean) drive to develop a latent defect, or `None`
    /// to disable latent defects.
    pub ttld: Option<Arc<dyn LifeDistribution>>,
    /// Time from a latent defect's creation to its correction by
    /// scrubbing, or `None` for a system that never scrubs.
    pub ttscrub: Option<Arc<dyn LifeDistribution>>,
}

impl TransitionDistributions {
    /// The paper's Table 2 base case (all four distributions).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] if any constant is degenerate
    /// (cannot happen for the checked-in values).
    pub fn paper_base_case() -> Result<Self, CoreError> {
        Ok(Self {
            ttop: Arc::new(Weibull3::new(
                params::TTOP_GAMMA,
                params::TTOP_ETA,
                params::TTOP_BETA,
            )?),
            ttr: Arc::new(Weibull3::new(
                params::TTR_GAMMA,
                params::TTR_ETA,
                params::TTR_BETA,
            )?),
            ttld: Some(Arc::new(Weibull3::two_param(
                params::TTLD_ETA,
                params::TTLD_BETA,
            )?)),
            ttscrub: Some(Arc::new(Weibull3::new(
                params::TTSCRUB_GAMMA,
                params::TTSCRUB_ETA,
                params::TTSCRUB_BETA,
            )?)),
        })
    }

    /// Figure 6 variant `c-c`: constant failure and restoration rates
    /// (the MTTDL assumptions), no latent defects. Rates are matched to
    /// the base case by mean (`MTBF = η_op`, `MTTR = 12 h`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] on degenerate constants.
    pub fn constant_rates() -> Result<Self, CoreError> {
        Ok(Self {
            ttop: Arc::new(Exponential::from_mean(params::TTOP_ETA)?),
            ttr: Arc::new(Exponential::from_mean(params::TTR_ETA)?),
            ttld: None,
            ttscrub: None,
        })
    }

    /// Figure 6 variant `f(t)-c`: Weibull failures, constant
    /// restoration rate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] on degenerate constants.
    pub fn weibull_failures_constant_restore() -> Result<Self, CoreError> {
        Ok(Self {
            ttop: Arc::new(Weibull3::new(
                params::TTOP_GAMMA,
                params::TTOP_ETA,
                params::TTOP_BETA,
            )?),
            ttr: Arc::new(Exponential::from_mean(params::TTR_ETA)?),
            ttld: None,
            ttscrub: None,
        })
    }

    /// Figure 6 variant `c-r(t)`: constant failure rate, Weibull
    /// restoration with the 6-hour minimum.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] on degenerate constants.
    pub fn constant_failures_weibull_restore() -> Result<Self, CoreError> {
        Ok(Self {
            ttop: Arc::new(Exponential::from_mean(params::TTOP_ETA)?),
            ttr: Arc::new(Weibull3::new(
                params::TTR_GAMMA,
                params::TTR_ETA,
                params::TTR_BETA,
            )?),
            ttld: None,
            ttscrub: None,
        })
    }

    /// Figure 6 variant `f(t)-r(t)`: Weibull failures and restorations
    /// (the Table 2 distributions), still without latent defects.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] on degenerate constants.
    pub fn weibull_both() -> Result<Self, CoreError> {
        let mut base = Self::paper_base_case()?;
        base.ttld = None;
        base.ttscrub = None;
        Ok(base)
    }

    /// Whether latent defects are modeled.
    pub fn latent_defects_enabled(&self) -> bool {
        self.ttld.is_some()
    }
}

/// Availability of replacement drives.
///
/// The paper's state 1 assumes "a spare HDD is available" at every
/// failure. [`SparePolicy::Finite`] relaxes that: a small on-site pool
/// is consumed by restorations and replenished with a logistics delay;
/// an empty pool stalls reconstruction, stretching the window in which
/// a second failure loses data. Only the discrete-event engine models
/// spares (the timeline engine pre-generates restorations and ignores
/// this field); the spare-pool ablation (`exp E15`) quantifies the effect.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SparePolicy {
    /// A spare is always on hand (the paper's assumption).
    #[default]
    AlwaysAvailable,
    /// `pool` spares on site; each consumption triggers a reorder that
    /// arrives `replenish_hours` later.
    Finite {
        /// Initial (and steady-state target) pool size.
        pool: u32,
        /// Hours from consuming a spare to its replacement arriving.
        replenish_hours: f64,
    },
}

/// Full configuration of one simulated RAID group.
#[derive(Debug, Clone)]
pub struct RaidGroupConfig {
    /// Total drives in the group, parity included (the paper's `N+1`;
    /// base case 8).
    pub drives: usize,
    /// Parity level.
    pub redundancy: Redundancy,
    /// Mission duration, hours.
    pub mission_hours: f64,
    /// The four transition distributions.
    pub dists: TransitionDistributions,
    /// Whether replacing a drive clears its latent-defect clock (a new
    /// drive has no defects). The paper's Figure 5 procedure treats the
    /// operational and defect processes as independent renewals
    /// (`false`); `true` is the physically faithful refinement. The
    /// difference is small (defects are rarely present at replacement)
    /// and is quantified by the `engine_equivalence` ablation.
    pub defect_reset_on_replacement: bool,
    /// Replacement-drive availability (see [`SparePolicy`]).
    pub spares: SparePolicy,
}

impl RaidGroupConfig {
    /// The paper's base case: 8 drives, single parity, 10-year mission,
    /// Table 2 distributions (latent defects + 168 h scrub).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] if constants are degenerate.
    pub fn paper_base_case() -> Result<Self, CoreError> {
        Ok(Self {
            drives: params::GROUP_DRIVES,
            redundancy: Redundancy::SingleParity,
            mission_hours: params::MISSION_HOURS,
            dists: TransitionDistributions::paper_base_case()?,
            defect_reset_on_replacement: false,
            spares: SparePolicy::AlwaysAvailable,
        })
    }

    /// Base case with a different scrub policy (the Figure 9 sweep and
    /// the no-scrub "disaster" case).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Distribution`] if the policy parameters are
    /// degenerate.
    pub fn with_scrub_policy(mut self, policy: ScrubPolicy) -> Result<Self, CoreError> {
        self.dists.ttscrub = policy.distribution()?.map(Arc::from);
        Ok(self)
    }

    /// Replaces the operational-failure distribution (the Figure 10
    /// shape sweep).
    pub fn with_ttop(mut self, ttop: Arc<dyn LifeDistribution>) -> Self {
        self.dists.ttop = ttop;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the group has fewer than
    /// 2 drives or more than [`MAX_DRIVES`], fewer drives than the
    /// redundancy level supports, a non-positive mission or one longer
    /// than [`MAX_MISSION_HOURS`], or a renewal cycle of zero length.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.drives < 2 {
            return Err(CoreError::InvalidConfig {
                field: "drives",
                reason: format!("need at least 2 drives, got {}", self.drives),
            });
        }
        if self.drives > MAX_DRIVES {
            return Err(CoreError::InvalidConfig {
                field: "drives",
                reason: format!("must be at most {MAX_DRIVES}, got {}", self.drives),
            });
        }
        if self.drives <= self.redundancy.tolerated() {
            return Err(CoreError::InvalidConfig {
                field: "drives",
                reason: format!(
                    "{} drives cannot carry {} parity units",
                    self.drives,
                    self.redundancy.tolerated()
                ),
            });
        }
        if !self.mission_hours.is_finite() || self.mission_hours <= 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "mission_hours",
                reason: format!("must be finite and positive, got {}", self.mission_hours),
            });
        }
        if self.mission_hours > MAX_MISSION_HOURS {
            return Err(CoreError::InvalidConfig {
                field: "mission_hours",
                reason: format!(
                    "must be at most {MAX_MISSION_HOURS} h (about 114 years), got {:e}",
                    self.mission_hours
                ),
            });
        }
        if self.dists.ttscrub.is_some() && self.dists.ttld.is_none() {
            return Err(CoreError::InvalidConfig {
                field: "dists.ttscrub",
                reason: "scrub distribution given but latent defects disabled".into(),
            });
        }
        // Lifetimes are non-negative, so a zero mean is zero almost
        // surely: a fail/restore (or defect/scrub) cycle of zero length
        // would fire forever at one instant and the run would never end.
        // A partial atom at zero still renews in positive time.
        if self.dists.ttop.mean() + self.dists.ttr.mean() == 0.0 {
            return Err(CoreError::InvalidConfig {
                field: "dists.ttop",
                reason: "failure and restore times are both zero".into(),
            });
        }
        if let (Some(ttld), Some(ttscrub)) = (&self.dists.ttld, &self.dists.ttscrub) {
            if ttld.mean() + ttscrub.mean() == 0.0 {
                return Err(CoreError::InvalidConfig {
                    field: "dists.ttld",
                    reason: "defect and scrub times are both zero".into(),
                });
            }
        }
        if let SparePolicy::Finite {
            pool,
            replenish_hours,
        } = self.spares
        {
            if pool == 0 {
                return Err(CoreError::InvalidConfig {
                    field: "spares",
                    reason: "finite spare pool must start with at least one spare".into(),
                });
            }
            if !replenish_hours.is_finite() || replenish_hours <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    field: "spares",
                    reason: format!(
                        "replenish_hours must be finite and positive, got {replenish_hours}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Number of *data* drives (`N` in the paper's `N+1`).
    pub fn data_drives(&self) -> usize {
        self.drives - self.redundancy.tolerated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DesEngine, Engine, TimelineEngine};
    use raidsim_dists::rng::stream;
    use raidsim_dists::{Degenerate, Mixture};

    #[test]
    fn base_case_matches_table2() {
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        assert_eq!(cfg.drives, 8);
        assert_eq!(cfg.mission_hours, 87_600.0);
        assert!(cfg.dists.latent_defects_enabled());
        assert!(cfg.dists.ttscrub.is_some());
        cfg.validate().unwrap();
        // TTLd eta is ~9,259 h.
        assert!((cfg.dists.ttld.as_ref().unwrap().mean() - 9259.26).abs() < 0.1);
    }

    #[test]
    fn figure6_variants_disable_latent_defects() {
        for d in [
            TransitionDistributions::constant_rates().unwrap(),
            TransitionDistributions::weibull_failures_constant_restore().unwrap(),
            TransitionDistributions::constant_failures_weibull_restore().unwrap(),
            TransitionDistributions::weibull_both().unwrap(),
        ] {
            assert!(!d.latent_defects_enabled());
            assert!(d.ttscrub.is_none());
        }
    }

    #[test]
    fn constant_variants_have_matching_means() {
        let cc = TransitionDistributions::constant_rates().unwrap();
        assert!((cc.ttop.mean() - 461_386.0).abs() < 1e-6);
        assert!((cc.ttr.mean() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_degenerate_groups() {
        let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
        cfg.drives = 1;
        assert!(cfg.validate().is_err());
        cfg.drives = 2;
        cfg.redundancy = Redundancy::DoubleParity;
        assert!(cfg.validate().is_err());
        cfg.drives = 3;
        cfg.validate().unwrap();
        cfg.mission_hours = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_missions_beyond_the_cap() {
        let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
        cfg.mission_hours = MAX_MISSION_HOURS;
        cfg.validate().unwrap();
        for hours in [MAX_MISSION_HOURS * (1.0 + f64::EPSILON), 1e300, f64::MAX] {
            cfg.mission_hours = hours;
            match cfg.validate() {
                Err(CoreError::InvalidConfig { field, .. }) => assert_eq!(field, "mission_hours"),
                other => panic!("mission {hours} h: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_groups_beyond_the_width_cap() {
        let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
        cfg.drives = MAX_DRIVES;
        cfg.validate().unwrap();
        for drives in [MAX_DRIVES + 1, 100_000, usize::MAX] {
            cfg.drives = drives;
            match cfg.validate() {
                Err(CoreError::InvalidConfig { field, .. }) => assert_eq!(field, "drives"),
                other => panic!("{drives} drives: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_scrub_without_latent_defects() {
        let mut cfg = RaidGroupConfig::paper_base_case().unwrap();
        cfg.dists.ttld = None;
        assert!(matches!(
            cfg.validate(),
            Err(CoreError::InvalidConfig {
                field: "dists.ttscrub",
                ..
            })
        ));
    }

    #[test]
    fn validation_rejects_zero_length_renewal_cycles() {
        let zero = || -> Arc<dyn LifeDistribution> { Arc::new(Degenerate::new(0.0).unwrap()) };
        let base = RaidGroupConfig::paper_base_case().unwrap();

        let mut cfg = base.clone();
        cfg.dists.ttop = zero();
        cfg.dists.ttr = zero();
        assert!(matches!(
            cfg.validate(),
            Err(CoreError::InvalidConfig {
                field: "dists.ttop",
                ..
            })
        ));

        let mut cfg = base.clone();
        cfg.dists.ttld = Some(zero());
        cfg.dists.ttscrub = Some(zero());
        assert!(matches!(
            cfg.validate(),
            Err(CoreError::InvalidConfig {
                field: "dists.ttld",
                ..
            })
        ));

        // Half the cycles still take positive time, so the run ends
        // almost surely.
        let atom = || -> Arc<dyn LifeDistribution> {
            let exp: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(50.0).unwrap());
            Arc::new(Mixture::new(vec![(0.5, zero()), (0.5, exp)]).unwrap())
        };
        let mut cfg = base.clone();
        cfg.mission_hours = 2_000.0;
        cfg.dists.ttop = atom();
        cfg.dists.ttr = zero();
        cfg.dists.ttld = Some(atom());
        cfg.dists.ttscrub = Some(atom());
        cfg.validate().unwrap();
        let engines: [&dyn Engine; 2] = [&DesEngine::new(), &TimelineEngine::new()];
        for engine in engines {
            for g in 0..4 {
                engine
                    .simulate_group(&cfg, &mut stream(3, g))
                    .assert_invariants(cfg.mission_hours);
            }
        }

        // Zero-length defects that are never scrubbed stay open.
        let mut cfg = base;
        cfg.dists.ttld = Some(zero());
        cfg.dists.ttscrub = None;
        cfg.validate().unwrap();
    }

    #[test]
    fn scrub_policy_swap() {
        let cfg = RaidGroupConfig::paper_base_case()
            .unwrap()
            .with_scrub_policy(ScrubPolicy::Disabled)
            .unwrap();
        assert!(cfg.dists.ttscrub.is_none());
        assert!(cfg.dists.latent_defects_enabled());

        let cfg = RaidGroupConfig::paper_base_case()
            .unwrap()
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(12.0))
            .unwrap();
        assert!(cfg.dists.ttscrub.unwrap().mean() < 30.0);
    }

    #[test]
    fn redundancy_tolerances() {
        assert_eq!(Redundancy::SingleParity.tolerated(), 1);
        assert_eq!(Redundancy::DoubleParity.tolerated(), 2);
        let cfg = RaidGroupConfig::paper_base_case().unwrap();
        assert_eq!(cfg.data_drives(), 7); // the paper's N = 7
    }
}
