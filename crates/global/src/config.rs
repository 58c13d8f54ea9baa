//! Configuration for the global steering tier.

use serde::{Deserialize, Serialize};

/// Which mechanism moves user populations between PoPs. The two variants
/// bracket the design space the paper's successors explored: DNS maps
/// (gradual, fractional, delayed by resolver caches) versus anycast
/// announcements (instant whole-catchment cutover once BGP converges).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendKind {
    /// DNS-style steering: per epoch the map may move a fraction of a
    /// population, and issued changes take effect gradually as resolver
    /// caches expire over `ttl_epochs`.
    Dns {
        /// Cache-expiry horizon in controller epochs (≥ 1). Each epoch the
        /// observed fraction closes `1/ttl_epochs` of the gap to the
        /// issued target.
        ttl_epochs: u64,
    },
    /// Anycast-style steering: withdrawing the announcement moves the
    /// *whole* population at once, `convergence_epochs` after the decision
    /// (BGP propagation delay). No fractional states ever exist.
    Anycast {
        /// Decision-to-effect delay in controller epochs (≥ 1).
        convergence_epochs: u64,
    },
}

/// A scheduled flash crowd: one population's demand multiplied for a
/// window of simulated time (the World-Cup-final scenario from §2 of the
/// paper, scaled to a named region).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdSpec {
    /// Population name (a region label: `"EU"`, `"NA"`, …). Unknown
    /// names are ignored.
    pub population: String,
    /// Window start, simulated seconds.
    pub t_start_secs: u64,
    /// Window length, seconds.
    pub duration_secs: u64,
    /// Demand multiplier applied inside the window.
    pub multiplier: f64,
}

/// Global-tier configuration.
///
/// `backend: None` is the *shape-only* arm: flash crowds still shape
/// demand (so baseline and steered experiment arms see byte-identical
/// offered load) but no steering ever happens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalConfig {
    /// Steering mechanism; `None` disables steering (shape-only).
    #[serde(default)]
    pub backend: Option<BackendKind>,
    /// Shift increment per epoch of observed residual overload.
    #[serde(default = "default_step")]
    pub step: f64,
    /// Ceiling on the fraction of a population's demand at one PoP that a
    /// fractional backend may move away. Anycast ignores this: a
    /// withdrawal is all-or-nothing by construction.
    #[serde(default = "default_max_shift")]
    pub max_shift: f64,
    /// Decay per healthy epoch (fractional backends).
    #[serde(default = "default_decay")]
    pub decay: f64,
    /// Fraction of a PoP's reported headroom the global tier may consume
    /// as detour budget each epoch. Below 1.0 so global placement never
    /// eats the margin the per-PoP controller needs for its own detours.
    #[serde(default = "default_headroom_safety")]
    pub headroom_safety: f64,
    /// Scheduled flash crowds.
    #[serde(default)]
    pub flash_crowds: Vec<FlashCrowdSpec>,
    /// Report-freshness horizon, epochs (≥ 1). A PoP whose last report is
    /// `age` epochs old keeps `1 - age/horizon` of its usable budget; at
    /// the horizon the budget is zero — the tier stops steering users
    /// toward headroom numbers it cannot verify.
    #[serde(default = "default_staleness_horizon")]
    pub staleness_horizon_epochs: u64,
    /// Minimum fraction of PoP reports that must arrive in an epoch for
    /// the backend to keep updating placements, in `(0, 1]`. Below it the
    /// tier goes *fail-static*: every away-fraction freezes and no new
    /// move is initiated until visibility returns.
    #[serde(default = "default_fail_static_quorum")]
    pub fail_static_quorum: f64,
    /// Per-epoch global blast-radius cap: total placed demand may not
    /// exceed this fraction of total offered demand, in `(0, 1]`. Bounds
    /// how far a single bad epoch of inputs can move the world.
    #[serde(default = "default_blast_radius_fraction")]
    pub blast_radius_fraction: f64,
    /// Move hysteresis: after a cell's away-fraction rises (a drain step),
    /// restores at that cell are suppressed for this many epochs. Zero
    /// disables the hold-down. The anti-thrash knob for populations that
    /// would otherwise bounce between PoPs on alternating reports.
    #[serde(default = "default_hold_down_epochs")]
    pub hold_down_epochs: u64,
    /// Plausibility clamp on negotiated budgets: a PoP's usable budget
    /// never exceeds this multiple of its own baseline demand, however
    /// much headroom it claims (`> 0`). Bounds the damage of an exporter
    /// over-reporting headroom.
    #[serde(default = "default_budget_plausibility")]
    pub budget_plausibility: f64,
}

fn default_step() -> f64 {
    0.05
}
fn default_max_shift() -> f64 {
    0.5
}
fn default_decay() -> f64 {
    0.01
}
fn default_headroom_safety() -> f64 {
    0.8
}
fn default_staleness_horizon() -> u64 {
    4
}
fn default_fail_static_quorum() -> f64 {
    0.5
}
fn default_blast_radius_fraction() -> f64 {
    0.5
}
fn default_hold_down_epochs() -> u64 {
    3
}
fn default_budget_plausibility() -> f64 {
    1.0
}

/// Why a [`GlobalConfig`] was rejected. The tier refuses to start on
/// out-of-range knobs instead of silently computing nonsense budgets
/// (a negative `headroom_safety` used to yield negative detour budgets).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `headroom_safety` must be finite and in `[0, 1]`.
    HeadroomSafety(f64),
    /// `step` must be finite and in `(0, 1]`.
    Step(f64),
    /// `max_shift` must be finite and in `(0, 1]`.
    MaxShift(f64),
    /// `decay` must be finite and in `[0, 1]`.
    Decay(f64),
    /// A DNS backend's `ttl_epochs` must be ≥ 1.
    ZeroTtl,
    /// An anycast backend's `convergence_epochs` must be ≥ 1.
    ZeroConvergence,
    /// `staleness_horizon_epochs` must be ≥ 1.
    ZeroStalenessHorizon,
    /// `fail_static_quorum` must be finite and in `(0, 1]`.
    FailStaticQuorum(f64),
    /// `blast_radius_fraction` must be finite and in `(0, 1]`.
    BlastRadiusFraction(f64),
    /// `budget_plausibility` must be finite and `> 0`.
    BudgetPlausibility(f64),
    /// A flash crowd's multiplier must be finite and `> 0`.
    FlashCrowdMultiplier {
        /// The offending crowd's population name.
        population: String,
        /// The rejected multiplier.
        multiplier: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::HeadroomSafety(v) => {
                write!(f, "headroom_safety {v} must be finite and in [0, 1]")
            }
            ConfigError::Step(v) => write!(f, "step {v} must be finite and in (0, 1]"),
            ConfigError::MaxShift(v) => write!(f, "max_shift {v} must be finite and in (0, 1]"),
            ConfigError::Decay(v) => write!(f, "decay {v} must be finite and in [0, 1]"),
            ConfigError::ZeroTtl => write!(f, "dns ttl_epochs must be >= 1"),
            ConfigError::ZeroConvergence => write!(f, "anycast convergence_epochs must be >= 1"),
            ConfigError::ZeroStalenessHorizon => {
                write!(f, "staleness_horizon_epochs must be >= 1")
            }
            ConfigError::FailStaticQuorum(v) => {
                write!(f, "fail_static_quorum {v} must be finite and in (0, 1]")
            }
            ConfigError::BlastRadiusFraction(v) => {
                write!(f, "blast_radius_fraction {v} must be finite and in (0, 1]")
            }
            ConfigError::BudgetPlausibility(v) => {
                write!(f, "budget_plausibility {v} must be finite and > 0")
            }
            ConfigError::FlashCrowdMultiplier {
                population,
                multiplier,
            } => write!(
                f,
                "flash crowd for {population:?}: multiplier {multiplier} must be finite and > 0"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            backend: Some(BackendKind::Dns { ttl_epochs: 1 }),
            step: default_step(),
            max_shift: default_max_shift(),
            decay: default_decay(),
            headroom_safety: default_headroom_safety(),
            flash_crowds: Vec::new(),
            staleness_horizon_epochs: default_staleness_horizon(),
            fail_static_quorum: default_fail_static_quorum(),
            blast_radius_fraction: default_blast_radius_fraction(),
            hold_down_epochs: default_hold_down_epochs(),
            budget_plausibility: default_budget_plausibility(),
        }
    }
}

impl GlobalConfig {
    /// DNS-style steering with the given cache-expiry horizon.
    pub fn dns(ttl_epochs: u64) -> Self {
        GlobalConfig {
            backend: Some(BackendKind::Dns {
                ttl_epochs: ttl_epochs.max(1),
            }),
            ..GlobalConfig::default()
        }
    }

    /// Anycast-style steering with the given convergence delay.
    pub fn anycast(convergence_epochs: u64) -> Self {
        GlobalConfig {
            backend: Some(BackendKind::Anycast {
                convergence_epochs: convergence_epochs.max(1),
            }),
            ..GlobalConfig::default()
        }
    }

    /// Demand shaping only — flash crowds apply, steering never does.
    pub fn shape_only() -> Self {
        GlobalConfig {
            backend: None,
            ..GlobalConfig::default()
        }
    }

    /// Adds a scheduled flash crowd (builder-style).
    pub fn with_flash_crowd(mut self, spec: FlashCrowdSpec) -> Self {
        self.flash_crowds.push(spec);
        self
    }

    /// Rejects out-of-range knobs. Called by `GlobalController::new`, so a
    /// config that deserialized fine (serde checks shape, not ranges) still
    /// cannot reach the control loop with a NaN safety margin or a
    /// zero-epoch TTL.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.headroom_safety.is_finite() || !(0.0..=1.0).contains(&self.headroom_safety) {
            return Err(ConfigError::HeadroomSafety(self.headroom_safety));
        }
        if !self.step.is_finite() || self.step <= 0.0 || self.step > 1.0 {
            return Err(ConfigError::Step(self.step));
        }
        if !self.max_shift.is_finite() || self.max_shift <= 0.0 || self.max_shift > 1.0 {
            return Err(ConfigError::MaxShift(self.max_shift));
        }
        if !self.decay.is_finite() || !(0.0..=1.0).contains(&self.decay) {
            return Err(ConfigError::Decay(self.decay));
        }
        match self.backend {
            Some(BackendKind::Dns { ttl_epochs: 0 }) => return Err(ConfigError::ZeroTtl),
            Some(BackendKind::Anycast {
                convergence_epochs: 0,
            }) => return Err(ConfigError::ZeroConvergence),
            _ => {}
        }
        if self.staleness_horizon_epochs == 0 {
            return Err(ConfigError::ZeroStalenessHorizon);
        }
        if !self.fail_static_quorum.is_finite()
            || self.fail_static_quorum <= 0.0
            || self.fail_static_quorum > 1.0
        {
            return Err(ConfigError::FailStaticQuorum(self.fail_static_quorum));
        }
        if !self.blast_radius_fraction.is_finite()
            || self.blast_radius_fraction <= 0.0
            || self.blast_radius_fraction > 1.0
        {
            return Err(ConfigError::BlastRadiusFraction(self.blast_radius_fraction));
        }
        if !self.budget_plausibility.is_finite() || self.budget_plausibility <= 0.0 {
            return Err(ConfigError::BudgetPlausibility(self.budget_plausibility));
        }
        for crowd in &self.flash_crowds {
            if !crowd.multiplier.is_finite() || crowd.multiplier <= 0.0 {
                return Err(ConfigError::FlashCrowdMultiplier {
                    population: crowd.population.clone(),
                    multiplier: crowd.multiplier,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_pick_the_right_backend() {
        assert_eq!(
            GlobalConfig::dns(4).backend,
            Some(BackendKind::Dns { ttl_epochs: 4 })
        );
        assert_eq!(
            GlobalConfig::anycast(3).backend,
            Some(BackendKind::Anycast {
                convergence_epochs: 3
            })
        );
        assert_eq!(GlobalConfig::shape_only().backend, None);
        // Degenerate horizons are clamped to 1.
        assert_eq!(
            GlobalConfig::dns(0).backend,
            Some(BackendKind::Dns { ttl_epochs: 1 })
        );
    }

    #[test]
    fn serde_round_trip_with_defaults() {
        let cfg = GlobalConfig::dns(4).with_flash_crowd(FlashCrowdSpec {
            population: "EU".into(),
            t_start_secs: 9000,
            duration_secs: 3600,
            multiplier: 2.5,
        });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GlobalConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Missing optional fields come back as defaults.
        let minimal: GlobalConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(minimal.step, 0.05);
        assert_eq!(minimal.backend, None);
        assert!(minimal.flash_crowds.is_empty());
    }

    #[test]
    fn validate_accepts_defaults_and_constructors() {
        assert_eq!(GlobalConfig::default().validate(), Ok(()));
        assert_eq!(GlobalConfig::dns(4).validate(), Ok(()));
        assert_eq!(GlobalConfig::anycast(3).validate(), Ok(()));
        assert_eq!(GlobalConfig::shape_only().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_knobs() {
        let bad = |f: fn(&mut GlobalConfig)| {
            let mut cfg = GlobalConfig::default();
            f(&mut cfg);
            cfg.validate()
        };
        assert!(matches!(
            bad(|c| c.headroom_safety = f64::NAN),
            Err(ConfigError::HeadroomSafety(v)) if v.is_nan()
        ));
        assert_eq!(
            bad(|c| c.headroom_safety = -0.1),
            Err(ConfigError::HeadroomSafety(-0.1))
        );
        assert_eq!(
            bad(|c| c.headroom_safety = 1.5),
            Err(ConfigError::HeadroomSafety(1.5))
        );
        assert_eq!(bad(|c| c.step = 0.0), Err(ConfigError::Step(0.0)));
        assert_eq!(
            bad(|c| c.max_shift = f64::INFINITY),
            Err(ConfigError::MaxShift(f64::INFINITY))
        );
        assert_eq!(bad(|c| c.decay = -0.01), Err(ConfigError::Decay(-0.01)));
        assert_eq!(
            bad(|c| c.backend = Some(BackendKind::Dns { ttl_epochs: 0 })),
            Err(ConfigError::ZeroTtl)
        );
        assert_eq!(
            bad(|c| c.backend = Some(BackendKind::Anycast {
                convergence_epochs: 0
            })),
            Err(ConfigError::ZeroConvergence)
        );
        assert_eq!(
            bad(|c| c.staleness_horizon_epochs = 0),
            Err(ConfigError::ZeroStalenessHorizon)
        );
        assert_eq!(
            bad(|c| c.fail_static_quorum = 0.0),
            Err(ConfigError::FailStaticQuorum(0.0))
        );
        assert_eq!(
            bad(|c| c.blast_radius_fraction = 1.1),
            Err(ConfigError::BlastRadiusFraction(1.1))
        );
        assert_eq!(
            bad(|c| c.budget_plausibility = 0.0),
            Err(ConfigError::BudgetPlausibility(0.0))
        );
        let crowd = bad(|c| {
            c.flash_crowds.push(FlashCrowdSpec {
                population: "EU".into(),
                t_start_secs: 0,
                duration_secs: 60,
                multiplier: f64::NAN,
            })
        });
        assert!(matches!(
            crowd,
            Err(ConfigError::FlashCrowdMultiplier { .. })
        ));
        // Errors render as readable strings (used by the sim's startup path).
        assert!(ConfigError::ZeroTtl.to_string().contains("ttl_epochs"));
    }

    #[test]
    fn guard_knob_defaults_survive_serde() {
        let minimal: GlobalConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(minimal.staleness_horizon_epochs, 4);
        assert_eq!(minimal.fail_static_quorum, 0.5);
        assert_eq!(minimal.blast_radius_fraction, 0.5);
        assert_eq!(minimal.hold_down_epochs, 3);
        assert_eq!(minimal.budget_plausibility, 1.0);
        assert_eq!(minimal.validate(), Ok(()));
    }
}
