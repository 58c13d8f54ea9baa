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
    /// Scheduled flash crowds.
    #[serde(default)]
    pub flash_crowds: Vec<FlashCrowdSpec>,
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

/// Why a [`GlobalConfig`] was rejected. The tier refuses to start on
/// out-of-range knobs instead of silently computing nonsense shifts.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
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
            ConfigError::Step(v) => write!(f, "step {v} must be finite and in (0, 1]"),
            ConfigError::MaxShift(v) => write!(f, "max_shift {v} must be finite and in (0, 1]"),
            ConfigError::Decay(v) => write!(f, "decay {v} must be finite and in [0, 1]"),
            ConfigError::ZeroTtl => write!(f, "dns ttl_epochs must be >= 1"),
            ConfigError::ZeroConvergence => write!(f, "anycast convergence_epochs must be >= 1"),
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
            flash_crowds: Vec::new(),
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

    /// Adds a scheduled flash crowd (builder-style).
    pub fn with_flash_crowd(mut self, spec: FlashCrowdSpec) -> Self {
        self.flash_crowds.push(spec);
        self
    }

    /// Rejects out-of-range knobs. Called by `GlobalController::new`, so a
    /// config that deserialized fine (serde checks shape, not ranges) still
    /// cannot reach the control loop with a NaN step or a zero-epoch TTL.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
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

    impl GlobalConfig {
        /// Anycast-style steering with the given convergence delay.
        pub(crate) fn anycast(convergence_epochs: u64) -> Self {
            GlobalConfig {
                backend: Some(BackendKind::Anycast {
                    convergence_epochs: convergence_epochs.max(1),
                }),
                ..GlobalConfig::default()
            }
        }
    }

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
        let shape_only = GlobalConfig {
            backend: None,
            ..GlobalConfig::default()
        };
        assert_eq!(shape_only.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_knobs() {
        let bad = |f: fn(&mut GlobalConfig)| {
            let mut cfg = GlobalConfig::default();
            f(&mut cfg);
            cfg.validate()
        };
        assert!(matches!(
            bad(|c| c.step = f64::NAN),
            Err(ConfigError::Step(v)) if v.is_nan()
        ));
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
    fn retired_guard_keys_are_ignored() {
        // The guard tunables became constants; configs written while they
        // were keys still carry them, with the defaults they were written
        // with. Each must load, validate and re-serialize without them.
        let json = serde_json::to_string(&GlobalConfig::default()).unwrap();
        let mut old = json.clone();
        for (key, value) in [
            ("headroom_safety", "0.8"),
            ("staleness_horizon_epochs", "4"),
            ("fail_static_quorum", "0.5"),
            ("blast_radius_fraction", "0.5"),
            ("hold_down_epochs", "3"),
            ("budget_plausibility", "1.0"),
        ] {
            old = old.replacen('{', &format!(r#"{{"{key}":{value},"#), 1);
        }
        let back: GlobalConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(back.validate(), Ok(()));
        assert_eq!(back, GlobalConfig::default());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
