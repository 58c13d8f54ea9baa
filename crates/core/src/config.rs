//! Controller configuration.

use serde::{Deserialize, Serialize};

use crate::allocator::DetourStrategy;

/// Tunables for one PoP's controller.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Utilization limit: an interface whose projected load exceeds
    /// `limit × capacity` is overloaded and must shed traffic. The paper
    /// runs ≈0.95, holding headroom for projection error and sub-cycle
    /// bursts.
    pub util_limit: f64,
    /// How the allocator picks which prefixes to detour.
    pub strategy: DetourStrategy,
    /// Withdraw hysteresis: a standing capacity override is kept while its
    /// source interface still projects above `util_limit − hysteresis`,
    /// preventing flapping when demand hovers at the limit. 0 (default)
    /// reproduces the paper's fully stateless recompute.
    pub withdraw_hysteresis: f64,
    /// Prefix splitting (paper §7 future work): when a whole prefix fits on
    /// no single alternate, allow detouring its two more-specific halves
    /// independently. 0 = off (paper-faithful); 1 = one halving.
    pub split_depth: u8,
    /// Graceful degradation: when the controller's inputs (BMP feed or
    /// traffic estimates) are older than this horizon, the epoch runs in
    /// degraded mode — the override set may shrink or hold but never grow,
    /// and every kept detour target is re-validated against the (stale)
    /// routes and capacity.
    pub stale_input_secs: u64,
    /// Graceful degradation: past this input age the controller stops
    /// trusting its view entirely and fails open — every override is
    /// withdrawn, returning the PoP to plain BGP (paper §4.4's fail-static
    /// argument, made explicit).
    pub fail_open_secs: u64,
    /// Blast-radius cap: at most this fraction of the PoP's total demand
    /// may be *newly* shifted (prefixes not already overridden) in a single
    /// epoch. 1.0 disables the guard.
    pub max_shift_fraction_per_epoch: f64,
    /// Cost-aware detours: when several feasible alternates sit in the
    /// same BGP preference band, pick the one with the lowest marginal
    /// cost instead of the first in rank order. Never degrades the BGP
    /// band and never overrides a capacity constraint — it is strictly a
    /// tiebreak. Off (default) reproduces cost-blind Edge Fabric.
    #[serde(default)]
    pub cost_aware: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            util_limit: 0.95,
            strategy: DetourStrategy::BestAlternativeFirst,
            withdraw_hysteresis: 0.0,
            split_depth: 0,
            stale_input_secs: 120,
            fail_open_secs: 600,
            max_shift_fraction_per_epoch: 1.0,
            cost_aware: false,
        }
    }
}

impl ControllerConfig {
    /// Validates invariants; call after deserializing external config.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.util_limit && self.util_limit <= 1.0) {
            return Err(format!("util_limit {} outside (0, 1]", self.util_limit));
        }
        if !(0.0..self.util_limit).contains(&self.withdraw_hysteresis) {
            return Err(format!(
                "withdraw_hysteresis {} outside [0, util_limit)",
                self.withdraw_hysteresis
            ));
        }
        if self.split_depth > 1 {
            return Err(format!("split_depth {} > 1 unsupported", self.split_depth));
        }
        if self.stale_input_secs == 0 {
            return Err("stale_input_secs must be positive".into());
        }
        if self.fail_open_secs < self.stale_input_secs {
            return Err(format!(
                "fail_open_secs {} shorter than stale_input_secs {}",
                self.fail_open_secs, self.stale_input_secs
            ));
        }
        if !(0.0 < self.max_shift_fraction_per_epoch && self.max_shift_fraction_per_epoch <= 1.0) {
            return Err(format!(
                "max_shift_fraction_per_epoch {} outside (0, 1]",
                self.max_shift_fraction_per_epoch
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = ControllerConfig::default();
        cfg.validate().unwrap();
        assert!((cfg.util_limit - 0.95).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = |f: fn(&mut ControllerConfig)| {
            let mut cfg = ControllerConfig::default();
            f(&mut cfg);
            cfg.validate().is_err()
        };
        assert!(bad(|c| c.util_limit = 0.0));
        assert!(bad(|c| c.util_limit = 1.2));
        assert!(bad(|c| c.withdraw_hysteresis = 0.95));
        assert!(bad(|c| c.split_depth = 2));
        assert!(bad(|c| c.stale_input_secs = 0));
        assert!(bad(|c| c.fail_open_secs = 10)); // < stale_input_secs
        assert!(bad(|c| c.max_shift_fraction_per_epoch = 0.0));
        assert!(bad(|c| c.max_shift_fraction_per_epoch = 1.5));
    }

    #[test]
    fn degradation_horizons_are_ordered_by_default() {
        let cfg = ControllerConfig::default();
        assert!(
            cfg.stale_input_secs >= 30,
            "fresh epochs of the paper's ~30 s cycle never degrade"
        );
        assert!(cfg.fail_open_secs >= cfg.stale_input_secs);
        assert_eq!(cfg.max_shift_fraction_per_epoch, 1.0, "cap off by default");
    }

    #[test]
    fn retired_incremental_key_is_ignored() {
        // Configs written before a knob was retired still carry its key,
        // with the default they were written with; each must load, validate
        // and re-serialize without it.
        let json = serde_json::to_string(&ControllerConfig::default()).unwrap();
        for (key, value) in [
            ("incremental", "false"),
            ("epoch_secs", "30"),
            ("override_marker", "2158363623"),
            ("max_detour_fraction", "1.0"),
            ("max_overrides", "0"),
            ("dry_run", "false"),
        ] {
            let old = json.replacen('{', &format!(r#"{{"{key}":{value},"#), 1);
            let back: ControllerConfig = serde_json::from_str(&old).unwrap();
            back.validate().unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json, "{key}");
        }
    }

    #[test]
    fn cost_aware_defaults_off_for_old_configs() {
        // Pre-cost configs must load cost-blind: steering decisions may
        // not change under anyone's feet on upgrade.
        let json = serde_json::to_string(&ControllerConfig::default()).unwrap();
        let mut value = serde_json::parse_value(&json).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(key, _)| key != "cost_aware");
        }
        let back = <ControllerConfig as serde::Deserialize>::from_value(&value).unwrap();
        assert!(!back.cost_aware);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ControllerConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ControllerConfig = serde_json::from_str(&json).unwrap();
        assert!((back.util_limit - cfg.util_limit).abs() < 1e-12);
        assert_eq!(back.stale_input_secs, cfg.stale_input_secs);
    }
}
