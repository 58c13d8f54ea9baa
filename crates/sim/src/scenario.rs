//! Scenario configuration: everything an experiment run needs, in one
//! serializable bundle.

use serde::{Deserialize, Serialize};

use edge_fabric::ControllerConfig;
use ef_chaos::FaultSchedule;
use ef_topology::GenConfig;

use ef_global::GlobalConfig;

/// Performance-measurement arm of a scenario.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PerfSimConfig {
    /// Whether measured comparisons feed performance overrides (§6.2). If
    /// false, measurement runs but only reports (§6.1).
    pub steer: bool,
}

/// A complete simulation scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Deployment generator parameters (includes the topology seed).
    #[serde(skip, default)]
    pub gen: GenConfig,
    /// Seed for the demand model's noise.
    pub demand_seed: u64,
    /// Controller tunables.
    pub controller: ControllerConfig,
    /// Run the Edge Fabric controller (false = baseline BGP arm).
    pub controller_enabled: bool,
    /// Simulated duration, seconds.
    pub duration_secs: u64,
    /// Controller epoch / metric sampling period, seconds.
    pub epoch_secs: u64,
    /// Feed the controller sampled rate estimates (true, production-like)
    /// or exact demand (false, for isolating allocator behaviour).
    pub sampled_rates: bool,
    /// 1-in-N packet sampling rate when `sampled_rates`.
    pub sample_rate: u32,
    /// Alternate-path measurement arm, if any.
    pub perf: Option<PerfSimConfig>,
    /// Global steering tier (user→PoP placement above per-PoP Edge
    /// Fabric), the paper's future-work layer.
    #[serde(default)]
    pub global: Option<GlobalConfig>,
    /// Fault schedule the run interprets (`None` = sunny-day run).
    #[serde(default)]
    pub chaos: Option<FaultSchedule>,
    /// Health & SLO tier: a per-epoch metric sample per PoP, judged by the
    /// alert-rule engine and emitted to telemetry (`None` = no sampling).
    /// Strictly read-only — results are byte-identical with health on or
    /// off.
    #[serde(default)]
    pub health: Option<ef_health::HealthConfig>,
    /// Run the 95/5 billing meter: every interface's per-epoch carried
    /// load streams into 5-minute billing windows, and `take_metrics`
    /// reports an end-of-run bill per interface. Strictly observational —
    /// steering decisions never read the meter — so results other than the
    /// billing rows are byte-identical with it off. On by default; the
    /// perf smoke flips it to bound the meter's overhead.
    #[serde(default = "default_billing")]
    pub billing: bool,
    /// Telemetry pipeline every PoP controller (and the engine's fault
    /// bookkeeping) reports into. Disabled by default; never serialized —
    /// a sink is an I/O handle, not part of the scenario, and keeping it
    /// out of the config JSON is part of the determinism contract.
    #[serde(skip, default)]
    pub telemetry: ef_telemetry::TelemetryHandle,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            gen: GenConfig::default(),
            demand_seed: 42,
            controller: ControllerConfig::default(),
            controller_enabled: true,
            duration_secs: 24 * 3600,
            epoch_secs: 30,
            sampled_rates: true,
            sample_rate: 1000,
            perf: None,
            global: None,
            chaos: None,
            health: None,
            billing: true,
            telemetry: ef_telemetry::TelemetryHandle::disabled(),
        }
    }
}

fn default_billing() -> bool {
    true
}

impl SimConfig {
    /// The same scenario with the controller switched off (baseline arm).
    pub fn baseline(mut self) -> Self {
        self.controller_enabled = false;
        self
    }

    /// Number of epochs the scenario runs.
    pub fn epochs(&self) -> u64 {
        self.duration_secs / self.epoch_secs
    }
}

/// Starts a fluent scenario description — the one construction idiom for
/// simulations:
///
/// ```
/// use ef_sim::scenario;
///
/// let mut engine = scenario()
///     .small_topology(7)
///     .duration_secs(10 * 60)
///     .epoch_secs(60)
///     .engine();
/// engine.run();
/// ```
///
/// Every knob has a sensible default (the paper-scale sunny-day run);
/// builders flip only what the experiment varies. `build()` yields the
/// serializable [`SimConfig`]; `engine()` / `engine_with()` go straight to
/// a ready [`crate::engine::SimEngine`].
pub fn scenario() -> ScenarioBuilder {
    ScenarioBuilder {
        cfg: SimConfig::default(),
    }
}

/// Fluent builder for [`SimConfig`] / [`crate::engine::SimEngine`]. Create
/// one with [`scenario()`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: SimConfig,
}

impl ScenarioBuilder {
    /// Continues building from an existing config — the idiom for deriving
    /// experiment arms from a shared base scenario.
    pub fn from_config(cfg: SimConfig) -> Self {
        ScenarioBuilder { cfg }
    }

    /// Seeds only the demand model's noise.
    pub fn demand_seed(mut self, seed: u64) -> Self {
        self.cfg.demand_seed = seed;
        self
    }

    /// Full custom topology-generator parameters.
    pub fn topology(mut self, gen: GenConfig) -> Self {
        self.cfg.gen = gen;
        self
    }

    /// The tiny 4-PoP test topology with the given seed.
    pub fn small_topology(mut self, seed: u64) -> Self {
        self.cfg.gen = GenConfig::small(seed);
        self
    }

    /// Simulated duration, seconds.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.cfg.duration_secs = secs;
        self
    }

    /// Simulated duration, hours.
    pub fn hours(mut self, hours: u64) -> Self {
        self.cfg.duration_secs = hours * 3600;
        self
    }

    /// Controller epoch / metric sampling period, seconds. Rejects a zero
    /// epoch eagerly: the run is counted in epochs, so it has no length.
    pub fn epoch_secs(mut self, secs: u64) -> Self {
        if secs == 0 {
            panic!("invalid epoch_secs 0: must be positive");
        }
        self.cfg.epoch_secs = secs;
        self
    }

    /// Switches the controller off (baseline BGP arm).
    pub fn baseline(mut self) -> Self {
        self.cfg.controller_enabled = false;
        self
    }

    /// Explicitly sets whether the controller runs.
    pub fn controller_enabled(mut self, enabled: bool) -> Self {
        self.cfg.controller_enabled = enabled;
        self
    }

    /// Tunes controller knobs in place, keeping the rest at their defaults.
    pub fn tune_controller(mut self, f: impl FnOnce(&mut ControllerConfig)) -> Self {
        f(&mut self.cfg.controller);
        self
    }

    /// Feeds the controller production-like 1-in-N sampled rate estimates.
    /// Panics on `rate` 0, which would blind the collector (see
    /// `SflowSampler::new`).
    pub fn sample_rate(mut self, rate: u32) -> Self {
        if rate == 0 {
            panic!("invalid sample_rate 0: sampling is 1-in-N, N ≥ 1");
        }
        self.cfg.sampled_rates = true;
        self.cfg.sample_rate = rate;
        self
    }

    /// Feeds the controller exact demand (isolates allocator behaviour).
    pub fn exact_rates(mut self) -> Self {
        self.cfg.sampled_rates = false;
        self
    }

    /// Enables the alternate-path performance-measurement arm.
    pub fn perf(mut self, perf: PerfSimConfig) -> Self {
        self.cfg.perf = Some(perf);
        self
    }

    /// Enables the global steering tier with the given configuration.
    pub fn global(mut self, global: GlobalConfig) -> Self {
        self.cfg.global = Some(global);
        self
    }

    /// Installs a fault schedule for the run.
    pub fn chaos(mut self, schedule: FaultSchedule) -> Self {
        self.cfg.chaos = Some(schedule);
        self
    }

    /// Enables the health & SLO tier: per-epoch signal sampling and the
    /// built-in alert rules under the given thresholds.
    pub fn health(mut self, cfg: ef_health::HealthConfig) -> Self {
        self.cfg.health = Some(cfg);
        self
    }

    /// Installs the deployment's cost model: the transit price ladder and
    /// PNI port cost the topology generator stamps onto interfaces.
    ///
    /// Rejects malformed models (NaN or negative prices, empty ladder)
    /// eagerly with the typed [`ef_topology::CostConfigError`], the same
    /// contract as `GlobalConfig::validate`.
    pub fn cost_model(mut self, cost: ef_topology::CostModel) -> Self {
        if let Err(e) = cost.validate() {
            panic!("invalid cost model: {e}");
        }
        self.cfg.gen.cost = cost;
        self
    }

    /// Flips the 95/5 billing meter (on by default; observational only).
    pub fn billing(mut self, on: bool) -> Self {
        self.cfg.billing = on;
        self
    }

    /// Cost-aware capacity detours: within a preference band, feasible
    /// alternates are chosen cheapest-first (see
    /// `ControllerConfig::cost_aware`).
    pub fn cost_aware(mut self, on: bool) -> Self {
        self.cfg.controller.cost_aware = on;
        self
    }

    /// Attaches a telemetry pipeline (disabled handle by default).
    pub fn telemetry(mut self, handle: ef_telemetry::TelemetryHandle) -> Self {
        self.cfg.telemetry = handle;
        self
    }

    /// Finishes the description as a serializable config.
    pub fn build(self) -> SimConfig {
        self.cfg
    }

    /// Builds the engine directly: generates the deployment, brings up
    /// every PoP and attaches controllers.
    pub fn engine(self) -> crate::engine::SimEngine {
        crate::engine::SimEngine::new(self.cfg)
    }

    /// Builds the engine over an existing deployment — lets the arms of a
    /// with/without comparison share the exact same world.
    pub fn engine_with(self, deployment: ef_topology::Deployment) -> crate::engine::SimEngine {
        crate::engine::SimEngine::with_deployment(self.cfg, deployment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_division() {
        let cfg = SimConfig {
            duration_secs: 3600,
            epoch_secs: 30,
            ..Default::default()
        };
        assert_eq!(cfg.epochs(), 120);
    }

    #[test]
    fn baseline_flips_only_the_controller() {
        let cfg = scenario().small_topology(1).build();
        let base = cfg.clone().baseline();
        assert!(cfg.controller_enabled);
        assert!(!base.controller_enabled);
        assert_eq!(cfg.demand_seed, base.demand_seed);
        assert_eq!(cfg.duration_secs, base.duration_secs);
        assert_eq!(cfg.chaos, base.chaos, "both arms share the fault schedule");
    }

    #[test]
    fn cost_builders_set_model_and_knobs() {
        let cfg = scenario()
            .small_topology(1)
            .cost_model(ef_topology::CostModel {
                transit_usd_per_mbps: vec![0.5, 1.5],
                ..Default::default()
            })
            .cost_aware(true)
            .build();
        assert_eq!(cfg.gen.cost.transit_usd_per_mbps, vec![0.5, 1.5]);
        assert!(cfg.controller.cost_aware);
        assert!(cfg.billing, "meter on by default");
        assert!(!scenario().billing(false).build().billing);
    }

    #[test]
    #[should_panic(expected = "invalid cost model")]
    fn negative_transit_price_is_rejected() {
        let _ = scenario().cost_model(ef_topology::CostModel {
            transit_usd_per_mbps: vec![-1.0],
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid cost model")]
    fn nan_pni_port_cost_is_rejected() {
        let _ = scenario().cost_model(ef_topology::CostModel {
            pni_port_usd_per_month: f64::NAN,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid sample_rate")]
    fn zero_sample_rate_is_rejected() {
        let _ = scenario().sample_rate(0);
    }

    #[test]
    #[should_panic(expected = "invalid epoch_secs")]
    fn zero_epoch_is_rejected() {
        let _ = scenario().epoch_secs(0);
    }

    #[test]
    fn billing_defaults_on_for_old_configs() {
        // Configs serialized before the field existed must load with the
        // meter on.
        let json = serde_json::to_string(&scenario().small_topology(1).build()).unwrap();
        let mut value = serde_json::parse_value(&json).unwrap();
        if let serde::Value::Object(fields) = &mut value {
            fields.retain(|(key, _)| key != "billing");
        }
        let back = <SimConfig as serde::Deserialize>::from_value(&value).unwrap();
        assert!(back.billing);
    }

    #[test]
    fn retired_incremental_key_is_ignored() {
        // Configs written before a knob was retired still carry its key, in
        // the object that held it and with the default it was written
        // with; each must load, validate and re-serialize without it.
        let json = serde_json::to_string(
            &scenario()
                .small_topology(1)
                .perf(PerfSimConfig::default())
                .global(ef_global::GlobalConfig::default())
                .health(ef_health::HealthConfig::default())
                .build(),
        )
        .unwrap();
        let aware = r#"{"improvement_threshold_ms":20.0,"min_samples":30,"max_overrides":0,"cost_vs_rtt":0.0}"#;
        for (object, key, value) in [
            ("{", "incremental", "false"),
            ("\"controller\":{", "incremental", "false"),
            ("\"controller\":{", "epoch_secs", "30"),
            ("\"controller\":{", "override_marker", "2158363623"),
            ("\"controller\":{", "max_detour_fraction", "1.0"),
            ("\"controller\":{", "max_overrides", "0"),
            ("\"controller\":{", "dry_run", "false"),
            ("\"controller\":{", "max_shift_fraction_per_epoch", "1.0"),
            ("\"perf\":{", "slice_fraction", "0.005"),
            ("\"perf\":{", "aware", aware),
            ("\"global\":{", "grouping", "\"ByRegion\""),
            ("\"global\":{", "headroom_safety", "0.8"),
            ("\"global\":{", "staleness_horizon_epochs", "4"),
            ("\"global\":{", "fail_static_quorum", "0.5"),
            ("\"global\":{", "blast_radius_fraction", "0.5"),
            ("\"global\":{", "hold_down_epochs", "3"),
            ("\"global\":{", "budget_plausibility", "1.0"),
            ("\"health\":{", "epoch_deadline_ms", "null"),
            ("\"health\":{", "billing_budget_usd_per_month", "null"),
            ("\"health\":{", "ring_capacity", "512"),
            ("\"health\":{", "digest_bins", "64"),
            ("\"health\":{", "drop_rate_ceiling", "0.005"),
            ("\"health\":{", "util_overload", "1.0"),
            ("\"health\":{", "churn_storm", "50.0"),
            ("\"health\":{", "churn_sustain", "3"),
            ("\"health\":{", "stale_input_ms", "45000.0"),
            ("\"health\":{", "session_reset_storm", "2.5"),
            ("\"health\":{", "placement_thrash", "4.0"),
            ("\"health\":{", "thrash_sustain", "2"),
            ("\"health\":{", "clear_epochs", "2"),
            ("\"health\":{", "warmup_epochs", "2"),
        ] {
            // The health object is empty, so the inserted key is its last:
            // drop the comma that would otherwise trail it.
            let old = json
                .replacen(object, &format!("{object}\"{key}\":{value},"), 1)
                .replace(",}", "}");
            assert_ne!(old, json, "{object}");
            let back: SimConfig = serde_json::from_str(&old).unwrap();
            back.controller.validate().unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), json, "{key}");
        }
    }

    #[test]
    fn chaos_schedule_survives_serde() {
        use ef_chaos::{FaultEvent, FaultKind, FaultTarget};
        let mut cfg = scenario().small_topology(1).build();
        cfg.chaos = Some(
            FaultSchedule::new(vec![FaultEvent {
                t_start_secs: 600,
                duration_secs: 300,
                target: FaultTarget::Pop { pop: 0 },
                kind: FaultKind::BmpStall,
            }])
            .unwrap(),
        );
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.chaos, cfg.chaos);
        // Absent field defaults to no chaos.
        let plain: SimConfig = serde_json::from_str(
            &serde_json::to_string(&scenario().small_topology(2).build()).unwrap(),
        )
        .unwrap();
        assert!(plain.chaos.is_none());
    }
}
