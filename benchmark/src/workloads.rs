//! The four workloads: how `--world`, `--seed` and `--seconds` become
//! the `Deployment` and `SimConfig` the program receives.
//!
//! Every workload simulates one day, so each region's diurnal peak (where
//! overrides happen) is crossed whatever the run length; `--seconds` only
//! sets how many epochs that day is cut into. The epoch count is a fixed
//! function of `--seconds` (not of how fast the program runs), so the
//! simulated outcome of a `(workload, world, seed, seconds)` tuple is exact
//! and comparable across commits.

use crate::layers::{
    chaos_surface, generate_faults, scenario, BackendKind, ChaosProfile, CostModel, Deployment,
    FaultEvent, FaultKind, FaultSchedule, FaultTarget, FlashCrowdSpec, GenConfig, GlobalConfig,
    HealthConfig, PerfSimConfig, Region, SimConfig,
};

const DAY_SECS: u64 = 86_400;

/// What one invocation was asked to run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    /// Topology and fault-schedule seed. Fixed by default: set-up time,
    /// memory, epoch time and the steering outcome all follow the generated
    /// topology and which faults hit it, so letting `--seed` move them
    /// would swing every metric by ±30 % from seed to seed.
    pub world: u64,
    /// Demand seed: every prefix's noise phases and the sFlow samplers.
    pub seed: u64,
    pub seconds: f64,
}

impl Params {
    pub fn epochs(&self) -> u64 {
        self.workload.epochs(self.seconds)
    }

    /// Set-up repetitions whose median is reported. Short (`--quick`)
    /// runs set up once; their numbers are not comparable anyway.
    pub fn setup_reps(&self) -> usize {
        if self.seconds >= 2.0 {
            3
        } else {
            1
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Churn,
    Wide,
    Fulltable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Churn,
        Workload::Wide,
        Workload::Fulltable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Churn => "churn",
            Workload::Wide => "wide",
            Workload::Fulltable => "fulltable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epochs driven per second of `--seconds`, calibrated on the 2-core
    /// reference box so that a run measures for about `--seconds` there.
    fn epochs_per_second(self) -> f64 {
        match self {
            Workload::Steady => 130.0,
            Workload::Churn => 60.0,
            Workload::Wide => 19.0,
            Workload::Fulltable => 17.0,
        }
    }

    /// Fewest epochs the day is ever cut into, however short the run: 48
    /// (half-hour epochs) leaves enough epochs for the global tier's TTL
    /// and the incident to play out. `churn` needs epochs of at most 480 s:
    /// the controller calls an input stale from 120 s and fails open past
    /// 600 s, so with longer epochs no pop-epoch could ever run degraded.
    fn min_epochs(self) -> u64 {
        match self {
            Workload::Churn => 180,
            _ => 48,
        }
    }

    /// Epochs in the simulated day for a run of `seconds`.
    pub fn epochs(self, seconds: f64) -> u64 {
        ((seconds * self.epochs_per_second()).round() as u64).max(self.min_epochs())
    }

    /// The topology the program is asked to generate.
    pub fn gen_config(self, world: u64) -> GenConfig {
        match self {
            // 4 PoPs × 6 000 prefixes: the `exp_perf_scaling` top point.
            Workload::Steady | Workload::Churn => GenConfig {
                seed: world,
                n_pops: 4,
                n_ases: 600,
                n_prefixes: 6_000,
                total_avg_gbps: 400.0,
                ..GenConfig::default()
            },
            // The paper's PoP count at the generator's default scale, with
            // a non-uniform transit ladder so cost-aware steering has a
            // choice to make.
            Workload::Wide => GenConfig {
                seed: world,
                cost: CostModel {
                    transit_usd_per_mbps: vec![3.0, 1.5, 0.5],
                    ..CostModel::default()
                },
                ..GenConfig::default()
            },
            Workload::Fulltable => GenConfig {
                seed: world,
                n_pops: 1,
                n_ases: FULLTABLE_PREFIXES / 10,
                n_prefixes: FULLTABLE_PREFIXES,
                total_avg_gbps: 100.0,
                ..GenConfig::default()
            },
        }
    }

    /// The scenario over `deployment` (which `gen_config` produced); the
    /// telemetry handle is attached by the driver.
    pub fn sim_config(
        self,
        world: u64,
        seed: u64,
        epochs: u64,
        deployment: &Deployment,
    ) -> SimConfig {
        let epoch_secs = (DAY_SECS / epochs).max(1);
        let base = scenario()
            .topology(self.gen_config(world))
            .demand_seed(seed)
            .duration_secs(epochs * epoch_secs)
            .epoch_secs(epoch_secs);
        match self {
            Workload::Steady | Workload::Fulltable => base
                .exact_rates()
                .billing(false)
                .tune_controller(|c| c.split_depth = 1)
                .build(),
            Workload::Churn => base
                .sample_rate(1000)
                .billing(false)
                .perf(PerfSimConfig {
                    steer: true,
                    ..PerfSimConfig::default()
                })
                .chaos(churn_faults(world, epochs, epoch_secs, deployment))
                .build(),
            Workload::Wide => {
                // The E18 incident over the middle third of the day, the
                // flash crowd starting an hour into it and lasting four.
                let day = epochs * epoch_secs;
                base.global(
                    GlobalConfig {
                        backend: Some(BackendKind::Dns { ttl_epochs: 4 }),
                        step: 0.1,
                        max_shift: 1.0,
                        decay: 0.02,
                        ..GlobalConfig::default()
                    }
                    .with_flash_crowd(FlashCrowdSpec {
                        population: "EU".into(),
                        t_start_secs: day / 3 + day / 24,
                        duration_secs: day / 6,
                        multiplier: 2.5,
                    }),
                )
                .chaos(blackout(deployment, day / 3, day / 3))
                .health(HealthConfig::default())
                .billing(true)
                .cost_aware(true)
                .build()
            }
        }
    }
}

/// Prefixes in the `fulltable` world. Set-up is super-linear in this, and
/// the contract has set-up run several times per run, so this is the
/// largest table whose repeated set-up fits the driver's time budget.
pub const FULLTABLE_PREFIXES: usize = 60_000;

/// Faults over the `churn` day: every per-PoP kind, windows of 2–15
/// epochs after a 10-epoch warm-up (120–900 s and 600 s at 60 s epochs).
fn churn_faults(
    world: u64,
    epochs: u64,
    epoch_secs: u64,
    deployment: &Deployment,
) -> FaultSchedule {
    let profile = ChaosProfile {
        duration_secs: epochs * epoch_secs,
        warmup_secs: 10 * epoch_secs,
        events: 96,
        min_fault_secs: 2 * epoch_secs,
        max_fault_secs: 15 * epoch_secs,
        kinds: Vec::new(),
    };
    generate_faults(&profile, &chaos_surface(deployment), world)
        .expect("96 faults fit a 4-PoP surface")
}

/// The first European PoP loses 90 % of every interface for the window.
fn blackout(deployment: &Deployment, t_start_secs: u64, duration_secs: u64) -> FaultSchedule {
    let victim = deployment
        .pops
        .iter()
        .find(|p| p.region == Region::Europe)
        .expect("a 20-PoP world has a European PoP");
    let events: Vec<FaultEvent> = victim
        .interfaces
        .iter()
        .map(|iface| FaultEvent {
            t_start_secs,
            duration_secs,
            target: FaultTarget::Interface {
                pop: victim.id.0 as usize,
                egress: iface.id.0,
            },
            kind: FaultKind::LinkCapacityLoss { fraction: 0.9 },
        })
        .collect();
    FaultSchedule::new(events).expect("valid blackout schedule")
}
