//! Seeded schedule generation.
//!
//! Experiments need *many* fault scenarios, reproducibly. The generator
//! samples a [`FaultSchedule`] from a [`ChaosProfile`] (how many faults of
//! which kinds, how long) and a [`SimSurface`] (what exists to break:
//! PoPs, their peers, their interfaces), using nothing but the seed for
//! randomness — the same `(profile, surface, seed)` triple always yields
//! the identical schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::schedule::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};

/// What the simulator exposes to break at one PoP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopSurface {
    pub pop: usize,
    /// Stable peer ids with sessions at this PoP.
    pub peers: Vec<u64>,
    /// Egress interface ids at this PoP.
    pub egresses: Vec<u32>,
}

/// The full breakable surface of a simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimSurface {
    pub pops: Vec<PopSurface>,
}

impl SimSurface {
    pub(crate) fn is_empty(&self) -> bool {
        self.pops.is_empty()
    }
}

/// Tunables for schedule sampling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Faults start within `[warmup_secs, duration_secs)` — the warm-up
    /// lets the controller converge before the first injection.
    pub duration_secs: u64,
    pub warmup_secs: u64,
    /// Total number of fault events to sample.
    pub events: usize,
    /// Fault windows are sampled uniformly from this range (seconds).
    pub min_fault_secs: u64,
    pub max_fault_secs: u64,
    /// Kinds eligible for sampling, by [`FaultKind::label`] name. Empty
    /// means every per-PoP kind in `FaultKind::ALL_LABELS`; the
    /// global-tier kinds ([`FaultKind::GLOBAL_LABELS`]) must be named
    /// explicitly — they are no-ops in scenarios without the tier.
    #[serde(default)]
    pub kinds: Vec<String>,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            duration_secs: 3600,
            warmup_secs: 300,
            events: 8,
            min_fault_secs: 120,
            max_fault_secs: 600,
            kinds: Vec::new(),
        }
    }
}

impl ChaosProfile {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.warmup_secs >= self.duration_secs {
            return Err(format!(
                "warmup {}s must be shorter than duration {}s",
                self.warmup_secs, self.duration_secs
            ));
        }
        if self.min_fault_secs == 0 || self.min_fault_secs > self.max_fault_secs {
            return Err(format!(
                "fault length range [{}, {}] is invalid",
                self.min_fault_secs, self.max_fault_secs
            ));
        }
        for kind in &self.kinds {
            if !FaultKind::ALL_LABELS.contains(&kind.as_str())
                && !FaultKind::GLOBAL_LABELS.contains(&kind.as_str())
            {
                return Err(format!("unknown fault kind {kind:?}"));
            }
        }
        Ok(())
    }

    fn enabled_labels(&self) -> Vec<&str> {
        if self.kinds.is_empty() {
            FaultKind::ALL_LABELS.to_vec()
        } else {
            self.kinds.iter().map(String::as_str).collect()
        }
    }
}

/// Samples a schedule. Deterministic in `(profile, surface, seed)`.
pub fn generate(
    profile: &ChaosProfile,
    surface: &SimSurface,
    seed: u64,
) -> Result<FaultSchedule, String> {
    profile.validate()?;
    if surface.is_empty() {
        return Err("cannot generate faults for an empty surface".to_string());
    }
    let labels = profile.enabled_labels();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xEF_C4A0_5EED);
    let mut events = Vec::with_capacity(profile.events);
    let mut attempts = 0usize;
    while events.len() < profile.events {
        attempts += 1;
        if attempts > profile.events * 64 {
            return Err(format!(
                "could not place {} faults on this surface (placed {})",
                profile.events,
                events.len()
            ));
        }
        let label = labels[rng.gen_range(0..labels.len())];
        let pop_surface = &surface.pops[rng.gen_range(0..surface.pops.len())];
        let pop = pop_surface.pop;
        let (kind, target) = match label {
            "peer_failure" => {
                if pop_surface.peers.is_empty() {
                    continue;
                }
                let peer = pop_surface.peers[rng.gen_range(0..pop_surface.peers.len())];
                (FaultKind::PeerFailure, FaultTarget::Peer { pop, peer })
            }
            "link_capacity_loss" => {
                if pop_surface.egresses.is_empty() {
                    continue;
                }
                let egress = pop_surface.egresses[rng.gen_range(0..pop_surface.egresses.len())];
                (
                    FaultKind::LinkCapacityLoss {
                        fraction: rng.gen_range(0.25..0.75),
                    },
                    FaultTarget::Interface { pop, egress },
                )
            }
            "bmp_stall" => (FaultKind::BmpStall, FaultTarget::Pop { pop }),
            "sflow_loss" => (
                FaultKind::SflowLoss {
                    drop_fraction: rng.gen_range(0.5..1.0),
                },
                FaultTarget::Pop { pop },
            ),
            "controller_crash" => (FaultKind::ControllerCrash, FaultTarget::Pop { pop }),
            "injector_loss" => (FaultKind::InjectorLoss, FaultTarget::Pop { pop }),
            "flash_crowd" => (
                FaultKind::FlashCrowd {
                    multiplier: rng.gen_range(1.5..3.0),
                },
                FaultTarget::Pop { pop },
            ),
            "update_corruption" => {
                if pop_surface.peers.is_empty() {
                    continue;
                }
                let peer = pop_surface.peers[rng.gen_range(0..pop_surface.peers.len())];
                (
                    FaultKind::UpdateCorruption {
                        rate: rng.gen_range(0.1..0.6),
                    },
                    FaultTarget::Peer { pop, peer },
                )
            }
            "session_flap_storm" => {
                if pop_surface.peers.is_empty() {
                    continue;
                }
                let peer = pop_surface.peers[rng.gen_range(0..pop_surface.peers.len())];
                (
                    FaultKind::SessionFlapStorm {
                        period_s: rng.gen_range(2..=15),
                    },
                    FaultTarget::Peer { pop, peer },
                )
            }
            "injector_partial_loss" => (
                FaultKind::InjectorPartialLoss {
                    fraction: rng.gen_range(0.2..0.8),
                },
                FaultTarget::Pop { pop },
            ),
            "report_partition" => (
                FaultKind::ReportPartition,
                FaultTarget::Global { pop: Some(pop) },
            ),
            "report_staleness" => (
                FaultKind::ReportStaleness {
                    epochs: rng.gen_range(2..=6),
                },
                FaultTarget::Global { pop: Some(pop) },
            ),
            "global_controller_crash" => (
                FaultKind::GlobalControllerCrash,
                FaultTarget::Global { pop: None },
            ),
            "headroom_lie" => (
                FaultKind::HeadroomLie {
                    factor: rng.gen_range(2.0..10.0),
                },
                FaultTarget::Global { pop: Some(pop) },
            ),
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        let duration_secs = rng.gen_range(profile.min_fault_secs..=profile.max_fault_secs);
        let latest_start = profile.duration_secs.saturating_sub(duration_secs);
        if latest_start <= profile.warmup_secs {
            continue;
        }
        let t_start_secs = rng.gen_range(profile.warmup_secs..latest_start);
        events.push(FaultEvent {
            t_start_secs,
            duration_secs,
            target,
            kind,
        });
    }
    FaultSchedule::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface() -> SimSurface {
        SimSurface {
            pops: vec![
                PopSurface {
                    pop: 0,
                    peers: vec![1, 2, 3],
                    egresses: vec![0, 1, 2],
                },
                PopSurface {
                    pop: 1,
                    peers: vec![4, 5],
                    egresses: vec![0, 1],
                },
            ],
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let profile = ChaosProfile::default();
        let a = generate(&profile, &surface(), 42).unwrap();
        let b = generate(&profile, &surface(), 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), profile.events);
    }

    #[test]
    fn different_seeds_differ() {
        let profile = ChaosProfile::default();
        let a = generate(&profile, &surface(), 1).unwrap();
        let b = generate(&profile, &surface(), 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_warmup_and_duration() {
        let profile = ChaosProfile {
            duration_secs: 2000,
            warmup_secs: 500,
            events: 12,
            min_fault_secs: 60,
            max_fault_secs: 120,
            kinds: Vec::new(),
        };
        let sched = generate(&profile, &surface(), 7).unwrap();
        for e in &sched.events {
            assert!(e.t_start_secs >= profile.warmup_secs);
            assert!(e.t_end_secs() <= profile.duration_secs);
            assert!(e.validate().is_ok());
        }
    }

    #[test]
    fn kind_filter_is_honored() {
        let profile = ChaosProfile {
            kinds: vec!["bmp_stall".to_string(), "flash_crowd".to_string()],
            ..Default::default()
        };
        let sched = generate(&profile, &surface(), 3).unwrap();
        assert!(!sched.is_empty());
        for e in &sched.events {
            assert!(matches!(
                e.kind,
                FaultKind::BmpStall | FaultKind::FlashCrowd { .. }
            ));
        }
    }

    #[test]
    fn global_kinds_are_opt_in_and_sample_valid_targets() {
        // The default (empty kinds) never samples a global fault.
        let sched = generate(&ChaosProfile::default(), &surface(), 5).unwrap();
        for e in &sched.events {
            assert!(e.target.pop().is_some(), "default sampling stays per-PoP");
        }
        // Asking for them yields validated Global targets.
        let profile = ChaosProfile {
            events: 16,
            kinds: FaultKind::GLOBAL_LABELS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            ..Default::default()
        };
        let sched = generate(&profile, &surface(), 9).unwrap();
        assert_eq!(sched.len(), 16);
        for e in &sched.events {
            assert_eq!(e.target.pop(), None);
            assert!(e.validate().is_ok());
            match e.kind {
                FaultKind::GlobalControllerCrash => assert_eq!(e.target.global_pop(), None),
                _ => assert!(e.target.global_pop().is_some()),
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let profile = ChaosProfile {
            kinds: vec!["meteor_strike".to_string()],
            ..Default::default()
        };
        assert!(generate(&profile, &surface(), 0).is_err());
    }

    #[test]
    fn empty_surface_rejected() {
        assert!(generate(&ChaosProfile::default(), &SimSurface::default(), 0).is_err());
    }
}
