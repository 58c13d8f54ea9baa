//! The fault-schedule data model.
//!
//! A schedule is an ordered list of [`FaultEvent`]s. Each event names a
//! [`FaultTarget`] (a PoP, one of its BGP peers, or one of its egress
//! interfaces), a [`FaultKind`], and a `[t_start, t_start + duration)`
//! window in simulated seconds. Events are plain data: each tick the
//! simulator derives its fault state from the windows
//! [`FaultEvent::active_at`] that tick.

use serde::{Deserialize, Serialize};

/// What a fault acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A whole PoP (controller, feeds, demand).
    Pop { pop: usize },
    /// One BGP peering session at a PoP, by stable peer id.
    Peer { pop: usize, peer: u64 },
    /// One egress interface at a PoP, by egress id.
    Interface { pop: usize, egress: u32 },
    /// The global steering tier. `pop: Some(p)` breaks the reporting path
    /// between PoP `p` and the tier (partition, staleness, a lying
    /// exporter); `pop: None` takes down the tier itself. Global faults
    /// never reach a PoP runtime — [`FaultTarget::pop`] is `None` — the
    /// engine interprets them around the tier's observe/place cycle.
    Global { pop: Option<usize> },
}

impl FaultTarget {
    /// The PoP runtime this fault is applied at; `None` for global-tier
    /// faults, which the engine interprets above the PoPs.
    pub fn pop(&self) -> Option<usize> {
        match *self {
            FaultTarget::Pop { pop }
            | FaultTarget::Peer { pop, .. }
            | FaultTarget::Interface { pop, .. } => Some(pop),
            FaultTarget::Global { .. } => None,
        }
    }

    /// The PoP whose *reporting path to the global tier* this fault
    /// breaks, for `Global` targets that name one.
    pub fn global_pop(&self) -> Option<usize> {
        match *self {
            FaultTarget::Global { pop } => pop,
            _ => None,
        }
    }
}

/// The failure modes of every controller input and output.
///
/// Parameterized kinds carry their severity so a schedule is fully
/// self-describing and replayable from JSON alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A BGP peering session drops (routes withdrawn) and re-establishes
    /// when the window closes. Target: `Peer`.
    PeerFailure,
    /// An egress interface loses part of its capacity (link flap /
    /// LAG-member loss). Target: `Interface`.
    LinkCapacityLoss {
        /// Fraction of nominal capacity lost, in `(0, 1]`.
        fraction: f64,
    },
    /// The BMP feed stalls: the controller sees a frozen Adj-RIB-In until
    /// the window closes, then the queued updates arrive. Target: `Pop`.
    BmpStall,
    /// sFlow sample loss: the rate estimator is starved of this fraction
    /// of samples. Target: `Pop`.
    SflowLoss {
        /// Fraction of samples dropped, in `(0, 1]`.
        drop_fraction: f64,
    },
    /// The controller process crashes: epochs are skipped, the injector
    /// session drops (implicitly withdrawing every override), and on
    /// restart the controller must resync from a fresh BMP snapshot.
    /// Target: `Pop`.
    ControllerCrash,
    /// Only the injector's BGP session to the peering router drops; the
    /// controller keeps running and re-announces once it reconnects.
    /// Target: `Pop`.
    InjectorLoss,
    /// A flash crowd multiplies the PoP's demand for the window.
    /// Target: `Pop`.
    FlashCrowd {
        /// Demand multiplier, `> 1`.
        multiplier: f64,
    },
    /// A fraction of the peer's UPDATEs arrive with mangled attribute
    /// bytes; RFC 7606 grading on the receive path downgrades them to
    /// treat-as-withdraw / attribute-discard instead of resetting the
    /// session. Target: `Peer`.
    UpdateCorruption {
        /// Fraction of the peer's UPDATEs corrupted, in `(0, 1]`.
        rate: f64,
    },
    /// The peer's session flaps repeatedly: it drops every `period_s`
    /// seconds for the window, exercising the reconnect governor's backoff
    /// and flap damping. Target: `Peer`.
    SessionFlapStorm {
        /// Seconds between consecutive drops, `>= 1`.
        period_s: u64,
    },
    /// A fraction of the controller's per-prefix injection sends are lost
    /// before reaching the router; the injector's retry/reconciliation
    /// machinery must repair the divergence. Target: `Pop`.
    InjectorPartialLoss {
        /// Fraction of injection sends dropped, in `(0, 1]`.
        fraction: f64,
    },
    /// One PoP's `PopReport` never reaches the global controller for the
    /// window — the tier sees the PoP go silent. Target: `Global` with a
    /// named pop.
    ReportPartition,
    /// One PoP's reports still arrive but are frozen `epochs` old — a
    /// stalled exporter replaying its last measurements. Target: `Global`
    /// with a named pop.
    ReportStaleness {
        /// How many epochs behind real time the delivered reports are,
        /// `>= 1`.
        epochs: u64,
    },
    /// The global controller itself is down: no reports are processed and
    /// every placement is frozen as issued until the window closes.
    /// Target: `Global` with `pop: None`.
    GlobalControllerCrash,
    /// One PoP's exporter over-reports headroom by `factor` — a
    /// mis-measured or lying capacity feed tempting the tier to steer
    /// users into a wall. Target: `Global` with a named pop.
    HeadroomLie {
        /// Multiplier applied to the reported headroom, `> 1`.
        factor: f64,
    },
}

impl FaultKind {
    /// Short stable label for metrics tagging and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::PeerFailure => "peer_failure",
            FaultKind::LinkCapacityLoss { .. } => "link_capacity_loss",
            FaultKind::BmpStall => "bmp_stall",
            FaultKind::SflowLoss { .. } => "sflow_loss",
            FaultKind::ControllerCrash => "controller_crash",
            FaultKind::InjectorLoss => "injector_loss",
            FaultKind::FlashCrowd { .. } => "flash_crowd",
            FaultKind::UpdateCorruption { .. } => "update_corruption",
            FaultKind::SessionFlapStorm { .. } => "session_flap_storm",
            FaultKind::InjectorPartialLoss { .. } => "injector_partial_loss",
            FaultKind::ReportPartition => "report_partition",
            FaultKind::ReportStaleness { .. } => "report_staleness",
            FaultKind::GlobalControllerCrash => "global_controller_crash",
            FaultKind::HeadroomLie { .. } => "headroom_lie",
        }
    }

    /// Per-PoP labels, in declaration order (for matrix sweeps and
    /// reports). Default generation samples from this set; the global-tier
    /// kinds in [`GLOBAL_LABELS`](Self::GLOBAL_LABELS) are opt-in because
    /// they are no-ops in scenarios without the tier.
    pub(crate) const ALL_LABELS: [&'static str; 10] = [
        "peer_failure",
        "link_capacity_loss",
        "bmp_stall",
        "sflow_loss",
        "controller_crash",
        "injector_loss",
        "flash_crowd",
        "update_corruption",
        "session_flap_storm",
        "injector_partial_loss",
    ];

    /// Labels of the global-tier fault kinds, in declaration order.
    pub const GLOBAL_LABELS: [&'static str; 4] = [
        "report_partition",
        "report_staleness",
        "global_controller_crash",
        "headroom_lie",
    ];
}

/// One fault: `kind` applied to `target` for `[t_start, t_start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    pub t_start_secs: u64,
    pub duration_secs: u64,
    pub target: FaultTarget,
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Exclusive end of the fault window.
    pub(crate) fn t_end_secs(&self) -> u64 {
        self.t_start_secs.saturating_add(self.duration_secs)
    }

    /// True while the fault is in effect at `t_secs`.
    pub fn active_at(&self, t_secs: u64) -> bool {
        t_secs >= self.t_start_secs && t_secs < self.t_end_secs()
    }

    /// Validates the event's parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.duration_secs == 0 {
            return Err(format!(
                "fault at t={} has zero duration",
                self.t_start_secs
            ));
        }
        match (self.kind, self.target) {
            (FaultKind::PeerFailure, FaultTarget::Peer { .. }) => Ok(()),
            (FaultKind::PeerFailure, t) => {
                Err(format!("peer_failure must target a Peer, got {t:?}"))
            }
            (FaultKind::LinkCapacityLoss { fraction }, FaultTarget::Interface { .. }) => {
                if fraction > 0.0 && fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "link_capacity_loss fraction {fraction} outside (0, 1]"
                    ))
                }
            }
            (FaultKind::LinkCapacityLoss { .. }, t) => Err(format!(
                "link_capacity_loss must target an Interface, got {t:?}"
            )),
            (FaultKind::SflowLoss { drop_fraction }, FaultTarget::Pop { .. }) => {
                if drop_fraction > 0.0 && drop_fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "sflow_loss drop_fraction {drop_fraction} outside (0, 1]"
                    ))
                }
            }
            (FaultKind::FlashCrowd { multiplier }, FaultTarget::Pop { .. }) => {
                if multiplier > 1.0 && multiplier.is_finite() {
                    Ok(())
                } else {
                    Err(format!("flash_crowd multiplier {multiplier} must be > 1"))
                }
            }
            (FaultKind::UpdateCorruption { rate }, FaultTarget::Peer { .. }) => {
                if rate > 0.0 && rate <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("update_corruption rate {rate} outside (0, 1]"))
                }
            }
            (FaultKind::UpdateCorruption { .. }, t) => {
                Err(format!("update_corruption must target a Peer, got {t:?}"))
            }
            (FaultKind::SessionFlapStorm { period_s }, FaultTarget::Peer { .. }) => {
                if period_s >= 1 {
                    Ok(())
                } else {
                    Err("session_flap_storm period_s must be >= 1".to_string())
                }
            }
            (FaultKind::SessionFlapStorm { .. }, t) => {
                Err(format!("session_flap_storm must target a Peer, got {t:?}"))
            }
            (FaultKind::InjectorPartialLoss { fraction }, FaultTarget::Pop { .. }) => {
                if fraction > 0.0 && fraction <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "injector_partial_loss fraction {fraction} outside (0, 1]"
                    ))
                }
            }
            (
                FaultKind::BmpStall | FaultKind::ControllerCrash | FaultKind::InjectorLoss,
                FaultTarget::Pop { .. },
            ) => Ok(()),
            (FaultKind::ReportPartition, FaultTarget::Global { pop: Some(_) }) => Ok(()),
            (FaultKind::ReportPartition, t) => Err(format!(
                "report_partition must target Global with a pop, got {t:?}"
            )),
            (FaultKind::ReportStaleness { epochs }, FaultTarget::Global { pop: Some(_) }) => {
                if epochs >= 1 {
                    Ok(())
                } else {
                    Err("report_staleness epochs must be >= 1".to_string())
                }
            }
            (FaultKind::ReportStaleness { .. }, t) => Err(format!(
                "report_staleness must target Global with a pop, got {t:?}"
            )),
            (FaultKind::GlobalControllerCrash, FaultTarget::Global { pop: None }) => Ok(()),
            (FaultKind::GlobalControllerCrash, t) => Err(format!(
                "global_controller_crash must target Global with pop: None, got {t:?}"
            )),
            (FaultKind::HeadroomLie { factor }, FaultTarget::Global { pop: Some(_) }) => {
                if factor > 1.0 && factor.is_finite() {
                    Ok(())
                } else {
                    Err(format!("headroom_lie factor {factor} must be > 1"))
                }
            }
            (FaultKind::HeadroomLie { .. }, t) => Err(format!(
                "headroom_lie must target Global with a pop, got {t:?}"
            )),
            (k, t) => Err(format!("{} must target a Pop, got {t:?}", k.label())),
        }
    }
}

/// An ordered, validated collection of fault events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule, sorting events into canonical order and
    /// validating each one.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, String> {
        for e in &events {
            e.validate()?;
        }
        events.sort_by_key(|e| (e.t_start_secs, e.duration_secs, kind_rank(&e.kind)));
        Ok(FaultSchedule { events })
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Fails on the first window shorter than `epoch_secs`, naming it. A
    /// simulation ticks at multiples of its epoch from t = 0, so a window
    /// of at least one epoch always covers a tick; a shorter one could
    /// fall between two and never act.
    pub fn check_epoch(&self, epoch_secs: u64) -> Result<(), String> {
        match self.events.iter().find(|e| e.duration_secs < epoch_secs) {
            Some(e) => Err(format!(
                "{} at t={}s lasts {}s, shorter than the {epoch_secs}s epoch",
                e.kind.label(),
                e.t_start_secs,
                e.duration_secs
            )),
            None => Ok(()),
        }
    }

    /// The last instant at which any fault is still active, or 0.
    pub fn horizon_secs(&self) -> u64 {
        self.events
            .iter()
            .map(FaultEvent::t_end_secs)
            .max()
            .unwrap_or(0)
    }

    /// Parses a schedule from JSON, re-validating every event.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let parsed: FaultSchedule =
            serde_json::from_str(text).map_err(|e| format!("bad fault schedule JSON: {e}"))?;
        FaultSchedule::new(parsed.events)
    }
}

fn kind_rank(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::PeerFailure => 0,
        FaultKind::LinkCapacityLoss { .. } => 1,
        FaultKind::BmpStall => 2,
        FaultKind::SflowLoss { .. } => 3,
        FaultKind::ControllerCrash => 4,
        FaultKind::InjectorLoss => 5,
        FaultKind::FlashCrowd { .. } => 6,
        FaultKind::UpdateCorruption { .. } => 7,
        FaultKind::SessionFlapStorm { .. } => 8,
        FaultKind::InjectorPartialLoss { .. } => 9,
        FaultKind::ReportPartition => 10,
        FaultKind::ReportStaleness { .. } => 11,
        FaultKind::GlobalControllerCrash => 12,
        FaultKind::HeadroomLie { .. } => 13,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, d: u64, kind: FaultKind, target: FaultTarget) -> FaultEvent {
        FaultEvent {
            t_start_secs: t,
            duration_secs: d,
            target,
            kind,
        }
    }

    #[test]
    fn windows_are_half_open() {
        let e = ev(100, 50, FaultKind::BmpStall, FaultTarget::Pop { pop: 0 });
        assert!(!e.active_at(99));
        assert!(e.active_at(100));
        assert!(e.active_at(149));
        assert!(!e.active_at(150));
    }

    #[test]
    fn schedule_sorts_and_queries_by_pop() {
        let sched = FaultSchedule::new(vec![
            ev(
                200,
                60,
                FaultKind::InjectorLoss,
                FaultTarget::Pop { pop: 1 },
            ),
            ev(
                100,
                60,
                FaultKind::LinkCapacityLoss { fraction: 0.5 },
                FaultTarget::Interface { pop: 0, egress: 3 },
            ),
            ev(
                100,
                30,
                FaultKind::PeerFailure,
                FaultTarget::Peer { pop: 1, peer: 7 },
            ),
        ])
        .unwrap();
        assert_eq!(sched.events[0].t_start_secs, 100);
        assert_eq!(sched.horizon_secs(), 260);
        let active = |t| sched.events.iter().filter(move |e| e.active_at(t));
        let at_pop1: Vec<_> = active(110).filter(|e| e.target.pop() == Some(1)).collect();
        assert_eq!(at_pop1.len(), 1);
        assert!(matches!(at_pop1[0].kind, FaultKind::PeerFailure));
        assert_eq!(active(110).count(), 2);
        assert_eq!(active(500).count(), 0);
    }

    #[test]
    fn validation_rejects_mismatched_targets() {
        assert!(
            ev(0, 10, FaultKind::PeerFailure, FaultTarget::Pop { pop: 0 })
                .validate()
                .is_err()
        );
        assert!(ev(
            0,
            10,
            FaultKind::BmpStall,
            FaultTarget::Interface { pop: 0, egress: 1 }
        )
        .validate()
        .is_err());
        assert!(ev(
            0,
            10,
            FaultKind::LinkCapacityLoss { fraction: 1.5 },
            FaultTarget::Interface { pop: 0, egress: 1 }
        )
        .validate()
        .is_err());
        assert!(ev(
            0,
            10,
            FaultKind::FlashCrowd { multiplier: 0.5 },
            FaultTarget::Pop { pop: 0 }
        )
        .validate()
        .is_err());
        assert!(ev(0, 0, FaultKind::BmpStall, FaultTarget::Pop { pop: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn validation_covers_robustness_fault_kinds() {
        let peer = FaultTarget::Peer { pop: 0, peer: 7 };
        let pop = FaultTarget::Pop { pop: 0 };
        assert!(ev(0, 10, FaultKind::UpdateCorruption { rate: 0.3 }, peer)
            .validate()
            .is_ok());
        assert!(ev(0, 10, FaultKind::UpdateCorruption { rate: 0.0 }, peer)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::UpdateCorruption { rate: 0.3 }, pop)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::SessionFlapStorm { period_s: 5 }, peer)
            .validate()
            .is_ok());
        assert!(ev(0, 10, FaultKind::SessionFlapStorm { period_s: 0 }, peer)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::SessionFlapStorm { period_s: 5 }, pop)
            .validate()
            .is_err());
        assert!(
            ev(0, 10, FaultKind::InjectorPartialLoss { fraction: 0.5 }, pop)
                .validate()
                .is_ok()
        );
        assert!(
            ev(0, 10, FaultKind::InjectorPartialLoss { fraction: 1.5 }, pop)
                .validate()
                .is_err()
        );
        assert!(ev(
            0,
            10,
            FaultKind::InjectorPartialLoss { fraction: 0.5 },
            peer
        )
        .validate()
        .is_err());
    }

    #[test]
    fn global_targets_validate_and_stay_off_pop_slices() {
        let at_pop = FaultTarget::Global { pop: Some(1) };
        let tier = FaultTarget::Global { pop: None };
        assert!(ev(0, 10, FaultKind::ReportPartition, at_pop)
            .validate()
            .is_ok());
        assert!(ev(
            0,
            10,
            FaultKind::ReportPartition,
            FaultTarget::Pop { pop: 1 }
        )
        .validate()
        .is_err());
        assert!(ev(0, 10, FaultKind::ReportPartition, tier)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::ReportStaleness { epochs: 3 }, at_pop)
            .validate()
            .is_ok());
        assert!(ev(0, 10, FaultKind::ReportStaleness { epochs: 0 }, at_pop)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::GlobalControllerCrash, tier)
            .validate()
            .is_ok());
        assert!(ev(0, 10, FaultKind::GlobalControllerCrash, at_pop)
            .validate()
            .is_err());
        assert!(ev(0, 10, FaultKind::HeadroomLie { factor: 10.0 }, at_pop)
            .validate()
            .is_ok());
        assert!(ev(0, 10, FaultKind::HeadroomLie { factor: 1.0 }, at_pop)
            .validate()
            .is_err());
        assert!(
            ev(0, 10, FaultKind::HeadroomLie { factor: f64::NAN }, at_pop)
                .validate()
                .is_err()
        );
        // Global faults never land on any per-PoP schedule slice.
        assert_eq!(at_pop.pop(), None);
        assert_eq!(at_pop.global_pop(), Some(1));
        assert_eq!(tier.global_pop(), None);
        let sched = FaultSchedule::new(vec![
            ev(100, 60, FaultKind::ReportPartition, at_pop),
            ev(100, 60, FaultKind::BmpStall, FaultTarget::Pop { pop: 1 }),
        ])
        .unwrap();
        let active = || sched.events.iter().filter(|e| e.active_at(110));
        assert_eq!(active().filter(|e| e.target.pop() == Some(1)).count(), 1);
        assert_eq!(active().count(), 2);
    }

    #[test]
    fn global_labels_are_distinct_and_ranked() {
        for label in FaultKind::GLOBAL_LABELS {
            assert!(!FaultKind::ALL_LABELS.contains(&label));
        }
        let kinds = [
            FaultKind::ReportPartition,
            FaultKind::ReportStaleness { epochs: 2 },
            FaultKind::GlobalControllerCrash,
            FaultKind::HeadroomLie { factor: 4.0 },
        ];
        for (kind, label) in kinds.iter().zip(FaultKind::GLOBAL_LABELS) {
            assert_eq!(kind.label(), label);
        }
    }

    #[test]
    fn json_round_trip_preserves_schedule() {
        let sched = FaultSchedule::new(vec![
            ev(
                30,
                120,
                FaultKind::LinkCapacityLoss { fraction: 0.4 },
                FaultTarget::Interface { pop: 2, egress: 0 },
            ),
            ev(
                60,
                90,
                FaultKind::SflowLoss {
                    drop_fraction: 0.95,
                },
                FaultTarget::Pop { pop: 2 },
            ),
            ev(
                10,
                40,
                FaultKind::FlashCrowd { multiplier: 2.5 },
                FaultTarget::Pop { pop: 0 },
            ),
        ])
        .unwrap();
        let json = serde_json::to_string_pretty(&sched).unwrap();
        let back = FaultSchedule::from_json(&json).unwrap();
        assert_eq!(back, sched);
    }

    #[test]
    fn from_json_rejects_invalid_events() {
        let json = r#"{"events":[{"t_start_secs":0,"duration_secs":0,
            "target":{"Pop":{"pop":0}},"kind":"BmpStall"}]}"#;
        assert!(FaultSchedule::from_json(json).is_err());
    }
}
