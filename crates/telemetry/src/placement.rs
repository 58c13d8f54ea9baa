//! Placement provenance: why the global steering tier moved (or declined
//! to move) a user population between PoPs.
//!
//! The global tier's analogue of [`ExplainRecord`](crate::explain): one
//! [`PlacementRecord`] per population-level steering action, naming the
//! backend that carried it (DNS or anycast), the source PoP being drained,
//! every target PoP with the volume granted to it, and every candidate
//! that was rejected with the reason ([`PlacementRejectReason`]) — no
//! serving footprint, or an exhausted headroom budget from the epoch's
//! cross-PoP negotiation.
//!
//! Like explain records, placements use plain serializable types so the
//! provenance chain survives a JSON round trip and renders without the
//! control crates loaded.

use serde::{Deserialize, Serialize};

/// Why a candidate target PoP was not given (more) demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementRejectReason {
    /// The PoP serves none of this population's prefixes; users cannot be
    /// mapped to a PoP with no serving footprint.
    NoFootprint,
    /// The PoP's negotiated headroom budget for this epoch was exhausted
    /// before this population's demand was placed.
    NoHeadroom {
        /// Budget the PoP had left when this placement was attempted, Mbps.
        budget_mbps: f64,
    },
    /// The PoP is itself shifted away from (a drain source cannot also be
    /// a target).
    SourceShifted,
    /// The PoP's last report is too old to trust: the freshness guard
    /// decayed its usable budget to zero rather than steer users toward a
    /// headroom number that may be fiction.
    StaleReport {
        /// Age of the PoP's last report, controller epochs.
        age_epochs: u64,
    },
}

impl PlacementRejectReason {
    /// Short label for rendering.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PlacementRejectReason::NoFootprint => "no footprint",
            PlacementRejectReason::NoHeadroom { .. } => "no headroom",
            PlacementRejectReason::SourceShifted => "source shifted",
            PlacementRejectReason::StaleReport { .. } => "stale report",
        }
    }
}

/// A degradation guard that shaped (suppressed or bounded) a placement.
/// Carried on [`PlacementRecord`] so `efctl explain --global` can answer
/// *why* a move was held back, not just that it was.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementGuard {
    /// A majority of PoP reports were missing this epoch: the tier froze
    /// every away-fraction and initiated no new moves (fail-static).
    FailStatic,
    /// The global controller itself was down; placements applied frozen.
    ControllerFrozen,
    /// The per-epoch global blast-radius cap bound total moved demand.
    BlastRadiusCapped {
        /// The cap in force this epoch, Mbps.
        cap_mbps: f64,
    },
    /// A restore (traffic returning to this source) was suppressed by the
    /// move-hysteresis hold-down window.
    HoldDown {
        /// Epochs left before the hold-down expires.
        epochs_left: u64,
    },
}

/// One candidate PoP the placement pass rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedTarget {
    /// The candidate PoP.
    pub pop: u16,
    /// Why it received nothing.
    pub reason: PlacementRejectReason,
}

/// One PoP that received part of the moved demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementTarget {
    /// The receiving PoP.
    pub pop: u16,
    /// Demand granted to it this epoch, Mbps.
    pub granted_mbps: f64,
}

/// The outcome of one population placement this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementVerdict {
    /// Demand moved to at least one target PoP.
    Applied,
    /// Every candidate was rejected; the demand stayed at the source.
    NoFeasibleTarget,
}

impl PlacementVerdict {
    /// Short label for rendering.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PlacementVerdict::Applied => "applied",
            PlacementVerdict::NoFeasibleTarget => "no feasible target",
        }
    }
}

/// Provenance for one population-level steering action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRecord {
    /// The user population being steered (e.g. a region label).
    pub population: String,
    /// The steering backend that carried the move: `dns` or `anycast`.
    pub backend: String,
    /// What drove the action: `overload` (the source PoP reported
    /// unresolved overload) or `drain` (an earlier shift still active).
    pub trigger: String,
    /// The PoP demand is moving away from.
    pub from_pop: u16,
    /// Fraction of the population's demand at the source currently mapped
    /// away, after this epoch's backend update.
    pub away_fraction: f64,
    /// Demand moved away from the source this epoch, Mbps.
    pub moved_mbps: f64,
    /// Targets that received demand, in PoP order.
    pub targets: Vec<PlacementTarget>,
    /// Candidates rejected, in PoP order.
    pub rejected: Vec<RejectedTarget>,
    /// What ultimately happened.
    pub verdict: PlacementVerdict,
    /// Degradation guards that shaped this placement, in evaluation order.
    /// Empty on a fully unguarded epoch; defaults to empty when parsing
    /// JSON written before the guard layer existed.
    #[serde(default)]
    pub guards: Vec<PlacementGuard>,
}

impl PlacementRecord {
    /// One-paragraph human rendering of the placement chain.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} [{}/{}] pop{}: {:.0}% away, {:.1} Mbps moved",
            self.population,
            self.backend,
            self.trigger,
            self.from_pop,
            self.away_fraction * 100.0,
            self.moved_mbps
        ));
        out.push_str(&format!(" — {}", self.verdict.label()));
        for g in &self.guards {
            match g {
                PlacementGuard::BlastRadiusCapped { cap_mbps } => {
                    out.push_str(&format!(
                        "\n  guard: blast-radius cap bound ({cap_mbps:.1} Mbps/epoch)"
                    ));
                }
                PlacementGuard::HoldDown { epochs_left } => {
                    out.push_str(&format!(
                        "\n  guard: restore held down ({epochs_left} epoch(s) left)"
                    ));
                }
                PlacementGuard::FailStatic => {
                    out.push_str("\n  guard: fail-static (majority of reports missing)");
                }
                PlacementGuard::ControllerFrozen => {
                    out.push_str("\n  guard: controller frozen (tier down)");
                }
            }
        }
        for t in &self.targets {
            out.push_str(&format!("\n  -> pop{}: {:.1} Mbps", t.pop, t.granted_mbps));
        }
        for r in &self.rejected {
            match &r.reason {
                PlacementRejectReason::NoHeadroom { budget_mbps } => {
                    out.push_str(&format!(
                        "\n  rejected pop{}: no headroom ({budget_mbps:.1} Mbps budget left)",
                        r.pop
                    ));
                }
                PlacementRejectReason::StaleReport { age_epochs } => {
                    out.push_str(&format!(
                        "\n  rejected pop{}: stale report ({age_epochs} epoch(s) old)",
                        r.pop
                    ));
                }
                reason => {
                    out.push_str(&format!("\n  rejected pop{}: {}", r.pop, reason.label()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> PlacementRecord {
        PlacementRecord {
            population: "EU".into(),
            backend: "dns".into(),
            trigger: "overload".into(),
            from_pop: 1,
            away_fraction: 0.35,
            moved_mbps: 1234.5,
            targets: vec![
                PlacementTarget {
                    pop: 0,
                    granted_mbps: 800.0,
                },
                PlacementTarget {
                    pop: 2,
                    granted_mbps: 434.5,
                },
            ],
            rejected: vec![
                RejectedTarget {
                    pop: 3,
                    reason: PlacementRejectReason::NoHeadroom { budget_mbps: 0.0 },
                },
                RejectedTarget {
                    pop: 4,
                    reason: PlacementRejectReason::NoFootprint,
                },
            ],
            verdict: PlacementVerdict::Applied,
            guards: Vec::new(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let rec = record();
        let json = serde_json::to_string(&rec).unwrap();
        let back: PlacementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        let guarded = PlacementRecord {
            guards: vec![
                PlacementGuard::FailStatic,
                PlacementGuard::BlastRadiusCapped { cap_mbps: 500.0 },
                PlacementGuard::HoldDown { epochs_left: 2 },
            ],
            ..record()
        };
        let json = serde_json::to_string(&guarded).unwrap();
        let back: PlacementRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, guarded);
    }

    #[test]
    fn pre_guard_records_still_parse() {
        // JSON written before the guard layer existed has no `guards` key.
        let json = serde_json::to_string(&record()).unwrap();
        let stripped = json
            .replace(",\"guards\":[]", "")
            .replace("\"guards\":[],", "");
        assert!(!stripped.contains("guards"));
        let back: PlacementRecord = serde_json::from_str(&stripped).unwrap();
        assert!(back.guards.is_empty());
        assert_eq!(back, record());
    }

    #[test]
    fn guard_render_names_the_suppression() {
        let guarded = PlacementRecord {
            guards: vec![
                PlacementGuard::FailStatic,
                PlacementGuard::ControllerFrozen,
                PlacementGuard::BlastRadiusCapped { cap_mbps: 512.5 },
                PlacementGuard::HoldDown { epochs_left: 3 },
            ],
            rejected: vec![RejectedTarget {
                pop: 5,
                reason: PlacementRejectReason::StaleReport { age_epochs: 4 },
            }],
            ..record()
        };
        let text = guarded.render();
        assert!(text.contains("guard: fail-static"));
        assert!(text.contains("guard: controller frozen"));
        assert!(text.contains("blast-radius cap bound (512.5 Mbps/epoch)"));
        assert!(text.contains("restore held down (3 epoch(s) left)"));
        assert!(text.contains("rejected pop5: stale report (4 epoch(s) old)"));
    }

    #[test]
    fn render_names_the_whole_chain() {
        let text = record().render();
        assert!(text.contains("EU [dns/overload] pop1"));
        assert!(text.contains("35% away"));
        assert!(text.contains("-> pop0: 800.0 Mbps"));
        assert!(text.contains("rejected pop3: no headroom (0.0 Mbps budget left)"));
        assert!(text.contains("rejected pop4: no footprint"));
        assert!(text.contains("applied"));
    }

    #[test]
    fn verdict_and_reason_labels_are_distinct() {
        let verdicts = [
            PlacementVerdict::Applied,
            PlacementVerdict::NoFeasibleTarget,
        ];
        let labels: std::collections::HashSet<&str> = verdicts.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), verdicts.len());
        let reasons = [
            PlacementRejectReason::NoFootprint,
            PlacementRejectReason::NoHeadroom { budget_mbps: 1.0 },
            PlacementRejectReason::SourceShifted,
        ];
        let labels: std::collections::HashSet<&str> = reasons.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), reasons.len());
    }

    #[test]
    fn applied_tracks_verdict() {
        let first_line = |r: &PlacementRecord| r.render().lines().next().unwrap().to_string();
        assert!(first_line(&record()).ends_with(PlacementVerdict::Applied.label()));
        let rejected = PlacementRecord {
            verdict: PlacementVerdict::NoFeasibleTarget,
            ..record()
        };
        assert!(first_line(&rejected).ends_with(PlacementVerdict::NoFeasibleTarget.label()));
        assert_ne!(
            PlacementVerdict::Applied.label(),
            PlacementVerdict::NoFeasibleTarget.label()
        );
    }
}
