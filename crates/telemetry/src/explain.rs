//! Decision provenance: why each override was (or was not) emitted.
//!
//! The allocator produces one [`ExplainRecord`] per steering decision it
//! considered: the overloaded interface and its projected utilization, the
//! alternate it chose, and — crucially for debugging — every alternative
//! it rejected with the reason ([`RejectReason`]). The controller then
//! amends the verdict when a guard (stale-input hold-or-shrink, fail-open
//! horizon) drops a decision the allocator made.
//!
//! Records use plain serializable types (`String` prefixes, raw egress
//! ids) so the whole provenance chain survives a JSON round trip and can
//! be rendered by `efctl explain` without the core crates loaded.

use serde::{Deserialize, Serialize};

/// Why one alternative (or the whole decision) was rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The prefix has no alternate route at all.
    NoRoute,
    /// The alternate exists but taking the demand would push it over its
    /// utilization limit.
    NoSpareCapacity {
        /// Load the alternate would carry with this detour, Mbps.
        projected_mbps: f64,
        /// The alternate's allowed load, Mbps.
        limit_mbps: f64,
    },
    /// The alternate was feasible and equally preferred by BGP, but a
    /// cheaper same-band alternate was chosen instead (cost-aware
    /// steering only; never crosses a preference band).
    CostlierAlternate {
        /// Marginal cost of this alternate, USD per billable Mbps·month.
        usd_per_mbps: f64,
        /// Marginal cost of the alternate chosen instead.
        chosen_usd_per_mbps: f64,
    },
}

impl RejectReason {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::NoRoute => "no route",
            RejectReason::NoSpareCapacity { .. } => "no spare capacity",
            RejectReason::CostlierAlternate { .. } => "costlier alternate",
        }
    }
}

/// One alternative the allocator considered and rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedAlternative {
    /// The alternate egress interface (absent for [`RejectReason::NoRoute`]).
    pub egress: Option<u32>,
    /// Interconnect kind of the alternate, when known.
    pub kind: Option<String>,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// The final fate of one steering decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExplainVerdict {
    /// The override was emitted toward the router.
    Emitted,
    /// Every alternative was rejected; the demand stayed put (possibly
    /// retried at half-prefix granularity, which gets its own records).
    NoFeasibleAlternate,
    /// Allocator chose an alternate, but stale inputs put the controller
    /// in hold-or-shrink mode and this override was not already announced.
    DroppedStaleInput,
    /// Allocator chose an alternate, but inputs were past the fail-open
    /// horizon and the whole override set was withdrawn.
    DroppedFailOpen,
}

impl ExplainVerdict {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            ExplainVerdict::Emitted => "emitted",
            ExplainVerdict::NoFeasibleAlternate => "no feasible alternate",
            ExplainVerdict::DroppedStaleInput => "dropped: stale input",
            ExplainVerdict::DroppedFailOpen => "dropped: fail-open",
        }
    }
}

/// Provenance for one override decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainRecord {
    /// The steered prefix (possibly a split half of a routed parent).
    pub prefix: String,
    /// What triggered the decision: `capacity`, `performance`, or
    /// `hysteresis`.
    pub trigger: String,
    /// The overloaded interface being relieved (absent for performance
    /// overrides, which relieve nothing).
    pub hot_egress: Option<u32>,
    /// Projected utilization of the hot interface when this decision was
    /// attempted (post any detours already made this epoch).
    pub hot_util: f64,
    /// Demand this decision would move, Mbps.
    pub demand_mbps: f64,
    /// The chosen alternate egress, when one was found.
    pub chosen_egress: Option<u32>,
    /// Interconnect kind of the chosen alternate.
    pub chosen_kind: Option<String>,
    /// Marginal cost of the chosen alternate, USD per billable Mbps·month
    /// (zero for settlement-free / PNI / route-server targets). Absent in
    /// records written before cost-aware steering existed.
    #[serde(default)]
    pub chosen_usd_per_mbps: Option<f64>,
    /// Alternatives considered and rejected, in preference order.
    pub rejected: Vec<RejectedAlternative>,
    /// What ultimately happened.
    pub verdict: ExplainVerdict,
}

impl ExplainRecord {
    /// True when the decision produced an override toward the router.
    pub fn emitted(&self) -> bool {
        self.verdict == ExplainVerdict::Emitted
    }

    /// One-paragraph human rendering of the provenance chain.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        write!(out, "{} [{}] ", self.prefix, self.trigger).unwrap();
        if let Some(hot) = self.hot_egress {
            write!(
                out,
                "hot egress {hot} at {:.1}% util, {:.1} Mbps to move: ",
                self.hot_util * 100.0,
                self.demand_mbps
            )
            .unwrap();
        } else {
            write!(out, "{:.1} Mbps: ", self.demand_mbps).unwrap();
        }
        match self.chosen_egress {
            Some(chosen) => {
                let kind = self.chosen_kind.as_deref().unwrap_or("?");
                write!(out, "chose egress {chosen} ({kind})").unwrap();
                if let Some(cost) = self.chosen_usd_per_mbps {
                    if cost > 0.0 {
                        write!(out, " at ${cost:.2}/Mbps").unwrap();
                    } else {
                        out.push_str(" at $0/Mbps");
                    }
                }
            }
            None => out.push_str("no alternate chosen"),
        }
        write!(out, " — {}", self.verdict.label()).unwrap();
        for alt in &self.rejected {
            match (alt.egress, &alt.reason) {
                (
                    Some(e),
                    RejectReason::NoSpareCapacity {
                        projected_mbps,
                        limit_mbps,
                    },
                ) => {
                    write!(
                        out,
                        "\n  rejected egress {e}: no spare capacity ({projected_mbps:.1}/{limit_mbps:.1} Mbps)"
                    )
                    .unwrap();
                }
                (
                    Some(e),
                    RejectReason::CostlierAlternate {
                        usd_per_mbps,
                        chosen_usd_per_mbps,
                    },
                ) => {
                    write!(
                        out,
                        "\n  rejected egress {e}: costlier alternate (${usd_per_mbps:.2}/Mbps vs ${chosen_usd_per_mbps:.2}/Mbps chosen, saves ${:.2}/Mbps)",
                        usd_per_mbps - chosen_usd_per_mbps
                    )
                    .unwrap();
                }
                (Some(e), reason) => {
                    write!(out, "\n  rejected egress {e}: {}", reason.label()).unwrap();
                }
                (None, reason) => {
                    write!(out, "\n  rejected: {}", reason.label()).unwrap();
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ExplainRecord {
        ExplainRecord {
            prefix: "1.2.3.0/24".into(),
            trigger: "capacity".into(),
            hot_egress: Some(1),
            hot_util: 1.07,
            demand_mbps: 80.0,
            chosen_egress: Some(3),
            chosen_kind: Some("transit".into()),
            chosen_usd_per_mbps: None,
            rejected: vec![RejectedAlternative {
                egress: Some(2),
                kind: Some("public".into()),
                reason: RejectReason::NoSpareCapacity {
                    projected_mbps: 98.2,
                    limit_mbps: 95.0,
                },
            }],
            verdict: ExplainVerdict::Emitted,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let rec = record();
        let json = serde_json::to_string(&rec).unwrap();
        let back: ExplainRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn render_names_the_whole_chain() {
        let text = record().render();
        assert!(text.contains("1.2.3.0/24"));
        assert!(text.contains("hot egress 1"));
        assert!(text.contains("chose egress 3 (transit)"));
        assert!(text.contains("rejected egress 2: no spare capacity (98.2/95.0 Mbps)"));
        assert!(text.contains("emitted"));
    }

    #[test]
    fn render_handles_no_route() {
        let rec = ExplainRecord {
            chosen_egress: None,
            chosen_kind: None,
            rejected: vec![RejectedAlternative {
                egress: None,
                kind: None,
                reason: RejectReason::NoRoute,
            }],
            verdict: ExplainVerdict::NoFeasibleAlternate,
            ..record()
        };
        let text = rec.render();
        assert!(text.contains("no alternate chosen"));
        assert!(text.contains("rejected: no route"));
    }

    #[test]
    fn render_shows_cost_provenance() {
        let rec = ExplainRecord {
            chosen_usd_per_mbps: Some(0.5),
            rejected: vec![RejectedAlternative {
                egress: Some(5),
                kind: Some("transit".into()),
                reason: RejectReason::CostlierAlternate {
                    usd_per_mbps: 3.0,
                    chosen_usd_per_mbps: 0.5,
                },
            }],
            ..record()
        };
        let text = rec.render();
        assert!(text.contains("chose egress 3 (transit) at $0.50/Mbps"));
        assert!(text.contains(
            "rejected egress 5: costlier alternate ($3.00/Mbps vs $0.50/Mbps chosen, saves $2.50/Mbps)"
        ));
        // Pre-cost records render unchanged.
        assert!(!record().render().contains("$"));
        // Free targets are labeled explicitly.
        let free = ExplainRecord {
            chosen_usd_per_mbps: Some(0.0),
            ..record()
        };
        assert!(free.render().contains("at $0/Mbps"));
    }

    #[test]
    fn old_records_without_cost_fields_still_parse() {
        let json = r#"{"prefix":"1.2.3.0/24","trigger":"capacity","hot_egress":1,
            "hot_util":1.0,"demand_mbps":10.0,"chosen_egress":3,
            "chosen_kind":"transit","rejected":[],"verdict":"Emitted"}"#;
        let rec: ExplainRecord = serde_json::from_str(json).unwrap();
        assert_eq!(rec.chosen_usd_per_mbps, None);
    }

    #[test]
    fn verdict_labels_are_distinct() {
        let verdicts = [
            ExplainVerdict::Emitted,
            ExplainVerdict::NoFeasibleAlternate,
            ExplainVerdict::DroppedStaleInput,
            ExplainVerdict::DroppedFailOpen,
        ];
        let labels: std::collections::HashSet<&str> = verdicts.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), verdicts.len());
    }
}
