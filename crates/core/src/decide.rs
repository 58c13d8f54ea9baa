//! One epoch's decision (paper §4.2, §4.4): projection, allocation and the
//! input-freshness guards as a function of the epoch's inputs.
//!
//! [`decide`] reads an [`EpochView`] — config, interface facts, collected
//! routes, traffic, input ages, this epoch's performance intents and the
//! announced set — and returns the desired override set with its
//! provenance. It takes no router and no simulated time and emits no
//! telemetry: the handle it is given only starts its phase timers, which
//! read 0 without a sink. Its one piece of mutable state is the projection
//! memo, which holds no decision: a fresh memo gives the same answer.

use std::collections::HashMap;

use ef_bgp::route::EgressId;
use ef_telemetry::{ExplainRecord, ExplainVerdict, TelemetryHandle};

use crate::allocator::{allocate, AllocationOutcome};
use crate::collector::RouteCollector;
use crate::config::ControllerConfig;
use crate::overrides::OverrideSet;
use crate::projection::{project_cached, Projection, ProjectionCache};
use crate::state::{limit_mbps, InterfaceMap, TrafficView};

/// Input freshness for one epoch. Ages are "now minus the time the input
/// was last refreshed"; [`EpochInputs::fresh`] means both inputs are fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochInputs {
    /// Age of the newest BMP route state, ms.
    pub bmp_age_ms: u64,
    /// Age of the newest traffic estimate, ms.
    pub traffic_age_ms: u64,
}

impl EpochInputs {
    /// Both inputs refreshed this instant.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// The age that drives degradation decisions: the staler input bounds
    /// how much the combined view can be trusted.
    pub(crate) fn age_ms(&self) -> u64 {
        self.bmp_age_ms.max(self.traffic_age_ms)
    }
}

/// Everything one decision reads, borrowed from its owners.
pub(crate) struct EpochView<'a, T: ?Sized> {
    pub cfg: &'a ControllerConfig,
    pub interfaces: &'a InterfaceMap,
    pub collector: &'a RouteCollector,
    pub traffic: &'a T,
    pub inputs: EpochInputs,
    /// This epoch's §6 performance intents (empty without perf steering).
    pub perf: &'a OverrideSet,
    /// What the injector has announced: the hold-or-shrink guard's ceiling
    /// and, with `withdraw_hysteresis` on, the allocator's standing set.
    pub announced: &'a OverrideSet,
}

/// What one epoch decided, before any of it reaches a router.
pub(crate) struct Decision {
    /// The override set the injector should converge to.
    pub desired: OverrideSet,
    /// Stale inputs: `desired` is held or shrunk, never grown.
    pub degraded: bool,
    /// Inputs past the trust horizon: `desired` is empty.
    pub fail_open: bool,
    /// Interfaces projected over the limit, worst first.
    pub overloaded_before: Vec<(EgressId, f64)>,
    /// Interfaces still over the limit after allocation, worst first.
    pub residual_overloaded: Vec<(EgressId, f64)>,
    /// The allocator's provenance, verdicts amended by the guards.
    pub explains: Vec<ExplainRecord>,
    /// Wall-clock phase timings, µs (0 without a telemetry sink).
    pub projection_us: u64,
    pub allocation_us: u64,
    pub guards_us: u64,
}

/// Decides one epoch: projects the traffic, allocates detours, then
/// applies the guards, which extend the paper's *fail static* story (§4.4)
/// to degraded-but-alive inputs. By input age:
///
/// - older than `stale_input_secs`: **degraded** — the allocator's set is
///   cut to what is already announced and whose detour target still
///   re-validates (route present, target load under its limit);
/// - older than `fail_open_secs`: **fail open** — the set is empty.
///
/// `timers` only starts the phase timers.
pub(crate) fn decide<T: TrafficView + ?Sized>(
    view: &EpochView<'_, T>,
    memo: &mut ProjectionCache,
    timers: &TelemetryHandle,
) -> Decision {
    let age_ms = view.inputs.age_ms();
    let fail_open = age_ms >= view.cfg.fail_open_secs.saturating_mul(1000);
    let degraded = !fail_open && age_ms >= view.cfg.stale_input_secs.saturating_mul(1000);

    let timer = timers.timer();
    let projection = project_cached(memo, view.collector, view.traffic);
    let projection_us = timer.elapsed_us();

    let timer = timers.timer();
    let AllocationOutcome {
        overrides,
        overloaded_before,
        residual_overloaded,
        mut explains,
        ..
    } = allocate(
        view.cfg,
        view.interfaces,
        view.collector,
        view.traffic,
        &projection,
        view.perf,
        view.announced,
    );
    let allocation_us = timer.elapsed_us();

    let timer = timers.timer();
    let desired = if fail_open {
        // Nothing the allocator computed is trustworthy at this age.
        for rec in explains.iter_mut().filter(|r| r.emitted()) {
            rec.verdict = ExplainVerdict::DroppedFailOpen;
        }
        OverrideSet::new()
    } else if degraded {
        let kept = hold_or_shrink(view, &overrides, &projection);
        for rec in explains
            .iter_mut()
            .filter(|r| r.emitted() && !kept.contains(&r.prefix))
        {
            rec.verdict = ExplainVerdict::DroppedStaleInput;
        }
        kept
    } else {
        overrides
    };
    let guards_us = timer.elapsed_us();

    Decision {
        desired,
        degraded,
        fail_open,
        overloaded_before,
        residual_overloaded,
        explains,
        projection_us,
        allocation_us,
        guards_us,
    }
}

/// Degraded-mode desired set: the intersection of what the allocator wants
/// and what is already announced (never enlarge on stale inputs), with each
/// survivor's detour target re-validated against the current (stale) route
/// view and interface limits, in [`OverrideSet::iter_sorted`] order.
fn hold_or_shrink<T: ?Sized>(
    view: &EpochView<'_, T>,
    desired: &OverrideSet,
    projection: &Projection,
) -> OverrideSet {
    let mut kept = OverrideSet::new();
    // Load already attracted to each target by overrides kept so far, on
    // top of the organic projection.
    let mut extra: HashMap<EgressId, f64> = HashMap::new();
    for o in desired.iter_sorted() {
        if !view.announced.contains(&o.prefix) {
            continue; // would enlarge the set
        }
        let target_has_route = view
            .collector
            .candidates(&o.prefix)
            .iter()
            .any(|r| r.egress == o.target && !r.is_override());
        if !target_has_route {
            continue; // detour target vanished from the (stale) view
        }
        let base = projection.load(o.target);
        let added = extra.get(&o.target).copied().unwrap_or(0.0);
        if base + added + o.moved_mbps > limit_mbps(view.interfaces, o.target, view.cfg.util_limit)
        {
            continue; // target can no longer absorb this detour
        }
        *extra.entry(o.target).or_default() += o.moved_mbps;
        kept.insert(*o);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::tests::{announce, announce_override, collector, interface_map, p};
    use crate::overrides::{Override, OverrideReason};
    use ef_bgp::peer::PeerKind;
    use ef_bgp::EgressSpec;

    /// Standing overrides onto `target`, `mbps` each: performance intents
    /// the allocator charges to their target unchecked.
    fn standing(target: EgressSpec, prefixes: &[&str], mbps: f64) -> OverrideSet {
        let mut set = OverrideSet::new();
        for prefix in prefixes {
            set.insert(Override {
                prefix: p(prefix),
                target: target.egress,
                target_kind: PeerKind::Transit,
                reason: OverrideReason::Performance,
                moved_mbps: mbps,
            });
        }
        set
    }

    /// Decides one epoch on traffic exactly `stale_input_secs` old, with
    /// `standing` both this epoch's intents and what is announced.
    fn decide_stale(
        routes: &RouteCollector,
        interfaces: &InterfaceMap,
        traffic: &HashMap<ef_net_types::Prefix, f64>,
        standing: &OverrideSet,
    ) -> Decision {
        let cfg = ControllerConfig::default();
        let view = EpochView {
            cfg: &cfg,
            interfaces,
            collector: routes,
            traffic,
            inputs: EpochInputs {
                bmp_age_ms: 0,
                traffic_age_ms: cfg.stale_input_secs * 1000,
            },
            perf: standing,
            announced: standing,
        };
        let decision = decide(
            &view,
            &mut ProjectionCache::new(),
            &TelemetryHandle::disabled(),
        );
        assert!(decision.degraded && !decision.fail_open);
        decision
    }

    fn verdict(decision: &Decision, prefix: &str) -> Option<ExplainVerdict> {
        decision
            .explains
            .iter()
            .find(|r| r.prefix == p(prefix))
            .map(|r| r.verdict)
    }

    /// Degraded mode re-validates each kept detour against the target's
    /// limit, counting the overrides kept before it: of two standing
    /// overrides onto one target that fits only one, the first in
    /// `iter_sorted` order stays and the second is dropped.
    #[test]
    fn stale_inputs_keep_only_the_detours_the_target_still_fits() {
        let (pni, transit) = (EgressSpec::pni(1, 65001), EgressSpec::transit(3, 65010));
        let mut routes = collector(&[pni, transit]);
        for prefix in ["1.0.0.0/24", "2.0.0.0/24"] {
            announce(&mut routes, pni, prefix);
            announce(&mut routes, transit, prefix);
        }
        // The transit's limit (95 Mbps) fits one 50 Mbps detour, not two.
        let interfaces = interface_map(&[(pni, 1_000.0), (transit, 100.0)]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0), (p("2.0.0.0/24"), 50.0)]);
        let standing = standing(transit, &["1.0.0.0/24", "2.0.0.0/24"], 50.0);
        let decision = decide_stale(&routes, &interfaces, &traffic, &standing);

        let kept: Vec<_> = decision
            .desired
            .iter_sorted()
            .iter()
            .map(|o| o.prefix)
            .collect();
        assert_eq!(kept, [p("1.0.0.0/24")]);
        assert_eq!(
            verdict(&decision, "1.0.0.0/24"),
            Some(ExplainVerdict::Emitted)
        );
        assert_eq!(
            verdict(&decision, "2.0.0.0/24"),
            Some(ExplainVerdict::DroppedStaleInput)
        );
    }

    /// The guard's limit is inclusive, as the allocator's is: a detour
    /// that fills its target exactly to the limit still re-validates.
    #[test]
    fn stale_inputs_keep_a_detour_that_fills_its_target_exactly() {
        let (pni, transit) = (EgressSpec::pni(1, 65001), EgressSpec::transit(3, 65010));
        let mut routes = collector(&[pni, transit]);
        announce(&mut routes, pni, "1.0.0.0/24");
        announce(&mut routes, transit, "1.0.0.0/24");
        let interfaces = interface_map(&[(pni, 1_000.0), (transit, 100.0)]);
        let limit = limit_mbps(
            &interfaces,
            transit.egress,
            ControllerConfig::default().util_limit,
        );
        let traffic = HashMap::from([(p("1.0.0.0/24"), limit)]);
        let standing = standing(transit, &["1.0.0.0/24"], limit);
        let decision = decide_stale(&routes, &interfaces, &traffic, &standing);
        assert!(decision.desired.contains(&p("1.0.0.0/24")));
        assert_eq!(
            verdict(&decision, "1.0.0.0/24"),
            Some(ExplainVerdict::Emitted)
        );
    }

    /// Re-validation asks for an organic route to the target: the
    /// controller's own echo of the detour does not count as one.
    #[test]
    fn stale_inputs_drop_a_detour_whose_target_kept_only_its_echo() {
        let (pni, transit) = (EgressSpec::pni(1, 65001), EgressSpec::transit(3, 65010));
        let mut routes = collector(&[pni, transit]);
        announce(&mut routes, pni, "1.0.0.0/24");
        announce_override(&mut routes, transit.egress, "1.0.0.0/24");
        let interfaces = interface_map(&[(pni, 1_000.0), (transit, 1_000.0)]);
        let traffic = HashMap::from([(p("1.0.0.0/24"), 50.0)]);
        let standing = standing(transit, &["1.0.0.0/24"], 50.0);
        let decision = decide_stale(&routes, &interfaces, &traffic, &standing);
        assert!(decision.desired.is_empty());
        assert_eq!(
            verdict(&decision, "1.0.0.0/24"),
            Some(ExplainVerdict::DroppedStaleInput)
        );
    }
}
