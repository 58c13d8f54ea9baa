//! Bridges the topology into the fault model, and the fault model into
//! the telemetry stream.

use ef_chaos::{FaultEvent, PopSurface, SimSurface};
use ef_telemetry::TelemetryHandle;
use ef_topology::Deployment;

/// Builds the breakable surface of a deployment: every PoP with its peer
/// sessions and egress interfaces, in deterministic (topology) order. Feed
/// this to [`ef_chaos::generate`] to sample fault schedules that only name
/// things the simulation can actually break.
pub fn surface(deployment: &Deployment) -> SimSurface {
    SimSurface {
        pops: deployment
            .pops
            .iter()
            .map(|pop| PopSurface {
                pop: pop.id.0 as usize,
                peers: pop.peers.iter().map(|c| c.peer.0).collect(),
                egresses: pop.interfaces.iter().map(|i| i.id.0).collect(),
            })
            .collect(),
    }
}

/// Emits `event`'s `fault.start` edge (`start`) or `fault.end` edge at
/// `pop`, naming its kind and target; only start edges count into
/// `faults.started`.
pub(crate) fn emit_fault_edge(
    telemetry: &TelemetryHandle,
    pop: u16,
    now_ms: u64,
    event: &FaultEvent,
    start: bool,
) {
    let name = if start { "fault.start" } else { "fault.end" };
    telemetry.emit(
        pop,
        now_ms,
        name,
        &[
            ("kind", event.kind.label().into()),
            ("target", format!("{:?}", event.target).into()),
        ],
    );
    if start {
        telemetry.counter("faults.started", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_topology::GenConfig;

    #[test]
    fn surface_covers_every_pop() {
        let deployment = ef_topology::generate(&GenConfig::small(3));
        let s = surface(&deployment);
        assert_eq!(s.pops.len(), deployment.pops.len());
        for (ps, pop) in s.pops.iter().zip(&deployment.pops) {
            assert_eq!(ps.pop, pop.id.0 as usize);
            assert_eq!(ps.peers.len(), pop.peers.len());
            assert_eq!(ps.egresses.len(), pop.interfaces.len());
            assert!(!ps.peers.is_empty());
            assert!(!ps.egresses.is_empty());
        }
        // A generated schedule lands on this surface without error.
        let sched =
            ef_chaos::generate(&ef_chaos::ChaosProfile::default(), &s, 11).expect("generates");
        assert!(!sched.is_empty());
    }
}
