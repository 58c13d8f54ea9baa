//! Bridges the topology into the fault model, the fault model into the
//! telemetry stream, and a fault schedule into per-tick window edges.

use ef_chaos::{FaultEvent, FaultSchedule, PopSurface, SimSurface};
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
/// `pop`, naming its kind and target.
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
}

/// One tier's fault windows and the set that was active at its last tick:
/// the per-PoP runtime keeps one over its PoP's slice of the schedule, the
/// engine one over the global-tier events.
pub(crate) struct FaultWindows {
    events: Vec<FaultEvent>,
    /// Indices into `events` active at the last tick, ascending.
    active: Vec<usize>,
}

impl FaultWindows {
    /// A tracker over the events of `schedule` that are applied at PoP
    /// `pop` (`None`: the global tier's events), none of them active yet.
    pub(crate) fn new(schedule: Option<&FaultSchedule>, pop: Option<usize>) -> Self {
        let events = schedule.map_or_else(Vec::new, |s| {
            let at_pop = s.events.iter().filter(|e| e.target.pop() == pop);
            at_pop.copied().collect()
        });
        FaultWindows {
            events,
            active: Vec::new(),
        }
    }

    /// Moves the tracker to `t_secs` and returns the windows that closed
    /// and those that opened since the last tick, each in event order.
    /// A window that opens and closes between two ticks is never seen.
    pub(crate) fn advance(&mut self, t_secs: u64) -> (Vec<FaultEvent>, Vec<FaultEvent>) {
        let now: Vec<usize> = (0..self.events.len())
            .filter(|&i| self.events[i].active_at(t_secs))
            .collect();
        let edges = |from: &[usize], to: &[usize]| -> Vec<FaultEvent> {
            from.iter()
                .filter(|i| to.binary_search(i).is_err())
                .map(|&i| self.events[i])
                .collect()
        };
        let closed = edges(&self.active, &now);
        let opened = edges(&now, &self.active);
        self.active = now;
        (closed, opened)
    }

    /// The windows active at the last tick, in event order.
    pub(crate) fn active(&self) -> impl Iterator<Item = &FaultEvent> {
        self.active.iter().map(|&i| &self.events[i])
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

    #[test]
    fn fault_windows_track_the_schedule_edge_by_edge() {
        use ef_chaos::{FaultKind, FaultTarget};
        let window = |t_start_secs, t_end: u64, kind| FaultEvent {
            t_start_secs,
            duration_secs: t_end - t_start_secs,
            target: FaultTarget::Pop { pop: 0 },
            kind,
        };
        let schedule = FaultSchedule::new(vec![
            // Two windows that touch: one ends on the tick the next starts.
            window(240, 480, FaultKind::BmpStall),
            window(480, 600, FaultKind::InjectorLoss),
            // Opens exactly on a tick (half-open start) and ends one
            // second past a tick.
            window(1200, 1441, FaultKind::SflowLoss { drop_fraction: 0.5 }),
            // Opens and closes between two ticks: never active at one.
            window(1500, 1530, FaultKind::FlashCrowd { multiplier: 2.0 }),
            // World 7's nested same-PoP crash pair under 120 s epochs: both
            // open at 24 480, the inner one closes a tick before the outer.
            window(24_407, 25_126, FaultKind::ControllerCrash),
            window(24_451, 25_044, FaultKind::ControllerCrash),
        ])
        .expect("valid schedule");
        let mut tracker = FaultWindows::new(Some(&schedule), Some(0));
        let (mut closes, mut opens, mut prev, mut calm) = (Vec::new(), Vec::new(), Vec::new(), 0);
        for t in (0..=25_320).step_by(120) {
            let (closed, opened) = tracker.advance(t);
            let now: Vec<FaultEvent> = schedule.active_at(t).map(|(_, e)| *e).collect();
            assert!(tracker.active().eq(&now), "active set at t={t}");
            // Each reported edge is a real change of the active set.
            assert!(closed.iter().all(|e| prev.contains(e) && !now.contains(e)));
            assert!(opened.iter().all(|e| now.contains(e) && !prev.contains(e)));
            let starts = |es: &[FaultEvent]| es.iter().map(|e| e.t_start_secs).collect::<Vec<_>>();
            match t {
                480 => assert_eq!((starts(&closed), starts(&opened)), (vec![240], vec![480])),
                24_480 => assert_eq!(starts(&opened), [24_407, 24_451], "nested pair opens"),
                25_080 => assert_eq!(starts(&closed), [24_451], "the inner one closes first"),
                25_200 => assert_eq!(starts(&closed), [24_407], "then the outer one"),
                _ => {}
            }
            calm += usize::from(now.is_empty());
            closes.extend(closed);
            opens.extend(opened);
            prev = now;
        }
        assert!(calm > 0, "the schedule has calm ticks");
        // The last tick is past every window, so each window seen at a tick
        // opened once and closed once; the one between ticks never did.
        for e in &schedule.events {
            let seen = usize::from(!matches!(e.kind, FaultKind::FlashCrowd { .. }));
            let count = |edges: &[FaultEvent]| edges.iter().filter(|x| *x == e).count();
            assert_eq!((count(&opens), count(&closes)), (seen, seen), "{e:?}");
        }
    }
}
