//! Bridges the topology into the fault model, and a fault schedule into
//! per-tick window edges and their telemetry events.

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

    /// Moves the tracker to `t_secs`, emits at `pop` a `fault.end` event
    /// for each window that closed since the last tick and then a
    /// `fault.start` for each that opened (each in event order, naming its
    /// kind and target), and returns the closed ones. Windows are sampled
    /// at ticks only; the engine rejects any window shorter than its epoch,
    /// so every window it runs is open at one tick at least.
    pub(crate) fn advance(
        &mut self,
        t_secs: u64,
        telemetry: &TelemetryHandle,
        pop: u16,
    ) -> Vec<FaultEvent> {
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
        for (events, name) in [
            (&closed, "fault.end"),
            (&edges(&now, &self.active), "fault.start"),
        ] {
            for e in events {
                let target = format!("{:?}", e.target);
                let fields = [("kind", e.kind.label().into()), ("target", target.into())];
                telemetry.emit(pop, t_secs * 1000, name, &fields);
            }
        }
        self.active = now;
        closed
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
            // Opens and closes between two ticks: never active at one. The
            // engine rejects such a window (shorter than its 120 s epoch);
            // the tracker alone just never sees it.
            window(1500, 1530, FaultKind::FlashCrowd { multiplier: 2.0 }),
            // World 7's nested same-PoP crash pair under 120 s epochs: both
            // open at 24 480, the inner one closes a tick before the outer.
            window(24_407, 25_126, FaultKind::ControllerCrash),
            window(24_451, 25_044, FaultKind::ControllerCrash),
        ])
        .expect("valid schedule");
        let mut tracker = FaultWindows::new(Some(&schedule), Some(0));
        let (telemetry, sink) = TelemetryHandle::memory();
        let (mut closes, mut opens, mut prev, mut calm) = (Vec::new(), Vec::new(), Vec::new(), 0);
        for t in (0..=25_320).step_by(120) {
            let closed = tracker.advance(t, &telemetry, 0);
            let now: Vec<FaultEvent> = schedule
                .events
                .iter()
                .filter(|e| e.active_at(t))
                .copied()
                .collect();
            assert!(tracker.active().eq(&now), "active set at t={t}");
            // Each closed window was active at the last tick and is not now.
            assert!(closed.iter().all(|e| prev.contains(e) && !now.contains(e)));
            assert_eq!(
                closed.len(),
                prev.iter().filter(|e| !now.contains(e)).count()
            );
            let opened: Vec<FaultEvent> =
                now.iter().filter(|e| !prev.contains(e)).copied().collect();
            // The tick's events: every end, then every start, in event order.
            let edge = |name: &str, e: &FaultEvent| format!("{name} {}", e.kind.label());
            let ends = closed.iter().map(|e| edge("fault.end", e));
            let want: Vec<String> = ends
                .chain(opened.iter().map(|e| edge("fault.start", e)))
                .collect();
            let got: Vec<String> = (sink.events().iter())
                .filter(|e| e.now_ms == t * 1000)
                .map(|e| format!("{} {}", e.name, e.str_field("kind").unwrap_or_default()))
                .collect();
            assert_eq!(got, want, "t={t}");
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
