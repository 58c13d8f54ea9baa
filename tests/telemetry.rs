//! The telemetry pipeline end to end through `ef-sim`: a run with a
//! memory sink attached must explain every override it announces, keep
//! every router on its injector's ledger, time every epoch phase, and log
//! fault and mode transitions with structured fields.

use edge_fabric::override_divergence;
use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_sim::{scenario, ScenarioBuilder, SimConfig};
use ef_telemetry::{Event, ExplainVerdict, FieldValue, MemorySink, TelemetryHandle, EVENT_NAMES};

use std::sync::Arc;

fn base_cfg(seed: u64) -> SimConfig {
    scenario()
        .small_topology(seed)
        .duration_secs(1500)
        .epoch_secs(60)
        .exact_rates()
        .build()
}

/// An integer field of `event` (panics when absent or not an integer).
fn count(event: &Event, key: &str) -> u64 {
    match event.field(key) {
        Some(FieldValue::U64(n)) => *n,
        other => panic!("{} lacks integer {key}: {other:?}", event.name),
    }
}

/// Sum of an integer field over every event named `name`.
fn total(sink: &MemorySink, name: &str, key: &str) -> u64 {
    sink.events_named(name).iter().map(|e| count(e, key)).sum()
}

/// Runs `cfg` with a memory sink and checks that every event it recorded
/// carries a name from [`EVENT_NAMES`], so the list `efctl trace --kind`
/// validates against cannot drift from the code that emits.
fn observed_run(cfg: SimConfig) -> Arc<MemorySink> {
    let (handle, sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(cfg).telemetry(handle).engine();
    engine.run();
    for e in sink.events() {
        assert!(
            EVENT_NAMES.contains(&e.name.as_str()),
            "unlisted event {:?}",
            e.name
        );
    }
    sink
}

#[test]
fn every_announced_override_has_emitted_provenance() {
    let sink = observed_run(base_cfg(11));

    let announces = sink.events_named("override.announce");
    assert!(!announces.is_empty(), "scenario produces overrides");
    let explains = sink.explains();
    for a in &announces {
        let prefix = a.str_field("prefix").expect("announce carries its prefix");
        assert!(
            explains.iter().any(|(pop, now_ms, rec)| *pop == a.pop
                && *now_ms == a.now_ms
                && rec.prefix.to_string() == prefix
                && rec.verdict == ExplainVerdict::Emitted),
            "announce of {prefix} at pop{} t={}ms lacks an emitted explain",
            a.pop,
            a.now_ms
        );
    }
    // Every emitted explain names its chosen alternate.
    for (_, _, rec) in explains.iter().filter(|(_, _, r)| r.emitted()) {
        assert!(rec.chosen_egress.is_some(), "emitted explain chose nothing");
        assert!(rec.chosen_kind.is_some());
    }
}

#[test]
fn auditor_is_clean_and_epochs_carry_phase_timings() {
    // After every epoch each PoP's router holds exactly the overrides its
    // injector stands behind: nothing missing, nothing leaked.
    let (handle, sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(base_cfg(11))
        .telemetry(handle)
        .engine();
    let mut checked = 0;
    for _ in 0..engine.cfg.epochs() {
        engine.step();
        for pop in &engine.pops {
            let ctl = pop
                .controller
                .as_ref()
                .expect("no fault removes a controller");
            let found = override_divergence(&pop.router, ctl.active_overrides(), &[]);
            assert!(found.is_empty(), "pop {}: {found:?}", pop.pop.id.0);
            checked += ctl.active_overrides().len();
        }
    }

    let epochs = sink.events_named("epoch");
    assert!(!epochs.is_empty(), "every epoch logs a span event");
    for e in &epochs {
        for key in [
            "bmp_ingest_us",
            "projection_us",
            "allocation_us",
            "guards_us",
            "injection_us",
            "total_us",
        ] {
            assert!(e.field(key).is_some(), "epoch event lacks {key}");
        }
    }

    // The epoch events' churn agrees with the per-override events, and
    // a clean injection dropped nothing.
    assert_eq!(
        total(&sink, "epoch", "announced") as usize,
        sink.events_named("override.announce").len()
    );
    assert_eq!(
        total(&sink, "epoch", "withdrawn") as usize,
        sink.events_named("override.withdraw").len()
    );
    assert_eq!(total(&sink, "epoch", "dropped_announce"), 0);
    assert_eq!(total(&sink, "epoch", "dropped_withdraw"), 0);
    // The check covered the announced set, whose size the epoch reports.
    assert_eq!(total(&sink, "epoch", "overrides_active"), checked as u64);
    assert!(checked > 0, "the check saw overrides");
    // An epoch with overrides active detours demand.
    for e in &epochs {
        let Some(FieldValue::F64(mbps)) = e.field("detoured_mbps") else {
            panic!("epoch event lacks detoured_mbps");
        };
        assert_eq!(*mbps > 0.0, count(e, "overrides_active") > 0);
    }
}

#[test]
fn faults_and_mode_transitions_are_logged_with_structured_fields() {
    // Stall PoP 0's BMP feed long enough to cross the degraded horizon
    // (120s) and the fail-open horizon (360s).
    let cfg = ScenarioBuilder::from_config(base_cfg(7))
        .tune_controller(|c| {
            c.stale_input_secs = 120;
            c.fail_open_secs = 360;
        })
        .chaos(
            FaultSchedule::new(vec![FaultEvent {
                t_start_secs: 300,
                duration_secs: 600,
                target: FaultTarget::Pop { pop: 0 },
                kind: FaultKind::BmpStall,
            }])
            .expect("valid schedule"),
        )
        .build();
    let sink = observed_run(cfg);

    let starts = sink.events_named("fault.start");
    assert_eq!(starts.len(), 1);
    assert_eq!(starts[0].str_field("kind"), Some("bmp_stall"));
    let ends = sink.events_named("fault.end");
    assert_eq!(ends.len(), 1);
    assert!(ends[0].now_ms > starts[0].now_ms);

    let degraded = sink.events_named("controller.degraded.enter");
    assert!(
        degraded.iter().any(|e| e.pop == 0),
        "stalled PoP logged degraded-mode entry"
    );
    for e in &degraded {
        assert!(e.field("input_age_ms").is_some());
        assert!(e.field("overrides_active").is_some());
    }
    let fail_open = sink.events_named("controller.fail_open.enter");
    assert!(
        fail_open.iter().any(|e| e.pop == 0),
        "stall outlasts the fail-open horizon"
    );
    assert!(
        sink.events_named("controller.fail_open.exit")
            .iter()
            .any(|e| e.pop == 0),
        "recovery logged once the stall ended"
    );
}

#[test]
fn refresh_recovery_surfaces_per_peer_counters() {
    // Corrupt one peer's updates for five minutes: the graded decoder
    // downgrades (treat-as-withdraw / attribute-discard), the runtime
    // heals over ROUTE-REFRESH, and the per-peer session counters say so.
    let base = base_cfg(7);
    let deployment = ef_topology::generate(&base.gen);
    let peer = deployment.pops[0].peers[0].peer.0;
    let cfg = ScenarioBuilder::from_config(base)
        .chaos(
            FaultSchedule::new(vec![FaultEvent {
                t_start_secs: 300,
                duration_secs: 300,
                target: FaultTarget::Peer { pop: 0, peer },
                kind: FaultKind::UpdateCorruption { rate: 0.9 },
            }])
            .expect("valid schedule"),
        )
        .build();
    let sink = observed_run(cfg);

    let corrupt = sink.events_named("chaos.corrupt_frames");
    assert!(!corrupt.is_empty(), "fault actually bit");
    assert!(corrupt
        .iter()
        .all(|e| e.pop == 0 && count(e, "peer") == peer && count(e, "frames") > 0));
    let refreshes = sink.events_named("session.refresh");
    assert!(refreshes.iter().all(|e| count(e, "peer") == peer));
    let lost = |e: &Event| e.field("lost") == Some(&true.into());
    assert!(
        refreshes.iter().any(|e| !lost(e)),
        "recovery went over ROUTE-REFRESH"
    );
    // Inside the window the reply crosses the damaged channel too.
    assert!(
        refreshes.iter().any(|e| lost(e) && e.now_ms < 600_000),
        "a refresh reply was lost to the corruption"
    );
    assert!(
        sink.events_named("session.reset").is_empty(),
        "refresh recovery never reset a session"
    );
    let stats: Vec<Event> = sink
        .events_named("session.stats")
        .into_iter()
        .filter(|e| count(e, "peer") == peer)
        .collect();
    let max = |key| stats.iter().map(|e| count(e, key)).max().unwrap_or(0);
    assert!(
        max("updates_downgraded") > 0,
        "per-peer downgrade counter surfaced through telemetry"
    );
    assert!(
        max("refreshes_sent") > 0,
        "per-peer refresh counter surfaced through telemetry"
    );
    // The injector resynced over ROUTE-REFRESH when the corruption ended.
    assert!(sink
        .events_named("injector.resync")
        .iter()
        .any(|e| e.pop == 0 && e.now_ms == 600_000));
}

fn fault(
    t_start_secs: u64,
    duration_secs: u64,
    target: FaultTarget,
    kind: FaultKind,
) -> FaultEvent {
    FaultEvent {
        t_start_secs,
        duration_secs,
        target,
        kind,
    }
}

/// Everything in the event stream but wall time is a function of the
/// scenario: two runs of a faulted 4-PoP world with both tiers give the
/// same records once each is stripped of its wall-clock readings (the
/// events' `wall_us` and the epoch's `*_us` phase timings) and put in
/// `(now_ms, pop)` order (PoPs emit from parallel workers).
#[test]
fn event_stream_is_deterministic_apart_from_wall_time() {
    let base = base_cfg(7);
    let deployment = ef_topology::generate(&base.gen);
    let peer = deployment.pops[0].peers[0].peer.0;
    let schedule = FaultSchedule::new(vec![
        fault(
            240,
            300,
            FaultTarget::Peer { pop: 0, peer },
            FaultKind::UpdateCorruption { rate: 0.9 },
        ),
        fault(300, 300, FaultTarget::Pop { pop: 1 }, FaultKind::BmpStall),
        fault(
            360,
            240,
            FaultTarget::Pop { pop: 2 },
            FaultKind::InjectorPartialLoss { fraction: 0.7 },
        ),
        fault(
            420,
            300,
            FaultTarget::Pop { pop: 3 },
            FaultKind::FlashCrowd { multiplier: 2.0 },
        ),
        fault(
            600,
            240,
            FaultTarget::Global { pop: Some(1) },
            FaultKind::ReportStaleness { epochs: 2 },
        ),
    ])
    .expect("valid schedule");
    let cfg = ScenarioBuilder::from_config(base)
        .global(ef_global::GlobalConfig::default())
        .health(ef_health::HealthConfig::default())
        .chaos(schedule)
        .build();
    let epochs = cfg.epochs();

    let stream = |cfg: SimConfig| {
        use ef_telemetry::TelemetryRecord::{Event, Explain, Placement};
        let sink = observed_run(cfg);
        let mut lines: Vec<((u64, u16), String)> = sink
            .records()
            .into_iter()
            .map(|mut record| {
                let key = match &mut record {
                    Event(e) => {
                        e.wall_us = None;
                        e.fields.retain(|k, _| !k.ends_with("_us"));
                        (e.now_ms, e.pop)
                    }
                    Explain { pop, now_ms, .. } | Placement { pop, now_ms, .. } => (*now_ms, *pop),
                };
                (key, serde_json::to_string(&record).unwrap())
            })
            .collect();
        lines.sort_by_key(|(key, _)| *key);
        (sink, lines)
    };
    let (sink, a) = stream(cfg.clone());
    let (_, b) = stream(cfg);
    assert_eq!(a.len(), b.len(), "same number of records");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "records differ between runs");
    }

    // The faults bit, and each tier wrote its part.
    assert!(!sink.events_named("chaos.corrupt_frames").is_empty());
    assert!(sink
        .events_named("session.stats")
        .iter()
        .any(|e| e.pop == 0));
    assert!(!sink.placements().is_empty(), "the global tier placed");
    for pop in 0..4 {
        let samples = sink.events_named("health.sample");
        let at_pop = samples.iter().filter(|e| e.pop == pop).count() as u64;
        assert_eq!(at_pop, epochs, "one health sample per epoch at pop{pop}");
    }
    // The injector resynced over ROUTE-REFRESH when the partial injection
    // loss ended.
    assert!(sink
        .events_named("injector.resync")
        .iter()
        .any(|e| e.pop == 2 && e.now_ms == 600_000));
}

/// `session.stats` events are emitted only when a peer's stats change,
/// yet mid-run and after the run each peer's latest event (all zero when
/// it has none) equals the router's live stats — through counters that
/// grew (update corruption) and sessions that restarted at zero (a flap
/// storm on the corrupted peer after its damage, and one on a clean
/// peer).
#[test]
fn session_stats_events_match_the_routers_stats_after_growth_and_reset() {
    let base = base_cfg(7);
    let deployment = ef_topology::generate(&base.gen);
    let damaged = deployment.pops[0].peers[0].peer.0;
    let flapped = deployment.pops[1].peers[0].peer.0;
    let storm = FaultKind::SessionFlapStorm { period_s: 5 };
    let schedule = FaultSchedule::new(vec![
        fault(
            240,
            300,
            FaultTarget::Peer {
                pop: 0,
                peer: damaged,
            },
            FaultKind::UpdateCorruption { rate: 0.9 },
        ),
        fault(
            300,
            240,
            FaultTarget::Peer {
                pop: 1,
                peer: flapped,
            },
            storm,
        ),
        fault(
            720,
            180,
            FaultTarget::Peer {
                pop: 0,
                peer: damaged,
            },
            storm,
        ),
    ])
    .expect("valid schedule");
    let (handle, sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(base)
        .chaos(schedule)
        .telemetry(handle)
        .engine();
    let damaged_stats = |engine: &ef_sim::SimEngine| {
        engine.pops[0]
            .router
            .session_stats(ef_bgp::peer::PeerId(damaged))
            .expect("peer attached")
    };
    let stats_of = |e: &Event| {
        [
            "updates_downgraded",
            "attrs_discarded",
            "refreshes_sent",
            "refreshes_answered",
        ]
        .map(|key| count(e, key))
    };
    let events_match_routers = |engine: &ef_sim::SimEngine| {
        let events = sink.events_named("session.stats");
        for pop in &engine.pops {
            for peer in pop.router.peer_ids() {
                let stats = pop.router.session_stats(peer).expect("listed peer");
                let emitted: Vec<[u64; 4]> = events
                    .iter()
                    .filter(|e| e.pop == pop.pop.id.0 && count(e, "peer") == peer.0)
                    .map(stats_of)
                    .collect();
                // Only changes are emitted.
                assert!(
                    emitted.windows(2).all(|w| w[0] != w[1]),
                    "{peer:?} at {}",
                    pop.pop.name
                );
                let latest = emitted.last().copied().unwrap_or_default();
                let live = [
                    stats.updates_downgraded,
                    stats.attrs_discarded,
                    stats.refreshes_sent,
                    stats.refreshes_answered,
                ];
                assert_eq!(
                    latest,
                    live,
                    "{peer:?} at {} after t={}s",
                    pop.pop.name,
                    engine.now_secs()
                );
            }
        }
    };

    // Inside the corruption window: the damaged peer's counters grew.
    engine.run_epochs(8);
    assert!(damaged_stats(&engine).updates_downgraded > 0, "fault bit");
    events_match_routers(&engine);

    // After the storms: the damaged peer's session restarted at zero.
    engine.run();
    assert!(engine.all_sessions_up(), "both storms recovered");
    assert_eq!(
        damaged_stats(&engine).updates_downgraded,
        0,
        "the storm restarted the session"
    );
    events_match_routers(&engine);
    // Both storms reset their peer's session.
    let resets = sink.events_named("session.reset");
    for (pop, peer) in [(0, damaged), (1, flapped)] {
        assert!(resets
            .iter()
            .any(|e| e.pop == pop && count(e, "peer") == peer));
    }
    assert_eq!(resets.len() as u64, engine.session_resets());
}

#[test]
fn disabled_handle_emits_nothing() {
    // The default config has no sink; the same run must work and the
    // handle must stay silent (this is what every non-observed test and
    // experiment binary exercises implicitly, pinned here explicitly).
    let cfg = base_cfg(11);
    assert!(!cfg.telemetry.enabled());
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    engine.run();
    // Nothing to assert on a sink — there is none; the run completing is
    // the contract. Spot-check the handle API used by callers:
    let handle = TelemetryHandle::disabled();
    assert_eq!(handle.timer().elapsed_us(), 0);
    assert!(!handle.enabled());
}
