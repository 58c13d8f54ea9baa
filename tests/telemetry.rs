//! The telemetry pipeline end to end through `ef-sim`: a run with a
//! memory sink attached must explain every override it announces, audit
//! cleanly, time every epoch phase, and log fault and mode transitions
//! with structured fields.

use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_sim::{scenario, ScenarioBuilder, SimConfig};
use ef_telemetry::{ExplainVerdict, MemorySink, TelemetryHandle};

use std::sync::Arc;

fn base_cfg(seed: u64) -> SimConfig {
    scenario()
        .small_topology(seed)
        .duration_secs(1500)
        .epoch_secs(60)
        .exact_rates()
        .build()
}

fn observed_run(cfg: SimConfig) -> Arc<MemorySink> {
    let (handle, sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(cfg).telemetry(handle).engine();
    engine.run();
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
    let sink = observed_run(base_cfg(11));

    // The auditor re-runs the PR decision process after every epoch; a
    // healthy run has zero leaked or missing overrides.
    assert!(sink.events_named("audit.override_leaked").is_empty());
    assert!(sink.events_named("audit.override_not_installed").is_empty());

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

    // The engine snapshots the shared registry once per epoch; counters
    // only grow, so the largest values cover the whole run.
    let snapshots = sink.snapshots();
    assert!(!snapshots.is_empty(), "per-epoch snapshots present");
    let announced_max = snapshots
        .iter()
        .filter_map(|(_, _, s)| s.counters.get("overrides.announced").copied())
        .max()
        .unwrap_or(0);
    assert_eq!(
        announced_max as usize,
        sink.events_named("override.announce").len(),
        "counter agrees with the announce events"
    );
    let audits = snapshots
        .iter()
        .filter_map(|(_, _, s)| s.counters.get("audit.checked").copied())
        .max()
        .unwrap_or(0);
    assert!(audits > 0, "auditor ran");
    assert!(
        snapshots
            .iter()
            .any(|(_, _, s)| s.histograms.contains_key("epoch_duration_us")),
        "epoch duration histogram recorded"
    );
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

    // Mode transitions also bump the registry counters.
    let transitions = sink
        .snapshots()
        .iter()
        .filter_map(|(_, _, s)| s.counters.get("controller.fail_open_transitions").copied())
        .max()
        .unwrap_or(0);
    assert!(transitions >= 1);
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

    let snapshots = sink.snapshots();
    let max_counter = |name: &str| {
        snapshots
            .iter()
            .filter_map(|(_, _, s)| s.counters.get(name).copied())
            .max()
            .unwrap_or(0)
    };
    let max_gauge = |name: &str| {
        snapshots
            .iter()
            .filter_map(|(_, _, s)| s.gauges.get(name).copied())
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_counter("chaos.corrupt_frames") > 0,
        "fault actually bit"
    );
    assert!(
        max_counter("session.refreshes") > 0,
        "recovery went over ROUTE-REFRESH"
    );
    assert_eq!(
        max_counter("session.resets"),
        0,
        "refresh recovery never reset a session"
    );
    let downgraded = max_gauge(&format!("session.peer.{peer}.updates_downgraded"));
    assert!(
        downgraded > 0.0,
        "per-peer downgrade counter surfaced through telemetry"
    );
    let sent = max_gauge(&format!("session.peer.{peer}.refreshes_sent"));
    assert!(
        sent > 0.0,
        "per-peer refresh counter surfaced through telemetry"
    );
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

/// The metrics stream is one engine snapshot per epoch, under the global
/// sentinel, and everything in it but wall time is a function of the
/// scenario: two runs of a faulted 4-PoP world with both tiers agree on
/// every counter, every gauge and every histogram's observation count.
/// (Histogram sums and bucket counts hold wall-clock durations.)
#[test]
fn metrics_stream_is_one_deterministic_snapshot_per_epoch() {
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
    let epoch_ms = cfg.epoch_secs * 1000;

    let stream = |cfg: SimConfig| {
        let snapshots = observed_run(cfg).snapshots();
        assert_eq!(snapshots.len() as u64, epochs, "one snapshot per epoch");
        for (i, (pop, now_ms, _)) in snapshots.iter().enumerate() {
            assert_eq!(*pop, ef_health::GLOBAL_POP);
            assert_eq!(*now_ms, i as u64 * epoch_ms);
        }
        snapshots
            .into_iter()
            .map(|(_, _, s)| {
                let counts: Vec<(String, u64)> = s
                    .histograms
                    .into_iter()
                    .map(|(k, h)| (k, h.count))
                    .collect();
                (s.counters, s.gauges, counts)
            })
            .collect::<Vec<_>>()
    };
    let a = stream(cfg.clone());
    let b = stream(cfg);
    let last = a.last().expect("snapshots");
    assert!(last.0["chaos.corrupt_frames"] > 0, "the faults bit");
    assert!(last.1.keys().any(|k| k.starts_with("global.")));
    assert!(last.1.contains_key("pop3.alerts_firing"));
    for (epoch, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "snapshot of epoch {epoch} differs between runs");
    }
}

/// Session gauges are written only when a peer's stats change, yet mid-run
/// and after the run every `session.peer.N.*` gauge equals the router's
/// live stats —
/// through counters that grew (update corruption) and sessions that
/// restarted at zero (a flap storm on the corrupted peer after its damage,
/// and one on a clean peer).
#[test]
fn session_gauges_match_the_routers_stats_after_growth_and_reset() {
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
    let (handle, _sink) = TelemetryHandle::memory();
    let mut engine = ScenarioBuilder::from_config(base)
        .chaos(schedule)
        .telemetry(handle.clone())
        .engine();
    let damaged_stats = |engine: &ef_sim::SimEngine| {
        engine.pops[0]
            .router
            .session_stats(ef_bgp::peer::PeerId(damaged))
            .expect("peer attached")
    };
    let gauges_match_routers = |engine: &ef_sim::SimEngine| {
        let metrics = handle.metrics().expect("telemetry enabled");
        for pop in &engine.pops {
            for peer in pop.router.peer_ids() {
                let stats = pop.router.session_stats(peer).expect("listed peer");
                for (field, value) in [
                    ("updates_downgraded", stats.updates_downgraded),
                    ("attrs_discarded", stats.attrs_discarded),
                    ("refreshes_sent", stats.refreshes_sent),
                    ("refreshes_answered", stats.refreshes_answered),
                ] {
                    let key = format!("session.peer.{}.{field}", peer.0);
                    assert_eq!(
                        metrics.gauges.get(&key).copied(),
                        Some(value as f64),
                        "{key} at {} after t={}s",
                        pop.pop.name,
                        engine.now_secs()
                    );
                }
            }
        }
    };

    // Inside the corruption window: the damaged peer's counters grew.
    engine.run_epochs(8);
    assert!(damaged_stats(&engine).updates_downgraded > 0, "fault bit");
    gauges_match_routers(&engine);

    // After the storms: the damaged peer's session restarted at zero.
    engine.run();
    assert!(engine.all_sessions_up(), "both storms recovered");
    assert_eq!(
        damaged_stats(&engine).updates_downgraded,
        0,
        "the storm restarted the session"
    );
    gauges_match_routers(&engine);
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
    assert!(handle.metrics().is_none());
}
