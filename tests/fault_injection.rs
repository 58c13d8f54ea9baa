//! Fault kinds end to end through `ef-sim`: the schedule is interpreted by
//! the runtime, the controller sees only its (degraded) inputs, and the
//! paper's fail-static behavior (§4.4) falls out per fault kind.

use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_sim::{scenario, MetricsStore, ScenarioBuilder, SimConfig, SimEngine};

fn base_cfg() -> SimConfig {
    scenario()
        .small_topology(7)
        .duration_secs(1500)
        .epoch_secs(60)
        .exact_rates()
        .tune_controller(|c| {
            c.stale_input_secs = 120;
            c.fail_open_secs = 360;
        })
        .build()
}

fn run(cfg: SimConfig) -> MetricsStore {
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    engine.run();
    engine.take_metrics()
}

fn with_chaos(cfg: SimConfig, events: Vec<FaultEvent>) -> SimConfig {
    ScenarioBuilder::from_config(cfg)
        .chaos(FaultSchedule::new(events).expect("valid schedule"))
        .build()
}

/// The PoP doing the most steering in the fault window — the interesting
/// place to break things.
fn steered_pop(reference: &MetricsStore, window: (u64, u64)) -> u16 {
    let mut per_pop = std::collections::BTreeMap::<u16, usize>::new();
    for r in &reference.pop_epochs {
        if r.t_secs >= window.0 && r.t_secs < window.1 {
            *per_pop.entry(r.pop).or_default() += r.overrides_active;
        }
    }
    let (pop, count) = per_pop
        .into_iter()
        .max_by_key(|(_, n)| *n)
        .expect("pops exist");
    assert!(
        count > 0,
        "no PoP steers in the fault window; scenario too calm"
    );
    pop
}

fn pop_records(m: &MetricsStore, pop: u16) -> Vec<&ef_sim::PopEpochRecord> {
    m.pop_epochs.iter().filter(|r| r.pop == pop).collect()
}

#[test]
fn controller_crash_fails_open_and_restarts() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (600, 1200));
    let metrics = run(with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 600,
            duration_secs: 600,
            target: FaultTarget::Pop { pop: pop as usize },
            kind: FaultKind::ControllerCrash,
        }],
    ));
    for r in pop_records(&metrics, pop) {
        if r.t_secs >= 600 && r.t_secs < 1200 {
            assert_eq!(
                r.overrides_active, 0,
                "dead controller holds no overrides (t={})",
                r.t_secs
            );
            assert!(r.fail_open, "crash records as fail-open (t={})", r.t_secs);
            assert!(
                r.active_faults.iter().any(|l| l == "controller_crash"),
                "fault window tagged (t={})",
                r.t_secs
            );
        }
    }
    // Stateless restart: same inputs → same override set as the uncrashed
    // reference once the controller is back (one settle epoch of margin).
    for (a, b) in pop_records(&metrics, pop)
        .iter()
        .zip(pop_records(&reference, pop).iter())
        .filter(|(a, _)| a.t_secs >= 1260)
    {
        assert_eq!(a.t_secs, b.t_secs);
        assert_eq!(
            a.overrides_active, b.overrides_active,
            "restarted controller reconverged (t={})",
            a.t_secs
        );
    }
}

#[test]
fn injector_loss_fails_open_and_recovers() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (600, 900));
    let metrics = run(with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 600,
            duration_secs: 300,
            target: FaultTarget::Pop { pop: pop as usize },
            kind: FaultKind::InjectorLoss,
        }],
    ));
    for r in pop_records(&metrics, pop) {
        if r.t_secs >= 600 && r.t_secs < 900 {
            assert_eq!(
                r.overrides_active, 0,
                "no injector, no overrides (t={})",
                r.t_secs
            );
            assert!(
                r.fail_open,
                "injector loss records as fail-open (t={})",
                r.t_secs
            );
            assert!(r.active_faults.iter().any(|l| l == "injector_loss"));
        }
    }
    for (a, b) in pop_records(&metrics, pop)
        .iter()
        .zip(pop_records(&reference, pop).iter())
        .filter(|(a, _)| a.t_secs >= 960)
    {
        assert_eq!(
            a.overrides_active, b.overrides_active,
            "reattached injector reconverged (t={})",
            a.t_secs
        );
    }
}

#[test]
fn peer_failure_drops_the_session_and_recovery_restores_routes() {
    let cfg = base_cfg();
    let deployment = ef_topology::generate(&cfg.gen);
    let mut engine = ScenarioBuilder::from_config(cfg.clone()).engine_with(deployment.clone());

    // Prefixes whose FIB entry egresses via `egress` at PoP 0.
    let via = |engine: &SimEngine, egress: ef_bgp::route::EgressId| -> usize {
        deployment
            .universe
            .prefixes
            .iter()
            .filter(|p| {
                engine.pops[0]
                    .router
                    .fib_entry(&p.prefix)
                    .is_some_and(|e| e.egress == egress)
            })
            .count()
    };
    // Fail a private peer that actually wins best-path for something (its
    // interface is dedicated, so its FIB footprint is unambiguous).
    let conn = deployment.pops[0]
        .peers
        .iter()
        .find(|c| c.kind() == ef_bgp::peer::PeerKind::PrivatePeer && via(&engine, c.egress) > 0)
        .expect("a private peer carries traffic")
        .clone();
    let routes_before = via(&engine, conn.egress);

    let cfg = with_chaos(
        cfg,
        vec![FaultEvent {
            t_start_secs: 600,
            duration_secs: 300,
            target: FaultTarget::Peer {
                pop: 0,
                peer: conn.peer.0,
            },
            kind: FaultKind::PeerFailure,
        }],
    );
    engine = ScenarioBuilder::from_config(cfg).engine_with(deployment.clone());
    assert_eq!(via(&engine, conn.egress), routes_before);
    assert!(engine.all_sessions_up());
    while engine.now_secs() < 660 {
        engine.step();
    }
    assert!(
        !engine.all_sessions_up(),
        "failed peer session is down mid-window"
    );
    assert_eq!(
        via(&engine, conn.egress),
        0,
        "implicit withdraw moved everything off the failed peer"
    );
    engine.run();
    assert!(
        engine.all_sessions_up(),
        "session re-established after the window"
    );
    assert_eq!(
        via(&engine, conn.egress),
        routes_before,
        "replayed announcements restored the FIB"
    );
    // The fault was recorded against the right PoP, and tearing the
    // session down (plus its governed revival) counts as resets — the
    // contrast with the refresh path, which must not.
    assert!(engine.session_resets() > 0, "peer failure is a hard reset");
    let metrics = engine.take_metrics();
    assert!(pop_records(&metrics, 0)
        .iter()
        .any(|r| r.active_faults.iter().any(|l| l == "peer_failure")));
}

#[test]
fn bmp_stall_shrinks_then_fails_open() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (300, 1200));
    let metrics = run(with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 300,
            duration_secs: 900,
            target: FaultTarget::Pop { pop: pop as usize },
            kind: FaultKind::BmpStall,
        }],
    ));
    let records = pop_records(&metrics, pop);
    let stall: Vec<_> = records
        .iter()
        .filter(|r| r.t_secs >= 300 && r.t_secs < 1200)
        .collect();
    assert!(
        stall.iter().any(|r| r.degraded),
        "stall reached the degraded horizon"
    );
    assert!(stall
        .iter()
        .all(|r| r.active_faults.iter().any(|l| l == "bmp_stall")));
    // Hold-or-shrink: once degraded, the override set never grows.
    for pair in stall.windows(2) {
        if pair[0].degraded || pair[0].fail_open {
            assert!(
                pair[1].overrides_active <= pair[0].overrides_active,
                "degraded epoch enlarged the set (t={})",
                pair[1].t_secs
            );
        }
    }
    // Fail-open horizon (360 s past the last fresh feed) empties it.
    for r in &stall {
        if r.t_secs >= 300 + 360 + 60 {
            assert!(r.fail_open, "past fail-open horizon (t={})", r.t_secs);
            assert_eq!(r.overrides_active, 0, "overrides expired (t={})", r.t_secs);
        }
    }
}

#[test]
fn severe_sflow_loss_ages_traffic_into_fail_open() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (300, 1200));
    let metrics = run(with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 300,
            duration_secs: 900,
            target: FaultTarget::Pop { pop: pop as usize },
            kind: FaultKind::SflowLoss { drop_fraction: 1.0 },
        }],
    ));
    let records = pop_records(&metrics, pop);
    let window: Vec<_> = records
        .iter()
        .filter(|r| r.t_secs >= 300 && r.t_secs < 1200)
        .collect();
    assert!(window.iter().any(|r| r.degraded));
    for r in &window {
        if r.t_secs >= 300 + 360 + 60 {
            assert!(
                r.fail_open,
                "starved traffic input fails open (t={})",
                r.t_secs
            );
            assert_eq!(r.overrides_active, 0);
        }
    }
    // After the window the estimator sees fresh demand again and steering
    // resumes.
    assert!(records
        .iter()
        .any(|r| r.t_secs >= 1260 && r.overrides_active > 0));
}

#[test]
fn severe_sflow_loss_replays_the_pre_fault_table_then_refills_it() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (300, 1200)) as usize;
    let cfg = with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 300,
            duration_secs: 300,
            target: FaultTarget::Pop { pop },
            kind: FaultKind::SflowLoss { drop_fraction: 1.0 },
        }],
    );
    let mut engine = ScenarioBuilder::from_config(cfg).engine();
    while engine.now_secs() < 300 {
        engine.step();
    }
    // The last fresh epoch before the window ran at t = 240.
    let (t0, table) = engine.pops[pop].last_traffic();
    assert_eq!(t0, 240);
    let pre_fault = table.clone();
    assert!(!pre_fault.entries().is_empty());
    while engine.now_secs() < 600 {
        engine.step();
        let (t, table) = engine.pops[pop].last_traffic();
        assert_eq!(t, t0, "stale estimate keeps its timestamp");
        assert_eq!(table, &pre_fault, "stale replay is the pre-fault table");
    }
    // First fresh epoch after the window: the same buffer is refilled.
    engine.step();
    let (t, table) = engine.pops[pop].last_traffic();
    assert_eq!(t, 600);
    assert_eq!(table.entries().len(), pre_fault.entries().len());
    assert_ne!(table, &pre_fault, "demand moved in six minutes");
}

#[test]
fn flash_crowd_scales_offered_demand() {
    let reference = run(base_cfg());
    let pop = steered_pop(&reference, (600, 900));
    let metrics = run(with_chaos(
        base_cfg(),
        vec![FaultEvent {
            t_start_secs: 600,
            duration_secs: 300,
            target: FaultTarget::Pop { pop: pop as usize },
            kind: FaultKind::FlashCrowd { multiplier: 2.0 },
        }],
    ));
    for (a, b) in pop_records(&metrics, pop)
        .iter()
        .zip(pop_records(&reference, pop).iter())
    {
        assert_eq!(a.t_secs, b.t_secs);
        let ratio = a.offered_mbps / b.offered_mbps;
        if a.t_secs >= 600 && a.t_secs < 900 {
            assert!(
                (ratio - 2.0).abs() < 1e-9,
                "flash crowd doubles offered demand (t={}, ratio {ratio})",
                a.t_secs
            );
            assert!(a.active_faults.iter().any(|l| l == "flash_crowd"));
        } else {
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "demand untouched outside the window (t={}, ratio {ratio})",
                a.t_secs
            );
        }
    }
}
