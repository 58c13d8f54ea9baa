//! The extensions E14–E21: the global steering tier (the paper's §7
//! direction), fail-static and bounded recovery under injected faults,
//! external health detection, and cost-aware egress under 95/5 billing.
//! Each builds its own world with [`Campaign::sub_world`] and none reads
//! the campaign's metrics.

use std::collections::HashMap;

use serde::Serialize;

use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;
use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use ef_global::{
    BackendKind, FlashCrowdSpec, GlobalConfig, GlobalController, GuardSnapshot,
    BUDGET_PLAUSIBILITY, HOLD_DOWN_EPOCHS,
};
use ef_health::HealthConfig;
use ef_sim::{MetricsStore, PopEpochRecord, ScenarioBuilder, SimConfig, SimEngine};
use ef_topology::{generate, CostModel, Deployment, PopId, Region};

use super::{Campaign, ItemResult, Size, SubWorld};

/// `GenConfig::small`'s size, the world of the fault and billing items.
const SMALL: Size = (4, 40, 200, 400.0);

// --- shared measurements --------------------------------------------------

/// Runs `cfg` over `dep` to the end, recording the `flag`ged interfaces'
/// load series.
fn run_arm(cfg: SimConfig, dep: &Deployment, flag: &[EgressId]) -> SimEngine {
    let mut engine = ScenarioBuilder::from_config(cfg).engine_with(dep.clone());
    for egress in flag {
        engine.flag_interface(*egress);
    }
    engine.run();
    engine
}

/// Everything a same-seed rerun must reproduce byte for byte.
fn fingerprint(m: &MetricsStore) -> String {
    let mut series: Vec<_> = m.series.iter().map(|(e, s)| (e.0, s)).collect();
    series.sort_by_key(|(egress, _)| *egress);
    serde_json::to_string(&(&m.pop_epochs, &m.episodes, &m.billing, &series)).expect("serializes")
}

/// Traffic dropped over the run, Mbps·epochs: at `pop`, or everywhere.
fn dropped(m: &MetricsStore, pop: Option<PopId>) -> f64 {
    m.pop_epochs
        .iter()
        .filter(|r| pop.is_none_or(|p| r.pop == p.0))
        .map(|r| r.dropped_mbps)
        .sum()
}

fn pop_records(m: &MetricsStore, pop: u16) -> Vec<&PopEpochRecord> {
    m.pop_epochs.iter().filter(|r| r.pop == pop).collect()
}

fn in_window(t: u64, (start, secs): (u64, u64)) -> bool {
    t >= start && t < start + secs
}

/// A fault over a `(start, duration)` window.
type Fault = ((u64, u64), FaultKind, FaultTarget);

/// The schedule of `faults`; `None` if one is invalid (an empty window).
fn schedule(faults: impl IntoIterator<Item = Fault>) -> Option<FaultSchedule> {
    let events = faults
        .into_iter()
        .map(|(window, kind, target)| FaultEvent {
            t_start_secs: window.0,
            duration_secs: window.1,
            target,
            kind,
        })
        .collect();
    FaultSchedule::new(events).ok()
}

/// Degraded-mode horizon of the fault worlds: inputs older than this
/// hold-or-shrink.
const STALE_SECS: u64 = 60;
/// Fail-open horizon: inputs older than this withdraw everything.
const FAIL_OPEN_SECS: u64 = 240;

/// The small world under exact rates, with trust horizons short enough
/// for one fault window to cross both.
fn fault_world(c: &Campaign, duration_secs: u64) -> SubWorld {
    let mut world = c.sub_world(SMALL, duration_secs, None);
    world.cfg = world
        .builder()
        .exact_rates() // exact rates isolate the fault response
        .tune_controller(|cc| {
            cc.stale_input_secs = STALE_SECS;
            cc.fail_open_secs = FAIL_OPEN_SECS;
        })
        .build();
    world
}

/// Peering (non-transit) interfaces: the capacity-constrained ones worth
/// breaking.
fn peering_interfaces(dep: &Deployment) -> Vec<EgressId> {
    dep.pops
        .iter()
        .flat_map(|p| p.interfaces.iter())
        .filter(|i| i.kind() != PeerKind::Transit)
        .map(|i| i.id)
        .collect()
}

/// The fault target E15 and E19 break: the busiest peering interface by
/// peak utilisation over `window` of a reference run that recorded every
/// peering series.
struct Busiest {
    egress: EgressId,
    pop: u16,
    capacity_mbps: f64,
    peak_util: f64,
}

impl Busiest {
    fn pick(dep: &Deployment, reference: &MetricsStore, window: (u64, u64)) -> Option<Busiest> {
        dep.pops
            .iter()
            .flat_map(|p| p.interfaces.iter().map(move |i| (p.id.0, i)))
            .filter(|(_, i)| i.kind() != PeerKind::Transit)
            .map(|(pop, i)| Busiest {
                egress: i.id,
                pop,
                capacity_mbps: i.capacity_mbps,
                peak_util: reference
                    .series
                    .get(&i.id)
                    .into_iter()
                    .flatten()
                    .filter(|(t, _)| in_window(*t, window))
                    .map(|(_, load)| load / i.capacity_mbps)
                    .fold(0.0f64, f64::max),
            })
            .max_by(|a, b| a.peak_util.total_cmp(&b.peak_util))
    }

    /// The capacity cut that leaves 60 % of the observed peak as headroom:
    /// the overload is guaranteed, and a detour of 40 % of peak relieves it.
    fn caploss(&self) -> f64 {
        (1.0 - 0.6 * self.peak_util).clamp(0.2, 0.95)
    }
}

/// Steps `cfg` over `dep` to the end, handing `observe` each epoch's start
/// time and the global tier after it; returns the metrics and the
/// victim's peak away-fraction (it decays once the pressure clears, so it
/// is sampled every epoch).
fn run_global(
    cfg: SimConfig,
    dep: &Deployment,
    victim: PopId,
    mut observe: impl FnMut(u64, &GlobalController),
) -> (MetricsStore, f64) {
    let epochs = cfg.epochs();
    let mut engine = ScenarioBuilder::from_config(cfg).engine_with(dep.clone());
    let mut peak_away = 0.0f64;
    for _ in 0..epochs {
        let t = engine.now_secs();
        engine.step();
        if let Some(g) = engine.global.as_ref() {
            peak_away = peak_away.max(g.away_fraction(victim));
            observe(t, g);
        }
    }
    (engine.take_metrics(), peak_away)
}

const CROWD_MULTIPLIER: f64 = 2.5;

/// The tier of one arm of the blackout worlds (E18, E20). Every arm
/// shapes the same EU flash crowd, so offered demand is identical and
/// only steering differs; `max_shift` is 1.0 because moving half the
/// demand cannot fix a 90 % capacity loss.
fn steering(backend: Option<BackendKind>, decay: f64, crowd: (u64, u64)) -> GlobalConfig {
    GlobalConfig {
        backend,
        step: 0.1,
        max_shift: 1.0,
        decay,
        ..GlobalConfig::default()
    }
    .with_flash_crowd(FlashCrowdSpec {
        population: "EU".into(),
        t_start_secs: crowd.0,
        duration_secs: crowd.1,
        multiplier: CROWD_MULTIPLIER,
    })
}

/// The regional blackout: every egress interface of `victim` loses 90 %
/// of its capacity over `window`.
fn blackout(dep: &Deployment, victim: PopId, window: (u64, u64)) -> Vec<Fault> {
    dep.pops[victim.0 as usize]
        .interfaces
        .iter()
        .map(|iface| {
            let target = FaultTarget::Interface {
                pop: victim.0 as usize,
                egress: iface.id.0,
            };
            (
                window,
                FaultKind::LinkCapacityLoss { fraction: 0.9 },
                target,
            )
        })
        .collect()
}

fn eu_pop(dep: &Deployment) -> Option<PopId> {
    dep.pops
        .iter()
        .find(|p| p.region == Region::Europe)
        .map(|p| p.id)
}

fn identical(same: bool) -> &'static str {
    if same {
        "identical"
    } else {
        "differ"
    }
}

// --- E14 ------------------------------------------------------------------

#[derive(Serialize)]
struct GlobalShift {
    victim_pop: u16,
    drops_ef_only_mbps_epochs: f64,
    drops_with_global_mbps_epochs: f64,
    drop_reduction_factor: f64,
    peak_shift_fraction: f64,
    residual_epochs_ef_only: usize,
    residual_epochs_with_global: usize,
}

/// One PoP's total egress capped below its evening peak, EF alone vs EF
/// plus the global tier (DNS backend, one-epoch TTL).
pub(super) fn e14_global_shift(c: &Campaign) -> Option<ItemResult> {
    let world = c.sub_world((8, 200, 1200, 3000.0), 8 * 3600, None);
    let victim = PopId(0);
    let mut dep = generate(&world.cfg.gen);
    // Peak runs ~1.8× average, so capping total capacity at 1.2× average
    // puts the evening peak above every egress combined.
    dep.cap_pop_capacity_to_demand(victim, 1.2);
    let arm = |cfg: SimConfig| {
        let (m, peak_shift) = run_global(cfg, &dep, victim, |_, _| {});
        let residual = pop_records(&m, victim.0)
            .iter()
            .filter(|r| r.residual_overloaded > 0)
            .count();
        (dropped(&m, Some(victim)), residual, peak_shift)
    };
    let (drops_ef, residual_ef, _) = arm(world.cfg.clone());
    let (drops_global, residual_global, peak_shift) =
        arm(world.builder().global(GlobalConfig::dns(1)).build());
    let factor = drops_ef / drops_global.max(1e-9);
    Some(ItemResult {
        measured: format!(
            "victim PoP drops {drops_ef:.0} → {drops_global:.0} Mbps·epochs ({factor:.0}× cut), \
             epochs with unresolved overload {residual_ef} → {residual_global}; peak {:.0} % of \
             its demand shifted away",
            peak_shift * 100.0
        ),
        bounds: vec![
            ("drops_ef_only > 0", drops_ef > 0.0),
            (
                "drops_global < drops_ef_only / 2",
                drops_global < drops_ef / 2.0,
            ),
            ("peak_shift > 0", peak_shift > 0.0),
        ],
        series: GlobalShift {
            victim_pop: victim.0,
            drops_ef_only_mbps_epochs: drops_ef,
            drops_with_global_mbps_epochs: drops_global,
            drop_reduction_factor: factor,
            peak_shift_fraction: peak_shift,
            residual_epochs_ef_only: residual_ef,
            residual_epochs_with_global: residual_global,
        }
        .to_value(),
    })
}

// --- E15 ------------------------------------------------------------------

#[derive(Serialize)]
struct WindowRow {
    fault: &'static str,
    t_start: u64,
    duration: u64,
    ef_on_overload_secs: u64,
    ef_off_overload_secs: u64,
}

#[derive(Serialize)]
struct FaultMatrix {
    seed: u64,
    target_pop: u16,
    target_egress: u32,
    capacity_mbps: f64,
    caploss_fraction: f64,
    epochs_to_mitigate: Option<u64>,
    windows: Vec<WindowRow>,
    reverted_by_secs: u64,
}

/// One PoP through five disjoint fault windows — capacity loss on its
/// busiest peering interface, a BMP stall, a controller crash, injector
/// loss and a flash crowd — EF on vs. off, each arm run twice.
pub(super) fn e15_fault_matrix(c: &Campaign) -> Option<ItemResult> {
    let world = fault_world(c, 2700);
    let epoch = world.cfg.epoch_secs;
    let w = |start, secs| (world.at(start), world.at(secs));
    let windows = [
        ("link_capacity_loss", w(300, 300)),
        ("bmp_stall", w(900, 600)),
        ("controller_crash", w(1800, 150)),
        ("injector_loss", w(2100, 150)),
        ("flash_crowd", w(2400, 150)),
    ];
    let [caploss_w, stall_w, crash_w, injloss_w, flash_w] = windows.map(|(_, w)| w);
    let dep = generate(&world.cfg.gen);
    let run = |cfg: SimConfig, flag: &[EgressId]| {
        let mut engine = run_arm(cfg, &dep, flag);
        assert!(engine.all_sessions_up(), "sessions recovered by run end");
        engine.take_metrics()
    };

    // The fault-free reference picks the target and is what the override
    // state must converge back to.
    let reference = run(world.cfg.clone(), &peering_interfaces(&dep));
    let target = Busiest::pick(&dep, &reference, caploss_w)?;
    let caploss = target.caploss();
    let pop = target.pop as usize;
    let at_pop = FaultTarget::Pop { pop };
    let faults = [
        (
            caploss_w,
            FaultKind::LinkCapacityLoss { fraction: caploss },
            FaultTarget::Interface {
                pop,
                egress: target.egress.0,
            },
        ),
        (stall_w, FaultKind::BmpStall, at_pop),
        (crash_w, FaultKind::ControllerCrash, at_pop),
        (injloss_w, FaultKind::InjectorLoss, at_pop),
        (flash_w, FaultKind::FlashCrowd { multiplier: 2.0 }, at_pop),
    ];
    let chaos = world.builder().chaos(schedule(faults)?).build();
    let flag = [target.egress];
    let ef_on = run(chaos.clone(), &flag);
    let ef_off = run(chaos.clone().baseline(), &flag);
    let reproducible = fingerprint(&ef_on) == fingerprint(&run(chaos.clone(), &flag))
        && fingerprint(&ef_off) == fingerprint(&run(chaos.baseline(), &flag));

    // Capacity loss: EF relieves the degraded interface, EF-off never does.
    let degraded_capacity = target.capacity_mbps * (1.0 - caploss);
    let caploss_loads = |m: &MetricsStore| -> Vec<f64> {
        m.series[&target.egress]
            .iter()
            .filter(|(t, _)| in_window(*t, caploss_w))
            .map(|(_, load)| *load)
            .collect()
    };
    let epochs_to_mitigate = caploss_loads(&ef_on)
        .iter()
        .position(|load| *load <= degraded_capacity)
        .map(|i| i as u64);
    let off_never_mitigates = caploss_loads(&ef_off)
        .iter()
        .all(|load| *load > degraded_capacity);

    // BMP stall: hold-or-shrink, then fail open and withdraw everything.
    let on_pop = pop_records(&ef_on, target.pop);
    let stall: Vec<&&PopEpochRecord> = on_pop
        .iter()
        .filter(|r| in_window(r.t_secs, stall_w))
        .collect();
    let stall_degrades = stall.iter().any(|r| r.degraded);
    let stall_never_grows = stall.windows(2).all(|pair| {
        !(pair[0].degraded || pair[0].fail_open)
            || pair[1].overrides_active <= pair[0].overrides_active
    });
    let stall_fails_open = stall
        .iter()
        .filter(|r| r.t_secs >= stall_w.0 + FAIL_OPEN_SECS)
        .all(|r| r.fail_open && r.overrides_active == 0);
    // Crash / injector loss: no overrides while the output path is down.
    let output_loss_fails_open = on_pop
        .iter()
        .filter(|r| {
            [crash_w, injloss_w]
                .iter()
                .any(|w| in_window(r.t_secs, *w) && r.t_secs > w.0)
        })
        .all(|r| r.fail_open && r.overrides_active == 0);

    // After the last window the stateless controller converges back to
    // the fault-free arm: same routes, traffic and capacities, same
    // override set.
    let settle_secs = flash_w.0 + flash_w.1 + 2 * epoch;
    let ref_pop = pop_records(&reference, target.pop);
    let (mut settled, mut reverted) = (0usize, 0usize);
    for (a, b) in on_pop.iter().zip(ref_pop.iter()) {
        assert_eq!(a.t_secs, b.t_secs, "arm and reference share the epoch grid");
        if a.t_secs >= settle_secs {
            settled += 1;
            reverted += usize::from(
                a.overrides_active == b.overrides_active
                    && (a.detoured_mbps - b.detoured_mbps).abs() < 1e-6,
            );
        }
    }

    let off_pop = pop_records(&ef_off, target.pop);
    let overload_secs = |records: &[&PopEpochRecord], w| {
        records
            .iter()
            .filter(|r| in_window(r.t_secs, w) && r.dropped_mbps > 0.0)
            .count() as u64
            * epoch
    };
    let rows: Vec<WindowRow> = windows
        .iter()
        .map(|&(fault, w)| WindowRow {
            fault,
            t_start: w.0,
            duration: w.1,
            ef_on_overload_secs: overload_secs(&on_pop, w),
            ef_off_overload_secs: overload_secs(&off_pop, w),
        })
        .collect();
    let per_window: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{} {}/{}",
                r.fault, r.ef_on_overload_secs, r.ef_off_overload_secs
            )
        })
        .collect();
    Some(ItemResult {
        measured: format!(
            "target pop{} if{} (peak util {:.2}), {:.0} % of capacity cut: epochs to mitigate \
             {}; overloaded seconds EF on/off: {}; override set and detour equal the \
             fault-free arm's in {reverted}/{settled} epochs from t = {settle_secs} s; reruns {}",
            target.pop,
            target.egress.0,
            target.peak_util,
            caploss * 100.0,
            epochs_to_mitigate.map_or("never".to_string(), |e| e.to_string()),
            per_window.join(", "),
            identical(reproducible),
        ),
        bounds: vec![
            ("peak_util > 0.06", target.peak_util > 0.06),
            ("rerun == run (EF on and off)", reproducible),
            (
                "epochs_to_mitigate <= 2",
                epochs_to_mitigate.is_some_and(|e| e <= 2),
            ),
            (
                "EF off: load > degraded capacity all capacity-loss window",
                off_never_mitigates,
            ),
            ("BMP stall: some epoch degraded", stall_degrades),
            (
                "BMP stall: a degraded or fail-open epoch never grows the override set",
                stall_never_grows,
            ),
            (
                "BMP stall from +240 s: fail_open && overrides == 0",
                stall_fails_open,
            ),
            (
                "crash, injector loss: fail_open && overrides == 0",
                output_loss_fails_open,
            ),
            (
                "from settle: overrides, detoured == reference (at least one epoch)",
                settled > 0 && reverted == settled,
            ),
        ],
        series: FaultMatrix {
            seed: world.cfg.gen.seed,
            target_pop: target.pop,
            target_egress: target.egress.0,
            capacity_mbps: target.capacity_mbps,
            caploss_fraction: caploss,
            epochs_to_mitigate,
            windows: rows,
            reverted_by_secs: settle_secs,
        }
        .to_value(),
    })
}

// --- E16, E17 -------------------------------------------------------------

/// One arm of the recovery world: fault kinds sharing its one window
/// (more than one makes an overlapping-fault arm), and how many epochs
/// after the window clears it may take to be steady again.
struct Case {
    label: &'static str,
    faults: Vec<(FaultKind, FaultTarget)>,
    bound: u64,
}

/// Faults that only degrade inputs: fresh inputs restore the steady state.
const BOUND_INPUT: u64 = 2;
/// Faults that tear down a session or the controller additionally pay the
/// reconnect governor's backoff and the flap-damping cool-down.
const BOUND_SESSION: u64 = 3;
/// Treat-as-withdraw damage healed over ROUTE-REFRESH on the live session.
const BOUND_REFRESH: u64 = 1;

#[derive(Serialize)]
struct RecoveryRow {
    fault: &'static str,
    t_start_secs: u64,
    t_clear_secs: u64,
    epochs_to_steady: u64,
    bound_epochs: u64,
    session_resets: u64,
}

#[derive(Serialize)]
struct Recovery {
    seed: u64,
    epoch_secs: u64,
    target_pop: u16,
    target_peer: u64,
    target_egress: u32,
    rows: Vec<RecoveryRow>,
}

/// Runs the recovery arms — the two refresh arms (E17) or the nine
/// others (E16) — each in one fault window against PoP 0 and twice, over
/// the deployment of a fault-free reference run. Returns the rows and
/// whether every arm reproduced byte-identically.
fn recovery(c: &Campaign, refresh: bool) -> Option<(Recovery, bool)> {
    let world = fault_world(c, 1500);
    let epoch = world.cfg.epoch_secs;
    let window = (world.at(300), world.at(300));
    let dep = generate(&world.cfg.gen);
    let pop = 0usize;
    let run = |cfg: SimConfig| {
        // Steadiness is judged on the faulted PoP's interface loads too.
        let flag: Vec<EgressId> = dep.pops[pop].interfaces.iter().map(|i| i.id).collect();
        let mut engine = run_arm(cfg, &dep, &flag);
        assert!(
            engine.all_sessions_up(),
            "sessions re-established by run end"
        );
        let resets = engine.session_resets();
        (engine.take_metrics(), resets)
    };
    let (reference, _) = run(world.cfg.clone());

    // The busiest PoP-0 peering interface in the window (so a capacity
    // cut bites), and on it the peer announcing the most routes (so
    // tearing the session actually moves traffic).
    let egress = dep.pops[pop]
        .interfaces
        .iter()
        .filter(|i| i.kind() != PeerKind::Transit)
        .max_by(|a, b| {
            let peak = |id| {
                reference.series[&id]
                    .iter()
                    .filter(|(t, _)| in_window(*t, window))
                    .map(|(_, load)| *load)
                    .fold(0.0f64, f64::max)
            };
            peak(a.id).total_cmp(&peak(b.id))
        })?
        .id;
    let mut route_count: HashMap<u64, usize> = HashMap::new();
    for spec in dep.routes_at(PopId(pop as u16)) {
        *route_count.entry(spec.via.0).or_default() += 1;
    }
    let (&peer, _) = route_count
        .iter()
        .filter(|(p, _)| {
            dep.pops[pop]
                .peers
                .iter()
                .any(|c| c.peer.0 == **p && c.egress == egress)
        })
        .max_by_key(|(peer, n)| (**n, **peer))?;

    let at_peer = FaultTarget::Peer { pop, peer };
    let at_pop = FaultTarget::Pop { pop };
    let case = |label, faults, bound| Case {
        label,
        faults,
        bound,
    };
    let cases = if refresh {
        vec![
            case(
                "update_corruption",
                vec![(FaultKind::UpdateCorruption { rate: 0.5 }, at_peer)],
                BOUND_REFRESH,
            ),
            case(
                "injector_partial_loss",
                vec![(FaultKind::InjectorPartialLoss { fraction: 0.5 }, at_pop)],
                BOUND_INPUT,
            ),
        ]
    } else {
        vec![
            case(
                "link_capacity_loss",
                vec![(
                    FaultKind::LinkCapacityLoss { fraction: 0.75 },
                    FaultTarget::Interface {
                        pop,
                        egress: egress.0,
                    },
                )],
                BOUND_INPUT,
            ),
            case(
                "bmp_stall",
                vec![(FaultKind::BmpStall, at_pop)],
                BOUND_INPUT,
            ),
            case(
                "sflow_loss",
                vec![(
                    FaultKind::SflowLoss {
                        drop_fraction: 0.95,
                    },
                    at_pop,
                )],
                BOUND_INPUT,
            ),
            case(
                "flash_crowd",
                vec![(FaultKind::FlashCrowd { multiplier: 2.0 }, at_pop)],
                BOUND_INPUT,
            ),
            case(
                "controller_crash",
                vec![(FaultKind::ControllerCrash, at_pop)],
                BOUND_SESSION,
            ),
            case(
                "injector_loss",
                vec![(FaultKind::InjectorLoss, at_pop)],
                BOUND_SESSION,
            ),
            case(
                "peer_failure",
                vec![(FaultKind::PeerFailure, at_peer)],
                BOUND_SESSION,
            ),
            case(
                "session_flap_storm",
                vec![(FaultKind::SessionFlapStorm { period_s: 5 }, at_peer)],
                BOUND_SESSION,
            ),
            // The corrupted updates land on a session the storm keeps
            // tearing down: the refresh path must stand aside (a down
            // session replays in full on reconnect).
            case(
                "flap_storm_with_corruption",
                vec![
                    (FaultKind::SessionFlapStorm { period_s: 5 }, at_peer),
                    (FaultKind::UpdateCorruption { rate: 0.5 }, at_peer),
                ],
                BOUND_SESSION,
            ),
        ]
    };

    let clear = window.0 + window.1;
    let mut reproducible = true;
    let mut rows = Vec::new();
    for case in cases {
        let cfg = world
            .builder()
            .chaos(schedule(case.faults.iter().map(|&(k, t)| (window, k, t)))?)
            .build();
        let (arm, resets) = run(cfg.clone());
        let (again, resets_again) = run(cfg);
        reproducible &= fingerprint(&arm) == fingerprint(&again) && resets == resets_again;
        let last_mismatch = last_mismatch(&arm, &reference, &dep, pop, clear);
        rows.push(RecoveryRow {
            fault: case.label,
            t_start_secs: window.0,
            t_clear_secs: clear,
            epochs_to_steady: last_mismatch.map_or(0, |t| (t - clear) / epoch + 1),
            bound_epochs: case.bound,
            session_resets: resets,
        });
    }
    let recovery = Recovery {
        seed: world.cfg.gen.seed,
        epoch_secs: epoch,
        target_pop: pop as u16,
        target_peer: peer,
        target_egress: egress.0,
        rows,
    };
    Some((recovery, reproducible))
}

/// The last epoch at or after `clear` in which the faulted PoP differs from
/// the reference on an operational signal — override count, detoured and
/// dropped volume, overload and degradation state — or on an interface
/// load (a session still held down by flap damping shows there even when
/// the PoP totals coincide). `detoured_by_kind` and churn are left out:
/// allocator hysteresis admits equivalent steady states that pin a
/// different prefix for the same relief.
fn last_mismatch(
    arm: &MetricsStore,
    reference: &MetricsStore,
    dep: &Deployment,
    pop: usize,
    clear: u64,
) -> Option<u64> {
    let steady = |a: &PopEpochRecord, b: &PopEpochRecord| {
        a.overrides_active == b.overrides_active
            && (a.detoured_mbps - b.detoured_mbps).abs() < 1e-6
            && (a.dropped_mbps - b.dropped_mbps).abs() < 1e-6
            && a.overloaded_before == b.overloaded_before
            && a.residual_overloaded == b.residual_overloaded
            && a.degraded == b.degraded
            && a.fail_open == b.fail_open
    };
    let (arm_pop, ref_pop) = (
        pop_records(arm, pop as u16),
        pop_records(reference, pop as u16),
    );
    assert_eq!(arm_pop.len(), ref_pop.len(), "arm and reference epochs");
    let mut last = None;
    for (a, b) in arm_pop.iter().zip(&ref_pop) {
        assert_eq!(a.t_secs, b.t_secs, "arm and reference share the epoch grid");
        if a.t_secs >= clear && !steady(a, b) {
            last = last.max(Some(a.t_secs));
        }
    }
    for iface in &dep.pops[pop].interfaces {
        let (arm_series, ref_series) = (&arm.series[&iface.id], &reference.series[&iface.id]);
        assert_eq!(
            arm_series.len(),
            ref_series.len(),
            "arm and reference series"
        );
        for ((t, al), (tr, rl)) in arm_series.iter().zip(ref_series) {
            assert_eq!(t, tr, "arm and reference share the epoch grid");
            if *t >= clear && (al - rl).abs() >= 1e-6 {
                last = last.max(Some(*t));
            }
        }
    }
    last
}

fn steady_rows(rows: &[RecoveryRow]) -> String {
    rows.iter()
        .map(|r| format!("{} {}/{}", r.fault, r.epochs_to_steady, r.bound_epochs))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every fault kind but the refresh-healed ones, one 300-second window
/// each against PoP 0: back on the fault-free reference within a bounded
/// number of epochs.
pub(super) fn e16_recovery(c: &Campaign) -> Option<ItemResult> {
    let (recovery, reproducible) = recovery(c, false)?;
    let rows = &recovery.rows;
    let resets: Vec<String> = rows
        .iter()
        .filter(|r| r.session_resets > 0)
        .map(|r| format!("{} {}", r.fault, r.session_resets))
        .collect();
    let resets = match resets.is_empty() {
        true => "none".to_string(),
        false => format!("{}, other arms 0", resets.join(", ")),
    };
    Some(ItemResult {
        measured: format!(
            "epochs back on the fault-free reference / bound: {}; session resets: {resets}; \
             every session re-established; reruns {}",
            steady_rows(rows),
            identical(reproducible),
        ),
        bounds: vec![
            (
                "epochs_to_steady <= bound in every arm",
                rows.iter().all(|r| r.epochs_to_steady <= r.bound_epochs),
            ),
            ("rerun == run in every arm", reproducible),
        ],
        series: recovery.to_value(),
    })
}

/// The two refresh-healed arms: update corruption (RFC 7606
/// treat-as-withdraw, healed by a governed ROUTE-REFRESH on the live
/// session) and partial injection loss (the injector resyncs its set).
pub(super) fn e17_refresh(c: &Campaign) -> Option<ItemResult> {
    let (recovery, reproducible) = recovery(c, true)?;
    let rows = &recovery.rows;
    let resets: u64 = rows.iter().map(|r| r.session_resets).sum();
    Some(ItemResult {
        measured: format!(
            "epochs back on the fault-free reference / bound: {}; {resets} session resets; \
             reruns {}",
            steady_rows(rows),
            identical(reproducible),
        ),
        bounds: vec![
            (
                "epochs_to_steady <= bound in every arm",
                rows.iter().all(|r| r.epochs_to_steady <= r.bound_epochs),
            ),
            (
                "session_resets == 0 in every arm",
                rows.iter().all(|r| r.session_resets == 0),
            ),
            ("rerun == run in every arm", reproducible),
        ],
        series: recovery.to_value(),
    })
}

// --- E18 ------------------------------------------------------------------

#[derive(Serialize)]
struct SteeringArm {
    backend: &'static str,
    drops_total_mbps_epochs: f64,
    drops_victim_mbps_epochs: f64,
    /// Blackout-window epochs in which the victim still dropped traffic.
    drain_epochs: usize,
    peak_away_fraction: f64,
}

#[derive(Serialize)]
struct GlobalSteering {
    victim_pop: u16,
    victim_region: &'static str,
    blackout_start_secs: u64,
    blackout_secs: u64,
    capacity_loss_fraction: f64,
    crowd_population: &'static str,
    crowd_multiplier: f64,
    arms: Vec<SteeringArm>,
    drop_cut_dns: f64,
    drop_cut_anycast: f64,
}

/// The EU PoP loses 90 % of every egress for two hours, and half an hour
/// in the EU population's demand multiplies 2.5× for an hour: EF alone vs
/// DNS steering (4-epoch TTL) vs anycast (4-epoch convergence).
pub(super) fn e18_global_steering(c: &Campaign) -> Option<ItemResult> {
    let world = c.sub_world((8, 200, 1200, 3000.0), 6 * 3600, Some(60));
    let blackout_w = (world.at(2 * 3600), world.at(2 * 3600));
    let crowd = (world.at(9 * 1800), world.at(3600));
    let dep = generate(&world.cfg.gen);
    let victim = eu_pop(&dep)?;
    let chaos = schedule(blackout(&dep, victim, blackout_w))?;
    let arm = |backend: &'static str, kind: Option<BackendKind>| {
        let cfg = world
            .builder()
            .global(steering(kind, 0.02, crowd))
            .chaos(chaos.clone())
            .build();
        let (m, peak_away) = run_global(cfg, &dep, victim, |_, _| {});
        let drain_epochs = pop_records(&m, victim.0)
            .iter()
            .filter(|r| in_window(r.t_secs, blackout_w) && r.dropped_mbps > 0.0)
            .count();
        SteeringArm {
            backend,
            drops_total_mbps_epochs: dropped(&m, None),
            drops_victim_mbps_epochs: dropped(&m, Some(victim)),
            drain_epochs,
            peak_away_fraction: peak_away,
        }
    };
    let ef_only = arm("ef_only", None);
    let dns = arm("dns", Some(BackendKind::Dns { ttl_epochs: 4 }));
    let anycast = arm(
        "anycast",
        Some(BackendKind::Anycast {
            convergence_epochs: 4,
        }),
    );
    let cut =
        |a: &SteeringArm| ef_only.drops_total_mbps_epochs / a.drops_total_mbps_epochs.max(1e-9);
    let (cut_dns, cut_anycast) = (cut(&dns), cut(&anycast));
    Some(ItemResult {
        measured: format!(
            "EF only drops {:.0} Mbps·epochs and drops in {} blackout epochs; DNS cuts drops \
             {cut_dns:.1}×, drains the victim in {} epochs, peak away-fraction {:.2}; anycast \
             cuts {cut_anycast:.1}×, drains in {}, peak away-fraction {:.2}",
            ef_only.drops_total_mbps_epochs,
            ef_only.drain_epochs,
            dns.drain_epochs,
            dns.peak_away_fraction,
            anycast.drain_epochs,
            anycast.peak_away_fraction,
        ),
        bounds: vec![
            ("drops_ef_only > 0", ef_only.drops_total_mbps_epochs > 0.0),
            ("drops_ef_only / drops_dns >= 10", cut_dns >= 10.0),
            ("drops_ef_only / drops_anycast >= 10", cut_anycast >= 10.0),
            (
                "drain_anycast < drain_dns",
                anycast.drain_epochs < dns.drain_epochs,
            ),
            ("peak_away_ef_only == 0", ef_only.peak_away_fraction == 0.0),
        ],
        series: GlobalSteering {
            victim_pop: victim.0,
            victim_region: "EU",
            blackout_start_secs: blackout_w.0,
            blackout_secs: blackout_w.1,
            capacity_loss_fraction: 0.9,
            crowd_population: "EU",
            crowd_multiplier: CROWD_MULTIPLIER,
            arms: vec![ef_only, dns, anycast],
            drop_cut_dns: cut_dns,
            drop_cut_anycast: cut_anycast,
        }
        .to_value(),
    })
}

// --- E19 ------------------------------------------------------------------

#[derive(Serialize)]
struct KindRow {
    kind: &'static str,
    target_pop: u16,
    expected_rules: Vec<&'static str>,
    detected_rule: Option<String>,
    fired_t_secs: Option<u64>,
    detect_latency_epochs: Option<u64>,
    alerts_at_pop: usize,
    alerts_elsewhere: usize,
}

#[derive(Serialize)]
struct Coverage {
    seed: u64,
    epoch_secs: u64,
    duration_secs: u64,
    onset_secs: u64,
    fault_secs: u64,
    detect_slo_epochs: u64,
    kinds_detected: usize,
    kinds_total: usize,
    calm_alerts: usize,
    kinds: Vec<KindRow>,
}

/// Detection SLO: an expected alert must fire within this many epochs.
const DETECT_EPOCHS: u64 = 2;

/// Every chaos fault kind, one arm each with the health tier on, against
/// the SLO rule set: which rule pages, and how many epochs after onset.
pub(super) fn e19_health_detection(c: &Campaign) -> Option<ItemResult> {
    let world = c.sub_world(SMALL, 900, None);
    let epoch = world.cfg.epoch_secs;
    let window = (world.at(300), world.at(300));
    let dep = generate(&world.cfg.gen);
    let run = |cfg: SimConfig, health: bool| {
        let mut builder = ScenarioBuilder::from_config(cfg);
        if health {
            builder = builder.health(HealthConfig::default());
        }
        let mut engine = run_arm(builder.build(), &dep, &[]);
        let alerts = engine
            .health_monitor()
            .map(|m| m.all_alerts())
            .unwrap_or_default();
        (alerts, fingerprint(&engine.take_metrics()))
    };
    // The health tier is read-only: health on == off, calm and chaotic.
    let read_only = |cfg: &SimConfig| {
        let (alerts, on) = run(cfg.clone(), true);
        let (_, off) = run(cfg.clone(), false);
        (alerts, on == off)
    };
    let (calm_alerts, calm_read_only) = read_only(&world.cfg);

    // The reference picks the targets: the busiest peering interface, its
    // PoP (pop-scoped faults) and that PoP's first peer (peer faults).
    let mut reference = run_arm(world.cfg.clone(), &dep, &peering_interfaces(&dep));
    let reference = reference.take_metrics();
    let target = Busiest::pick(&dep, &reference, window)?;
    let pop = target.pop as usize;
    let peer = dep.pops[pop].peers.first()?.peer.0;
    // Partial injection loss is only visible where the injector sends:
    // the PoP whose controller churns most in the window hosts it.
    let churn_pop = dep
        .pops
        .iter()
        .map(|p| {
            let churn: usize = pop_records(&reference, p.id.0)
                .iter()
                .filter(|r| in_window(r.t_secs, window))
                .map(|r| r.churn_announced + r.churn_withdrawn)
                .sum();
            (p.id.0, churn)
        })
        .max_by_key(|(_, churn)| *churn)?
        .0 as usize;
    let capacity_cut = (
        window,
        FaultKind::LinkCapacityLoss {
            fraction: target.caploss(),
        },
        FaultTarget::Interface {
            pop,
            egress: target.egress.0,
        },
    );

    // Fault → the rules an operator should be paged by.
    let at_peer = FaultTarget::Peer { pop, peer };
    let at_pop = FaultTarget::Pop { pop };
    let overload = vec!["interface_overload", "drop_rate_ceiling"];
    let matrix: Vec<(FaultKind, FaultTarget, Vec<&'static str>)> = vec![
        (FaultKind::PeerFailure, at_peer, vec!["bgp_session_down"]),
        (capacity_cut.1, capacity_cut.2, overload.clone()),
        (FaultKind::BmpStall, at_pop, vec!["stale_inputs"]),
        (
            FaultKind::SflowLoss {
                drop_fraction: 0.95,
            },
            at_pop,
            vec!["stale_inputs"],
        ),
        (FaultKind::ControllerCrash, at_pop, vec!["controller_down"]),
        (FaultKind::InjectorLoss, at_pop, vec!["injector_down"]),
        (FaultKind::FlashCrowd { multiplier: 3.0 }, at_pop, overload),
        (
            FaultKind::UpdateCorruption { rate: 0.9 },
            at_peer,
            vec!["ingest_corruption"],
        ),
        (
            FaultKind::SessionFlapStorm { period_s: 5 },
            at_peer,
            vec!["session_flap", "bgp_session_down"],
        ),
        (
            FaultKind::InjectorPartialLoss { fraction: 0.9 },
            FaultTarget::Pop { pop: churn_pop },
            vec!["injection_loss"],
        ),
    ];
    let mut kinds = Vec::new();
    for (kind, target, expected) in matrix {
        let fault_pop = target.pop().unwrap_or(0) as u16;
        let cfg = world
            .builder()
            .chaos(schedule([(window, kind, target)])?)
            .build();
        let (alerts, _) = run(cfg, true);
        let hit = alerts
            .iter()
            .filter(|a| {
                a.pop == fault_pop
                    && expected.contains(&a.rule.as_str())
                    && a.fired_t_secs >= window.0
                    && a.fired_t_secs <= window.0 + DETECT_EPOCHS * epoch
            })
            .min_by_key(|a| a.fired_t_secs);
        let alerts_at_pop = alerts.iter().filter(|a| a.pop == fault_pop).count();
        kinds.push(KindRow {
            kind: kind.label(),
            target_pop: fault_pop,
            expected_rules: expected,
            detected_rule: hit.map(|a| a.rule.clone()),
            fired_t_secs: hit.map(|a| a.fired_t_secs),
            detect_latency_epochs: hit.map(|a| (a.fired_t_secs - window.0) / epoch),
            alerts_at_pop,
            alerts_elsewhere: alerts.len() - alerts_at_pop,
        });
    }
    let chaotic = world.builder().chaos(schedule([capacity_cut])?).build();
    let (_, chaotic_read_only) = read_only(&chaotic);

    let detected = kinds.iter().filter(|k| k.detected_rule.is_some()).count();
    let latencies: Vec<String> = kinds
        .iter()
        .map(|k| {
            let latency = k.detect_latency_epochs;
            format!(
                "{} {}",
                k.kind,
                latency.map_or("-".into(), |e| e.to_string())
            )
        })
        .collect();
    Some(ItemResult {
        measured: format!(
            "{detected}/{} fault kinds raise an expected alert at the faulted PoP within \
             {DETECT_EPOCHS} epochs (epochs after onset: {}); calm arm: {} alerts; results with \
             health on vs. off: calm {}, chaotic {}",
            kinds.len(),
            latencies.join(", "),
            calm_alerts.len(),
            identical(calm_read_only),
            identical(chaotic_read_only),
        ),
        bounds: vec![
            ("kinds_detected == kinds_total", detected == kinds.len()),
            ("calm_alerts == 0", calm_alerts.is_empty()),
            (
                "health on == off (calm and chaotic)",
                calm_read_only && chaotic_read_only,
            ),
        ],
        series: Coverage {
            seed: world.cfg.gen.seed,
            epoch_secs: epoch,
            duration_secs: world.cfg.duration_secs,
            onset_secs: window.0,
            fault_secs: window.1,
            detect_slo_epochs: DETECT_EPOCHS,
            kinds_detected: detected,
            kinds_total: kinds.len(),
            calm_alerts: calm_alerts.len(),
            kinds,
        }
        .to_value(),
    })
}

// --- E20 ------------------------------------------------------------------

#[derive(Serialize)]
struct GuardedArm {
    arm: &'static str,
    drops_total_mbps_epochs: f64,
    drops_victim_mbps_epochs: f64,
    peak_away_fraction: f64,
    /// Epochs between fault start and the arm's guard engaging (`None`
    /// for the fault-free arms, or a guard that never engaged).
    engage_lag_epochs: Option<u64>,
    /// Epochs past incident end until the victim's away-fraction stayed
    /// below the drained threshold.
    drain_lag_epochs: u64,
    /// Fail-static epochs over the whole run.
    frozen_epochs: u64,
}

#[derive(Serialize)]
struct GlobalFaults {
    victim_pop: u16,
    lied_pop: u16,
    blackout_start_secs: u64,
    blackout_secs: u64,
    crowd_multiplier: f64,
    fault_start_secs: u64,
    fault_secs: u64,
    recovery_budget_epochs: u64,
    arms: Vec<GuardedArm>,
}

/// Placement decay, fast enough that the recovery budget fits the run.
const DECAY: f64 = 0.05;
/// DNS TTL of the steering arms.
const TTL_EPOCHS: u64 = 4;
/// Away-fraction below which a placement counts as drained.
const DRAINED: f64 = 0.01;

/// Each global-tier fault injected mid-incident into a smaller E18 world
/// (the EU PoP at 10 % capacity for an hour from 1.5 h, a 2.5× EU crowd
/// from 1.75 h): the matching guard engages, placements drain, and the
/// guarded arm never drops more than EF alone.
pub(super) fn e20_global_faults(c: &Campaign) -> Option<ItemResult> {
    let world = c.sub_world((6, 150, 800, 2000.0), 5 * 3600, Some(60));
    let epoch = world.cfg.epoch_secs;
    let blackout_w = (world.at(5400), world.at(3600));
    let crowd = (world.at(6300), world.at(2700));
    let fault = (world.at(6300), world.at(1800));
    let fault_end = fault.0 + fault.1;
    let incident_end = (blackout_w.0 + blackout_w.1).max(fault_end);
    let dep = generate(&world.cfg.gen);
    let victim = eu_pop(&dep)?;
    // The lie lands on a helper PoP — one absorbing detours, not the
    // victim — so an unclamped lie would over-steer traffic toward it.
    let lied = dep.pops.iter().find(|p| p.id != victim)?.id;
    let dns = Some(BackendKind::Dns {
        ttl_epochs: TTL_EPOCHS,
    });
    let global_fault = |kind, pop| (fault, kind, FaultTarget::Global { pop });
    let run = |arm: &'static str,
               backend: Option<BackendKind>,
               extra: Vec<Fault>,
               engaged: Option<fn(&GuardSnapshot) -> bool>|
     -> Option<(GuardedArm, bool)> {
        let mut faults = blackout(&dep, victim, blackout_w);
        faults.extend(extra);
        let cfg = world
            .builder()
            .global(steering(backend, DECAY, crowd))
            .chaos(schedule(faults)?)
            .build();
        let mut engaged_at = None;
        let mut last_undrained = None;
        let mut frozen_epochs = 0;
        // Whether the lied-about PoP's budget stayed within the
        // plausibility clamp (its baseline demand) through the fault
        // window; a bound for the headroom_lie arm only.
        let mut lie_clamped = true;
        let (m, peak_away) = run_global(cfg, &dep, victim, |t, g| {
            let snap = g.guard_snapshot();
            frozen_epochs = snap.frozen_epochs;
            if engaged_at.is_none() && t >= fault.0 && engaged.is_some_and(|e| e(&snap)) {
                engaged_at = Some(t);
            }
            if in_window(t, fault) {
                let j = lied.0 as usize;
                let budget = g.detour_budgets().get(j).copied().unwrap_or(0.0);
                let cap = BUDGET_PLAUSIBILITY * g.pop_baseline().get(j).copied().unwrap_or(0.0);
                lie_clamped &= budget <= cap * (1.0 + 1e-9);
            }
            if t >= incident_end && g.away_fraction(victim) > DRAINED {
                last_undrained = Some(t);
            }
        });
        let result = GuardedArm {
            arm,
            drops_total_mbps_epochs: dropped(&m, None),
            drops_victim_mbps_epochs: dropped(&m, Some(victim)),
            peak_away_fraction: peak_away,
            engage_lag_epochs: engaged_at.map(|t| (t - fault.0) / epoch),
            drain_lag_epochs: last_undrained.map_or(0, |t| (t + epoch - incident_end) / epoch),
            frozen_epochs,
        };
        Some((result, lie_clamped))
    };

    let (ef_only, _) = run("ef_only", None, vec![], None)?;
    let (clean, _) = run("dns_clean", dns, vec![], None)?;
    // 4 of 6 PoPs dark leaves 2 reports < quorum (0.5) × 6.
    let partitioned = (0..dep.pops.len().min(4))
        .map(|j| global_fault(FaultKind::ReportPartition, Some(j)))
        .collect();
    let (partition, _) = run(
        "report_partition",
        dns,
        partitioned,
        Some(|s| s.fail_static),
    )?;
    let (staleness, _) = run(
        "report_staleness",
        dns,
        vec![global_fault(
            FaultKind::ReportStaleness { epochs: 4 },
            Some(victim.0 as usize),
        )],
        Some(|s| s.stale_pops > 0),
    )?;
    let (crash, _) = run(
        "global_controller_crash",
        dns,
        vec![global_fault(FaultKind::GlobalControllerCrash, None)],
        Some(|s| s.fail_static),
    )?;
    let (lie, lie_clamped) = run(
        "headroom_lie",
        dns,
        vec![global_fault(
            FaultKind::HeadroomLie { factor: 50.0 },
            Some(lied.0 as usize),
        )],
        Some(|s| s.plausibility_clamped),
    )?;

    // Full decay from away = 1, plus the DNS TTL, plus the restore
    // hold-down, plus slack for the epoch grid.
    let budget = (1.0 / DECAY).ceil() as u64 + TTL_EPOCHS + HOLD_DOWN_EPOCHS + 2;
    let faulted = [&partition, &staleness, &crash, &lie];
    let fault_epochs = fault.1 / epoch;
    let per_arm = |f: fn(&GuardedArm) -> String| {
        faulted
            .iter()
            .map(|a| format!("{} {}", a.arm, f(a)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Some(ItemResult {
        measured: format!(
            "guard engages after (epochs) {}; drained (epochs past the incident, budget \
             {budget}) {}; drops (M Mbps·epochs) EF only {:.1}, clean DNS {:.1}, {}; frozen \
             epochs {}",
            per_arm(|a| a
                .engage_lag_epochs
                .map_or("never".into(), |e| e.to_string())),
            per_arm(|a| a.drain_lag_epochs.to_string()),
            ef_only.drops_total_mbps_epochs / 1e6,
            clean.drops_total_mbps_epochs / 1e6,
            per_arm(|a| format!("{:.1}", a.drops_total_mbps_epochs / 1e6)),
            per_arm(|a| a.frozen_epochs.to_string()),
        ),
        bounds: vec![
            ("drops_ef_only > 0", ef_only.drops_total_mbps_epochs > 0.0),
            (
                "drops_clean < drops_ef_only / 5",
                clean.drops_total_mbps_epochs < ef_only.drops_total_mbps_epochs / 5.0,
            ),
            (
                "fault arms: engage_lag <= 1",
                faulted
                    .iter()
                    .all(|a| a.engage_lag_epochs.is_some_and(|e| e <= 1)),
            ),
            (
                "fault arms: drain_lag <= ceil(1/decay) + ttl + hold_down + 2",
                faulted.iter().all(|a| a.drain_lag_epochs <= budget),
            ),
            (
                "fault arms: drops <= drops_ef_only * (1 + 1e-9)",
                faulted.iter().all(|a| {
                    a.drops_total_mbps_epochs <= ef_only.drops_total_mbps_epochs * (1.0 + 1e-9)
                }),
            ),
            (
                "partition, crash: frozen_epochs >= fault_secs / epoch",
                partition.frozen_epochs >= fault_epochs && crash.frozen_epochs >= fault_epochs,
            ),
            (
                "staleness: frozen_epochs == 0",
                staleness.frozen_epochs == 0,
            ),
            (
                "lie: lied_budget <= budget_plausibility * baseline while faulted",
                lie_clamped,
            ),
        ],
        series: GlobalFaults {
            victim_pop: victim.0,
            lied_pop: lied.0,
            blackout_start_secs: blackout_w.0,
            blackout_secs: blackout_w.1,
            crowd_multiplier: CROWD_MULTIPLIER,
            fault_start_secs: fault.0,
            fault_secs: fault.1,
            recovery_budget_epochs: budget,
            arms: vec![ef_only, clean, partition, staleness, crash, lie],
        }
        .to_value(),
    })
}

// --- E21 ------------------------------------------------------------------

#[derive(Serialize)]
struct BillingArm {
    arm: &'static str,
    transit_usd: f64,
    total_usd: f64,
    offered_mbps_epochs: f64,
    dropped_mbps_epochs: f64,
    drop_frac: f64,
}

impl BillingArm {
    fn new(arm: &'static str, m: &MetricsStore) -> BillingArm {
        let (offered, dropped) = m.pop_epochs.iter().fold((0.0, 0.0), |(o, d), r| {
            (o + r.offered_mbps, d + r.dropped_mbps)
        });
        BillingArm {
            arm,
            transit_usd: m.transit_monthly_usd(),
            total_usd: m.total_monthly_usd(),
            offered_mbps_epochs: offered,
            dropped_mbps_epochs: dropped,
            drop_frac: dropped / offered,
        }
    }
}

#[derive(Serialize)]
struct CostBilling {
    seed: u64,
    epoch_secs: u64,
    month_secs: u64,
    transit_ladder: Vec<f64>,
    savings_frac: f64,
    depeer_pop: u16,
    depeer_egress: u32,
    depeer_premium_blind_usd: f64,
    depeer_premium_aware_usd: f64,
    ixp_pop: u16,
    ixp_egress: u32,
    burst_egress: u32,
    burst_peak_mbps: f64,
    burst_billable_mbps: f64,
    arms: Vec<BillingArm>,
}

/// The non-uniform transit ladder, priced against provider rank: the
/// incumbent first-ranked provider is the expensive one — the
/// legacy-preference situation cost-aware steering exists to fix.
const LADDER: [f64; 3] = [3.0, 1.5, 0.5];

/// A compressed billing month — ten diurnal days of 5-minute windows
/// stand in for thirty (the 95/5 percentile of a periodic load is
/// insensitive to how many periods it sees) — billed cost-blind vs.
/// cost-aware: sunny, with a flagship PNI de-peered from mid-month, and
/// with the busiest IXP fabric losing 60 % for two days.
pub(super) fn e21_cost_billing(c: &Campaign) -> Option<ItemResult> {
    const MONTH_SECS: u64 = 10 * 86_400;
    // One epoch per 5-minute billing window.
    let world = c.sub_world(SMALL, MONTH_SECS, Some(300));
    let epoch = world.cfg.epoch_secs;
    let month = world.cfg.duration_secs;
    let depeer_start = world.at(MONTH_SECS / 2);
    let squeeze = (world.at(MONTH_SECS / 2), world.at(2 * 86_400));
    let billed = |aware: bool| {
        world
            .builder()
            .cost_model(CostModel {
                transit_usd_per_mbps: LADDER.to_vec(),
                ..Default::default()
            })
            .cost_aware(aware)
    };
    // The generator stamps the ladder's prices onto the interfaces.
    let dep = generate(&billed(false).build().gen);
    // Every PoP-0 transit interface records its series: the burst check
    // compares peak rate to billed rate.
    let flagged: Vec<EgressId> = dep.pops[0]
        .interfaces
        .iter()
        .filter(|i| i.kind() == PeerKind::Transit)
        .map(|i| i.id)
        .collect();
    let run = |builder: ScenarioBuilder| run_arm(builder.build(), &dep, &flagged).take_metrics();
    let sunny_blind = run(billed(false));
    let sunny_aware = run(billed(true));
    let reproducible = fingerprint(&sunny_blind) == fingerprint(&run(billed(false)))
        && fingerprint(&sunny_aware) == fingerprint(&run(billed(true)));

    // 95/5 leaves the top bursts free: the flagged transit interface
    // whose peak rate most exceeds its billable rate.
    let (burst_egress, burst_peak, burst_billable) = flagged
        .iter()
        .map(|e| {
            let peak = sunny_blind.series[e]
                .iter()
                .map(|(_, load)| *load)
                .fold(0.0f64, f64::max);
            let bill = sunny_blind.billing.iter().find(|b| b.egress == e.0);
            (
                *e,
                peak,
                bill.expect("flagged interface is billed").billable_mbps,
            )
        })
        .max_by(|a, b| (a.1 - a.2).total_cmp(&(b.1 - b.2)))?;

    // De-peering: the largest PNI's session dies mid-month, for good.
    let (depeer_pop, depeer_iface) = dep
        .pops
        .iter()
        .flat_map(|p| p.interfaces.iter().map(move |i| (p, i)))
        .filter(|(_, i)| i.kind() == PeerKind::PrivatePeer)
        .max_by(|a, b| a.1.capacity_mbps.total_cmp(&b.1.capacity_mbps))?;
    let depeer_peer = dep
        .pops
        .iter()
        .flat_map(|p| p.peers.iter())
        .find(|c| c.egress == depeer_iface.id)?;
    let depeer = schedule([(
        (depeer_start, month - depeer_start),
        FaultKind::PeerFailure,
        FaultTarget::Peer {
            pop: depeer_pop.id.0 as usize,
            peer: depeer_peer.peer.0,
        },
    )])?;
    let depeer_blind = run(billed(false).chaos(depeer.clone()));
    let depeer_aware = run(billed(true).chaos(depeer));

    // The IXP squeeze: the busiest public port (sunny peak utilisation).
    let (ixp_pop, ixp_iface) = dep
        .pops
        .iter()
        .flat_map(|p| p.interfaces.iter().map(move |i| (p, i)))
        .filter(|(_, i)| i.kind() == PeerKind::PublicPeer)
        .max_by(|a, b| {
            let util = |e: EgressId| sunny_blind.interfaces[&e].peak_util;
            util(a.1.id).total_cmp(&util(b.1.id))
        })?;
    let ixp = schedule([(
        squeeze,
        FaultKind::LinkCapacityLoss { fraction: 0.6 },
        FaultTarget::Interface {
            pop: ixp_pop.id.0 as usize,
            egress: ixp_iface.id.0,
        },
    )])?;
    let ixp_blind = run(billed(false).chaos(ixp.clone()));
    let ixp_aware = run(billed(true).chaos(ixp));

    let arms = [
        BillingArm::new("sunny/blind", &sunny_blind),
        BillingArm::new("sunny/aware", &sunny_aware),
        BillingArm::new("depeer/blind", &depeer_blind),
        BillingArm::new("depeer/aware", &depeer_aware),
        BillingArm::new("ixp/blind", &ixp_blind),
        BillingArm::new("ixp/aware", &ixp_aware),
    ];
    let [sb, sa, db, da, ib, ia] = &arms;
    let savings = 1.0 - sa.transit_usd / sb.transit_usd;
    let premium_blind = db.transit_usd - sb.transit_usd;
    let premium_aware = da.transit_usd - sa.transit_usd;
    // Bounded: the drop rate stays within a tenth of a percent of sunny.
    let bounded =
        |fault: &BillingArm, sunny: &BillingArm| fault.drop_frac <= sunny.drop_frac + 1e-3;
    let pct = |a: &BillingArm| a.drop_frac * 100.0;
    Some(ItemResult {
        measured: format!(
            "cost-aware saves {:.1} % of sunny transit spend (${:.0} → ${:.0}) at drop rate \
             {:.4} % → {:.4} %; de-peering premium ${premium_blind:.0} blind vs \
             ${premium_aware:.0} aware, drop rate {:.4} % / {:.4} %; IXP squeeze: transit ${:.0} \
             blind vs ${:.0} aware, dropped {:.0} → {:.0} Mbps·epochs (blind) and {:.0} → {:.0} \
             (aware); transit if{} peaks at {burst_peak:.0} Mbps and bills {burst_billable:.0}; \
             sunny reruns {}",
            savings * 100.0,
            sb.transit_usd,
            sa.transit_usd,
            pct(sb),
            pct(sa),
            pct(db),
            pct(da),
            ib.transit_usd,
            ia.transit_usd,
            sb.dropped_mbps_epochs,
            ib.dropped_mbps_epochs,
            sa.dropped_mbps_epochs,
            ia.dropped_mbps_epochs,
            burst_egress.0,
            identical(reproducible),
        ),
        bounds: vec![
            ("rerun == run (sunny arms)", reproducible),
            ("savings >= 0.15", savings >= 0.15),
            (
                "dropped_aware <= dropped_blind + 1e-6",
                sa.dropped_mbps_epochs <= sb.dropped_mbps_epochs + 1e-6,
            ),
            ("burst_peak > burst_billable", burst_peak > burst_billable),
            (
                "depeer premium > 0 (blind and aware)",
                premium_blind > 0.0 && premium_aware > 0.0,
            ),
            (
                "depeer: transit_aware < transit_blind",
                da.transit_usd < db.transit_usd,
            ),
            (
                "depeer, ixp: drop_frac <= sunny + 1e-3",
                bounded(db, sb) && bounded(da, sa) && bounded(ib, sb) && bounded(ia, sa),
            ),
            (
                "ixp: transit_aware < transit_blind",
                ia.transit_usd < ib.transit_usd,
            ),
        ],
        series: CostBilling {
            seed: world.cfg.gen.seed,
            epoch_secs: epoch,
            month_secs: month,
            transit_ladder: LADDER.to_vec(),
            savings_frac: savings,
            depeer_pop: depeer_pop.id.0,
            depeer_egress: depeer_iface.id.0,
            depeer_premium_blind_usd: premium_blind,
            depeer_premium_aware_usd: premium_aware,
            ixp_pop: ixp_pop.id.0,
            ixp_egress: ixp_iface.id.0,
            burst_egress: burst_egress.0,
            burst_peak_mbps: burst_peak,
            burst_billable_mbps: burst_billable,
            arms: arms.into(),
        }
        .to_value(),
    })
}
