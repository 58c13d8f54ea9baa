//! The simulation engine: builds every PoP runtime from a scenario and
//! steps them through controller epochs, in parallel across PoPs.
//!
//! Every epoch is one fan-out over a shared job queue: one job per PoP,
//! plus one that fills the next epoch's demand multiplier table, so the
//! table for the current clock is always ready before a step starts and
//! the fill runs beside the PoPs rather than ahead of them.

use std::collections::VecDeque;
use std::sync::Mutex;

use ef_bgp::route::EgressId;
use ef_chaos::FaultKind;
use ef_net_types::Prefix;
use ef_perf::rtt::{PathPerfModel, PerfConfig};
use ef_topology::{generate, Deployment, PopId};
use ef_traffic::demand::{DemandModel, DemandPoint};

use ef_global::{GlobalController, PopReport};

use crate::chaos::FaultWindows;
use crate::metrics::MetricsStore;
use crate::runtime::PopRuntime;
use crate::scenario::SimConfig;

/// A full simulation run in progress.
pub struct SimEngine {
    /// The scenario being run.
    pub cfg: SimConfig,
    /// The generated deployment (shared, immutable).
    pub deployment: Deployment,
    demand: DemandModel,
    /// One runtime per PoP.
    pub pops: Vec<PopRuntime>,
    /// The latent path-performance model.
    pub perf_model: PathPerfModel,
    /// The global steering tier, when the scenario enables it.
    pub global: Option<GlobalController>,
    /// The health & SLO tier, when the scenario enables it. Strictly
    /// read-only: it samples end-of-epoch signals after the PoPs step and
    /// never feeds back into control decisions.
    health: Option<ef_health::HealthMonitor>,
    /// Chaos events targeting the global tier, and which were active last
    /// epoch (the per-PoP events live in each PoP's runtime). Interpreted
    /// here because only the engine sees the report path between the PoPs
    /// and the tier.
    global_faults: FaultWindows,
    /// Recent true reports per PoP (newest at the back, capped), the
    /// replay source for report-staleness faults.
    report_history: Vec<VecDeque<PopReport>>,
    /// The per-prefix demand multipliers at `t_secs`, shared by every PoP.
    /// Always current: construction fills it for t = 0, and each step
    /// fills `next_table` for the next epoch, then swaps the two.
    demand_table: Vec<f64>,
    /// Where a step fills the next epoch's multipliers.
    next_table: Vec<f64>,
    /// One offered-demand buffer per PoP, in PoP order, refilled each
    /// epoch.
    demands: Vec<(PopId, Vec<DemandPoint>)>,
    /// Most threads an epoch's fan-out runs on: the cores available at
    /// construction.
    workers: usize,
    t_secs: u64,
}

/// Report-staleness replay depth kept per PoP.
const REPORT_HISTORY_CAP: usize = 64;

/// Runs `f` over every job on at most `workers` threads, the caller and
/// `workers - 1` scoped threads, each pulling the next job from one shared
/// queue, and returns the results in job order whichever thread ran which
/// job. With one job or one worker the caller runs every job itself. A
/// panicking job panics the caller (with its own payload) once the other
/// workers have drained the queue.
fn fan_out<J, R, F>(workers: usize, jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let workers = workers.min(jobs.len());
    let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the `;`: no job runs under it.
            let next = queue.lock().expect("job queue poisoned").next();
            let Some((i, job)) = next else {
                return done;
            };
            done.push((i, f(job)));
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        // A panic here unwinds out of the scope, which joins the spawned
        // workers (they drain the queue) before passing the payload on.
        let mut done = work();
        for handle in handles {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job ran once"))
        .collect()
}

/// One job of an epoch's fan-out: step a PoP, or fill the next epoch's
/// demand multiplier table.
enum EpochJob<'a, P> {
    Pop(P),
    Fill(&'a mut Vec<f64>),
}

/// Runs `step` over every PoP job and, as one more job on the same queue,
/// fills `next_table` with the multipliers at `t_next`. Returns the PoP
/// results in job order.
fn step_and_fill<P, R>(
    workers: usize,
    pops: impl Iterator<Item = P>,
    demand: &DemandModel,
    next_table: &mut Vec<f64>,
    t_next: u64,
    step: impl Fn(P) -> R + Sync,
) -> Vec<R>
where
    P: Send,
    R: Send,
{
    let jobs: Vec<_> = pops
        .map(EpochJob::Pop)
        .chain(std::iter::once(EpochJob::Fill(next_table)))
        .collect();
    let results = fan_out(workers, jobs, |job| match job {
        EpochJob::Pop(pop) => Some(step(pop)),
        EpochJob::Fill(table) => {
            demand.multipliers_into(t_next, table);
            None
        }
    });
    results.into_iter().flatten().collect()
}

impl SimEngine {
    /// Builds the engine: generates the deployment, brings up every PoP's
    /// BGP sessions and announcements, and attaches controllers.
    pub(crate) fn new(cfg: SimConfig) -> Self {
        let deployment = generate(&cfg.gen);
        Self::with_deployment(cfg, deployment)
    }

    /// Builds the engine over an existing deployment (lets the two arms of
    /// a with/without comparison share the exact same world).
    pub(crate) fn with_deployment(cfg: SimConfig, deployment: Deployment) -> Self {
        if let Some(Err(e)) = cfg.chaos.as_ref().map(|s| s.check_epoch(cfg.epoch_secs)) {
            panic!("invalid chaos schedule: {e}");
        }
        let demand = DemandModel::new(&deployment, cfg.demand_seed);
        let pop_ids: Vec<PopId> = deployment.pops.iter().map(|p| p.id).collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        // PoP construction is independent; build in parallel.
        let pops: Vec<PopRuntime> = fan_out(workers, pop_ids, |pop_id| {
            PopRuntime::build(&deployment, pop_id, &cfg)
        });
        let perf_model = PathPerfModel::new(PerfConfig {
            seed: cfg.demand_seed ^ 0xE0E0,
            ..Default::default()
        });
        let global = cfg.global.clone().map(|g| {
            match GlobalController::new(&deployment, g, cfg.telemetry.clone()) {
                Ok(ctl) => ctl,
                Err(e) => panic!("invalid global config: {e}"),
            }
        });
        let global_faults = FaultWindows::new(cfg.chaos.as_ref(), None);
        let report_history = vec![VecDeque::new(); deployment.pops.len()];
        let demands = pops.iter().map(|pop| (pop.pop.id, Vec::new())).collect();
        let mut demand_table = Vec::new();
        demand.multipliers_into(0, &mut demand_table);
        let health = cfg
            .health
            .clone()
            .map(|h| ef_health::HealthMonitor::new(h, cfg.telemetry.clone()));
        // Route specs exist to seed the PoP runtimes (which intern them into
        // their own announcement tables); keeping them alive would hold the
        // largest per-prefix structure in the deployment for the whole run —
        // at 500k prefixes that's gigabytes of dead weight.
        let mut deployment = deployment;
        deployment.routes = Vec::new();
        SimEngine {
            cfg,
            deployment,
            demand,
            pops,
            perf_model,
            global,
            health,
            global_faults,
            report_history,
            demand_table,
            next_table: Vec::new(),
            demands,
            workers,
            t_secs: 0,
        }
    }

    /// Current simulated time, seconds.
    pub fn now_secs(&self) -> u64 {
        self.t_secs
    }

    /// Requests full load-series recording for an interface.
    pub fn flag_interface(&mut self, egress: EgressId) {
        for pop in &mut self.pops {
            if pop.pop.interfaces.iter().any(|i| i.id == egress) {
                pop.flag_interface(egress);
            }
        }
    }

    /// Advances one epoch across every PoP (parallel).
    pub fn step(&mut self) {
        let t = self.t_secs;
        let t_next = t + self.cfg.epoch_secs;
        // Demand multipliers do not depend on the PoP: one table serves
        // every PoP, one multiply per served prefix. The next epoch's table
        // fills as one more fan-out job while the PoPs step.
        let table = &self.demand_table;
        let next_table = &mut self.next_table;
        let demand_model = &self.demand;
        let deployment = &self.deployment;
        let perf_model = &self.perf_model;
        // Wall-clock only exists when health is on, and only ever flows
        // into the monitor's telemetry — never into control decisions.
        let epoch_start = self.health.as_ref().map(|_| std::time::Instant::now());

        if let Some(global) = self.global.as_mut() {
            // Global arm: compute every PoP's demand first, let the tier
            // shape (flash crowds) and place (steering) it, then step the
            // PoPs (parallel) and report back up.
            for (pop, demand) in self.demands.iter_mut() {
                demand_model.offered_into(deployment, *pop, table, demand);
            }
            global.shape_demand(t, &mut self.demands);
            global.place(t, &mut self.demands);
            let jobs = self.pops.iter_mut().zip(&self.demands);
            // True end-of-epoch reports, stamped with the epoch they
            // describe, in PoP-id order (a PoP's id is its index). Faults
            // below corrupt the *delivery*, never these.
            let reports = step_and_fill(
                self.workers,
                jobs,
                demand_model,
                next_table,
                t_next,
                |(pop, (_, demand))| pop.step(t, demand, perf_model),
            );
            for (history, report) in self.report_history.iter_mut().zip(&reports) {
                if history.len() >= REPORT_HISTORY_CAP {
                    history.pop_front();
                }
                history.push_back(*report);
            }
            // The tier's windows move to `t`; their edges are emitted at
            // the sentinel PoP.
            let telemetry = &self.cfg.telemetry;
            self.global_faults
                .advance(t, telemetry, ef_health::GLOBAL_POP);
            // What the tier actually receives this epoch. Passes are
            // kind-ordered (staleness replay, then lie, then partition) so
            // overlapping faults on one PoP compose deterministically —
            // and partition always wins.
            let mut delivered: Vec<Option<PopReport>> = reports.iter().map(|r| Some(*r)).collect();
            let active = || {
                let faults = self.global_faults.active();
                faults.map(|e| (e.kind, e.target.global_pop()))
            };
            for (kind, pop) in active() {
                if let (FaultKind::ReportStaleness { epochs }, Some(j)) = (kind, pop) {
                    let Some(history) = self.report_history.get(j) else {
                        continue;
                    };
                    let back = (epochs as usize).min(history.len().saturating_sub(1));
                    let idx = history.len() - 1 - back;
                    if let (Some(old), Some(slot)) = (history.get(idx), delivered.get_mut(j)) {
                        // Replayed verbatim, old stamp included: the tier's
                        // freshness guard sees the age, not a fresh lie.
                        *slot = Some(*old);
                    }
                }
            }
            for (kind, pop) in active() {
                if let (FaultKind::HeadroomLie { factor }, Some(j)) = (kind, pop) {
                    if let Some(Some(report)) = delivered.get_mut(j) {
                        report.headroom_mbps *= factor;
                    }
                }
            }
            let mut crashed = false;
            for (kind, pop) in active() {
                match (kind, pop) {
                    (FaultKind::ReportPartition, Some(j)) => {
                        if let Some(slot) = delivered.get_mut(j) {
                            *slot = None;
                        }
                    }
                    (FaultKind::GlobalControllerCrash, _) => crashed = true,
                    _ => {}
                }
            }
            if crashed {
                global.crash_epoch();
            } else {
                global.observe(&delivered);
            }
        } else {
            let jobs = self.pops.iter_mut().zip(self.demands.iter_mut());
            step_and_fill(
                self.workers,
                jobs,
                demand_model,
                next_table,
                t_next,
                |(pop, (_, demand))| {
                    demand_model.offered_into(deployment, pop.pop.id, table, demand);
                    pop.step(t, demand, perf_model);
                },
            );
        }
        std::mem::swap(&mut self.demand_table, &mut self.next_table);
        if let Some(monitor) = self.health.as_mut() {
            let wall_us = epoch_start.map(|s| s.elapsed().as_micros() as u64);
            // Sampling, rule evaluation and telemetry emission stay serial
            // in canonical PoP order for determinism.
            for pop in &self.pops {
                if let Some(signals) = pop.health_signals() {
                    monitor.observe_epoch(signals, wall_us);
                }
            }
            // The global tier reports under its sentinel PoP, after the
            // real PoPs so the stream order is deterministic.
            if let Some(global) = self.global.as_ref() {
                let snap = global.guard_snapshot();
                monitor.observe_global(&ef_health::GlobalSignals {
                    t_secs: t,
                    delivered_reports: snap.delivered_reports as u64,
                    expected_reports: snap.expected_reports as u64,
                    stale_pops: snap.stale_pops as u64,
                    max_report_age: snap.max_report_age,
                    fail_static: snap.fail_static,
                    flips: snap.flips,
                    suppressed_restores: snap.suppressed_restores,
                    moved_mbps: global.moved_last_mbps(),
                });
            }
        }
        self.t_secs = t_next;
    }

    /// Runs `n` epochs.
    pub fn run_epochs(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs the scenario to completion.
    pub fn run(&mut self) {
        let remaining = self
            .cfg
            .epochs()
            .saturating_sub(self.t_secs / self.cfg.epoch_secs);
        self.run_epochs(remaining);
    }

    /// Finishes episode tracking and merges every PoP's metrics into one
    /// store. Call once, after the run.
    pub fn take_metrics(&mut self) -> MetricsStore {
        let t = self.t_secs;
        let mut merged = MetricsStore::new();
        for pop in &mut self.pops {
            pop.finish(t);
            merged.merge(std::mem::take(&mut pop.metrics));
        }
        merged
    }

    /// The prefix for a universe index.
    pub fn prefix_of(&self, idx: u32) -> Prefix {
        self.deployment.universe.prefixes[idx as usize].prefix
    }

    /// The health monitor, when the scenario enables the tier.
    pub fn health_monitor(&self) -> Option<&ef_health::HealthMonitor> {
        self.health.as_ref()
    }

    /// Every BGP session still established? (sanity for long runs)
    pub fn all_sessions_up(&self) -> bool {
        self.pops.iter().all(|p| p.all_sessions_up())
    }

    /// Established peer sessions torn down across every PoP (fault
    /// shutdowns and bounces). Pure update-corruption runs must keep this
    /// at zero: the ROUTE-REFRESH path heals them without a reset.
    pub fn session_resets(&self) -> u64 {
        self.pops.iter().map(|p| p.session_resets()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::scenario;
    use ef_bgp::router::BgpRouter;

    /// Installed FIB entries: every FIB prefix holds a Loc-RIB candidate.
    fn fib_size(router: &BgpRouter) -> usize {
        router
            .iter_candidates()
            .filter(|(p, _)| router.fib_entry(p).is_some())
            .count()
    }

    /// Asserts that a faulted arm's router recovered the reference arm's
    /// routing state: per prefix the same Loc-RIB candidates, as a set (a
    /// replayed route rejoins its prefix's list at the end), and the same
    /// `bmp_snapshot`, every Adj-RIB-In route with its attributes.
    fn assert_same_routing(faulted: &BgpRouter, reference: &BgpRouter) {
        let candidates = |router: &BgpRouter| {
            let mut all: Vec<(Prefix, Vec<ef_bgp::RouteRec>)> = (router.iter_candidates())
                .map(|(prefix, recs)| {
                    let mut recs = recs.to_vec();
                    recs.sort_by_key(|r| r.source.peer);
                    (*prefix, recs)
                })
                .collect();
            all.sort_by_key(|(prefix, _)| *prefix);
            all
        };
        assert_eq!(candidates(faulted), candidates(reference));
        assert_eq!(faulted.bmp_snapshot(0), reference.bmp_snapshot(0));
    }

    fn small_engine(enabled: bool) -> SimEngine {
        scenario()
            .small_topology(5)
            .controller_enabled(enabled)
            .duration_secs(10 * 60)
            .epoch_secs(60)
            .engine()
    }

    #[test]
    fn engine_builds_and_sessions_establish() {
        let engine = small_engine(true);
        assert_eq!(engine.pops.len(), 4);
        assert!(engine.all_sessions_up());
        // Every PoP's router learned routes.
        for pop in &engine.pops {
            assert!(fib_size(&pop.router) > 0, "{} has routes", pop.pop.name);
        }
    }

    #[test]
    fn epochs_advance_time_and_record_metrics() {
        let mut engine = small_engine(true);
        engine.run_epochs(3);
        assert_eq!(engine.now_secs(), 180);
        let metrics = engine.take_metrics();
        // 4 pops × 3 epochs of records.
        assert_eq!(metrics.pop_epochs.len(), 12);
        for stats in metrics.interfaces.values() {
            assert_eq!(stats.epochs_total, 3);
        }
    }

    #[test]
    fn baseline_arm_records_but_never_overrides() {
        let mut engine = small_engine(false);
        engine.run_epochs(3);
        let metrics = engine.take_metrics();
        assert!(metrics.pop_epochs.iter().all(|r| r.overrides_active == 0));
        assert!(metrics.episodes.is_empty());
    }

    #[test]
    fn flagged_interface_records_series() {
        let mut engine = small_engine(true);
        let iface = engine.deployment.pops[0].interfaces[0].id;
        engine.flag_interface(iface);
        engine.run_epochs(2);
        let metrics = engine.take_metrics();
        assert_eq!(metrics.series[&iface].len(), 2);
    }

    #[test]
    fn run_respects_duration() {
        let mut engine = small_engine(true);
        engine.run();
        assert_eq!(engine.now_secs(), 600);
    }

    fn global_fault_engine(events: Vec<ef_chaos::FaultEvent>) -> SimEngine {
        scenario()
            .small_topology(7)
            .duration_secs(10 * 60)
            .epoch_secs(60)
            .global(ef_global::GlobalConfig::default())
            .chaos(ef_chaos::FaultSchedule::new(events).expect("valid schedule"))
            .engine()
    }

    fn guard_snapshot(engine: &SimEngine) -> ef_global::GuardSnapshot {
        engine
            .global
            .as_ref()
            .expect("global tier enabled")
            .guard_snapshot()
    }

    #[test]
    fn report_partition_below_quorum_goes_fail_static() {
        // 3 of 4 PoPs partitioned: delivered = 1 < quorum(0.5) × 4.
        let events = (0..3)
            .map(|j| ef_chaos::FaultEvent {
                t_start_secs: 120,
                duration_secs: 240,
                target: ef_chaos::FaultTarget::Global { pop: Some(j) },
                kind: ef_chaos::FaultKind::ReportPartition,
            })
            .collect();
        let mut engine = global_fault_engine(events);
        engine.run_epochs(2);
        assert!(!guard_snapshot(&engine).fail_static);
        engine.step(); // t=120: first faulted epoch — guard engages at once.
        let snap = guard_snapshot(&engine);
        assert!(snap.fail_static);
        assert_eq!(snap.delivered_reports, 1);
        assert_eq!(snap.expected_reports, 4);
        engine.run_epochs(4); // through fault end (t=360 is clean again)
        assert!(!guard_snapshot(&engine).fail_static);
    }

    #[test]
    fn report_staleness_ages_one_pop_and_flags_it() {
        let events = vec![ef_chaos::FaultEvent {
            t_start_secs: 240,
            duration_secs: 180,
            target: ef_chaos::FaultTarget::Global { pop: Some(0) },
            kind: ef_chaos::FaultKind::ReportStaleness { epochs: 3 },
        }];
        let mut engine = global_fault_engine(events);
        engine.run_epochs(4); // clean history to replay from
        assert_eq!(guard_snapshot(&engine).max_report_age, 0);
        // The controller keeps its freshest-ever stamp, so the replayed
        // stream's age ramps by one per epoch until it plateaus at the
        // replay delay.
        engine.step(); // t=240: held stamp is now 1 epoch behind
        let snap = guard_snapshot(&engine);
        assert_eq!(snap.max_report_age, 1);
        assert_eq!(snap.stale_pops, 1);
        assert!(!snap.fail_static, "staleness alone keeps quorum");
        engine.run_epochs(2); // t=300, 360: age plateaus at the delay
        let snap = guard_snapshot(&engine);
        assert_eq!(snap.max_report_age, 3);
        assert_eq!(snap.stale_pops, 1);
    }

    #[test]
    fn controller_crash_freezes_epochs_then_recovers() {
        let events = vec![ef_chaos::FaultEvent {
            t_start_secs: 120,
            duration_secs: 120,
            target: ef_chaos::FaultTarget::Global { pop: None },
            kind: ef_chaos::FaultKind::GlobalControllerCrash,
        }];
        let mut engine = global_fault_engine(events);
        engine.run_epochs(2);
        assert_eq!(guard_snapshot(&engine).frozen_epochs, 0);
        engine.run_epochs(2); // t=120, 180 crashed
        let snap = guard_snapshot(&engine);
        assert!(snap.fail_static);
        assert_eq!(snap.frozen_epochs, 2);
        engine.step(); // t=240: tier is back
        let snap = guard_snapshot(&engine);
        assert!(!snap.fail_static);
        assert_eq!(snap.frozen_epochs, 2, "counter is cumulative");
    }

    #[test]
    fn headroom_lie_is_clamped_by_plausibility() {
        // Two runs differing only in how big the lie is: the plausibility
        // clamp pins both to the same (baseline-bounded) budget.
        let lie = |factor: f64| {
            vec![ef_chaos::FaultEvent {
                t_start_secs: 0,
                duration_secs: 10 * 60,
                target: ef_chaos::FaultTarget::Global { pop: Some(0) },
                kind: ef_chaos::FaultKind::HeadroomLie { factor },
            }]
        };
        let mut a = global_fault_engine(lie(1e3));
        let mut b = global_fault_engine(lie(1e6));
        a.run_epochs(4);
        b.run_epochs(4);
        let budget_a = a.global.as_ref().expect("global").detour_budgets()[0];
        let budget_b = b.global.as_ref().expect("global").detour_budgets()[0];
        assert!(budget_a.is_finite() && budget_a > 0.0);
        assert_eq!(budget_a, budget_b, "clamp, not the lie, sets the budget");
    }

    #[test]
    fn shared_deployment_gives_identical_worlds() {
        let cfg = scenario().small_topology(9).build();
        let dep = generate(&cfg.gen);
        let a = crate::scenario::ScenarioBuilder::from_config(cfg.clone()).engine_with(dep.clone());
        let b = crate::scenario::ScenarioBuilder::from_config(cfg)
            .baseline()
            .engine_with(dep);
        assert_eq!(a.deployment, b.deployment);
    }

    /// Builds a half-hour engine with one fault window on PoP 0, plus the
    /// fault-free reference over the same deployment.
    fn faulted_pair(
        kind: ef_chaos::FaultKind,
        target: ef_chaos::FaultTarget,
    ) -> (SimEngine, SimEngine) {
        let base = scenario()
            .small_topology(5)
            .duration_secs(30 * 60)
            .epoch_secs(60);
        let dep = generate(&base.clone().build().gen);
        let schedule = ef_chaos::FaultSchedule::new(vec![ef_chaos::FaultEvent {
            t_start_secs: 300,
            duration_secs: 300,
            target,
            kind,
        }])
        .expect("valid schedule");
        let faulted = base.clone().chaos(schedule).engine_with(dep.clone());
        let reference = base.engine_with(dep);
        (faulted, reference)
    }

    /// Runs a fault window on PoP 0's first peer beside the fault-free
    /// reference arm. Mid-window the peer's session is down exactly when
    /// `held_down`; by the end every session is back and the faulted arm's
    /// routing state is the reference arm's. Returns the faulted arm.
    fn peer_fault_recovers(kind: ef_chaos::FaultKind, held_down: bool) -> SimEngine {
        let peer = generate(&scenario().small_topology(5).build().gen).pops[0].peers[0].peer;
        let target = ef_chaos::FaultTarget::Peer {
            pop: 0,
            peer: peer.0,
        };
        let (mut faulted, mut reference) = faulted_pair(kind, target);
        faulted.run_epochs(8); // t=480, mid-window
        assert_eq!(faulted.all_sessions_up(), !held_down, "mid-window");
        faulted.run();
        reference.run();
        assert!(faulted.all_sessions_up(), "governed recovery");
        for (f, r) in faulted.pops.iter().zip(&reference.pops) {
            assert_eq!(fib_size(&f.router), fib_size(&r.router));
            assert_same_routing(&f.router, &r.router);
        }
        faulted
    }

    /// RFC 7606: corruption downgrades to treat-as-withdraw, the session
    /// itself never resets, and after the window a governed ROUTE-REFRESH
    /// answer, the peer's table replayed, restores the routing state.
    #[test]
    fn update_corruption_never_resets_the_session_and_recovers() {
        let faulted =
            peer_fault_recovers(ef_chaos::FaultKind::UpdateCorruption { rate: 0.9 }, false);
        assert_eq!(
            faulted.session_resets(),
            0,
            "refresh recovery must not bounce any session"
        );
    }

    /// Flap damping holds the storming session down (it does not bounce
    /// back between ticks); after the window the governor's backoff and
    /// damping penalty decay and the session returns.
    #[test]
    fn session_flap_storm_holds_the_session_down_then_recovers_governed() {
        peer_fault_recovers(ef_chaos::FaultKind::SessionFlapStorm { period_s: 5 }, true);
    }

    /// A failed peer's session stays down through the window, then is
    /// revived with its table.
    #[test]
    fn failed_peer_is_revived_with_its_table() {
        peer_fault_recovers(ef_chaos::FaultKind::PeerFailure, true);
    }

    #[test]
    fn injector_partial_loss_is_retried_to_convergence() {
        let (mut faulted, mut reference) = faulted_pair(
            ef_chaos::FaultKind::InjectorPartialLoss { fraction: 0.7 },
            ef_chaos::FaultTarget::Pop { pop: 0 },
        );
        faulted.run();
        reference.run();
        assert!(faulted.all_sessions_up());
        // Dropped injections are a retryable outcome: the next epoch's diff
        // re-attempts them, so once the window clears the override state
        // converges back to the reference arm's.
        let ledger = faulted.pops[0]
            .controller
            .as_ref()
            .expect("controller enabled")
            .injection_ledger();
        let f_over = faulted.pops[0]
            .controller
            .as_ref()
            .expect("controller enabled")
            .active_overrides()
            .iter_sorted()
            .len();
        let r_over = reference.pops[0]
            .controller
            .as_ref()
            .expect("controller enabled")
            .active_overrides()
            .iter_sorted()
            .len();
        assert_eq!(f_over, r_over, "override state reconverged");
        // The gate actually fired if the run placed any overrides at all.
        if ledger.announces_sent + ledger.announces_dropped > 4 {
            assert!(
                ledger.dropped_total() > 0,
                "a 0.7 loss gate over {} sends never dropped",
                ledger.announces_sent
            );
        }
    }

    #[test]
    fn nested_same_kind_windows_hold_until_the_last_one_closes() {
        use ef_chaos::{FaultEvent, FaultKind, FaultSchedule, FaultTarget};
        // 10 s epochs: three governor charges at one tick suppress a
        // session for ~30 s, which outlasts a 20 s window only then.
        let base = scenario()
            .small_topology(5)
            .duration_secs(60 * 60)
            .epoch_secs(10);
        let dep = generate(&base.clone().build().gen);
        let (egress, nominal) = {
            let iface = &dep.pops[0].interfaces[0];
            (iface.id, iface.capacity_mbps)
        };
        let window = |start: u64, end: u64, kind, target| FaultEvent {
            t_start_secs: start,
            duration_secs: end - start,
            target,
            kind,
        };
        let pop = FaultTarget::Pop { pop: 0 };
        let iface = FaultTarget::Interface {
            pop: 0,
            egress: egress.0,
        };
        let peer = FaultTarget::Peer {
            pop: 0,
            peer: dep.pops[0].peers[0].peer.0,
        };
        let loss = FaultKind::InjectorPartialLoss { fraction: 1.0 };
        let cut = |fraction| FaultKind::LinkCapacityLoss { fraction };
        // Each pair nests: the inner window closes first, the outer one
        // last. A flash crowd keeps overrides wanted while every
        // injection send is lost, and for a while after.
        let outer = vec![
            window(0, 1380, FaultKind::FlashCrowd { multiplier: 3.0 }, pop),
            window(60, 1260, loss, pop),
            window(120, 600, loss, pop),
            window(1380, 1400, FaultKind::InjectorLoss, pop),
            window(1420, 1440, FaultKind::PeerFailure, peer),
            window(1500, 2100, FaultKind::ControllerCrash, pop),
            window(1560, 1800, FaultKind::ControllerCrash, pop),
            window(2400, 3000, cut(0.5), iface),
            window(2460, 2700, cut(0.8), iface),
        ];
        // Two more injector-loss and peer-failure windows inside the outer
        // ones: the governors are charged once per teardown, not per
        // window, so the session returns when the run with the outer
        // window alone gets it back.
        let mut nested = outer.clone();
        for _ in 0..2 {
            nested.push(window(1380, 1390, FaultKind::InjectorLoss, pop));
            nested.push(window(1420, 1430, FaultKind::PeerFailure, peer));
        }
        let engine_of = |events| {
            let schedule = FaultSchedule::new(events).expect("valid schedule");
            base.clone().chaos(schedule).engine_with(dep.clone())
        };
        let (mut engine, mut single) = (engine_of(nested), engine_of(outer));
        let ledger = |engine: &SimEngine| {
            let ctl = engine.pops[0].controller.as_ref();
            ctl.map(|c| c.injection_ledger().clone())
                .unwrap_or_default()
        };
        let injector_up = |engine: &SimEngine| {
            let ctl = engine.pops[0].controller.as_ref();
            ctl.is_some_and(|c| c.injector_up())
        };
        let mut sent_at_loss = None;
        while engine.now_secs() < 3300 {
            let t = engine.now_secs();
            engine.step();
            let sent = ledger(&engine).announces_sent;
            if (60..1260).contains(&t) {
                let first = *sent_at_loss.get_or_insert(sent);
                assert_eq!(sent, first, "t={t}: an injection got through the loss");
            }
            if t == 1320 {
                let ledger = ledger(&engine);
                assert!(ledger.announces_dropped > 0, "the loss gate fired");
                assert!(sent > sent_at_loss.unwrap_or(0), "retries land after it");
            }
            if t < 1460 {
                single.step();
                assert_eq!(injector_up(&engine), injector_up(&single), "t={t}");
                let sessions = (engine.all_sessions_up(), single.all_sessions_up());
                assert_eq!(sessions.0, sessions.1, "t={t}: peer sessions");
            }
            assert_eq!(
                injector_up(&engine),
                !(1380..1400).contains(&t) && !(1500..2100).contains(&t),
                "t={t}: injector"
            );
            assert_eq!(
                engine.all_sessions_up(),
                !(1420..1440).contains(&t),
                "t={t}: peer"
            );
            let down = engine.pops[0].controller.is_none();
            assert_eq!(down, (1500..2100).contains(&t), "t={t}: controller down");
            let keep = match t {
                2460..2700 => 1.0 - 0.8,
                2400..3000 => 1.0 - 0.5,
                _ => 1.0,
            };
            let capacity = engine.pops[0].pop.interfaces[0].capacity_mbps;
            assert!(
                (capacity - nominal * keep).abs() < 1e-9,
                "t={t}: {capacity}"
            );
        }
    }

    #[test]
    fn restarts_and_reattaches_take_the_open_fault_levels() {
        // The three overlaps of the committed schedule, all at PoP 0 (CI
        // also drives the file through `efctl chaos`).
        let schedule = ef_chaos::FaultSchedule::from_json(include_str!(
            "../../../tests/chaos/overlapping_faults.json"
        ))
        .expect("valid schedule");
        let mut engine = scenario()
            .small_topology(5)
            .duration_secs(30 * 60)
            .epoch_secs(60)
            .chaos(schedule)
            .engine();
        while engine.now_secs() < 30 * 60 {
            let t = engine.now_secs();
            engine.step();
            let crashed = (240..480).contains(&t) || (840..1020).contains(&t);
            let ctl = engine.pops[0].controller.as_ref();
            assert_eq!(ctl.is_none(), crashed, "t={t}: controller down");
            let Some(ctl) = ctl else { continue };
            // Restarted at t=480 and reattached at t=1620 inside open
            // partial-loss windows: both run at the window's loss.
            let loss = match t {
                300..720 => 0.5,
                1440..1740 => 0.7,
                _ => 0.0,
            };
            assert_eq!(ctl.injection_loss(), loss, "t={t}: injection loss");
            // Restarted at t=1020 inside an open injector-loss window: its
            // injector stays down until the window closes, and the
            // governor lets it back at the next tick.
            let injector_down = (900..1200).contains(&t) || (1320..1620).contains(&t);
            assert_eq!(ctl.injector_up(), !injector_down, "t={t}: injector");
        }
    }

    #[test]
    #[should_panic(expected = "controller_crash at t=610s lasts 40s, shorter than the 60s epoch")]
    fn a_window_shorter_than_the_epoch_is_rejected() {
        let schedule = ef_chaos::FaultSchedule::new(vec![ef_chaos::FaultEvent {
            t_start_secs: 610,
            duration_secs: 40,
            target: ef_chaos::FaultTarget::Pop { pop: 0 },
            kind: FaultKind::ControllerCrash,
        }])
        .expect("valid schedule");
        // Between the ticks at 600 and 660, so no tick would ever see it.
        scenario()
            .small_topology(7)
            .duration_secs(30 * 60)
            .epoch_secs(60)
            .chaos(schedule)
            .engine();
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        use std::sync::Barrier;
        for workers in [1, 2, 7] {
            for jobs in [0usize, 1, 20] {
                // Jobs 0 and 1 meet at one barrier and jobs 2 and 3 at
                // another, so each pair runs on two workers at once: no
                // worker's results are a run of consecutive jobs.
                let held = workers > 1 && jobs >= 4;
                let meet = [Barrier::new(2), Barrier::new(2)];
                let out = fan_out(workers, (0..jobs).collect(), |j| {
                    if held && j < 4 {
                        meet[j / 2].wait();
                    }
                    j * 10
                });
                let expect: Vec<usize> = (0..jobs).map(|j| j * 10).collect();
                assert_eq!(out, expect, "{workers} workers, {jobs} jobs");
            }
        }
    }

    #[test]
    fn fan_out_runs_every_job_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1, 2, 7] {
            for jobs in [0usize, 1, 20] {
                let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                fan_out(workers, runs.iter().collect(), |count| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
                for (j, count) in runs.iter().enumerate() {
                    assert_eq!(count.load(Ordering::Relaxed), 1, "job {j} of {jobs}");
                }
            }
        }
    }

    #[test]
    fn fan_out_panicking_job_panics_the_caller() {
        for workers in [1, 2, 7] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(workers, (0..20).collect(), |j: usize| {
                    if j == 13 {
                        panic!("job 13 failed");
                    }
                    j
                })
            });
            let payload = caught.expect_err("the caller panics, no result comes back");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 13 failed"));
        }
    }

    #[test]
    fn fan_out_panic_in_the_callers_own_job_panics_the_caller() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        for workers in [2, 7] {
            let caller = std::thread::current().id();
            let caller_failed = AtomicBool::new(false);
            let ran = AtomicUsize::new(0);
            // Bounds the wait below, so a fan-out that never runs a job on
            // the caller fails this test instead of hanging it.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let caught = std::panic::catch_unwind(|| {
                fan_out(workers, (0..20).collect(), |j: usize| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if std::thread::current().id() == caller {
                        caller_failed.store(true, Ordering::SeqCst);
                        panic!("caller's job failed");
                    }
                    // Spawned workers hold their first job until the
                    // caller has failed, so the caller always runs one.
                    while !caller_failed.load(Ordering::SeqCst)
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    j
                })
            });
            let payload = caught.expect_err("the caller panics, no result comes back");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller's job failed"));
            assert_eq!(
                ran.load(Ordering::SeqCst),
                20,
                "{workers} workers: the spawned workers drained the queue"
            );
        }
    }

    #[test]
    fn worker_count_never_changes_a_run() {
        // Seven PoPs, both tiers, billing, and faults at PoPs and at the
        // global tier: every piece of state the fan-out hands a worker.
        let pop_fault = |pop, kind| ef_chaos::FaultEvent {
            t_start_secs: 180,
            duration_secs: 240,
            target: ef_chaos::FaultTarget::Pop { pop },
            kind,
        };
        let global_fault = |pop, t_start_secs, kind| ef_chaos::FaultEvent {
            t_start_secs,
            duration_secs: 180,
            target: ef_chaos::FaultTarget::Global { pop },
            kind,
        };
        let schedule = ef_chaos::FaultSchedule::new(vec![
            pop_fault(1, ef_chaos::FaultKind::BmpStall),
            pop_fault(3, ef_chaos::FaultKind::FlashCrowd { multiplier: 3.0 }),
            pop_fault(5, ef_chaos::FaultKind::ControllerCrash),
            pop_fault(6, ef_chaos::FaultKind::SflowLoss { drop_fraction: 0.5 }),
            global_fault(
                Some(0),
                300,
                ef_chaos::FaultKind::ReportStaleness { epochs: 2 },
            ),
            global_fault(
                Some(2),
                300,
                ef_chaos::FaultKind::HeadroomLie { factor: 20.0 },
            ),
            global_fault(Some(4), 420, ef_chaos::FaultKind::ReportPartition),
            global_fault(None, 660, ef_chaos::FaultKind::GlobalControllerCrash),
        ])
        .expect("valid schedule");
        let global = ef_global::GlobalConfig {
            backend: Some(ef_global::BackendKind::Dns { ttl_epochs: 2 }),
            step: 0.1,
            ..Default::default()
        }
        .with_flash_crowd(ef_global::FlashCrowdSpec {
            population: "NA".into(),
            t_start_secs: 240,
            duration_secs: 480,
            multiplier: 4.0,
        });
        let cfg = scenario()
            .topology(ef_topology::GenConfig {
                seed: 5,
                n_pops: 7,
                n_ases: 40,
                n_prefixes: 300,
                total_avg_gbps: 700.0,
                ..ef_topology::GenConfig::default()
            })
            .duration_secs(15 * 60)
            .epoch_secs(60)
            .global(global)
            .health(ef_health::HealthConfig::default())
            .chaos(schedule)
            .build();
        let one = run_at(&cfg, 1);
        assert_eq!(one.3, 7 * 15, "every PoP stepped every epoch");
        assert!(
            one.1.iter().flatten().any(|g| g.fail_static),
            "the tier crash engaged"
        );
        for workers in [2, 7] {
            let other = run_at(&cfg, workers);
            assert!(one.0 == other.0, "{workers} workers changed the records");
            assert_eq!(one.1, other.1, "{workers} workers changed the guards");
            assert_eq!(one.2, other.2, "{workers} workers changed the alerts");
        }

        // One PoP with a flash crowd and health: the next epoch's demand
        // fill is the only other job, so at 2 workers it runs beside the
        // PoP's step.
        let cfg = scenario()
            .topology(ef_topology::GenConfig {
                seed: 5,
                n_pops: 1,
                n_ases: 40,
                n_prefixes: 300,
                total_avg_gbps: 100.0,
                ..ef_topology::GenConfig::default()
            })
            .duration_secs(15 * 60)
            .epoch_secs(60)
            .health(ef_health::HealthConfig::default())
            .chaos(
                ef_chaos::FaultSchedule::new(vec![pop_fault(
                    0,
                    ef_chaos::FaultKind::FlashCrowd { multiplier: 3.0 },
                )])
                .expect("valid schedule"),
            )
            .build();
        let one = run_at(&cfg, 1);
        assert_eq!(one.3, 15, "the PoP stepped every epoch");
        let two = run_at(&cfg, 2);
        assert!(one.0 == two.0, "2 workers changed the 1-PoP records");
        assert_eq!(one.2, two.2, "2 workers changed the 1-PoP alerts");
    }

    /// Runs `cfg` to its end on `workers` workers. Returns the recorded
    /// PoP epochs, episodes and billing as JSON, the global tier's guard
    /// snapshot after every epoch (when the tier is on), the alerts, and
    /// the number of PoP-epoch records.
    fn run_at(
        cfg: &SimConfig,
        workers: usize,
    ) -> (
        String,
        Vec<Option<ef_global::GuardSnapshot>>,
        Vec<ef_health::Alert>,
        usize,
    ) {
        let mut engine = crate::scenario::ScenarioBuilder::from_config(cfg.clone()).engine();
        engine.workers = workers;
        let mut guards = Vec::new();
        while engine.now_secs() < cfg.duration_secs {
            engine.step();
            guards.push(engine.global.as_ref().map(|g| g.guard_snapshot()));
        }
        let alerts = engine.health_monitor().expect("health on").all_alerts();
        let metrics = engine.take_metrics();
        let recorded =
            serde_json::to_string(&(&metrics.pop_epochs, &metrics.episodes, &metrics.billing))
                .expect("metrics serialize");
        (recorded, guards, alerts, metrics.pop_epochs.len())
    }

    #[test]
    fn demand_table_tracks_the_clock() {
        // Both arms, and steps past the scenario's end: the table always
        // holds the multipliers for the engine's clock.
        for global in [false, true] {
            let mut builder = scenario()
                .small_topology(5)
                .duration_secs(3 * 60)
                .epoch_secs(60);
            if global {
                builder = builder.global(ef_global::GlobalConfig::default());
            }
            let mut engine = builder.engine();
            let mut fresh = Vec::new();
            for _ in 0..6 {
                engine
                    .demand
                    .multipliers_into(engine.now_secs(), &mut fresh);
                let bits = |table: &[f64]| table.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&engine.demand_table),
                    bits(&fresh),
                    "global {global}, t = {}",
                    engine.now_secs()
                );
                engine.run_epochs(1);
            }
            assert!(engine.now_secs() > engine.cfg.duration_secs);
        }
    }
}
