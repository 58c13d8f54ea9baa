//! Per-PoP runtime: the live substrate for one point of presence.
//!
//! Besides the sunny-day loop (forward demand, measure, run a controller
//! epoch), the runtime interprets the scenario's
//! [`FaultSchedule`](ef_chaos::FaultSchedule): each tick it diffs the set
//! of active fault windows and applies start/end transitions to the live
//! substrate — tearing BGP sessions, degrading
//! interface capacity, stalling the BMP feed, starving the sampler,
//! crashing the controller, dropping the injector session, corrupting
//! UPDATE frames on the wire, storming sessions with flaps, dropping a
//! fraction of injected routes, or inflating demand. The controller
//! itself is never told a fault is active; it only sees the degraded
//! inputs (that is the point — the graceful-degradation guards in
//! `edge-fabric` must react to input staleness, not to an out-of-band
//! oracle).
//!
//! Recovery is *governed*, not instant: every session re-establishment
//! (peer or injector) waits out a seeded exponential-backoff +
//! flap-damping gate ([`ReconnectGovernor`]), so a storm that ends still
//! pays a cool-down before the session returns.

use std::collections::{BTreeSet, HashMap};

use edge_fabric::{
    adapt_comparisons, build_perf_overrides, ControllerConfig, EpochError, EpochInputs,
    EpochReport, InterfaceInfo, InterfaceMap, PopController, TrafficTable, MIN_SAMPLES,
};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::peer::PeerId;
use ef_bgp::route::EgressId;
use ef_bgp::router::{BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::wire::encode_message;
use ef_bgp::{BmpMessage, ReconnectGovernor, SessionStats};
use ef_chaos::{FaultEvent, FaultKind, FaultTarget};
use ef_net_types::{Asn, Prefix};
use ef_perf::rtt::PathPerfModel;
use ef_perf::{AltPathMeasurer, CandidatePath};
use ef_topology::{BillingMeter, Deployment, Pop, PopId};
use ef_traffic::demand::DemandPoint;
use ef_traffic::sampler::{SamplerConfig, SflowSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fibcache::FibCache;
use crate::metrics::{MetricsStore, PopEpochRecord};
use crate::scenario::SimConfig;
use crate::traffic_order::TrafficOrder;

/// Cap on prefixes measured per epoch (heaviest first), bounding
/// measurement work like production's heavy-hitter focus.
const MEASURE_TOP_K: usize = 150;

/// Routes announced between two hand-offs of the router's BMP backlog to
/// the collector during the initial table load (small in unit tests, so
/// their few-hundred-prefix worlds stream in many batches).
const BMP_BATCH: usize = if cfg!(test) { 64 } else { 4096 };

/// An sFlow loss spike at or above this drop fraction starves the
/// estimator outright: the controller keeps its last estimate and its
/// traffic-input age starts growing. Below it, the collector still gets
/// (under-counted) fresh estimates.
const SEVERE_SFLOW_DROP: f64 = 0.9;

/// Per-tick signals derived from the active fault windows.
#[derive(Debug, Default)]
struct TickFaults {
    /// Labels of currently active faults (for the epoch record).
    labels: Vec<String>,
    /// Flash-crowd demand inflation (multiplicative across windows).
    demand_multiplier: f64,
    /// Worst active sFlow drop fraction.
    sflow_drop: f64,
    /// BMP feed stalled this tick.
    bmp_stalled: bool,
    /// Peers with an active `UpdateCorruption` window, with the rate.
    corrupt: Vec<(PeerId, f64)>,
    /// Peers with an active `SessionFlapStorm` window, with the period.
    flap: Vec<(PeerId, u64)>,
    /// Peers whose session fault is still active — held down, the
    /// governed reconnect pass must not revive them mid-window.
    held_down: BTreeSet<PeerId>,
    /// An `InjectorLoss` window is active: the governed injector
    /// reattach pass must wait the window out.
    injector_fault_active: bool,
}

/// Signals one epoch hands to the global (cross-PoP) layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// The controller reported overload it could not relieve (or, in the
    /// baseline arm, traffic was dropped).
    pub residual_overloaded: bool,
    /// Traffic dropped at this PoP this epoch, Mbps.
    pub dropped_mbps: f64,
    /// Total demand offered to this PoP this epoch, Mbps.
    pub offered_mbps: f64,
    /// Spare egress capacity under the utilization limit, summed across
    /// interfaces, Mbps. The global tier budgets detours against this.
    pub headroom_mbps: f64,
}

/// One PoP's live state: router, peer sessions, optional controller,
/// optional measurement, and this PoP's metrics.
pub struct PopRuntime {
    /// Topology facts for this PoP.
    pub pop: Pop,
    /// The consolidated routing view (see DESIGN.md on PR consolidation).
    pub router: BgpRouter,
    stubs: HashMap<PeerId, PeerStub>,
    /// The Edge Fabric controller, when the scenario enables it.
    pub controller: Option<PopController>,
    sampler: Option<SflowSampler>,
    /// Alternate-path measurement, when the scenario enables it.
    pub measurer: Option<AltPathMeasurer>,
    /// Metrics collected at this PoP.
    pub metrics: MetricsStore,
    /// Prefix index → prefix for the whole universe.
    prefix_of: Vec<Prefix>,
    epoch_secs: u64,
    util_limit: f64,
    /// Per-unit FIB lookup cache the forwarding loop reads. When the
    /// controller may split prefixes its units are half-prefixes, so /25
    /// (or /49) overrides take effect.
    fib_cache: FibCache,
    /// Per-interface load accumulator, zeroed each tick; loads on egresses
    /// that are not PoP interfaces are not tracked (nothing reads them).
    load_scratch: Vec<f64>,
    perf_steer: bool,
    /// The 95/5 billing meter, when `SimConfig::billing` is on. Strictly
    /// observational: fed carried (post-drop) load each tick, read only at
    /// [`finish`](Self::finish).
    billing: Option<BillingMeter>,
    /// Billing percentile from the scenario's cost model (the "95").
    billing_percentile: f64,

    // --- Fault-injection state ---------------------------------------
    /// This PoP's slice of the scenario fault schedule.
    chaos_events: Vec<FaultEvent>,
    /// Indices into `chaos_events` whose windows were active last tick.
    active_faults: BTreeSet<usize>,
    /// Nominal interface capacities, for restoring after capacity faults.
    base_capacity: HashMap<EgressId, f64>,
    /// Each peer's original announcements (attributes interned in
    /// [`ann_store`](Self::ann_store)), replayed when a failed peer's
    /// session is re-established.
    announcements: HashMap<PeerId, Vec<(Prefix, ef_bgp::attrstore::AttrId)>>,
    /// Interned attribute pool for the replay table, one copy per distinct
    /// pre-policy set (about one per three routes in the generated worlds:
    /// 114 978 sets for 381 342 routes on the `fulltable` benchmark), so
    /// the replay state per route is a prefix and a handle.
    ann_store: ef_bgp::attrstore::AttrStore,
    /// Controller construction facts, for rebuilding after a crash.
    controller_enabled: bool,
    controller_cfg: ControllerConfig,
    local_asn: Asn,
    /// Per-peer reconnect governors: exponential backoff + flap damping
    /// gate every session re-establishment (no instant reconnects).
    peer_governors: HashMap<PeerId, ReconnectGovernor>,
    /// Peers whose session is down and awaiting a governed reconnect.
    peers_wanting_up: BTreeSet<PeerId>,
    /// Per-peer refresh governors: the same backoff/damping policy applied
    /// to ROUTE-REFRESH requests, so a corruption storm cannot become a
    /// refresh storm.
    refresh_governors: HashMap<PeerId, ReconnectGovernor>,
    /// Peers whose Adj-RIB-In took treat-as-withdraw damage and await a
    /// governed ROUTE-REFRESH (the RFC 7606 recovery, no session bounce).
    peers_wanting_refresh: BTreeSet<PeerId>,
    /// Peer sessions torn down (fault shutdowns and bounces) over the run.
    /// The refresh recovery path must keep this at zero for pure
    /// update-corruption faults.
    session_resets: u64,
    /// Seed for per-peer governors and the injection loss gate,
    /// deterministic in `(demand_seed, pop)`.
    chaos_seed: u64,
    /// Seeded RNG driving `UpdateCorruption` byte mangling.
    corruption_rng: StdRng,
    /// BMP messages withheld from the controller during a feed stall.
    stalled_bmp: Vec<BmpMessage>,
    /// Last simulated second the controller saw a live BMP feed.
    last_bmp_secs: u64,
    /// The controller's traffic input: the last fresh estimate and the
    /// simulated second it was taken. Refilled in place every fresh epoch;
    /// left untouched, so replayed with a growing age, while a severe sFlow
    /// loss starves the estimator (empty at `t = 0` until the first fresh
    /// epoch).
    last_traffic: (u64, TrafficTable),
    /// Prefix order of the demand, worked out once (see [`TrafficOrder`]).
    traffic_order: TrafficOrder,
    /// Telemetry pipeline shared with the controller (disabled by default).
    telemetry: ef_telemetry::TelemetryHandle,
    /// Each peer's session stats as last written to the `session.peer.N.*`
    /// gauges (empty while telemetry is off).
    published_sessions: HashMap<PeerId, SessionStats>,
    /// Collect end-of-epoch health signals (`SimConfig::health`). The
    /// signals are pure reads of state this step already computed; when
    /// off, `step` skips even building them.
    health_enabled: bool,
    /// The last epoch's health signals, read by the engine's monitor.
    health_signals: Option<ef_health::EpochSignals>,
}

impl PopRuntime {
    /// Builds the runtime: router, peers, announcements, controller.
    pub fn build(deployment: &Deployment, pop_id: PopId, cfg: &SimConfig) -> Self {
        let pop = deployment.pop(pop_id).clone();
        let mut router = BgpRouter::new(RouterConfig {
            name: format!("{}-pr0", pop.name),
            asn: deployment.local_asn,
            router_id: std::net::Ipv4Addr::new(10, 100, (pop_id.0 >> 8) as u8, pop_id.0 as u8),
        });

        // Attach every peer and bring its session up.
        let mut stubs = HashMap::new();
        for conn in &pop.peers {
            router.add_peer(PeerAttachment {
                peer: conn.peer,
                peer_asn: conn.asn,
                kind: conn.kind(),
                egress: conn.egress,
                policy: ef_bgp::policy::Policy::default_import(deployment.local_asn, conn.kind()),
                max_prefixes: 0,
            });
            let mut stub = PeerStub::new(
                conn.peer,
                conn.asn,
                std::net::Ipv4Addr::new(10, 210, (conn.peer.0 >> 8) as u8, conn.peer.0 as u8),
            );
            stub.pump(&mut router, 0);
            debug_assert!(stub.is_established());
            stubs.insert(conn.peer, stub);
        }

        // Originate the provider's own prefixes toward every peer.
        for prefix in &deployment.local_prefixes {
            router.originate(*prefix);
        }

        // Controller, fed by the router's BMP feed. It is attached once the
        // sessions are up (its collector learns each peer's egress from
        // them) and before the table load, so the load below can stream.
        let mut controller = cfg.controller_enabled.then(|| {
            let interfaces: InterfaceMap = pop
                .interfaces
                .iter()
                .map(|i| {
                    (
                        i.id,
                        InterfaceInfo {
                            capacity_mbps: i.capacity_mbps,
                            policy: i.policy,
                        },
                    )
                })
                .collect();
            let mut ctl = PopController::new(pop_id.0, cfg.controller, interfaces, &mut router);
            ctl.set_telemetry(cfg.telemetry.clone());
            ctl
        });
        // Hands the router's BMP backlog to the controller, in order; the
        // baseline arm drops it (nothing consumes it).
        let mut feed = |router: &mut BgpRouter| {
            let backlog = router.drain_bmp();
            if let Some(ctl) = controller.as_mut() {
                ctl.ingest_bmp(backlog);
            }
        };

        // Load the deployment's route set, each peer's run of routes as one
        // batch over its established session (`PeerStub::announce_table`:
        // the same import path as a wire UPDATE, without encoding frames
        // the stub built only for the router to decode). Runs load in
        // route-set order, so every prefix's candidates arrive in the same
        // peer order as announcing route by route would give, and the
        // decision ladder, which is not a total order, picks the same
        // winners. Each peer's announcements are remembered so a failed
        // session can be replayed on recovery. The load queues BMP
        // messages; a batch never spans a multiple of `BMP_BATCH` routes,
        // and handing the queue to the collector at each one keeps it
        // bounded instead of a second copy of the whole table.
        let mut announcements: HashMap<PeerId, Vec<(Prefix, ef_bgp::attrstore::AttrId)>> =
            HashMap::new();
        let mut ann_store = ef_bgp::attrstore::AttrStore::new();
        let mut routes = deployment.routes_at(pop_id);
        let mut loaded = 0;
        while let Some(first) = routes.first() {
            let via = first.via;
            let run_len = routes
                .iter()
                .take(BMP_BATCH - loaded % BMP_BATCH)
                .take_while(|s| s.via == via)
                .count();
            let (run, rest) = routes.split_at(run_len);
            routes = rest;
            loaded += run.len();
            if let Some(stub) = stubs.get_mut(&via) {
                let list = announcements.entry(via).or_default();
                let start = list.len();
                for spec in run {
                    let id = ann_store.intern(&PathAttributes {
                        as_path: AsPath::sequence(spec.as_path.iter().copied()),
                        med: spec.med,
                        ..Default::default()
                    });
                    let prefix = deployment.universe.prefixes[spec.prefix_idx as usize].prefix;
                    list.push((prefix, id));
                }
                stub.announce_table(&mut router, &ann_store, list[start..].iter().copied(), 0);
            }
            if loaded % BMP_BATCH == 0 {
                feed(&mut router);
            }
        }
        feed(&mut router);
        // The bulk load above appended route chunks in arrival order;
        // re-lay the pool out prefix-sorted once so the epoch loop scans
        // the Loc-RIB with locality.
        router.compact_rib();

        let sampler = cfg.sampled_rates.then(|| {
            SflowSampler::new(SamplerConfig {
                sample_rate: cfg.sample_rate,
                packet_bytes: 1200,
                seed: cfg.demand_seed ^ (pop_id.0 as u64) << 17,
            })
        });

        let measurer = cfg.perf.map(|_| AltPathMeasurer::new(pop_id.0));

        let mut metrics = MetricsStore::new();
        for iface in &pop.interfaces {
            metrics.register_interface(pop.id, iface.id, iface.capacity_mbps, iface.kind().label());
        }

        // This PoP's slice of the fault schedule.
        let chaos_events: Vec<FaultEvent> = cfg
            .chaos
            .as_ref()
            .map(|schedule| {
                schedule
                    .events
                    .iter()
                    .filter(|e| e.target.pop() == Some(pop_id.0 as usize))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        let base_capacity = pop
            .interfaces
            .iter()
            .map(|i| (i.id, i.capacity_mbps))
            .collect();

        let prefix_of: Vec<Prefix> = deployment
            .universe
            .prefixes
            .iter()
            .map(|p| p.prefix)
            .collect();
        let load_scratch = vec![0.0; pop.interfaces.len()];
        let fib_cache = FibCache::new(
            &prefix_of,
            cfg.controller.split_depth > 0,
            pop.interfaces.iter().map(|iface| iface.id),
            &router,
        );

        PopRuntime {
            pop,
            router,
            stubs,
            controller,
            sampler,
            measurer,
            metrics,
            prefix_of,
            epoch_secs: cfg.epoch_secs,
            util_limit: cfg.controller.util_limit,
            fib_cache,
            load_scratch,
            perf_steer: cfg.perf.map(|p| p.steer).unwrap_or(false),
            billing: cfg.billing.then(|| cfg.gen.cost.meter()),
            billing_percentile: cfg.gen.cost.billing_percentile,
            chaos_events,
            active_faults: BTreeSet::new(),
            base_capacity,
            announcements,
            ann_store,
            controller_enabled: cfg.controller_enabled,
            controller_cfg: cfg.controller,
            local_asn: deployment.local_asn,
            peer_governors: HashMap::new(),
            peers_wanting_up: BTreeSet::new(),
            refresh_governors: HashMap::new(),
            peers_wanting_refresh: BTreeSet::new(),
            session_resets: 0,
            chaos_seed: cfg.demand_seed ^ ((pop_id.0 as u64) << 23) ^ 0x0000_BADF_A017,
            corruption_rng: StdRng::seed_from_u64(
                cfg.demand_seed ^ ((pop_id.0 as u64) << 23) ^ 0xC099_B17E,
            ),
            stalled_bmp: Vec::new(),
            last_bmp_secs: 0,
            last_traffic: (0, TrafficTable::new()),
            traffic_order: TrafficOrder::default(),
            telemetry: cfg.telemetry.clone(),
            published_sessions: HashMap::new(),
            health_enabled: cfg.health.is_some(),
            health_signals: None,
        }
    }

    /// Flags an interface for full time-series recording.
    pub fn flag_interface(&mut self, egress: EgressId) {
        self.metrics.flag_interface(egress);
    }

    // --- Fault transitions -------------------------------------------

    /// Diffs the schedule's active windows against last tick's and applies
    /// start/end transitions. Returns the labels of currently active
    /// faults plus the per-tick signal levels (demand multiplier, sFlow
    /// drop fraction, BMP stall flag, corruption/flap targets).
    fn apply_fault_transitions(&mut self, t_secs: u64) -> TickFaults {
        let now_ms = t_secs * 1000;
        let desired: BTreeSet<usize> = self
            .chaos_events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.active_at(t_secs))
            .map(|(i, _)| i)
            .collect();
        let ending: Vec<usize> = self.active_faults.difference(&desired).copied().collect();
        let starting: Vec<usize> = desired.difference(&self.active_faults).copied().collect();
        for idx in ending {
            let event = self.chaos_events[idx];
            self.end_fault(&event, now_ms, t_secs);
        }
        for idx in starting {
            let event = self.chaos_events[idx];
            self.start_fault(&event, now_ms);
        }
        self.active_faults = desired;

        let mut tick = TickFaults {
            demand_multiplier: 1.0,
            ..Default::default()
        };
        for idx in &self.active_faults {
            let event = &self.chaos_events[*idx];
            tick.labels.push(event.kind.label().to_string());
            match event.kind {
                FaultKind::FlashCrowd { multiplier } => tick.demand_multiplier *= multiplier,
                FaultKind::SflowLoss { drop_fraction } => {
                    tick.sflow_drop = tick.sflow_drop.max(drop_fraction)
                }
                FaultKind::BmpStall => tick.bmp_stalled = true,
                FaultKind::UpdateCorruption { rate } => {
                    if let FaultTarget::Peer { peer, .. } = event.target {
                        tick.corrupt.push((PeerId(peer), rate));
                    }
                }
                FaultKind::SessionFlapStorm { period_s } => {
                    if let FaultTarget::Peer { peer, .. } = event.target {
                        tick.flap.push((PeerId(peer), period_s));
                        tick.held_down.insert(PeerId(peer));
                    }
                }
                FaultKind::PeerFailure => {
                    if let FaultTarget::Peer { peer, .. } = event.target {
                        tick.held_down.insert(PeerId(peer));
                    }
                }
                FaultKind::InjectorLoss => tick.injector_fault_active = true,
                _ => {}
            }
        }
        tick
    }

    fn start_fault(&mut self, event: &FaultEvent, now_ms: u64) {
        self.telemetry.emit(
            self.pop.id.0,
            now_ms,
            "fault.start",
            &[
                ("kind", event.kind.label().into()),
                ("target", format!("{:?}", event.target).into()),
            ],
        );
        self.telemetry.counter("faults.started", 1);
        match (&event.kind, &event.target) {
            (FaultKind::PeerFailure, FaultTarget::Peer { peer, .. }) => {
                let peer = PeerId(*peer);
                if let Some(stub) = self.stubs.get_mut(&peer) {
                    if stub.is_established() {
                        self.session_resets += 1;
                        self.telemetry.counter("session.resets", 1);
                    }
                    stub.shutdown(&mut self.router, now_ms);
                }
                self.governor(peer).record_down(now_ms);
                self.peers_wanting_up.insert(peer);
            }
            (FaultKind::LinkCapacityLoss { fraction }, FaultTarget::Interface { egress, .. }) => {
                let id = EgressId(*egress);
                let base = self.base_capacity.get(&id).copied();
                if let (Some(base), Some(iface)) =
                    (base, self.pop.interfaces.iter_mut().find(|i| i.id == id))
                {
                    iface.capacity_mbps = base * (1.0 - fraction);
                    if let Some(ctl) = self.controller.as_mut() {
                        ctl.set_interface_capacity(id, iface.capacity_mbps);
                    }
                }
            }
            (FaultKind::ControllerCrash, _) => {
                // The crashed controller's pseudo-session drops with it, so
                // BGP withdraws every override (fail-open, paper §4.4).
                if let Some(ctl) = self.controller.take() {
                    self.router.remove_peer(ctl.injector_peer_id(), now_ms);
                }
            }
            (FaultKind::InjectorLoss, _) => {
                if let Some(ctl) = self.controller.as_mut() {
                    self.router.remove_peer(ctl.injector_peer_id(), now_ms);
                    ctl.injector_session_lost(now_ms);
                }
            }
            (FaultKind::InjectorPartialLoss { fraction }, _) => {
                if let Some(ctl) = self.controller.as_mut() {
                    ctl.set_injection_loss(*fraction, self.chaos_seed);
                }
            }
            // Per-tick faults (stall, sample loss, flash crowd, update
            // corruption, flap storms) have no edge-triggered action.
            _ => {}
        }
    }

    fn end_fault(&mut self, event: &FaultEvent, now_ms: u64, t_secs: u64) {
        self.telemetry.emit(
            self.pop.id.0,
            now_ms,
            "fault.end",
            &[
                ("kind", event.kind.label().into()),
                ("target", format!("{:?}", event.target).into()),
            ],
        );
        match (&event.kind, &event.target) {
            // A failed peer is NOT revived here: the session stays down
            // until its reconnect governor clears the backoff/damping gate
            // (the per-tick recovery pass in `step` §0).
            (FaultKind::PeerFailure, FaultTarget::Peer { .. }) => {}
            // RFC 7606 recovery: treat-as-withdraw removed routes without
            // dropping the session, so once the corruption clears the peer
            // is asked for a ROUTE-REFRESH replay (RFC 2918) — no bounce.
            // The governed refresh pass in `run_fault_mechanics` issues it.
            // The injector's view may also have diverged while the inputs
            // were damaged; it resyncs via refresh as well.
            (FaultKind::UpdateCorruption { .. }, FaultTarget::Peer { peer, .. }) => {
                self.peers_wanting_refresh.insert(PeerId(*peer));
                if let Some(ctl) = self.controller.as_mut() {
                    ctl.resync_injector(&mut self.router, now_ms);
                }
            }
            (FaultKind::LinkCapacityLoss { .. }, FaultTarget::Interface { egress, .. }) => {
                let id = EgressId(*egress);
                if let (Some(base), Some(iface)) = (
                    self.base_capacity.get(&id).copied(),
                    self.pop.interfaces.iter_mut().find(|i| i.id == id),
                ) {
                    iface.capacity_mbps = base;
                    if let Some(ctl) = self.controller.as_mut() {
                        ctl.set_interface_capacity(id, base);
                    }
                }
            }
            (FaultKind::ControllerCrash, _)
                if self.controller_enabled && self.controller.is_none() =>
            {
                // Stateless restart (paper §4.4): a fresh controller
                // resyncs its collector from the router's BMP snapshot
                // and recomputes the override set from scratch.
                let interfaces: InterfaceMap = self
                    .pop
                    .interfaces
                    .iter()
                    .map(|i| {
                        (
                            i.id,
                            InterfaceInfo {
                                capacity_mbps: i.capacity_mbps,
                                policy: i.policy,
                            },
                        )
                    })
                    .collect();
                let mut ctl = PopController::new(
                    self.pop.id.0,
                    self.controller_cfg,
                    interfaces,
                    &mut self.router,
                );
                ctl.set_telemetry(self.telemetry.clone());
                // The incremental feed accumulated while dead is
                // superseded by the snapshot.
                let _ = self.router.drain_bmp();
                self.stalled_bmp.clear();
                ctl.ingest_bmp(self.router.bmp_snapshot(now_ms));
                self.last_bmp_secs = t_secs;
                self.controller = Some(ctl);
            }
            // The injector is NOT reattached here: the controller's own
            // reconnect governor decides when (the per-tick pass in `step`
            // §0 calls `try_reattach_injector` once the window clears).
            (FaultKind::InjectorLoss, _) => {}
            (FaultKind::InjectorPartialLoss { .. }, _) => {
                if let Some(ctl) = self.controller.as_mut() {
                    ctl.set_injection_loss(0.0, 0);
                    // Refresh-based resync: the router re-learns exactly
                    // what the injector believes is announced, and the
                    // EoRR sweep clears anything it should not hold.
                    ctl.resync_injector(&mut self.router, now_ms);
                }
            }
            _ => {}
        }
    }

    /// Lazily created per-peer reconnect governor, seeded deterministically
    /// in `(demand_seed, pop, peer)`.
    fn governor(&mut self, peer: PeerId) -> &mut ReconnectGovernor {
        let seed = self.chaos_seed ^ peer.0;
        self.peer_governors
            .entry(peer)
            .or_insert_with(|| ReconnectGovernor::with_seed(seed))
    }

    /// Lazily created per-peer refresh governor. Deliberately a separate
    /// instance (and RNG stream) from the reconnect governor: rate-limiting
    /// ROUTE-REFRESH requests must not perturb reconnect backoff draws.
    fn refresh_governor(&mut self, peer: PeerId) -> &mut ReconnectGovernor {
        let seed = self.chaos_seed ^ peer.0 ^ 0xEF2E_511D;
        self.refresh_governors
            .entry(peer)
            .or_insert_with(|| ReconnectGovernor::with_seed(seed))
    }

    /// Tears down and re-establishes one peer session, replaying its
    /// original announcements — the recovery path for failed, flapped, and
    /// corruption-bounced peers.
    fn revive_peer(&mut self, peer: PeerId, now_ms: u64) {
        let Some(conn) = self.pop.peers.iter().find(|c| c.peer == peer).cloned() else {
            return;
        };
        // Bouncing a live session is a reset; reviving an already-down
        // peer is not (its teardown was counted when it went down).
        if self.stubs.get(&peer).is_some_and(|s| s.is_established()) {
            self.session_resets += 1;
            self.telemetry.counter("session.resets", 1);
        }
        // A fresh session replays the full table, superseding any pending
        // refresh for this peer.
        self.peers_wanting_refresh.remove(&peer);
        self.router.remove_peer(conn.peer, now_ms);
        self.router.add_peer(PeerAttachment {
            peer: conn.peer,
            peer_asn: conn.asn,
            kind: conn.kind(),
            egress: conn.egress,
            policy: ef_bgp::policy::Policy::default_import(self.local_asn, conn.kind()),
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(
            conn.peer,
            conn.asn,
            std::net::Ipv4Addr::new(10, 210, (conn.peer.0 >> 8) as u8, conn.peer.0 as u8),
        );
        stub.pump(&mut self.router, now_ms);
        // The fresh session's full feed: one batch, as at build.
        if let Some(list) = self.announcements.get(&conn.peer) {
            stub.announce_table(
                &mut self.router,
                &self.ann_store,
                list.iter().copied(),
                now_ms,
            );
        }
        self.stubs.insert(conn.peer, stub);
    }

    /// Per-tick fault mechanics that are not edge-triggered: flap-storm
    /// session drops, governed session/injector recovery, and corrupted
    /// UPDATE delivery. Runs right after the window transitions, before
    /// demand is forwarded, so the FIB the tick observes reflects them.
    fn run_fault_mechanics(&mut self, tick: &TickFaults, now_ms: u64) {
        // Flap storms: drop the session (again) and charge the governor
        // once per flap the storm would have caused this tick — the
        // damping penalty accumulates at the storm's rate even though the
        // simulation only observes epoch boundaries.
        for (peer, period_s) in &tick.flap {
            let peer = *peer;
            if let Some(stub) = self.stubs.get_mut(&peer) {
                if stub.is_established() {
                    self.session_resets += 1;
                    self.telemetry.counter("session.resets", 1);
                    stub.shutdown(&mut self.router, now_ms);
                }
            }
            let flaps = (self.epoch_secs / (*period_s).max(1)).max(1);
            for _ in 0..flaps {
                self.governor(peer).record_down(now_ms);
            }
            self.peers_wanting_up.insert(peer);
        }

        // Governed session recovery: a down peer re-establishes only when
        // its fault window has ended AND its governor clears the
        // backoff + flap-damping gate.
        let candidates: Vec<PeerId> = self
            .peers_wanting_up
            .iter()
            .filter(|p| !tick.held_down.contains(p))
            .copied()
            .collect();
        for peer in candidates {
            if self.governor(peer).can_reconnect(now_ms) {
                self.revive_peer(peer, now_ms);
                self.governor(peer).record_up(now_ms);
                self.peers_wanting_up.remove(&peer);
            }
        }

        // Update corruption: mangle one byte inside the path-attribute
        // section of a re-encoded announcement and deliver the frame on
        // the live session. The graded decoder downgrades these to
        // treat-as-withdraw or attribute-discard — never a session reset.
        for (peer, rate) in &tick.corrupt {
            let Some(list) = self.announcements.get(peer) else {
                continue;
            };
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for (prefix, id) in list {
                if self.corruption_rng.gen::<f64>() >= *rate {
                    continue;
                }
                let mut attrs = self.ann_store.attrs(*id).clone();
                if attrs.next_hop.is_none() && prefix.is_v4() {
                    // Same fill as `PeerStub::announce` so the frame
                    // encodes validly before mangling.
                    attrs.next_hop = Some(std::net::Ipv4Addr::new(192, 0, 2, 1));
                }
                let msg = BgpMessage::Update(UpdateMessage::announce(*prefix, attrs));
                let Ok(bytes) = encode_message(&msg) else {
                    continue;
                };
                let mut raw = bytes.to_vec();
                // Header is 19 bytes, withdrawn-routes length (0) is 2,
                // then the attribute-section length; mangling stays inside
                // the attribute section so framing and NLRI stay intact.
                let attrs_len = u16::from_be_bytes([raw[21], raw[22]]) as usize;
                if attrs_len == 0 {
                    continue;
                }
                let at = 23 + self.corruption_rng.gen_range(0..attrs_len);
                raw[at] ^= self.corruption_rng.gen_range(1u8..=0xFF);
                frames.push(raw);
            }
            let damaged = !frames.is_empty();
            for raw in frames {
                self.router.deliver(*peer, &raw, now_ms);
                self.telemetry.counter("chaos.corrupt_frames", 1);
            }
            if damaged {
                // The router detected treat-as-withdraw downgrades on this
                // session; queue a governed ROUTE-REFRESH instead of a bounce.
                self.peers_wanting_refresh.insert(*peer);
            }
        }

        // Governed ROUTE-REFRESH recovery (RFC 2918 / RFC 7313): a peer
        // whose Adj-RIB-In took treat-as-withdraw damage asks for a table
        // replay on the *live* session instead of resetting it. The refresh
        // governor applies the same backoff/damping policy as reconnects, so
        // a corruption storm cannot become a refresh storm.
        let pending: Vec<PeerId> = self
            .peers_wanting_refresh
            .iter()
            .filter(|p| !tick.held_down.contains(p))
            .copied()
            .collect();
        for peer in pending {
            if !self.stubs.get(&peer).is_some_and(|s| s.is_established()) {
                // A down session replays the full table on reconnect;
                // nothing left to refresh.
                self.peers_wanting_refresh.remove(&peer);
                continue;
            }
            if !self.refresh_governor(peer).can_reconnect(now_ms) {
                continue;
            }
            self.refresh_governor(peer).record_down(now_ms);
            // While a corruption window is still open, the refresh reply
            // itself crosses the damaged channel and may be lost.
            let lost = tick
                .corrupt
                .iter()
                .find(|(p, _)| *p == peer)
                .map(|(_, rate)| self.corruption_rng.gen::<f64>() < *rate)
                .unwrap_or(false);
            if lost {
                self.telemetry.counter("chaos.refresh_lost", 1);
                continue; // stays pending; the governor paces the retry
            }
            match self.router.request_refresh(peer) {
                Ok(()) => {
                    if let Some(stub) = self.stubs.get_mut(&peer) {
                        stub.pump(&mut self.router, now_ms);
                    }
                    self.refresh_governor(peer).record_up(now_ms);
                    self.peers_wanting_refresh.remove(&peer);
                    self.telemetry.counter("session.refreshes", 1);
                }
                Err(_) => {
                    // The peer never negotiated the capability (or is
                    // gone): fall back to the governed bounce path.
                    self.peers_wanting_refresh.remove(&peer);
                    self.governor(peer).record_down(now_ms);
                    self.peers_wanting_up.insert(peer);
                }
            }
        }

        // Governed injector recovery: once no injector fault window is
        // active, reattach as soon as the controller's governor allows.
        if !tick.injector_fault_active {
            if let Some(ctl) = self.controller.as_mut() {
                if !ctl.injector_up() {
                    ctl.try_reattach_injector(&mut self.router, now_ms);
                }
            }
        }
    }

    /// Surfaces each peer's RFC 7606 / refresh counters as gauges: the
    /// current session's lifetime totals (they restart with the session).
    /// A peer's four gauges are written only when its stats differ from the
    /// ones last written, a restart back to zero included, so the registry
    /// holds the same values as rewriting them every epoch would.
    fn publish_session_stats(&mut self) {
        for peer in self.router.peer_ids() {
            let Some(stats) = self.router.session_stats(peer) else {
                continue;
            };
            if self.published_sessions.insert(peer, stats) == Some(stats) {
                continue;
            }
            let base = format!("session.peer.{}", peer.0);
            for (field, value) in [
                ("updates_downgraded", stats.updates_downgraded),
                ("attrs_discarded", stats.attrs_discarded),
                ("refreshes_sent", stats.refreshes_sent),
                ("refreshes_answered", stats.refreshes_answered),
            ] {
                self.telemetry
                    .gauge(&format!("{base}.{field}"), value as f64);
            }
        }
    }

    /// Runs one epoch at simulated time `t_secs` with the given offered
    /// demand. Returns the outcome signals the global layer consumes.
    pub fn step(
        &mut self,
        t_secs: u64,
        demand: &[DemandPoint],
        perf_model: &PathPerfModel,
    ) -> StepOutcome {
        // --- 0. Fault windows ----------------------------------------------
        let tick = self.apply_fault_transitions(t_secs);
        self.run_fault_mechanics(&tick, t_secs * 1000);
        if self.telemetry.enabled() {
            self.publish_session_stats();
        }
        let TickFaults {
            labels: fault_labels,
            demand_multiplier,
            sflow_drop,
            bmp_stalled,
            ..
        } = tick;
        let scaled_demand: Vec<DemandPoint>;
        let demand: &[DemandPoint] = if demand_multiplier != 1.0 {
            scaled_demand = demand
                .iter()
                .map(|d| DemandPoint {
                    prefix_idx: d.prefix_idx,
                    mbps: d.mbps * demand_multiplier,
                })
                .collect();
            &scaled_demand
        } else {
            demand
        };

        // --- 1. Forward demand through the current FIB ---------------------
        // Demand accumulates into the dense per-interface scratch (same
        // adds in the same order as the old per-tick HashMap, so the float
        // sums are bit-identical); egresses that are not PoP interfaces
        // are skipped — nothing downstream ever read their loads.
        let mut offered = 0.0f64;
        let mut detoured = 0.0f64;
        self.load_scratch.iter_mut().for_each(|l| *l = 0.0);
        // When the FIB is unchanged since the last tick (the steady state
        // between routing events), every lookup is a vector index instead
        // of a trie walk; after an install, withdraw or peer flush —
        // including the chaos faults — `sync` forgets only the units the
        // router's change journal says could have moved.
        self.fib_cache.sync(&self.router);
        let router = &self.router;
        let load = &mut self.load_scratch;
        let mut forward = |cache: &mut FibCache, idx: usize, half: usize, mbps: f64| {
            if let Some(hop) = cache.resolve(router, idx, half) {
                // `NOT_A_POP_INTERFACE` is past the end of `load`.
                if let Some(l) = load.get_mut(hop.slot as usize) {
                    *l += mbps;
                }
                if hop.is_override {
                    detoured += mbps;
                }
            }
        };
        let cache = &mut self.fib_cache;
        for point in demand {
            offered += point.mbps;
            let idx = point.prefix_idx as usize;
            if cache.is_split(idx) {
                // Split forwarding: traffic inside a prefix is uniform, so
                // each half carries half the demand and is looked up
                // independently (a /25 override captures exactly half).
                let half = point.mbps / 2.0;
                if half > 0.0 {
                    forward(cache, idx, 0, half);
                    forward(cache, idx, 1, half);
                }
            } else if point.mbps > 0.0 {
                forward(cache, idx, 0, point.mbps);
            }
        }

        // --- 2. Record interface metrics -----------------------------------
        let mut dropped = 0.0f64;
        let mut headroom = 0.0f64;
        for (slot, iface) in self.pop.interfaces.iter().enumerate() {
            let l = self.load_scratch[slot];
            self.metrics
                .record_interface(t_secs, iface.id, l, self.util_limit);
            if l > iface.capacity_mbps {
                dropped += l - iface.capacity_mbps;
            }
            headroom += (iface.capacity_mbps * self.util_limit - l).max(0.0);
            if let Some(meter) = self.billing.as_mut() {
                // The carrier bills carried traffic: offered load past
                // capacity is dropped, not billed.
                meter.record(
                    iface.id,
                    t_secs,
                    self.epoch_secs,
                    l.min(iface.capacity_mbps),
                );
            }
        }

        // --- 3. Alternate-path measurement ----------------------------------
        if let Some(measurer) = self.measurer.as_mut() {
            // Heaviest first, earlier slice position first among equal
            // rates — a total order, so selecting the head and sorting only
            // it yields the same entries in the same order as a stable sort
            // of the whole slice.
            let heaviest_first =
                |a: &usize, b: &usize| demand[*b].mbps.total_cmp(&demand[*a].mbps).then(a.cmp(b));
            let mut top: Vec<usize> = (0..demand.len()).collect();
            if top.len() > MEASURE_TOP_K {
                top.select_nth_unstable_by(MEASURE_TOP_K, heaviest_first);
                top.truncate(MEASURE_TOP_K);
            }
            top.sort_unstable_by(heaviest_first);
            let entries: Vec<(u32, f64, Vec<CandidatePath>)> = top
                .iter()
                .map(|&pos| {
                    let point = &demand[pos];
                    let prefix = self.prefix_of[point.prefix_idx as usize];
                    let paths: Vec<CandidatePath> = self
                        .router
                        .candidates(&prefix)
                        .iter()
                        .filter(|r| !r.is_override())
                        .map(|r| CandidatePath {
                            egress: r.egress,
                            kind: r.source.kind,
                        })
                        .collect();
                    (point.prefix_idx, point.mbps, paths)
                })
                .collect();
            let utilization: HashMap<EgressId, f64> = self
                .pop
                .interfaces
                .iter()
                .enumerate()
                .map(|(slot, i)| (i.id, self.load_scratch[slot] / i.capacity_mbps))
                .collect();
            measurer.collect_epoch(perf_model, &entries, &utilization);
        }

        // --- 4. Controller epoch --------------------------------------------
        // `report` stays `None` on the baseline arm, after a controller
        // crash and when the epoch is skipped.
        let mut report: Option<EpochReport> = None;
        let mut input_age_ms = 0;
        let mut epoch_skipped = false;
        let mut active: Vec<Prefix> = Vec::new();
        if let Some(controller) = self.controller.as_mut() {
            // Performance steering (§6.2): refresh perf overrides from the
            // measurement digests before the capacity pass.
            if self.perf_steer {
                if let Some(measurer) = self.measurer.as_ref() {
                    // Compare alternates against the *organic* BGP choice
                    // (ignoring our own overrides), otherwise a steered
                    // prefix would look "already optimal" and flap out of
                    // the override set every other epoch. `compare_paths`
                    // reads `preferred` only for prefixes with a digest, and
                    // every digest is of a prefix this PoP's demand offered.
                    let preferred: HashMap<u32, EgressId> = measurer
                        .measured_prefixes()
                        .filter_map(|idx| {
                            let prefix = self.prefix_of[idx as usize];
                            ef_bgp::best_rec_where(self.router.candidates(&prefix), |r| {
                                !r.is_override()
                            })
                            .map(|r| (idx, r.egress))
                        })
                        .collect();
                    let comparisons = ef_perf::compare::compare_paths(measurer, &preferred);
                    let adapted = adapt_comparisons(&comparisons, &self.prefix_of, MIN_SAMPLES);
                    let set = build_perf_overrides(controller.collector(), adapted);
                    controller.set_perf_overrides(set);
                }
            }

            // BMP feed: a stall buffers the incremental feed instead of
            // delivering it, and the controller's BMP input age grows.
            self.stalled_bmp.extend(self.router.drain_bmp());
            let bmp_age_ms = if bmp_stalled {
                t_secs.saturating_sub(self.last_bmp_secs) * 1000
            } else {
                controller.ingest_bmp(std::mem::take(&mut self.stalled_bmp));
                self.last_bmp_secs = t_secs;
                0
            };

            // Traffic estimate: a severe sFlow loss starves the estimator
            // (the controller replays its last table, aging); a partial
            // loss under-counts fresh estimates.
            let (traffic_t_secs, traffic) = &mut self.last_traffic;
            if sflow_drop < SEVERE_SFLOW_DROP {
                let keep = 1.0 - sflow_drop;
                match &mut self.sampler {
                    Some(sampler) => self.traffic_order.fill_sampled(
                        &self.prefix_of,
                        demand,
                        sampler,
                        t_secs,
                        self.epoch_secs,
                        keep,
                        traffic,
                    ),
                    None => self
                        .traffic_order
                        .fill_exact(&self.prefix_of, demand, keep, traffic),
                }
                *traffic_t_secs = t_secs;
            }
            let traffic_age_ms = t_secs.saturating_sub(*traffic_t_secs) * 1000;

            let inputs = EpochInputs {
                bmp_age_ms,
                traffic_age_ms,
            };
            match controller.run_epoch_guarded(&*traffic, &mut self.router, t_secs * 1000, inputs) {
                Ok(epoch) => {
                    input_age_ms = epoch.input_age_ms;
                    report = Some(epoch);
                }
                // The injector session is down: the epoch is skipped
                // entirely and BGP has already reverted every override.
                Err(EpochError::InjectorDown) => {
                    input_age_ms = bmp_age_ms.max(traffic_age_ms);
                    epoch_skipped = true;
                }
            }
            active = controller
                .active_overrides()
                .iter_sorted()
                .iter()
                .map(|o| o.prefix)
                .collect();
        } else {
            // Baseline arm (or a crashed controller): discard the
            // unconsumed BMP feed.
            self.router.drain_bmp();
            self.stalled_bmp.clear();
        }

        // --- 5. Record the epoch --------------------------------------------
        // Without a report the controller fields are zero, and a PoP that
        // is meant to have a controller is failing open.
        let report = report.as_ref();
        let record = PopEpochRecord {
            t_secs,
            pop: self.pop.id.0,
            offered_mbps: offered,
            detoured_mbps: detoured,
            detoured_by_kind: report
                .map(|r| r.detoured_by_kind.clone())
                .unwrap_or_default(),
            overrides_active: report.map_or(0, |r| r.overrides_active),
            churn_announced: report.map_or(0, |r| r.churn_announced),
            churn_withdrawn: report.map_or(0, |r| r.churn_withdrawn),
            overloaded_before: report.map_or(0, |r| r.overloaded_before.len()),
            residual_overloaded: report.map_or(0, |r| r.residual_overloaded.len()),
            dropped_mbps: dropped,
            active_faults: fault_labels,
            degraded: report.is_some_and(|r| r.degraded),
            fail_open: report.map_or(self.controller_enabled, |r| r.fail_open),
        };
        if self.health_enabled {
            let audit_failures =
                report.map_or(0, |r| (r.audit_not_installed + r.audit_leaked) as u64);
            self.health_signals = Some(self.collect_health_signals(
                &record,
                input_age_ms,
                audit_failures,
                epoch_skipped,
            ));
        }
        let residual_overloaded =
            report.map_or(dropped > 0.0, |r| !r.residual_overloaded.is_empty());
        self.metrics.record_pop_epoch(record);
        self.metrics.update_episodes(self.pop.id, t_secs, active);
        StepOutcome {
            residual_overloaded,
            dropped_mbps: dropped,
            offered_mbps: offered,
            headroom_mbps: headroom,
        }
    }

    /// Builds this epoch's health signals from state `step` already
    /// computed — pure reads of simulation state, so collecting them
    /// cannot perturb the run. The previous epoch's `iface_util` buffer
    /// is recycled, so the steady state allocates nothing per epoch.
    fn collect_health_signals(
        &mut self,
        record: &PopEpochRecord,
        input_age_ms: u64,
        audit_failures: u64,
        epoch_skipped: bool,
    ) -> ef_health::EpochSignals {
        let sessions_down = self.stubs.values().filter(|s| !s.is_established()).count() as u64;
        let updates_downgraded_total = self.router.updates_downgraded_total();
        let injection_dropped_total = self
            .controller
            .as_ref()
            .map(|ctl| ctl.injection_ledger().dropped_total())
            .unwrap_or(0);
        let mut iface_util = self
            .health_signals
            .take()
            .map(|s| {
                let mut v = s.iface_util;
                v.clear();
                v
            })
            .unwrap_or_default();
        iface_util.extend(self.pop.interfaces.iter().enumerate().map(|(slot, iface)| {
            let util = if iface.capacity_mbps > 0.0 {
                self.load_scratch[slot] / iface.capacity_mbps
            } else {
                0.0
            };
            (iface.id.0, util)
        }));
        // Projected monthly spend if this epoch's carried rates persisted:
        // Σ marginal $/Mbps × carried Mbps, summed in slot order (the
        // canonical order — billing math must be thread-count-invariant).
        let billing_burn_usd: f64 = self
            .pop
            .interfaces
            .iter()
            .enumerate()
            .map(|(slot, iface)| {
                iface.policy.marginal_usd_per_mbps()
                    * self.load_scratch[slot].min(iface.capacity_mbps)
            })
            .sum();
        ef_health::EpochSignals {
            t_secs: record.t_secs,
            pop: record.pop,
            offered_mbps: record.offered_mbps,
            dropped_mbps: record.dropped_mbps,
            detoured_mbps: record.detoured_mbps,
            overrides_active: record.overrides_active as u64,
            churn: (record.churn_announced + record.churn_withdrawn) as u64,
            residual_overloaded: record.residual_overloaded as u64,
            degraded: record.degraded,
            fail_open: record.fail_open,
            epoch_skipped,
            controller_missing: self.controller_enabled && self.controller.is_none(),
            input_age_ms,
            sessions_down,
            session_resets_total: self.session_resets,
            updates_downgraded_total,
            injection_dropped_total,
            audit_failures,
            iface_util,
            billing_burn_usd,
        }
    }

    /// The last epoch's health signals (None until the first step with
    /// health sampling enabled).
    pub fn health_signals(&self) -> Option<&ef_health::EpochSignals> {
        self.health_signals.as_ref()
    }

    /// The controller's current traffic input and the simulated second it
    /// was estimated at (older than the last epoch only while a severe
    /// sFlow loss starves the estimator).
    pub fn last_traffic(&self) -> (u64, &TrafficTable) {
        (self.last_traffic.0, &self.last_traffic.1)
    }

    /// Whether any stub session dropped (sanity check for long runs).
    pub fn all_sessions_up(&self) -> bool {
        self.stubs.values().all(|s| s.is_established())
    }

    /// Established peer sessions torn down over the run (fault shutdowns
    /// and bounces). The ROUTE-REFRESH recovery path keeps this at zero
    /// for pure update-corruption faults.
    pub fn session_resets(&self) -> u64 {
        self.session_resets
    }

    /// Closes open detour episodes at simulation end and finalizes this
    /// PoP's 95/5 bills (slot order, so billing rows are canonical).
    pub fn finish(&mut self, t_secs: u64) {
        self.metrics.finish(t_secs);
        if let Some(mut meter) = self.billing.take() {
            meter.finish();
            for iface in &self.pop.interfaces {
                let billable = meter.billable_mbps(iface.id, self.billing_percentile);
                let class = iface.policy.class;
                self.metrics.billing.push(crate::metrics::InterfaceBill {
                    pop: self.pop.id.0,
                    egress: iface.id.0,
                    class: class.label().to_string(),
                    billable_mbps: billable,
                    monthly_usd: class.monthly_bill_usd(billable),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_bgp::route::Route;

    fn built(controller_enabled: bool) -> PopRuntime {
        let cfg = crate::scenario()
            .small_topology(7)
            .controller_enabled(controller_enabled)
            .build();
        let deployment = ef_topology::generate(&cfg.gen);
        PopRuntime::build(&deployment, deployment.pops[0].id, &cfg)
    }

    #[test]
    fn streamed_table_load_leaves_collector_equal_to_loc_rib() {
        let mut pop = built(true);
        assert!(pop.router.rib_route_count() > 4 * BMP_BATCH, "many batches");
        let ctl = pop.controller.as_ref().expect("controller enabled");
        let collector = ctl.collector();
        for (prefix, recs) in pop.router.iter_candidates() {
            let want: Vec<Route> = recs
                .iter()
                .filter(|r| !r.is_override())
                .map(|r| pop.router.rib_route(*prefix, r))
                .collect();
            let got: Vec<Route> = collector
                .candidates(prefix)
                .iter()
                .filter(|r| !r.is_override())
                .map(|r| collector.route(*prefix, r))
                .collect();
            assert_eq!(got, want, "{prefix}");
        }
        assert_eq!(
            collector.prefix_count(),
            pop.router.iter_candidates().count()
        );
        assert!(
            pop.router.drain_bmp().is_empty(),
            "the whole feed was handed over"
        );
    }

    #[test]
    fn baseline_build_leaves_no_bmp_backlog() {
        let mut pop = built(false);
        assert!(pop.controller.is_none());
        assert!(pop.router.rib_route_count() > 0);
        assert!(pop.router.drain_bmp().is_empty());
    }
}
