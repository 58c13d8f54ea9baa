//! Per-PoP runtime: the live substrate for one point of presence.
//!
//! Besides the sunny-day loop (forward demand, measure, run a controller
//! epoch), the runtime interprets its PoP's slice of the scenario's
//! [`FaultSchedule`](ef_chaos::FaultSchedule) as a function of the clock:
//! each tick it derives one `FaultLevels` value from the windows open at
//! that tick alone and reconciles the PoP to it — controller present,
//! injector session and loss, interface capacities, held-down peers — so
//! a controller restarted or an injector reattached inside a window comes
//! back under that window's level, and nested windows act as their union.
//! The edge actions follow from level changes: `fault.start` / `fault.end`
//! events (ends first), session teardowns, and a peer's ROUTE-REFRESH
//! once its corruption clears. The
//! controller itself is never told a fault is active; it only sees the
//! degraded inputs (that is the point — the graceful-degradation guards in
//! `edge-fabric` must react to input staleness, not to an out-of-band
//! oracle).
//!
//! Recovery is *governed*, not instant: every session re-establishment
//! (peer or injector) waits out a seeded exponential-backoff +
//! flap-damping gate ([`ReconnectGovernor`]), charged when a fault tears a
//! live session down, so a storm that ends still pays a cool-down before
//! the session returns. Everything the runtime knows about one peer
//! session — its stub, its table, its two governors and what it is
//! waiting for — lives in one `PeerRecord`.
//!
//! A simulated peer never changes what it announces after the build, so
//! its table is held once, in its record, as handles into the runtime's
//! one attribute store. The stub keeps no Adj-RIB-Out: every send of the
//! table — the build's feed, a revived session's feed, a ROUTE-REFRESH
//! answer and the frames update corruption mangles — is built from the
//! record's table.

use std::collections::HashMap;

use edge_fabric::{
    adapt_comparisons, build_perf_overrides, ControllerConfig, EpochError, EpochInputs,
    EpochReport, InterfaceInfo, InterfaceMap, OverrideSet, PopController, TrafficTable,
    MIN_SAMPLES,
};
use ef_bgp::attrs::{AsPath, AsPathSegment, PathAttributes};
use ef_bgp::attrstore::{AttrId, AttrStore};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::peer::PeerId;
use ef_bgp::route::EgressId;
use ef_bgp::router::{stub_frame_attrs, BgpRouter, PeerAttachment, PeerStub, RouterConfig};
use ef_bgp::wire::encode_message;
use ef_bgp::{BmpMessage, ReconnectGovernor, SessionStats};
use ef_chaos::{FaultEvent, FaultKind, FaultTarget};
use ef_net_types::{Asn, Prefix};
use ef_perf::rtt::PathPerfModel;
use ef_perf::{AltPathMeasurer, CandidatePath};
use ef_topology::{BillingMeter, Deployment, PeerConn, Pop, PopId, BILLING_PERCENTILE};
use ef_traffic::demand::DemandPoint;
use ef_traffic::sampler::{SamplerConfig, SflowSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chaos::FaultWindows;
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

/// The PoP's fault state at one tick, derived from the windows open at
/// that tick alone.
#[derive(Debug, Default)]
struct FaultLevels {
    /// Any `ControllerCrash` window is open.
    controller_down: bool,
    /// Any `InjectorLoss` window is open.
    injector_down: bool,
    /// The largest open `InjectorPartialLoss` fraction (0 when none).
    injection_loss: f64,
    /// Capacity per interface slot: nominal × (1 − the worst open cut).
    capacity: Vec<f64>,
    /// Peer slots (indices into the peer records) failed by a window.
    failed: Vec<usize>,
    /// Peer slots in an open `SessionFlapStorm` window, with its period.
    flap: Vec<(usize, u64)>,
    /// Peer slots in an open `UpdateCorruption` window, with its rate.
    corrupt: Vec<(usize, f64)>,
    /// Flash-crowd demand inflation (multiplicative across windows).
    demand_multiplier: f64,
    /// Worst open sFlow drop fraction.
    sflow_drop: f64,
    /// Any `BmpStall` window is open.
    bmp_stalled: bool,
}

impl FaultLevels {
    /// The peer in `slot` is held down (failed or storming): the governed
    /// reconnect and refresh passes must not revive it mid-window.
    fn held_down(&self, slot: usize) -> bool {
        self.failed.contains(&slot) || self.flap.iter().any(|&(s, _)| s == slot)
    }
}

/// One peer session's runtime state.
struct PeerRecord {
    /// The adjacency as the topology describes it.
    conn: PeerConn,
    /// The session's speaking end; it holds no routes.
    stub: PeerStub,
    /// Everything the peer announces, in load order, as handles into the
    /// runtime's `ann_store`: fixed at the build, and the only peer-side
    /// copy of the peer's routes. A revived session's feed, a ROUTE-REFRESH
    /// answer and corrupted frames are all built from it.
    table: Vec<(Prefix, AttrId)>,
    /// Exponential backoff + flap damping gating every re-establishment
    /// (no instant reconnects), seeded in `(demand_seed, pop, peer)`.
    reconnect: ReconnectGovernor,
    /// The same policy applied to ROUTE-REFRESH requests, so a corruption
    /// storm cannot become a refresh storm. A separate RNG stream:
    /// rate-limiting refreshes must not perturb reconnect backoff draws.
    refresh: ReconnectGovernor,
    /// The session is down and awaits a governed reconnect.
    wants_up: bool,
    /// The Adj-RIB-In took treat-as-withdraw damage and awaits a governed
    /// ROUTE-REFRESH (the RFC 7606 recovery, no session bounce).
    wants_refresh: bool,
}

/// One PoP's live state: router, peer sessions, optional controller,
/// optional measurement, and this PoP's metrics.
pub struct PopRuntime {
    /// Topology facts for this PoP.
    pub pop: Pop,
    /// The consolidated routing view (see DESIGN.md on PR consolidation).
    pub router: BgpRouter,
    /// One record per peer session, in ascending `PeerId` order (the
    /// order the governed reconnect and refresh passes walk them in).
    peers: Vec<PeerRecord>,
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

    // --- Fault-injection state ---------------------------------------
    /// This PoP's slice of the scenario fault schedule, and which of its
    /// windows were active at the last tick.
    faults: FaultWindows,
    /// Nominal capacity per interface slot, which each tick's capacity
    /// level scales.
    nominal_capacity: Vec<f64>,
    /// Interned attribute pool for every peer's table, one copy per
    /// distinct pre-policy set (about one per three routes in the
    /// generated worlds: 114 978 sets for 381 342 routes on the `fulltable`
    /// benchmark), so a peer holds a prefix and a handle per route. Frames
    /// get their next hop filled as they are built, not here.
    ann_store: AttrStore,
    /// Controller construction facts, for rebuilding after a crash.
    controller_enabled: bool,
    controller_cfg: ControllerConfig,
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
    /// Each router session's stats as last emitted in a `session.stats`
    /// event (empty while telemetry is off). Keyed by router peer rather
    /// than record: the injector's pseudo-session has stats too.
    published_sessions: HashMap<PeerId, SessionStats>,
    /// Collect end-of-epoch health signals (`SimConfig::health`). The
    /// signals are pure reads of state this step already computed; when
    /// off, `step` skips even building them.
    health_enabled: bool,
    /// The last epoch's health signals, read by the engine's monitor.
    health_signals: Option<ef_health::EpochSignals>,
}

/// A controller over `pop`'s interfaces at their current capacity,
/// attached to `router` and reporting to `telemetry`: built with the
/// runtime, and again from scratch on every restart after a crash.
fn new_controller(
    pop: &Pop,
    cfg: ControllerConfig,
    telemetry: &ef_telemetry::TelemetryHandle,
    router: &mut BgpRouter,
) -> PopController {
    let interfaces: InterfaceMap = pop
        .interfaces
        .iter()
        .map(|i| (i.id, InterfaceInfo::with_policy(i.capacity_mbps, i.policy)))
        .collect();
    let mut ctl = PopController::new(pop.id.0, cfg, interfaces, router)
        .unwrap_or_else(|e| panic!("controller config invalid: {e}"));
    ctl.set_telemetry(telemetry.clone());
    ctl
}

/// The slot of `peer`'s record in `peers` (sorted by `PeerId`).
fn peer_slot(peers: &[PeerRecord], peer: PeerId) -> Option<usize> {
    peers.binary_search_by_key(&peer, |r| r.conn.peer).ok()
}

/// Emits the `session.reset` event for an established session to `peer`
/// that a fault or a recovery bounce tore down.
fn emit_reset(telemetry: &ef_telemetry::TelemetryHandle, pop: u16, now_ms: u64, peer: PeerId) {
    telemetry.emit(pop, now_ms, "session.reset", &[("peer", peer.0.into())]);
}

/// Makes `path` the one SEQUENCE `asns` (no segment when `asns` is
/// empty), as [`AsPath::sequence`] builds it, reusing `path`'s vectors.
fn refill_sequence(path: &mut AsPath, asns: &[Asn]) {
    match path.segments.as_mut_slice() {
        [AsPathSegment::Sequence(seq)] if !asns.is_empty() => {
            seq.clear();
            seq.extend_from_slice(asns);
        }
        _ => *path = AsPath::sequence(asns.iter().copied()),
    }
}

/// Attaches `conn`'s session to `router` under the default import policy
/// and brings it up from a fresh stub: at build, and again on every
/// revival of a failed, flapped or corruption-bounced peer.
fn attach_peer(router: &mut BgpRouter, conn: &PeerConn, now_ms: u64) -> PeerStub {
    router.add_peer(PeerAttachment {
        peer: conn.peer,
        peer_asn: conn.asn,
        kind: conn.kind(),
        egress: conn.egress,
        policy: ef_bgp::policy::Policy::default_import(router.asn(), conn.kind()),
        max_prefixes: 0,
    });
    let mut stub = PeerStub::new(
        conn.peer,
        conn.asn,
        std::net::Ipv4Addr::new(10, 210, (conn.peer.0 >> 8) as u8, conn.peer.0 as u8),
    );
    stub.pump(router, now_ms);
    stub
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

        // Attach every peer and bring its session up. Governors are built
        // here rather than on first use: seeding one draws nothing.
        let chaos_seed = cfg.demand_seed ^ ((pop_id.0 as u64) << 23) ^ 0x0000_BADF_A017;
        let mut peers: Vec<PeerRecord> = pop
            .peers
            .iter()
            .map(|conn| {
                let stub = attach_peer(&mut router, conn, 0);
                debug_assert!(stub.is_established());
                let seed = chaos_seed ^ conn.peer.0;
                PeerRecord {
                    conn: conn.clone(),
                    stub,
                    table: Vec::new(),
                    reconnect: ReconnectGovernor::with_seed(seed),
                    refresh: ReconnectGovernor::with_seed(seed ^ 0xEF2E_511D),
                    wants_up: false,
                    wants_refresh: false,
                }
            })
            .collect();
        peers.sort_by_key(|r| r.conn.peer);

        // Controller, fed by the router's BMP feed. It is attached once the
        // sessions are up (its collector learns each peer's egress from
        // them) and before the table load, so the load below can stream.
        let mut controller = cfg
            .controller_enabled
            .then(|| new_controller(&pop, cfg.controller, &cfg.telemetry, &mut router));
        // Hands the router's BMP backlog to the controller, in order; the
        // baseline arm drops it (nothing consumes it).
        let mut feed = |router: &mut BgpRouter| {
            let backlog = router.drain_bmp();
            if let Some(ctl) = controller.as_mut() {
                ctl.ingest_bmp(backlog, 0);
            }
        };

        // Load the deployment's route set, each peer's run of routes as one
        // batch over its established session (`PeerStub::announce_table`:
        // the same import path as a wire UPDATE, without encoding frames
        // the stub built only for the router to decode). Runs load in
        // route-set order, so every prefix's candidates arrive in the same
        // peer order as announcing route by route would give, and the
        // decision ladder, which is not a total order, picks the same
        // winners. Each peer's routes are kept as its table, which every
        // later send replays. The load queues BMP
        // messages; a batch never spans a multiple of `BMP_BATCH` routes,
        // and handing the queue to the collector at each one keeps it
        // bounded instead of a second copy of the whole table.
        let mut ann_store = AttrStore::new();
        // One scratch set, refilled per route: interning copies a set only
        // the first time it sees it.
        let mut attrs = PathAttributes::default();
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
            if let Some(rec) = peer_slot(&peers, via).map(|slot| &mut peers[slot]) {
                let list = &mut rec.table;
                let start = list.len();
                for spec in run {
                    refill_sequence(&mut attrs.as_path, &spec.as_path);
                    attrs.med = spec.med;
                    let id = ann_store.intern(&attrs);
                    let prefix = deployment.universe.prefixes[spec.prefix_idx as usize].prefix;
                    list.push((prefix, id));
                }
                let run = list[start..].iter().copied();
                rec.stub.announce_table(&mut router, &ann_store, run, 0);
            }
            if loaded % BMP_BATCH == 0 {
                feed(&mut router);
            }
        }
        feed(&mut router);

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

        let nominal_capacity = pop.interfaces.iter().map(|i| i.capacity_mbps).collect();

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
            peers,
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
            faults: FaultWindows::new(cfg.chaos.as_ref(), Some(pop_id.0 as usize)),
            nominal_capacity,
            ann_store,
            controller_enabled: cfg.controller_enabled,
            controller_cfg: cfg.controller,
            session_resets: 0,
            chaos_seed,
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

    // --- Fault levels ------------------------------------------------

    /// The fault levels of the windows open at the tracker's last tick.
    fn fault_levels(&self) -> FaultLevels {
        let mut levels = FaultLevels {
            // The worst cut per slot until the end, then the capacity.
            capacity: vec![0.0; self.nominal_capacity.len()],
            demand_multiplier: 1.0,
            ..Default::default()
        };
        for event in self.faults.active() {
            // The peer's or the interface's slot, as the kind targets one.
            let slot = match event.target {
                FaultTarget::Peer { peer, .. } => peer_slot(&self.peers, PeerId(peer)),
                FaultTarget::Interface { egress, .. } => {
                    self.pop.interfaces.iter().position(|i| i.id.0 == egress)
                }
                _ => None,
            };
            match (event.kind, slot) {
                (FaultKind::ControllerCrash, _) => levels.controller_down = true,
                (FaultKind::InjectorLoss, _) => levels.injector_down = true,
                (FaultKind::InjectorPartialLoss { fraction }, _) => {
                    levels.injection_loss = levels.injection_loss.max(fraction)
                }
                (FaultKind::LinkCapacityLoss { fraction }, Some(slot)) => {
                    levels.capacity[slot] = levels.capacity[slot].max(fraction)
                }
                (FaultKind::FlashCrowd { multiplier }, _) => levels.demand_multiplier *= multiplier,
                (FaultKind::SflowLoss { drop_fraction }, _) => {
                    levels.sflow_drop = levels.sflow_drop.max(drop_fraction)
                }
                (FaultKind::BmpStall, _) => levels.bmp_stalled = true,
                (FaultKind::PeerFailure, Some(slot)) => levels.failed.push(slot),
                (FaultKind::SessionFlapStorm { period_s }, Some(slot)) => {
                    levels.flap.push((slot, period_s))
                }
                (FaultKind::UpdateCorruption { rate }, Some(slot)) => {
                    levels.corrupt.push((slot, rate))
                }
                _ => {}
            }
        }
        for (cut, nominal) in levels.capacity.iter_mut().zip(&self.nominal_capacity) {
            *cut = nominal * (1.0 - *cut);
        }
        levels
    }

    /// Moves the fault-window tracker to `t_secs` (which emits the edge
    /// events) and reconciles the PoP to the tick's fault levels, which it
    /// returns.
    fn apply_fault_levels(&mut self, t_secs: u64) -> FaultLevels {
        let now_ms = t_secs * 1000;
        let closed = self.faults.advance(t_secs, &self.telemetry, self.pop.id.0);
        let levels = self.fault_levels();

        // Interfaces: the forwarding loop and the controller alike see the
        // level's capacity.
        for (iface, &mbps) in self.pop.interfaces.iter_mut().zip(&levels.capacity) {
            iface.capacity_mbps = mbps;
            if let Some(ctl) = self.controller.as_mut() {
                ctl.set_interface_capacity(iface.id, mbps);
            }
        }

        if levels.controller_down {
            // The crashed controller's pseudo-session drops with it, so
            // BGP withdraws every override (fail-open, paper §4.4).
            if let Some(ctl) = self.controller.take() {
                self.router.remove_peer(ctl.injector_peer_id(), now_ms);
            }
        } else if self.controller_enabled && self.controller.is_none() {
            // Stateless restart (paper §4.4): a fresh controller resyncs
            // its collector from the router's BMP snapshot and recomputes
            // the override set from scratch; the lines below give it the
            // open injector levels.
            let mut ctl = new_controller(
                &self.pop,
                self.controller_cfg,
                &self.telemetry,
                &mut self.router,
            );
            // The incremental feed accumulated while dead is superseded by
            // the snapshot.
            let _ = self.router.drain_bmp();
            self.stalled_bmp.clear();
            ctl.ingest_bmp(self.router.bmp_snapshot(now_ms), now_ms);
            self.last_bmp_secs = t_secs;
            self.controller = Some(ctl);
        }

        if let Some(ctl) = self.controller.as_mut() {
            // The injector is NOT reattached here: once the level clears,
            // the controller's own governor decides when (the per-tick pass
            // in `run_fault_mechanics`).
            if levels.injector_down && ctl.injector_up() {
                self.router.remove_peer(ctl.injector_peer_id(), now_ms);
                ctl.injector_session_lost(now_ms);
            }
            if ctl.injection_loss() != levels.injection_loss {
                ctl.set_injection_loss(levels.injection_loss, self.chaos_seed);
            }
        }

        // RFC 7606 recovery: treat-as-withdraw removed routes without
        // dropping the session, so once a peer's last corruption window
        // closes it is asked for a ROUTE-REFRESH replay (RFC 2918) — no
        // bounce; the governed refresh pass in `run_fault_mechanics` issues
        // it.
        let pop = self.pop.id.0 as usize;
        for (slot, rec) in self.peers.iter_mut().enumerate() {
            let target = FaultTarget::Peer {
                pop,
                peer: rec.conn.peer.0,
            };
            let corrupted = |e: &&FaultEvent| matches!(e.kind, FaultKind::UpdateCorruption { .. });
            let ended = closed.iter().filter(corrupted).any(|e| e.target == target);
            if ended && levels.corrupt.iter().all(|&(s, _)| s != slot) {
                rec.wants_refresh = true;
            }
        }
        levels
    }

    /// Which part of the PoP's observable fault state differs from
    /// `levels`, if any: a controller runs exactly when none is down, no
    /// injector session is up while the injector is down (once the level
    /// clears, its governor decides when it returns), the injector's loss
    /// and each interface's capacity (the PoP's and the controller's) are
    /// at their level, and no held-down peer's session is established.
    fn fault_state_mismatch(&self, levels: &FaultLevels) -> Option<&'static str> {
        let ctl = self.controller.as_ref();
        let ifaces = self.pop.interfaces.iter().zip(&levels.capacity);
        let capacity_at_level = ifaces.clone().all(|(iface, &mbps)| {
            let seen = ctl.map_or(mbps, |c| c.interfaces()[&iface.id].capacity_mbps);
            iface.capacity_mbps == mbps && seen == mbps
        });
        let held = |slot: &usize| levels.held_down(*slot);
        if ctl.is_some() != (self.controller_enabled && !levels.controller_down) {
            Some("controller presence")
        } else if levels.injector_down && ctl.is_some_and(|c| c.injector_up()) {
            Some("injector session")
        } else if ctl.is_some_and(|c| c.injection_loss() != levels.injection_loss) {
            Some("injection loss")
        } else if !capacity_at_level {
            Some("interface capacity")
        } else if (0..self.peers.len())
            .filter(held)
            .any(|s| self.peers[s].stub.is_established())
        {
            Some("held-down peer session")
        } else {
            None
        }
    }

    /// Tears down and re-establishes the session in `slot`, replaying its
    /// table, and tells its governor the session is back —
    /// the recovery path for failed, flapped, and corruption-bounced peers.
    fn revive_peer(&mut self, slot: usize, now_ms: u64) {
        let rec = &mut self.peers[slot];
        // Bouncing a live session is a reset; reviving an already-down
        // peer is not (its teardown was counted when it went down).
        if rec.stub.is_established() {
            self.session_resets += 1;
            emit_reset(&self.telemetry, self.pop.id.0, now_ms, rec.conn.peer);
        }
        // A fresh session replays the full table, superseding any pending
        // refresh for this peer.
        rec.wants_refresh = false;
        self.router.remove_peer(rec.conn.peer, now_ms);
        rec.stub = attach_peer(&mut self.router, &rec.conn, now_ms);
        // The fresh session's full feed: one batch, as at build.
        let table = rec.table.iter().copied();
        rec.stub
            .announce_table(&mut self.router, &self.ann_store, table, now_ms);
        rec.reconnect.record_up(now_ms);
        rec.wants_up = false;
    }

    /// Per-tick fault mechanics: flap-storm session drops, governed
    /// session/injector recovery, and corrupted UPDATE delivery. Runs right
    /// after the PoP is reconciled to the tick's fault levels, before
    /// demand is forwarded, so the FIB the tick observes reflects them.
    fn run_fault_mechanics(&mut self, levels: &FaultLevels, now_ms: u64) {
        // Held-down peers: a live session is torn down. A failure charges
        // the governor once per teardown; a storm drops the session (again)
        // and charges it once per flap the storm would have caused this
        // tick — the damping penalty accumulates at the storm's rate even
        // though the simulation only observes epoch boundaries. The session
        // is NOT revived here: it stays down until the level clears and
        // the governor clears the backoff/damping gate (below).
        let epoch_secs = self.epoch_secs;
        let failed = levels.failed.iter().map(|&slot| (slot, None));
        let storms =
            (levels.flap.iter()).map(|&(slot, p)| (slot, Some((epoch_secs / p.max(1)).max(1))));
        for (slot, flaps) in failed.chain(storms) {
            let rec = &mut self.peers[slot];
            let up = rec.stub.is_established();
            if up {
                self.session_resets += 1;
                emit_reset(&self.telemetry, self.pop.id.0, now_ms, rec.conn.peer);
                rec.stub.shutdown(&mut self.router, now_ms);
            }
            for _ in 0..flaps.unwrap_or(u64::from(up)) {
                rec.reconnect.record_down(now_ms);
            }
            rec.wants_up = true;
        }

        // Governed session recovery: a down peer re-establishes only when
        // it is no longer held down AND its governor clears the
        // backoff + flap-damping gate.
        for slot in 0..self.peers.len() {
            let rec = &mut self.peers[slot];
            let due = rec.wants_up && !levels.held_down(slot);
            if due && rec.reconnect.can_reconnect(now_ms) {
                self.revive_peer(slot, now_ms);
            }
        }

        // Update corruption: mangle one byte inside the path-attribute
        // section of a re-encoded announcement and deliver the frame on
        // the live session. The graded decoder downgrades these to
        // treat-as-withdraw or attribute-discard — never a session reset.
        for &(slot, rate) in &levels.corrupt {
            let rec = &mut self.peers[slot];
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for (prefix, id) in &rec.table {
                if self.corruption_rng.gen::<f64>() >= rate {
                    continue;
                }
                // The stub's fill, so the frame encodes validly before
                // mangling.
                let attrs = stub_frame_attrs(prefix, self.ann_store.attrs(*id).clone());
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
            if !frames.is_empty() {
                // The router detected treat-as-withdraw downgrades on this
                // session; queue a governed ROUTE-REFRESH instead of a bounce.
                rec.wants_refresh = true;
                self.telemetry.emit(
                    self.pop.id.0,
                    now_ms,
                    "chaos.corrupt_frames",
                    &[
                        ("peer", rec.conn.peer.0.into()),
                        ("frames", frames.len().into()),
                    ],
                );
            }
            for raw in frames {
                self.router.deliver(rec.conn.peer, &raw, now_ms);
            }
        }

        // Governed ROUTE-REFRESH recovery (RFC 2918 / RFC 7313): a peer
        // whose Adj-RIB-In took treat-as-withdraw damage asks for a table
        // replay on the *live* session instead of resetting it. The refresh
        // governor applies the same backoff/damping policy as reconnects, so
        // a corruption storm cannot become a refresh storm.
        for (slot, rec) in self.peers.iter_mut().enumerate() {
            if !rec.wants_refresh || levels.held_down(slot) {
                continue;
            }
            if !rec.stub.is_established() {
                // A down session replays the full table on reconnect;
                // nothing left to refresh.
                rec.wants_refresh = false;
                continue;
            }
            if !rec.refresh.can_reconnect(now_ms) {
                continue;
            }
            rec.refresh.record_down(now_ms);
            // While a corruption window is still open, the refresh reply
            // itself crosses the damaged channel and may be lost.
            let lost = levels
                .corrupt
                .iter()
                .find(|(s, _)| *s == slot)
                .map(|(_, rate)| self.corruption_rng.gen::<f64>() < *rate)
                .unwrap_or(false);
            let emit_refresh = |lost: bool| {
                self.telemetry.emit(
                    self.pop.id.0,
                    now_ms,
                    "session.refresh",
                    &[("peer", rec.conn.peer.0.into()), ("lost", lost.into())],
                )
            };
            if lost {
                emit_refresh(true);
                continue; // stays pending; the governor paces the retry
            }
            rec.wants_refresh = false;
            match self.router.request_refresh(rec.conn.peer) {
                Ok(()) => {
                    // The stub surfaces the request; the answer replays
                    // the peer's table.
                    if rec.stub.pump(&mut self.router, now_ms) {
                        let table = rec.table.iter().copied();
                        rec.stub
                            .answer_refresh(&mut self.router, &self.ann_store, table, now_ms);
                    }
                    rec.refresh.record_up(now_ms);
                    emit_refresh(false);
                }
                Err(_) => {
                    // The peer's session is down: fall back to the
                    // governed bounce path.
                    rec.reconnect.record_down(now_ms);
                    rec.wants_up = true;
                }
            }
        }

        // Governed injector recovery: once the injector level clears,
        // reattach as soon as the controller's governor allows (the fresh
        // session keeps the open injection-loss level).
        if let Some(ctl) = self.controller.as_mut().filter(|_| !levels.injector_down) {
            ctl.try_reattach_injector(&mut self.router, now_ms);
        }
    }

    /// Emits a `session.stats` event with each peer's RFC 7606 / refresh
    /// counters: the current session's lifetime totals (they restart with
    /// the session). A peer's event is emitted only when its stats differ
    /// from the ones last emitted (all zero before the first), a restart
    /// back to zero included, so a peer's latest event always holds its
    /// live stats.
    fn publish_session_stats(&mut self, now_ms: u64) {
        for peer in self.router.peer_ids() {
            let Some(stats) = self.router.session_stats(peer) else {
                continue;
            };
            let last = self.published_sessions.insert(peer, stats);
            if last.unwrap_or_default() == stats {
                continue;
            }
            self.telemetry.emit(
                self.pop.id.0,
                now_ms,
                "session.stats",
                &[
                    ("peer", peer.0.into()),
                    ("updates_downgraded", stats.updates_downgraded.into()),
                    ("attrs_discarded", stats.attrs_discarded.into()),
                    ("refreshes_sent", stats.refreshes_sent.into()),
                    ("refreshes_answered", stats.refreshes_answered.into()),
                ],
            );
        }
    }

    /// Runs one epoch at simulated time `t_secs` with the given offered
    /// demand. Returns the end-of-epoch report the global tier consumes,
    /// stamped with the epoch it describes.
    pub fn step(
        &mut self,
        t_secs: u64,
        demand: &[DemandPoint],
        perf_model: &PathPerfModel,
    ) -> ef_global::PopReport {
        // --- 0. Fault levels -----------------------------------------------
        let levels = self.apply_fault_levels(t_secs);
        self.run_fault_mechanics(&levels, t_secs * 1000);
        debug_assert_eq!(
            self.fault_state_mismatch(&levels),
            None,
            "t={t_secs}: fault state diverged from its levels"
        );
        if self.telemetry.enabled() {
            self.publish_session_stats(t_secs * 1000);
        }
        let FaultLevels {
            demand_multiplier,
            sflow_drop,
            bmp_stalled,
            ..
        } = levels;
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
            // Performance steering (§6.2): this epoch's perf overrides, from
            // the measurement digests, for the capacity pass to honor.
            let mut perf = OverrideSet::new();
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
                    perf = build_perf_overrides(controller.collector(), adapted);
                }
            }

            // BMP feed: a stall buffers the incremental feed instead of
            // delivering it, and the controller's BMP input age grows.
            self.stalled_bmp.extend(self.router.drain_bmp());
            let bmp_age_ms = if bmp_stalled {
                t_secs.saturating_sub(self.last_bmp_secs) * 1000
            } else {
                controller.ingest_bmp(std::mem::take(&mut self.stalled_bmp), t_secs * 1000);
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
            match controller.run_epoch(&*traffic, &mut self.router, t_secs * 1000, inputs, &perf) {
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
            active_faults: self
                .faults
                .active()
                .map(|e| e.kind.label().into())
                .collect(),
            degraded: report.is_some_and(|r| r.degraded),
            fail_open: report.map_or(self.controller_enabled, |r| r.fail_open),
        };
        if self.health_enabled {
            self.health_signals =
                Some(self.collect_health_signals(&record, input_age_ms, epoch_skipped));
        }
        let residual_overloaded =
            report.map_or(dropped > 0.0, |r| !r.residual_overloaded.is_empty());
        self.metrics.record_pop_epoch(record);
        self.metrics.update_episodes(self.pop.id, t_secs, active);
        ef_global::PopReport {
            residual_overloaded,
            dropped_mbps: dropped,
            offered_mbps: offered,
            headroom_mbps: headroom,
            epoch: t_secs / self.epoch_secs,
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
        epoch_skipped: bool,
    ) -> ef_health::EpochSignals {
        let sessions_down = self
            .peers
            .iter()
            .filter(|r| !r.stub.is_established())
            .count() as u64;
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
            iface_util,
            billing_burn_usd,
        }
    }

    /// The last epoch's health signals (None until the first step with
    /// health sampling enabled).
    pub fn health_signals(&self) -> Option<&ef_health::EpochSignals> {
        self.health_signals.as_ref()
    }

    /// Whether any stub session dropped (sanity check for long runs).
    pub(crate) fn all_sessions_up(&self) -> bool {
        self.peers.iter().all(|r| r.stub.is_established())
    }

    /// Established peer sessions torn down over the run (fault shutdowns
    /// and bounces). The ROUTE-REFRESH recovery path keeps this at zero
    /// for pure update-corruption faults.
    pub(crate) fn session_resets(&self) -> u64 {
        self.session_resets
    }

    /// Closes open detour episodes at simulation end and finalizes this
    /// PoP's 95/5 bills (slot order, so billing rows are canonical).
    pub fn finish(&mut self, t_secs: u64) {
        self.metrics.finish(t_secs);
        if let Some(mut meter) = self.billing.take() {
            meter.finish();
            for iface in &self.pop.interfaces {
                let billable = meter.billable_mbps(iface.id, BILLING_PERCENTILE);
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
    use ef_bgp::attrstore::RouteRec;
    use ef_chaos::{FaultEvent, FaultSchedule};
    use proptest::prelude::*;

    fn built(controller_enabled: bool) -> PopRuntime {
        let cfg = crate::scenario()
            .small_topology(7)
            .controller_enabled(controller_enabled)
            .build();
        let deployment = ef_topology::generate(&cfg.gen);
        PopRuntime::build(&deployment, deployment.pops[0].id, &cfg)
    }

    /// A severe sFlow loss starves the estimator: the controller's traffic
    /// input stays the last fresh table, timestamp and all, until the
    /// window closes; then the same buffer is refilled.
    #[test]
    fn severe_sflow_loss_replays_the_pre_fault_table_then_refills_it() {
        let pop = 0;
        let cfg = crate::scenario()
            .small_topology(7)
            .duration_secs(1500)
            .epoch_secs(60)
            .exact_rates()
            .tune_controller(|c| {
                c.stale_input_secs = 120;
                c.fail_open_secs = 360;
            })
            .chaos(
                FaultSchedule::new(vec![FaultEvent {
                    t_start_secs: 300,
                    duration_secs: 300,
                    target: ef_chaos::FaultTarget::Pop { pop },
                    kind: FaultKind::SflowLoss { drop_fraction: 1.0 },
                }])
                .expect("valid schedule"),
            )
            .build();
        let mut engine = crate::ScenarioBuilder::from_config(cfg).engine();
        while engine.now_secs() < 300 {
            engine.step();
        }
        // The last fresh epoch before the window ran at t = 240.
        let (t0, pre_fault) = engine.pops[pop].last_traffic.clone();
        assert_eq!(t0, 240);
        assert!(pre_fault != TrafficTable::new());
        while engine.now_secs() < 600 {
            engine.step();
            let (t, table) = &engine.pops[pop].last_traffic;
            assert_eq!(*t, t0, "stale estimate keeps its timestamp");
            assert_eq!(table, &pre_fault, "stale replay is the pre-fault table");
        }
        // First fresh epoch after the window: the same buffer is refilled.
        engine.step();
        let (t, table) = &engine.pops[pop].last_traffic;
        assert_eq!(*t, 600);
        assert_ne!(table, &pre_fault, "demand moved in six minutes");
    }

    #[test]
    fn streamed_table_load_leaves_collector_equal_to_loc_rib() {
        let mut pop = built(true);
        assert!(pop.router.rib_route_count() > 4 * BMP_BATCH, "many batches");
        let ctl = pop.controller.as_ref().expect("controller enabled");
        let collector = ctl.collector();
        let read = |recs: &[RouteRec]| -> Vec<RouteRec> {
            recs.iter().filter(|r| !r.is_override()).copied().collect()
        };
        for (prefix, recs) in pop.router.iter_candidates() {
            assert_eq!(read(collector.candidates(prefix)), read(recs), "{prefix}");
        }
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

    /// Each clause of the in-situ invariant names its own divergence.
    #[test]
    fn fault_state_mismatch_names_each_divergence() {
        let pop = built(true);
        let calm = || pop.fault_levels();
        let diverged = |levels: FaultLevels| pop.fault_state_mismatch(&levels);
        assert_eq!(diverged(calm()), None);
        let cases = [
            (
                FaultLevels {
                    controller_down: true,
                    ..calm()
                },
                "controller presence",
            ),
            (
                FaultLevels {
                    injector_down: true,
                    ..calm()
                },
                "injector session",
            ),
            (
                FaultLevels {
                    injection_loss: 0.5,
                    ..calm()
                },
                "injection loss",
            ),
            (
                FaultLevels {
                    capacity: vec![0.0; pop.pop.interfaces.len()],
                    ..calm()
                },
                "interface capacity",
            ),
            (
                FaultLevels {
                    failed: vec![0],
                    ..calm()
                },
                "held-down peer session",
            ),
        ];
        for (levels, what) in cases {
            assert_eq!(diverged(levels), Some(what));
        }
    }

    /// One of the ten per-PoP kinds, at E16's parameters but for a drawn
    /// loss fraction, on the PoP's `pick`-th peer or interface.
    fn pop_fault(dep: &Deployment, kind: usize, pick: usize, fraction: f64) -> FaultEvent {
        let pop = &dep.pops[0];
        let peer = FaultTarget::Peer {
            pop: 0,
            peer: pop.peers[pick % pop.peers.len()].peer.0,
        };
        let iface = FaultTarget::Interface {
            pop: 0,
            egress: pop.interfaces[pick % pop.interfaces.len()].id.0,
        };
        let at_pop = FaultTarget::Pop { pop: 0 };
        let (kind, target) = match kind {
            0 => (FaultKind::PeerFailure, peer),
            1 => (FaultKind::LinkCapacityLoss { fraction }, iface),
            2 => (FaultKind::BmpStall, at_pop),
            3 => (
                FaultKind::SflowLoss {
                    drop_fraction: 0.95,
                },
                at_pop,
            ),
            4 => (FaultKind::ControllerCrash, at_pop),
            5 => (FaultKind::InjectorLoss, at_pop),
            6 => (FaultKind::FlashCrowd { multiplier: 2.0 }, at_pop),
            7 => (FaultKind::UpdateCorruption { rate: 0.5 }, peer),
            8 => (FaultKind::SessionFlapStorm { period_s: 5 }, peer),
            _ => (FaultKind::InjectorPartialLoss { fraction }, at_pop),
        };
        FaultEvent {
            t_start_secs: 0,
            duration_secs: 0,
            target,
            kind,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// After every tick, the PoP's observable fault state equals the
        /// fault levels of the windows open at that tick — controller
        /// present, injector session and loss, interface capacities,
        /// held-down peers — for random schedules of the ten per-PoP kinds
        /// on a 1-PoP world, windows at least one epoch long and
        /// overlapping freely.
        #[test]
        fn fault_state_equals_its_levels_after_every_tick(
            seed in 0u64..4,
            windows in proptest::collection::vec(
                (0usize..10, 0u64..1200, 60u64..600, 0usize..8, prop_oneof![Just(0.5), Just(1.0)]),
                1..16,
            ),
        ) {
            let gen = ef_topology::GenConfig {
                n_pops: 1,
                n_prefixes: 64,
                ..ef_topology::GenConfig::small(seed)
            };
            let builder = crate::scenario().topology(gen).duration_secs(1800).epoch_secs(60);
            let dep = ef_topology::generate(&builder.clone().build().gen);
            let events = windows.iter().map(|&(kind, start, secs, pick, fraction)| FaultEvent {
                t_start_secs: start,
                duration_secs: secs,
                ..pop_fault(&dep, kind, pick, fraction)
            });
            let schedule = FaultSchedule::new(events.collect()).expect("valid schedule");
            let mut engine = builder.chaos(schedule.clone()).engine_with(dep);
            while engine.now_secs() < 1800 {
                let t = engine.now_secs();
                engine.step();
                let pop = &engine.pops[0];
                let levels = pop.fault_levels();
                prop_assert_eq!(pop.fault_state_mismatch(&levels), None, "t={}", t);
                // The levels are the open windows' alone.
                let open: Vec<FaultKind> =
                    schedule.events.iter().filter(|e| e.active_at(t)).map(|e| e.kind).collect();
                let crashed = open.contains(&FaultKind::ControllerCrash);
                prop_assert_eq!(levels.controller_down, crashed, "t={}", t);
                prop_assert_eq!(levels.injector_down, open.contains(&FaultKind::InjectorLoss));
                let loss = open.iter().map(|k| match k {
                    FaultKind::InjectorPartialLoss { fraction } => *fraction,
                    _ => 0.0,
                });
                prop_assert_eq!(levels.injection_loss, loss.fold(0.0, f64::max), "t={}", t);
            }
        }
    }
}
