//! The traced run: the per-layer ledger, measured from outside.
//!
//! The same workload is driven serially for the first half of its day by
//! hand — `DemandModel::offered`, the global tier's `shape_demand` /
//! `place`, `PopRuntime::step`, the health monitor, `observe` — with a
//! span around every call, followed by read-only replays of single layers
//! against the live state. No program file is changed and none of the
//! controller's own `*_us` telemetry fields are read.
//!
//! Because the drive is by hand it could drift from what `SimEngine::step`
//! does; so the run also steps a real engine through the same half-day
//! and fails unless both produce the same `sim_digest`.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::checks::{classify, sim_digest};
use crate::layers::{
    allocate, compare_paths, decode_message, encode_message, project_cached, sample_iface_util,
    AsPath, BgpMessage, BgpRouter, BillingMeter, CompressedTrie, DemandModel, DemandPoint,
    Deployment, EgressId, FaultTarget, FieldValue, GlobalController, GlobalSignals, HealthMonitor,
    OverrideSet, PathAttributes, PathPerfModel, PeerAttachment, PeerId, PeerStub, PerfConfig,
    Policy, PopId, PopReport, PopRuntime, Prefix, ProjectionCache, RateEstimator, RouteCollector,
    RouteRec, RouteSpec, RouterConfig, SamplerConfig, SflowSampler, SimConfig, TelemetryHandle,
    UpdateMessage,
};
use crate::report::{note, Check, Metric, Report};
use crate::stats::{mean, percentile, SplitMix64};
use crate::trace::{self_time_by_name, Tracer, NO_POP};
use crate::untraced::{interface_loads, make_inputs, rss_kb, set_up, CountingSink};
use crate::workloads::Params;

/// Full-universe sweeps (`bgp.fib_lookup_ns`, `bgp.rank_ns`) run on every
/// this-many-th epoch.
const SWEEP_EVERY: u64 = 16;
/// UPDATE messages in the codec round-trip sample.
const CODEC_SAMPLE: usize = 20_000;
/// Events in the `telemetry.emit_ns` sample.
const EMIT_SAMPLE: u64 = 200_000;
/// Empty spans in the `trace.span_ns` sample.
const SPAN_SAMPLE: u32 = 1_000_000;

/// The hand-driven world: what `SimEngine` holds, owned by the benchmark.
struct Serial {
    cfg: SimConfig,
    deployment: Deployment,
    demand: DemandModel,
    perf_model: PathPerfModel,
    pops: Vec<PopRuntime>,
    global: Option<GlobalController>,
    health: Option<HealthMonitor>,
    t_secs: u64,
    moved_mbps: Vec<f64>,
    alerts_fired: u64,
}

impl Serial {
    /// Mirrors `SimEngine::with_deployment`, one PoP at a time.
    fn build(cfg: SimConfig, mut deployment: Deployment, tr: &mut Tracer) -> Serial {
        assert!(
            cfg.chaos
                .iter()
                .flat_map(|s| &s.events)
                .all(|e| !matches!(e.target, FaultTarget::Global { .. })),
            "the traced drive does not interpret global-tier faults"
        );
        let demand = DemandModel::new(&deployment, cfg.demand_seed);
        let pop_ids: Vec<PopId> = deployment.pops.iter().map(|p| p.id).collect();
        let pops = pop_ids
            .iter()
            .map(|id| {
                let span = tr.enter("sim.pop_build", id.0);
                let pop = PopRuntime::build(&deployment, *id, &cfg);
                tr.exit(span);
                pop
            })
            .collect();
        let perf_model = PathPerfModel::new(PerfConfig {
            seed: cfg.demand_seed ^ 0xE0E0,
            ..Default::default()
        });
        let global = cfg.global.clone().map(|g| {
            GlobalController::new(&deployment, g, cfg.telemetry.clone())
                .expect("the workload's global config is valid")
        });
        let health = cfg
            .health
            .clone()
            .map(|h| HealthMonitor::new(h, cfg.telemetry.clone()));
        deployment.routes = Vec::new();
        Serial {
            cfg,
            deployment,
            demand,
            perf_model,
            pops,
            global,
            health,
            t_secs: 0,
            moved_mbps: Vec::new(),
            alerts_fired: 0,
        }
    }

    /// One epoch in `SimEngine::step`'s order, every call in a span.
    fn step_epoch(&mut self, tr: &mut Tracer, mut replays: Option<&mut Replays>) {
        let t = self.t_secs;
        let epoch_start = Instant::now();
        let epoch_span = tr.enter("epoch", NO_POP);
        let pop_ids: Vec<u16> = self.pops.iter().map(|p| p.pop.id.0).collect();
        let mut stores = match self.health.as_mut() {
            Some(monitor) => monitor.pop_stores(&pop_ids),
            None => Vec::new(),
        };

        // Global arm: all demand first, shaped and placed, then the PoPs.
        let mut placed: Vec<(PopId, Vec<DemandPoint>)> = Vec::new();
        if let Some(global) = self.global.as_mut() {
            for pop in &self.pops {
                let span = tr.enter("traffic.offered", pop.pop.id.0);
                let demand = self.demand.offered(&self.deployment, pop.pop.id, t);
                tr.exit(span);
                placed.push((pop.pop.id, demand));
            }
            let span = tr.enter("global.place", NO_POP);
            global.shape_demand(t, &mut placed);
            global.place(t, &mut placed);
            tr.exit(span);
        }

        let mut reports = vec![PopReport::default(); self.pops.len()];
        for (i, pop) in self.pops.iter_mut().enumerate() {
            let id = pop.pop.id;
            let own;
            let demand: &[DemandPoint] = match placed.get(i) {
                Some((_, demand)) => demand,
                None => {
                    let span = tr.enter("traffic.offered", id.0);
                    own = self.demand.offered(&self.deployment, id, t);
                    tr.exit(span);
                    &own
                }
            };
            let span = tr.enter("sim.pop_step", id.0);
            let outcome = pop.step(t, demand, &self.perf_model);
            tr.exit(span);
            if let (Some(store), Some(signals)) = (stores.get_mut(i), pop.health_signals()) {
                let span = tr.enter("health.sample_ifaces", id.0);
                sample_iface_util(store, signals);
                tr.exit(span);
            }
            reports[id.0 as usize] = PopReport {
                residual_overloaded: outcome.residual_overloaded,
                dropped_mbps: outcome.dropped_mbps,
                offered_mbps: outcome.offered_mbps,
                headroom_mbps: outcome.headroom_mbps,
                epoch: t / self.cfg.epoch_secs,
            };
            if let Some(replays) = replays.as_deref_mut() {
                replays.after_step(tr, &self.cfg, i, pop, t, demand);
            }
        }
        drop(stores);

        if let Some(global) = self.global.as_mut() {
            let delivered: Vec<Option<PopReport>> = reports.iter().map(|r| Some(*r)).collect();
            let span = tr.enter("global.observe", NO_POP);
            global.observe(&delivered);
            tr.exit(span);
            self.moved_mbps.push(global.moved_last_mbps());
        }
        if let Some(monitor) = self.health.as_mut() {
            let wall_us = Some(epoch_start.elapsed().as_micros() as u64);
            for pop in &self.pops {
                if let Some(signals) = pop.health_signals() {
                    let span = tr.enter("health.observe", pop.pop.id.0);
                    let edges = monitor.observe_epoch_presampled(signals, wall_us);
                    tr.exit(span);
                    self.alerts_fired += edges.iter().filter(|e| e.is_fired()).count() as u64;
                }
            }
            if let Some(global) = self.global.as_ref() {
                let snap = global.guard_snapshot();
                let span = tr.enter("health.observe_global", NO_POP);
                let edges = monitor.observe_global(&GlobalSignals {
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
                tr.exit(span);
                self.alerts_fired += edges.iter().filter(|e| e.is_fired()).count() as u64;
            }
        }
        tr.exit(epoch_span);
        self.t_secs += self.cfg.epoch_secs;
        tr.epoch += 1;
    }

    fn digest(&self) -> String {
        sim_digest(self.pops.iter().map(|p| &p.metrics))
    }
}

/// Benchmark-owned instances of single layers, replayed after each PoP's
/// step on the inputs that step saw. Read-only toward the program.
struct Replays {
    prefix_of: Vec<Prefix>,
    pops: Vec<PopReplay>,
    rank_buf: Vec<RouteRec>,
    fib_flush_pe: u64,
    lookups: u64,
    ranked: u64,
    billing_calls: u64,
}

struct PopReplay {
    sampler: Option<SflowSampler>,
    estimator: Option<RateEstimator>,
    projection: ProjectionCache,
    /// The cache is only valid for one collector; a restarted controller
    /// brings a new one.
    had_controller: bool,
    meter: Option<BillingMeter>,
    fib_version: u64,
}

impl Replays {
    fn new(world: &Serial, seed: u64) -> Replays {
        let cfg = &world.cfg;
        let pops = world
            .pops
            .iter()
            .enumerate()
            .map(|(i, pop)| PopReplay {
                sampler: cfg.sampled_rates.then(|| {
                    SflowSampler::new(SamplerConfig {
                        sample_rate: cfg.sample_rate,
                        packet_bytes: 1200,
                        seed: seed ^ ((i as u64) << 17) ^ 0xBE_7C4,
                    })
                }),
                estimator: cfg
                    .sampled_rates
                    .then(|| RateEstimator::new(cfg.epoch_secs.max(1))),
                projection: ProjectionCache::new(),
                had_controller: false,
                meter: cfg.billing.then(|| cfg.gen.cost.meter()),
                fib_version: pop.router.fib_version(),
            })
            .collect();
        Replays {
            prefix_of: world
                .deployment
                .universe
                .prefixes
                .iter()
                .map(|p| p.prefix)
                .collect(),
            pops,
            rank_buf: Vec::new(),
            fib_flush_pe: 0,
            lookups: 0,
            ranked: 0,
            billing_calls: 0,
        }
    }

    fn after_step(
        &mut self,
        tr: &mut Tracer,
        cfg: &SimConfig,
        i: usize,
        pop: &PopRuntime,
        t: u64,
        demand: &[DemandPoint],
    ) {
        let id = pop.pop.id.0;
        let own = &mut self.pops[i];
        let prefix_of = &self.prefix_of;

        let version = pop.router.fib_version();
        if version != own.fib_version {
            own.fib_version = version;
            self.fib_flush_pe += 1;
        }

        // The controller's traffic input for this demand.
        let traffic: HashMap<Prefix, f64> = match (&mut own.sampler, &mut own.estimator) {
            (Some(sampler), Some(estimator)) => {
                let span = tr.enter("traffic.sample", id);
                let samples = sampler.sample_all(
                    demand.iter().map(|d| (d.prefix_idx, d.mbps)),
                    cfg.epoch_secs as f64,
                );
                tr.exit(span);
                let span = tr.enter("traffic.estimate", id);
                estimator.ingest(t, &samples);
                let rates = estimator.all_rates_mbps(t);
                tr.exit(span);
                rates
                    .into_iter()
                    .map(|(idx, mbps)| (prefix_of[idx as usize], mbps))
                    .collect()
            }
            _ => demand
                .iter()
                .map(|d| (prefix_of[d.prefix_idx as usize], d.mbps))
                .collect(),
        };

        match pop.controller.as_ref() {
            Some(ctl) => {
                if !own.had_controller {
                    own.projection.clear();
                    own.had_controller = true;
                }
                let span = tr.enter("core.project", id);
                let projection = project_cached(&mut own.projection, ctl.collector(), &traffic);
                tr.exit(span);
                let span = tr.enter("core.allocate", id);
                let outcome = allocate(
                    ctl.config(),
                    ctl.interfaces(),
                    ctl.collector(),
                    &traffic,
                    &projection,
                    &OverrideSet::new(),
                    ctl.active_overrides(),
                );
                tr.exit(span);
                black_box(outcome);
            }
            None => own.had_controller = false,
        }

        if let Some(measurer) = pop.measurer.as_ref() {
            let preferred: HashMap<u32, EgressId> = demand
                .iter()
                .filter_map(|d| {
                    pop.router
                        .best(&prefix_of[d.prefix_idx as usize])
                        .map(|r| (d.prefix_idx, r.egress))
                })
                .collect();
            let span = tr.enter("perf.compare", id);
            let comparisons = compare_paths(measurer, &preferred);
            tr.exit(span);
            black_box(comparisons);
        }

        if let (Some(meter), Some(loads)) = (own.meter.as_mut(), interface_loads(pop)) {
            let span = tr.enter("topology.billing_record", id);
            for (iface, (load, cap)) in pop.pop.interfaces.iter().zip(&loads) {
                meter.record(iface.id, t, cfg.epoch_secs, load.min(*cap));
            }
            tr.exit(span);
            self.billing_calls += loads.len() as u64;
        }

        if u64::from(tr.epoch) % SWEEP_EVERY == 0 {
            let span = tr.enter("bgp.fib_lookup", id);
            for prefix in prefix_of {
                black_box(pop.router.fib_lookup(*prefix));
            }
            tr.exit(span);
            self.lookups += prefix_of.len() as u64;
            let span = tr.enter("bgp.rank", id);
            for prefix in prefix_of {
                pop.router.ranked_into(prefix, &mut self.rank_buf);
                black_box(&self.rank_buf);
            }
            tr.exit(span);
            self.ranked += prefix_of.len() as u64;
        }
    }
}

/// One-off measurements of the set-up path's layers on PoP 0's table,
/// against fresh instances.
struct TableMicro {
    codec_ns: f64,
    table_load_us_per_route: f64,
    compact_rib_ms: f64,
    trie_build_ms: f64,
    lpm_ns: f64,
    trie_mutate_ns: f64,
    trie_bytes_per_key: f64,
}

fn table_micro(deployment: &Deployment, seed: u64) -> TableMicro {
    let pop = &deployment.pops[0];
    let routes = deployment.routes_at(pop.id);
    let prefix_of = |idx: u32| deployment.universe.prefixes[idx as usize].prefix;
    let attrs_of = |spec: &RouteSpec| PathAttributes {
        as_path: AsPath::sequence(spec.as_path.iter().copied()),
        med: spec.med,
        ..Default::default()
    };

    // wire: encode + decode of the announcements as a peer would send them.
    let messages: Vec<BgpMessage> = routes
        .iter()
        .take(CODEC_SAMPLE)
        .map(|spec| {
            let prefix = prefix_of(spec.prefix_idx);
            let mut attrs = attrs_of(spec);
            if prefix.is_v4() {
                attrs.next_hop = Some(std::net::Ipv4Addr::new(192, 0, 2, 1));
            }
            BgpMessage::Update(UpdateMessage::announce(prefix, attrs))
        })
        .collect();
    let start = Instant::now();
    for msg in &messages {
        let mut bytes = encode_message(msg).expect("announcements encode");
        black_box(decode_message(&mut bytes).expect("and decode back"));
    }
    let codec_ns = start.elapsed().as_nanos() as f64 / messages.len() as f64;

    // router: the table load `PopRuntime::build` performs, then compaction.
    let mut router = BgpRouter::new(RouterConfig {
        name: "bench-pr0".to_string(),
        asn: deployment.local_asn,
        router_id: std::net::Ipv4Addr::new(10, 100, 0, 0),
    });
    let mut stubs: HashMap<PeerId, PeerStub> = HashMap::new();
    for conn in &pop.peers {
        router.add_peer(PeerAttachment {
            peer: conn.peer,
            peer_asn: conn.asn,
            kind: conn.kind(),
            egress: conn.egress,
            policy: Policy::default_import(deployment.local_asn, conn.kind()),
            max_prefixes: 0,
        });
        let mut stub = PeerStub::new(
            conn.peer,
            conn.asn,
            std::net::Ipv4Addr::new(10, 210, (conn.peer.0 >> 8) as u8, conn.peer.0 as u8),
        );
        stub.pump(&mut router, 0);
        stubs.insert(conn.peer, stub);
    }
    let start = Instant::now();
    for spec in routes {
        if let Some(stub) = stubs.get_mut(&spec.via) {
            stub.announce(&mut router, prefix_of(spec.prefix_idx), attrs_of(spec), 0);
        }
    }
    let table_load_us_per_route = start.elapsed().as_secs_f64() * 1e6 / routes.len() as f64;
    let start = Instant::now();
    router.compact_rib();
    let compact_rib_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(router);

    // trie: bulk build, LPM in shuffled order, insert + remove in
    // announcement (universe) order.
    let keys: Vec<Prefix> = deployment
        .universe
        .prefixes
        .iter()
        .map(|p| p.prefix)
        .collect();
    let entries: Vec<(Prefix, u32)> = keys.iter().copied().zip(0u32..).collect();
    let start = Instant::now();
    let trie = CompressedTrie::from_sorted(entries);
    let trie_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut shuffled = keys.clone();
    SplitMix64(seed).shuffle(&mut shuffled);
    let start = Instant::now();
    for key in &shuffled {
        black_box(trie.longest_match(*key));
    }
    let lpm_ns = start.elapsed().as_nanos() as f64 / shuffled.len() as f64;
    let trie_bytes_per_key = trie.approx_bytes() as f64 / trie.len() as f64;
    drop(trie);
    let mut grown: CompressedTrie<u32> = CompressedTrie::new();
    let start = Instant::now();
    for (key, i) in keys.iter().zip(0u32..) {
        grown.insert(*key, i);
    }
    for key in &keys {
        black_box(grown.remove(key));
    }
    let trie_mutate_ns = start.elapsed().as_nanos() as f64 / (2 * keys.len()) as f64;

    TableMicro {
        codec_ns,
        table_load_us_per_route,
        compact_rib_ms,
        trie_build_ms,
        lpm_ns,
        trie_mutate_ns,
        trie_bytes_per_key,
    }
}

/// A fresh collector ingesting PoP 0's BMP snapshot, ns per route.
fn bmp_ingest_ns_per_route(pop: &PopRuntime, now_ms: u64) -> f64 {
    let peer_egress: HashMap<PeerId, EgressId> =
        pop.pop.peers.iter().map(|c| (c.peer, c.egress)).collect();
    let snapshot = pop.router.bmp_snapshot(now_ms);
    let mut collector = RouteCollector::new(peer_egress);
    let start = Instant::now();
    collector.ingest(snapshot);
    let ns = start.elapsed().as_nanos() as f64;
    black_box(&collector);
    ns / pop.router.rib_route_count().max(1) as f64
}

/// `TelemetryHandle::emit` of a six-field event into a counting sink.
fn telemetry_emit_ns() -> f64 {
    let handle = TelemetryHandle::with_sink(Box::new(CountingSink(Default::default())));
    let start = Instant::now();
    for i in 0..EMIT_SAMPLE {
        handle.emit(
            3,
            i,
            "bench.event",
            &[
                ("a", FieldValue::U64(i)),
                ("b", FieldValue::U64(7)),
                ("c", FieldValue::F64(0.5)),
                ("d", FieldValue::F64(1.5)),
                ("e", FieldValue::Bool(true)),
                ("f", FieldValue::Str("steady".into())),
            ],
        );
    }
    start.elapsed().as_nanos() as f64 / EMIT_SAMPLE as f64
}

fn empty_span_ns() -> f64 {
    let mut tr = Tracer::default();
    let start = Instant::now();
    for _ in 0..SPAN_SAMPLE {
        let span = tr.enter("empty", NO_POP);
        tr.exit(span);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(SPAN_SAMPLE);
    black_box(tr.spans().len());
    ns
}

pub fn run(params: &Params, out_dir: &Path) -> Report {
    let epochs = params.epochs();
    let half = epochs / 2;

    // 1. The reference: a real engine over the half-day. First, so its
    //    memory numbers are not blurred by what the later steps free.
    let (mut engine, _, setup) = set_up(params, 1);
    let rss_after_setup_kb = rss_kb();
    let mut reference_wall_ns = 0.0;
    for _ in 0..half {
        let start = Instant::now();
        engine.step();
        reference_wall_ns += start.elapsed().as_nanos() as f64;
    }
    let rss_end_kb = rss_kb();
    let reference_digest = sim_digest(engine.pops.iter().map(|p| &p.metrics));
    let start = Instant::now();
    black_box(engine.take_metrics());
    let take_metrics_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(engine);

    // 2. The traced serial drive.
    let mut tr = Tracer::default();
    let inputs = make_inputs(params);
    let telemetry_records = inputs.telemetry_records.clone();
    let mut world = Serial::build(inputs.cfg, inputs.deployment, &mut tr);
    let mut replays = Replays::new(&world, params.seed);
    let drive_start = Instant::now();
    for _ in 0..half {
        world.step_epoch(&mut tr, Some(&mut replays));
    }
    let traced_wall_ns = drive_start.elapsed().as_nanos() as f64;
    let traced_digest = world.digest();
    let pops = world.pops.len();
    let pop_epochs = half * pops as u64;
    let telemetry = telemetry_records.load(Ordering::Relaxed);

    // Every traced pop-epoch goes through the failed-op classifier too.
    let records = || world.pops.iter().flat_map(|p| &p.metrics.pop_epochs);
    let failed = records().filter(|r| classify(r, None).is_some()).count() as u64;
    let overrides_active_mean =
        records().map(|r| r.overrides_active).sum::<usize>() as f64 / pop_epochs as f64;
    let degraded_pe = records().filter(|r| r.degraded).count();
    let fail_open_pe = records().filter(|r| r.fail_open).count();
    let fault_pe = records().filter(|r| !r.active_faults.is_empty()).count();

    // 3. Single-layer measurements against the live state, then against
    //    fresh instances.
    let rib_routes = world.pops[0].router.rib_route_count();
    let rib_bytes_per_route = world.pops[0].router.rib_approx_bytes() as f64 / rib_routes as f64;
    let rib_distinct_attrs = world.pops[0].router.rib_distinct_attrs();
    let bmp_ingest_ns = bmp_ingest_ns_per_route(&world.pops[0], world.t_secs * 1000);
    let moved_mbps_mean = mean(&world.moved_mbps);
    let alerts_fired = world.alerts_fired;
    drop(world);
    let micro = table_micro(&make_inputs(params).deployment, params.seed);
    let emit_ns = telemetry_emit_ns();
    let span_ns = empty_span_ns();

    // 4. On `wide`, the same drive with telemetry disabled: what record
    //    production costs each step, and proof that it only observes.
    let step_us = tr.durations_us("sim.pop_step");
    let mut telemetry_overhead_pct = 0.0;
    let mut quiet_digest = None;
    if telemetry > 0 {
        let mut quiet_tr = Tracer::default();
        let mut inputs = make_inputs(params);
        inputs.cfg.telemetry = TelemetryHandle::disabled();
        let mut quiet = Serial::build(inputs.cfg, inputs.deployment, &mut quiet_tr);
        for _ in 0..half {
            quiet.step_epoch(&mut quiet_tr, None);
        }
        let quiet_step = mean(&quiet_tr.durations_us("sim.pop_step"));
        telemetry_overhead_pct = 100.0 * (mean(&step_us) - quiet_step) / quiet_step;
        quiet_digest = Some(quiet.digest());
    }

    // The ledger.
    let replayed_us = [
        "core.project",
        "core.allocate",
        "traffic.sample",
        "traffic.estimate",
        "perf.compare",
    ]
    .iter()
    .map(|name| tr.total_ns(name) as f64 / 1e3)
    .sum::<f64>()
        / pop_epochs as f64;
    let per_pe_us = |name: &str| tr.total_ns(name) as f64 / 1e3 / pop_epochs as f64;
    let per_epoch_us = |name: &str| tr.total_ns(name) as f64 / 1e3 / half as f64;
    let per_call_ns = |name: &str, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            tr.total_ns(name) as f64 / calls as f64
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_ns = (tr.total_ns("traffic.offered") + tr.total_ns("sim.pop_step")) as f64;
    let metrics = vec![
        Metric::new("topology.generate_ms", setup[0].generate_secs * 1e3, "ms"),
        Metric::new(
            "topology.billing_record_ns",
            per_call_ns("topology.billing_record", replays.billing_calls),
            "ns",
        ),
        Metric::new("sim.engine_build_ms", setup[0].build_secs * 1e3, "ms"),
        Metric::new(
            "sim.pop_build_ms_max",
            percentile(&tr.durations_us("sim.pop_build"), 100.0) / 1e3,
            "ms",
        ),
        Metric::new("sim.pop_step_us_p50", percentile(&step_us, 50.0), "us"),
        Metric::new("sim.pop_step_us_p95", percentile(&step_us, 95.0), "us"),
        Metric::new(
            "sim.step_unattributed_pct",
            100.0 * (1.0 - replayed_us / mean(&step_us)),
            "%",
        ),
        Metric::new(
            "sim.parallel_efficiency_pct",
            100.0 * serial_ns / (cores.min(pops) as f64 * reference_wall_ns),
            "%",
        ),
        Metric::new("sim.rss_after_setup_mb", rss_after_setup_kb / 1024.0, "MiB"),
        Metric::new(
            "sim.rss_growth_kb_per_pe",
            (rss_end_kb - rss_after_setup_kb) / pop_epochs as f64,
            "KiB",
        ),
        Metric::new("sim.take_metrics_ms", take_metrics_ms, "ms"),
        Metric::new("traffic.offered_us", per_pe_us("traffic.offered"), "us"),
        Metric::new("traffic.sample_us", per_pe_us("traffic.sample"), "us"),
        Metric::new("traffic.estimate_us", per_pe_us("traffic.estimate"), "us"),
        Metric::new(
            "bgp.fib_lookup_ns",
            per_call_ns("bgp.fib_lookup", replays.lookups),
            "ns",
        ),
        Metric::new(
            "bgp.fib_flush_pe_pct",
            100.0 * replays.fib_flush_pe as f64 / pop_epochs as f64,
            "%",
        ),
        Metric::new("bgp.rank_ns", per_call_ns("bgp.rank", replays.ranked), "ns"),
        Metric::new("bgp.update_codec_ns", micro.codec_ns, "ns"),
        Metric::new(
            "bgp.table_load_us_per_route",
            micro.table_load_us_per_route,
            "us",
        ),
        Metric::new("bgp.compact_rib_ms", micro.compact_rib_ms, "ms"),
        Metric::new("bgp.rib_bytes_per_route", rib_bytes_per_route, "B"),
        Metric::new("bgp.rib_distinct_attrs", rib_distinct_attrs as f64, "count"),
        Metric::new("net_types.trie_build_ms", micro.trie_build_ms, "ms"),
        Metric::new("net_types.lpm_ns", micro.lpm_ns, "ns"),
        Metric::new("net_types.trie_insert_ns", micro.trie_mutate_ns, "ns"),
        Metric::new(
            "net_types.trie_bytes_per_key",
            micro.trie_bytes_per_key,
            "B",
        ),
        Metric::new("core.project_us", per_pe_us("core.project"), "us"),
        Metric::new("core.allocate_us", per_pe_us("core.allocate"), "us"),
        Metric::new("core.bmp_ingest_ns_per_route", bmp_ingest_ns, "ns"),
        Metric::new("core.overrides_active_mean", overrides_active_mean, "count"),
        Metric::new("core.degraded_pe", degraded_pe as f64, "count"),
        Metric::new("core.fail_open_pe", fail_open_pe as f64, "count"),
        Metric::new("perf.compare_us", per_pe_us("perf.compare"), "us"),
        Metric::new("global.place_us", per_epoch_us("global.place"), "us"),
        Metric::new("global.observe_us", per_epoch_us("global.observe"), "us"),
        Metric::new("global.moved_mbps_mean", moved_mbps_mean, "Mbps"),
        Metric::new("health.observe_us", per_pe_us("health.observe"), "us"),
        Metric::new("health.alerts_fired", alerts_fired as f64, "count"),
        Metric::new(
            "telemetry.records_per_pe",
            telemetry as f64 / pop_epochs as f64,
            "count",
        ),
        Metric::new("telemetry.emit_ns", emit_ns, "ns"),
        Metric::new("telemetry.overhead_pct", telemetry_overhead_pct, "%"),
        Metric::new(
            "chaos.fault_pe_pct",
            100.0 * fault_pe as f64 / pop_epochs as f64,
            "%",
        ),
        Metric::new("trace.span_ns", span_ns, "ns"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * tr.spans().len() as f64 * span_ns / traced_wall_ns,
            "%",
        ),
    ];

    let mut checks = vec![
        Check::new(
            "the traced drive reproduces the engine's sim_digest",
            traced_digest == reference_digest,
        ),
        Check::new("no failed pop-epochs", failed == 0),
    ];
    if let Some(quiet) = &quiet_digest {
        checks.push(Check::new(
            "telemetry only observes (same digest without it)",
            *quiet == reference_digest,
        ));
    }

    let trace_path = out_dir.join(format!("trace-{}.jsonl", params.workload.name()));
    let written = std::fs::File::create(&trace_path)
        .and_then(|file| tr.write_jsonl(&mut BufWriter::new(file)));
    checks.push(Check::new("the trace file was written", written.is_ok()));

    let mut notes = vec![
        note("epochs_traced", half),
        note("pops", pops),
        note("cores", cores),
        note("spans", tr.spans().len()),
        note("pop_step_samples", step_us.len()),
        note("half_digest", traced_digest),
        note("reference_half_digest", reference_digest),
        note("trace_file", trace_path.display()),
    ];
    for (name, ns) in self_time_by_name(tr.spans()) {
        notes.push(note(
            format!("self_ms.{name}"),
            format!("{:.3}", ns as f64 / 1e6),
        ));
    }

    Report {
        params: *params,
        traced: true,
        attempted: pop_epochs,
        failed,
        metrics,
        checks,
        notes,
    }
}
