//! Full-table RIB memory footprint: bytes per route in the Loc-RIB of
//! decision records plus the interned attribute store, on two tables.
//!
//! * `synthetic` — 100k prefixes × 3 peers drawing from 5 000 seeded
//!   AS-path/MED patterns, the heavy sharing of a real DFZ feed (~65
//!   routes per distinct set).
//! * `generated` — the Loc-RIB of the world the engine actually runs: the
//!   topology generator at the `fulltable` benchmark shape (1 PoP, 60 000
//!   prefixes, world 7), loaded by `PopRuntime::build` over real sessions.
//!   Its attribute sets are barely shared (~3 routes per distinct set).
//!
//! Each of those two rows reports:
//!
//! * `bytes_per_route` — resident bytes per candidate route (the
//!   Loc-RIB's record vectors and map, plus the attribute store the
//!   Adj-RIB-In's handles point into);
//! * `routes_per_distinct` — how much interning has to share;
//! * `naive_bytes_per_route` — the same table as the old representation
//!   (`HashMap<Prefix, Vec<Route>>` with a deep `PathAttributes` clone per
//!   route), estimated from the same entries.
//!
//! A third row, `pop_build`, counts the whole PoP `PopRuntime::build`
//! makes of the `generated` world, through this binary's counting global
//! allocator (std only): bytes live once it returns, the peak of live
//! bytes during it (both above what was live before it), and allocations
//! per Loc-RIB route (a reallocation counts as one).
//!
//! Output: `results/BENCH_rib_bytes.json`, which also carries each row's
//! committed `budget_bytes_per_route`. With `--check`, the binary
//! re-measures and exits nonzero if either row exceeds its committed
//! budget, or a `pop_build` count its committed value by more than
//! [`COUNT_HEADROOM`] — the CI memory gate for the full-table layout.
//! Every build is deterministic (seeded patterns and worlds, deterministic
//! allocation growth, one thread), so the measurement is
//! machine-independent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ef_bench::{results_dir, write_json};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrStore, RouteRec};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, Route, RouteSource};
use ef_bgp::{BmpMessage, LocRib};
use ef_net_types::{Asn, Prefix};
use ef_sim::runtime::PopRuntime;
use ef_topology::GenConfig;
use serde::{Deserialize, Serialize};

const N_PREFIXES: u32 = 100_000;
const N_PEERS: u64 = 3;
/// Distinct attribute patterns in the synthetic feed. Real full tables see
/// tens of distinct paths per thousand prefixes; this is deliberately on
/// the diverse side so the interning win is not overstated.
const N_PATTERNS: usize = 5_000;
/// The `fulltable` benchmark workload's topology, world 7.
fn generated_world() -> GenConfig {
    GenConfig {
        seed: 7,
        n_pops: 1,
        n_ases: 6_000,
        n_prefixes: 60_000,
        total_avg_gbps: 100.0,
        ..GenConfig::default()
    }
}
/// Headroom multiplier when (re)committing a budget.
const BUDGET_HEADROOM: f64 = 1.25;
/// How far `--check` lets a `pop_build` count exceed its committed value:
/// the counts repeat exactly on one world and move < 0.3 % between worlds.
const COUNT_HEADROOM: f64 = 1.05;

/// The system allocator, counting live bytes, their peak and allocations.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static COUNTING: Counting = Counting;

/// Books `ptr`, a new block of `size` bytes replacing one of `freed`.
fn booked(ptr: *mut u8, freed: usize, size: usize) -> *mut u8 {
    if !ptr.is_null() {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size - freed;
        LIVE.fetch_sub(freed, Relaxed);
        PEAK.fetch_max(live, Relaxed);
    }
    ptr
}

// SAFETY: each call forwards to `System` unchanged (`alloc_zeroed` keeps
// the default, which goes through `alloc`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        booked(System.alloc(layout), 0, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        booked(
            System.realloc(ptr, layout, new_size),
            layout.size(),
            new_size,
        )
    }
}

#[derive(Serialize, Deserialize)]
struct FootprintReport {
    synthetic: Row,
    generated: Row,
    pop_build: BuildRow,
}

/// The heap one `PopRuntime::build` of the `generated` world uses.
#[derive(Serialize, Deserialize)]
struct BuildRow {
    routes: usize,
    /// Bytes live once the build returns: the runtime it built.
    live_bytes: usize,
    /// Peak live bytes during the build.
    peak_bytes: usize,
    allocations: usize,
    allocs_per_route: f64,
}

#[derive(Serialize, Deserialize)]
struct Row {
    prefixes: usize,
    routes: usize,
    distinct_attrs: usize,
    routes_per_distinct: f64,
    rib_bytes: usize,
    bytes_per_route: f64,
    naive_bytes: usize,
    naive_bytes_per_route: f64,
    compression_ratio: f64,
    budget_bytes_per_route: f64,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The distinct attribute patterns the feed draws from.
fn patterns() -> Vec<PathAttributes> {
    let mut rng = 0xEF00u64;
    (0..N_PATTERNS)
        .map(|_| {
            let r = splitmix(&mut rng);
            let hops = 1 + (r % 4) as usize;
            let path: Vec<Asn> = (0..hops)
                .map(|h| Asn(64_000 + ((r >> (8 * h)) % 2_000) as u32))
                .collect();
            let mut attrs = PathAttributes {
                as_path: AsPath::sequence(path),
                med: Some((r % 16) as u32),
                ..Default::default()
            };
            let kind = match r % 3 {
                0 => PeerKind::PrivatePeer,
                1 => PeerKind::PublicPeer,
                _ => PeerKind::Transit,
            };
            attrs.local_pref = Some(kind.default_local_pref());
            attrs.add_community(kind.tag_community());
            attrs
        })
        .collect()
}

/// Deep heap bytes of one materialized attribute set — what every route
/// paid individually in the pre-interning representation.
fn deep_attr_bytes(attrs: &PathAttributes) -> usize {
    let path: usize = attrs
        .as_path
        .segments
        .iter()
        .map(|s| mem::size_of_val(s) + std::mem::size_of_val(s.asns()))
        .sum();
    path + attrs.communities.capacity() * mem::size_of::<ef_net_types::Community>()
}

/// The synthetic table as a router holds it: the Loc-RIB's decision
/// records, and a store holding one reference per route on its attributes.
/// Also returns the routes' deep attribute bytes, summed.
fn synthetic() -> (LocRib, AttrStore, usize) {
    let pool = patterns();
    let mut rib = LocRib::new();
    let mut store = AttrStore::new();
    let mut attr_bytes = 0;
    let mut rng = 0xFABu64;
    for i in 0..N_PREFIXES {
        let addr = i.wrapping_mul(2_654_435_761);
        let len = if i % 3 == 0 { 16 } else { 24 };
        let prefix = Prefix::v4(std::net::Ipv4Addr::from(addr), len);
        for p in 0..N_PEERS {
            let attrs = &pool[(splitmix(&mut rng) as usize) % pool.len()];
            let kind = match p {
                0 => PeerKind::PrivatePeer,
                1 => PeerKind::PublicPeer,
                _ => PeerKind::Transit,
            };
            let source = RouteSource {
                peer: PeerId(p + 1),
                peer_asn: Asn(65_000 + p as u32),
                kind,
            };
            let id = store.intern(attrs);
            attr_bytes += deep_attr_bytes(store.attrs(id));
            rib.install(prefix, RouteRec::new(attrs, source, EgressId(p as u32 + 1)));
        }
    }
    (rib, store, attr_bytes)
}

/// Measures one table. The old representation is one `Route` (inline
/// prefix + attrs + source + egress) plus a deep attribute clone per
/// candidate, in per-prefix Vecs behind a HashMap; `attr_bytes` is the
/// clones' deep bytes, summed over the table's routes.
fn row<'a>(
    name: &str,
    table: impl Iterator<Item = (&'a Prefix, &'a [RouteRec])>,
    distinct_attrs: usize,
    attr_bytes: usize,
    rib_bytes: usize,
    budget: Option<f64>,
) -> Row {
    let (mut prefixes, mut routes) = (0, 0);
    for (_, recs) in table {
        prefixes += 1;
        routes += recs.len();
    }
    let naive_bytes = prefixes * (mem::size_of::<Prefix>() + mem::size_of::<Vec<Route>>())
        + routes * mem::size_of::<Route>()
        + attr_bytes;
    let bytes_per_route = rib_bytes as f64 / routes as f64;
    let row = Row {
        prefixes,
        routes,
        distinct_attrs,
        routes_per_distinct: routes as f64 / distinct_attrs as f64,
        rib_bytes,
        bytes_per_route,
        naive_bytes,
        naive_bytes_per_route: naive_bytes as f64 / routes as f64,
        compression_ratio: naive_bytes as f64 / rib_bytes as f64,
        budget_bytes_per_route: budget
            .unwrap_or_else(|| (bytes_per_route * BUDGET_HEADROOM).ceil()),
    };
    println!(
        "rib-footprint [{name}]: {} routes over {} prefixes, {} distinct attr sets ({:.1} routes/set)",
        row.routes, row.prefixes, row.distinct_attrs, row.routes_per_distinct
    );
    println!(
        "rib-footprint [{name}]: rib {:.1} B/route ({:.1} MiB), naive {:.1} B/route ({:.1} MiB), {:.2}x smaller",
        row.bytes_per_route,
        row.rib_bytes as f64 / (1024.0 * 1024.0),
        row.naive_bytes_per_route,
        row.naive_bytes as f64 / (1024.0 * 1024.0),
        row.compression_ratio
    );
    row
}

fn measure(budgets: Option<(f64, f64)>) -> FootprintReport {
    let (rib, store, attr_bytes) = synthetic();
    let synthetic = row(
        "synthetic",
        rib.iter(),
        store.distinct(),
        attr_bytes,
        rib.approx_bytes() + store.approx_bytes(),
        budgets.map(|b| b.0),
    );
    drop((rib, store));

    let cfg = ef_sim::scenario().topology(generated_world()).build();
    let deployment = ef_topology::generate(&cfg.gen);
    let (before, allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
    PEAK.store(before, Relaxed);
    let pop = PopRuntime::build(&deployment, deployment.pops[0].id, &cfg);
    let (live_bytes, peak_bytes) = (LIVE.load(Relaxed) - before, PEAK.load(Relaxed) - before);
    let allocations = ALLOCS.load(Relaxed) - allocs;
    let routes = pop.router.rib_route_count();
    let pop_build = BuildRow {
        routes,
        live_bytes,
        peak_bytes,
        allocations,
        allocs_per_route: allocations as f64 / routes as f64,
    };
    println!(
        "rib-footprint [pop_build]: {:.1} MB live after, {:.1} MB peak during, {:.2} allocations/route over {routes} routes",
        live_bytes as f64 / 1e6,
        peak_bytes as f64 / 1e6,
        pop_build.allocs_per_route,
    );
    let router = &pop.router;
    // Every Loc-RIB candidate is one route of an Adj-RIB-In, which the
    // snapshot reports with its attributes.
    let attr_bytes = router
        .bmp_snapshot(0)
        .iter()
        .map(|m| match m {
            BmpMessage::RouteMonitoring { update, .. } => {
                update.announced.len() * deep_attr_bytes(&update.attrs)
            }
            _ => 0,
        })
        .sum();
    let generated = row(
        "generated",
        router.iter_candidates(),
        router.rib_distinct_attrs(),
        attr_bytes,
        router.rib_approx_bytes(),
        budgets.map(|b| b.1),
    );
    FootprintReport {
        synthetic,
        generated,
        pop_build,
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    if check {
        let path = results_dir().join("BENCH_rib_bytes.json");
        let committed: Option<FootprintReport> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok());
        let Some(committed) = committed else {
            eprintln!("[rib-footprint] no committed baseline at {path:?}; check passes vacuously");
            return;
        };
        let report = measure(Some((
            committed.synthetic.budget_bytes_per_route,
            committed.generated.budget_bytes_per_route,
        )));
        let mut over = false;
        for (name, row) in [
            ("synthetic", &report.synthetic),
            ("generated", &report.generated),
        ] {
            println!(
                "rib-footprint gate [{name}]: measured {:.1} B/route, budget {:.1}",
                row.bytes_per_route, row.budget_bytes_per_route
            );
            over |= row.bytes_per_route > row.budget_bytes_per_route;
        }
        let (now, was) = (&report.pop_build, &committed.pop_build);
        for (name, measured, committed) in [
            ("live bytes", now.live_bytes as f64, was.live_bytes as f64),
            ("peak bytes", now.peak_bytes as f64, was.peak_bytes as f64),
            (
                "allocations/route",
                now.allocs_per_route,
                was.allocs_per_route,
            ),
        ] {
            let budget = committed * COUNT_HEADROOM;
            println!("rib-footprint gate [pop_build]: {name} {measured:.2}, budget {budget:.2}");
            over |= measured > budget;
        }
        if over {
            eprintln!("[rib-footprint] FAIL: a row exceeds its committed budget");
            std::process::exit(1);
        }
        return;
    }
    let report = measure(None);
    write_json("BENCH_rib_bytes", &report);
}
