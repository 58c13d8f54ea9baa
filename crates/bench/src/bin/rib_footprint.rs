//! Full-table RIB memory footprint: bytes per route in the pooled,
//! attribute-interned Loc-RIB, on two tables.
//!
//! * `synthetic` — 100k prefixes × 3 peers drawing from 5 000 seeded
//!   AS-path/MED patterns, the heavy sharing of a real DFZ feed (~65
//!   routes per distinct set).
//! * `generated` — the Loc-RIB of the world the engine actually runs: the
//!   topology generator at the `fulltable` benchmark shape (1 PoP, 60 000
//!   prefixes, world 7), loaded by `PopRuntime::build` over real sessions.
//!   Its attribute sets are barely shared (~3 routes per distinct set).
//!
//! Each row reports:
//!
//! * `bytes_per_route` — resident bytes per candidate route in the arena
//!   layout (pool + slots + index + interned attribute store);
//! * `routes_per_distinct` — how much interning has to share;
//! * `naive_bytes_per_route` — the same table as the old representation
//!   (`HashMap<Prefix, Vec<Route>>` with a deep `PathAttributes` clone per
//!   route), estimated from the same entries.
//!
//! Output: `results/BENCH_rib_bytes.json`, which also carries each row's
//! committed `budget_bytes_per_route`. With `--check`, the binary
//! re-measures and exits nonzero if either row exceeds its committed
//! budget — the CI memory gate for the full-table layout. Both builds are
//! deterministic (seeded patterns and worlds, deterministic allocation
//! growth), so the measurement is machine-independent.

use std::mem;

use ef_bench::{results_dir, write_json};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrStore, RouteRec};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, Route, RouteSource};
use ef_bgp::LocRib;
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

#[derive(Serialize, Deserialize)]
struct FootprintReport {
    synthetic: Row,
    generated: Row,
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

fn synthetic() -> LocRib {
    let pool = patterns();
    let mut rib = LocRib::new();
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
            rib.install_ref(prefix, attrs, source, EgressId(p as u32 + 1));
        }
    }
    rib.compact();
    rib
}

/// Measures one table. The old representation is one `Route` (inline
/// prefix + attrs + source + egress) plus a deep attribute clone per
/// candidate, in per-prefix Vecs behind a HashMap.
fn row<'a>(
    name: &str,
    table: impl Iterator<Item = (&'a Prefix, &'a [RouteRec])>,
    store: &AttrStore,
    rib_bytes: usize,
    budget: Option<f64>,
) -> Row {
    let (mut prefixes, mut routes, mut naive_bytes) = (0, 0, 0);
    for (_, recs) in table {
        prefixes += 1;
        routes += recs.len();
        naive_bytes += mem::size_of::<Prefix>() + mem::size_of::<Vec<Route>>();
        for rec in recs {
            naive_bytes += mem::size_of::<Route>() + deep_attr_bytes(store.attrs(rec.attr));
        }
    }
    let bytes_per_route = rib_bytes as f64 / routes as f64;
    let row = Row {
        prefixes,
        routes,
        distinct_attrs: store.distinct(),
        routes_per_distinct: routes as f64 / store.distinct() as f64,
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
        "rib-footprint [{name}]: arena {:.1} B/route ({:.1} MiB), naive {:.1} B/route ({:.1} MiB), {:.2}x smaller",
        row.bytes_per_route,
        row.rib_bytes as f64 / (1024.0 * 1024.0),
        row.naive_bytes_per_route,
        row.naive_bytes as f64 / (1024.0 * 1024.0),
        row.compression_ratio
    );
    row
}

fn measure(budgets: Option<(f64, f64)>) -> FootprintReport {
    let rib = synthetic();
    let synthetic = row(
        "synthetic",
        rib.iter(),
        rib.store(),
        rib.approx_bytes(),
        budgets.map(|b| b.0),
    );
    drop(rib);

    let cfg = ef_sim::scenario().topology(generated_world()).build();
    let deployment = ef_topology::generate(&cfg.gen);
    let pop = PopRuntime::build(&deployment, deployment.pops[0].id, &cfg);
    let router = &pop.router;
    let generated = row(
        "generated",
        router.iter_candidates(),
        router.rib_store(),
        router.rib_approx_bytes(),
        budgets.map(|b| b.1),
    );
    FootprintReport {
        synthetic,
        generated,
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
        if over {
            eprintln!("[rib-footprint] FAIL: bytes/route exceeds the committed budget");
            std::process::exit(1);
        }
        return;
    }
    let report = measure(None);
    write_json("BENCH_rib_bytes", &report);
}
