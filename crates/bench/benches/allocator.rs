//! Microbenchmark + ablation: the detour allocator.
//!
//! Benchmarks a cold projection (`project_cached` over a fresh cache: one
//! full stateless recompute) + `allocate` at PoP scale and ablates the two
//! prefix-selection strategies and the utilization limit — the design
//! choices DESIGN.md calls out.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use edge_fabric::allocator::{allocate, DetourStrategy};
use edge_fabric::collector::RouteCollector;
use edge_fabric::overrides::OverrideSet;
use edge_fabric::projection::{project_cached, ProjectionCache};
use edge_fabric::{ControllerConfig, InterfaceInfo, InterfaceMap, Projection};
use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::message::UpdateMessage;
use ef_bgp::peer::PeerId;
use ef_bgp::{BmpMessage, BmpPeerHeader, EgressSpec};
use ef_net_types::Prefix;

/// Builds a PoP-scale world: `n_prefixes` prefixes, each with a private
/// route (half of them on a tight shared PNI) plus two transit routes.
fn world(n_prefixes: u32) -> (RouteCollector, InterfaceMap, HashMap<Prefix, f64>) {
    let specs = [
        EgressSpec::pni(1, 65001),
        EgressSpec::transit(2, 65010),
        EgressSpec::transit(3, 65011),
    ];
    let mut collector = RouteCollector::new(
        specs
            .iter()
            .map(|s| (PeerId(s.egress.0 as u64), s.egress))
            .collect(),
    );
    let mut traffic = HashMap::new();
    for i in 0..n_prefixes {
        let prefix = Prefix::V4 {
            addr: 0x1400_0000 + i * 256,
            len: 24,
        };
        for spec in specs {
            let kind = spec.kind();
            let mut attrs = PathAttributes {
                local_pref: Some(kind.default_local_pref()),
                as_path: AsPath::sequence([spec.asn]),
                ..Default::default()
            };
            attrs.add_community(kind.tag_community());
            collector.ingest([BmpMessage::RouteMonitoring {
                peer: BmpPeerHeader {
                    peer: PeerId(spec.egress.0 as u64),
                    peer_asn: spec.asn,
                    peer_bgp_id: "10.0.0.1".parse().unwrap(),
                    timestamp_ms: 0,
                },
                update: UpdateMessage::announce(prefix, attrs),
            }]);
        }
        traffic.insert(prefix, 1.0 + (i % 17) as f64);
    }
    // PNI capacity set to ~70% of total preferred demand: real overload.
    let total: f64 = traffic.values().sum();
    let interfaces = specs
        .iter()
        .zip([total * 0.7, total * 2.0, total * 2.0])
        .map(|(s, cap)| (s.egress, InterfaceInfo::with_policy(cap, s.policy())))
        .collect();
    (collector, interfaces, traffic)
}

/// One cold projection: a fresh cache recomputes every prefix.
fn project(collector: &RouteCollector, traffic: &HashMap<Prefix, f64>) -> Projection {
    project_cached(&mut ProjectionCache::new(), collector, traffic)
}

fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.sample_size(20);

    for n in [500u32, 2000, 8000] {
        let (collector, interfaces, traffic) = world(n);
        group.bench_with_input(BenchmarkId::new("project", n), &n, |b, _| {
            b.iter(|| project(black_box(&collector), black_box(&traffic)))
        });
        let projection = project(&collector, &traffic);
        for strategy in [
            DetourStrategy::BestAlternativeFirst,
            DetourStrategy::LargestFirst,
        ] {
            let cfg = ControllerConfig {
                strategy,
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("allocate/{strategy:?}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        allocate(
                            black_box(&cfg),
                            &interfaces,
                            &collector,
                            &traffic,
                            &projection,
                            &OverrideSet::new(),
                            &OverrideSet::new(),
                        )
                    })
                },
            );
        }
    }

    // Ablation: utilization limit vs override count and detoured volume.
    let (collector, interfaces, traffic) = world(2000);
    let projection = project(&collector, &traffic);
    println!("\n-- ablation: utilization limit (2000 prefixes, PNI at 143% demand) --");
    println!(
        "{:>6} {:>11} {:>16} {:>10}",
        "limit", "overrides", "detoured (Mbps)", "residual"
    );
    for limit in [0.90, 0.95, 0.99] {
        let cfg = ControllerConfig {
            util_limit: limit,
            ..Default::default()
        };
        let out = allocate(
            &cfg,
            &interfaces,
            &collector,
            &traffic,
            &projection,
            &OverrideSet::new(),
            &OverrideSet::new(),
        );
        println!(
            "{:>6.2} {:>11} {:>16.0} {:>10}",
            limit,
            out.overrides.len(),
            out.capacity_detoured_mbps,
            out.residual_overloaded.len()
        );
    }
    // Ablation: strategy vs override count.
    println!("\n-- ablation: detour strategy (same world) --");
    for strategy in [
        DetourStrategy::BestAlternativeFirst,
        DetourStrategy::LargestFirst,
    ] {
        let cfg = ControllerConfig {
            strategy,
            ..Default::default()
        };
        let out = allocate(
            &cfg,
            &interfaces,
            &collector,
            &traffic,
            &projection,
            &OverrideSet::new(),
            &OverrideSet::new(),
        );
        println!(
            "{:<24?} overrides: {:>5}  detoured: {:>8.0} Mbps",
            strategy,
            out.overrides.len(),
            out.capacity_detoured_mbps
        );
    }

    group.finish();
}

criterion_group!(benches, bench_allocator);
criterion_main!(benches);
