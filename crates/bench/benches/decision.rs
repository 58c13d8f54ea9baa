//! Microbenchmark: the BGP decision process.
//!
//! The projection runs best-path selection for every prefix every epoch,
//! so this is the controller's single hottest function.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ef_bgp::attrs::{AsPath, PathAttributes};
use ef_bgp::attrstore::{AttrStore, RouteRec};
use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::{EgressId, RouteSource};
use ef_bgp::{best_rec, best_rec_where, rank_recs_into};
use ef_net_types::Asn;

/// Candidate sets as compact interned records — what the pooled Loc-RIB
/// stores and the hot loops rank.
fn rec_candidates(n: usize) -> Vec<RouteRec> {
    let mut store = AttrStore::new();
    (0..n)
        .map(|i| {
            let attrs = PathAttributes {
                local_pref: Some(200 + ((i * 200) % 800) as u32),
                as_path: AsPath::sequence((0..(i % 4 + 1)).map(|k| Asn(65000 + k as u32))),
                med: Some((i * 7 % 100) as u32),
                ..Default::default()
            };
            let source = RouteSource {
                peer: PeerId(i as u64),
                peer_asn: Asn(65000 + i as u32),
                kind: if i % 3 == 0 {
                    PeerKind::Transit
                } else {
                    PeerKind::PrivatePeer
                },
            };
            store.make_rec(&attrs, source, EgressId(i as u32))
        })
        .collect()
}

fn bench_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("decision");
    for n in [2usize, 4, 8, 16] {
        let recs = rec_candidates(n);
        group.bench_with_input(BenchmarkId::new("rec/best", n), &recs, |b, recs| {
            b.iter(|| best_rec(black_box(recs)))
        });
        group.bench_with_input(BenchmarkId::new("rec/best_where", n), &recs, |b, recs| {
            b.iter(|| best_rec_where(black_box(recs), |r| !r.is_override()))
        });
        group.bench_with_input(BenchmarkId::new("rec/rank_into", n), &recs, |b, recs| {
            let mut out = Vec::with_capacity(recs.len());
            b.iter(|| {
                rank_recs_into(black_box(recs), &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decision);
criterion_main!(benches);
