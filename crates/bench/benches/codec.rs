//! Microbenchmark: the BGP wire codec.
//!
//! Every override injection crosses it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
use ef_bgp::message::{BgpMessage, UpdateMessage};
use ef_bgp::wire::{decode_message, encode_message};
use ef_net_types::{Asn, Community, Prefix};

fn update(n_prefixes: u32) -> UpdateMessage {
    UpdateMessage {
        withdrawn: Vec::new(),
        attrs: PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::sequence([Asn(65001), Asn(65002)]),
            next_hop: Some("192.0.2.1".parse().unwrap()),
            med: Some(50),
            local_pref: Some(800),
            communities: vec![Community::new(32934, 1), Community::new(32934, 999)],
            unknown: Vec::new(),
        },
        announced: (0..n_prefixes)
            .map(|i| Prefix::V4 {
                addr: 0x1400_0000 + i * 256,
                len: 24,
            })
            .collect(),
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for n in [1u32, 16, 256] {
        let msg = BgpMessage::Update(update(n));
        let bytes = encode_message(&msg).unwrap();
        group.bench_with_input(BenchmarkId::new("bgp_encode", n), &msg, |b, msg| {
            b.iter(|| encode_message(black_box(msg)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bgp_decode", n), &bytes, |b, bytes| {
            b.iter(|| {
                let mut buf = bytes.clone();
                decode_message(black_box(&mut buf)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
