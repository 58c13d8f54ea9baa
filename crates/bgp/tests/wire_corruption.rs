//! Seeded corruption-corpus smoke test for the graded wire decoder.
//!
//! Ten thousand frames are derived from valid encodes and then mangled
//! (byte flips, truncations, splices). The graded decoder must never
//! panic, and every frame it *accepts* must re-encode canonically: a
//! strict decode of the re-encoded bytes yields the same message.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ef_bgp::attrs::{AsPath, Origin, PathAttributes};
use ef_bgp::message::{
    BgpMessage, NotificationMessage, OpenMessage, RouteRefreshMessage, UpdateMessage,
};
use ef_bgp::wire::{decode_message, decode_message_graded, encode_message, Disposition};
use ef_net_types::{Asn, Community, Prefix};

const CORPUS_SIZE: usize = 10_000;
const SEED: u64 = 0xC044_FEED;

fn prefix(s: &str) -> Prefix {
    s.parse().expect("test prefix")
}

/// A pool of valid, structurally diverse messages to derive the corpus from.
fn seed_messages() -> Vec<BgpMessage> {
    let full_attrs = PathAttributes {
        origin: Origin::Igp,
        as_path: AsPath::sequence([Asn(65001), Asn(70_000), Asn(32934)]),
        next_hop: Some(std::net::Ipv4Addr::new(192, 0, 2, 7)),
        med: Some(120),
        local_pref: Some(800),
        communities: vec![Community::new(32934, 1), Community::new(32934, 999)],
        unknown: Vec::new(),
    };
    let bare_attrs = PathAttributes {
        origin: Origin::Incomplete,
        as_path: AsPath::sequence([Asn(65001)]),
        next_hop: Some(std::net::Ipv4Addr::new(10, 0, 0, 1)),
        ..Default::default()
    };
    vec![
        BgpMessage::Keepalive,
        BgpMessage::Open(OpenMessage {
            asn: Asn(400_000),
            hold_time: 90,
            router_id: std::net::Ipv4Addr::new(10, 0, 0, 1),
            capabilities: vec![(65, 400_000u32.to_be_bytes().to_vec())],
        }),
        BgpMessage::Notification(NotificationMessage {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3, 4],
        }),
        BgpMessage::Update(UpdateMessage {
            withdrawn: vec![prefix("198.51.100.0/24")],
            attrs: full_attrs.clone(),
            announced: vec![prefix("203.0.113.0/24"), prefix("203.0.112.0/23")],
        }),
        BgpMessage::Update(UpdateMessage {
            withdrawn: vec![prefix("2001:db8:dead::/48")],
            attrs: full_attrs,
            announced: vec![prefix("2001:db8::/32"), prefix("192.0.2.0/24")],
        }),
        BgpMessage::Update(UpdateMessage {
            withdrawn: Vec::new(),
            attrs: bare_attrs,
            announced: vec![prefix("100.64.0.0/10")],
        }),
        BgpMessage::Update(UpdateMessage::withdraw([
            prefix("10.0.0.0/8"),
            prefix("2001:db8:2::/48"),
        ])),
        BgpMessage::RouteRefresh(RouteRefreshMessage::request()),
        BgpMessage::RouteRefresh(RouteRefreshMessage::borr()),
        BgpMessage::RouteRefresh(RouteRefreshMessage::eorr()),
    ]
}

/// Mangles an encoded frame: flip bytes, truncate, or splice garbage.
fn mangle(rng: &mut StdRng, raw: &mut Vec<u8>) {
    match rng.gen_range(0u8..4) {
        0 => {
            // Flip 1..=8 random bytes anywhere in the frame.
            for _ in 0..rng.gen_range(1usize..=8) {
                let i = rng.gen_range(0..raw.len());
                raw[i] ^= rng.gen_range(1u8..=0xFF);
            }
        }
        1 => {
            // Truncate the tail.
            let keep = rng.gen_range(0..raw.len());
            raw.truncate(keep);
        }
        2 => {
            // Splice garbage bytes into the body (after the header).
            let at = rng.gen_range(raw.len().min(19)..=raw.len());
            let garbage: Vec<u8> = (0..rng.gen_range(1usize..=16)).map(|_| rng.gen()).collect();
            raw.splice(at..at, garbage);
        }
        _ => {
            // Flip bytes in the body only, keeping the header frame intact —
            // the interesting RFC 7606 surface.
            if raw.len() > 19 {
                for _ in 0..rng.gen_range(1usize..=8) {
                    let i = rng.gen_range(19..raw.len());
                    raw[i] ^= rng.gen_range(1u8..=0xFF);
                }
            }
        }
    }
}

#[test]
fn ten_thousand_mangled_frames_never_panic_and_accepts_are_canonical() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let pool: Vec<Vec<u8>> = seed_messages()
        .iter()
        .map(|m| encode_message(m).expect("seed messages are valid").to_vec())
        .collect();

    let mut accepted = 0usize;
    let mut graded_errors = 0usize;
    for _ in 0..CORPUS_SIZE {
        let mut raw = pool[rng.gen_range(0..pool.len())].clone();
        mangle(&mut rng, &mut raw);
        let mut buf = Bytes::from(raw);
        // Drain the stream as a session would; every path must be panic-free.
        loop {
            match decode_message_graded(&mut buf) {
                Ok(None) => break,
                Ok(Some(decoded)) => {
                    accepted += 1;
                    // Canonical property: accepted frames re-encode, and the
                    // re-encoded bytes strictly decode back to the same message.
                    let mut bytes =
                        encode_message(&decoded.msg).expect("accepted message must re-encode");
                    let again = decode_message(&mut bytes)
                        .expect("re-encoded message must strictly decode");
                    assert_eq!(again, decoded.msg, "re-encode must be canonical");
                }
                Err(e) => {
                    graded_errors += 1;
                    // A reset-grade error tears the session down; the rest of
                    // the stream dies with it. (Framing errors in particular do
                    // not consume bytes — a session never resyncs past them.)
                    if e.disposition == Disposition::SessionReset {
                        break;
                    }
                }
            }
            if buf.is_empty() {
                break;
            }
        }
    }

    // The corpus must actually exercise both sides of the grading: plenty of
    // rejected frames, and a meaningful number of surviving ones.
    assert!(
        graded_errors > 1_000,
        "corpus too tame: {graded_errors} errors"
    );
    assert!(accepted > 100, "corpus too hostile: {accepted} accepted");
}
