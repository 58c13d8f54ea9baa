//! Property-based robustness tests of the session FSM: arbitrary event
//! interleavings and byte mutations must never panic the machine, never
//! produce a second `Up` without an intervening `Down`, and always leave
//! the FSM in a coherent state.

use proptest::prelude::*;

use ef_bgp::message::UpdateMessage;
use ef_bgp::{Session, SessionConfig, SessionEvent};
use ef_net_types::Asn;

/// Drives two sessions to `Established` by shuttling their outboxes.
fn establish_pair(a: &mut Session, b: &mut Session) -> Vec<SessionEvent> {
    a.open();
    b.open();
    let mut events = Vec::new();
    // OPEN + KEEPALIVE exchange settles within a few rounds.
    for _ in 0..4 {
        for bytes in a.take_outbox() {
            events.extend(b.receive_bytes(&bytes));
        }
        for bytes in b.take_outbox() {
            events.extend(a.receive_bytes(&bytes));
        }
        if a.is_established() && b.is_established() {
            break;
        }
    }
    events
}

/// The fuzzable driver operations.
#[derive(Debug, Clone)]
enum Op {
    /// Shuttle pending bytes A→B.
    DeliverAB,
    /// Shuttle pending bytes B→A.
    DeliverBA,
    /// A sends an (empty but valid) UPDATE if established.
    SendUpdate,
    /// Restart A (send a fresh OPEN) if idle.
    RestartA,
    /// Corrupt the next byte chunk A receives (protocol error path).
    CorruptBA,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::DeliverAB),
        Just(Op::DeliverBA),
        Just(Op::SendUpdate),
        Just(Op::RestartA),
        Just(Op::CorruptBA),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fsm_survives_arbitrary_interleavings(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut a = Session::new(SessionConfig::new(Asn(32934), "10.0.0.1".parse().unwrap()));
        let mut b = Session::new(SessionConfig::new(Asn(65001), "10.0.0.2".parse().unwrap()));
        a.open();
        b.open();

        let mut a_up = false; // our model of whether A is up
        for op in ops {
            match op {
                Op::DeliverAB => {
                    for bytes in a.take_outbox() {
                        let _ = b.receive_bytes(&bytes);
                    }
                }
                Op::DeliverBA => {
                    for bytes in b.take_outbox() {
                        for ev in a.receive_bytes(&bytes) {
                            match ev {
                                SessionEvent::Up(_) => {
                                    prop_assert!(!a_up, "double Up without Down");
                                    a_up = true;
                                }
                                SessionEvent::Down(_) => {
                                    a_up = false;
                                }
                                SessionEvent::Update(_) => {
                                    prop_assert!(a_up, "update only while up");
                                }
                                SessionEvent::Refresh(_) => {
                                    prop_assert!(a_up, "refresh only while up");
                                }
                            }
                        }
                    }
                }
                Op::SendUpdate => {
                    if a.is_established() {
                        let _ = a.send_update(UpdateMessage::withdraw([
                            "9.9.9.0/24".parse().unwrap(),
                        ]));
                    }
                }
                // `open` is a no-op unless A is idle.
                Op::RestartA => a.open(),
                Op::CorruptBA => {
                    for bytes in b.take_outbox() {
                        let mut v = bytes.to_vec();
                        if !v.is_empty() {
                            let idx = v.len() / 2;
                            v[idx] ^= 0xFF;
                        }
                        for ev in a.receive_bytes(&v) {
                            match ev {
                                SessionEvent::Up(_) => {
                                    prop_assert!(!a_up);
                                    a_up = true;
                                }
                                SessionEvent::Down(_) => a_up = false,
                                SessionEvent::Update(_) | SessionEvent::Refresh(_) => {}
                            }
                        }
                    }
                }
            }
            // Model/state coherence: "up" agrees with the FSM.
            prop_assert_eq!(a_up, a.is_established(), "model tracks FSM");
        }
    }

    /// Whatever happened, a fresh pair on clean transports can always
    /// establish afterwards — no poisoned global state.
    #[test]
    fn establishment_always_possible_on_fresh_sessions(seed in 0u64..500) {
        let _ = seed;
        let mut a = Session::new(SessionConfig::new(Asn(32934), "10.0.0.1".parse().unwrap()));
        let mut b = Session::new(SessionConfig::new(Asn(65001), "10.0.0.2".parse().unwrap()));
        let events = establish_pair(&mut a, &mut b);
        prop_assert!(a.is_established() && b.is_established());
        prop_assert_eq!(
            events.iter().filter(|e| matches!(e, SessionEvent::Up(_))).count(),
            2
        );
    }
}
