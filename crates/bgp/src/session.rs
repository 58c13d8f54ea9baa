//! A clock-free BGP session finite-state machine over an abstract byte
//! transport.
//!
//! The FSM covers the states that matter to the reproduction — `Idle`,
//! `OpenSent`, `OpenConfirm`, `Established`. Transport is abstract and
//! always connected: [`Session::open`] queues the OPEN and moves straight
//! from `Idle` to `OpenSent`, and the embedding (the topology's
//! in-memory links, or a test harness) moves the bytes this FSM queues in
//! its outbox and feeds received bytes back in. All messages cross the
//! boundary wire-encoded, so the codec is exercised on every exchange —
//! including every Edge Fabric override injection. (A simulated peer's
//! initial full feed is the one exception: `PeerStub::announce_table`
//! hands the router its packed UPDATEs decoded.)
//!
//! The session keeps no timers. Its OPEN advertises hold time 0, which
//! RFC 4271 §4.2 defines as no hold timer and no keepalives, so a session
//! ends only by an administrative stop (an injected fault: a flap, a
//! bounce, a lost injector, the injector peer's removal) or by a
//! NOTIFICATION (for example a max-prefix breach or an unrecoverable
//! decode error). The paper's overrides revert when the controller's
//! session goes away; the reproduction models that by removing the
//! injector's peer, not by a hold timer expiring. The decoder still parses
//! and carries the peer's proposed hold time in its OPEN.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

use ef_net_types::Asn;

use crate::message::{
    BgpMessage, NotificationMessage, OpenMessage, RefreshSubtype, RouteRefreshMessage,
    UpdateMessage,
};
use crate::wire::{decode_message_graded, encode_message, Disposition, WireError};

/// Simulated time in milliseconds since scenario start.
pub type Millis = u64;

/// The optional capabilities every OPEN advertises after the 4-octet-AS
/// one (RFC 6793), as `(code, payload)` pairs: multiprotocol IPv6 unicast
/// (RFC 4760; AFI 2, SAFI 1), route refresh (RFC 2918) and enhanced route
/// refresh (RFC 7313). Every speaker in the reproduction advertises this
/// one set, so nothing is negotiated: refresh and its BoRR/EoRR markers
/// are always on.
const OPEN_CAPABILITIES: [(u8, &[u8]); 3] = [(1, &[0, 2, 0, 1]), (2, &[]), (70, &[])];

/// Static configuration for one session endpoint.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Local ASN advertised in OPEN.
    pub local_asn: Asn,
    /// Local router ID advertised in OPEN.
    pub local_router_id: std::net::Ipv4Addr,
}

impl SessionConfig {
    /// A configuration for one endpoint.
    pub fn new(local_asn: Asn, local_router_id: std::net::Ipv4Addr) -> Self {
        SessionConfig {
            local_asn,
            local_router_id,
        }
    }
}

/// FSM states (RFC 4271 §8.2.2; `Connect` and `Active` are folded away
/// because the abstract transport is always connected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionState {
    /// Not started or administratively down.
    Idle,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, waiting for KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

/// Application-visible events produced by the FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// Session reached `Established`; the peer's OPEN is attached.
    Up(OpenMessage),
    /// Session left `Established` (or failed to come up).
    Down(DownReason),
    /// An UPDATE arrived while established.
    Update(UpdateMessage),
    /// A ROUTE-REFRESH arrived while established: a request the embedding
    /// must answer by replaying its Adj-RIB-Out, or an RFC 7313 BoRR/EoRR
    /// demarcation bracketing the peer's replay.
    Refresh(RouteRefreshMessage),
}

/// Errors from local session operations (the send side; the receive side
/// grades wire errors per RFC 7606 instead of failing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// UPDATEs may only be sent on an established session.
    NotEstablished,
    /// The message failed to wire-encode (oversize or malformed).
    Encode(WireError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NotEstablished => write!(f, "session not established"),
            SessionError::Encode(e) => write!(f, "encode failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a session went down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownReason {
    /// We sent or received a NOTIFICATION.
    Notification(NotificationMessage),
    /// Local administrative stop.
    AdminStop,
    /// A protocol error (decode failure etc.).
    ProtocolError(String),
}

/// Snapshot of a session's RFC 7606 grading and ROUTE-REFRESH counters,
/// surfaced per peer in the simulator's `session.stats` telemetry events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Malformed UPDATEs downgraded to withdrawals (treat-as-withdraw).
    pub updates_downgraded: u64,
    /// Malformed non-critical attributes dropped (attribute-discard).
    pub attrs_discarded: u64,
    /// ROUTE-REFRESH requests this endpoint sent.
    pub refreshes_sent: u64,
    /// ROUTE-REFRESH requests received from the peer and surfaced for
    /// answering.
    pub refreshes_answered: u64,
}

/// One endpoint of a BGP session.
#[derive(Debug)]
pub struct Session {
    cfg: SessionConfig,
    state: SessionState,
    /// Peer's OPEN once received.
    peer_open: Option<OpenMessage>,
    /// Wire-encoded messages waiting for the transport.
    outbox: VecDeque<Bytes>,
    /// Bytes received but not yet framed into a whole message.
    inbuf: BytesMut,
    /// Malformed UPDATEs downgraded to withdrawals (RFC 7606
    /// treat-as-withdraw) over the session's lifetime.
    updates_downgraded: u64,
    /// Malformed non-critical attributes dropped (RFC 7606
    /// attribute-discard) over the session's lifetime.
    attrs_discarded: u64,
    /// ROUTE-REFRESH requests this endpoint sent.
    refreshes_sent: u64,
    /// ROUTE-REFRESH requests received from the peer (each one is
    /// surfaced as [`SessionEvent::Refresh`] for the embedding to answer).
    refreshes_answered: u64,
}

impl Session {
    /// Creates a session in `Idle`.
    pub fn new(cfg: SessionConfig) -> Self {
        Session {
            cfg,
            state: SessionState::Idle,
            peer_open: None,
            outbox: VecDeque::new(),
            inbuf: BytesMut::new(),
            updates_downgraded: 0,
            attrs_discarded: 0,
            refreshes_sent: 0,
            refreshes_answered: 0,
        }
    }

    /// Snapshot of all four lifetime counters at once.
    pub(crate) fn stats(&self) -> SessionStats {
        SessionStats {
            updates_downgraded: self.updates_downgraded,
            attrs_discarded: self.attrs_discarded,
            refreshes_sent: self.refreshes_sent,
            refreshes_answered: self.refreshes_answered,
        }
    }

    /// True if UPDATEs may be sent.
    pub fn is_established(&self) -> bool {
        self.state == SessionState::Established
    }

    /// Administrative start over the (always connected) transport: queue
    /// an OPEN with hold time 0, `Idle` → `OpenSent`. A no-op unless idle.
    pub fn open(&mut self) {
        if self.state != SessionState::Idle {
            return;
        }
        let asn = self.cfg.local_asn.0.to_be_bytes().to_vec();
        let mut capabilities = vec![(OpenMessage::CAP_FOUR_OCTET_AS, asn)];
        let optional = OPEN_CAPABILITIES
            .iter()
            .map(|(code, p)| (*code, p.to_vec()));
        capabilities.extend(optional);
        let open = OpenMessage {
            asn: self.cfg.local_asn,
            hold_time: 0,
            router_id: self.cfg.local_router_id,
            capabilities,
        };
        self.enqueue(BgpMessage::Open(open));
        self.state = SessionState::OpenSent;
    }

    /// Administrative stop: emit NOTIFICATION (Cease) and go `Idle`.
    pub(crate) fn stop(&mut self) -> Option<SessionEvent> {
        if self.state == SessionState::Idle {
            return None;
        }
        self.reset_with_notification(NotificationMessage::admin_shutdown());
        Some(SessionEvent::Down(DownReason::AdminStop))
    }

    /// Queues an UPDATE. Errors unless established.
    pub fn send_update(&mut self, update: UpdateMessage) -> Result<(), SessionError> {
        if !self.is_established() {
            return Err(SessionError::NotEstablished);
        }
        let bytes = encode_message(&BgpMessage::Update(update)).map_err(SessionError::Encode)?;
        self.outbox.push_back(bytes);
        Ok(())
    }

    /// Queues a ROUTE-REFRESH request asking the peer to replay its
    /// Adj-RIB-Out — the RFC 7606 §2 remedy for treat-as-withdraw damage
    /// that a session bounce would otherwise amplify. Errors unless the
    /// session is established.
    pub(crate) fn request_refresh(&mut self) -> Result<(), SessionError> {
        if !self.is_established() {
            return Err(SessionError::NotEstablished);
        }
        self.enqueue(BgpMessage::RouteRefresh(RouteRefreshMessage::request()));
        self.refreshes_sent += 1;
        Ok(())
    }

    /// Queues a BoRR or EoRR demarcation marker (RFC 7313) around an
    /// Adj-RIB-Out replay (the answering side of a refresh).
    pub(crate) fn send_refresh_marker(
        &mut self,
        subtype: RefreshSubtype,
    ) -> Result<(), SessionError> {
        if !self.is_established() {
            return Err(SessionError::NotEstablished);
        }
        let msg = match subtype {
            RefreshSubtype::BoRR => RouteRefreshMessage::borr(),
            RefreshSubtype::EoRR => RouteRefreshMessage::eorr(),
            RefreshSubtype::Request => RouteRefreshMessage::request(),
        };
        self.enqueue(BgpMessage::RouteRefresh(msg));
        Ok(())
    }

    /// Drains the wire bytes the transport should carry to the peer.
    pub fn take_outbox(&mut self) -> Vec<Bytes> {
        self.outbox.drain(..).collect()
    }

    /// Feeds received transport bytes; returns application events.
    ///
    /// Decode failures are graded per RFC 7606: a malformed UPDATE on an
    /// established session becomes a withdrawal of its salvaged prefixes
    /// (the session survives); only framing-level damage and malformed
    /// non-UPDATE messages reset the session.
    pub fn receive_bytes(&mut self, data: &[u8]) -> Vec<SessionEvent> {
        // Frame out of one frozen window over the unread bytes: each decode
        // consumes its frame from the window's front without copying, and
        // only an incomplete tail goes back into `inbuf` to wait for more.
        self.inbuf.extend_from_slice(data);
        let mut window = std::mem::take(&mut self.inbuf).freeze();
        let mut events = Vec::new();
        loop {
            match decode_message_graded(&mut window) {
                Ok(None) => break, // incomplete frame; wait for more bytes
                Ok(Some(decoded)) => {
                    self.attrs_discarded += decoded.discarded_attrs as u64;
                    if let Some(ev) = self.handle_message(decoded.msg) {
                        events.push(ev);
                        if matches!(events.last(), Some(SessionEvent::Down(_))) {
                            // The reset dropped whatever else was buffered.
                            return events;
                        }
                    }
                }
                Err(e) => {
                    if e.disposition == Disposition::TreatAsWithdraw
                        && self.state == SessionState::Established
                    {
                        // RFC 7606 §2: keep the session, withdraw the
                        // routes the malformed UPDATE touched.
                        self.updates_downgraded += 1;
                        if !e.withdraw.is_empty() {
                            events.push(SessionEvent::Update(UpdateMessage::withdraw(e.withdraw)));
                        }
                        continue;
                    }
                    self.reset_with_notification(NotificationMessage::update_error(0));
                    events.push(SessionEvent::Down(DownReason::ProtocolError(
                        e.error.to_string(),
                    )));
                    return events;
                }
            }
        }
        self.inbuf.extend_from_slice(&window);
        events
    }

    fn handle_message(&mut self, msg: BgpMessage) -> Option<SessionEvent> {
        match (self.state, msg) {
            (SessionState::OpenSent, BgpMessage::Open(open)) => {
                self.peer_open = Some(open);
                self.enqueue(BgpMessage::Keepalive);
                self.state = SessionState::OpenConfirm;
                None
            }
            (SessionState::OpenConfirm, BgpMessage::Keepalive) => {
                // INVARIANT: peer_open is set by the OpenSent→OpenConfirm
                // transition, the only path into OpenConfirm. Guard anyway:
                // a missing OPEN is an FSM error, not a panic.
                match self.peer_open.clone() {
                    Some(open) => {
                        self.state = SessionState::Established;
                        Some(SessionEvent::Up(open))
                    }
                    None => {
                        self.reset_with_notification(NotificationMessage {
                            code: 5, // FSM error
                            subcode: 0,
                            data: Vec::new(),
                        });
                        Some(SessionEvent::Down(DownReason::ProtocolError(
                            "confirm without OPEN".into(),
                        )))
                    }
                }
            }
            (SessionState::Established, BgpMessage::Keepalive) => None,
            (SessionState::Established, BgpMessage::Update(update)) => {
                Some(SessionEvent::Update(update))
            }
            (SessionState::Established, BgpMessage::RouteRefresh(r)) => {
                if r.subtype == RefreshSubtype::Request {
                    self.refreshes_answered += 1;
                }
                Some(SessionEvent::Refresh(r))
            }
            (_, BgpMessage::Notification(n)) => {
                self.reset();
                Some(SessionEvent::Down(DownReason::Notification(n)))
            }
            // Anything else out of order is a protocol error.
            (state, msg) => {
                self.reset_with_notification(NotificationMessage {
                    code: 5, // FSM error
                    subcode: 0,
                    data: Vec::new(),
                });
                Some(SessionEvent::Down(DownReason::ProtocolError(format!(
                    "unexpected {:?} in {:?}",
                    msg.type_code(),
                    state
                ))))
            }
        }
    }

    fn enqueue(&mut self, msg: BgpMessage) {
        // INVARIANT: only internally-built OPEN / KEEPALIVE / NOTIFICATION
        // messages reach this path; all are tiny and carry no NLRI, so
        // encoding cannot fail. Should the invariant ever break, dropping
        // the message is strictly better than panicking the FSM.
        if let Ok(bytes) = encode_message(&msg) {
            self.outbox.push_back(bytes);
        }
    }

    /// Tears the session down and leaves exactly one NOTIFICATION queued.
    ///
    /// The order matters: resetting first flushes any stale queued UPDATEs
    /// (e.g. a replay in flight when the session was stopped) so a subsequent
    /// re-establishment cannot deliver them into the fresh session.
    fn reset_with_notification(&mut self, n: NotificationMessage) {
        self.reset();
        self.enqueue(BgpMessage::Notification(n));
    }

    fn reset(&mut self) {
        self.state = SessionState::Idle;
        self.peer_open = None;
        self.inbuf.clear();
        self.outbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use std::net::Ipv4Addr;

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

    fn pair() -> (Session, Session) {
        let a = Session::new(SessionConfig::new(Asn(32934), Ipv4Addr::new(10, 0, 0, 1)));
        let b = Session::new(SessionConfig::new(Asn(65001), Ipv4Addr::new(10, 0, 0, 2)));
        (a, b)
    }

    #[test]
    fn sessions_establish() {
        let (mut a, mut b) = pair();
        let events = establish_pair(&mut a, &mut b);
        assert!(a.is_established());
        assert!(b.is_established());
        // Each side saw exactly one Up event carrying the other's ASN and
        // hold time 0: no hold timer, no keepalives (RFC 4271 §4.2).
        let mut ups: Vec<Asn> = events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Up(open) if open.hold_time == 0 => Some(open.asn),
                _ => None,
            })
            .collect();
        ups.sort();
        assert_eq!(ups, vec![Asn(32934), Asn(65001)]);
    }

    #[test]
    fn update_flows_when_established() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let update = UpdateMessage::announce(
            "203.0.113.0/24".parse().unwrap(),
            PathAttributes {
                next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                ..Default::default()
            },
        );
        a.send_update(update.clone()).unwrap();
        let mut got = Vec::new();
        for bytes in a.take_outbox() {
            got.extend(b.receive_bytes(&bytes));
        }
        assert_eq!(got, vec![SessionEvent::Update(update)]);
    }

    #[test]
    fn update_before_established_is_a_typed_error() {
        let (mut a, _) = pair();
        assert_eq!(
            a.send_update(UpdateMessage::default()),
            Err(SessionError::NotEstablished)
        );
    }

    #[test]
    fn admin_stop_notifies_peer() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let ev = a.stop().unwrap();
        assert_eq!(ev, SessionEvent::Down(DownReason::AdminStop));
        for bytes in a.take_outbox() {
            let evs = b.receive_bytes(&bytes);
            assert!(matches!(
                evs.as_slice(),
                [SessionEvent::Down(DownReason::Notification(n))] if n.code == 6
            ));
        }
        assert_eq!(b.state, SessionState::Idle);
    }

    #[test]
    fn partial_bytes_are_buffered() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let update = UpdateMessage::announce(
            "198.51.100.0/24".parse().unwrap(),
            PathAttributes {
                next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                ..Default::default()
            },
        );
        a.send_update(update.clone()).unwrap();
        let bytes = a.take_outbox().remove(0);
        let (first, second) = bytes.split_at(7);
        assert!(b.receive_bytes(first).is_empty());
        let evs = b.receive_bytes(second);
        assert_eq!(evs, vec![SessionEvent::Update(update)]);
    }

    #[test]
    fn refresh_request_round_trips_with_demarcation() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);

        a.request_refresh().unwrap();
        assert_eq!(a.stats().refreshes_sent, 1);
        let mut got = Vec::new();
        for bytes in a.take_outbox() {
            got.extend(b.receive_bytes(&bytes));
        }
        assert_eq!(
            got,
            vec![SessionEvent::Refresh(RouteRefreshMessage::request())]
        );
        assert_eq!(b.stats().refreshes_answered, 1);

        // The responder brackets its replay with BoRR/EoRR.
        b.send_refresh_marker(RefreshSubtype::BoRR).unwrap();
        b.send_refresh_marker(RefreshSubtype::EoRR).unwrap();
        let mut markers = Vec::new();
        for bytes in b.take_outbox() {
            markers.extend(a.receive_bytes(&bytes));
        }
        assert_eq!(
            markers,
            vec![
                SessionEvent::Refresh(RouteRefreshMessage::borr()),
                SessionEvent::Refresh(RouteRefreshMessage::eorr()),
            ]
        );
        // Markers are not counted as requests needing an answer.
        assert_eq!(a.stats().refreshes_answered, 0);
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn refresh_before_established_is_not_established() {
        let (mut a, _) = pair();
        assert_eq!(a.request_refresh(), Err(SessionError::NotEstablished));
    }

    #[test]
    fn refresh_in_open_sent_is_fsm_error() {
        let (mut a, mut b) = pair();
        a.open();
        b.open();
        let refresh =
            encode_message(&BgpMessage::RouteRefresh(RouteRefreshMessage::request())).unwrap();
        let evs = b.receive_bytes(&refresh);
        assert!(matches!(
            evs.as_slice(),
            [SessionEvent::Down(DownReason::ProtocolError(_))]
        ));
    }

    #[test]
    fn out_of_order_message_is_fsm_error() {
        let (mut a, mut b) = pair();
        a.open();
        b.open();
        // Deliver a KEEPALIVE to a peer in OpenSent (expects OPEN).
        let keepalive = encode_message(&BgpMessage::Keepalive).unwrap();
        let evs = b.receive_bytes(&keepalive);
        assert!(matches!(
            evs.as_slice(),
            [SessionEvent::Down(DownReason::ProtocolError(_))]
        ));
    }

    #[test]
    fn malformed_update_is_treated_as_withdraw_not_reset() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let prefix: ef_net_types::Prefix = "203.0.113.0/24".parse().unwrap();
        let update = UpdateMessage::announce(
            prefix,
            PathAttributes {
                next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                ..Default::default()
            },
        );
        a.send_update(update).unwrap();
        let bytes = a.take_outbox().remove(0);
        // Truncate the ORIGIN attribute's declared length into garbage:
        // overwrite the attribute length field to overrun the section.
        let mut raw = bytes.to_vec();
        let wd_len = u16::from_be_bytes([raw[19], raw[20]]) as usize;
        raw[19 + 2 + wd_len + 2 + 2] = 0xEE; // ORIGIN length byte → 238
        let evs = b.receive_bytes(&raw);
        assert!(b.is_established(), "session survives the malformed UPDATE");
        assert_eq!(b.stats().updates_downgraded, 1);
        assert_eq!(
            evs,
            vec![SessionEvent::Update(UpdateMessage::withdraw([prefix]))],
            "the announced prefix came back as a withdrawal"
        );
    }

    #[test]
    fn malformed_optional_attribute_is_discarded_route_kept() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        // Hand-assemble an UPDATE whose COMMUNITIES attribute has a
        // non-multiple-of-4 length: a content error that keeps the stream
        // aligned on a non-critical attribute → attribute-discard.
        let mut attrs = Vec::new();
        attrs.extend_from_slice(&[0x40, 1, 1, 0]); // ORIGIN Igp
        attrs.extend_from_slice(&[0x40, 2, 0]); // empty AS_PATH
        attrs.extend_from_slice(&[0x40, 3, 4, 192, 0, 2, 1]); // NEXT_HOP
        attrs.extend_from_slice(&[0xC0, 8, 3, 0, 0, 0]); // bad COMMUNITIES
        let nlri = [24u8, 203, 0, 113];
        let mut raw = Vec::new();
        raw.extend_from_slice(&[0xFF; 16]);
        let total = 19 + 2 + 2 + attrs.len() + nlri.len();
        raw.extend_from_slice(&(total as u16).to_be_bytes());
        raw.push(2); // UPDATE
        raw.extend_from_slice(&0u16.to_be_bytes()); // withdrawn len
        raw.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        raw.extend_from_slice(&attrs);
        raw.extend_from_slice(&nlri);
        let evs = b.receive_bytes(&raw);
        assert!(b.is_established());
        assert_eq!(b.stats().attrs_discarded, 1, "bad COMMUNITIES dropped");
        assert_eq!(b.stats().updates_downgraded, 0);
        match evs.as_slice() {
            [SessionEvent::Update(u)] => {
                assert_eq!(u.announced, vec!["203.0.113.0/24".parse().unwrap()]);
                assert!(u.attrs.communities.is_empty());
            }
            other => panic!("expected one Update, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_origin_value_downgrades_not_resets() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let prefix: ef_net_types::Prefix = "198.51.100.0/24".parse().unwrap();
        let update = UpdateMessage::announce(
            prefix,
            PathAttributes {
                next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                ..Default::default()
            },
        );
        a.send_update(update).unwrap();
        let bytes = a.take_outbox().remove(0);
        // ORIGIN value byte → invalid code 0x77: content error, stream
        // aligned, but ORIGIN is critical → treat-as-withdraw.
        let mut raw = bytes.to_vec();
        let wd_len = u16::from_be_bytes([raw[19], raw[20]]) as usize;
        raw[19 + 2 + wd_len + 2 + 3] = 0x77; // ORIGIN value byte
        let evs = b.receive_bytes(&raw);
        assert!(b.is_established());
        assert_eq!(
            evs,
            vec![SessionEvent::Update(UpdateMessage::withdraw([prefix]))]
        );
    }

    #[test]
    fn framing_damage_still_resets_session() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        let update = UpdateMessage::announce(
            "203.0.113.0/24".parse().unwrap(),
            PathAttributes {
                next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                ..Default::default()
            },
        );
        a.send_update(update).unwrap();
        let bytes = a.take_outbox().remove(0);
        let mut raw = bytes.to_vec();
        raw[0] = 0x00; // break the marker: framing-level damage
        let evs = b.receive_bytes(&raw);
        assert!(matches!(
            evs.as_slice(),
            [SessionEvent::Down(DownReason::ProtocolError(_))]
        ));
        assert_eq!(b.state, SessionState::Idle);
    }

    #[test]
    fn hold_expiry_mid_replay_flushes_queued_updates() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        // Queue a replay burst without draining the outbox.
        for i in 0..5u32 {
            a.send_update(UpdateMessage::announce(
                format!("10.{i}.0.0/16").parse().unwrap(),
                PathAttributes {
                    next_hop: Some(Ipv4Addr::new(192, 0, 2, 1)),
                    ..Default::default()
                },
            ))
            .unwrap();
        }
        // The session stops mid-replay: the stale queue must not leak into
        // the wire after the reset.
        assert_eq!(a.stop(), Some(SessionEvent::Down(DownReason::AdminStop)));
        let out = a.take_outbox();
        assert_eq!(out.len(), 1, "only the NOTIFICATION survives the reset");
        let evs = b.receive_bytes(&out[0]);
        assert!(matches!(
            evs.as_slice(),
            [SessionEvent::Down(DownReason::Notification(n))] if n.code == 6
        ));
    }

    #[test]
    fn connect_collision_establishes_once() {
        // Both sides open simultaneously (connect collision): the OPENs
        // cross on the wire. Each side must still establish exactly once.
        let (mut a, mut b) = pair();
        a.open();
        b.open();
        // Collect both OPENs before delivering either, so they truly cross.
        let from_a = a.take_outbox();
        let from_b = b.take_outbox();
        let mut events = Vec::new();
        for bytes in from_a {
            events.extend(b.receive_bytes(&bytes));
        }
        for bytes in from_b {
            events.extend(a.receive_bytes(&bytes));
        }
        // Keepalives confirm.
        for bytes in a.take_outbox() {
            events.extend(b.receive_bytes(&bytes));
        }
        for bytes in b.take_outbox() {
            events.extend(a.receive_bytes(&bytes));
        }
        assert!(a.is_established());
        assert!(b.is_established());
        let ups = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Up(_)))
            .count();
        assert_eq!(ups, 2, "each side sees exactly one Up");
    }

    #[test]
    fn reestablish_after_down_with_queued_withdrawals_is_clean() {
        let (mut a, mut b) = pair();
        establish_pair(&mut a, &mut b);
        // Withdrawals sit queued when A stops.
        a.send_update(UpdateMessage::withdraw(["10.0.0.0/8"
            .parse::<ef_net_types::Prefix>()
            .unwrap()]))
            .unwrap();
        assert!(a.stop().is_some());
        let out = a.take_outbox();
        assert_eq!(out.len(), 1, "queued withdrawal flushed");
        assert!(
            matches!(
                b.receive_bytes(&out[0]).as_slice(),
                [SessionEvent::Down(DownReason::Notification(_))]
            ),
            "B sees the NOTIFICATION as Down"
        );
        // Re-establishment starts from a clean slate: no stale UPDATE can
        // hit the peer's fresh OpenSent state and kill the new session.
        let events = establish_pair(&mut a, &mut b);
        assert!(a.is_established());
        assert!(b.is_established());
        assert!(
            events.iter().all(|e| !matches!(e, SessionEvent::Update(_))),
            "no stale withdrawal leaked into the new session"
        );
    }
}
