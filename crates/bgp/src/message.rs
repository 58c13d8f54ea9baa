//! The BGP-4 message types (RFC 4271 §4), plus ROUTE-REFRESH (RFC 2918)
//! with the Enhanced Route Refresh demarcation subtypes (RFC 7313).

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use ef_net_types::{Asn, Prefix};

use crate::attrs::PathAttributes;

/// BGP version this implementation speaks.
pub(crate) const BGP_VERSION: u8 = 4;

/// A BGP-4 message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgpMessage {
    /// Session negotiation (type 1).
    Open(OpenMessage),
    /// Route announcement/withdrawal (type 2).
    Update(UpdateMessage),
    /// Error + session teardown (type 3).
    Notification(NotificationMessage),
    /// KEEPALIVE (type 4): confirms an OPEN. Sessions here advertise hold
    /// time 0, so no periodic keepalives follow.
    Keepalive,
    /// Adj-RIB-Out replay request / demarcation (type 5, RFC 2918 + 7313).
    RouteRefresh(RouteRefreshMessage),
}

impl BgpMessage {
    /// Wire type code.
    pub(crate) fn type_code(&self) -> u8 {
        match self {
            BgpMessage::Open(_) => 1,
            BgpMessage::Update(_) => 2,
            BgpMessage::Notification(_) => 3,
            BgpMessage::Keepalive => 4,
            BgpMessage::RouteRefresh(_) => 5,
        }
    }
}

/// The RFC 7313 reading of the ROUTE-REFRESH "reserved" octet: a plain
/// request (RFC 2918 compatible), or the Begin/End-of-Route-Refresh
/// demarcation markers that bracket the responder's replay so the
/// requester can sweep paths that were not re-advertised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshSubtype {
    /// Ask the peer to replay its Adj-RIB-Out (demarcation octet 0).
    Request,
    /// Begin-of-Route-Refresh: replay follows (demarcation octet 1).
    BoRR,
    /// End-of-Route-Refresh: replay complete, sweep stale paths
    /// (demarcation octet 2).
    EoRR,
}

impl RefreshSubtype {
    /// Wire value of the demarcation octet.
    pub(crate) fn wire_value(self) -> u8 {
        match self {
            RefreshSubtype::Request => 0,
            RefreshSubtype::BoRR => 1,
            RefreshSubtype::EoRR => 2,
        }
    }

    /// Parses the demarcation octet; values this implementation does not
    /// emit are rejected so accepted frames re-encode canonically.
    pub(crate) fn from_wire(value: u8) -> Option<Self> {
        match value {
            0 => Some(RefreshSubtype::Request),
            1 => Some(RefreshSubtype::BoRR),
            2 => Some(RefreshSubtype::EoRR),
            _ => None,
        }
    }
}

/// ROUTE-REFRESH message (RFC 2918 §3): `<AFI, demarcation, SAFI>`. The
/// middle octet is reserved in RFC 2918 and repurposed by RFC 7313 as the
/// BoRR/EoRR demarcation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteRefreshMessage {
    /// Address family (1 = IPv4, 2 = IPv6).
    pub afi: u16,
    /// Subsequent address family (1 = unicast).
    pub safi: u8,
    /// Request or RFC 7313 demarcation marker.
    pub subtype: RefreshSubtype,
}

impl RouteRefreshMessage {
    /// A plain IPv4-unicast refresh request.
    pub fn request() -> Self {
        RouteRefreshMessage {
            afi: 1,
            safi: 1,
            subtype: RefreshSubtype::Request,
        }
    }

    /// Begin-of-Route-Refresh marker for IPv4 unicast.
    pub fn borr() -> Self {
        RouteRefreshMessage {
            subtype: RefreshSubtype::BoRR,
            ..Self::request()
        }
    }

    /// End-of-Route-Refresh marker for IPv4 unicast.
    pub fn eorr() -> Self {
        RouteRefreshMessage {
            subtype: RefreshSubtype::EoRR,
            ..Self::request()
        }
    }
}

/// OPEN message (RFC 4271 §4.2). Capabilities are modeled as raw
/// `(code, payload)` pairs; the session layer interprets the 4-octet-AS
/// capability (RFC 6793) which this implementation always advertises.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMessage {
    /// Speaker's ASN. On the wire the 2-byte field carries AS_TRANS (23456)
    /// when the ASN does not fit; the real ASN travels in the capability.
    pub asn: Asn,
    /// Proposed hold time in seconds (0 = no keepalives).
    pub hold_time: u16,
    /// Speaker's router ID.
    pub router_id: Ipv4Addr,
    /// Optional capabilities as raw `(code, payload)` pairs.
    pub capabilities: Vec<(u8, Vec<u8>)>,
}

impl OpenMessage {
    /// AS_TRANS, the 2-byte stand-in for 4-byte ASNs (RFC 6793).
    pub(crate) const AS_TRANS: u16 = 23456;
    /// Capability code for 4-octet AS support.
    pub(crate) const CAP_FOUR_OCTET_AS: u8 = 65;
}

/// UPDATE message (RFC 4271 §4.3).
///
/// One UPDATE may withdraw prefixes and announce a set of prefixes sharing
/// one attribute set. IPv6 NLRI ride in MP_REACH/MP_UNREACH attributes on
/// the wire but are surfaced uniformly here: `announced`/`withdrawn` may mix
/// families and the codec splits them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UpdateMessage {
    /// Prefixes no longer reachable via this peer.
    pub withdrawn: Vec<Prefix>,
    /// Attributes shared by all `announced` prefixes.
    pub attrs: PathAttributes,
    /// Prefixes announced with `attrs`.
    pub announced: Vec<Prefix>,
}

impl UpdateMessage {
    /// An UPDATE announcing a single prefix.
    pub fn announce(prefix: Prefix, attrs: PathAttributes) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs,
            announced: vec![prefix],
        }
    }

    /// An UPDATE withdrawing the given prefixes.
    pub fn withdraw(prefixes: impl IntoIterator<Item = Prefix>) -> Self {
        UpdateMessage {
            withdrawn: prefixes.into_iter().collect(),
            attrs: PathAttributes::default(),
            announced: Vec::new(),
        }
    }
}

/// NOTIFICATION message (RFC 4271 §4.5): an error code and the session ends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationMessage {
    /// Major error code.
    pub code: u8,
    /// Subcode within the major code.
    pub subcode: u8,
    /// Diagnostic payload.
    pub data: Vec<u8>,
}

impl NotificationMessage {
    /// Error code 6, subcode 2: Administrative Shutdown (RFC 4486).
    pub(crate) fn admin_shutdown() -> Self {
        NotificationMessage {
            code: 6,
            subcode: 2,
            data: Vec::new(),
        }
    }

    /// Error code 3: UPDATE Message Error.
    pub(crate) fn update_error(subcode: u8) -> Self {
        NotificationMessage {
            code: 3,
            subcode,
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpenMessage {
        /// An OPEN advertising only the 4-octet-AS capability, for codec
        /// tests.
        pub(crate) fn new(asn: Asn, hold_time: u16, router_id: Ipv4Addr) -> Self {
            OpenMessage {
                asn,
                hold_time,
                router_id,
                capabilities: vec![(Self::CAP_FOUR_OCTET_AS, asn.0.to_be_bytes().to_vec())],
            }
        }
    }

    #[test]
    fn type_codes_match_rfc() {
        let open = BgpMessage::Open(OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1)));
        assert_eq!(open.type_code(), 1);
        assert_eq!(BgpMessage::Update(UpdateMessage::default()).type_code(), 2);
        let notif = BgpMessage::Notification(NotificationMessage::admin_shutdown());
        assert_eq!(notif.type_code(), 3);
        assert_eq!(BgpMessage::Keepalive.type_code(), 4);
        let refresh = BgpMessage::RouteRefresh(RouteRefreshMessage::request());
        assert_eq!(refresh.type_code(), 5);
    }

    #[test]
    fn refresh_subtypes_round_trip_the_demarcation_octet() {
        for sub in [
            RefreshSubtype::Request,
            RefreshSubtype::BoRR,
            RefreshSubtype::EoRR,
        ] {
            assert_eq!(RefreshSubtype::from_wire(sub.wire_value()), Some(sub));
        }
        assert_eq!(RefreshSubtype::from_wire(3), None);
        assert_eq!(RefreshSubtype::from_wire(0xFF), None);
        assert_eq!(
            RouteRefreshMessage::request().subtype,
            RefreshSubtype::Request
        );
        assert_eq!(RouteRefreshMessage::borr().subtype, RefreshSubtype::BoRR);
        assert_eq!(RouteRefreshMessage::eorr().subtype, RefreshSubtype::EoRR);
        assert_eq!(
            (
                RouteRefreshMessage::borr().afi,
                RouteRefreshMessage::borr().safi
            ),
            (1, 1)
        );
    }

    #[test]
    fn open_advertises_four_octet_as() {
        use crate::session::{Session, SessionConfig};
        // The 4-octet-AS capability leads every OPEN; the rest is the
        // session's fixed set.
        let mut a = Session::new(SessionConfig::new(Asn(32934), Ipv4Addr::new(10, 0, 0, 1)));
        a.open();
        let mut frame = a.take_outbox().remove(0);
        let Ok(BgpMessage::Open(open)) = crate::wire::decode_message(&mut frame) else {
            panic!("the first message is an OPEN");
        };
        let codes: Vec<u8> = open.capabilities.iter().map(|(code, _)| *code).collect();
        assert_eq!(codes, [OpenMessage::CAP_FOUR_OCTET_AS, 1, 2, 70]);
        assert_eq!(open.capabilities[0].1, 32934u32.to_be_bytes());
        assert_eq!(open.capabilities[1].1, [0, 2, 0, 1], "IPv6 unicast");
    }

    #[test]
    fn update_constructors() {
        let p: Prefix = "203.0.113.0/24".parse().unwrap();
        let ann = UpdateMessage::announce(p, PathAttributes::default());
        assert_eq!(ann.announced, vec![p]);
        assert!(ann.withdrawn.is_empty());

        let w = UpdateMessage::withdraw([p]);
        assert_eq!(w.withdrawn, vec![p]);
        assert!(w.announced.is_empty());
        let empty = UpdateMessage::default();
        assert!(empty.announced.is_empty() && empty.withdrawn.is_empty());
    }

    #[test]
    fn notification_constructors() {
        let n = NotificationMessage::admin_shutdown();
        assert_eq!((n.code, n.subcode), (6, 2));
        assert_eq!(NotificationMessage::update_error(11).subcode, 11);
    }
}
