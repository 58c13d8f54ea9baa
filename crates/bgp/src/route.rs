//! Routes as they exist inside a router after import.

use std::fmt;

use serde::{Deserialize, Serialize};

use ef_net_types::{Asn, Prefix};

use crate::attrs::PathAttributes;
use crate::peer::{PeerId, PeerKind};

/// Identifies the egress interface a route forwards onto.
///
/// In the topology crate this maps 1:1 to a physical PoP interface (a PNI
/// port, an IXP fabric port, or a transit port). Controller-injected
/// overrides name the target interface directly, mirroring how Edge Fabric
/// sets the BGP next hop to the chosen peering's address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct EgressId(pub u32);

impl fmt::Display for EgressId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if{}", self.0)
    }
}

/// An [`EgressId`] outside the 2²⁴ range the synthetic next-hop encoding can
/// carry. A malformed topology (or a corrupted controller message) produces
/// this error instead of panicking the daemon path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressIdOutOfRange(pub u32);

impl fmt::Display for EgressIdOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EgressId {} exceeds the 2^24-1 next-hop encoding bound",
            self.0
        )
    }
}

impl std::error::Error for EgressIdOutOfRange {}

impl EgressId {
    /// Encodes this egress as a synthetic next-hop address in `10.0.0.0/8`.
    ///
    /// Edge Fabric's overrides steer traffic by announcing a route whose BGP
    /// next hop is the address of the chosen peering interface. The
    /// reproduction mirrors that: controller updates carry a next hop that
    /// encodes the target [`EgressId`], and the router resolves it back with
    /// [`from_next_hop`](Self::from_next_hop). Supports up to 2²⁴
    /// interfaces; larger ids yield [`EgressIdOutOfRange`].
    pub fn to_next_hop(self) -> Result<std::net::Ipv4Addr, EgressIdOutOfRange> {
        if self.0 >= (1 << 24) {
            return Err(EgressIdOutOfRange(self.0));
        }
        let [_, b, c, d] = self.0.to_be_bytes();
        Ok(std::net::Ipv4Addr::new(10, b, c, d))
    }

    /// Reverse of [`to_next_hop`](Self::to_next_hop). Returns `None` when
    /// the address is not in the synthetic `10.0.0.0/8` block.
    pub fn from_next_hop(nh: std::net::Ipv4Addr) -> Option<Self> {
        let [a, b, c, d] = nh.octets();
        (a == 10).then(|| EgressId(u32::from_be_bytes([0, b, c, d])))
    }
}

/// Where a route came from: the session, the neighbor AS, and the
/// interconnect kind. Kept separate from `PathAttributes` because it is
/// local knowledge, not part of the announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteSource {
    /// The session the route arrived on.
    pub peer: PeerId,
    /// The neighbor's ASN.
    pub peer_asn: Asn,
    /// Interconnect classification of the neighbor.
    pub kind: PeerKind,
}

/// A route installed in a RIB: one prefix, its attributes after import
/// policy, its provenance, and the egress interface it would forward onto.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Path attributes (post-import-policy).
    pub attrs: PathAttributes,
    /// Provenance.
    pub source: RouteSource,
    /// Egress interface this route uses.
    pub egress: EgressId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::attrstore::RouteRec;

    fn sample() -> Route {
        Route {
            prefix: "203.0.113.0/24".parse().unwrap(),
            attrs: PathAttributes {
                local_pref: Some(800),
                as_path: AsPath::sequence([Asn(65001)]),
                ..Default::default()
            },
            source: RouteSource {
                peer: PeerId(3),
                peer_asn: Asn(65001),
                kind: PeerKind::PrivatePeer,
            },
            egress: EgressId(12),
        }
    }

    #[test]
    fn override_detection() {
        // Override detection lives on the Loc-RIB record.
        let mut r = sample();
        assert!(!RouteRec::new(&r.attrs, r.source, r.egress).is_override());
        r.source.kind = PeerKind::Controller;
        assert!(RouteRec::new(&r.attrs, r.source, r.egress).is_override());
    }

    #[test]
    fn serde_round_trip() {
        let r = sample();
        let json = serde_json::to_string(&r).unwrap();
        let back: Route = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn egress_next_hop_round_trip() {
        for id in [0u32, 1, 255, 256, 65_535, (1 << 24) - 1] {
            let eg = EgressId(id);
            assert_eq!(EgressId::from_next_hop(eg.to_next_hop().unwrap()), Some(eg));
        }
    }

    #[test]
    fn foreign_next_hop_is_not_an_egress() {
        assert_eq!(EgressId::from_next_hop("192.0.2.1".parse().unwrap()), None);
    }

    #[test]
    fn oversized_egress_is_a_typed_error() {
        let err = EgressId(1 << 24).to_next_hop().unwrap_err();
        assert_eq!(err, EgressIdOutOfRange(1 << 24));
        assert!(err.to_string().contains("2^24"));
    }
}
