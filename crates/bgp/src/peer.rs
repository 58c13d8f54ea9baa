//! Peer identity and interconnect classification.

use std::fmt;

use serde::{Deserialize, Serialize};

use ef_net_types::Community;

/// Identifies one BGP peer (one session endpoint) within a deployment.
///
/// The topology crate allocates these globally, so a `PeerId` is unique
/// across all PoPs and routers.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct PeerId(pub u64);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// The four interconnect kinds the paper distinguishes (§2.2), plus the
/// controller pseudo-peer used for override injection.
///
/// The ordering encodes Facebook's default egress policy tiering (§3.1):
/// prefer routes from private interconnects, then public exchange peers,
/// then route-server routes, then transit. The default import policy turns
/// this ordering into `LOCAL_PREF` bands at import time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PeerKind {
    /// Edge Fabric's own controller session. Routes from it carry the
    /// highest preference so overrides always win the decision process.
    Controller,
    /// Private network interconnect (PNI): dedicated capacity to one peer.
    PrivatePeer,
    /// Public peering across an IXP fabric (direct bilateral session).
    PublicPeer,
    /// Routes learned via an IXP route server (no bilateral session).
    RouteServer,
    /// Paid transit provider: delivers routes for the full table.
    Transit,
}

impl PeerKind {
    /// The `LOCAL_PREF` band the default import policy assigns to routes
    /// from this kind of peer. Bands are spaced widely so within-band
    /// adjustments (e.g. prepending penalties) never cross tiers.
    pub fn default_local_pref(self) -> u32 {
        match self {
            // Overrides must beat everything else (paper §4.3: "high local_pref").
            PeerKind::Controller => 1_000_000,
            PeerKind::PrivatePeer => 800,
            PeerKind::PublicPeer => 600,
            PeerKind::RouteServer => 400,
            PeerKind::Transit => 200,
        }
    }

    /// Community value code used to tag routes by peer kind at import, so
    /// the controller can classify routes seen over BMP.
    pub(crate) fn tag_code(self) -> u16 {
        match self {
            PeerKind::Controller => 9,
            PeerKind::PrivatePeer => 1,
            PeerKind::PublicPeer => 2,
            PeerKind::RouteServer => 3,
            PeerKind::Transit => 4,
        }
    }

    /// The import-tag community for this kind.
    pub fn tag_community(self) -> Community {
        Community::peer_type_tag(self.tag_code())
    }

    /// Reverse of `tag_code`.
    pub fn from_tag_code(code: u16) -> Option<Self> {
        match code {
            9 => Some(PeerKind::Controller),
            1 => Some(PeerKind::PrivatePeer),
            2 => Some(PeerKind::PublicPeer),
            3 => Some(PeerKind::RouteServer),
            4 => Some(PeerKind::Transit),
            _ => None,
        }
    }

    /// Short label used in reports and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            PeerKind::Controller => "controller",
            PeerKind::PrivatePeer => "private",
            PeerKind::PublicPeer => "public",
            PeerKind::RouteServer => "route-server",
            PeerKind::Transit => "transit",
        }
    }
}

impl fmt::Display for PeerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::egress::PeeringClass;

    /// The kinds of real interconnects (everything but the controller's
    /// pseudo-peer), shared by the crate's tests.
    pub(crate) const REAL_KINDS: [PeerKind; 4] = [
        PeerKind::PrivatePeer,
        PeerKind::PublicPeer,
        PeerKind::RouteServer,
        PeerKind::Transit,
    ];

    #[test]
    fn preference_tiers_match_paper_policy() {
        // §3.1: peers preferred over transit; controller overrides beat all.
        assert!(
            PeerKind::Controller.default_local_pref() > PeerKind::PrivatePeer.default_local_pref()
        );
        assert!(
            PeerKind::PrivatePeer.default_local_pref() > PeerKind::PublicPeer.default_local_pref()
        );
        assert!(
            PeerKind::PublicPeer.default_local_pref() > PeerKind::RouteServer.default_local_pref()
        );
        assert!(
            PeerKind::RouteServer.default_local_pref() > PeerKind::Transit.default_local_pref()
        );
    }

    #[test]
    fn tag_codes_round_trip() {
        for k in [
            PeerKind::Controller,
            PeerKind::PrivatePeer,
            PeerKind::PublicPeer,
            PeerKind::RouteServer,
            PeerKind::Transit,
        ] {
            assert_eq!(PeerKind::from_tag_code(k.tag_code()), Some(k));
        }
        assert_eq!(PeerKind::from_tag_code(77), None);
    }

    #[test]
    fn peering_classification() {
        // Peering kinds carry no per-Mbps price by default; transit does.
        for (kind, peering) in [
            (PeerKind::PrivatePeer, true),
            (PeerKind::PublicPeer, true),
            (PeerKind::RouteServer, true),
            (PeerKind::Transit, false),
        ] {
            let class = PeeringClass::from_kind(kind).unwrap();
            assert_eq!(class.marginal_usd_per_mbps() == 0.0, peering, "{kind}");
        }
    }

    #[test]
    fn real_kinds_excludes_controller() {
        // Every kind but the controller pseudo-peer is a real interconnect
        // with a peering class.
        for kind in [PeerKind::Controller].into_iter().chain(REAL_KINDS) {
            let real = PeeringClass::from_kind(kind).is_some();
            assert_eq!(real, kind != PeerKind::Controller, "{kind}");
        }
    }
}
