//! Typed OPEN-capability negotiation (RFC 5492 framing).
//!
//! A session used to carry ad-hoc booleans for each optional feature; this
//! module replaces them with one [`Capabilities`] struct that knows how to
//! encode itself into the OPEN's capability TLVs, parse a peer's TLVs back,
//! and intersect the two — the single negotiation entry point the session
//! FSM calls when the peer's OPEN arrives.
//!
//! Codes carried:
//!
//! | code | capability                         | RFC  |
//! |------|------------------------------------|------|
//! | 1    | Multiprotocol (IPv6 unicast)       | 4760 |
//! | 2    | Route refresh                      | 2918 |
//! | 65   | 4-octet AS numbers (always sent)   | 6793 |
//! | 70   | Enhanced route refresh (BoRR/EoRR) | 7313 |
//!
//! Any other code a peer sends (ADD-PATH's 69 among them) is unrecognised
//! and ignored, as RFC 5492 §3 requires.

use serde::{Deserialize, Serialize};

use ef_net_types::Asn;

use crate::message::OpenMessage;

/// Capability code for multiprotocol extensions (RFC 4760).
pub(crate) const CAP_MULTIPROTOCOL: u8 = 1;
/// Capability code for route refresh (RFC 2918).
pub(crate) const CAP_ROUTE_REFRESH: u8 = 2;
/// Capability code for enhanced route refresh (RFC 7313).
pub(crate) const CAP_ENHANCED_REFRESH: u8 = 70;

/// The optional capabilities a session advertises (and, after negotiation,
/// the set both ends share). The 4-octet-AS capability is not modeled here
/// because this implementation always advertises it (RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capabilities {
    /// Multiprotocol IPv6 unicast (RFC 4760). IPv6 NLRI always travel in
    /// MP attributes; this flag only records that the peer agreed.
    pub mp_ipv6: bool,
    /// Route refresh (RFC 2918): the peer will replay its Adj-RIB-Out on
    /// request instead of needing a session bounce.
    pub route_refresh: bool,
    /// Enhanced route refresh (RFC 7313): replays are bracketed by
    /// BoRR/EoRR so the requester can sweep stale paths.
    pub enhanced_refresh: bool,
}

impl Default for Capabilities {
    /// What a production peering router advertises as a matter of course:
    /// MP-BGP and both refresh capabilities on.
    fn default() -> Self {
        Capabilities {
            mp_ipv6: true,
            route_refresh: true,
            enhanced_refresh: true,
        }
    }
}

impl Capabilities {
    /// No optional capabilities at all (a minimal RFC 4271 speaker).
    pub(crate) fn none() -> Self {
        Capabilities {
            mp_ipv6: false,
            route_refresh: false,
            enhanced_refresh: false,
        }
    }

    /// Encodes the advertised set as OPEN capability TLVs. The 4-octet-AS
    /// capability (RFC 6793) leads because every OPEN carries it; the rest
    /// follow in code order so encodes are canonical.
    pub(crate) fn to_tlvs(self, asn: Asn) -> Vec<(u8, Vec<u8>)> {
        let mut tlvs = vec![(OpenMessage::CAP_FOUR_OCTET_AS, asn.0.to_be_bytes().to_vec())];
        if self.mp_ipv6 {
            // AFI 2 (IPv6), reserved, SAFI 1 (unicast).
            tlvs.push((CAP_MULTIPROTOCOL, vec![0, 2, 0, 1]));
        }
        if self.route_refresh {
            tlvs.push((CAP_ROUTE_REFRESH, Vec::new()));
        }
        if self.enhanced_refresh {
            tlvs.push((CAP_ENHANCED_REFRESH, Vec::new()));
        }
        tlvs
    }

    /// Parses a peer's OPEN capability TLVs into the typed set.
    pub(crate) fn from_tlvs(tlvs: &[(u8, Vec<u8>)]) -> Self {
        Capabilities {
            mp_ipv6: tlvs.iter().any(|(code, payload)| {
                *code == CAP_MULTIPROTOCOL
                    && payload.len() == 4
                    && payload[0..2] == [0, 2]
                    && payload[3] == 1
            }),
            route_refresh: tlvs.iter().any(|(code, _)| *code == CAP_ROUTE_REFRESH),
            enhanced_refresh: tlvs.iter().any(|(code, _)| *code == CAP_ENHANCED_REFRESH),
        }
    }

    /// The single negotiation entry point: intersects what we advertised
    /// with what the peer's OPEN declared. A capability is usable on the
    /// session only when both ends hold it; enhanced refresh additionally
    /// implies plain route refresh (RFC 7313 §3 requires a speaker that
    /// sends code 70 to also support refresh).
    pub(crate) fn negotiate(&self, peer_tlvs: &[(u8, Vec<u8>)]) -> Self {
        let peer = Capabilities::from_tlvs(peer_tlvs);
        let enhanced = self.enhanced_refresh && peer.enhanced_refresh;
        Capabilities {
            mp_ipv6: self.mp_ipv6 && peer.mp_ipv6,
            route_refresh: (self.route_refresh && peer.route_refresh) || enhanced,
            enhanced_refresh: enhanced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlvs_round_trip_the_default_set() {
        let caps = Capabilities::default();
        let tlvs = caps.to_tlvs(Asn(400_000));
        assert_eq!(
            tlvs[0],
            (
                OpenMessage::CAP_FOUR_OCTET_AS,
                400_000u32.to_be_bytes().to_vec()
            ),
            "4-octet AS always leads"
        );
        assert_eq!(Capabilities::from_tlvs(&tlvs), caps);

        // ADD-PATH (69) and an unassigned code (200) are unrecognised: they
        // are ignored and the known bits still negotiate.
        let mut peer = caps.to_tlvs(Asn(65001));
        peer.push((69, vec![0, 1, 1, 3]));
        peer.push((200, vec![7]));
        assert_eq!(Capabilities::from_tlvs(&peer), caps);
        assert_eq!(caps.negotiate(&peer), caps);
        let only_unknown = [(69, vec![0, 1, 1, 3]), (200, Vec::new())];
        assert_eq!(caps.negotiate(&only_unknown), Capabilities::none());
    }

    #[test]
    fn tlvs_round_trip_every_corner() {
        for caps in [
            Capabilities::none(),
            Capabilities {
                mp_ipv6: false,
                route_refresh: true,
                enhanced_refresh: false,
            },
            Capabilities {
                mp_ipv6: true,
                route_refresh: false,
                enhanced_refresh: true,
            },
        ] {
            assert_eq!(Capabilities::from_tlvs(&caps.to_tlvs(Asn(65001))), caps);
        }
    }

    #[test]
    fn negotiation_is_an_intersection() {
        let ours = Capabilities::default();
        let theirs = Capabilities {
            enhanced_refresh: false,
            ..Default::default()
        };
        let shared = ours.negotiate(&theirs.to_tlvs(Asn(65001)));
        assert!(
            !shared.enhanced_refresh,
            "they did not offer enhanced refresh"
        );
        assert!(shared.route_refresh && shared.mp_ipv6);

        let plain = Capabilities {
            route_refresh: false,
            enhanced_refresh: false,
            ..Default::default()
        };
        let shared = plain.negotiate(&Capabilities::default().to_tlvs(Asn(65001)));
        assert!(!shared.route_refresh, "we did not offer route refresh");
        assert!(shared.mp_ipv6);

        let minimal = ours.negotiate(&Capabilities::none().to_tlvs(Asn(65001)));
        assert_eq!(minimal, Capabilities::none());
    }

    #[test]
    fn enhanced_refresh_implies_plain_refresh() {
        // A peer that (oddly) advertises only code 70 still gets refresh:
        // RFC 7313 requires enhanced-refresh speakers to support it.
        let ours = Capabilities::default();
        let shared = ours.negotiate(&[(CAP_ENHANCED_REFRESH, Vec::new())]);
        assert!(shared.enhanced_refresh);
        assert!(shared.route_refresh);
    }

    #[test]
    fn v4_only_multiprotocol_does_not_count_as_ipv6() {
        let shared = Capabilities::default().negotiate(&[(CAP_MULTIPROTOCOL, vec![0, 1, 0, 1])]);
        assert!(!shared.mp_ipv6);
    }
}
