//! BGP path attributes.
//!
//! Only the attributes the Edge Fabric control loop actually reasons about
//! are modeled: ORIGIN, AS_PATH, NEXT_HOP, MULTI_EXIT_DISC, LOCAL_PREF, and
//! COMMUNITIES. Unknown attributes survive the codec as opaque blobs so the
//! implementation is honest about transitive attribute handling.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use ef_net_types::{Asn, Community};

/// The ORIGIN attribute (RFC 4271 §5.1.1). Lower is preferred.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Origin {
    /// Route originated by an IGP (code 0).
    Igp,
    /// Route originated by EGP (code 1, historical).
    Egp,
    /// Origin unknown (code 2).
    #[default]
    Incomplete,
}

impl Origin {
    /// Wire code (RFC 4271).
    pub(crate) fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parses a wire code.
    pub(crate) fn from_code(c: u8) -> Option<Self> {
        match c {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "?"),
        }
    }
}

/// One segment of an AS path (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsPathSegment {
    /// Ordered sequence of ASNs — the common case.
    Sequence(Vec<Asn>),
    /// Unordered set of ASNs — produced by aggregation; counts as length 1.
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// Contribution of this segment to path length for the decision process:
    /// a SEQUENCE counts each ASN, a SET counts 1 total (RFC 4271 §9.1.2.2).
    pub(crate) fn decision_len(&self) -> usize {
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }

    /// The ASNs in this segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }
}

/// The AS_PATH attribute: the chain of ASes the route has traversed,
/// most-recent first.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    /// Segments, first segment nearest to the receiver.
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// Builds a path of a single SEQUENCE segment.
    pub fn sequence(asns: impl IntoIterator<Item = Asn>) -> Self {
        let v: Vec<Asn> = asns.into_iter().collect();
        if v.is_empty() {
            AsPath::default()
        } else {
            AsPath {
                segments: vec![AsPathSegment::Sequence(v)],
            }
        }
    }

    /// Length as counted by the decision process.
    pub fn decision_len(&self) -> usize {
        self.segments.iter().map(|s| s.decision_len()).sum()
    }

    /// The neighbor AS: first ASN of the first SEQUENCE segment, i.e. the AS
    /// this route was learned from. MED comparison is only valid between
    /// routes with the same neighbor AS.
    pub fn neighbor_as(&self) -> Option<Asn> {
        self.segments
            .first()
            .and_then(|s| s.asns().first().copied())
    }

    /// True if `asn` appears anywhere in the path (loop detection,
    /// RFC 4271 §9.1.2).
    pub(crate) fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// An attribute the codec does not interpret, carried opaquely.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UnknownAttribute {
    /// Attribute flags byte as received.
    pub flags: u8,
    /// Attribute type code.
    pub type_code: u8,
    /// Raw attribute value.
    pub value: Vec<u8>,
}

/// The set of path attributes attached to a route.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH (well-known mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP for IPv4 NLRI (well-known mandatory on the wire; optional in
    /// memory because controller-originated routes identify egress
    /// structurally instead).
    pub next_hop: Option<Ipv4Addr>,
    /// MULTI_EXIT_DISC (optional non-transitive). Lower preferred, comparable
    /// only between routes from the same neighbor AS.
    pub med: Option<u32>,
    /// LOCAL_PREF (well-known on iBGP). Higher preferred. This is the lever
    /// Edge Fabric's overrides pull.
    pub local_pref: Option<u32>,
    /// COMMUNITIES (RFC 1997), kept sorted and deduplicated.
    pub communities: Vec<Community>,
    /// Attributes we carry but do not interpret.
    pub unknown: Vec<UnknownAttribute>,
}

impl PathAttributes {
    /// Effective local preference: explicit value or the RFC-conventional
    /// default of 100.
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// Effective MED: explicit value or 0 (missing-as-best convention,
    /// matching common vendor defaults).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }

    /// Adds a community, keeping the list sorted and unique.
    pub fn add_community(&mut self, c: Community) {
        if let Err(pos) = self.communities.binary_search(&c) {
            self.communities.insert(pos, c);
        }
    }

    /// True if the route carries the community.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.binary_search(&c).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|a| Asn(*a)).collect()
    }

    #[test]
    fn origin_codes_round_trip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn origin_ordering_prefers_igp() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn as_path_decision_len_counts_sets_once() {
        let path = AsPath {
            segments: vec![
                AsPathSegment::Sequence(asns(&[1, 2, 3])),
                AsPathSegment::Set(asns(&[4, 5])),
            ],
        };
        assert_eq!(path.decision_len(), 4);
        assert_eq!(AsPath::default().decision_len(), 0);
    }

    #[test]
    fn neighbor_and_origin_as() {
        let path = AsPath::sequence(asns(&[65001, 65002, 65003]));
        assert_eq!(path.neighbor_as(), Some(Asn(65001)));
        assert_eq!(AsPath::default().neighbor_as(), None);
    }

    #[test]
    fn loop_detection() {
        let path = AsPath::sequence(asns(&[65001, 65002]));
        assert!(path.contains(Asn(65002)));
        assert!(!path.contains(Asn(65003)));
    }

    #[test]
    fn display_formats() {
        let path = AsPath {
            segments: vec![
                AsPathSegment::Sequence(asns(&[1, 2])),
                AsPathSegment::Set(asns(&[3, 4])),
            ],
        };
        assert_eq!(path.to_string(), "1 2 {3,4}");
    }

    #[test]
    fn effective_defaults() {
        let attrs = PathAttributes::default();
        assert_eq!(attrs.effective_local_pref(), 100);
        assert_eq!(attrs.effective_med(), 0);
    }

    #[test]
    fn communities_stay_sorted_unique() {
        let mut attrs = PathAttributes::default();
        let a = Community::new(100, 2);
        let b = Community::new(100, 1);
        attrs.add_community(a);
        attrs.add_community(b);
        attrs.add_community(a);
        assert_eq!(attrs.communities, vec![b, a]);
        assert!(attrs.has_community(a));
        assert!(!attrs.has_community(Community::new(100, 3)));
    }
}
