//! Route policy engine: ordered match/action rules applied at import and
//! export, plus constructors for the paper's default egress policy.
//!
//! Facebook's peering routers (paper §3.1) apply a tiered import policy:
//! prefer routes via private interconnects, then public IXP peers, then
//! route-server routes, then transit — encoded as `LOCAL_PREF` bands — and
//! tag every route with its interconnect class so downstream systems
//! (including the Edge Fabric controller, via BMP) can classify routes
//! without re-deriving session metadata.

use serde::{Deserialize, Serialize};

use ef_net_types::{Asn, Community, Prefix};

use crate::attrs::PathAttributes;
use crate::peer::PeerKind;
use crate::route::RouteSource;

/// The community every controller override carries: the router's
/// [`Policy::controller_import`] accepts nothing from the controller
/// pseudo-peer without it, and operators audit injected routes by it.
pub const OVERRIDE_MARKER: Community = Community::new(32934, 999);

/// A predicate over `(prefix, attributes, source)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Matcher {
    /// Always matches.
    Any,
    /// Matches when the route's prefix is contained by any of these.
    PrefixWithin(Vec<Prefix>),
    /// Matches prefixes whose mask is at least this long (e.g. to reject
    /// over-specific junk like /25+).
    PrefixLenAtLeast(u8),
    /// Matches prefixes more specific than the family maximum — the
    /// conventional /24 (IPv4) and /48 (IPv6) acceptance limits.
    MoreSpecificThan {
        /// Maximum accepted IPv4 mask length.
        v4: u8,
        /// Maximum accepted IPv6 mask length.
        v6: u8,
    },
    /// Matches prefixes whose mask is at most this long.
    PrefixLenAtMost(u8),
    /// Matches routes carrying the community.
    HasCommunity(Community),
    /// Matches routes learned from this kind of interconnect.
    PeerKindIs(PeerKind),
    /// Matches routes whose neighbor AS (first hop) is this ASN.
    NeighborAsIs(Asn),
    /// Matches routes whose AS path contains this ASN anywhere.
    AsPathContains(Asn),
}

impl Matcher {
    /// Evaluates the predicate.
    pub fn matches(&self, prefix: &Prefix, attrs: &PathAttributes, source: &RouteSource) -> bool {
        match self {
            Matcher::Any => true,
            Matcher::PrefixWithin(list) => list.iter().any(|p| p.contains(prefix)),
            Matcher::PrefixLenAtLeast(n) => prefix.len() >= *n,
            Matcher::MoreSpecificThan { v4, v6 } => {
                if prefix.is_v4() {
                    prefix.len() > *v4
                } else {
                    prefix.len() > *v6
                }
            }
            Matcher::PrefixLenAtMost(n) => prefix.len() <= *n,
            Matcher::HasCommunity(c) => attrs.has_community(*c),
            Matcher::PeerKindIs(k) => source.kind == *k,
            Matcher::NeighborAsIs(a) => attrs.as_path.neighbor_as() == Some(*a),
            Matcher::AsPathContains(a) => attrs.as_path.contains(*a),
        }
    }
}

/// An effect applied to a route that matched a rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Accept the route, stop evaluating further rules.
    Accept,
    /// Reject the route, stop evaluating further rules.
    Reject,
    /// Overwrite LOCAL_PREF.
    SetLocalPref(u32),
    /// Overwrite MED.
    SetMed(u32),
    /// Clear MED (making routes MED-comparable neutral).
    ClearMed,
    /// Attach a community.
    AddCommunity(Community),
    /// Strip a community.
    RemoveCommunity(Community),
    /// Prepend the given ASN `count` times (export-side TE).
    Prepend { asn: Asn, count: u8 },
}

/// One ordered rule: every matcher must hold (AND) for the actions to run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Human-readable rule name, surfaced in policy traces.
    pub name: String,
    /// Conjunction of predicates.
    pub matchers: Vec<Matcher>,
    /// Effects, applied in order. `Accept`/`Reject` terminate evaluation.
    pub actions: Vec<Action>,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, matchers: Vec<Matcher>, actions: Vec<Action>) -> Self {
        Rule {
            name: name.into(),
            matchers,
            actions,
        }
    }
}

/// What became of a route after policy ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Route accepted (attributes possibly rewritten in place).
    Accept,
    /// Route rejected; the rule name's index is recorded for tracing.
    Reject,
}

/// An ordered rule chain with a default verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Rules evaluated first-to-last.
    pub rules: Vec<Rule>,
    /// Verdict when no rule issued Accept/Reject.
    pub default_accept: bool,
}

impl Policy {
    /// A policy that accepts everything unchanged.
    pub fn accept_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: true,
        }
    }

    /// A policy that rejects everything.
    pub fn reject_all() -> Self {
        Policy {
            rules: Vec::new(),
            default_accept: false,
        }
    }

    /// Applies the policy, mutating `attrs` in place.
    ///
    /// Rules run in order; within a matching rule, actions run in order and
    /// an `Accept`/`Reject` action short-circuits the whole policy.
    pub fn apply(
        &self,
        prefix: &Prefix,
        attrs: &mut PathAttributes,
        source: &RouteSource,
    ) -> PolicyVerdict {
        for rule in &self.rules {
            if rule
                .matchers
                .iter()
                .all(|m| m.matches(prefix, attrs, source))
            {
                for action in &rule.actions {
                    match action {
                        Action::Accept => return PolicyVerdict::Accept,
                        Action::Reject => return PolicyVerdict::Reject,
                        Action::SetLocalPref(v) => attrs.local_pref = Some(*v),
                        Action::SetMed(v) => attrs.med = Some(*v),
                        Action::ClearMed => attrs.med = None,
                        Action::AddCommunity(c) => attrs.add_community(*c),
                        Action::RemoveCommunity(c) => attrs.remove_community(*c),
                        Action::Prepend { asn, count } => {
                            attrs.as_path.prepend(*asn, *count as usize)
                        }
                    }
                }
            }
        }
        if self.default_accept {
            PolicyVerdict::Accept
        } else {
            PolicyVerdict::Reject
        }
    }

    /// The paper's default import policy for a peering router session.
    ///
    /// * Drop routes that would loop through the local AS.
    /// * Drop a default route from anything but transit (peers must not
    ///   claim the whole Internet).
    /// * Drop over-specific prefixes (longer than /24).
    /// * Tier `LOCAL_PREF` by interconnect kind and tag the kind community.
    pub fn default_import(local_as: Asn, kind: PeerKind) -> Policy {
        let mut rules = vec![Rule::new(
            "drop-own-as-loop",
            vec![Matcher::AsPathContains(local_as)],
            vec![Action::Reject],
        )];
        if kind != PeerKind::Transit {
            rules.push(Rule::new(
                "drop-default-from-peer",
                vec![Matcher::PrefixLenAtMost(0)],
                vec![Action::Reject],
            ));
        }
        rules.push(Rule::new(
            "drop-over-specific",
            vec![Matcher::MoreSpecificThan { v4: 24, v6: 48 }],
            vec![Action::Reject],
        ));
        rules.push(Rule::new(
            "tier-and-tag",
            vec![Matcher::Any],
            vec![
                Action::SetLocalPref(kind.default_local_pref()),
                Action::AddCommunity(kind.tag_community()),
                Action::Accept,
            ],
        ));
        Policy {
            rules,
            default_accept: false,
        }
    }

    /// The import policy for the controller pseudo-peer: trust it fully but
    /// verify the [`OVERRIDE_MARKER`] community is present, and stamp the
    /// controller tier preference so overrides win the decision process.
    pub fn controller_import() -> Policy {
        Policy {
            rules: vec![Rule::new(
                "require-override-marker",
                vec![Matcher::HasCommunity(OVERRIDE_MARKER)],
                vec![
                    Action::SetLocalPref(PeerKind::Controller.default_local_pref()),
                    Action::AddCommunity(PeerKind::Controller.tag_community()),
                    Action::Accept,
                ],
            )],
            default_accept: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::peer::PeerId;

    const LOCAL: Asn = Asn(32934);

    fn src(kind: PeerKind) -> RouteSource {
        RouteSource {
            peer: PeerId(1),
            peer_asn: Asn(65001),
            kind,
        }
    }

    fn attrs(path: &[u32]) -> PathAttributes {
        PathAttributes {
            as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
            ..Default::default()
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn accept_all_and_reject_all() {
        let mut a = attrs(&[65001]);
        assert_eq!(
            Policy::accept_all().apply(&p("1.0.0.0/8"), &mut a, &src(PeerKind::Transit)),
            PolicyVerdict::Accept
        );
        assert_eq!(
            Policy::reject_all().apply(&p("1.0.0.0/8"), &mut a, &src(PeerKind::Transit)),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn default_import_tiers_local_pref() {
        for kind in PeerKind::REAL_KINDS {
            let policy = Policy::default_import(LOCAL, kind);
            let mut a = attrs(&[65001]);
            let v = policy.apply(&p("203.0.113.0/24"), &mut a, &src(kind));
            assert_eq!(v, PolicyVerdict::Accept);
            assert_eq!(a.local_pref, Some(kind.default_local_pref()));
            assert!(a.has_community(kind.tag_community()), "kind tag attached");
        }
    }

    #[test]
    fn default_import_drops_as_loop() {
        let policy = Policy::default_import(LOCAL, PeerKind::Transit);
        let mut a = attrs(&[65001, LOCAL.0, 65002]);
        assert_eq!(
            policy.apply(&p("203.0.113.0/24"), &mut a, &src(PeerKind::Transit)),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn default_route_only_from_transit() {
        let mut a = attrs(&[65001]);
        let transit = Policy::default_import(LOCAL, PeerKind::Transit);
        assert_eq!(
            transit.apply(&Prefix::DEFAULT_V4, &mut a.clone(), &src(PeerKind::Transit)),
            PolicyVerdict::Accept
        );
        let peer = Policy::default_import(LOCAL, PeerKind::PrivatePeer);
        assert_eq!(
            peer.apply(&Prefix::DEFAULT_V4, &mut a, &src(PeerKind::PrivatePeer)),
            PolicyVerdict::Reject
        );
    }

    #[test]
    fn over_specific_prefixes_dropped() {
        let policy = Policy::default_import(LOCAL, PeerKind::PublicPeer);
        let mut a = attrs(&[65001]);
        assert_eq!(
            policy.apply(&p("203.0.113.0/25"), &mut a, &src(PeerKind::PublicPeer)),
            PolicyVerdict::Reject
        );
        assert_eq!(
            policy.apply(&p("203.0.113.0/24"), &mut a, &src(PeerKind::PublicPeer)),
            PolicyVerdict::Accept
        );
    }

    #[test]
    fn controller_import_requires_marker() {
        let policy = Policy::controller_import();
        let mut unmarked = attrs(&[]);
        assert_eq!(
            policy.apply(
                &p("203.0.113.0/24"),
                &mut unmarked,
                &src(PeerKind::Controller)
            ),
            PolicyVerdict::Reject
        );
        let mut marked = attrs(&[]);
        marked.add_community(OVERRIDE_MARKER);
        assert_eq!(
            policy.apply(
                &p("203.0.113.0/24"),
                &mut marked,
                &src(PeerKind::Controller)
            ),
            PolicyVerdict::Accept
        );
        assert_eq!(
            marked.local_pref,
            Some(PeerKind::Controller.default_local_pref())
        );
    }

    #[test]
    fn rules_apply_in_order_and_mutate() {
        let c = Community::new(100, 1);
        let policy = Policy {
            rules: vec![
                Rule::new(
                    "tag",
                    vec![Matcher::Any],
                    vec![Action::AddCommunity(c), Action::SetMed(7)],
                ),
                Rule::new(
                    "then-match-on-tag",
                    vec![Matcher::HasCommunity(c)],
                    vec![Action::SetLocalPref(42), Action::Accept],
                ),
            ],
            default_accept: false,
        };
        let mut a = attrs(&[65001]);
        let v = policy.apply(&p("1.0.0.0/8"), &mut a, &src(PeerKind::Transit));
        assert_eq!(v, PolicyVerdict::Accept);
        assert_eq!(a.med, Some(7));
        assert_eq!(a.local_pref, Some(42));
    }

    #[test]
    fn prepend_action_lengthens_path() {
        let policy = Policy {
            rules: vec![Rule::new(
                "prepend",
                vec![Matcher::Any],
                vec![
                    Action::Prepend {
                        asn: LOCAL,
                        count: 3,
                    },
                    Action::Accept,
                ],
            )],
            default_accept: true,
        };
        let mut a = attrs(&[65001]);
        policy.apply(&p("1.0.0.0/8"), &mut a, &src(PeerKind::Transit));
        assert_eq!(a.as_path.decision_len(), 4);
    }

    #[test]
    fn matcher_variants() {
        let a = attrs(&[65001, 65002]);
        let s = src(PeerKind::PublicPeer);
        let pre = p("10.1.0.0/16");
        assert!(Matcher::Any.matches(&pre, &a, &s));
        assert!(Matcher::PrefixWithin(vec![p("10.0.0.0/8")]).matches(&pre, &a, &s));
        assert!(!Matcher::PrefixWithin(vec![p("11.0.0.0/8")]).matches(&pre, &a, &s));
        assert!(Matcher::PrefixLenAtLeast(16).matches(&pre, &a, &s));
        assert!(!Matcher::PrefixLenAtLeast(17).matches(&pre, &a, &s));
        assert!(Matcher::PrefixLenAtMost(16).matches(&pre, &a, &s));
        assert!(Matcher::PeerKindIs(PeerKind::PublicPeer).matches(&pre, &a, &s));
        assert!(!Matcher::PeerKindIs(PeerKind::Transit).matches(&pre, &a, &s));
        assert!(Matcher::NeighborAsIs(Asn(65001)).matches(&pre, &a, &s));
        assert!(!Matcher::NeighborAsIs(Asn(65002)).matches(&pre, &a, &s));
        assert!(Matcher::AsPathContains(Asn(65002)).matches(&pre, &a, &s));
    }
}
