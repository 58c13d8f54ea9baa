//! The two import policies a peering router runs.
//!
//! Facebook's peering routers (paper §3.1) apply a tiered import policy:
//! prefer routes via private interconnects, then public IXP peers, then
//! route-server routes, then transit — encoded as `LOCAL_PREF` bands — and
//! tag every route with its interconnect class so downstream systems
//! (including the Edge Fabric controller, via BMP) can classify routes
//! without re-deriving session metadata. The controller pseudo-peer gets
//! its own policy: its routes must carry [`OVERRIDE_MARKER`] and win the
//! decision process on `LOCAL_PREF`.

use ef_net_types::{Asn, Community, Prefix};

use crate::attrs::PathAttributes;
use crate::peer::PeerKind;

/// The community every controller override carries: the router's
/// [`Policy::controller_import`] accepts nothing from the controller
/// pseudo-peer without it, and operators audit injected routes by it.
pub const OVERRIDE_MARKER: Community = Community::new(32934, 999);

/// The longest accepted IPv4 mask; anything more specific is dropped.
const MAX_V4_LEN: u8 = 24;
/// The longest accepted IPv6 mask; anything more specific is dropped.
const MAX_V6_LEN: u8 = 48;

/// What became of a route after policy ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyVerdict {
    /// Route accepted (attributes rewritten in place).
    Accept,
    /// Route rejected.
    Reject,
}

/// An import policy: [`Policy::default_import`] for an organic peer,
/// [`Policy::controller_import`] for the controller pseudo-peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's default import policy for a peer of `kind`, on a router
    /// in `local_as`.
    Default {
        /// The router's own AS, which no accepted path may contain.
        local_as: Asn,
        /// The peer's interconnect kind, which sets the tier.
        kind: PeerKind,
    },
    /// The controller pseudo-peer's import policy.
    Controller,
}

impl Policy {
    /// The paper's default import policy for a peering router session.
    /// Checked in order:
    ///
    /// * drop routes that would loop through the local AS;
    /// * drop a default route from anything but transit (peers must not
    ///   claim the whole Internet);
    /// * drop over-specific prefixes (longer than /24, or /48 for IPv6);
    /// * tier `LOCAL_PREF` by interconnect kind and tag the kind community.
    pub fn default_import(local_as: Asn, kind: PeerKind) -> Policy {
        Policy::Default { local_as, kind }
    }

    /// The import policy for the controller pseudo-peer: trust it fully but
    /// verify the [`OVERRIDE_MARKER`] community is present, and stamp the
    /// controller tier preference so overrides win the decision process.
    pub fn controller_import() -> Policy {
        Policy::Controller
    }

    /// Applies the policy, rewriting `attrs` in place when it accepts.
    pub fn apply(&self, prefix: &Prefix, attrs: &mut PathAttributes) -> PolicyVerdict {
        let kind = match *self {
            Policy::Default { local_as, kind } => {
                let max_len = if prefix.is_v4() {
                    MAX_V4_LEN
                } else {
                    MAX_V6_LEN
                };
                if attrs.as_path.contains(local_as)
                    || (kind != PeerKind::Transit && prefix.is_empty())
                    || prefix.len() > max_len
                {
                    return PolicyVerdict::Reject;
                }
                kind
            }
            Policy::Controller => {
                if !attrs.has_community(OVERRIDE_MARKER) {
                    return PolicyVerdict::Reject;
                }
                PeerKind::Controller
            }
        };
        attrs.local_pref = Some(kind.default_local_pref());
        attrs.add_community(kind.tag_community());
        PolicyVerdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::peer::tests::REAL_KINDS;

    const LOCAL: Asn = Asn(32934);

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
    fn default_import_tiers_local_pref() {
        for kind in REAL_KINDS {
            let policy = Policy::default_import(LOCAL, kind);
            let mut a = attrs(&[65001]);
            let v = policy.apply(&p("203.0.113.0/24"), &mut a);
            assert_eq!(v, PolicyVerdict::Accept);
            assert_eq!(a.local_pref, Some(kind.default_local_pref()));
            assert!(a.has_community(kind.tag_community()), "kind tag attached");
        }
    }

    #[test]
    fn default_import_drops_as_loop() {
        let policy = Policy::default_import(LOCAL, PeerKind::Transit);
        for prefix in ["203.0.113.0/24", "2001:db8::/48"] {
            let mut looped = attrs(&[65001, LOCAL.0, 65002]);
            assert_eq!(
                policy.apply(&p(prefix), &mut looped),
                PolicyVerdict::Reject,
                "{prefix}"
            );
            assert_eq!(looped.local_pref, None, "a rejected route is not tiered");
            let mut clean = attrs(&[65001, 65002]);
            assert_eq!(
                policy.apply(&p(prefix), &mut clean),
                PolicyVerdict::Accept,
                "{prefix}"
            );
        }
    }

    #[test]
    fn default_route_only_from_transit() {
        for default in [Prefix::DEFAULT_V4, p("::/0")] {
            for kind in REAL_KINDS.into_iter().chain([PeerKind::Controller]) {
                let policy = Policy::default_import(LOCAL, kind);
                let want = if kind == PeerKind::Transit {
                    PolicyVerdict::Accept
                } else {
                    PolicyVerdict::Reject
                };
                assert_eq!(
                    policy.apply(&default, &mut attrs(&[65001])),
                    want,
                    "{default} from {kind:?}"
                );
            }
        }
    }

    #[test]
    fn over_specific_prefixes_dropped() {
        let policy = Policy::default_import(LOCAL, PeerKind::PublicPeer);
        for (prefix, want) in [
            ("203.0.113.0/25", PolicyVerdict::Reject),
            ("203.0.113.0/24", PolicyVerdict::Accept),
            ("2001:db8::/49", PolicyVerdict::Reject),
            ("2001:db8::/48", PolicyVerdict::Accept),
        ] {
            assert_eq!(
                policy.apply(&p(prefix), &mut attrs(&[65001])),
                want,
                "{prefix}"
            );
        }
    }

    #[test]
    fn controller_import_requires_marker() {
        let policy = Policy::controller_import();
        let mut unmarked = attrs(&[]);
        assert_eq!(
            policy.apply(&p("203.0.113.0/24"), &mut unmarked),
            PolicyVerdict::Reject
        );
        let mut marked = attrs(&[]);
        marked.add_community(OVERRIDE_MARKER);
        assert_eq!(
            policy.apply(&p("203.0.113.0/24"), &mut marked),
            PolicyVerdict::Accept
        );
        assert_eq!(
            marked.local_pref,
            Some(PeerKind::Controller.default_local_pref())
        );
    }
}
