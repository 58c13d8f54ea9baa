//! The deployment data model: PoPs, routers, interfaces, peers, the prefix
//! universe, and per-PoP route sets.

use serde::{Deserialize, Serialize};

use ef_bgp::peer::{PeerId, PeerKind};
use ef_bgp::route::EgressId;
use ef_bgp::{EgressPolicy, PeeringClass};
use ef_net_types::{Asn, Prefix};

use crate::region::Region;

/// Identifies a PoP within a deployment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct PopId(pub u16);

impl std::fmt::Display for PopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pop{}", self.0)
    }
}

/// Identifies a peering router, globally unique across the deployment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct RouterId(pub u32);

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pr{}", self.0)
    }
}

/// One egress interface at a PoP: a transit port, a private interconnect,
/// or a shared IXP fabric port. Capacity is the congestion constraint the
/// Edge Fabric allocator enforces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interface {
    /// Deployment-global interface id (doubles as the BGP-layer egress id).
    pub id: EgressId,
    /// The router the interface belongs to.
    pub router: RouterId,
    /// Peering policy served by this interface: the interconnect economics
    /// from which the routing kind is derived. A settlement-free interface
    /// is an IXP fabric port shared by every public/route-server peer at
    /// the PoP.
    pub policy: EgressPolicy,
    /// Usable capacity in Mbps.
    pub capacity_mbps: f64,
    /// Human-readable name for reports, e.g. `"pop3:pni:AS40021"`.
    pub name: String,
}

impl Interface {
    /// The routing-layer interconnect kind, derived from the policy class.
    pub fn kind(&self) -> PeerKind {
        self.policy.kind()
    }
}

/// A BGP adjacency at a PoP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerConn {
    /// Deployment-global peer id.
    pub peer: PeerId,
    /// Neighbor ASN.
    pub asn: Asn,
    /// Peering class: the interconnect economics of this adjacency, from
    /// which the routing kind (and its `LOCAL_PREF` band) is derived.
    pub class: PeeringClass,
    /// Which router terminates the session.
    pub router: RouterId,
    /// Which interface the peer's traffic egresses on. Public and
    /// route-server peers at a PoP share the IXP port.
    pub egress: EgressId,
}

impl PeerConn {
    /// The routing-layer interconnect kind, derived from the peering class.
    pub fn kind(&self) -> PeerKind {
        self.class.kind()
    }
}

/// A point of presence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pop {
    /// PoP identity.
    pub id: PopId,
    /// Name, e.g. `"pop4-eu"`.
    pub name: String,
    /// Region, which phases the PoP's diurnal demand curve.
    pub region: Region,
    /// Peering routers at this PoP (structural; the simulation runs one
    /// consolidated routing view per PoP, see DESIGN.md).
    pub routers: Vec<RouterId>,
    /// Egress interfaces.
    pub interfaces: Vec<Interface>,
    /// BGP adjacencies.
    pub peers: Vec<PeerConn>,
    /// The demand each prefix places on this PoP, on average (Mbps).
    pub served: Vec<ServedPrefix>,
}

/// Average demand one prefix places on one PoP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServedPrefix {
    /// Index into [`Universe::prefixes`].
    pub prefix_idx: u32,
    /// Average egress rate toward this prefix from this PoP, Mbps.
    pub avg_mbps: f64,
}

impl Pop {
    /// Looks up an interface by id.
    pub fn interface(&self, id: EgressId) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.id == id)
    }

    /// The peers of a given kind.
    pub fn peers_of_kind(&self, kind: PeerKind) -> impl Iterator<Item = &PeerConn> {
        self.peers.iter().filter(move |p| p.kind() == kind)
    }

    /// Total average demand served by this PoP, Mbps.
    pub fn total_avg_demand_mbps(&self) -> f64 {
        self.served.iter().map(|s| s.avg_mbps).sum()
    }
}

/// An eyeball network: an AS originating end-user prefixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EyeballAs {
    /// The network's ASN.
    pub asn: Asn,
    /// Home region.
    pub region: Region,
    /// Popularity rank (0 = most traffic).
    pub rank: u32,
    /// Share of global demand attributed to this AS (sums to ~1 across the
    /// universe).
    pub demand_share: f64,
}

/// One end-user prefix in the universe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixInfo {
    /// The prefix.
    pub prefix: Prefix,
    /// Originating AS (index into [`Universe::ases`]).
    pub origin_idx: u32,
    /// Share of global demand from this prefix.
    pub demand_share: f64,
}

/// The world outside the content provider: eyeball ASes and their prefixes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Universe {
    /// Eyeball networks, indexed by `origin_idx`.
    pub ases: Vec<EyeballAs>,
    /// End-user prefixes.
    pub prefixes: Vec<PrefixInfo>,
}

impl Universe {
    /// The origin AS record of a prefix.
    pub fn origin_of(&self, prefix: &PrefixInfo) -> &EyeballAs {
        &self.ases[prefix.origin_idx as usize]
    }
}

/// One route available at a PoP: `via` announces `prefix` with `as_path`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteSpec {
    /// Destination prefix (index into [`Universe::prefixes`]).
    pub prefix_idx: u32,
    /// The announcing peer at this PoP.
    pub via: PeerId,
    /// AS path as announced (neighbor first, origin last).
    pub as_path: Vec<Asn>,
    /// Optional MED.
    pub med: Option<u32>,
}

/// A complete deployment: the content provider's edge plus the synthetic
/// Internet around it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// The content provider's ASN.
    pub local_asn: Asn,
    /// Points of presence.
    pub pops: Vec<Pop>,
    /// Eyeball networks and prefixes.
    pub universe: Universe,
    /// Per-PoP route availability, indexed parallel to `pops`.
    pub routes: Vec<Vec<RouteSpec>>,
    /// The provider's own prefixes, originated by every PoP's routers
    /// toward its peers (anycast-style).
    #[serde(default)]
    pub local_prefixes: Vec<Prefix>,
    /// Seed the deployment was generated from (provenance).
    pub seed: u64,
}

impl Deployment {
    /// The routes available at one PoP.
    pub fn routes_at(&self, pop: PopId) -> &[RouteSpec] {
        &self.routes[pop.0 as usize]
    }

    /// The PoP record.
    pub fn pop(&self, pop: PopId) -> &Pop {
        &self.pops[pop.0 as usize]
    }

    /// Total number of interfaces across all PoPs.
    pub fn interface_count(&self) -> usize {
        self.pops.iter().map(|p| p.interfaces.len()).sum()
    }

    /// Total number of BGP adjacencies across all PoPs.
    pub fn peer_count(&self) -> usize {
        self.pops.iter().map(|p| p.peers.len()).sum()
    }

    /// Scales every egress interface capacity at `pop` by `factor`.
    /// Nonpositive factors are ignored (capacities must stay positive for
    /// [`Self::validate`]); returns the factor actually applied.
    pub fn scale_pop_capacity(&mut self, pop: PopId, factor: f64) -> f64 {
        if factor <= 0.0 || !factor.is_finite() {
            return 1.0;
        }
        if let Some(p) = self.pops.get_mut(pop.0 as usize) {
            for iface in &mut p.interfaces {
                iface.capacity_mbps *= factor;
            }
        }
        factor
    }

    /// Caps a PoP's total egress capacity at `ratio ×` its average offered
    /// demand, scaling every interface proportionally (the experiment idiom
    /// for a capacity-crippled PoP: with the default diurnal peak at ~1.8×
    /// average, `ratio = 1.2` guarantees the evening peak exceeds every
    /// egress combined). Returns the scale factor applied; `1.0` means the
    /// PoP already sat at or below the cap (or has no demand/capacity to
    /// scale).
    pub fn cap_pop_capacity_to_demand(&mut self, pop: PopId, ratio: f64) -> f64 {
        let Some(p) = self.pops.get(pop.0 as usize) else {
            return 1.0;
        };
        let avg = p.total_avg_demand_mbps();
        let total_cap: f64 = p.interfaces.iter().map(|i| i.capacity_mbps).sum();
        if avg <= 0.0 || total_cap <= 0.0 || ratio <= 0.0 {
            return 1.0;
        }
        let factor = (avg * ratio) / total_cap;
        if factor >= 1.0 {
            return 1.0;
        }
        self.scale_pop_capacity(pop, factor)
    }

    /// Checks the structural invariants every consumer relies on; returns
    /// the list of violations (empty = valid). `efctl gen` validates before
    /// writing, and generator tests validate every seed they touch.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut peer_ids = std::collections::HashSet::new();
        let mut iface_ids = std::collections::HashSet::new();
        for (i, pop) in self.pops.iter().enumerate() {
            if pop.id.0 as usize != i {
                errors.push(format!("{}: id {} out of order", pop.name, pop.id));
            }
            let local_ifaces: std::collections::HashSet<_> =
                pop.interfaces.iter().map(|f| f.id).collect();
            for iface in &pop.interfaces {
                if !iface_ids.insert(iface.id) {
                    errors.push(format!("{}: duplicate interface {}", pop.name, iface.id));
                }
                if iface.capacity_mbps <= 0.0 {
                    errors.push(format!(
                        "{}: {} has nonpositive capacity",
                        pop.name, iface.id
                    ));
                }
                if !pop.routers.contains(&iface.router) {
                    errors.push(format!("{}: {} on foreign router", pop.name, iface.id));
                }
            }
            for peer in &pop.peers {
                if !peer_ids.insert(peer.peer) {
                    errors.push(format!("{}: duplicate peer {}", pop.name, peer.peer));
                }
                if !local_ifaces.contains(&peer.egress) {
                    errors.push(format!("{}: {} egress missing", pop.name, peer.peer));
                }
            }
            for s in &pop.served {
                if s.prefix_idx as usize >= self.universe.prefixes.len() {
                    errors.push(format!(
                        "{}: served prefix {} out of range",
                        pop.name, s.prefix_idx
                    ));
                }
                if s.avg_mbps < 0.0 {
                    errors.push(format!("{}: negative demand", pop.name));
                }
            }
        }
        if self.routes.len() != self.pops.len() {
            errors.push("routes not parallel to pops".into());
        }
        for (i, specs) in self.routes.iter().enumerate() {
            let pop_peers: std::collections::HashSet<_> =
                self.pops[i].peers.iter().map(|p| p.peer).collect();
            for spec in specs {
                if spec.prefix_idx as usize >= self.universe.prefixes.len() {
                    errors.push(format!("pop{i}: route prefix out of range"));
                }
                if !pop_peers.contains(&spec.via) {
                    errors.push(format!("pop{i}: route via unknown peer {}", spec.via));
                }
                if spec.as_path.is_empty() {
                    errors.push(format!("pop{i}: empty AS path"));
                }
            }
        }
        for info in &self.universe.prefixes {
            if info.origin_idx as usize >= self.universe.ases.len() {
                errors.push(format!("{}: origin out of range", info.prefix));
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pop() -> Pop {
        Pop {
            id: PopId(0),
            name: "pop0".into(),
            region: Region::Europe,
            routers: vec![RouterId(0), RouterId(1)],
            interfaces: vec![
                Interface {
                    id: EgressId(0),
                    router: RouterId(0),
                    policy: EgressPolicy::new(PeeringClass::Transit { usd_per_mbps: 1.0 }),
                    capacity_mbps: 100_000.0,
                    name: "pop0:transit:AS3356".into(),
                },
                Interface {
                    id: EgressId(1),
                    router: RouterId(1),
                    policy: EgressPolicy::new(PeeringClass::Pni { port_cost: 2500.0 }),
                    capacity_mbps: 10_000.0,
                    name: "pop0:pni:AS64500".into(),
                },
            ],
            peers: vec![
                PeerConn {
                    peer: PeerId(0),
                    asn: Asn(3356),
                    class: PeeringClass::Transit { usd_per_mbps: 1.0 },
                    router: RouterId(0),
                    egress: EgressId(0),
                },
                PeerConn {
                    peer: PeerId(1),
                    asn: Asn(64500),
                    class: PeeringClass::Pni { port_cost: 2500.0 },
                    router: RouterId(1),
                    egress: EgressId(1),
                },
            ],
            served: vec![
                ServedPrefix {
                    prefix_idx: 0,
                    avg_mbps: 500.0,
                },
                ServedPrefix {
                    prefix_idx: 1,
                    avg_mbps: 1500.0,
                },
            ],
        }
    }

    #[test]
    fn pop_accessors() {
        let pop = tiny_pop();
        assert_eq!(
            pop.interface(EgressId(1)).unwrap().kind(),
            PeerKind::PrivatePeer
        );
        assert!(pop.interface(EgressId(9)).is_none());
        assert_eq!(pop.peers_of_kind(PeerKind::Transit).count(), 1);
        assert_eq!(pop.peers[0].kind(), PeerKind::Transit);
        assert_eq!(pop.total_avg_demand_mbps(), 2000.0);
    }

    #[test]
    fn deployment_accessors() {
        let pop = tiny_pop();
        let dep = Deployment {
            local_asn: Asn::LOCAL,
            pops: vec![pop],
            universe: Universe::default(),
            routes: vec![vec![RouteSpec {
                prefix_idx: 0,
                via: PeerId(0),
                as_path: vec![Asn(3356), Asn(64500)],
                med: None,
            }]],
            local_prefixes: vec!["157.240.0.0/17".parse().unwrap()],
            seed: 7,
        };
        assert_eq!(dep.routes_at(PopId(0)).len(), 1);
        assert_eq!(dep.pop(PopId(0)).name, "pop0");
        assert_eq!(dep.interface_count(), 2);
        assert_eq!(dep.peer_count(), 2);
    }

    #[test]
    fn capacity_scaling_helpers() {
        let pop = tiny_pop();
        let mut dep = Deployment {
            local_asn: Asn::LOCAL,
            pops: vec![pop],
            universe: Universe::default(),
            routes: vec![vec![]],
            local_prefixes: vec![],
            seed: 7,
        };
        // tiny_pop: 110 Gbps capacity over 2 Gbps average demand.
        let applied = dep.cap_pop_capacity_to_demand(PopId(0), 1.2);
        let expect = (2000.0 * 1.2) / 110_000.0;
        assert!((applied - expect).abs() < 1e-12);
        let total: f64 = dep.pops[0].interfaces.iter().map(|i| i.capacity_mbps).sum();
        assert!((total - 2400.0).abs() < 1e-9);
        // Relative interface sizes are preserved (10:1).
        let r = dep.pops[0].interfaces[0].capacity_mbps / dep.pops[0].interfaces[1].capacity_mbps;
        assert!((r - 10.0).abs() < 1e-9);
        // Already at/below the cap: no-op.
        assert_eq!(dep.cap_pop_capacity_to_demand(PopId(0), 1.2), 1.0);
        // Degenerate inputs are ignored.
        assert_eq!(dep.scale_pop_capacity(PopId(0), 0.0), 1.0);
        assert_eq!(dep.scale_pop_capacity(PopId(0), -2.0), 1.0);
        assert_eq!(dep.scale_pop_capacity(PopId(0), f64::NAN), 1.0);
        // Explicit scaling applies and keeps capacities positive.
        assert_eq!(dep.scale_pop_capacity(PopId(0), 0.5), 0.5);
        assert!(dep.pops[0].interfaces.iter().all(|i| i.capacity_mbps > 0.0));
    }

    #[test]
    fn universe_origin_lookup() {
        let universe = Universe {
            ases: vec![EyeballAs {
                asn: Asn(64500),
                region: Region::Europe,
                rank: 0,
                demand_share: 1.0,
            }],
            prefixes: vec![PrefixInfo {
                prefix: "20.0.0.0/24".parse().unwrap(),
                origin_idx: 0,
                demand_share: 1.0,
            }],
        };
        assert_eq!(universe.origin_of(&universe.prefixes[0]).asn, Asn(64500));
    }

    #[test]
    fn serde_round_trip() {
        let pop = tiny_pop();
        let json = serde_json::to_string(&pop).unwrap();
        let back: Pop = serde_json::from_str(&json).unwrap();
        assert_eq!(pop, back);
    }

    #[test]
    fn generated_deployment_serde_round_trip() {
        // A whole generated deployment must survive JSON — this is what
        // `efctl gen --out` writes and downstream tools read back.
        // serde_json float parsing is not bit-exact for every shortest
        // f64 rendering, so assert the representation converges after one
        // round trip (structure and everything non-float must be intact).
        let dep = crate::gen::generate(&crate::gen::GenConfig::small(5));
        let json = serde_json::to_string(&dep).unwrap();
        let back: Deployment = serde_json::from_str(&json).unwrap();
        let json2 = serde_json::to_string(&back).unwrap();
        let back2: Deployment = serde_json::from_str(&json2).unwrap();
        assert_eq!(back, back2, "round-tripping reaches a fixed point");
        // Non-float structure is preserved exactly on the first trip.
        assert_eq!(dep.pops.len(), back.pops.len());
        assert_eq!(dep.universe.prefixes.len(), back.universe.prefixes.len());
        for (a, b) in dep.pops.iter().zip(back.pops.iter()) {
            assert_eq!(a.peers, b.peers);
            assert_eq!(a.routers, b.routers);
            assert_eq!(a.name, b.name);
        }
        assert_eq!(dep.routes, back.routes);
    }
}
