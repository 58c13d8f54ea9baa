//! Typed per-egress peering policy: the economic class of an interconnect.
//!
//! The paper's four interconnect kinds ([`PeerKind`]) classify *routing
//! preference*; real egress engineering also needs the *economics* of each
//! port. [`PeeringClass`] carries both in one place: the class determines
//! the derived [`PeerKind`] (and therefore the `LOCAL_PREF` band — the
//! decision process is untouched) plus the cost structure the allocator's
//! cost tiebreak and the 95/5 billing meter consume:
//!
//! * settlement-free peering bills nothing;
//! * a PNI bills a fixed amortized port cost regardless of use;
//! * transit bills `$/Mbps` against the 95th-percentile rate;
//! * IXP route-server paths are free but ride a *shared* fabric port whose
//!   capacity is a correlated congestion risk (cf. "Stitching Inter-Domain
//!   Paths over IXPs").
//!
//! [`EgressSpec`] is the typed construction API that replaces the old
//! `(EgressId, ASN, PeerKind)` tuples in tests and benches.

use serde::{Deserialize, Serialize};

use ef_net_types::Asn;

use crate::peer::PeerKind;
use crate::route::EgressId;

/// Default amortized PNI port cost, USD/month — the fixed cost of a 10G
/// cross-connect plus its port, amortized. Only a default for builders;
/// real scenarios set their own through the cost model
/// (`gen.cost.pni_port_usd_per_month`).
pub const DEFAULT_PNI_PORT_USD: f64 = 2500.0;

/// Default transit price, USD per Mbps of 95th-percentile billable rate
/// per month.
pub const DEFAULT_TRANSIT_USD_PER_MBPS: f64 = 1.0;

/// The economic class of one egress interconnect.
///
/// The variant determines the derived routing [`PeerKind`] (so preference
/// bands are a pure function of the class) and the billing treatment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeeringClass {
    /// Settlement-free bilateral peering (public IXP session or a free
    /// PNI): no bill. Derived kind: [`PeerKind::PublicPeer`].
    SettlementFree,
    /// Private network interconnect with an amortized fixed port cost in
    /// USD/month. The cost is sunk — it does not vary with utilization, so
    /// the *marginal* cost of a Mbps is zero. Derived kind:
    /// [`PeerKind::PrivatePeer`].
    Pni {
        /// Amortized port + cross-connect cost, USD/month.
        port_cost: f64,
    },
    /// Paid transit billed at `usd_per_mbps × p95(rate)` per month under
    /// 95/5 billing. Derived kind: [`PeerKind::Transit`].
    Transit {
        /// Price per Mbps of 95th-percentile billable rate, USD/month.
        usd_per_mbps: f64,
    },
    /// Multilateral route-server paths across an IXP fabric: free, but the
    /// paths share one fabric port of `shared_fabric_mbps` with every other
    /// route-server (and public) peer at the PoP — cheap capacity with
    /// correlated congestion risk. Derived kind: [`PeerKind::RouteServer`].
    IxpRouteServer {
        /// Capacity of the shared fabric port, Mbps (0 when not yet sized).
        shared_fabric_mbps: f64,
    },
}

impl PeeringClass {
    /// The routing kind this class derives to. This is the *only* path from
    /// economics to routing preference, so `LOCAL_PREF` bands (and the
    /// byte-identical decision ordering) are untouched by the cost layer.
    pub fn kind(self) -> PeerKind {
        match self {
            PeeringClass::SettlementFree => PeerKind::PublicPeer,
            PeeringClass::Pni { .. } => PeerKind::PrivatePeer,
            PeeringClass::Transit { .. } => PeerKind::Transit,
            PeeringClass::IxpRouteServer { .. } => PeerKind::RouteServer,
        }
    }

    /// The default class for a routing kind (the reverse of
    /// [`kind`](Self::kind), with default prices). `None` for the controller
    /// pseudo-peer, which has no interconnect economics.
    pub fn from_kind(kind: PeerKind) -> Option<PeeringClass> {
        match kind {
            PeerKind::Controller => None,
            PeerKind::PrivatePeer => Some(PeeringClass::Pni {
                port_cost: DEFAULT_PNI_PORT_USD,
            }),
            PeerKind::PublicPeer => Some(PeeringClass::SettlementFree),
            PeerKind::RouteServer => Some(PeeringClass::IxpRouteServer {
                shared_fabric_mbps: 0.0,
            }),
            PeerKind::Transit => Some(PeeringClass::Transit {
                usd_per_mbps: DEFAULT_TRANSIT_USD_PER_MBPS,
            }),
        }
    }

    /// Marginal cost of putting one more Mbps on this egress, USD per Mbps
    /// of monthly billable rate. Settlement-free and route-server paths are
    /// free; a PNI's port cost is sunk (zero marginal); only transit bills
    /// by use. This is what the allocator's cost tiebreak compares.
    pub fn marginal_usd_per_mbps(self) -> f64 {
        match self {
            PeeringClass::Transit { usd_per_mbps } => usd_per_mbps,
            _ => 0.0,
        }
    }

    /// The fixed (utilization-independent) monthly bill, USD.
    pub fn fixed_usd_per_month(self) -> f64 {
        match self {
            PeeringClass::Pni { port_cost } => port_cost,
            _ => 0.0,
        }
    }

    /// The full monthly bill for a given 95/5 billable rate: the fixed
    /// component plus the metered component.
    pub fn monthly_bill_usd(self, billable_mbps: f64) -> f64 {
        self.fixed_usd_per_month() + self.marginal_usd_per_mbps() * billable_mbps
    }

    /// Short label for reports and billing output.
    pub fn label(self) -> &'static str {
        match self {
            PeeringClass::SettlementFree => "settlement-free",
            PeeringClass::Pni { .. } => "pni",
            PeeringClass::Transit { .. } => "transit",
            PeeringClass::IxpRouteServer { .. } => "ixp-rs",
        }
    }
}

/// The egress policy attached to one interface: today the economic class,
/// kept as a struct so policy grows (caps, maintenance windows, preferences)
/// without another model migration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgressPolicy {
    /// Economic class of the interconnect.
    pub class: PeeringClass,
}

impl EgressPolicy {
    /// Policy with the given class.
    pub fn new(class: PeeringClass) -> Self {
        EgressPolicy { class }
    }

    /// Derived routing kind (see [`PeeringClass::kind`]).
    pub fn kind(&self) -> PeerKind {
        self.class.kind()
    }

    /// Marginal cost, USD per Mbps monthly (see
    /// [`PeeringClass::marginal_usd_per_mbps`]).
    pub fn marginal_usd_per_mbps(&self) -> f64 {
        self.class.marginal_usd_per_mbps()
    }
}

impl From<PeeringClass> for EgressPolicy {
    fn from(class: PeeringClass) -> Self {
        EgressPolicy::new(class)
    }
}

/// Typed construction of one egress + announcing peer, replacing the old
/// `(EgressId, ASN, PeerKind)` tuples in tests and benches. The peer id
/// defaults to the egress id (the tuple sites' convention) and the class
/// carries default prices until overridden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgressSpec {
    /// The egress interface.
    pub egress: EgressId,
    /// The announcing neighbor's ASN.
    pub asn: Asn,
    /// Economic class (defines the derived routing kind).
    pub class: PeeringClass,
}

impl EgressSpec {
    /// Spec with an explicit class.
    pub(crate) fn new(egress: u32, asn: u32, class: PeeringClass) -> Self {
        EgressSpec {
            egress: EgressId(egress),
            asn: Asn(asn),
            class,
        }
    }

    /// A PNI egress with the default amortized port cost.
    pub fn pni(egress: u32, asn: u32) -> Self {
        Self::new(
            egress,
            asn,
            PeeringClass::Pni {
                port_cost: DEFAULT_PNI_PORT_USD,
            },
        )
    }

    /// A settlement-free public-peering egress.
    pub fn settlement_free(egress: u32, asn: u32) -> Self {
        Self::new(egress, asn, PeeringClass::SettlementFree)
    }

    /// A transit egress with the default price.
    pub fn transit(egress: u32, asn: u32) -> Self {
        Self::new(
            egress,
            asn,
            PeeringClass::Transit {
                usd_per_mbps: DEFAULT_TRANSIT_USD_PER_MBPS,
            },
        )
    }

    /// Overrides the transit price (no-op for other classes).
    pub fn usd_per_mbps(mut self, usd: f64) -> Self {
        if let PeeringClass::Transit { usd_per_mbps } = &mut self.class {
            *usd_per_mbps = usd;
        }
        self
    }

    /// Derived routing kind.
    pub fn kind(&self) -> PeerKind {
        self.class.kind()
    }

    /// The policy wrapper for this spec's class.
    pub fn policy(&self) -> EgressPolicy {
        EgressPolicy::new(self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::tests::REAL_KINDS;

    #[test]
    fn class_derives_the_paper_kinds() {
        assert_eq!(PeeringClass::SettlementFree.kind(), PeerKind::PublicPeer);
        assert_eq!(
            PeeringClass::Pni { port_cost: 1.0 }.kind(),
            PeerKind::PrivatePeer
        );
        assert_eq!(
            PeeringClass::Transit { usd_per_mbps: 1.0 }.kind(),
            PeerKind::Transit
        );
        assert_eq!(
            PeeringClass::IxpRouteServer {
                shared_fabric_mbps: 0.0
            }
            .kind(),
            PeerKind::RouteServer
        );
    }

    #[test]
    fn kind_round_trips_through_default_class() {
        for kind in REAL_KINDS {
            let class = PeeringClass::from_kind(kind).expect("real kinds have a class");
            assert_eq!(class.kind(), kind);
        }
        assert_eq!(PeeringClass::from_kind(PeerKind::Controller), None);
    }

    #[test]
    fn derived_local_pref_bands_are_untouched() {
        // The cost layer must not perturb the decision ordering: deriving
        // the kind through the class lands in the same LOCAL_PREF band as
        // constructing the kind directly.
        for kind in REAL_KINDS {
            let class = PeeringClass::from_kind(kind).unwrap();
            assert_eq!(class.kind().default_local_pref(), kind.default_local_pref());
        }
    }

    #[test]
    fn only_transit_has_marginal_cost() {
        assert_eq!(PeeringClass::SettlementFree.marginal_usd_per_mbps(), 0.0);
        assert_eq!(
            PeeringClass::Pni { port_cost: 9999.0 }.marginal_usd_per_mbps(),
            0.0
        );
        assert_eq!(
            PeeringClass::IxpRouteServer {
                shared_fabric_mbps: 1000.0
            }
            .marginal_usd_per_mbps(),
            0.0
        );
        assert_eq!(
            PeeringClass::Transit { usd_per_mbps: 3.5 }.marginal_usd_per_mbps(),
            3.5
        );
    }

    #[test]
    fn only_pni_has_fixed_cost() {
        assert_eq!(
            PeeringClass::Pni { port_cost: 2500.0 }.fixed_usd_per_month(),
            2500.0
        );
        assert_eq!(
            PeeringClass::Transit { usd_per_mbps: 2.0 }.fixed_usd_per_month(),
            0.0
        );
        assert_eq!(PeeringClass::SettlementFree.fixed_usd_per_month(), 0.0);
    }

    #[test]
    fn spec_builders_set_class_and_defaults() {
        let t = EgressSpec::transit(3, 65010).usd_per_mbps(0.75);
        assert_eq!(t.egress, EgressId(3));
        assert_eq!(t.asn, Asn(65010));
        assert_eq!(t.kind(), PeerKind::Transit);
        assert_eq!(t.class.marginal_usd_per_mbps(), 0.75);

        let p = EgressSpec {
            class: PeeringClass::Pni { port_cost: 4000.0 },
            ..EgressSpec::pni(1, 65001)
        };
        assert_eq!(p.kind(), PeerKind::PrivatePeer);
        assert_eq!(p.class.fixed_usd_per_month(), 4000.0);

        // Price setters are typed no-ops on the wrong class.
        let s = EgressSpec::settlement_free(2, 65002).usd_per_mbps(9.0);
        assert_eq!(s.class, PeeringClass::SettlementFree);
        assert_eq!(s.policy().marginal_usd_per_mbps(), 0.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> = [
            PeeringClass::SettlementFree,
            PeeringClass::Pni { port_cost: 0.0 },
            PeeringClass::Transit { usd_per_mbps: 0.0 },
            PeeringClass::IxpRouteServer {
                shared_fabric_mbps: 0.0,
            },
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let classes = [
            PeeringClass::SettlementFree,
            PeeringClass::Pni { port_cost: 2500.0 },
            PeeringClass::Transit { usd_per_mbps: 1.25 },
            PeeringClass::IxpRouteServer {
                shared_fabric_mbps: 80_000.0,
            },
        ];
        for class in classes {
            let json = serde_json::to_string(&class).unwrap();
            let back: PeeringClass = serde_json::from_str(&json).unwrap();
            assert_eq!(back, class);
        }
        let policy = EgressPolicy::new(PeeringClass::Transit { usd_per_mbps: 2.0 });
        let json = serde_json::to_string(&policy).unwrap();
        let back: EgressPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, policy);
    }
}
