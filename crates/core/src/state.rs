//! Controller input state: what the controller knows about its PoP — the
//! static interface facts and each epoch's traffic estimates
//! ([`TrafficView`], [`TrafficTable`]).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;
use ef_bgp::{EgressPolicy, PeeringClass};
use ef_net_types::Prefix;

/// Static facts about one egress interface, as configured into the
/// controller (capacity comes from the provisioning system, not from BGP).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceInfo {
    /// Usable capacity, Mbps.
    pub capacity_mbps: f64,
    /// Peering policy: interconnect economics, from which the routing kind
    /// (for reporting and detour-target statistics) is derived.
    pub policy: EgressPolicy,
}

impl InterfaceInfo {
    /// Plain capacity + kind info (the pre-cost constructor): the class is
    /// the default-priced class for that kind, so every transit is priced
    /// uniformly and cost-blind callers see unchanged decisions.
    pub fn new(capacity_mbps: f64, kind: PeerKind) -> Self {
        let class = PeeringClass::from_kind(kind).unwrap_or(PeeringClass::SettlementFree);
        InterfaceInfo {
            capacity_mbps,
            policy: EgressPolicy::new(class),
        }
    }

    /// Capacity + explicit peering policy (the typed constructor).
    pub fn with_policy(capacity_mbps: f64, policy: EgressPolicy) -> Self {
        InterfaceInfo {
            capacity_mbps,
            policy,
        }
    }

    /// Marginal cost of billing one more Mbps on this interface, $/Mbps
    /// per month (zero for anything but transit).
    pub(crate) fn marginal_usd_per_mbps(&self) -> f64 {
        self.policy.marginal_usd_per_mbps()
    }
}

/// Read access to one epoch's per-prefix demand estimates (Mbps): the
/// projection walks [`sorted_entries`](Self::sorted_entries), the allocator
/// probes single prefixes through [`demand_of`](Self::demand_of).
///
/// Float addition is not associative, so every consumer accumulates in
/// canonical [`Prefix`] order — the order is part of the byte-identical
/// contract, which is why the view hands out sorted entries rather than an
/// iterator in storage order.
pub trait TrafficView {
    /// Every entry in strictly ascending prefix order. An implementation
    /// that is not stored in that order sorts into `scratch` (reused across
    /// epochs by the caller) and returns it; [`TrafficTable`] ignores it.
    fn sorted_entries<'a>(&'a self, scratch: &'a mut Vec<(Prefix, f64)>) -> &'a [(Prefix, f64)];

    /// The demand estimate for `prefix`, if it has an entry.
    fn demand_of(&self, prefix: &Prefix) -> Option<f64>;
}

/// The controller's production traffic input: one `(prefix, Mbps)` entry per
/// prefix, held in canonical prefix order, so a projection is a single
/// linear walk with no hashing and no sort. The embedding refills one table
/// in place every epoch ([`refill`](Self::refill)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficTable {
    /// Strictly ascending by prefix (checked on every refill).
    entries: Vec<(Prefix, f64)>,
}

impl TrafficTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with `entries`, reusing the allocation. Panics
    /// unless the prefixes are strictly ascending: binary search and the
    /// projection's merge join both rest on that order.
    pub fn refill(&mut self, entries: impl IntoIterator<Item = (Prefix, f64)>) {
        self.entries.clear();
        self.entries.extend(entries);
        assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "traffic table entries must be strictly ascending by prefix"
        );
    }
}

impl TrafficView for TrafficTable {
    fn sorted_entries<'a>(&'a self, _scratch: &'a mut Vec<(Prefix, f64)>) -> &'a [(Prefix, f64)] {
        &self.entries
    }

    fn demand_of(&self, prefix: &Prefix) -> Option<f64> {
        self.entries
            .binary_search_by(|(p, _)| p.cmp(prefix))
            .ok()
            .map(|i| self.entries[i].1)
    }
}

/// Input adapter for callers that hold demand in a map (unit tests, the
/// quickstart, the benchmark's traced replay): the entries are copied into
/// `scratch` and sorted there on every call. It feeds the same projection
/// and allocator as [`TrafficTable`]; it is not a second code path.
impl TrafficView for HashMap<Prefix, f64> {
    fn sorted_entries<'a>(&'a self, scratch: &'a mut Vec<(Prefix, f64)>) -> &'a [(Prefix, f64)] {
        scratch.clear();
        scratch.extend(self.iter().map(|(p, m)| (*p, *m)));
        // Unstable is fine — prefixes are unique map keys — and avoids the
        // stable sort's scratch allocation.
        scratch.sort_unstable_by_key(|(p, _)| *p);
        scratch
    }

    fn demand_of(&self, prefix: &Prefix) -> Option<f64> {
        self.get(prefix).copied()
    }
}

/// Per-interface static info map.
pub type InterfaceMap = HashMap<EgressId, InterfaceInfo>;

/// The load `egress` may carry before it counts as overloaded:
/// `capacity × util_limit`, unbounded for an interface the map does not
/// know.
pub(crate) fn limit_mbps(interfaces: &InterfaceMap, egress: EgressId, util_limit: f64) -> f64 {
    interfaces
        .get(&egress)
        .map_or(f64::INFINITY, |i| i.capacity_mbps * util_limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interface_info_is_plain_data() {
        let info = InterfaceInfo::new(10_000.0, PeerKind::PrivatePeer);
        assert_eq!(info.policy.kind(), PeerKind::PrivatePeer);
        assert_eq!(info.marginal_usd_per_mbps(), 0.0);
        let json = serde_json::to_string(&info).unwrap();
        let back: InterfaceInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(info, back);
        // Transit is the only metered class.
        let transit = InterfaceInfo::new(40_000.0, PeerKind::Transit);
        assert!(transit.marginal_usd_per_mbps() > 0.0);
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn table_and_map_give_the_same_view() {
        // Canonical order puts v4 before v6, whatever the insertion order.
        let sorted = [
            (p("10.0.0.0/24"), 0.0),
            (p("10.0.1.0/24"), -2.5),
            (p("2001:db8::/48"), 7.0),
        ];
        let mut table = TrafficTable::new();
        table.refill(sorted);
        let map: HashMap<Prefix, f64> = sorted.into_iter().rev().collect();
        assert_eq!(table.sorted_entries(&mut Vec::new()), sorted);
        assert_eq!(map.sorted_entries(&mut Vec::new()), sorted);
        for key in [p("10.0.1.0/24"), p("2001:db8::/48"), p("192.0.2.0/24")] {
            assert_eq!(table.demand_of(&key), map.demand_of(&key));
        }
        // A refill reuses the buffer and drops the old entries.
        table.refill([(p("10.0.0.0/24"), 1.0)]);
        assert_eq!(table.entries, [(p("10.0.0.0/24"), 1.0)]);
        assert_eq!(table.demand_of(&p("2001:db8::/48")), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn table_rejects_unsorted_entries() {
        TrafficTable::new().refill([(p("10.0.1.0/24"), 1.0), (p("10.0.0.0/24"), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn table_rejects_duplicate_prefixes() {
        TrafficTable::new().refill([(p("10.0.0.0/24"), 1.0), (p("10.0.0.0/24"), 2.0)]);
    }
}
