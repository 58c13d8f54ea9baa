//! Override representation and set-diffing.
//!
//! An override is the controller's unit of intent: "prefix P must egress
//! via interface E". The controller recomputes the full desired set every
//! epoch (stateless, paper §4.4); the injector applies only the *diff*
//! against what is currently announced, so steady state causes no BGP
//! churn.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;
use ef_net_types::Prefix;

/// Why an override exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverrideReason {
    /// Capacity: the preferred interface would overload (paper §4).
    Capacity,
    /// Performance: a measured alternate is substantially faster (paper §6).
    Performance,
}

impl OverrideReason {
    /// Short label for telemetry fields and reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            OverrideReason::Capacity => "capacity",
            OverrideReason::Performance => "performance",
        }
    }
}

/// One desired detour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Override {
    /// The steered prefix.
    pub prefix: Prefix,
    /// Target egress interface.
    pub target: EgressId,
    /// Interconnect kind of the route being detoured onto (for the
    /// "where do detours go" statistics).
    pub target_kind: PeerKind,
    /// Why.
    pub reason: OverrideReason,
    /// Demand moved when the override was computed, Mbps.
    pub moved_mbps: f64,
}

/// The desired override set for one epoch (at most one per prefix).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OverrideSet {
    map: HashMap<Prefix, Override>,
}

/// The difference between two override sets, as injector work items.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverrideDiff {
    /// Overrides to announce (new, or retargeted — re-announcement with the
    /// new next hop implicitly replaces the old route).
    pub announce: Vec<Override>,
    /// Prefixes whose override must be withdrawn.
    pub withdraw: Vec<Prefix>,
}

impl OverrideSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the override for a prefix.
    pub fn insert(&mut self, o: Override) -> Option<Override> {
        self.map.insert(o.prefix, o)
    }

    /// The override for a prefix, if any (the crate's tests read single
    /// overrides; production code walks the set).
    #[cfg(test)]
    pub(crate) fn get(&self, prefix: &Prefix) -> Option<&Override> {
        self.map.get(prefix)
    }

    /// True if the prefix is overridden.
    pub(crate) fn contains(&self, prefix: &Prefix) -> bool {
        self.map.contains_key(prefix)
    }

    /// Removes a prefix's override.
    pub(crate) fn remove(&mut self, prefix: &Prefix) -> Option<Override> {
        self.map.remove(prefix)
    }

    /// Number of active overrides.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no overrides are active.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total demand moved, Mbps (summed in prefix order for run-to-run
    /// reproducibility).
    pub(crate) fn total_moved_mbps(&self) -> f64 {
        self.iter_sorted().iter().map(|o| o.moved_mbps).sum()
    }

    /// Overrides sorted by prefix (deterministic iteration).
    pub fn iter_sorted(&self) -> Vec<&Override> {
        let mut v: Vec<&Override> = self.map.values().collect();
        v.sort_by_key(|o| o.prefix);
        v
    }

    /// Computes the injector work to move from `self` (currently announced)
    /// to `desired`.
    ///
    /// A prefix overridden in both but with a different target appears in
    /// `announce` only: BGP re-announcement replaces the previous route
    /// implicitly. Identical overrides generate nothing.
    pub(crate) fn diff_to(&self, desired: &OverrideSet) -> OverrideDiff {
        let mut diff = OverrideDiff::default();
        for o in desired.iter_sorted() {
            match self.map.get(&o.prefix) {
                Some(cur) if cur.target == o.target => {}
                _ => diff.announce.push(*o),
            }
        }
        for o in self.iter_sorted() {
            if !desired.contains(&o.prefix) {
                diff.withdraw.push(o.prefix);
            }
        }
        diff
    }

    /// Demand moved per target interconnect kind, Mbps (accumulated in
    /// prefix order for run-to-run reproducibility).
    pub(crate) fn moved_by_target_kind(&self) -> HashMap<PeerKind, f64> {
        let mut m = HashMap::new();
        for o in self.iter_sorted() {
            *m.entry(o.target_kind).or_default() += o.moved_mbps;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ov(prefix: &str, target: u32, mbps: f64) -> Override {
        Override {
            prefix: prefix.parse().unwrap(),
            target: EgressId(target),
            target_kind: PeerKind::Transit,
            reason: OverrideReason::Capacity,
            moved_mbps: mbps,
        }
    }

    #[test]
    fn basic_set_operations() {
        let mut s = OverrideSet::new();
        assert!(s.is_empty());
        s.insert(ov("1.0.0.0/24", 5, 10.0));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&"1.0.0.0/24".parse().unwrap()));
        assert_eq!(s.total_moved_mbps(), 10.0);
        // Replacement keeps one entry per prefix.
        let old = s.insert(ov("1.0.0.0/24", 6, 12.0));
        assert_eq!(old.unwrap().target, EgressId(5));
        assert_eq!(s.len(), 1);
        s.remove(&"1.0.0.0/24".parse().unwrap());
        assert!(s.is_empty());
    }

    #[test]
    fn diff_detects_add_remove_retarget() {
        let mut current = OverrideSet::new();
        current.insert(ov("1.0.0.0/24", 5, 10.0)); // stays identical
        current.insert(ov("2.0.0.0/24", 5, 10.0)); // will be retargeted
        current.insert(ov("3.0.0.0/24", 5, 10.0)); // will be withdrawn

        let mut desired = OverrideSet::new();
        desired.insert(ov("1.0.0.0/24", 5, 11.0)); // demand changed, target same
        desired.insert(ov("2.0.0.0/24", 7, 10.0));
        desired.insert(ov("4.0.0.0/24", 8, 10.0)); // new

        let diff = current.diff_to(&desired);
        let announced: Vec<String> = diff.announce.iter().map(|o| o.prefix.to_string()).collect();
        assert_eq!(announced, vec!["2.0.0.0/24", "4.0.0.0/24"]);
        let withdrawn: Vec<String> = diff.withdraw.iter().map(|p| p.to_string()).collect();
        assert_eq!(withdrawn, vec!["3.0.0.0/24"]);
        assert_eq!(diff.announce.len() + diff.withdraw.len(), 3);
    }

    #[test]
    fn identical_sets_produce_empty_diff() {
        let mut a = OverrideSet::new();
        a.insert(ov("1.0.0.0/24", 5, 10.0));
        let diff = a.diff_to(&a.clone());
        assert!(diff.announce.is_empty() && diff.withdraw.is_empty());
    }

    #[test]
    fn kind_breakdowns() {
        let mut s = OverrideSet::new();
        s.insert(ov("1.0.0.0/24", 5, 10.0));
        let mut peer_ov = ov("2.0.0.0/24", 6, 20.0);
        peer_ov.target_kind = PeerKind::PublicPeer;
        s.insert(peer_ov);
        let moved = s.moved_by_target_kind();
        assert_eq!(moved[&PeerKind::Transit], 10.0);
        assert_eq!(moved[&PeerKind::PublicPeer], 20.0);
    }

    #[test]
    fn iter_sorted_is_deterministic() {
        let mut s = OverrideSet::new();
        s.insert(ov("9.0.0.0/24", 1, 1.0));
        s.insert(ov("1.0.0.0/24", 1, 1.0));
        s.insert(ov("5.0.0.0/24", 1, 1.0));
        let order: Vec<String> = s
            .iter_sorted()
            .iter()
            .map(|o| o.prefix.to_string())
            .collect();
        assert_eq!(order, vec!["1.0.0.0/24", "5.0.0.0/24", "9.0.0.0/24"]);
    }
}
