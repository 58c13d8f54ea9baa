//! The forwarding loop's FIB lookup cache.
//!
//! Demand is forwarded per *lookup unit* — a universe prefix, or each of
//! its two halves when the controller may split prefixes. The cache holds
//! every unit's longest-match answer, already reduced to what forwarding
//! needs (dense interface slot, override flag), so an epoch whose FIB did
//! not change costs one vector index per unit instead of one trie walk.
//!
//! When the router's FIB version has moved, [`FibCache::sync`] reads the
//! router's change journal and forgets only the units *covered by* a
//! changed prefix. That is exact for longest-prefix match: a unit's answer
//! is a function of the FIB entries whose prefix contains the unit and of
//! nothing else, so an install, replace or remove of prefix `P` cannot move
//! the answer of a unit outside `P`. In [`Prefix`] order (family, address
//! bits, length) the units inside `P` are the contiguous run starting at
//! the first unit `>= P`, found by binary search in an index built once.
//! Everything is forgotten only when the journal no longer reaches back to
//! the cached version or the delta is a large share of the table (session
//! flap, peer flush, table reload).

use std::collections::HashMap;

use ef_bgp::route::EgressId;
use ef_bgp::router::BgpRouter;
use ef_net_types::Prefix;

/// A journalled delta longer than `units / LARGE_DELTA_SHARE` is handled
/// as "everything changed": one fill then beats that many binary searches,
/// and most of the table is about to be looked up again either way.
const LARGE_DELTA_SHARE: usize = 4;

/// Slot stored for an egress that is not one of the PoP's interfaces (a
/// controller next hop naming something else). Past the end of any
/// per-interface accumulator by construction.
pub const NOT_A_POP_INTERFACE: u32 = u32::MAX;

/// Where a unit's traffic leaves: the forwarding view of a `FibEntry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Position of the egress in `Pop::interfaces`, or
    /// [`NOT_A_POP_INTERFACE`].
    pub slot: u32,
    /// The winning route was a controller override.
    pub is_override: bool,
}

/// One cached answer. `Unknown` means the unit has not been looked up
/// since it was last invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Unknown,
    /// The trie has no route for this unit.
    NoRoute,
    Route(Hop),
}

/// Per-unit longest-match cache over one router's FIB.
pub struct FibCache {
    /// Per universe prefix: the unit to look up, plus the second half when
    /// split forwarding is on and the prefix is splittable.
    units: Vec<(Prefix, Option<Prefix>)>,
    /// Cache slots (`prefix_idx * 2 + half`) of every unit, sorted by the
    /// unit's prefix.
    order: Vec<u32>,
    /// Two entries per universe prefix (whole prefix in 0; halves in 0 and
    /// 1 under split forwarding).
    entries: Vec<[Entry; 2]>,
    /// Router FIB version the entries are valid for.
    version: u64,
    /// Interface → position in `Pop::interfaces`, which never reorders.
    slot_of: HashMap<EgressId, u32>,
}

fn unit_at(units: &[(Prefix, Option<Prefix>)], slot: u32) -> Prefix {
    let (first, second) = units[(slot >> 1) as usize];
    if slot & 1 == 0 {
        first
    } else {
        second.expect("half 1 is indexed only for split prefixes")
    }
}

impl FibCache {
    /// An empty cache for `prefixes` (index = universe prefix index) over
    /// `router`'s current FIB. With `split`, each splittable prefix is
    /// looked up as its two halves. `interfaces` lists the PoP's egresses
    /// in `Pop::interfaces` order.
    pub fn new(
        prefixes: &[Prefix],
        split: bool,
        interfaces: impl IntoIterator<Item = EgressId>,
        router: &BgpRouter,
    ) -> Self {
        let units: Vec<(Prefix, Option<Prefix>)> = prefixes
            .iter()
            .map(|prefix| match prefix.halves() {
                Some((lo, hi)) if split => (lo, Some(hi)),
                _ => (*prefix, None),
            })
            .collect();
        assert!(
            units.len() <= (u32::MAX / 2) as usize,
            "two cache slots per prefix must fit in u32"
        );
        let mut order: Vec<u32> = units
            .iter()
            .enumerate()
            .flat_map(|(idx, (_, second))| {
                let slot = idx as u32 * 2;
                std::iter::once(slot).chain(second.map(|_| slot + 1))
            })
            .collect();
        order.sort_unstable_by_key(|&slot| unit_at(&units, slot));
        let slot_of = interfaces
            .into_iter()
            .enumerate()
            .map(|(slot, egress)| (egress, slot as u32))
            .collect();
        FibCache {
            entries: vec![[Entry::Unknown; 2]; units.len()],
            units,
            order,
            version: router.fib_version(),
            slot_of,
        }
    }

    /// True when prefix `idx` is forwarded as two halves.
    #[inline]
    pub fn is_split(&self, idx: usize) -> bool {
        self.units[idx].1.is_some()
    }

    /// Brings the cache up to `router`'s current FIB version, forgetting
    /// the answers that may have changed since the last call. Must run
    /// before [`resolve`](Self::resolve) whenever the router may have
    /// processed updates.
    pub fn sync(&mut self, router: &BgpRouter) {
        let version = router.fib_version();
        if version == self.version {
            return;
        }
        let FibCache {
            units,
            order,
            entries,
            ..
        } = self;
        match router.fib_changes_since(self.version) {
            Some(changed) if changed.len() * LARGE_DELTA_SHARE <= order.len() => {
                for prefix in changed {
                    let start = order.partition_point(|&slot| unit_at(units, slot) < *prefix);
                    for &slot in &order[start..] {
                        if !prefix.contains(&unit_at(units, slot)) {
                            break;
                        }
                        entries[(slot >> 1) as usize][(slot & 1) as usize] = Entry::Unknown;
                    }
                }
            }
            _ => entries.fill([Entry::Unknown; 2]),
        }
        self.version = version;
    }

    /// The forwarding answer for half `half` (0 or 1) of prefix `idx`:
    /// `None` when the FIB has no route. A miss walks `router`'s trie and
    /// is remembered until [`sync`](Self::sync) invalidates it. Debug
    /// builds check every hit against a fresh walk; release builds compile
    /// the check out.
    #[inline]
    pub fn resolve(&mut self, router: &BgpRouter, idx: usize, half: usize) -> Option<Hop> {
        let cached = match self.entries[idx][half] {
            Entry::Route(hop) => Some(hop),
            Entry::NoRoute => None,
            Entry::Unknown => {
                let hop = self.lookup(router, idx, half);
                self.entries[idx][half] = hop.map_or(Entry::NoRoute, Entry::Route);
                return hop;
            }
        };
        debug_assert_eq!(
            cached,
            self.lookup(router, idx, half),
            "cached hop for prefix {idx} half {half} is stale"
        );
        cached
    }

    /// The stateless answer: one longest-match walk of `router`'s trie.
    fn lookup(&self, router: &BgpRouter, idx: usize, half: usize) -> Option<Hop> {
        let unit = unit_at(&self.units, (idx * 2 + half) as u32);
        router.fib_lookup(unit).map(|(_, entry)| Hop {
            slot: self
                .slot_of
                .get(&entry.egress)
                .copied()
                .unwrap_or(NOT_A_POP_INTERFACE),
            is_override: entry.is_override,
        })
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use ef_bgp::router::RouterConfig;
    use ef_net_types::Asn;

    /// The in-situ invariant is live: a cached hop the journal could never
    /// explain must stop a debug build at the first hit.
    #[test]
    #[should_panic(expected = "is stale")]
    fn poisoned_cached_hop_trips_the_invariant() {
        let router = BgpRouter::new(RouterConfig {
            name: "pop0-pr0".into(),
            asn: Asn(32934),
            router_id: std::net::Ipv4Addr::new(10, 100, 0, 1),
        });
        let prefix: Prefix = "20.0.0.0/24".parse().unwrap();
        let mut cache = FibCache::new(&[prefix], false, [EgressId(10)], &router);
        assert_eq!(cache.resolve(&router, 0, 0), None, "the FIB is empty");
        cache.entries[0][0] = Entry::Route(Hop {
            slot: 0,
            is_override: false,
        });
        cache.resolve(&router, 0, 0);
    }
}
