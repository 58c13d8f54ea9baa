//! Interned path attributes and the compact route record.
//!
//! A full Internet table carries ~900k prefixes, but the number of *distinct*
//! attribute sets (AS-path + communities + MED + LOCAL_PREF) is orders of
//! magnitude smaller: paths are shared by every prefix originated behind the
//! same AS via the same neighbor. The [`AttrStore`] exploits that sharing by
//! deduplicating [`PathAttributes`] behind a small integer [`AttrId`], so the
//! RIB stores a 4-byte handle per route instead of a ~300-byte deep clone,
//! and the store itself holds exactly one copy of each distinct set (its
//! dedup index keeps hashes and slot numbers, never a second key).
//!
//! At intern time the store also precomputes the [`DecisionKey`] — the exact
//! fields the best-path ladder consults — so the decision process never has
//! to chase the handle back to the fat attribute set. A [`RouteRec`] bundles
//! the handle, the key, and the per-route provenance into one `Copy` value of
//! ~48 bytes; every hot loop in the reproduction works over `&[RouteRec]`
//! slices without allocating.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::mem;

use crate::attrs::{Origin, PathAttributes};
use crate::peer::PeerKind;
use crate::route::{EgressId, RouteSource};
use ef_net_types::Asn;

/// Handle to an interned [`PathAttributes`] inside one [`AttrStore`].
///
/// Ids are only meaningful relative to the store that issued them; two stores
/// may assign the same id to different attribute sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

/// The attribute fields the decision process reads, precomputed at intern
/// time so comparisons touch no heap data.
///
/// `local_pref` and `med` hold the *effective* values (defaults applied), and
/// `path_len` is the SET-counts-once decision length, so the decision
/// ladder reads the key field for field instead of recomputing those
/// values from the attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    /// Effective LOCAL_PREF (explicit value or 100).
    pub local_pref: u32,
    /// AS-path decision length (sequences per-ASN, sets count 1).
    pub path_len: u32,
    /// ORIGIN code; lower preferred.
    pub origin: Origin,
    /// Effective MED (explicit value or 0); comparable only within one
    /// neighbor AS.
    pub med: u32,
    /// First ASN of the path — gates MED comparability.
    pub neighbor_as: Option<Asn>,
}

impl DecisionKey {
    /// Derives the key from a full attribute set.
    pub(crate) fn of(attrs: &PathAttributes) -> Self {
        DecisionKey {
            local_pref: attrs.effective_local_pref(),
            path_len: attrs.as_path.decision_len() as u32,
            origin: attrs.origin,
            med: attrs.effective_med(),
            neighbor_as: attrs.as_path.neighbor_as(),
        }
    }
}

/// A compact route record: everything the decision process and the Edge
/// Fabric control loop read per candidate, in one `Copy` value.
///
/// The fat attributes live behind `attr` in the owning structure's
/// [`AttrStore`]; records returned from a RIB are ephemeral views and must
/// not be held across mutations of that RIB (a mutation may release the
/// underlying attribute entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRec {
    /// Handle to the interned attributes in the owning store.
    pub attr: AttrId,
    /// Egress interface this route forwards onto.
    pub egress: EgressId,
    /// Provenance: session, neighbor ASN, interconnect kind.
    pub source: RouteSource,
    /// Precomputed decision-process key.
    pub key: DecisionKey,
}

impl RouteRec {
    /// True if this record was injected by the Edge Fabric controller.
    pub fn is_override(&self) -> bool {
        self.source.kind == PeerKind::Controller
    }

    /// Effective LOCAL_PREF, from the precomputed key.
    pub fn effective_local_pref(&self) -> u32 {
        self.key.local_pref
    }
}

/// End of a hash chain.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry {
    attrs: PathAttributes,
    key: DecisionKey,
    refs: u32,
    /// Next slot whose attributes share this entry's hash, or [`NIL`].
    next: u32,
}

/// Reference-counted intern pool for [`PathAttributes`].
///
/// `intern` deduplicates: equal attribute sets map to the same [`AttrId`].
/// Entries are dropped (and their ids recycled) when the last reference is
/// released, so long-lived stores track table churn instead of growing
/// without bound.
///
/// The slab holds the only copy of each set. The dedup index maps an
/// attribute hash to the first slot of a chain threaded through each
/// entry's `next` slot; a probe walks the chain comparing full attributes.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    entries: Vec<Option<Entry>>,
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// Randomly keyed, like a `HashMap`'s own hasher: attribute sets come
    /// from peers, and a fixed key would let one craft a long chain. Ids
    /// never depend on hash values, so runs stay byte-identical.
    hasher: RandomState,
    free: Vec<u32>,
    live: usize,
}

/// The dedup index is keyed by a finished hash already; hashing it again
/// would only cost time.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl AttrStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chain key of an attribute set. Unit tests put every set in one
    /// chain, so unlinking the head, middle and tail of a chain is
    /// exercised by any store with three live entries.
    fn hash(&self, attrs: &PathAttributes) -> u64 {
        if cfg!(test) {
            0
        } else {
            self.hasher.hash_one(attrs)
        }
    }

    fn entry(&self, slot: u32) -> &Entry {
        match self.entries[slot as usize].as_ref() {
            Some(e) => e,
            None => unreachable_released(AttrId(slot)),
        }
    }

    /// Interns `attrs`, returning its handle and taking one reference.
    pub fn intern(&mut self, attrs: &PathAttributes) -> AttrId {
        let hash = self.hash(attrs);
        let head = self.heads.get(&hash).copied().unwrap_or(NIL);
        let mut slot = head;
        while slot != NIL {
            let e = self.entry(slot);
            if e.attrs == *attrs {
                self.retain(AttrId(slot));
                return AttrId(slot);
            }
            slot = e.next;
        }
        let entry = Entry {
            attrs: attrs.clone(),
            key: DecisionKey::of(attrs),
            refs: 1,
            next: head,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(entry);
                AttrId(slot)
            }
            None => {
                self.entries.push(Some(entry));
                AttrId((self.entries.len() - 1) as u32)
            }
        };
        self.heads.insert(hash, id.0);
        self.live += 1;
        id
    }

    /// Unlinks `slot` from its hash chain.
    fn unlink(&mut self, slot: u32, attrs: &PathAttributes, next: u32) {
        let hash = self.hash(attrs);
        let head = self.heads.get(&hash).copied().unwrap_or(NIL);
        if head == slot {
            if next == NIL {
                self.heads.remove(&hash);
            } else {
                self.heads.insert(hash, next);
            }
            return;
        }
        let mut prev = head;
        while prev != NIL {
            let after = self.entry(prev).next;
            if after == slot {
                if let Some(e) = self.entries[prev as usize].as_mut() {
                    e.next = next;
                }
                return;
            }
            prev = after;
        }
        unreachable_released(AttrId(slot))
    }

    /// Takes an additional reference on an already-interned id.
    pub(crate) fn retain(&mut self, id: AttrId) {
        if let Some(e) = self.entries[id.0 as usize].as_mut() {
            e.refs += 1;
        }
    }

    /// Releases one reference; the entry is freed when the count hits zero.
    pub fn release(&mut self, id: AttrId) {
        let slot = id.0 as usize;
        let Some(e) = self.entries[slot].as_mut() else {
            return;
        };
        e.refs -= 1;
        if e.refs == 0 {
            if let Some(entry) = self.entries[slot].take() {
                self.unlink(id.0, &entry.attrs, entry.next);
            }
            self.free.push(id.0);
            self.live -= 1;
        }
    }

    /// The interned attributes for a handle.
    ///
    /// Returns a reference to the canonical copy; use
    /// [`DecisionKey`]s on [`RouteRec`] for hot-path comparisons instead.
    pub fn attrs(&self, id: AttrId) -> &PathAttributes {
        &self.entry(id.0).attrs
    }

    /// The precomputed decision key for a handle.
    pub(crate) fn key(&self, id: AttrId) -> DecisionKey {
        self.entry(id.0).key
    }

    /// Builds a [`RouteRec`] by interning `attrs` (takes one reference).
    pub fn make_rec(
        &mut self,
        attrs: &PathAttributes,
        source: RouteSource,
        egress: EgressId,
    ) -> RouteRec {
        let id = self.intern(attrs);
        RouteRec {
            attr: id,
            egress,
            source,
            key: self.key(id),
        }
    }

    /// Number of live (referenced) distinct attribute sets.
    pub fn distinct(&self) -> usize {
        self.live
    }

    /// Approximate heap footprint of the interned attribute sets in bytes,
    /// counting slab slots, deep attribute payloads (AS-path segments,
    /// communities, unknown attribute blobs) and the hash → chain-head
    /// index. Used by the bytes/route accounting gate in CI.
    pub(crate) fn approx_bytes(&self) -> usize {
        let slab = self.entries.capacity() * mem::size_of::<Option<Entry>>();
        let deep: usize = self
            .entries
            .iter()
            .flatten()
            .map(|e| attrs_heap_bytes(&e.attrs))
            .sum();
        // One (hash, head) pair plus a control byte per index bucket.
        let index = self.heads.capacity() * (mem::size_of::<(u64, u32)>() + 1);
        slab + deep + index
    }
}

/// Deep heap bytes owned by one attribute set (excluding its inline size).
fn attrs_heap_bytes(attrs: &PathAttributes) -> usize {
    let path: usize = attrs
        .as_path
        .segments
        .iter()
        .map(|s| mem::size_of_val(s) + std::mem::size_of_val(s.asns()))
        .sum();
    let comms = attrs.communities.capacity() * mem::size_of::<ef_net_types::Community>();
    let unknown: usize = attrs
        .unknown
        .iter()
        .map(|u| mem::size_of_val(u) + u.value.capacity())
        .sum();
    path + comms + unknown
}

#[cold]
#[inline(never)]
fn unreachable_released(id: AttrId) -> ! {
    // A dangling AttrId means a RouteRec outlived a RIB mutation — a logic
    // error in the caller, not recoverable state.
    panic!("AttrId {:?} refers to a released attribute entry", id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::peer::PeerId;
    use proptest::prelude::*;

    fn attrs(lp: u32, path: &[u32]) -> PathAttributes {
        PathAttributes {
            local_pref: Some(lp),
            as_path: AsPath::sequence(path.iter().map(|a| Asn(*a))),
            ..Default::default()
        }
    }

    #[test]
    fn intern_dedupes_equal_sets() {
        let mut store = AttrStore::new();
        let a = store.intern(&attrs(100, &[1, 2]));
        let b = store.intern(&attrs(100, &[1, 2]));
        let c = store.intern(&attrs(200, &[1, 2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.distinct(), 2);
    }

    #[test]
    fn release_frees_and_recycles_ids() {
        let mut store = AttrStore::new();
        let a = store.intern(&attrs(100, &[1]));
        store.intern(&attrs(100, &[1])); // refs = 2
        store.release(a);
        assert_eq!(store.distinct(), 1, "one ref still held");
        store.release(a);
        assert_eq!(store.distinct(), 0);
        // The freed slot is recycled for the next distinct set.
        let b = store.intern(&attrs(300, &[9]));
        assert_eq!(b, a);
        assert_eq!(store.attrs(b).local_pref, Some(300));
    }

    #[test]
    fn decision_key_matches_effective_values() {
        let a = attrs(0, &[]);
        let mut a = a;
        a.local_pref = None;
        a.med = None;
        let key = DecisionKey::of(&a);
        assert_eq!(key.local_pref, 100);
        assert_eq!(key.med, 0);
        assert_eq!(key.path_len, 0);
        assert_eq!(key.neighbor_as, None);
    }

    #[test]
    fn make_rec_and_materialize_round_trip() {
        let mut store = AttrStore::new();
        let source = RouteSource {
            peer: PeerId(4),
            peer_asn: Asn(65004),
            kind: PeerKind::Transit,
        };
        let a = attrs(250, &[65004, 65010]);
        let rec = store.make_rec(&a, source, EgressId(7));
        assert_eq!(rec.key.local_pref, 250);
        assert_eq!(rec.key.path_len, 2);
        assert_eq!(rec.key.neighbor_as, Some(Asn(65004)));
        assert!(!rec.is_override());
        assert_eq!(store.attrs(rec.attr), &a);
        assert_eq!(rec.egress, EgressId(7));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Intern(usize),
        Release(usize),
    }

    proptest! {
        /// The store against a `HashMap<PathAttributes, refs>` model plus
        /// the slab's allocation rule (pop the free list, else append).
        /// Every set hashes alike under `cfg(test)`, so releases unlink the
        /// head, middle and tail of one long chain.
        #[test]
        fn intern_release_matches_model(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0..10usize).prop_map(Op::Intern),
                    (0..10usize).prop_map(Op::Release),
                ],
                1..160,
            )
        ) {
            let pool: Vec<PathAttributes> =
                (0..10u32).map(|i| attrs(100 + i % 3, &[i / 3 + 1])).collect();
            let mut store = AttrStore::new();
            let mut model: HashMap<PathAttributes, (AttrId, u32)> = HashMap::new();
            let mut free: Vec<u32> = Vec::new();
            let mut slots = 0u32;
            for op in ops {
                match op {
                    Op::Intern(i) => {
                        let id = store.intern(&pool[i]);
                        match model.get_mut(&pool[i]) {
                            Some((want, refs)) => {
                                prop_assert_eq!(id, *want);
                                *refs += 1;
                            }
                            None => {
                                let want = free.pop().unwrap_or_else(|| {
                                    slots += 1;
                                    slots - 1
                                });
                                prop_assert_eq!(id, AttrId(want), "slot recycling order");
                                model.insert(pool[i].clone(), (id, 1));
                            }
                        }
                    }
                    Op::Release(i) => {
                        let Some((id, refs)) = model.get_mut(&pool[i]) else {
                            continue;
                        };
                        store.release(*id);
                        *refs -= 1;
                        if *refs == 0 {
                            free.push(id.0);
                            model.remove(&pool[i]);
                        }
                    }
                }
                prop_assert_eq!(store.distinct(), model.len());
                for (a, (id, _)) in &model {
                    prop_assert_eq!(store.attrs(*id), a);
                    prop_assert_eq!(store.key(*id), DecisionKey::of(a));
                }
            }
        }
    }

    #[test]
    fn rec_is_small() {
        assert!(
            mem::size_of::<RouteRec>() <= 56,
            "RouteRec grew past 56 bytes"
        );
    }

    #[test]
    fn approx_bytes_counts_deep_payload() {
        let mut store = AttrStore::new();
        assert_eq!(store.distinct(), 0);
        store.intern(&attrs(100, &[1, 2, 3, 4]));
        assert!(store.approx_bytes() > 4 * mem::size_of::<Asn>());
    }
}
