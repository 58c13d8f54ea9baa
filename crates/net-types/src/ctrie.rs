//! A path-compressed (patricia) radix trie keyed by [`Prefix`], stored in a
//! flat arena.
//!
//! A plain binary trie allocates one boxed node per key *bit*: a /24 route
//! costs 24 pointer-chased heap nodes. At full-table scale (~1M prefixes)
//! that is tens of millions of cache-missing nodes. The [`CompressedTrie`]
//! collapses every non-branching chain into a single node
//! carrying a *skip string* (the edge label), so the node count is bounded by
//! `2·keys - 1` regardless of key length, and all nodes live contiguously in
//! one `Vec` addressed by `u32` indices — no per-node allocation, no pointer
//! chasing across the heap.
//!
//! A batched [`from_sorted`](CompressedTrie::from_sorted) build constructs
//! the canonical trie for a key set in one pass over the sorted keys
//! (O(n) nodes, O(1) label computation per node), which is how a 1M-prefix
//! FIB loads without a million root-to-leaf descents.
//!
//! Layout invariant (canonical patricia form): every node either stores a
//! value or has two children (the family roots may transiently hold a single
//! child with a value-less label only when they compress the whole family
//! into one chain — i.e. the root *is* the chain). `remove` restores the
//! invariant by merging pass-through nodes into their single child.

use crate::Prefix;

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct CNode<T> {
    /// Edge label (skip string): the key bits this node consumes below its
    /// parent, left-aligned at bit 127. Bits past `label_len` are zero.
    label: u128,
    /// Number of valid bits in `label`.
    label_len: u8,
    /// Value stored at depth `parent_depth + label_len`, if this node
    /// terminates a stored prefix.
    value: Option<T>,
    /// Children, indexed by the key bit following this node's label.
    child: [u32; 2],
}

/// A path-compressed prefix trie over a flat node arena. See the module docs.
///
/// IPv4 and IPv6 occupy disjoint subtrees (two root slots) so a single trie
/// holds both families.
#[derive(Debug, Clone)]
pub struct CompressedTrie<T> {
    nodes: Vec<CNode<T>>,
    /// Recycled node slots.
    free: Vec<u32>,
    v4_root: u32,
    v6_root: u32,
    len: usize,
}

impl<T> Default for CompressedTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// `x << s`, well-defined as 0 for shifts >= 128.
#[inline]
fn shl(x: u128, s: u32) -> u128 {
    if s >= 128 {
        0
    } else {
        x << s
    }
}

/// Mask selecting the top `n` bits of a left-aligned word.
#[inline]
fn mask_left(n: u8) -> u128 {
    if n == 0 {
        0
    } else {
        u128::MAX << (128 - n as u32)
    }
}

/// Length of the common prefix of two left-aligned bit strings, capped.
#[inline]
fn common_len(a: u128, b: u128, cap: u8) -> u8 {
    let diff = a ^ b;
    let lz = diff.leading_zeros() as u8;
    lz.min(cap)
}

/// Bit `i` (from the top) of a left-aligned bit string.
#[inline]
fn bit_at(bits: u128, i: u8) -> usize {
    ((bits >> (127 - i as u32)) & 1) as usize
}

/// Returns `key` truncated to `len` bits.
fn truncate(key: Prefix, len: u8) -> Prefix {
    match key {
        Prefix::V4 { addr, .. } => Prefix::V4 {
            addr: addr & (mask_left(len) >> 96) as u32,
            len,
        },
        Prefix::V6 { addr, .. } => Prefix::V6 {
            addr: addr & mask_left(len),
            len,
        },
    }
}

impl<T> CompressedTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        CompressedTrie {
            nodes: Vec::new(),
            free: Vec::new(),
            v4_root: NIL,
            v6_root: NIL,
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of arena nodes currently allocated (live + free). Bounded by
    /// `2·len - 1` live nodes in canonical form; exposed for accounting.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Approximate resident bytes of the arena.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<CNode<T>>()
    }

    fn root_slot(&self, v4: bool) -> u32 {
        if v4 {
            self.v4_root
        } else {
            self.v6_root
        }
    }

    fn set_root(&mut self, v4: bool, idx: u32) {
        if v4 {
            self.v4_root = idx;
        } else {
            self.v6_root = idx;
        }
    }

    fn alloc(&mut self, node: CNode<T>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let key = prefix.bits_left_aligned();
        let klen = prefix.len();
        let v4 = prefix.is_v4();

        if self.root_slot(v4) == NIL {
            let leaf = self.alloc(CNode {
                label: key & mask_left(klen),
                label_len: klen,
                value: Some(value),
                child: [NIL, NIL],
            });
            self.set_root(v4, leaf);
            self.len += 1;
            return None;
        }

        let mut cur = self.root_slot(v4);
        // (parent index, child slot) of `cur`; NIL parent means family root.
        let mut parent: (u32, usize) = (NIL, 0);
        let mut depth: u8 = 0;
        loop {
            let node = &self.nodes[cur as usize];
            let rem_key = shl(key, depth as u32);
            let rem_len = klen - depth;
            let common = common_len(rem_key, node.label, rem_len.min(node.label_len));

            if common < node.label_len {
                // The key diverges (or ends) inside this node's label:
                // split the label at `common`.
                let node_label = node.label;
                let node_label_len = node.label_len;
                let old_bit = bit_at(node_label, common);
                // Shorten the existing node to the label tail.
                {
                    let node = &mut self.nodes[cur as usize];
                    node.label = shl(node_label, common as u32);
                    node.label_len = node_label_len - common;
                }
                let mut split = CNode {
                    label: node_label & mask_left(common),
                    label_len: common,
                    value: None,
                    child: [NIL, NIL],
                };
                split.child[old_bit] = cur;
                let split_idx = if common == rem_len {
                    // The inserted prefix terminates exactly at the split.
                    split.value = Some(value);
                    self.alloc(split)
                } else {
                    let new_bit = bit_at(rem_key, common);
                    let split_idx = self.alloc(split);
                    let leaf = self.alloc(CNode {
                        label: shl(rem_key, common as u32) & mask_left(rem_len - common),
                        label_len: rem_len - common,
                        value: Some(value),
                        child: [NIL, NIL],
                    });
                    self.nodes[split_idx as usize].child[new_bit] = leaf;
                    split_idx
                };
                if parent.0 == NIL {
                    self.set_root(v4, split_idx);
                } else {
                    self.nodes[parent.0 as usize].child[parent.1] = split_idx;
                }
                self.len += 1;
                return None;
            }

            // The whole label matches.
            if rem_len == node.label_len {
                let old = self.nodes[cur as usize].value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }

            // Descend past the label.
            let next_depth = depth + node.label_len;
            let b = bit_at(key, next_depth);
            let next = self.nodes[cur as usize].child[b];
            if next == NIL {
                let leaf = self.alloc(CNode {
                    label: shl(key, next_depth as u32) & mask_left(klen - next_depth),
                    label_len: klen - next_depth,
                    value: Some(value),
                    child: [NIL, NIL],
                });
                self.nodes[cur as usize].child[b] = leaf;
                self.len += 1;
                return None;
            }
            parent = (cur, b);
            cur = next;
            depth = next_depth;
        }
    }

    /// Walks to the node holding `prefix` exactly. Returns its index.
    fn find(&self, prefix: &Prefix) -> Option<u32> {
        let key = prefix.bits_left_aligned();
        let klen = prefix.len();
        let mut cur = self.root_slot(prefix.is_v4());
        let mut depth: u8 = 0;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            let rem_key = shl(key, depth as u32);
            let rem_len = klen - depth;
            if node.label_len > rem_len
                || common_len(rem_key, node.label, node.label_len) < node.label_len
            {
                return None;
            }
            if rem_len == node.label_len {
                return Some(cur);
            }
            depth += node.label_len;
            cur = node.child[bit_at(key, depth)];
        }
        None
    }

    /// Returns the value stored exactly at `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        self.find(prefix)
            .and_then(|idx| self.nodes[idx as usize].value.as_ref())
    }

    /// Removes and returns the value stored exactly at `prefix`, merging
    /// pass-through nodes so the arena stays canonical under churn.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let key = prefix.bits_left_aligned();
        let klen = prefix.len();
        let v4 = prefix.is_v4();
        let mut cur = self.root_slot(v4);
        let mut parent: (u32, usize) = (NIL, 0);
        let mut depth: u8 = 0;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            let rem_key = shl(key, depth as u32);
            let rem_len = klen - depth;
            if node.label_len > rem_len
                || common_len(rem_key, node.label, node.label_len) < node.label_len
            {
                return None;
            }
            if rem_len == node.label_len {
                let old = self.nodes[cur as usize].value.take()?;
                self.len -= 1;
                self.cleanup(cur, parent, v4);
                return Some(old);
            }
            depth += node.label_len;
            let b = bit_at(key, depth);
            parent = (cur, b);
            cur = self.nodes[cur as usize].child[b];
        }
        None
    }

    /// Restores canonical form around a node whose value was just removed:
    /// drops it if it became an empty leaf, merges it into its single child
    /// if it became a pass-through, then re-examines the parent.
    fn cleanup(&mut self, idx: u32, parent: (u32, usize), v4: bool) {
        let (c0, c1) = {
            let n = &self.nodes[idx as usize];
            (n.child[0], n.child[1])
        };
        match (c0 != NIL, c1 != NIL) {
            (false, false) => {
                // Empty leaf: unlink and free, then fix the parent, which
                // may have become a value-less pass-through.
                if parent.0 == NIL {
                    self.set_root(v4, NIL);
                } else {
                    self.nodes[parent.0 as usize].child[parent.1] = NIL;
                }
                self.free.push(idx);
                if parent.0 != NIL && self.nodes[parent.0 as usize].value.is_none() {
                    self.merge_single_child(parent.0);
                }
            }
            (true, false) | (false, true) => self.merge_single_child(idx),
            (true, true) => {}
        }
    }

    /// If `idx` has exactly one child and no value, splices the child's
    /// label onto `idx` and absorbs it (freeing the child slot).
    fn merge_single_child(&mut self, idx: u32) {
        let (c0, c1, label_len, has_value) = {
            let n = &self.nodes[idx as usize];
            (n.child[0], n.child[1], n.label_len, n.value.is_some())
        };
        if has_value {
            return;
        }
        let child = match (c0 != NIL, c1 != NIL) {
            (true, false) => c0,
            (false, true) => c1,
            _ => return,
        };
        let child_node = std::mem::replace(
            &mut self.nodes[child as usize],
            CNode {
                label: 0,
                label_len: 0,
                value: None,
                child: [NIL, NIL],
            },
        );
        self.free.push(child);
        let n = &mut self.nodes[idx as usize];
        n.label |= child_node.label >> label_len as u32;
        n.label_len += child_node.label_len;
        n.value = child_node.value;
        n.child = child_node.child;
    }

    /// Longest-prefix match: the most specific stored prefix that contains
    /// `key`, together with its value.
    pub fn longest_match(&self, key: Prefix) -> Option<(Prefix, &T)> {
        let kbits = key.bits_left_aligned();
        let klen = key.len();
        let mut best: Option<(u8, u32)> = None;
        let mut cur = self.root_slot(key.is_v4());
        let mut depth: u8 = 0;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            // The node's full label must lie within the key for its prefix
            // to contain the key.
            if node.label_len > klen - depth
                || common_len(shl(kbits, depth as u32), node.label, node.label_len) < node.label_len
            {
                break;
            }
            depth += node.label_len;
            if node.value.is_some() {
                best = Some((depth, cur));
            }
            if depth == klen {
                break;
            }
            cur = node.child[bit_at(kbits, depth)];
        }
        best.and_then(|(len, idx)| {
            self.nodes[idx as usize]
                .value
                .as_ref()
                .map(|v| (truncate(key, len), v))
        })
    }

    /// Iterates over every `(prefix, value)` pair in deterministic
    /// (bitwise, v4-then-v6) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_family(self.v4_root, true, &mut out);
        self.collect_family(self.v6_root, false, &mut out);
        out.into_iter()
    }

    fn collect_family<'a>(&'a self, root: u32, v4: bool, out: &mut Vec<(Prefix, &'a T)>) {
        if root == NIL {
            return;
        }
        // Pre-order DFS, child 0 before child 1, which is exactly (bits, len)
        // order: a node's own value sorts before everything in its subtrees,
        // and subtree 0's bit pattern sorts below subtree 1's.
        let mut stack: Vec<(u32, u128, u8)> = vec![(root, 0, 0)];
        while let Some((idx, bits, depth)) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let bits = bits | (node.label >> depth as u32);
            let depth = depth + node.label_len;
            // Push child 1 first so child 0 pops first.
            if node.child[1] != NIL {
                stack.push((node.child[1], bits, depth));
            }
            if node.child[0] != NIL {
                stack.push((node.child[0], bits, depth));
            }
            if let Some(v) = node.value.as_ref() {
                let prefix = if v4 {
                    Prefix::V4 {
                        addr: (bits >> 96) as u32,
                        len: depth,
                    }
                } else {
                    Prefix::V6 {
                        addr: bits,
                        len: depth,
                    }
                };
                out.push((prefix, v));
            }
        }
    }

    /// Builds the canonical trie for a key set in one pass (the batched
    /// build path): sort by `(bits, len)`, then recursively emit one node
    /// per branch point with an O(1) label computation — no per-key
    /// root-to-leaf descent. Later duplicates win, matching repeated
    /// [`insert`](Self::insert).
    pub fn from_sorted(mut entries: Vec<(Prefix, T)>) -> Self {
        entries.sort_by_key(|a| a.0);
        // Keep the *last* occurrence of duplicate prefixes (stable sort
        // preserves input order within runs), so repeated keys behave like
        // repeated `insert` calls. Values are wrapped in Option so the
        // recursive build can move them out of the slice.
        let mut dedup: Vec<(Prefix, Option<T>)> = Vec::with_capacity(entries.len());
        for (p, v) in entries {
            match dedup.last_mut() {
                Some(last) if last.0 == p => last.1 = Some(v),
                _ => dedup.push((p, Some(v))),
            }
        }
        let split = dedup.partition_point(|(p, _)| p.is_v4());
        let mut trie = CompressedTrie {
            nodes: Vec::with_capacity(dedup.len().saturating_mul(2)),
            free: Vec::new(),
            v4_root: NIL,
            v6_root: NIL,
            len: dedup.len(),
        };
        let (v4_entries, v6_entries) = dedup.split_at_mut(split);
        trie.v4_root = trie_build_range(&mut trie, v4_entries, 0);
        trie.v6_root = trie_build_range(&mut trie, v6_entries, 0);
        trie
    }
}

/// Recursive step of [`CompressedTrie::from_sorted`]: builds the subtree for
/// `entries` (sorted, deduped, all agreeing on their first `depth` bits, each
/// len >= depth) and returns its root node index.
fn trie_build_range<T>(
    trie: &mut CompressedTrie<T>,
    entries: &mut [(Prefix, Option<T>)],
    depth: u8,
) -> u32 {
    if entries.is_empty() {
        return NIL;
    }
    let first_bits = entries[0].0.bits_left_aligned();
    let first_len = entries[0].0.len();
    let last_bits = entries[entries.len() - 1].0.bits_left_aligned();
    // Sorted range ⇒ the common bit-prefix of all entries is that of first
    // and last. Capping at the first entry's len also caps at the range's
    // minimum len: among equal bit patterns the shortest len sorts first,
    // and a shorter entry elsewhere in the range would shrink the lcp too.
    let l = common_len(first_bits, last_bits, first_len).max(depth);

    let label = shl(first_bits, depth as u32) & mask_left(l - depth);
    let idx = trie.alloc(CNode {
        label,
        label_len: l - depth,
        value: None,
        child: [NIL, NIL],
    });

    // An entry terminating exactly at the branch point is necessarily the
    // first of the range (same bits, smallest len).
    let rest = if first_len == l {
        let (head, rest) = entries.split_at_mut(1);
        trie.nodes[idx as usize].value = head[0].1.take();
        rest
    } else {
        entries
    };
    if !rest.is_empty() {
        let mid = rest.partition_point(|(p, _)| bit_at(p.bits_left_aligned(), l) == 0);
        let (zeros, ones) = rest.split_at_mut(mid);
        let c0 = trie_build_range(trie, zeros, l);
        let c1 = trie_build_range(trie, ones, l);
        trie.nodes[idx as usize].child = [c0, c1];
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = CompressedTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.1.0.0/16"), 2), None);
        assert_eq!(t.insert(p("10.1.0.0/16"), 3), Some(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&3));
        assert_eq!(t.get(&p("10.2.0.0/16")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(1));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&p("10.1.0.0/16")), Some(3));
        assert!(t.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = CompressedTrie::new();
        t.insert(p("10.0.0.0/8"), 10);
        let old = t.insert(p("10.0.0.0/8"), 15);
        assert_eq!(old, Some(10));
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&15));
        assert_eq!(t.len(), 1);
        assert!(t.get(&p("10.0.0.0/9")).is_none());
    }

    #[test]
    fn longest_match_exact_hit() {
        let mut t = CompressedTrie::new();
        t.insert(p("10.1.0.0/16"), 7);
        let (pre, v) = t.longest_match(p("10.1.0.0/16")).unwrap();
        assert_eq!((pre, *v), (p("10.1.0.0/16"), 7));
    }

    #[test]
    fn longest_match_misses_when_nothing_contains() {
        let mut t = CompressedTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert!(t.longest_match(p("11.0.0.0/8")).is_none());
        // A more-specific entry does not match a less-specific key.
        assert!(t.longest_match(p("10.0.0.0/4")).is_none());
    }

    #[test]
    fn longest_match_picks_most_specific() {
        let mut t = CompressedTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "coarse");
        t.insert(p("10.1.0.0/16"), "fine");
        let (pfx, v) = t.longest_match(p("10.1.2.0/24")).unwrap();
        assert_eq!(pfx, p("10.1.0.0/16"));
        assert_eq!(*v, "fine");
        let (pfx, v) = t.longest_match(p("10.200.0.0/16")).unwrap();
        assert_eq!(pfx, p("10.0.0.0/8"));
        assert_eq!(*v, "coarse");
        let (pfx, v) = t.longest_match(p("192.0.2.0/24")).unwrap();
        assert_eq!(pfx, p("0.0.0.0/0"));
        assert_eq!(*v, "default");
    }

    #[test]
    fn matches_lists_least_to_most_specific() {
        let mut t = CompressedTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        let key = p("10.1.2.3/32");
        let chain: Vec<u8> = [8, 16, 24]
            .into_iter()
            .map(|len| t.longest_match(truncate(key, len)).unwrap().0.len())
            .collect();
        assert_eq!(chain, vec![8, 16, 24]);
        // Each truncation sees the chain member at or above its length,
        // and nothing shorter than the /8 contains the key.
        t.insert(p("0.0.0.0/0"), 0);
        for len in 0..=key.len() {
            let (pfx, v) = t.longest_match(truncate(key, len)).unwrap();
            let want = len.min(24) / 8 * 8;
            assert_eq!((pfx.len(), *v), (want, want));
        }
    }

    #[test]
    fn families_do_not_interfere() {
        let mut t = CompressedTrie::new();
        t.insert(p("::/0"), "v6-default");
        t.insert(p("0.0.0.0/0"), "v4-default");
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(p("1.2.3.0/24")).unwrap().1, &"v4-default");
        t.insert(p("10.0.0.0/8"), "v4");
        assert_eq!(t.longest_match(p("10.1.0.0/16")).unwrap().1, &"v4");
        assert_eq!(
            t.longest_match(p("2001:db8::/32")).unwrap().1,
            &"v6-default"
        );
        assert_eq!(t.get(&p("::/0")), Some(&"v6-default"));
    }

    #[test]
    fn node_count_stays_canonical_under_churn() {
        let mut t = CompressedTrie::new();
        for i in 0u32..64 {
            t.insert(Prefix::v4(Ipv4Addr::from(i << 8), 24), i);
        }
        assert!(t.node_count() < 2 * t.len());
        for i in 0u32..32 {
            t.remove(&Prefix::v4(Ipv4Addr::from(i << 8), 24));
        }
        // Merge-on-remove keeps the arena canonical, not just correct.
        assert!(t.node_count() < 2 * t.len());
        for i in 32u32..64 {
            t.remove(&Prefix::v4(Ipv4Addr::from(i << 8), 24));
        }
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = CompressedTrie::new();
        let keys = [
            "10.1.0.0/16",
            "10.0.0.0/8",
            "2001:db8::/32",
            "0.0.0.0/0",
            "10.1.0.0/24",
        ];
        for (i, k) in keys.iter().enumerate() {
            t.insert(p(k), i);
        }
        let got: Vec<Prefix> = t.iter().map(|(pfx, _)| pfx).collect();
        let mut want: Vec<Prefix> = keys.iter().map(|k| p(k)).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn from_sorted_matches_incremental() {
        let keys = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.0.0.0/9",
            "10.128.0.0/9",
            "10.1.2.0/24",
            "192.0.2.0/24",
            "::/0",
            "2001:db8::/32",
            "2001:db8::1/128",
        ];
        let batched =
            CompressedTrie::from_sorted(keys.iter().enumerate().map(|(i, k)| (p(k), i)).collect());
        let mut incremental = CompressedTrie::new();
        for (i, k) in keys.iter().enumerate() {
            incremental.insert(p(k), i);
        }
        assert_eq!(batched.len(), incremental.len());
        let a: Vec<(Prefix, usize)> = batched.iter().map(|(pfx, v)| (pfx, *v)).collect();
        let b: Vec<(Prefix, usize)> = incremental.iter().map(|(pfx, v)| (pfx, *v)).collect();
        assert_eq!(a, b);
        for k in &keys {
            assert_eq!(batched.get(&p(k)), incremental.get(&p(k)));
        }
        assert!(batched.node_count() < 2 * batched.len());
    }

    #[test]
    fn from_sorted_duplicates_keep_last() {
        let t = CompressedTrie::from_sorted(vec![(p("10.0.0.0/8"), 1), (p("10.0.0.0/8"), 2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn host_route_boundaries() {
        let mut t = CompressedTrie::new();
        t.insert(p("255.255.255.255/32"), "v4-host");
        t.insert(p("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"), "v6-host");
        assert_eq!(t.get(&p("255.255.255.255/32")), Some(&"v4-host"));
        assert_eq!(
            t.longest_match(p("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"))
                .unwrap()
                .1,
            &"v6-host"
        );
        assert_eq!(t.remove(&p("255.255.255.255/32")), Some("v4-host"));
        assert_eq!(t.len(), 1);
    }

    proptest! {
        /// The trie must agree with a naive scan over a HashMap model.
        #[test]
        fn prop_matches_model(
            entries in proptest::collection::hash_map(0u32..1u32<<16, any::<u32>(), 0..50),
            key: u32,
        ) {
            // Map 16-bit numbers to /16 prefixes and a /24 key, so overlaps happen.
            let mut trie = CompressedTrie::new();
            let mut model: HashMap<Prefix, u32> = HashMap::new();
            for (k, v) in &entries {
                let pfx = Prefix::v4(Ipv4Addr::from(k << 16), 16);
                trie.insert(pfx, *v);
                model.insert(pfx, *v);
            }
            let keypfx = Prefix::v4(Ipv4Addr::from(key), 24);
            let expected = model
                .iter()
                .filter(|(pfx, _)| pfx.contains(&keypfx))
                .max_by_key(|(pfx, _)| pfx.len())
                .map(|(pfx, v)| (*pfx, *v));
            let got = trie.longest_match(keypfx).map(|(pfx, v)| (pfx, *v));
            prop_assert_eq!(got, expected);
        }

        /// Insert-then-remove returns the trie to exact-match emptiness.
        #[test]
        fn prop_insert_remove_inverse(addrs in proptest::collection::vec(any::<u32>(), 1..40)) {
            let mut trie = CompressedTrie::new();
            let prefixes: Vec<Prefix> = addrs
                .iter()
                .map(|a| Prefix::v4(Ipv4Addr::from(*a), 24))
                .collect();
            for (i, pfx) in prefixes.iter().enumerate() {
                trie.insert(*pfx, i);
            }
            for pfx in &prefixes {
                trie.remove(pfx);
            }
            prop_assert!(trie.is_empty());
            prop_assert_eq!(trie.node_count(), 0);
            for pfx in &prefixes {
                prop_assert!(trie.get(pfx).is_none());
            }
        }
    }
}
