//! Equivalence proptests: the path-compressed [`CompressedTrie`] (both the
//! incremental and the batched `from_sorted` build) must be observationally
//! identical to a plain binary trie, [`PrefixTrie`], on arbitrary mixed
//! v4/v6 prefix sets — exact match, longest-prefix match, `matches`,
//! removal, and iteration order.
//!
//! [`PrefixTrie`] is the reference model: one boxed node per key bit, no
//! path compression, no node merging — simple enough to be obviously
//! right, and used nowhere but here.

use std::net::{Ipv4Addr, Ipv6Addr};

use proptest::prelude::*;

use ef_net_types::{CompressedTrie, Prefix};

/// A binary radix trie keyed by [`Prefix`]. IPv4 and IPv6 occupy disjoint
/// subtrees, so one trie holds both families.
struct PrefixTrie<T> {
    v4: Node<T>,
    v6: Node<T>,
    len: usize,
}

struct Node<T> {
    value: Option<T>,
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

impl<T> PrefixTrie<T> {
    fn new() -> Self {
        PrefixTrie {
            v4: Node::default(),
            v6: Node::default(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn root(&self, p: &Prefix) -> &Node<T> {
        if p.is_v4() {
            &self.v4
        } else {
            &self.v6
        }
    }

    fn root_mut(&mut self, p: &Prefix) -> &mut Node<T> {
        if p.is_v4() {
            &mut self.v4
        } else {
            &mut self.v6
        }
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = self.root_mut(&prefix);
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value stored exactly at `prefix`. Interior
    /// nodes left empty are not pruned.
    fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let mut node = self.root_mut(prefix);
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value stored exactly at `prefix`, if any.
    fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut node = self.root(prefix);
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Every stored prefix that contains `key`, least to most specific.
    fn matches(&self, key: Prefix) -> Vec<(Prefix, &T)> {
        let mut out = Vec::new();
        let mut node = self.root(&key);
        if let Some(v) = node.value.as_ref() {
            out.push((truncate(key, 0), v));
        }
        for i in 0..key.len() {
            let b = key.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        out.push((truncate(key, i + 1), v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// The most specific stored prefix that contains `key`.
    fn longest_match(&self, key: Prefix) -> Option<(Prefix, &T)> {
        self.matches(key).pop()
    }

    /// Every `(prefix, value)` pair in bitwise, v4-then-v6 order.
    fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        collect(&self.v4, Prefix::V4 { addr: 0, len: 0 }, &mut out);
        collect(&self.v6, Prefix::V6 { addr: 0, len: 0 }, &mut out);
        out.into_iter()
    }
}

/// `key` truncated to `len` bits (host bits zeroed).
fn truncate(key: Prefix, len: u8) -> Prefix {
    match key {
        Prefix::V4 { addr, .. } => {
            let mask = if len == 0 {
                0
            } else {
                u32::MAX << (32 - len as u32)
            };
            Prefix::V4 {
                addr: addr & mask,
                len,
            }
        }
        Prefix::V6 { addr, .. } => {
            let mask = if len == 0 {
                0
            } else {
                u128::MAX << (128 - len as u32)
            };
            Prefix::V6 {
                addr: addr & mask,
                len,
            }
        }
    }
}

fn collect<'a, T>(node: &'a Node<T>, at: Prefix, out: &mut Vec<(Prefix, &'a T)>) {
    if let Some(v) = node.value.as_ref() {
        out.push((at, v));
    }
    if let Some((lo, hi)) = at.halves() {
        if let Some(c) = node.children[0].as_deref() {
            collect(c, lo, out);
        }
        if let Some(c) = node.children[1].as_deref() {
            collect(c, hi, out);
        }
    }
}

/// An arbitrary prefix from either family, biased toward short masks so
/// overlap (and therefore interesting LPM behaviour) is common.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::v4(Ipv4Addr::from(a), l)),
        (any::<u32>(), 0u8..=16).prop_map(|(a, l)| Prefix::v4(Ipv4Addr::from(a), l)),
        (any::<u128>(), 0u8..=128).prop_map(|(a, l)| Prefix::v6(Ipv6Addr::from(a), l)),
        (any::<u128>(), 0u8..=48).prop_map(|(a, l)| Prefix::v6(Ipv6Addr::from(a), l)),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<(Prefix, u32)>> {
    proptest::collection::vec((arb_prefix(), any::<u32>()), 0..60)
}

proptest! {
    /// Incremental inserts: every observation matches the binary trie.
    #[test]
    fn incremental_build_matches_binary_trie(
        entries in arb_entries(),
        keys in proptest::collection::vec(arb_prefix(), 1..20),
    ) {
        let mut simple = PrefixTrie::new();
        let mut compressed = CompressedTrie::new();
        for (pfx, v) in &entries {
            prop_assert_eq!(simple.insert(*pfx, *v), compressed.insert(*pfx, *v));
        }
        prop_assert_eq!(simple.len(), compressed.len());
        for key in entries.iter().map(|(p, _)| *p).chain(keys) {
            prop_assert_eq!(simple.get(&key), compressed.get(&key));
            // The match chain, one truncation at a time.
            for len in 0..=key.len() {
                let cut = truncate(key, len);
                prop_assert_eq!(simple.longest_match(cut), compressed.longest_match(cut));
            }
        }
        let a: Vec<(Prefix, u32)> = simple.iter().map(|(p, v)| (p, *v)).collect();
        let b: Vec<(Prefix, u32)> = compressed.iter().map(|(p, v)| (p, *v)).collect();
        prop_assert_eq!(a, b);
    }

    /// The batched one-pass build is indistinguishable from incremental
    /// insertion, including last-wins duplicate handling.
    #[test]
    fn batched_build_matches_incremental(entries in arb_entries()) {
        let mut incremental = CompressedTrie::new();
        for (pfx, v) in &entries {
            incremental.insert(*pfx, *v);
        }
        let batched = CompressedTrie::from_sorted(entries.clone());
        prop_assert_eq!(batched.len(), incremental.len());
        let a: Vec<(Prefix, u32)> = incremental.iter().map(|(p, v)| (p, *v)).collect();
        let b: Vec<(Prefix, u32)> = batched.iter().map(|(p, v)| (p, *v)).collect();
        prop_assert_eq!(a, b);
        for (pfx, _) in &entries {
            prop_assert_eq!(batched.get(pfx), incremental.get(pfx));
            prop_assert_eq!(batched.longest_match(*pfx), incremental.longest_match(*pfx));
        }
        // Canonical patricia bound: at most 2n-1 live nodes.
        if !batched.is_empty() {
            prop_assert!(batched.node_count() < 2 * batched.len());
        }
    }

    /// Interleaved removals track the binary trie, and the arena stays
    /// canonical (merge-on-remove) after every step.
    #[test]
    fn removal_matches_binary_trie(
        entries in arb_entries(),
        remove_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let mut simple = PrefixTrie::new();
        let mut compressed = CompressedTrie::new();
        for (pfx, v) in &entries {
            simple.insert(*pfx, *v);
            compressed.insert(*pfx, *v);
        }
        for (i, (pfx, _)) in entries.iter().enumerate() {
            if remove_mask[i % remove_mask.len()] {
                prop_assert_eq!(simple.remove(pfx), compressed.remove(pfx));
                if !compressed.is_empty() {
                    prop_assert!(compressed.node_count() < 2 * compressed.len());
                }
            }
        }
        prop_assert_eq!(simple.len(), compressed.len());
        for (pfx, _) in &entries {
            prop_assert_eq!(simple.get(pfx), compressed.get(pfx));
            prop_assert_eq!(simple.longest_match(*pfx), compressed.longest_match(*pfx));
        }
        let a: Vec<(Prefix, u32)> = simple.iter().map(|(p, v)| (p, *v)).collect();
        let b: Vec<(Prefix, u32)> = compressed.iter().map(|(p, v)| (p, *v)).collect();
        prop_assert_eq!(a, b);
        // Removing everything must drain the arena completely.
        for (pfx, _) in &entries {
            compressed.remove(pfx);
        }
        prop_assert!(compressed.is_empty());
        prop_assert_eq!(compressed.node_count(), 0);
    }
}
