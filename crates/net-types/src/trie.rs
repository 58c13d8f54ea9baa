//! The longest-prefix-match contract, stated as unit tests on
//! [`CompressedTrie`]: exact insert / get / remove, most-specific match,
//! the full match chain, family separation and ordered iteration. The
//! binary reference trie these cases were first written for lives in
//! `tests/trie_equivalence.rs`, which checks the two agree on random tables.

#[cfg(test)]
mod tests {
    use crate::{CompressedTrie, Prefix};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = CompressedTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let mut t = CompressedTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        let (pre, v) = t.longest_match(p("10.1.2.0/24")).unwrap();
        assert_eq!((pre, *v), (p("10.1.0.0/16"), "sixteen"));
        let (pre, v) = t.longest_match(p("10.2.0.0/24")).unwrap();
        assert_eq!((pre, *v), (p("10.0.0.0/8"), "eight"));
        let (pre, v) = t.longest_match(p("192.168.0.0/24")).unwrap();
        assert_eq!((pre, *v), (p("0.0.0.0/0"), "default"));
    }

    #[test]
    fn families_do_not_collide() {
        let mut t = CompressedTrie::new();
        t.insert(p("0.0.0.0/0"), "v4");
        t.insert(p("::/0"), "v6");
        assert_eq!(t.len(), 2);
        assert_eq!(*t.longest_match(p("1.2.3.0/24")).unwrap().1, "v4");
        assert_eq!(*t.longest_match(p("2001:db8::/32")).unwrap().1, "v6");
    }

    #[test]
    fn matches_returns_chain() {
        let mut t = CompressedTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        let m = t.matches(p("10.1.2.0/24"));
        let prefixes: Vec<Prefix> = m.iter().map(|(pfx, _)| *pfx).collect();
        assert_eq!(
            prefixes,
            vec![p("0.0.0.0/0"), p("10.0.0.0/8"), p("10.1.0.0/16")]
        );
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = CompressedTrie::new();
        let input = ["10.0.0.0/8", "9.0.0.0/8", "10.1.0.0/16", "2001:db8::/32"];
        for (i, s) in input.iter().enumerate() {
            t.insert(p(s), i);
        }
        let got: Vec<Prefix> = t.iter().map(|(pfx, _)| pfx).collect();
        assert_eq!(
            got,
            vec![
                p("9.0.0.0/8"),
                p("10.0.0.0/8"),
                p("10.1.0.0/16"),
                p("2001:db8::/32")
            ]
        );
    }
}
