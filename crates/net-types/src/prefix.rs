use std::cmp::Ordering;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// An IP prefix (CIDR block), IPv4 or IPv6.
///
/// Prefixes are the unit Edge Fabric steers: the controller's traffic
/// collector aggregates flow samples per prefix, the allocator detours whole
/// prefixes, and override BGP announcements carry exactly one prefix each.
///
/// Host bits beyond the mask are always stored zeroed, so two `Prefix` values
/// are equal iff they denote the same CIDR block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub enum Prefix {
    /// IPv4 prefix: network address (host bits zero) plus mask length 0..=32.
    V4 { addr: u32, len: u8 },
    /// IPv6 prefix: network address (host bits zero) plus mask length 0..=128.
    V6 { addr: u128, len: u8 },
}

impl Prefix {
    /// Builds an IPv4 prefix, zeroing host bits. Panics if `len > 32`.
    pub fn v4(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "IPv4 prefix length {len} > 32");
        let raw = u32::from(addr);
        Prefix::V4 {
            addr: raw & mask_v4(len),
            len,
        }
    }

    /// Builds an IPv6 prefix, zeroing host bits. Panics if `len > 128`.
    pub fn v6(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "IPv6 prefix length {len} > 128");
        let raw = u128::from(addr);
        Prefix::V6 {
            addr: raw & mask_v6(len),
            len,
        }
    }

    /// The default IPv4 route `0.0.0.0/0`.
    pub const DEFAULT_V4: Prefix = Prefix::V4 { addr: 0, len: 0 };

    /// Mask length in bits.
    pub fn len(&self) -> u8 {
        match *self {
            Prefix::V4 { len, .. } | Prefix::V6 { len, .. } => len,
        }
    }

    /// True for the zero-length (default) route.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if this is an IPv4 prefix.
    pub fn is_v4(&self) -> bool {
        matches!(self, Prefix::V4 { .. })
    }

    /// The network address bits, left-aligned into a `u128` regardless of
    /// family: the family word's top bit (31 for IPv4, 127 for IPv6) becomes
    /// bit 127. This
    /// is the canonical key for the radix trie.
    pub fn bits_left_aligned(&self) -> u128 {
        match *self {
            Prefix::V4 { addr, .. } => (addr as u128) << 96,
            Prefix::V6 { addr, .. } => addr,
        }
    }

    /// True if `self` contains `other`: same family, `self.len <=
    /// other.len`, and the first `self.len` bits agree. A prefix contains
    /// itself.
    pub fn contains(&self, other: &Prefix) -> bool {
        if self.is_v4() != other.is_v4() || self.len() > other.len() {
            return false;
        }
        if self.is_empty() {
            return true;
        }
        let shift = 128 - self.len() as u32;
        (self.bits_left_aligned() >> shift) == (other.bits_left_aligned() >> shift)
    }

    /// Splits this prefix into its two halves, one mask bit longer.
    /// Returns `None` if the prefix is already maximally specific.
    pub fn halves(&self) -> Option<(Prefix, Prefix)> {
        match *self {
            Prefix::V4 { addr, len } if len < 32 => {
                let bit = 1u32 << (31 - len);
                Some((
                    Prefix::V4 { addr, len: len + 1 },
                    Prefix::V4 {
                        addr: addr | bit,
                        len: len + 1,
                    },
                ))
            }
            Prefix::V6 { addr, len } if len < 128 => {
                let bit = 1u128 << (127 - len);
                Some((
                    Prefix::V6 { addr, len: len + 1 },
                    Prefix::V6 {
                        addr: addr | bit,
                        len: len + 1,
                    },
                ))
            }
            _ => None,
        }
    }
}

fn mask_v4(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

fn mask_v6(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Prefix::V4 { addr, len } => write!(f, "{}/{}", Ipv4Addr::from(addr), len),
            Prefix::V6 { addr, len } => write!(f, "{}/{}", Ipv6Addr::from(addr), len),
        }
    }
}

/// Error produced when parsing a prefix from CIDR text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError(format!("missing '/' in {s:?}")))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixParseError(format!("bad length in {s:?}")))?;
        if let Ok(v4) = addr.parse::<Ipv4Addr>() {
            if len > 32 {
                return Err(PrefixParseError(format!("IPv4 length {len} > 32")));
            }
            Ok(Prefix::v4(v4, len))
        } else if let Ok(v6) = addr.parse::<Ipv6Addr>() {
            if len > 128 {
                return Err(PrefixParseError(format!("IPv6 length {len} > 128")));
            }
            Ok(Prefix::v6(v6, len))
        } else {
            Err(PrefixParseError(format!("bad address in {s:?}")))
        }
    }
}

impl TryFrom<String> for Prefix {
    type Error = PrefixParseError;
    fn try_from(s: String) -> Result<Self, Self::Error> {
        s.parse()
    }
}

impl From<Prefix> for String {
    fn from(p: Prefix) -> String {
        p.to_string()
    }
}

/// Orders IPv4 before IPv6, then by left-aligned bits, then by length —
/// a stable total order convenient for deterministic iteration.
impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.is_v4() as u8)
            .cmp(&(other.is_v4() as u8))
            .reverse()
            .then(self.bits_left_aligned().cmp(&other.bits_left_aligned()))
            .then(self.len().cmp(&other.len()))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_v4() {
        assert_eq!(p("10.1.0.0/16").to_string(), "10.1.0.0/16");
        assert_eq!(p("0.0.0.0/0"), Prefix::DEFAULT_V4);
    }

    #[test]
    fn parse_and_display_v6() {
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8::/32");
    }

    #[test]
    fn host_bits_are_normalized() {
        assert_eq!(p("10.1.2.3/16"), p("10.1.0.0/16"));
        assert_eq!(p("2001:db8::1/32"), p("2001:db8::/32"));
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
        assert!("banana/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn containment_basics() {
        assert!(p("10.0.0.0/8").contains(&p("10.1.0.0/16")));
        assert!(!p("10.1.0.0/16").contains(&p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").contains(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").contains(&p("11.0.0.0/16")));
        assert!(p("0.0.0.0/0").contains(&p("192.168.1.0/24")));
        // cross-family never contains
        assert!(!p("0.0.0.0/0").contains(&p("2001:db8::/32")));
    }

    #[test]
    fn contains_address() {
        assert!(p("192.168.0.0/16").contains(&p("192.168.3.4/32")));
        assert!(!p("192.168.0.0/16").contains(&p("192.169.0.0/32")));
    }

    #[test]
    fn halves_and_parent() {
        let (lo, hi) = p("10.0.0.0/8").halves().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        // Rebuilt one bit shorter, either half masks back to the /8.
        assert_eq!(Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 8), p("10.0.0.0/8"));
        assert_eq!(Prefix::v4(Ipv4Addr::new(10, 128, 0, 0), 8), p("10.0.0.0/8"));
        assert!(p("1.2.3.4/32").halves().is_none());
        assert_eq!(
            Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 0),
            Prefix::DEFAULT_V4
        );
    }

    #[test]
    fn bit_indexing() {
        // Left-aligned, so bit 0 of the address is the top bit of the u128.
        assert_eq!(p("128.0.0.0/1").bits_left_aligned() >> 127, 1);
        assert_eq!(p("64.0.0.0/2").bits_left_aligned() >> 126, 0b01);
        assert_eq!(p("8000::/1").bits_left_aligned() >> 127, 1);
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = vec![p("10.0.0.0/8"), p("2001:db8::/32"), p("1.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("1.0.0.0/8"), p("10.0.0.0/8"), p("2001:db8::/32")]);
    }

    #[test]
    fn serde_round_trip() {
        let pre = p("203.0.113.0/24");
        let json = serde_json::to_string(&pre).unwrap();
        assert_eq!(json, "\"203.0.113.0/24\"");
        assert_eq!(serde_json::from_str::<Prefix>(&json).unwrap(), pre);
    }

    proptest! {
        #[test]
        fn prop_v4_parse_display_round_trip(addr: u32, len in 0u8..=32) {
            let pre = Prefix::v4(Ipv4Addr::from(addr), len);
            let back: Prefix = pre.to_string().parse().unwrap();
            prop_assert_eq!(pre, back);
        }

        #[test]
        fn prop_v6_parse_display_round_trip(addr: u128, len in 0u8..=128) {
            let pre = Prefix::v6(Ipv6Addr::from(addr), len);
            let back: Prefix = pre.to_string().parse().unwrap();
            prop_assert_eq!(pre, back);
        }

        #[test]
        fn prop_parent_contains_child(addr: u32, len in 1u8..=32) {
            let child = Prefix::v4(Ipv4Addr::from(addr), len);
            let parent = Prefix::v4(Ipv4Addr::from(addr), len - 1);
            prop_assert!(parent.contains(&child));
        }

        #[test]
        fn prop_halves_partition(addr: u32, len in 0u8..=31) {
            let pre = Prefix::v4(Ipv4Addr::from(addr), len);
            let (lo, hi) = pre.halves().unwrap();
            prop_assert!(pre.contains(&lo));
            prop_assert!(pre.contains(&hi));
            prop_assert!(!lo.contains(&hi));
            prop_assert!(!hi.contains(&lo));
        }

        #[test]
        fn prop_containment_is_transitive(addr: u32, a in 0u8..=30) {
            let c = Prefix::v4(Ipv4Addr::from(addr), a + 2);
            let b = Prefix::v4(Ipv4Addr::from(addr), a + 1);
            let top = Prefix::v4(Ipv4Addr::from(addr), a);
            prop_assert!(top.contains(&b) && b.contains(&c));
            prop_assert!(top.contains(&c));
        }
    }
}
