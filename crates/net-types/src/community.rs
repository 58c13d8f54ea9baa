use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::Asn;

/// A classic 32-bit BGP community (RFC 1997), displayed as `asn:value`.
///
/// Edge Fabric leans on communities in two places the paper calls out:
///
/// * Peering routers tag routes at import with the *peer type* (transit,
///   private/public peer, route server) so the controller can classify every
///   route it sees over BMP.
/// * The controller's injected overrides carry a community marking them as
///   controller-originated so they can be audited and filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Community(pub u32);

impl Community {
    /// Builds a community from the conventional `asn:value` pair.
    ///
    /// Only the low 16 bits of the ASN are representable in a classic
    /// community; generated topologies use 16-bit ASNs for tagging.
    pub const fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high 16 bits, conventionally an ASN.
    pub fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low 16 bits, the operator-defined value.
    pub fn value_part(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Communities the reproduction uses to tag routes at import by peer
    /// type, mirroring the paper's route classification. The ASN part is the
    /// low 16 bits of the local AS.
    pub fn peer_type_tag(kind_code: u16) -> Self {
        Community::new((Asn::LOCAL.0 & 0xFFFF) as u16, kind_code)
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

/// Error produced when parsing a community from `asn:value` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityParseError(String);

impl fmt::Display for CommunityParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid community: {}", self.0)
    }
}

impl std::error::Error for CommunityParseError {}

impl FromStr for Community {
    type Err = CommunityParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, v) = s
            .split_once(':')
            .ok_or_else(|| CommunityParseError(format!("missing ':' in {s:?}")))?;
        let a: u16 = a
            .parse()
            .map_err(|_| CommunityParseError(format!("bad asn part in {s:?}")))?;
        let v: u16 = v
            .parse()
            .map_err(|_| CommunityParseError(format!("bad value part in {s:?}")))?;
        Ok(Community::new(a, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packs_parts() {
        let c = Community::new(32934, 100);
        assert_eq!(c.asn_part(), 32934);
        assert_eq!(c.value_part(), 100);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let c = Community::new(65000, 42);
        assert_eq!(c.to_string(), "65000:42");
        assert_eq!("65000:42".parse::<Community>().unwrap(), c);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("65000".parse::<Community>().is_err());
        assert!("a:b".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err());
    }
}
