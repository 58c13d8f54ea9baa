use std::fmt;

use serde::{Deserialize, Serialize};

/// An Autonomous System Number (4-byte, RFC 6793).
///
/// ASNs identify the networks that exchange routes over BGP: Facebook's edge
/// (AS32934 in the real world), its transit providers, and every peer at
/// every PoP. The newtype keeps ASNs from being confused with other `u32`
/// identifiers flying around the simulator.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// The ASN used for the content provider's own network in generated
    /// deployments (Facebook's real ASN, used here as a recognizable default).
    pub const LOCAL: Asn = Asn(32934);

    /// Returns true if the ASN fits in two bytes (pre-RFC 6793 space).
    pub fn is_16bit(self) -> bool {
        self.0 <= u16::MAX as u32
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<Asn> for u32 {
    fn from(v: Asn) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_as_prefix() {
        assert_eq!(Asn(64512).to_string(), "AS64512");
    }

    #[test]
    fn sixteen_bit_detection() {
        assert!(Asn(65535).is_16bit());
        assert!(!Asn(65536).is_16bit());
    }

    #[test]
    fn round_trips_through_u32() {
        let a = Asn(12345);
        assert_eq!(Asn::from(u32::from(a)), a);
    }

    #[test]
    fn serde_is_transparent() {
        let a = Asn(701);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "701");
        assert_eq!(serde_json::from_str::<Asn>(&json).unwrap(), a);
    }
}
