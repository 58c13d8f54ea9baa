//! Geographic regions, used to place PoPs and eyeball networks and to
//! phase-shift their diurnal demand curves.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A coarse world region. Granularity matches what the demand model needs:
/// enough longitude spread that PoP peaks do not all align in simulated UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// North America (UTC−6 representative).
    NorthAmerica,
    /// South America (UTC−4).
    SouthAmerica,
    /// Europe (UTC+1).
    Europe,
    /// Africa (UTC+2).
    Africa,
    /// Middle East / West Asia (UTC+4).
    MiddleEast,
    /// South Asia (UTC+5).
    SouthAsia,
    /// East Asia (UTC+9).
    EastAsia,
    /// Oceania (UTC+11).
    Oceania,
}

impl Region {
    /// Every region, in a fixed order used for round-robin placement.
    pub const ALL: [Region; 8] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::EastAsia,
        Region::SouthAmerica,
        Region::SouthAsia,
        Region::Oceania,
        Region::Africa,
        Region::MiddleEast,
    ];

    /// Representative UTC offset in hours, used to phase the diurnal curve.
    pub fn utc_offset_hours(self) -> f64 {
        match self {
            Region::NorthAmerica => -6.0,
            Region::SouthAmerica => -4.0,
            Region::Europe => 1.0,
            Region::Africa => 2.0,
            Region::MiddleEast => 4.0,
            Region::SouthAsia => 5.0,
            Region::EastAsia => 9.0,
            Region::Oceania => 11.0,
        }
    }

    /// Rough share of global demand originating in this region, loosely
    /// following public traffic-distribution reports. Sums to 1.
    pub(crate) fn demand_share(self) -> f64 {
        match self {
            Region::NorthAmerica => 0.26,
            Region::SouthAmerica => 0.10,
            Region::Europe => 0.22,
            Region::Africa => 0.06,
            Region::MiddleEast => 0.06,
            Region::SouthAsia => 0.12,
            Region::EastAsia => 0.14,
            Region::Oceania => 0.04,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NA",
            Region::SouthAmerica => "SA",
            Region::Europe => "EU",
            Region::Africa => "AF",
            Region::MiddleEast => "ME",
            Region::SouthAsia => "SAS",
            Region::EastAsia => "EAS",
            Region::Oceania => "OC",
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_shares_sum_to_one() {
        let total: f64 = Region::ALL.iter().map(|r| r.demand_share()).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn all_contains_each_region_once() {
        let mut v = Region::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn offsets_span_the_globe() {
        let min = Region::ALL
            .iter()
            .map(|r| r.utc_offset_hours())
            .fold(f64::INFINITY, f64::min);
        let max = Region::ALL
            .iter()
            .map(|r| r.utc_offset_hours())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min >= 12.0, "peaks must be well spread");
    }
}
