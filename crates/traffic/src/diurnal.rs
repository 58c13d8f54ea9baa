//! Diurnal demand curves.
//!
//! Paper §3.2's congestion exists because demand is strongly diurnal: the
//! evening peak at each PoP runs roughly 1.5–2× the daily average, and the
//! preferred interconnects are provisioned somewhere in between. The curve
//! here is a raised cosine peaking at 20:00 *local* time, phased per region
//! by its UTC offset, normalized to mean 1 over the day.

use serde::{Deserialize, Serialize};

use ef_topology::Region;

/// A raised-cosine diurnal multiplier with configurable peak.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct DiurnalCurve {
    /// Multiplier at the daily peak (mean is 1.0). Typical: 1.8.
    pub peak_factor: f64,
    /// Local hour of the peak. Typical: 20.0 (8 pm).
    pub peak_hour: f64,
}

impl Default for DiurnalCurve {
    fn default() -> Self {
        DiurnalCurve {
            peak_factor: 1.8,
            peak_hour: 20.0,
        }
    }
}

impl DiurnalCurve {
    /// The demand multiplier at `utc_hours` (hours since simulated
    /// midnight UTC, may exceed 24) for a consumer in `region`.
    pub(crate) fn multiplier(&self, utc_hours: f64, region: Region) -> f64 {
        let local = utc_hours + region.utc_offset_hours();
        let amplitude = self.peak_factor - 1.0;
        let phase = (local - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        1.0 + amplitude * phase.cos()
    }

    /// Multiplier as a function of seconds since midnight UTC.
    pub(crate) fn multiplier_at_secs(&self, utc_secs: u64, region: Region) -> f64 {
        self.multiplier(utc_secs as f64 / 3600.0, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn peaks_at_peak_hour_local() {
        let curve = DiurnalCurve::default();
        // Europe is UTC+1, so local 20:00 is 19:00 UTC.
        let at_peak = curve.multiplier(19.0, Region::Europe);
        assert!((at_peak - 1.8).abs() < 1e-9);
        let off_peak = curve.multiplier(7.0, Region::Europe);
        assert!((off_peak - 0.2).abs() < 1e-9, "trough is 2 - peak");
    }

    #[test]
    fn regions_peak_at_different_utc_times() {
        let curve = DiurnalCurve::default();
        // At 19:00 UTC Europe peaks but East Asia (UTC+9, local 04:00) is
        // near trough.
        let eu = curve.multiplier(19.0, Region::Europe);
        let eas = curve.multiplier(19.0, Region::EastAsia);
        assert!(eu > 1.7);
        assert!(
            eas < 0.65,
            "East Asia at local 04:00 is near trough, got {eas}"
        );
    }

    #[test]
    fn mean_over_day_is_one() {
        let curve = DiurnalCurve::default();
        let n = 24 * 60;
        let mean: f64 = (0..n)
            .map(|i| curve.multiplier(i as f64 / 60.0, Region::NorthAmerica))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn seconds_and_hours_agree() {
        let curve = DiurnalCurve::default();
        let a = curve.multiplier(6.5, Region::Oceania);
        let b = curve.multiplier_at_secs(6 * 3600 + 1800, Region::Oceania);
        assert!((a - b).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_multiplier_positive_and_bounded(
            h in 0.0f64..48.0,
            peak in 1.0f64..1.99,
        ) {
            let curve = DiurnalCurve {
                peak_factor: peak,
                ..Default::default()
            };
            for region in Region::ALL {
                let m = curve.multiplier(h, region);
                prop_assert!(m > 0.0);
                prop_assert!(m <= peak + 1e-9);
            }
        }

        #[test]
        fn prop_periodic_in_24h(h in 0.0f64..24.0) {
            let curve = DiurnalCurve::default();
            let a = curve.multiplier(h, Region::Europe);
            let b = curve.multiplier(h + 24.0, Region::Europe);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
