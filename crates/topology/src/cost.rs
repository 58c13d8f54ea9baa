//! The egress cost model and the 95/5 billing meter.
//!
//! Grounded in how interconnection is actually billed (cf. "Paid Peering,
//! Settlement-Free Peering, or Both?"): settlement-free peering costs
//! nothing, a PNI costs a fixed amortized port fee, and transit bills
//! `$/Mbps` against the 95th-percentile of 5-minute utilization samples —
//! the industry's "95/5" scheme, where the top 5 % of samples (about 36
//! hours a month of bursting) are free.
//!
//! [`CostModel`] is the scenario-level knob set: a transit price ladder
//! (providers are not priced equally — that asymmetry is exactly what a
//! cost-aware allocator exploits), the PNI port amortization, and the
//! billing percentile/window. [`BillingMeter`] streams per-interface load
//! samples and computes the billable rate deterministically: samples close
//! in simulated-time order, percentile selection is nearest-rank over a
//! `total_cmp` sort, and iteration is over a `BTreeMap` — byte-identical
//! output at any thread count.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use ef_bgp::route::EgressId;
use ef_bgp::PeeringClass;

/// A typed rejection from [`CostModel::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum CostConfigError {
    /// The transit price ladder is empty.
    EmptyTransitLadder,
    /// A transit price is NaN, infinite, or negative.
    TransitPrice(f64),
    /// The PNI port cost is NaN, infinite, or negative.
    PniPortCost(f64),
    /// The billing percentile is outside (0, 100].
    Percentile(f64),
    /// The billing window is zero.
    Window,
}

impl fmt::Display for CostConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostConfigError::EmptyTransitLadder => {
                write!(f, "transit_usd_per_mbps must name at least one price")
            }
            CostConfigError::TransitPrice(v) => {
                write!(f, "transit price {v} must be finite and non-negative")
            }
            CostConfigError::PniPortCost(v) => {
                write!(
                    f,
                    "pni_port_usd_per_month {v} must be finite and non-negative"
                )
            }
            CostConfigError::Percentile(v) => {
                write!(f, "billing_percentile {v} outside (0, 100]")
            }
            CostConfigError::Window => write!(f, "billing_window_secs must be positive"),
        }
    }
}

impl std::error::Error for CostConfigError {}

/// Scenario-level egress economics: what each interconnect class costs and
/// how metered traffic is billed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Transit price ladder, USD per Mbps of billable rate per month. The
    /// generator assigns prices to transit providers by cycling this list
    /// in provider order, so a multi-entry ladder prices providers
    /// differently (the default single entry prices them uniformly, which
    /// makes the cost tiebreak a no-op and preserves legacy behavior).
    pub transit_usd_per_mbps: Vec<f64>,
    /// Amortized PNI port + cross-connect cost, USD/month per PNI.
    pub pni_port_usd_per_month: f64,
    /// Billing percentile (95.0 = the industry's 95/5 scheme).
    pub billing_percentile: f64,
    /// Billing sample window, seconds (300 = the canonical 5 minutes).
    pub billing_window_secs: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            transit_usd_per_mbps: vec![ef_bgp::DEFAULT_TRANSIT_USD_PER_MBPS],
            pni_port_usd_per_month: ef_bgp::DEFAULT_PNI_PORT_USD,
            billing_percentile: 95.0,
            billing_window_secs: 300,
        }
    }
}

impl CostModel {
    /// Validates invariants; call before building a scenario around the
    /// model (NaN or negative prices would silently poison every billing
    /// sum downstream).
    pub fn validate(&self) -> Result<(), CostConfigError> {
        if self.transit_usd_per_mbps.is_empty() {
            return Err(CostConfigError::EmptyTransitLadder);
        }
        for &price in &self.transit_usd_per_mbps {
            if !price.is_finite() || price < 0.0 {
                return Err(CostConfigError::TransitPrice(price));
            }
        }
        if !self.pni_port_usd_per_month.is_finite() || self.pni_port_usd_per_month < 0.0 {
            return Err(CostConfigError::PniPortCost(self.pni_port_usd_per_month));
        }
        if !(self.billing_percentile > 0.0 && self.billing_percentile <= 100.0) {
            return Err(CostConfigError::Percentile(self.billing_percentile));
        }
        if self.billing_window_secs == 0 {
            return Err(CostConfigError::Window);
        }
        Ok(())
    }

    /// The transit price for the `i`-th transit provider at a PoP (the
    /// ladder cycles, so every provider index maps to a price).
    pub fn transit_price(&self, provider_index: usize) -> f64 {
        self.transit_usd_per_mbps[provider_index % self.transit_usd_per_mbps.len()]
    }

    /// The transit class for the `i`-th provider.
    pub fn transit_class(&self, provider_index: usize) -> PeeringClass {
        PeeringClass::Transit {
            usd_per_mbps: self.transit_price(provider_index),
        }
    }

    /// The PNI class under this model.
    pub fn pni_class(&self) -> PeeringClass {
        PeeringClass::Pni {
            port_cost: self.pni_port_usd_per_month,
        }
    }

    /// A fresh billing meter over this model's window.
    pub fn meter(&self) -> BillingMeter {
        BillingMeter::new(self.billing_window_secs)
    }
}

/// One interface's accumulation state inside the meter.
#[derive(Debug, Clone, Default)]
struct MeterSlot {
    /// Index of the currently open window (valid once `started`).
    window: u64,
    /// Mbps·seconds accumulated into the open window.
    acc_mbps_secs: f64,
    /// Average rates of closed windows, in time order.
    samples: Vec<f64>,
    started: bool,
}

impl MeterSlot {
    /// Closes every window before `w`, zero-filling gaps, and opens `w`.
    fn advance_to(&mut self, w: u64, window_secs: u64) {
        if !self.started {
            self.window = w;
            self.started = true;
            return;
        }
        while self.window < w {
            self.samples.push(self.acc_mbps_secs / window_secs as f64);
            self.acc_mbps_secs = 0.0;
            self.window += 1;
        }
    }
}

/// Streams per-interface load samples and computes the billable
/// (95th-percentile) rate per interface, deterministically.
///
/// Feed it one [`record`](Self::record) per interface per epoch (a load
/// held for a duration); it slices the load across billing windows, closes
/// windows as simulated time advances, and zero-fills idle gaps. Call
/// [`finish`](Self::finish) once at end of run to close the last window,
/// then read [`billable_mbps`](Self::billable_mbps).
#[derive(Debug, Clone)]
pub struct BillingMeter {
    window_secs: u64,
    slots: BTreeMap<EgressId, MeterSlot>,
    finished: bool,
}

impl BillingMeter {
    /// A meter with the given sample window (seconds, must be positive).
    pub fn new(window_secs: u64) -> Self {
        assert!(window_secs > 0, "billing window must be positive");
        BillingMeter {
            window_secs,
            slots: BTreeMap::new(),
            finished: false,
        }
    }

    /// The sample window, seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Records `mbps` carried on `egress` over `[t_secs, t_secs +
    /// duration_secs)`. Records must arrive in non-decreasing time order
    /// per interface (the epoch loop's natural order); a record spanning
    /// several windows is sliced across them.
    pub fn record(&mut self, egress: EgressId, t_secs: u64, duration_secs: u64, mbps: f64) {
        debug_assert!(!self.finished, "record after finish");
        let slot = self.slots.entry(egress).or_default();
        let end = t_secs + duration_secs;
        let mut cur = t_secs;
        while cur < end {
            let w = cur / self.window_secs;
            slot.advance_to(w, self.window_secs);
            let window_end = (w + 1) * self.window_secs;
            let span = window_end.min(end) - cur;
            slot.acc_mbps_secs += mbps * span as f64;
            cur = window_end.min(end);
        }
    }

    /// Closes the open window on every interface. Idempotent; call once at
    /// end of run before reading billable rates.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for slot in self.slots.values_mut() {
            if slot.started {
                slot.samples
                    .push(slot.acc_mbps_secs / self.window_secs as f64);
                slot.acc_mbps_secs = 0.0;
            }
        }
    }

    /// The closed samples for one interface, in time order.
    pub fn samples(&self, egress: EgressId) -> &[f64] {
        self.slots
            .get(&egress)
            .map(|s| s.samples.as_slice())
            .unwrap_or(&[])
    }

    /// Interfaces with any recorded samples, in id order.
    pub fn interfaces(&self) -> impl Iterator<Item = EgressId> + '_ {
        self.slots.keys().copied()
    }

    /// The billable rate for one interface: the nearest-rank `percentile`
    /// of its closed samples (95.0 under 95/5 billing). Zero when nothing
    /// was recorded.
    pub fn billable_mbps(&self, egress: EgressId, percentile: f64) -> f64 {
        percentile_nearest_rank(self.samples(egress), percentile)
    }
}

/// Nearest-rank percentile over a sample set: the smallest sample such that
/// at least `p%` of samples are ≤ it. This is the billing industry's
/// definition (no interpolation): with 100 samples, p95 is the 95th
/// largest-sorted sample, so the top 5 are free.
pub fn percentile_nearest_rank(samples: &[f64], percentile: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_model_validates_and_is_uniform() {
        let cm = CostModel::default();
        cm.validate().unwrap();
        // A single-entry ladder prices every provider identically, keeping
        // the cost tiebreak a no-op by default.
        assert_eq!(cm.transit_price(0), cm.transit_price(5));
        assert_eq!(cm.billing_window_secs, 300);
        assert!((cm.billing_percentile - 95.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = |f: fn(&mut CostModel)| {
            let mut cm = CostModel::default();
            f(&mut cm);
            cm.validate().is_err()
        };
        assert!(bad(|c| c.transit_usd_per_mbps.clear()));
        assert!(bad(|c| c.transit_usd_per_mbps = vec![f64::NAN]));
        assert!(bad(|c| c.transit_usd_per_mbps = vec![1.0, -0.5]));
        assert!(bad(|c| c.transit_usd_per_mbps = vec![f64::INFINITY]));
        assert!(bad(|c| c.pni_port_usd_per_month = -1.0));
        assert!(bad(|c| c.pni_port_usd_per_month = f64::NAN));
        assert!(bad(|c| c.billing_percentile = 0.0));
        assert!(bad(|c| c.billing_percentile = 101.0));
        assert!(bad(|c| c.billing_percentile = f64::NAN));
        assert!(bad(|c| c.billing_window_secs = 0));
        // Errors carry the offending value.
        let cm = CostModel {
            transit_usd_per_mbps: vec![-2.0],
            ..Default::default()
        };
        assert_eq!(cm.validate(), Err(CostConfigError::TransitPrice(-2.0)));
        assert!(cm.validate().unwrap_err().to_string().contains("-2"));
    }

    #[test]
    fn ladder_cycles_over_providers() {
        let cm = CostModel {
            transit_usd_per_mbps: vec![0.5, 1.5, 3.0],
            ..Default::default()
        };
        assert_eq!(cm.transit_price(0), 0.5);
        assert_eq!(cm.transit_price(1), 1.5);
        assert_eq!(cm.transit_price(2), 3.0);
        assert_eq!(cm.transit_price(3), 0.5);
        assert_eq!(
            cm.transit_class(1),
            PeeringClass::Transit { usd_per_mbps: 1.5 }
        );
        assert_eq!(cm.pni_class().fixed_usd_per_month(), 2500.0);
    }

    #[test]
    fn meter_bills_p95_of_constant_load() {
        let mut m = BillingMeter::new(300);
        let e = EgressId(1);
        for i in 0..100u64 {
            m.record(e, i * 300, 300, 400.0);
        }
        m.finish();
        assert_eq!(m.samples(e).len(), 100);
        assert!((m.billable_mbps(e, 95.0) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn top_five_percent_of_bursts_are_free() {
        // 95 quiet windows and 5 bursting ones: 95/5 billing charges the
        // quiet rate — the whole point of burstable transit.
        let mut m = BillingMeter::new(300);
        let e = EgressId(7);
        for i in 0..100u64 {
            let mbps = if i < 5 { 10_000.0 } else { 100.0 };
            m.record(e, i * 300, 300, mbps);
        }
        m.finish();
        assert!((m.billable_mbps(e, 95.0) - 100.0).abs() < 1e-9);
        // A 6th bursting window crosses the 5 % budget and gets billed.
        let mut m = BillingMeter::new(300);
        for i in 0..100u64 {
            let mbps = if i < 6 { 10_000.0 } else { 100.0 };
            m.record(e, i * 300, 300, mbps);
        }
        m.finish();
        assert!((m.billable_mbps(e, 95.0) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn records_slice_across_windows_and_gaps_bill_zero() {
        let mut m = BillingMeter::new(300);
        let e = EgressId(2);
        // One 600 s record at 300 Mbps spans two windows...
        m.record(e, 0, 600, 300.0);
        // ...then a gap of three windows, then one more epoch.
        m.record(e, 1500, 300, 900.0);
        m.finish();
        assert_eq!(m.samples(e), &[300.0, 300.0, 0.0, 0.0, 0.0, 900.0]);
        // The idle gap drags the median to zero; the burst sets the p95.
        assert_eq!(m.billable_mbps(e, 50.0), 0.0);
        assert_eq!(m.billable_mbps(e, 95.0), 900.0);
    }

    #[test]
    fn sub_window_epochs_average_within_the_window() {
        // Four 75 s epochs at different rates inside one 300 s window
        // average to their time-weighted mean.
        let mut m = BillingMeter::new(300);
        let e = EgressId(3);
        for (i, mbps) in [100.0, 200.0, 300.0, 400.0].iter().enumerate() {
            m.record(e, i as u64 * 75, 75, *mbps);
        }
        m.finish();
        assert_eq!(m.samples(e).len(), 1);
        assert!((m.samples(e)[0] - 250.0).abs() < 1e-9);
    }

    #[test]
    fn finish_is_idempotent_and_empty_meter_bills_zero() {
        let mut m = BillingMeter::new(300);
        m.record(EgressId(1), 0, 300, 50.0);
        m.finish();
        m.finish();
        assert_eq!(m.samples(EgressId(1)).len(), 1);
        assert_eq!(m.billable_mbps(EgressId(9), 95.0), 0.0);
        assert_eq!(m.interfaces().collect::<Vec<_>>(), vec![EgressId(1)]);
    }

    #[test]
    fn nearest_rank_matches_hand_cases() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_nearest_rank(&s, 100.0), 40.0);
        assert_eq!(percentile_nearest_rank(&s, 50.0), 20.0);
        assert_eq!(percentile_nearest_rank(&s, 25.0), 10.0);
        assert_eq!(percentile_nearest_rank(&s, 1.0), 10.0);
        assert_eq!(percentile_nearest_rank(&[], 95.0), 0.0);
    }

    /// Naive oracle: sort a copy and take the nearest-rank index directly.
    fn oracle_p95(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        let rank = ((0.95 * n as f64).ceil() as usize).max(1);
        v[rank - 1]
    }

    proptest! {
        /// The meter's p95 matches the sort-based oracle for arbitrary
        /// sample streams fed one whole window at a time.
        #[test]
        fn meter_p95_matches_oracle(samples in proptest::collection::vec(0.0f64..20_000.0, 1..200)) {
            let mut m = BillingMeter::new(300);
            let e = EgressId(4);
            for (i, mbps) in samples.iter().enumerate() {
                m.record(e, i as u64 * 300, 300, *mbps);
            }
            m.finish();
            prop_assert_eq!(m.samples(e).len(), samples.len());
            let got = m.billable_mbps(e, 95.0);
            let want = oracle_p95(&samples);
            prop_assert!((got - want).abs() < 1e-9, "got {} want {}", got, want);
        }

        /// Growing any one sample never lowers the billable rate.
        #[test]
        fn billable_is_monotone_in_each_sample(
            samples in proptest::collection::vec(0.0f64..10_000.0, 1..100),
            idx in 0usize..100,
            bump in 0.0f64..5_000.0,
        ) {
            let idx = idx % samples.len();
            let before = oracle_p95(&samples);
            let mut grown = samples.clone();
            grown[idx] += bump;
            let after = oracle_p95(&grown);
            prop_assert!(after >= before - 1e-12, "p95 fell from {} to {}", before, after);
        }

        /// Slicing one window's traffic into arbitrary epoch chunks bills
        /// identically to recording it whole (time-weighted averaging).
        #[test]
        fn window_slicing_is_exact(chunks in proptest::collection::vec((1u64..300, 0.0f64..1_000.0), 1..8)) {
            let total: u64 = chunks.iter().map(|(d, _)| d).sum();
            prop_assume!(total <= 300);
            let mut sliced = BillingMeter::new(300);
            let mut t = 0u64;
            let mut mbps_secs = 0.0;
            for (dur, mbps) in &chunks {
                sliced.record(EgressId(1), t, *dur, *mbps);
                t += dur;
                mbps_secs += mbps * *dur as f64;
            }
            sliced.finish();
            let want = mbps_secs / 300.0;
            prop_assert!((sliced.samples(EgressId(1))[0] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn serde_round_trip() {
        let cm = CostModel {
            transit_usd_per_mbps: vec![0.5, 2.0],
            pni_port_usd_per_month: 1800.0,
            billing_percentile: 90.0,
            billing_window_secs: 600,
        };
        let json = serde_json::to_string(&cm).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cm);
    }
}
