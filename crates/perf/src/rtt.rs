//! Latent path-performance model.
//!
//! Substitutes for the real Internet paths the paper measured. Each
//! `(PoP, prefix, egress interface)` triple has a deterministic latent base
//! RTT drawn from an interconnect-kind-dependent distribution, and the
//! *experienced* RTT adds queueing inflation as the egress interface's
//! utilization approaches (or exceeds) capacity, plus per-sample jitter.
//!
//! Two properties from §6 are engineered in:
//!
//! * **Preferred isn't always best.** Peer paths are usually a little
//!   faster than transit (direct, shorter), but a configurable tail of
//!   prefixes has a transit (or other alternate) path that is 20 ms+
//!   faster — peering via a congested or circuitous peer happens in
//!   practice.
//! * **Congestion hurts.** Utilization above ~85 % adds queueing delay
//!   growing without bound as utilization → 1; demand beyond capacity
//!   turns into loss.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ef_bgp::peer::PeerKind;
use ef_bgp::route::EgressId;

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Seed for the latent RTT draws.
    pub seed: u64,
    /// Fraction of (prefix, PoP) pairs whose best alternate beats the
    /// typical peer path by ≥ 20 ms (the §6 tail). Default 0.05.
    pub fast_alternate_fraction: f64,
    /// Per-sample jitter standard deviation, ms.
    pub jitter_ms: f64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            seed: 99,
            fast_alternate_fraction: 0.05,
            jitter_ms: 2.0,
        }
    }
}

/// Deterministic latent performance model.
#[derive(Debug, Clone)]
pub struct PathPerfModel {
    cfg: PerfConfig,
}

impl PathPerfModel {
    /// Creates the model.
    pub fn new(cfg: PerfConfig) -> Self {
        PathPerfModel { cfg }
    }

    /// Latent base RTT (ms) for a path, deterministic in
    /// `(seed, pop, prefix, egress)`.
    ///
    /// `kind` shifts the distribution: private/public peer paths center
    /// near 25–32 ms, transit near 42 ms — except for the engineered
    /// fast-transit tail where a transit path undercuts peers by 20 ms+.
    pub(crate) fn base_rtt_ms(
        &self,
        pop: u16,
        prefix_idx: u32,
        egress: EgressId,
        kind: PeerKind,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(
            self.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((pop as u64) << 48)
                ^ ((prefix_idx as u64) << 16)
                ^ egress.0 as u64,
        );
        // Is this (pop, prefix) in the fast-alternate tail? Derived from a
        // *path-independent* hash so the whole prefix agrees.
        let mut tail_rng = StdRng::seed_from_u64(
            self.cfg.seed ^ 0xABCD ^ ((pop as u64) << 32) ^ prefix_idx as u64,
        );
        let fast_alt_prefix = tail_rng.gen_bool(self.cfg.fast_alternate_fraction);

        let center = match kind {
            PeerKind::PrivatePeer => 25.0,
            PeerKind::PublicPeer => 30.0,
            PeerKind::RouteServer => 32.0,
            PeerKind::Transit => {
                if fast_alt_prefix {
                    // Circuitous peering: transit takes the short way.
                    12.0
                } else {
                    42.0
                }
            }
            PeerKind::Controller => 25.0,
        };
        // Lognormal-ish spread around the center.
        let spread: f64 = rng.gen_range(-0.35..0.55);
        (center * spread.exp()).max(2.0)
    }

    /// Queueing inflation (ms) at utilization `u` (= demand / capacity).
    ///
    /// Flat until 0.85, then a smooth knee; saturated interfaces (`u ≥ 1`)
    /// pay a large, still-finite penalty (buffers are finite; excess turns
    /// into loss instead).
    pub fn congestion_delay_ms(&self, utilization: f64) -> f64 {
        if utilization <= 0.85 {
            0.0
        } else if utilization < 1.0 {
            // M/M/1-flavored knee, capped by the loss regime.
            let u = utilization.min(0.995);
            2.0 * (u - 0.85) / (1.0 - u)
        } else {
            // Full buffers: ~60 ms standing queue.
            60.0
        }
    }

    /// Loss rate at utilization `u`: zero below capacity, and the excess
    /// fraction above it (fluid model: what doesn't fit is dropped).
    pub fn loss_rate(&self, utilization: f64) -> f64 {
        if utilization <= 1.0 {
            0.0
        } else {
            (utilization - 1.0) / utilization
        }
    }

    /// One experienced RTT sample: base + congestion + jitter.
    pub(crate) fn sample_rtt_ms(&self, base_ms: f64, utilization: f64, rng: &mut StdRng) -> f64 {
        let jitter = rng.gen_range(-1.0..1.0) * self.cfg.jitter_ms * 1.7;
        (base_ms + self.congestion_delay_ms(utilization) + jitter).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PathPerfModel {
        PathPerfModel::new(PerfConfig::default())
    }

    #[test]
    fn base_rtt_is_deterministic() {
        let m = model();
        let a = m.base_rtt_ms(1, 42, EgressId(7), PeerKind::PrivatePeer);
        let b = m.base_rtt_ms(1, 42, EgressId(7), PeerKind::PrivatePeer);
        assert_eq!(a, b);
        let c = m.base_rtt_ms(1, 43, EgressId(7), PeerKind::PrivatePeer);
        assert_ne!(a, c);
    }

    #[test]
    fn peers_usually_beat_transit() {
        let m = model();
        let mut peer_wins = 0;
        let n = 500;
        for prefix in 0..n {
            let peer = m.base_rtt_ms(0, prefix, EgressId(1), PeerKind::PrivatePeer);
            let transit = m.base_rtt_ms(0, prefix, EgressId(2), PeerKind::Transit);
            if peer < transit {
                peer_wins += 1;
            }
        }
        assert!(
            peer_wins as f64 / n as f64 > 0.7,
            "peer won only {peer_wins}/{n}"
        );
    }

    #[test]
    fn a_tail_of_prefixes_has_much_faster_transit() {
        let m = model();
        let n = 2000;
        let mut tail = 0;
        for prefix in 0..n {
            let peer = m.base_rtt_ms(0, prefix, EgressId(1), PeerKind::PrivatePeer);
            let transit = m.base_rtt_ms(0, prefix, EgressId(2), PeerKind::Transit);
            if peer - transit >= 20.0 {
                tail += 1;
            }
        }
        let frac = tail as f64 / n as f64;
        assert!(
            (0.01..0.12).contains(&frac),
            "fast-alternate tail is {frac:.3}, want ≈0.05"
        );
    }

    #[test]
    fn congestion_delay_shape() {
        let m = model();
        assert_eq!(m.congestion_delay_ms(0.2), 0.0);
        assert_eq!(m.congestion_delay_ms(0.85), 0.0);
        let at90 = m.congestion_delay_ms(0.90);
        let at97 = m.congestion_delay_ms(0.97);
        assert!(at90 > 0.0 && at97 > at90, "monotone knee: {at90} {at97}");
        assert_eq!(m.congestion_delay_ms(1.2), 60.0);
    }

    #[test]
    fn loss_only_above_capacity() {
        let m = model();
        assert_eq!(m.loss_rate(0.99), 0.0);
        assert_eq!(m.loss_rate(1.0), 0.0);
        let l = m.loss_rate(1.25);
        assert!((l - 0.2).abs() < 1e-12, "25% excess → 20% loss, got {l}");
    }

    #[test]
    fn samples_center_on_base_plus_congestion() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(4);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_rtt_ms(30.0, 0.5, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 30.0).abs() < 1.0, "mean {mean}");
        let congested: f64 = (0..n)
            .map(|_| m.sample_rtt_ms(30.0, 1.1, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(congested > 80.0, "congested mean {congested}");
    }

    #[test]
    fn samples_never_negative() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(m.sample_rtt_ms(2.0, 0.0, &mut rng) >= 1.0);
        }
    }
}
