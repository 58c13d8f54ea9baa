//! Steering mechanisms: how a placement decision becomes traffic.
//!
//! The controller decides *that* a population should leave a PoP; each
//! (population, PoP) cell's [`Steer`] models *how fast and how
//! completely* that decision takes effect. Two mechanisms bracket the
//! space:
//!
//! * [`Steer::Dns`] — fractional and gradual. The map can move any
//!   fraction of a population, but resolver caches mean an issued change
//!   only converges over a TTL horizon.
//! * [`Steer::Anycast`] — atomic and delayed. Withdrawing an announcement
//!   moves the whole catchment at once, a BGP-convergence delay after the
//!   decision. There is never a fractional state.
//!
//! Both gate the *return* path on reported headroom: a population only
//! flows back once its former PoP has room for the population's whole
//! baseline again. Without that gate a blackout oscillates — drain
//! empties the PoP, the empty PoP looks healthy, traffic returns, the PoP
//! overloads, drain restarts.

use crate::config::{BackendKind, GlobalConfig};

/// One epoch's observation of a (population, PoP) cell.
///
/// The steering trigger is *actual drops*, not residual overload:
/// per-PoP Edge Fabric routinely reports transient residual overload it
/// then relieves itself, and a global tier that reacts to every such
/// blip sheds a little from everywhere — leaving no healthy PoPs to
/// receive anything. Users move only once the PoP is demonstrably
/// losing traffic, i.e. the layer below has already lost.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellObservation {
    /// Traffic the PoP dropped this epoch, Mbps.
    pub dropped_mbps: f64,
    /// Total demand offered to the PoP this epoch, Mbps.
    pub offered_mbps: f64,
    /// The PoP's reported spare egress capacity, Mbps.
    pub headroom_mbps: f64,
    /// This population's average demand at this PoP, Mbps.
    pub baseline_mbps: f64,
}

impl CellObservation {
    /// Fraction of the PoP's offered demand being dropped — the shed
    /// fraction that would have made this epoch loss-free. Drops with
    /// zero offered demand are a measurement artifact (a counter race at
    /// an idle PoP), not overload.
    pub(crate) fn needed_shed(&self) -> f64 {
        if self.offered_mbps > 0.0 {
            (self.dropped_mbps / self.offered_mbps).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Anycast withdraws from a PoP only when the PoP is dropping more than
/// this fraction of everything offered to it. Whole-population cutover
/// is a blunt instrument; firing it on transient blips (a receiver
/// absorbing a fresh cutover while its Edge Fabric re-detours) turns one
/// failure into a network-wide withdrawal cascade.
const ANYCAST_CUT_FRACTION: f64 = 0.25;

/// After a transition lands, the cell holds its state for this many
/// convergence periods before the opposite transition may be scheduled.
/// Without hold-down, a restored population overloads the PoP it
/// returns to and immediately withdraws again — route flapping, the
/// classic anycast failure mode.
const ANYCAST_HOLD_PERIODS: u64 = 3;

/// One cell's steering mechanism and its in-flight state. `update` is
/// called once per epoch, in deterministic cell order, and returns the
/// cell's new away-fraction in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Steer {
    /// DNS-map steering: fractional targets, TTL-delayed convergence.
    Dns {
        /// Epochs an issued change takes to converge.
        ttl_epochs: u64,
        /// Issued away-fraction — what the map says.
        target: f64,
        /// Observed away-fraction — what resolvers have picked up so far.
        current: f64,
    },
    /// Anycast steering: whole-population cutover after a convergence
    /// delay.
    Anycast {
        /// Epochs a decision takes to propagate.
        convergence_epochs: u64,
        /// The announcement toward this PoP is currently withdrawn.
        withdrawn: bool,
        /// An in-flight transition: (epochs until effect, end state).
        pending: Option<(u64, bool)>,
        /// Hold-down epochs left before another transition may be
        /// scheduled.
        hold: u64,
    },
}

impl Steer {
    /// A cell at home under the mechanism `kind` names. `kind` has passed
    /// [`GlobalConfig::validate`], so its delay is at least one epoch.
    pub(crate) fn new(kind: BackendKind) -> Self {
        match kind {
            BackendKind::Dns { ttl_epochs } => Steer::Dns {
                ttl_epochs,
                target: 0.0,
                current: 0.0,
            },
            BackendKind::Anycast { convergence_epochs } => Steer::Anycast {
                convergence_epochs,
                withdrawn: false,
                pending: None,
                hold: 0,
            },
        }
    }

    /// Feeds one epoch's observation; returns the new away-fraction.
    /// DNS ramps by `cfg.step` up to `cfg.max_shift` and decays by
    /// `cfg.decay`; anycast ignores all three.
    pub(crate) fn update(&mut self, obs: &CellObservation, cfg: &GlobalConfig) -> f64 {
        match self {
            Steer::Dns {
                ttl_epochs,
                target,
                current,
            } => {
                let needed = obs.needed_shed();
                if needed > 0.0 {
                    // Harm-proportional ramp: never issue more than `step`
                    // per epoch, and never more than the loss actually
                    // calls for — a 0.1% drop blip must not shed 10% of a
                    // healthy PoP.
                    *target = (*target + needed.min(cfg.step)).min(cfg.max_shift);
                } else if *target > 0.0 && obs.headroom_mbps > obs.baseline_mbps {
                    // Only walk the map back once the PoP could absorb
                    // this population's whole baseline again.
                    *target = (*target - cfg.decay).max(0.0);
                }
                let issued = *target;
                // Resolver caches expire uniformly over the TTL horizon:
                // each epoch closes 1/ttl of the remaining gap.
                *current += (issued - *current) / *ttl_epochs as f64;
                if (*current - issued).abs() < 1e-6 {
                    *current = issued;
                }
                if issued == 0.0 && *current < 1e-3 {
                    // The stragglers still on stale cache entries are
                    // <0.1% of the population — call the withdrawal
                    // converged.
                    *current = 0.0;
                }
                current.clamp(0.0, 1.0)
            }
            Steer::Anycast {
                convergence_epochs,
                withdrawn,
                pending,
                hold,
            } => {
                // Tick an in-flight transition. Once issued, a BGP change
                // completes even if conditions flip mid-convergence — there
                // is no recalling an UPDATE already in the network.
                if let Some((left, end_state)) = pending.take() {
                    if left <= 1 {
                        *withdrawn = end_state;
                        *hold = ANYCAST_HOLD_PERIODS * *convergence_epochs;
                    } else {
                        *pending = Some((left - 1, end_state));
                    }
                }
                if *hold > 0 {
                    *hold -= 1;
                } else if pending.is_none() {
                    let severe = obs.needed_shed() > ANYCAST_CUT_FRACTION;
                    if severe && !*withdrawn {
                        *pending = Some((*convergence_epochs, true));
                    } else if *withdrawn
                        && obs.dropped_mbps <= 0.0
                        && obs.headroom_mbps > obs.baseline_mbps
                    {
                        *pending = Some((*convergence_epochs, false));
                    }
                }
                if *withdrawn {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `step` 0.05, `max_shift` 0.5, `decay` 0.01: the defaults.
    fn cfg() -> GlobalConfig {
        GlobalConfig::default()
    }

    fn dns(ttl_epochs: u64) -> Steer {
        Steer::new(BackendKind::Dns { ttl_epochs })
    }

    fn anycast(convergence_epochs: u64) -> Steer {
        Steer::new(BackendKind::Anycast { convergence_epochs })
    }

    /// Dropping half of what is offered: a needed shed far above `step`,
    /// so the ramp advances by the full step each epoch.
    fn overloaded() -> CellObservation {
        CellObservation {
            dropped_mbps: 500.0,
            offered_mbps: 1000.0,
            headroom_mbps: 0.0,
            baseline_mbps: 100.0,
        }
    }

    fn healthy(headroom: f64) -> CellObservation {
        CellObservation {
            dropped_mbps: 0.0,
            offered_mbps: 1000.0,
            headroom_mbps: headroom,
            baseline_mbps: 100.0,
        }
    }

    #[test]
    fn dns_converges_to_target_over_ttl() {
        let (mut s, cfg) = (dns(4), cfg());
        // One overloaded epoch issues target 0.05; observed fraction
        // closes 1/4 of the remaining gap each epoch.
        let f1 = s.update(&overloaded(), &cfg);
        assert!((f1 - 0.05 / 4.0).abs() < 1e-12);
        let mut last = f1;
        for _ in 0..60 {
            last = s.update(&overloaded(), &cfg);
        }
        // Long overload saturates at max_shift.
        assert!((last - cfg.max_shift).abs() < 1e-6);
    }

    #[test]
    fn dns_ttl_1_applies_immediately() {
        let (mut s, cfg) = (dns(1), cfg());
        assert!((s.update(&overloaded(), &cfg) - 0.05).abs() < 1e-12);
        assert!((s.update(&overloaded(), &cfg) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn dns_decay_gated_on_headroom() {
        let (mut s, cfg) = (dns(1), cfg());
        for _ in 0..4 {
            s.update(&overloaded(), &cfg);
        }
        // Healthy but without room for the baseline: shift holds.
        let held = s.update(&healthy(50.0), &cfg);
        assert!((held - 0.20).abs() < 1e-12);
        // Healthy with room: decays, eventually to zero.
        let mut f = held;
        for _ in 0..200 {
            f = s.update(&healthy(500.0), &cfg);
        }
        assert_eq!(f, 0.0);
    }

    #[test]
    fn anycast_cuts_over_after_convergence_and_restores() {
        let (mut s, cfg) = (anycast(2), cfg());
        // Decision epoch: still announced.
        assert_eq!(s.update(&overloaded(), &cfg), 0.0);
        // One epoch of convergence left.
        assert_eq!(s.update(&overloaded(), &cfg), 0.0);
        // Converged: whole population gone. Hold-down starts (3 periods
        // of 2 epochs, one consumed by the applying update itself).
        assert_eq!(s.update(&overloaded(), &cfg), 1.0);
        // Healthy with room, but held: no restore may be scheduled yet.
        for _ in 0..5 {
            assert_eq!(s.update(&healthy(500.0), &cfg), 1.0);
        }
        // Hold expired: restore is scheduled, converges 2 epochs later.
        assert_eq!(s.update(&healthy(500.0), &cfg), 1.0);
        assert_eq!(s.update(&healthy(500.0), &cfg), 1.0);
        assert_eq!(s.update(&healthy(500.0), &cfg), 0.0);
        // Healthy but without room for the baseline: stays announced.
        assert_eq!(s.update(&healthy(50.0), &cfg), 0.0);
    }

    #[test]
    fn anycast_cuts_only_above_a_quarter_shed() {
        let (mut s, cfg) = (anycast(1), cfg());
        let shed = |dropped_mbps| CellObservation {
            dropped_mbps,
            offered_mbps: 1000.0,
            headroom_mbps: 0.0,
            baseline_mbps: 100.0,
        };
        // Dropping exactly a quarter of what is offered is not severe.
        for _ in 0..5 {
            assert_eq!(s.update(&shed(250.0), &cfg), 0.0);
        }
        // Just above it, the cut lands one convergence period later.
        assert_eq!(s.update(&shed(251.0), &cfg), 0.0);
        assert_eq!(s.update(&shed(251.0), &cfg), 1.0);
    }

    #[test]
    fn anycast_restores_only_with_room_for_the_baseline() {
        let (mut s, cfg) = (anycast(1), cfg());
        s.update(&overloaded(), &cfg);
        assert_eq!(s.update(&overloaded(), &cfg), 1.0);
        // Loss-free but without room for the population: withdrawn long
        // past the hold-down.
        for _ in 0..20 {
            assert_eq!(s.update(&healthy(50.0), &cfg), 1.0);
        }
        // With room, the restore is scheduled and lands a period later.
        assert_eq!(s.update(&healthy(500.0), &cfg), 1.0);
        assert_eq!(s.update(&healthy(500.0), &cfg), 0.0);
    }

    proptest! {
        /// Anycast never yields a fractional away-fraction: a population
        /// is either fully at a PoP or fully moved — no double counting.
        #[test]
        fn prop_anycast_is_always_all_or_nothing(
            convergence in 1u64..5,
            steps in proptest::collection::vec(
                (any::<bool>(), 0.0f64..1000.0), 1..200),
        ) {
            let (mut s, cfg) = (anycast(convergence), cfg());
            for (over, headroom) in steps {
                let obs = CellObservation {
                    dropped_mbps: if over { 500.0 } else { 0.0 },
                    offered_mbps: 1000.0,
                    headroom_mbps: headroom,
                    baseline_mbps: 100.0,
                };
                let f = s.update(&obs, &cfg);
                prop_assert!(f == 0.0 || f == 1.0);
            }
        }

        /// DNS away-fractions stay within [0, max_shift] for any
        /// observation sequence.
        #[test]
        fn prop_dns_fraction_bounded(
            ttl in 1u64..8,
            steps in proptest::collection::vec(
                (any::<bool>(), 0.0f64..1000.0), 1..200),
        ) {
            let (mut s, cfg) = (dns(ttl), cfg());
            for (over, headroom) in steps {
                let obs = CellObservation {
                    dropped_mbps: if over { 500.0 } else { 0.0 },
                    offered_mbps: 1000.0,
                    headroom_mbps: headroom,
                    baseline_mbps: 100.0,
                };
                let f = s.update(&obs, &cfg);
                prop_assert!((0.0..=cfg.max_shift + 1e-9).contains(&f));
            }
        }
    }
}
