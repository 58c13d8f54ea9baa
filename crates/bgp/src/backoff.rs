//! Seeded-deterministic reconnect governance: exponential backoff with
//! decorrelated jitter, plus route-flap-damping-style penalty accounting
//! (RFC 2439 in spirit) so a storming peer is suppressed until it cools.
//!
//! Production BGP speakers never reconnect instantly: RFC 4271's
//! ConnectRetryTimer spaces attempts out, and operators layer flap damping
//! on top so a session that bounces repeatedly is held down long enough to
//! stop hurting. This module gives the simulation the same discipline in a
//! fully deterministic form — all randomness comes from a caller-provided
//! seed, so two runs with the same seed produce byte-identical reconnect
//! schedules (the workspace determinism contract).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::session::Millis;

// The one policy, sized for the simulation's 30 s epochs: a single
// failure retries within ~1-3 s; a storm (>= 3 flaps inside one half-life)
// suppresses, and the worst-case cool-down from the cap is
// HALF_LIFE_MS * log2(PENALTY_CAP / REUSE_THRESHOLD) = 15 s * 3 = 45 s —
// inside the bounded-recovery budget of three epochs.

/// First retry delay, milliseconds.
const BASE_MS: u64 = 1_000;
/// Ceiling on any single retry delay, milliseconds.
const MAX_MS: u64 = 30_000;
/// Flap-damping penalty added per down event.
const PENALTY_PER_FLAP: f64 = 1_000.0;
/// Penalty ceiling (RFC 2439's max-penalty): bounds how long a peer can be
/// suppressed after the storm ends.
const PENALTY_CAP: f64 = 6_000.0;
/// Suppress reconnects while the decayed penalty is at least this.
const SUPPRESS_THRESHOLD: f64 = 2_500.0;
/// Re-allow reconnects once the decayed penalty falls to this.
const REUSE_THRESHOLD: f64 = 750.0;
/// Penalty half-life, milliseconds.
const HALF_LIFE_MS: u64 = 15_000;

/// Deterministic per-peer reconnect governor.
///
/// Drive it with [`record_down`](Self::record_down) /
/// [`record_up`](Self::record_up) and poll
/// [`can_reconnect`](Self::can_reconnect) before every connection attempt.
#[derive(Debug)]
pub struct ReconnectGovernor {
    rng: StdRng,
    /// Delay handed out for the most recent down event (decorrelated-jitter
    /// state).
    last_delay_ms: u64,
    /// Earliest time a reconnect attempt is permitted.
    next_allowed: Millis,
    /// Flap-damping penalty as of `penalty_at`.
    penalty: f64,
    penalty_at: Millis,
    /// Latched once the penalty crosses `SUPPRESS_THRESHOLD`; released when
    /// it decays to `REUSE_THRESHOLD` (damping hysteresis).
    was_suppressed: bool,
}

impl ReconnectGovernor {
    /// A governor whose jitter stream `seed` fixes.
    pub fn with_seed(seed: u64) -> Self {
        ReconnectGovernor {
            rng: StdRng::seed_from_u64(seed ^ 0xBAC0_FF60_7E44_0001),
            last_delay_ms: 0,
            next_allowed: 0,
            penalty: 0.0,
            penalty_at: 0,
            was_suppressed: false,
        }
    }

    /// Records a session-down event at `now`; returns the backoff delay
    /// (ms) before the next reconnect attempt is allowed.
    ///
    /// The delay follows the decorrelated-jitter scheme: uniform in
    /// `[base, max(base, 3 * previous_delay))`, capped at `MAX_MS`. The
    /// flap-damping penalty is bumped and decayed as of `now`.
    pub fn record_down(&mut self, now: Millis) -> u64 {
        self.decay_to(now);
        self.penalty = (self.penalty + PENALTY_PER_FLAP).min(PENALTY_CAP);
        if self.penalty >= SUPPRESS_THRESHOLD {
            self.was_suppressed = true;
        }
        let hi = self
            .last_delay_ms
            .saturating_mul(3)
            .clamp(BASE_MS + 1, MAX_MS);
        let delay = self.rng.gen_range(BASE_MS..hi);
        self.last_delay_ms = delay;
        self.next_allowed = now + delay;
        delay
    }

    /// Records a successful (re-)establishment: backoff state resets, the
    /// accumulated penalty keeps decaying (a flappy peer that briefly comes
    /// up does not launder its history).
    pub fn record_up(&mut self, now: Millis) {
        self.decay_to(now);
        self.last_delay_ms = 0;
        self.next_allowed = now;
    }

    /// True when a reconnect attempt is permitted at `now`: the backoff
    /// delay has elapsed and the peer is not suppressed by flap damping.
    pub fn can_reconnect(&mut self, now: Millis) -> bool {
        self.decay_to(now);
        now >= self.next_allowed && !self.suppressed_inner()
    }

    fn suppressed_inner(&self) -> bool {
        // Hysteresis: once past SUPPRESS_THRESHOLD the peer stays
        // suppressed until the penalty decays to REUSE_THRESHOLD.
        if self.penalty >= SUPPRESS_THRESHOLD {
            true
        } else {
            // Between reuse and suppress: suppressed only if we were
            // already above suppress before (tracked implicitly — the
            // penalty can only be in this band on the way down, so use
            // REUSE_THRESHOLD as the release point).
            self.penalty > REUSE_THRESHOLD && self.was_suppressed
        }
    }

    fn decay_to(&mut self, now: Millis) {
        if now <= self.penalty_at {
            return;
        }
        let dt = (now - self.penalty_at) as f64;
        let hl = HALF_LIFE_MS as f64;
        self.penalty *= 0.5_f64.powf(dt / hl);
        if self.penalty < 1e-6 {
            self.penalty = 0.0;
        }
        self.penalty_at = now;
        if self.penalty >= SUPPRESS_THRESHOLD {
            self.was_suppressed = true;
        } else if self.penalty <= REUSE_THRESHOLD {
            self.was_suppressed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = ReconnectGovernor::with_seed(42);
        let mut b = ReconnectGovernor::with_seed(42);
        let mut now = 0;
        for _ in 0..10 {
            let da = a.record_down(now);
            let db = b.record_down(now);
            assert_eq!(da, db);
            now += da + 500;
            a.record_up(now);
            b.record_up(now);
            now += 5_000;
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ReconnectGovernor::with_seed(1);
        let mut b = ReconnectGovernor::with_seed(2);
        let seq_a: Vec<u64> = (0..8).map(|i| a.record_down(i * 10_000)).collect();
        let seq_b: Vec<u64> = (0..8).map(|i| b.record_down(i * 10_000)).collect();
        assert_ne!(seq_a, seq_b);
    }

    /// Whether flap damping suppresses `g` at `now`.
    fn suppressed_at(g: &mut ReconnectGovernor, now: Millis) -> bool {
        g.decay_to(now);
        g.suppressed_inner()
    }

    /// `g`'s decayed penalty at `now`.
    fn penalty_at(g: &mut ReconnectGovernor, now: Millis) -> f64 {
        g.decay_to(now);
        g.penalty
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        // Damping is on, but `record_down`'s delay never reads the penalty.
        let mut g = ReconnectGovernor::with_seed(7);
        let mut now = 0;
        let mut prev = 0;
        let mut grew = false;
        for _ in 0..12 {
            let d = g.record_down(now);
            assert!(d >= BASE_MS);
            assert!(d <= MAX_MS);
            if d > prev {
                grew = true;
            }
            prev = d;
            now += d;
        }
        assert!(grew, "delays trend upward under repeated failure");
    }

    #[test]
    fn single_failure_reconnects_quickly() {
        let mut g = ReconnectGovernor::with_seed(3);
        let d = g.record_down(0);
        assert!(!g.can_reconnect(d - 1));
        assert!(g.can_reconnect(d));
        assert!(!suppressed_at(&mut g, d), "one flap never suppresses");
    }

    #[test]
    fn storm_suppresses_then_cools() {
        let mut g = ReconnectGovernor::with_seed(9);
        // Five flaps in five seconds: a storm.
        for i in 0..5u64 {
            g.record_down(i * 1_000);
        }
        assert!(suppressed_at(&mut g, 5_000));
        assert!(!g.can_reconnect(5_000));
        // The penalty cap bounds the cool-down: within 60 s the governor
        // must release (cap 6000 → reuse 750 is three half-lives = 45 s).
        assert!(!suppressed_at(&mut g, 65_000));
        assert!(g.can_reconnect(65_000));
    }

    #[test]
    fn success_resets_backoff_but_not_penalty() {
        let mut g = ReconnectGovernor::with_seed(5);
        for i in 0..4u64 {
            g.record_down(i * 500);
        }
        let p_before = penalty_at(&mut g, 2_000);
        g.record_up(2_000);
        assert!(g.penalty > 0.0, "penalty survives a success");
        assert!((g.penalty - p_before).abs() < 1e-9);
        assert_eq!(g.last_delay_ms, 0, "backoff resets");
    }

    #[test]
    fn hysteresis_releases_only_below_reuse() {
        let mut g = ReconnectGovernor::with_seed(11);
        for i in 0..6u64 {
            g.record_down(i * 1_000);
        }
        // Decay until the penalty sits between reuse and suppress: still
        // suppressed (release requires crossing REUSE_THRESHOLD).
        let mut t = 6_000;
        while penalty_at(&mut g, t) >= SUPPRESS_THRESHOLD {
            t += 1_000;
        }
        if g.penalty > REUSE_THRESHOLD {
            assert!(suppressed_at(&mut g, t), "held until reuse threshold");
        }
        while penalty_at(&mut g, t) > REUSE_THRESHOLD {
            t += 1_000;
        }
        assert!(!suppressed_at(&mut g, t));
    }
}
