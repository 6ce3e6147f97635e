//! The mean-field token model of Section 4.3.
//!
//! The paper derives a mean-field approximation of the average token count
//! `a(t)` and the per-node message rate `v(t) = dw/dt`:
//!
//! ```text
//! da/dt = 1/Δ − v                                      (eq. 8)
//! dv/dt = v · (REACTIVE(a, u) − 1) + PROACTIVE(a)/Δ    (eq. 9)
//! ```
//!
//! In equilibrium (`da/dt = 0`, `dv/dt = 0`):
//!
//! ```text
//! REACTIVE(a, u) + PROACTIVE(a) = 1                    (eq. 10)
//! ```
//!
//! For the randomized strategy at `u = 1` this solves in closed form to
//! `a = A·C/(C + 1) ≈ A`, which Figure 5 validates against simulation.
//! This module provides a numeric equilibrium solver (bisection over the
//! monotone left-hand side of eq. 10) and a fixed-step RK4 integrator for
//! the transient dynamics.

use crate::strategy::{Capacity, Strategy};
use crate::usefulness::Usefulness;

/// One sample of the integrated mean-field trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldState {
    /// Time in seconds.
    pub time: f64,
    /// Average token balance `a(t)`.
    pub tokens: f64,
    /// Per-node message rate `v(t) = dw/dt`, in messages per second.
    pub rate: f64,
}

/// The mean-field model of a strategy under fixed usefulness.
#[derive(Debug, Clone, Copy)]
pub struct MeanFieldModel<'a, S: Strategy + ?Sized> {
    strategy: &'a S,
    delta_secs: f64,
    usefulness: Usefulness,
}

impl<'a, S: Strategy + ?Sized> MeanFieldModel<'a, S> {
    /// Builds the model with round length `delta_secs` (Δ, in seconds) and
    /// the assumed usefulness of incoming messages (`u = 1` "is acceptable
    /// for gossip learning").
    ///
    /// # Panics
    ///
    /// Panics if `delta_secs` is not positive and finite.
    pub fn new(strategy: &'a S, delta_secs: f64, usefulness: Usefulness) -> Self {
        assert!(
            delta_secs.is_finite() && delta_secs > 0.0,
            "delta must be positive, got {delta_secs}"
        );
        MeanFieldModel {
            strategy,
            delta_secs,
            usefulness,
        }
    }

    /// Left-hand side of eq. 10 minus one: `g(a) = REACTIVE(a, u) +
    /// PROACTIVE(a) − 1`, monotone non-decreasing in `a`.
    fn excess(&self, a: f64) -> f64 {
        self.strategy.reactive_smooth(a, self.usefulness) + self.strategy.proactive_smooth(a) - 1.0
    }

    /// Solves eq. 10 for the equilibrium balance by bisection.
    ///
    /// Returns `None` when no equilibrium exists with a non-negative
    /// balance — e.g. the purely reactive strategy with `k > 1`, where the
    /// message rate is self-amplifying, or `k < 1`, where it decays.
    /// For strategies whose left-hand side is flat at 1 over an interval
    /// (the simple strategy), the *smallest* equilibrium is returned.
    pub fn equilibrium_balance(&self) -> Option<f64> {
        let upper = match self.strategy.capacity() {
            Capacity::Finite(c) => c as f64,
            // Probe a generous range for unbounded strategies.
            Capacity::Unbounded => 1e6,
        };
        let g0 = self.excess(0.0);
        if g0 > 0.0 {
            return None; // already overshooting with an empty account
        }
        if g0 == 0.0 {
            return Some(0.0);
        }
        let g_up = self.excess(upper);
        if g_up < 0.0 {
            return None; // never reaches balance (unbounded, k < 1)
        }
        // Invariant: g(lo) < 0 <= g(hi).
        let (mut lo, mut hi) = (0.0, upper);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.excess(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }

    /// Integrates eqs. 8–9 with classical RK4 from `(a0, v0)` for
    /// `t_end` seconds with step `dt`, sampling every `sample_every` steps.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_end` are not positive, or `sample_every` is 0.
    pub fn integrate(
        &self,
        a0: f64,
        v0: f64,
        t_end: f64,
        dt: f64,
        sample_every: usize,
    ) -> Vec<MeanFieldState> {
        assert!(dt > 0.0 && t_end > 0.0, "dt and t_end must be positive");
        assert!(sample_every > 0, "sample_every must be positive");
        let steps = (t_end / dt).ceil() as usize;
        let mut out = Vec::with_capacity(steps / sample_every + 2);
        let mut a = a0;
        let mut v = v0;
        out.push(MeanFieldState {
            time: 0.0,
            tokens: a,
            rate: v,
        });
        let deriv = |a: f64, v: f64| -> (f64, f64) {
            let da = 1.0 / self.delta_secs - v;
            let dv = v * (self.strategy.reactive_smooth(a, self.usefulness) - 1.0)
                + self.strategy.proactive_smooth(a) / self.delta_secs;
            (da, dv)
        };
        for step in 1..=steps {
            let (k1a, k1v) = deriv(a, v);
            let (k2a, k2v) = deriv(a + 0.5 * dt * k1a, v + 0.5 * dt * k1v);
            let (k3a, k3v) = deriv(a + 0.5 * dt * k2a, v + 0.5 * dt * k2v);
            let (k4a, k4v) = deriv(a + dt * k3a, v + dt * k3v);
            a += dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a);
            v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
            // The physical domain is a >= 0, v >= 0.
            a = a.max(0.0);
            v = v.max(0.0);
            if step % sample_every == 0 || step == steps {
                out.push(MeanFieldState {
                    time: step as f64 * dt,
                    tokens: a,
                    rate: v,
                });
            }
        }
        out
    }
}

/// Closed-form equilibrium of the randomized strategy for `u = 1`
/// (Section 4.3): `a = A·C/(C + 1)`.
pub fn randomized_equilibrium(a: u64, c: u64) -> f64 {
    let a = a as f64;
    let c = c as f64;
    a * c / (c + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{
        PurelyProactive, PurelyReactive, RandomizedTokenAccount, SimpleTokenAccount,
    };

    #[test]
    fn randomized_equilibrium_matches_closed_form() {
        for (a, c) in [
            (1u64, 1u64),
            (1, 10),
            (5, 10),
            (10, 20),
            (20, 40),
            (40, 120),
        ] {
            let s = RandomizedTokenAccount::new(a, c).unwrap();
            let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
            let solved = model.equilibrium_balance().expect("equilibrium exists");
            let predicted = randomized_equilibrium(a, c);
            assert!(
                (solved - predicted).abs() < 1e-6,
                "A={a} C={c}: solved {solved}, closed form {predicted}"
            );
        }
    }

    #[test]
    fn closed_form_is_slightly_below_a() {
        // a = A·C/(C+1) ⇒ a ≈ A for large C.
        assert!((randomized_equilibrium(10, 1000) - 10.0).abs() < 0.01);
        assert!(randomized_equilibrium(10, 20) < 10.0);
    }

    #[test]
    fn purely_proactive_equilibrium_is_zero() {
        // proactive ≡ 1 ⇒ g(0) = 0: equilibrium at an empty account.
        let s = PurelyProactive;
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        assert_eq!(model.equilibrium_balance(), Some(0.0));
    }

    #[test]
    fn purely_reactive_with_large_k_has_no_equilibrium() {
        let s = PurelyReactive::unconditional(2).unwrap();
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        assert_eq!(model.equilibrium_balance(), None);
    }

    #[test]
    fn purely_reactive_with_k1_balances_exactly() {
        // reactive ≡ 1, proactive ≡ 0 ⇒ g ≡ 0; smallest root is 0.
        let s = PurelyReactive::unconditional(1).unwrap();
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        assert_eq!(model.equilibrium_balance(), Some(0.0));
    }

    #[test]
    fn simple_equilibrium_is_at_the_reactive_step() {
        // Simple: reactive jumps to 1 at a > 0 ⇒ smallest equilibrium ~0.
        let s = SimpleTokenAccount::new(20);
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        let eq = model.equilibrium_balance().unwrap();
        assert!((0.0..1e-3).contains(&eq), "eq = {eq}");
    }

    #[test]
    fn integration_converges_to_equilibrium() {
        // Randomized A=10, C=20 from an empty account, as in Figure 5.
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        let traj = model.integrate(0.0, 0.0, 172_800.0, 1.0, 1000);
        let last = traj.last().unwrap();
        let predicted = randomized_equilibrium(10, 20);
        assert!(
            (last.tokens - predicted).abs() < 0.5,
            "final tokens {} vs predicted {predicted}",
            last.tokens
        );
        // Message rate settles at the token grant rate 1/Δ.
        assert!((last.rate - 1.0 / 172.8).abs() < 1e-4, "rate {}", last.rate);
    }

    #[test]
    fn trajectory_is_sampled_as_requested() {
        let s = RandomizedTokenAccount::new(5, 10).unwrap();
        let model = MeanFieldModel::new(&s, 100.0, Usefulness::Useful);
        let traj = model.integrate(0.0, 0.0, 100.0, 1.0, 10);
        // t=0 + 10 samples (every 10 steps of 100 total).
        assert_eq!(traj.len(), 11);
        assert_eq!(traj[0].time, 0.0);
        assert!((traj[1].time - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_rise_before_settling() {
        // From a = 0 the account must fill up before spending kicks in.
        let s = RandomizedTokenAccount::new(10, 20).unwrap();
        let model = MeanFieldModel::new(&s, 172.8, Usefulness::Useful);
        let traj = model.integrate(0.0, 0.0, 20_000.0, 1.0, 100);
        let early = traj[1].tokens;
        let later = traj.last().unwrap().tokens;
        assert!(later > early, "tokens should accumulate from empty");
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_bad_delta() {
        let s = PurelyProactive;
        let _ = MeanFieldModel::new(&s, 0.0, Usefulness::Useful);
    }
}
