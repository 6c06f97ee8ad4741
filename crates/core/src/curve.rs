//! Scalar kernel curves.
//!
//! Every kernel the paper considers factors through a scalar curve `f(x)`
//! applied to a per-point scalar `x`:
//!
//! | kernel     | `x`                | `f(x)`      |
//! |------------|--------------------|-------------|
//! | Gaussian   | `γ·dist(q,p)²`     | `exp(−x)`   |
//! | polynomial | `γ·(q·p) + β`      | `x^deg`     |
//! | sigmoid    | `γ·(q·p) + β`      | `tanh(x)`   |
//! | Laplacian  | `γ²·dist(q,p)²`    | `exp(−√x)`  |
//!
//! (The Laplacian row is this library's extension beyond the paper.)
//!
//! The bound machinery only needs three things from a curve: point
//! evaluation, the derivative (for tangent lines), and its curvature
//! structure (where it is convex/concave), which [`Curve::curvature_on`]
//! exposes. All the curves have at most one inflection point, at `x = 0`.

/// Curvature classification of a curve restricted to an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curvature {
    /// `f'' ≥ 0` on the whole interval.
    Convex,
    /// `f'' ≤ 0` on the whole interval.
    Concave,
    /// Concave for `x ≤ 0`, convex for `x ≥ 0` (odd-degree polynomial).
    ConcaveThenConvex,
    /// Convex for `x ≤ 0`, concave for `x ≥ 0` (sigmoid / tanh).
    ConvexThenConcave,
    /// `f'' = 0`: the curve is a straight line (degree ≤ 1 polynomial).
    Linear,
}

/// The scalar curve through which a kernel evaluates, with the structure the
/// envelope construction needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Curve {
    /// `f(x) = exp(−x)` — Gaussian kernel curve; convex and decreasing.
    NegExp,
    /// `f(x) = x^deg` — polynomial kernel curve.
    PowInt {
        /// Polynomial degree (`deg ≥ 0`).
        degree: u32,
    },
    /// `f(x) = tanh(x)` — sigmoid kernel curve; increasing, S-shaped.
    Tanh,
    /// `f(x) = exp(−√x)` on `x ≥ 0` — Laplacian kernel curve (an extension
    /// beyond the paper: the Laplacian kernel `exp(−γ·dist)` factors
    /// through this curve with `x = γ²·dist²`, keeping the O(d) aggregate
    /// machinery applicable). Convex and decreasing; the derivative blows
    /// up at `x = 0`, which the envelope construction guards.
    NegExpSqrt,
}

#[cfg(feature = "stats")]
pub mod stats {
    //! Thread-local instrumentation of curve evaluations (behind the
    //! `stats` feature). [`Curve::value`](super::Curve::value) is the
    //! transcendental workhorse of envelope construction, so its call
    //! count is the direct measure of what the shared-endpoint envelope
    //! builder saves.

    use std::cell::Cell;

    thread_local! {
        static VALUE_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(crate) fn bump_value() {
        VALUE_CALLS.with(|c| c.set(c.get() + 1));
    }

    /// Total `Curve::value` evaluations on this thread since it started.
    /// Callers measure deltas; the counter is never reset.
    pub fn value_calls() -> u64 {
        VALUE_CALLS.with(Cell::get)
    }
}

impl Curve {
    /// Evaluates `f(x)`.
    #[inline]
    pub fn value(self, x: f64) -> f64 {
        #[cfg(feature = "stats")]
        stats::bump_value();
        match self {
            Curve::NegExp => (-x).exp(),
            Curve::PowInt { degree } => x.powi(degree as i32),
            Curve::Tanh => x.tanh(),
            Curve::NegExpSqrt => (-x.max(0.0).sqrt()).exp(),
        }
    }

    /// Evaluates `(f(x), f'(x))` with one transcendental where the algebra
    /// allows it, instead of the two that separate [`Curve::value`] /
    /// [`Curve::deriv`] calls cost.
    ///
    /// Bitwise identical to the separate calls by construction:
    ///
    /// * `NegExp` — `f' = −f` and IEEE-754 negation is exact;
    /// * `Tanh` — `f' = 1 − t²` with `t = tanh(x)`, the same expression
    ///   `deriv` computes from its own `tanh` call;
    /// * `NegExpSqrt` (for `x ≥ 1e-300`, i.e. away from `deriv`'s clamp) —
    ///   `f' = −f / (2√x)`, the same expression with the same `√x` bits;
    /// * `PowInt` — no transcendental to share; falls through to the pair.
    #[inline]
    pub fn value_deriv(self, x: f64) -> (f64, f64) {
        match self {
            Curve::NegExp => {
                let v = self.value(x);
                (v, -v)
            }
            Curve::Tanh => {
                let t = self.value(x);
                (t, 1.0 - t * t)
            }
            Curve::NegExpSqrt if x >= 1e-300 => {
                let v = self.value(x);
                (v, -v / (2.0 * x.sqrt()))
            }
            _ => (self.value(x), self.deriv(x)),
        }
    }

    /// Evaluates `f'(x)`.
    ///
    /// For [`Curve::NegExpSqrt`] the derivative diverges at `x → 0⁺`; the
    /// value returned there is a large finite slope, and the envelope
    /// construction never places a tangent at the singular point.
    #[inline]
    pub fn deriv(self, x: f64) -> f64 {
        match self {
            Curve::NegExp => -(-x).exp(),
            Curve::PowInt { degree: 0 } => 0.0,
            Curve::PowInt { degree } => degree as f64 * x.powi(degree as i32 - 1),
            Curve::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Curve::NegExpSqrt => {
                let s = x.max(1e-300).sqrt();
                -(-s).exp() / (2.0 * s)
            }
        }
    }

    /// The curvature structure of `f` restricted to `[lo, hi]`.
    pub fn curvature_on(self, lo: f64, hi: f64) -> Curvature {
        debug_assert!(lo <= hi);
        match self {
            Curve::NegExp | Curve::NegExpSqrt => Curvature::Convex,
            Curve::PowInt { degree: 0 } | Curve::PowInt { degree: 1 } => Curvature::Linear,
            Curve::PowInt { degree } if degree % 2 == 0 => Curvature::Convex,
            Curve::PowInt { .. } => {
                // odd degree ≥ 3: concave on (−∞,0], convex on [0,∞)
                if lo >= 0.0 {
                    Curvature::Convex
                } else if hi <= 0.0 {
                    Curvature::Concave
                } else {
                    Curvature::ConcaveThenConvex
                }
            }
            Curve::Tanh => {
                if lo >= 0.0 {
                    Curvature::Concave
                } else if hi <= 0.0 {
                    Curvature::Convex
                } else {
                    Curvature::ConvexThenConcave
                }
            }
        }
    }

    /// Whether the curve is monotonically increasing on all of `ℝ`.
    #[inline]
    pub fn is_increasing(self) -> bool {
        match self {
            Curve::NegExp | Curve::NegExpSqrt => false,
            Curve::PowInt { degree } => degree % 2 == 1,
            Curve::Tanh => true,
        }
    }

    /// The exact range `(min f, max f)` of `f` over `[lo, hi]`.
    ///
    /// This is the constant bound the state of the art uses per node
    /// (`LB_R = W·f_min`, `UB_R = W·f_max`), generalized beyond the Gaussian
    /// kernel as Section IV of the paper requires.
    pub fn range(self, lo: f64, hi: f64) -> (f64, f64) {
        debug_assert!(lo <= hi);
        match self {
            Curve::NegExp => ((-hi).exp(), (-lo).exp()),
            Curve::NegExpSqrt => (self.value(hi), self.value(lo)),
            Curve::PowInt { degree: 0 } => (1.0, 1.0),
            Curve::PowInt { degree } if degree % 2 == 0 => {
                let (a, b) = (self.value(lo), self.value(hi));
                let max = a.max(b);
                let min = if lo <= 0.0 && 0.0 <= hi {
                    0.0
                } else {
                    a.min(b)
                };
                (min, max)
            }
            // odd powers and tanh are increasing
            _ => (self.value(lo), self.value(hi)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use karl_testkit::prop_assert;

    #[test]
    fn neg_exp_values() {
        assert_eq!(Curve::NegExp.value(0.0), 1.0);
        assert!((Curve::NegExp.value(1.0) - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(Curve::NegExp.deriv(0.0), -1.0);
    }

    #[test]
    fn pow_values_and_derivs() {
        let cube = Curve::PowInt { degree: 3 };
        assert_eq!(cube.value(2.0), 8.0);
        assert_eq!(cube.value(-2.0), -8.0);
        assert_eq!(cube.deriv(2.0), 12.0);
        let konst = Curve::PowInt { degree: 0 };
        assert_eq!(konst.value(5.0), 1.0);
        assert_eq!(konst.deriv(5.0), 0.0);
    }

    #[test]
    fn neg_exp_sqrt_values() {
        let c = Curve::NegExpSqrt;
        assert_eq!(c.value(0.0), 1.0);
        assert!((c.value(4.0) - (-2.0f64).exp()).abs() < 1e-15);
        // decreasing and convex on a sample triple
        let (a, b, m) = (c.value(1.0), c.value(4.0), c.value(2.5));
        assert!(a > b);
        assert!(m < 0.5 * (a + b), "midpoint below chord => convex");
        assert_eq!(c.curvature_on(0.0, 9.0), Curvature::Convex);
        assert_eq!(c.range(1.0, 4.0), (c.value(4.0), c.value(1.0)));
    }

    #[test]
    fn tanh_values() {
        assert_eq!(Curve::Tanh.value(0.0), 0.0);
        assert_eq!(Curve::Tanh.deriv(0.0), 1.0);
        assert!(Curve::Tanh.value(100.0) <= 1.0);
    }

    #[test]
    fn curvature_classification() {
        assert_eq!(Curve::NegExp.curvature_on(0.0, 9.0), Curvature::Convex);
        assert_eq!(
            Curve::PowInt { degree: 2 }.curvature_on(-1.0, 1.0),
            Curvature::Convex
        );
        assert_eq!(
            Curve::PowInt { degree: 1 }.curvature_on(-1.0, 1.0),
            Curvature::Linear
        );
        let cube = Curve::PowInt { degree: 3 };
        assert_eq!(cube.curvature_on(0.5, 2.0), Curvature::Convex);
        assert_eq!(cube.curvature_on(-2.0, -0.5), Curvature::Concave);
        assert_eq!(cube.curvature_on(-1.0, 1.0), Curvature::ConcaveThenConvex);
        assert_eq!(Curve::Tanh.curvature_on(0.1, 3.0), Curvature::Concave);
        assert_eq!(Curve::Tanh.curvature_on(-3.0, -0.1), Curvature::Convex);
        assert_eq!(
            Curve::Tanh.curvature_on(-1.0, 1.0),
            Curvature::ConvexThenConcave
        );
    }

    #[test]
    fn range_even_power_straddling_zero() {
        let sq = Curve::PowInt { degree: 2 };
        assert_eq!(sq.range(-2.0, 1.0), (0.0, 4.0));
        assert_eq!(sq.range(1.0, 3.0), (1.0, 9.0));
        assert_eq!(sq.range(-3.0, -1.0), (1.0, 9.0));
    }

    #[test]
    fn range_monotone_curves() {
        assert_eq!(Curve::NegExp.range(0.0, 1.0), ((-1.0f64).exp(), 1.0));
        let cube = Curve::PowInt { degree: 3 };
        assert_eq!(cube.range(-2.0, 2.0), (-8.0, 8.0));
        let (lo, hi) = Curve::Tanh.range(-1.0, 2.0);
        assert!(lo < 0.0 && hi > 0.0);
    }

    karl_testkit::props! {
        /// `value_deriv` must be bitwise identical to separate
        /// `value`/`deriv` calls — the contract the fused envelope path
        /// relies on for trace-level equivalence.
        #[test]
        fn prop_value_deriv_bitwise_matches_separate_calls(
            curve_id in 0usize..7,
            x in -6.0f64..6.0,
        ) {
            let curve = [
                Curve::NegExp,
                Curve::PowInt { degree: 0 },
                Curve::PowInt { degree: 2 },
                Curve::PowInt { degree: 3 },
                Curve::PowInt { degree: 5 },
                Curve::Tanh,
                Curve::NegExpSqrt,
            ][curve_id];
            let xs = if matches!(curve, Curve::NegExpSqrt) {
                // Exercise the clamped-derivative branch near 0 too.
                vec![x.abs(), 0.0, 1e-301, 1e-300, 1e-12]
            } else {
                vec![x]
            };
            for x in xs {
                let (v, d) = curve.value_deriv(x);
                prop_assert!(v.to_bits() == curve.value(x).to_bits(),
                    "{curve:?} value at {x}");
                prop_assert!(d.to_bits() == curve.deriv(x).to_bits(),
                    "{curve:?} deriv at {x}");
            }
        }

        /// `range` must bracket pointwise values on a dense grid.
        #[test]
        fn prop_range_brackets_values(
            curve_id in 0usize..6,
            a in -4.0f64..4.0,
            b in -4.0f64..4.0,
        ) {
            let curve = [
                Curve::NegExp,
                Curve::PowInt { degree: 2 },
                Curve::PowInt { degree: 3 },
                Curve::PowInt { degree: 5 },
                Curve::Tanh,
                Curve::NegExpSqrt,
            ][curve_id];
            let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
            if matches!(curve, Curve::NegExpSqrt) {
                lo = lo.abs();
                hi = hi.abs();
                if lo > hi { std::mem::swap(&mut lo, &mut hi); }
            }
            let (fmin, fmax) = curve.range(lo, hi);
            for k in 0..=32 {
                let x = lo + (hi - lo) * (k as f64 / 32.0);
                let v = curve.value(x);
                prop_assert!(v >= fmin - 1e-9 * (1.0 + fmin.abs()));
                prop_assert!(v <= fmax + 1e-9 * (1.0 + fmax.abs()));
            }
        }

        /// The derivative must match a central finite difference.
        #[test]
        fn prop_deriv_matches_finite_difference(
            curve_id in 0usize..6,
            x in -3.0f64..3.0,
        ) {
            let curve = [
                Curve::NegExp,
                Curve::PowInt { degree: 2 },
                Curve::PowInt { degree: 3 },
                Curve::PowInt { degree: 4 },
                Curve::Tanh,
                Curve::NegExpSqrt,
            ][curve_id];
            let x = if matches!(curve, Curve::NegExpSqrt) { x.abs() + 0.1 } else { x };
            let h = 1e-6;
            let fd = (curve.value(x + h) - curve.value(x - h)) / (2.0 * h);
            let an = curve.deriv(x);
            prop_assert!((fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                "curve {curve:?} at {x}: fd={fd} analytic={an}");
        }
    }
}
