//! Linear envelope construction — the core of KARL's bound functions.
//!
//! Given a scalar curve `f` and the interval `[x_min, x_max]` a tree node
//! induces, this module produces two straight lines `E^L(x) = m_l·x + c_l`
//! and `E^U(x) = m_u·x + c_u` with
//!
//! ```text
//! E^L(x) ≤ f(x) ≤ E^U(x)    for all x ∈ [x_min, x_max]
//! ```
//!
//! (Definition 3 of the paper). The construction per curvature class:
//!
//! * **convex** `f` (Gaussian `exp(−x)`, even-degree polynomial): the upper
//!   line is the chord (Figure 4); the lower line is the tangent at the
//!   weighted mean `x̄` of the node, which Theorems 1–2 prove optimal among
//!   all tangents (Figure 5b).
//! * **concave** `f`: the mirror image — tangent above, chord below.
//! * **mixed** intervals of the S-shaped curves (odd-degree polynomial,
//!   `tanh`): the "rotate-down"/"rotate-up" lines of Figure 8 — anchored at
//!   the endpoint lying in the convex (resp. concave) branch and tangent to
//!   the opposite branch, found by bisection on the tangency condition; if
//!   the tangency point falls outside the interval, the chord through both
//!   endpoints is the valid rotation limit.

use crate::curve::{Curvature, Curve};

/// A straight line `x ↦ m·x + c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    /// Slope.
    pub m: f64,
    /// Intercept.
    pub c: f64,
}

impl Line {
    /// Evaluates the line at `x`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.m * x + self.c
    }
}

/// A pair of bounding lines valid on one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Line below the curve on the interval.
    pub lower: Line,
    /// Line above the curve on the interval.
    pub upper: Line,
}

/// An [`Envelope`] together with the exact curve range on the same
/// interval — everything per-node bound assembly needs, so one envelope
/// construction serves both the linear bounds and the SOTA clamp without
/// re-evaluating the curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvelopeParts {
    /// The bounding lines.
    pub env: Envelope,
    /// `min f` over the interval (the SOTA constant lower bound's factor).
    pub fmin: f64,
    /// `max f` over the interval (the SOTA constant upper bound's factor).
    pub fmax: f64,
}

#[cfg(feature = "stats")]
pub mod stats {
    //! Thread-local count of envelope constructions (behind the `stats`
    //! feature): one per [`envelope_parts`](super::envelope_parts) call.

    use std::cell::Cell;

    thread_local! {
        static ENVELOPES_BUILT: Cell<u64> = const { Cell::new(0) };
    }

    #[inline]
    pub(crate) fn bump_built() {
        ENVELOPES_BUILT.with(|c| c.set(c.get() + 1));
    }

    /// Total envelope constructions on this thread since it started.
    /// Callers measure deltas; the counter is never reset.
    pub fn envelopes_built() -> u64 {
        ENVELOPES_BUILT.with(Cell::get)
    }
}

/// Chord of `f` through `(lo, f(lo))` and `(hi, f(hi))`, with the endpoint
/// values threaded in by the caller (computed exactly once per envelope).
#[inline]
fn chord(lo: f64, hi: f64, flo: f64, fhi: f64) -> Line {
    debug_assert!(hi > lo);
    let m = (fhi - flo) / (hi - lo);
    Line { m, c: flo - m * lo }
}

/// Tangent of `f` at `t` — one fused `value_deriv` evaluation.
#[inline]
fn tangent(curve: Curve, t: f64) -> Line {
    let (v, m) = curve.value_deriv(t);
    Line { m, c: v - m * t }
}

/// The exact range `(min f, max f)` over `[lo, hi]`, recomputed from the
/// already-evaluated endpoint values. Bitwise identical to
/// [`Curve::range`]: every `range` arm reduces to `value(lo)`/`value(hi)`
/// (or the literal constants), so substituting the threaded `flo`/`fhi`
/// reproduces the same bits without re-evaluating the curve.
#[inline]
fn range_from_values(curve: Curve, lo: f64, hi: f64, flo: f64, fhi: f64) -> (f64, f64) {
    match curve {
        // Decreasing curves: range is (f(hi), f(lo)); `Curve::range`'s
        // NegExp arm computes `(-hi).exp()` inline, the same expression
        // `value(hi)` evaluates.
        Curve::NegExp | Curve::NegExpSqrt => (fhi, flo),
        Curve::PowInt { degree: 0 } => (1.0, 1.0),
        Curve::PowInt { degree } if degree % 2 == 0 => {
            let max = flo.max(fhi);
            let min = if lo <= 0.0 && 0.0 <= hi {
                0.0
            } else {
                flo.min(fhi)
            };
            (min, max)
        }
        // Odd powers and tanh are increasing.
        _ => (flo, fhi),
    }
}

/// Solves the tangency condition for a line through the anchor point
/// `(a, f(a))` that is tangent to `f` at some `s` in `[blo, bhi]`:
///
/// ```text
/// φ(s) = f(s) + f'(s)·(a − s) − f(a) = 0
/// ```
///
/// On the branches we use it for, `φ` is monotone (its derivative is
/// `f''(s)·(a − s)`, which has constant sign on one curvature branch with
/// the anchor on the other side), so bisection is safe. Returns `None`
/// when no sign change brackets a root — the caller then falls back to the
/// chord.
///
/// For odd-power curves the condition is *homogeneous* in `(s, a)` — the
/// tangency point is always `s* = c_deg · a` where `c_deg < 0` depends only
/// on the degree (e.g. `−1/2` for the cubic) — so the hot polynomial path
/// costs O(1) instead of a root-finding loop.
fn solve_tangency(curve: Curve, anchor: f64, fa: f64, blo: f64, bhi: f64) -> Option<f64> {
    if let Curve::PowInt { degree } = curve {
        let s = tangency_ratio(degree) * anchor;
        let (lo, hi) = (blo.min(bhi), blo.max(bhi));
        return if s >= lo && s <= hi { Some(s) } else { None };
    }
    let phi = |s: f64| {
        let (v, d) = curve.value_deriv(s);
        v + d * (anchor - s) - fa
    };
    let (mut lo, mut hi) = (blo, bhi);
    let (plo, phi_hi) = (phi(lo), phi(hi));
    if plo == 0.0 {
        return Some(lo);
    }
    if phi_hi == 0.0 {
        return Some(hi);
    }
    if plo.signum() == phi_hi.signum() {
        return None;
    }
    // Bisection with a relative-width stop; ~50 iterations at most, and the
    // aggregated bounds are insensitive to sub-1e-12 tangency error.
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi || (hi - lo) <= 1e-12 * (1.0 + mid.abs()) {
            break;
        }
        let pm = phi(mid);
        if pm == 0.0 {
            return Some(mid);
        }
        if pm.signum() == plo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// The negative root `c` of `(1−n)·cⁿ + n·c^{n−1} − 1 = 0` for odd `n ≥ 3`:
/// the tangency point of a line anchored at `(a, aⁿ)` on the opposite
/// curvature branch is `c·a`. `c = −1/2` for the cubic; other degrees are
/// solved once and memoized per thread.
fn tangency_ratio(degree: u32) -> f64 {
    use std::cell::RefCell;
    use std::collections::HashMap;
    debug_assert!(degree % 2 == 1 && degree >= 3);
    if degree == 3 {
        return -0.5;
    }
    thread_local! {
        static CACHE: RefCell<HashMap<u32, f64>> = RefCell::new(HashMap::new());
    }
    CACHE.with(|cache| {
        *cache.borrow_mut().entry(degree).or_insert_with(|| {
            let n = degree as i32;
            let g = |c: f64| (1.0 - n as f64) * c.powi(n) + n as f64 * c.powi(n - 1) - 1.0;
            // Root is bracketed in (−1, 0): g(0) = −1, g(−1) = 2n − 2 > 0.
            let (mut lo, mut hi) = (-1.0, 0.0);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if g(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        })
    })
}

/// Line through `(anchor, f(anchor))` tangent to `f` on the branch
/// `[blo, bhi]`, or the chord over `[lo, hi]` when the rotation limit is the
/// far endpoint.
///
/// `fa` is `f(anchor)` and `flo`/`fhi` are the endpoint values — all
/// computed once by [`envelope_parts`] and threaded through, so the chord
/// fallback no longer re-evaluates the curve at either endpoint.
#[allow(clippy::too_many_arguments)]
fn anchored_or_chord(
    curve: Curve,
    anchor: f64,
    fa: f64,
    blo: f64,
    bhi: f64,
    lo: f64,
    hi: f64,
    flo: f64,
    fhi: f64,
) -> Line {
    match solve_tangency(curve, anchor, fa, blo, bhi) {
        Some(s) => {
            let m = curve.deriv(s);
            Line {
                m,
                c: fa - m * anchor,
            }
        }
        None => chord(lo, hi, flo, fhi),
    }
}

/// Builds the bounding envelope of `curve` on `[lo, hi]` together with the
/// exact curve range — the full per-node bound ingredients.
///
/// `xbar` is the weighted mean `Σ wᵢxᵢ / Σ wᵢ` of the node being bounded —
/// the optimal tangent location of Theorems 1–2. It is clamped into
/// `[lo, hi]` defensively.
///
/// The endpoint values `f(lo)`, `f(hi)` are evaluated exactly once and
/// shared between the range, the chord and the rotation-limit anchors;
/// tangents go through the fused [`Curve::value_deriv`]. Every shared
/// value is bitwise identical to the separate evaluations it replaces, so
/// the envelope bits are unchanged from the pre-sharing construction. A
/// Gaussian convex interval now costs 3 `exp` evaluations (endpoints +
/// fused tangent) instead of the former 6.
///
/// # Panics
/// Panics if `lo > hi` or any of the inputs is NaN.
#[inline]
pub fn envelope_parts(curve: Curve, lo: f64, hi: f64, xbar: f64) -> EnvelopeParts {
    assert!(lo <= hi, "envelope interval inverted: [{lo}, {hi}]");
    assert!(
        !lo.is_nan() && !hi.is_nan() && !xbar.is_nan(),
        "NaN envelope inputs"
    );
    // An extreme γ (or a far-away node) can overflow the scalar interval
    // itself: `γ·dist²`/`γ·⟨q,p⟩+β` → ±inf. Saturate to the representable
    // range — every curve here is monotone toward its limits on the
    // clamped stretch, so the values at ±f64::MAX enclose the values at
    // ±inf within f64 arithmetic (and endpoint-value overflow is handled
    // by the constant-envelope branch below). Bitwise no-op on the finite
    // intervals of ordinary workloads.
    let (lo, hi) = if -f64::MAX <= lo && hi <= f64::MAX {
        (lo, hi) // finite interval: the common case, untouched
    } else {
        (lo.clamp(-f64::MAX, f64::MAX), hi.clamp(-f64::MAX, f64::MAX))
    };
    #[cfg(feature = "stats")]
    stats::bump_built();
    let flo = curve.value(lo);
    let fhi = curve.value(hi);
    let (fmin, fmax) = range_from_values(curve, lo, hi, flo, fhi);
    // Overflow saturation: a huge `|γ·x + β|` pushes the endpoint values
    // of a polynomial/sigmoid curve past f64 range. A chord or tangent
    // through an infinite endpoint is useless — its line evaluates to
    // NaN/±inf, and ±inf per-node bounds poison the evaluator's
    // subtract-re-add accounting (`inf − inf = NaN`). A *constant*
    // envelope at the curve's (saturated) range is still a valid
    // enclosure of every finitely-representable curve value on the
    // interval, so truncate the infinities to ±f64::MAX and fall back to
    // range bounds. NaN range endpoints (from inf-valued arithmetic in
    // the range reduction) widen to the full representable range.
    if !(flo.is_finite() && fhi.is_finite()) {
        let lo_c = if fmin.is_nan() {
            -f64::MAX
        } else {
            fmin.clamp(-f64::MAX, f64::MAX)
        };
        let hi_c = if fmax.is_nan() {
            f64::MAX
        } else {
            fmax.clamp(-f64::MAX, f64::MAX)
        };
        return EnvelopeParts {
            env: Envelope {
                lower: Line { m: 0.0, c: lo_c },
                upper: Line { m: 0.0, c: hi_c },
            },
            fmin: lo_c,
            fmax: hi_c,
        };
    }
    // Degenerate interval: the node's points all map to (almost) one scalar;
    // the constant range bounds are exact and always valid.
    if hi - lo <= 1e-13 * (1.0 + lo.abs().max(hi.abs())) {
        return EnvelopeParts {
            env: Envelope {
                lower: Line { m: 0.0, c: fmin },
                upper: Line { m: 0.0, c: fmax },
            },
            fmin,
            fmax,
        };
    }
    let xbar = xbar.clamp(lo, hi);
    let env = match curve.curvature_on(lo, hi) {
        Curvature::Linear => {
            let line = chord(lo, hi, flo, fhi);
            Envelope {
                lower: line,
                upper: line,
            }
        }
        Curvature::Convex => {
            // Guard the Laplacian curve's singular derivative at x = 0: a
            // tangent slightly right of 0 is still a valid lower bound of a
            // convex curve everywhere on its domain.
            let t = match curve {
                Curve::NegExpSqrt => xbar.max(1e-12 * (1.0 + hi)),
                _ => xbar,
            };
            Envelope {
                lower: tangent(curve, t),
                upper: chord(lo, hi, flo, fhi),
            }
        }
        Curvature::Concave => Envelope {
            lower: chord(lo, hi, flo, fhi),
            upper: tangent(curve, xbar),
        },
        // Odd-degree polynomial on an interval straddling 0: concave branch
        // is [lo, 0], convex branch is [0, hi] (Figure 8).
        Curvature::ConcaveThenConvex => Envelope {
            // rotate-up around the left endpoint, tangent to the convex branch
            lower: anchored_or_chord(curve, lo, flo, 0.0, hi, lo, hi, flo, fhi),
            // rotate-down around the right endpoint, tangent to the concave branch
            upper: anchored_or_chord(curve, hi, fhi, lo, 0.0, lo, hi, flo, fhi),
        },
        // tanh: convex branch [lo, 0], concave branch [0, hi].
        Curvature::ConvexThenConcave => Envelope {
            // anchored at the right endpoint, tangent to the convex branch
            lower: anchored_or_chord(curve, hi, fhi, lo, 0.0, lo, hi, flo, fhi),
            // anchored at the left endpoint, tangent to the concave branch
            upper: anchored_or_chord(curve, lo, flo, 0.0, hi, lo, hi, flo, fhi),
        },
    };
    EnvelopeParts { env, fmin, fmax }
}

/// Builds the bounding envelope of `curve` on `[lo, hi]`; see
/// [`envelope_parts`] for the construction and its invariants.
///
/// # Panics
/// Panics if `lo > hi` or any of the inputs is NaN.
#[inline]
pub fn envelope(curve: Curve, lo: f64, hi: f64, xbar: f64) -> Envelope {
    envelope_parts(curve, lo, hi, xbar).env
}

#[cfg(test)]
mod tests {
    use super::*;
    use karl_testkit::prop_assert;

    const CURVES: [Curve; 7] = [
        Curve::NegExp,
        Curve::PowInt { degree: 1 },
        Curve::PowInt { degree: 2 },
        Curve::PowInt { degree: 3 },
        Curve::PowInt { degree: 5 },
        Curve::Tanh,
        Curve::NegExpSqrt,
    ];

    /// Checks `lower ≤ f ≤ upper` on a dense grid with relative tolerance.
    fn assert_envelope_valid(curve: Curve, lo: f64, hi: f64, env: &Envelope) {
        for k in 0..=200 {
            let x = lo + (hi - lo) * (k as f64 / 200.0);
            let f = curve.value(x);
            let tol = 1e-9 * (1.0 + f.abs());
            assert!(
                env.lower.eval(x) <= f + tol,
                "{curve:?} lower line violated at {x}: {} > {}",
                env.lower.eval(x),
                f
            );
            assert!(
                env.upper.eval(x) + tol >= f,
                "{curve:?} upper line violated at {x}: {} < {}",
                env.upper.eval(x),
                f
            );
        }
    }

    #[test]
    fn gaussian_chord_and_tangent() {
        let env = envelope(Curve::NegExp, 0.2, 2.0, 0.9);
        assert_envelope_valid(Curve::NegExp, 0.2, 2.0, &env);
        // chord endpoints exact
        assert!((env.upper.eval(0.2) - (-0.2f64).exp()).abs() < 1e-12);
        assert!((env.upper.eval(2.0) - (-2.0f64).exp()).abs() < 1e-12);
        // tangent touches at xbar
        assert!((env.lower.eval(0.9) - (-0.9f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_interval_is_exact() {
        let env = envelope(Curve::NegExp, 1.0, 1.0, 1.0);
        let f = (-1.0f64).exp();
        assert!((env.lower.eval(1.0) - f).abs() < 1e-12);
        assert!((env.upper.eval(1.0) - f).abs() < 1e-12);
    }

    #[test]
    fn linear_curve_is_exact() {
        let env = envelope(Curve::PowInt { degree: 1 }, -3.0, 4.0, 0.0);
        assert_eq!(env.lower, env.upper);
        assert!((env.lower.m - 1.0).abs() < 1e-12);
        assert!(env.lower.c.abs() < 1e-12);
    }

    #[test]
    fn cube_mixed_interval() {
        let c = Curve::PowInt { degree: 3 };
        let env = envelope(c, -1.0, 2.0, 0.3);
        assert_envelope_valid(c, -1.0, 2.0, &env);
        // the rotate-down upper line passes through the right endpoint
        assert!((env.upper.eval(2.0) - 8.0).abs() < 1e-9);
        // the rotate-up lower line passes through the left endpoint
        assert!((env.lower.eval(-1.0) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cube_chord_fallback_when_tangency_escapes() {
        // A long concave branch and a stubby convex branch: the rotate-up
        // tangency would land beyond hi, so the lower line must be the chord.
        let c = Curve::PowInt { degree: 3 };
        let (lo, hi) = (-10.0, 0.1);
        let env = envelope(c, lo, hi, -2.0);
        assert_envelope_valid(c, lo, hi, &env);
        assert!((env.lower.eval(lo) - c.value(lo)).abs() < 1e-6);
        assert!((env.lower.eval(hi) - c.value(hi)).abs() < 1e-6);
    }

    #[test]
    fn tanh_mixed_interval() {
        let env = envelope(Curve::Tanh, -2.0, 3.0, 0.5);
        assert_envelope_valid(Curve::Tanh, -2.0, 3.0, &env);
        // anchors: upper at lo, lower at hi
        assert!((env.upper.eval(-2.0) - (-2.0f64).tanh()).abs() < 1e-9);
        assert!((env.lower.eval(3.0) - 3.0f64.tanh()).abs() < 1e-9);
    }

    #[test]
    fn tanh_pure_concave_interval() {
        let env = envelope(Curve::Tanh, 0.5, 2.5, 1.0);
        assert_envelope_valid(Curve::Tanh, 0.5, 2.5, &env);
        // tangent above at the mean
        assert!((env.upper.eval(1.0) - 1.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn karl_upper_tighter_than_sota_on_convex() {
        // Lemma 3: the chord never exceeds exp(−x_min) on the interval.
        let (lo, hi) = (0.3, 2.7);
        let env = envelope(Curve::NegExp, lo, hi, 1.0);
        let sota_ub = (-lo).exp();
        for k in 0..=100 {
            let x = lo + (hi - lo) * (k as f64 / 100.0);
            assert!(env.upper.eval(x) <= sota_ub + 1e-12);
        }
    }

    #[test]
    fn karl_lower_tighter_than_sota_on_convex() {
        // Lemma 4 is a statement about the *aggregated* bound: evaluated at
        // the node's weighted mean x̄ (which is where the aggregate
        // `m·X + c·W = W·(m·x̄ + c)` lands), the tangent bound
        // `W·f(x̄)` dominates SOTA's `W·f(x_max)` for every x̄ ≤ x_max.
        let (lo, hi) = (0.3f64, 2.7f64);
        let sota_lb = (-hi).exp();
        for k in 0..=100 {
            let xbar = lo + (hi - lo) * (k as f64 / 100.0);
            let env = envelope(Curve::NegExp, lo, hi, xbar);
            assert!(env.lower.eval(xbar) + 1e-12 >= sota_lb);
        }
    }

    #[test]
    fn tangent_at_mean_is_optimal() {
        // Theorem 1: among tangents, the one at x̄ maximizes the aggregated
        // lower bound m·X + c·W with X = W·x̄.
        let curve = Curve::NegExp;
        let (lo, hi, xbar, w) = (0.1, 3.0, 1.3, 5.0);
        let x_agg = w * xbar;
        let at_mean = tangent(curve, xbar);
        let best = at_mean.m * x_agg + at_mean.c * w;
        for t in [lo, 0.5, 0.9, 2.0, 2.9, hi] {
            let line = tangent(curve, t);
            let val = line.m * x_agg + line.c * w;
            assert!(val <= best + 1e-12, "tangent at {t} beats tangent at mean");
        }
    }

    /// Regression pinned from a recorded proptest failure seed (formerly
    /// `proptest-regressions/envelope.txt`, which shrank to
    /// `a = 0.0, b = 5.0656497446710285, frac = 0.0`): with x̄ exactly at
    /// the interval's left edge, the tangent lower bound evaluated at x̄
    /// must still dominate SOTA's constant `f(hi)` (Lemma 4 edge case).
    #[test]
    fn regression_tangent_at_left_edge_dominates_sota() {
        let (lo, hi) = (0.0, 5.0656497446710285);
        let curve = Curve::NegExp;
        let xbar = lo; // frac = 0.0 ⇒ x̄ degenerates onto the lower endpoint
        let env = envelope(curve, lo, hi, xbar);
        let (fmin, fmax) = curve.range(lo, hi);
        for k in 0..=32 {
            let x = lo + (hi - lo) * (k as f64 / 32.0);
            assert!(
                env.upper.eval(x) <= fmax + 1e-9,
                "chord UB above SOTA at {x}"
            );
        }
        assert!(
            env.lower.eval(xbar) + 1e-9 >= fmin,
            "tangent LB below SOTA at x̄"
        );
    }

    #[test]
    fn overflow_saturates_to_finite_constant_envelope() {
        // x³ at x = 6e102 overflows f64: the old chord/tangent through the
        // infinite endpoint produced ±inf/NaN lines that poisoned every
        // downstream interval. The saturated branch must emit a *finite*
        // constant envelope that still encloses every representable curve
        // value on the interval.
        let curve = Curve::PowInt { degree: 3 };
        let parts = envelope_parts(curve, 0.0, 6e102, 3e102);
        assert!(parts.fmin.is_finite() && parts.fmax.is_finite());
        assert_eq!(parts.env.lower.m, 0.0);
        assert_eq!(parts.env.upper.m, 0.0);
        // Pointwise validity at interior points whose value is finite.
        for x in [0.0, 1.0, 3e102] {
            let v = curve.value(x);
            assert!(v.is_finite(), "probe value overflowed at {x}");
            assert!(parts.env.lower.m * x + parts.env.lower.c <= v);
            assert!(parts.env.upper.m * x + parts.env.upper.c >= v);
        }
    }

    karl_testkit::props! {
        /// `range_from_values` fed the endpoint values must be bitwise
        /// identical to `Curve::range` — the substitution the shared-endpoint
        /// refactor relies on for trace-level equivalence.
        #[test]
        fn prop_range_from_values_bitwise_matches_range(
            curve_id in 0usize..CURVES.len(),
            a in -5.0f64..5.0,
            b in -5.0f64..5.0,
        ) {
            let curve = CURVES[curve_id];
            let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
            if matches!(curve, Curve::NegExp | Curve::NegExpSqrt) {
                lo = lo.abs();
                hi = hi.abs();
                if lo > hi { std::mem::swap(&mut lo, &mut hi); }
            }
            let (rmin, rmax) = curve.range(lo, hi);
            let (vmin, vmax) =
                range_from_values(curve, lo, hi, curve.value(lo), curve.value(hi));
            prop_assert!(vmin.to_bits() == rmin.to_bits(),
                "{curve:?} min on [{lo},{hi}]");
            prop_assert!(vmax.to_bits() == rmax.to_bits(),
                "{curve:?} max on [{lo},{hi}]");
        }

        /// Envelope validity on random intervals for every curve.
        #[test]
        fn prop_envelope_bounds_curve(
            curve_id in 0usize..CURVES.len(),
            a in -5.0f64..5.0,
            b in -5.0f64..5.0,
            frac in 0.0f64..=1.0,
        ) {
            let curve = CURVES[curve_id];
            let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
            if matches!(curve, Curve::NegExp | Curve::NegExpSqrt) {
                // Gaussian/Laplacian intervals are γ·dist² ≥ 0
                lo = lo.abs();
                hi = hi.abs();
                if lo > hi { std::mem::swap(&mut lo, &mut hi); }
            }
            let xbar = lo + frac * (hi - lo);
            let env = envelope(curve, lo, hi, xbar);
            for k in 0..=64 {
                let x = lo + (hi - lo) * (k as f64 / 64.0);
                let f = curve.value(x);
                let tol = 1e-8 * (1.0 + f.abs());
                prop_assert!(env.lower.eval(x) <= f + tol,
                    "{curve:?} lower violated at {x} in [{lo},{hi}]");
                prop_assert!(env.upper.eval(x) + tol >= f,
                    "{curve:?} upper violated at {x} in [{lo},{hi}]");
            }
        }

        /// On convex intervals the envelope must be at least as tight as the
        /// SOTA constant bounds everywhere (Lemmas 3 and 4).
        #[test]
        fn prop_tighter_than_sota_on_convex(
            a in 0.0f64..6.0,
            b in 0.0f64..6.0,
            frac in 0.0f64..=1.0,
        ) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let curve = Curve::NegExp;
            let xbar = lo + frac * (hi - lo);
            let env = envelope(curve, lo, hi, xbar);
            let (fmin, fmax) = curve.range(lo, hi);
            // The chord upper bound beats SOTA pointwise (Lemma 3)…
            for k in 0..=32 {
                let x = lo + (hi - lo) * (k as f64 / 32.0);
                prop_assert!(env.upper.eval(x) <= fmax + 1e-9);
            }
            // …and the tangent lower bound beats SOTA where the aggregate
            // evaluates it: at the weighted mean (Lemma 4).
            prop_assert!(env.lower.eval(xbar) + 1e-9 >= fmin);
        }
    }
}
