//! Brute-force reference implementations ("oracles") and interval checks.
//!
//! The paper's soundness claims (Sec. 4, Lemmas 3–5) all have the shape
//! "the fast path returns exactly what the O(n·d) loop returns" or "the
//! cheap bound brackets the exact value". These oracles *are* those
//! O(n·d) loops, written with no cleverness at all, so every fast-path
//! test in the workspace can compare against an implementation too simple
//! to be wrong. They are generic over plain slices — this crate knows
//! nothing about `karl-geom` point sets; callers pass row iterators.

/// Exact weighted kernel aggregate `Σᵢ wᵢ · k(q, xᵢ)` by direct summation.
///
/// `points` yields one `d`-dimensional row per weight; `kernel` is any
/// closure `k(q, x)`. Panics if the weight count disagrees with the row
/// count.
pub fn exact_sum<'a, I, K>(points: I, weights: &[f64], q: &[f64], kernel: K) -> f64
where
    I: IntoIterator<Item = &'a [f64]>,
    K: Fn(&[f64], &[f64]) -> f64,
{
    let mut total = 0.0;
    let mut rows = 0;
    for (i, p) in points.into_iter().enumerate() {
        total += weights[i] * kernel(q, p);
        rows += 1;
    }
    assert_eq!(rows, weights.len(), "weight count does not match row count");
    total
}

/// Squared Euclidean distance by the textbook loop.
pub fn dist2_naive(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact k-nearest-neighbours by scanning every point: returns up to `k`
/// `(index, squared_distance)` pairs sorted by ascending distance, ties
/// broken by index (fully deterministic).
pub fn naive_knn<'a, I>(points: I, q: &[f64], k: usize) -> Vec<(usize, f64)>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut all: Vec<(usize, f64)> = points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i, dist2_naive(q, p)))
        .collect();
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// A closed interval `[lo, hi]`, the currency of bound checking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Builds `[lo, hi]`; panics if `lo > hi` or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `x` lies inside, within an absolute slack of `tol` per side.
    pub fn contains(&self, x: f64, tol: f64) -> bool {
        self.lo - tol <= x && x <= self.hi + tol
    }

    /// Whether `self` lies inside `other` (i.e. is at least as tight),
    /// within an absolute slack of `tol` per side.
    pub fn within(&self, other: &Interval, tol: f64) -> bool {
        other.lo - tol <= self.lo && self.hi <= other.hi + tol
    }

    /// Minkowski sum `[a.lo + b.lo, a.hi + b.hi]`.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Scales by a (possibly negative) constant, flipping endpoints as needed.
    pub fn scale(&self, c: f64) -> Interval {
        if c >= 0.0 {
            Interval::new(c * self.lo, c * self.hi)
        } else {
            Interval::new(c * self.hi, c * self.lo)
        }
    }
}

/// Relative tolerance scaled by the magnitude of the exact value:
/// `tol · (1 + |exact|)`, the convention used throughout the workspace.
pub fn rel_tol(exact: f64, tol: f64) -> f64 {
    tol * (1.0 + exact.abs())
}

/// Checks the soundness contract `lb ≤ exact ≤ ub` with relative slack.
/// Returns a diagnostic message on violation, for `prop_assert!`-style use.
pub fn check_bracket(lb: f64, exact: f64, ub: f64, tol: f64) -> Result<(), String> {
    let slack = rel_tol(exact, tol);
    if lb > exact + slack {
        return Err(format!("lower bound {lb} exceeds exact value {exact} (slack {slack})"));
    }
    if ub < exact - slack {
        return Err(format!("upper bound {ub} below exact value {exact} (slack {slack})"));
    }
    Ok(())
}

/// Checks the tightness contract of Lemma 3: the `tight` interval must lie
/// inside the `loose` one (KARL's bounds never worse than SOTA's), with
/// relative slack scaled by the loose interval's magnitude.
pub fn check_tighter(tight: Interval, loose: Interval, tol: f64) -> Result<(), String> {
    let slack = tol * (1.0 + loose.lo.abs().max(loose.hi.abs()));
    if tight.within(&loose, slack) {
        Ok(())
    } else {
        Err(format!("interval {tight:?} is not within {loose:?} (slack {slack})"))
    }
}
