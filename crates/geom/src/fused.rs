//! Fused single-pass per-node probe kernels over SoA buffers.
//!
//! The branch-and-bound evaluator needs up to three reductions over the
//! same `d` coordinates at every heap pop: `mindist²(q, R)`,
//! `maxdist²(q, R)` and the aggregate inner product `q · a_R`. Computing
//! them separately walks the node's buffers three times; the fused kernels
//! here do one pass with shared loads and one 4-wide blocked accumulator
//! per output, so a frozen-tree probe touches each cache line once.
//!
//! **Bitwise contract.** Every accumulator replicates the exact blocked
//! summation of the single-output primitives (`dist::dist2`/`dot` and the
//! `Rect` bound methods): lane `k` sums the terms at coordinates
//! `k, k+4, k+8, …` and the final reduction is
//! `(acc0+acc1) + (acc2+acc3) + tail`. Interleaving independent
//! accumulators in one loop does not change the order of adds *within*
//! each accumulator, so the fused outputs are bit-identical to the
//! separate passes — the property the frozen/pointer differential tests
//! rely on. The shared per-coordinate term helpers below are the single
//! source of truth for both code paths.
//!
//! The `AGG` const parameter compiles the `q · a_R` accumulator in or out:
//! SOTA bounds never need the aggregate, and the branch folds away at
//! monomorphization time. With `AGG = false` the `a` slice is ignored
//! (pass `&[]`).

/// Per-coordinate term of `mindist²`: squared gap between `x` and the
/// interval `[l, h]` (zero inside).
#[inline(always)]
pub(crate) fn rect_min_term(x: f64, l: f64, h: f64) -> f64 {
    let diff = if x < l {
        l - x
    } else if x > h {
        x - h
    } else {
        0.0
    };
    diff * diff
}

/// Per-coordinate term of `maxdist²`: squared distance from `x` to the
/// farther end of `[l, h]`.
#[inline(always)]
pub(crate) fn rect_max_term(x: f64, l: f64, h: f64) -> f64 {
    let diff = (x - l).abs().max((h - x).abs());
    diff * diff
}

/// Per-coordinate term of the inner-product lower bound over `[l, h]`.
#[inline(always)]
pub(crate) fn rect_ip_min_term(x: f64, l: f64, h: f64) -> f64 {
    (x * l).min(x * h)
}

/// Per-coordinate term of the inner-product upper bound over `[l, h]`.
#[inline(always)]
pub(crate) fn rect_ip_max_term(x: f64, l: f64, h: f64) -> f64 {
    (x * l).max(x * h)
}

/// Fused rectangle distance probe: `(mindist², maxdist², q·a)` in one pass
/// over `q`, `lo`, `hi` (and `a` when `AGG`).
///
/// Bitwise identical to `Rect::mindist2` / `Rect::maxdist2` /
/// `dist::dot(q, a)` computed separately.
#[inline]
pub fn rect_dist<const AGG: bool>(q: &[f64], lo: &[f64], hi: &[f64], a: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(lo.len(), q.len());
    debug_assert_eq!(hi.len(), q.len());
    debug_assert!(!AGG || a.len() == q.len());
    crate::simd::rect_dist_with::<AGG>(crate::simd::backend(), q, lo, hi, a)
}

/// Fused rectangle inner-product probe: `(ip_min, ip_max, q·a)` in one
/// pass. Bitwise identical to `Rect::ip_min` / `Rect::ip_max` /
/// `dist::dot(q, a)` computed separately.
#[inline]
pub fn rect_ip<const AGG: bool>(q: &[f64], lo: &[f64], hi: &[f64], a: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(lo.len(), q.len());
    debug_assert_eq!(hi.len(), q.len());
    debug_assert!(!AGG || a.len() == q.len());
    crate::simd::rect_ip_with::<AGG>(crate::simd::backend(), q, lo, hi, a)
}

/// Fused ball distance probe: `(dist²(q, center), q·a)` in one pass.
/// Bitwise identical to `dist::dist2(q, center)` / `dist::dot(q, a)`.
#[inline]
pub fn ball_dist<const AGG: bool>(q: &[f64], center: &[f64], a: &[f64]) -> (f64, f64) {
    debug_assert_eq!(center.len(), q.len());
    debug_assert!(!AGG || a.len() == q.len());
    crate::simd::ball_dist_with::<AGG>(crate::simd::backend(), q, center, a)
}

/// Fused ball inner-product probe: `(q·center, q·a)` in one pass.
/// Bitwise identical to two separate `dist::dot` calls.
#[inline]
pub fn ball_ip<const AGG: bool>(q: &[f64], center: &[f64], a: &[f64]) -> (f64, f64) {
    debug_assert_eq!(center.len(), q.len());
    debug_assert!(!AGG || a.len() == q.len());
    crate::simd::ball_ip_with::<AGG>(crate::simd::backend(), q, center, a)
}

/// Batched [`rect_dist`] over a gathered frontier of node ids: for each
/// `id` the node's `d`-dim slices are taken at offset `id * d` in the SoA
/// buffers and the fused probe's `(mindist², maxdist², q·a)` triple is
/// handed to `emit` in order. One call per frontier keeps the bound loop's
/// geometry in a single tight pass; each per-node probe is the *same*
/// scalar kernel, so the outputs are bitwise identical to calling
/// [`rect_dist`] node by node.
#[inline]
pub fn rect_dist_nodes<const AGG: bool, F: FnMut(f64, f64, f64)>(
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
    ids: &[u32],
    mut emit: F,
) {
    let d = q.len();
    let be = crate::simd::backend();
    for &id in ids {
        let s = id as usize * d;
        let an: &[f64] = if AGG { &a[s..s + d] } else { &[] };
        let (mn, mx, qa) =
            crate::simd::rect_dist_with::<AGG>(be, q, &lo[s..s + d], &hi[s..s + d], an);
        emit(mn, mx, qa);
    }
}

/// Batched [`rect_ip`] over a gathered frontier; see [`rect_dist_nodes`].
#[inline]
pub fn rect_ip_nodes<const AGG: bool, F: FnMut(f64, f64, f64)>(
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
    ids: &[u32],
    mut emit: F,
) {
    let d = q.len();
    let be = crate::simd::backend();
    for &id in ids {
        let s = id as usize * d;
        let an: &[f64] = if AGG { &a[s..s + d] } else { &[] };
        let (mn, mx, qa) =
            crate::simd::rect_ip_with::<AGG>(be, q, &lo[s..s + d], &hi[s..s + d], an);
        emit(mn, mx, qa);
    }
}

/// Batched [`ball_dist`] over a gathered frontier: emits
/// `(dist²(q, center), q·a)` per node id, bitwise identical to the
/// per-node calls.
#[inline]
pub fn ball_dist_nodes<const AGG: bool, F: FnMut(f64, f64)>(
    q: &[f64],
    centers: &[f64],
    a: &[f64],
    ids: &[u32],
    mut emit: F,
) {
    let d = q.len();
    let be = crate::simd::backend();
    for &id in ids {
        let s = id as usize * d;
        let an: &[f64] = if AGG { &a[s..s + d] } else { &[] };
        let (d2, qa) = crate::simd::ball_dist_with::<AGG>(be, q, &centers[s..s + d], an);
        emit(d2, qa);
    }
}

/// Batched [`ball_ip`] over a gathered frontier: emits `(q·center, q·a)`
/// per node id, bitwise identical to the per-node calls.
#[inline]
pub fn ball_ip_nodes<const AGG: bool, F: FnMut(f64, f64)>(
    q: &[f64],
    centers: &[f64],
    a: &[f64],
    ids: &[u32],
    mut emit: F,
) {
    let d = q.len();
    let be = crate::simd::backend();
    for &id in ids {
        let s = id as usize * d;
        let an: &[f64] = if AGG { &a[s..s + d] } else { &[] };
        let (qc, qa) = crate::simd::ball_ip_with::<AGG>(be, q, &centers[s..s + d], an);
        emit(qc, qa);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{dist2, dot};
    use crate::{BoundingShape, Rect};

    /// Deterministic quasi-random vectors exercising every remainder
    /// length around the 4-wide blocking.
    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        let lo: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos() * 2.0 - 1.5).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + 2.0).collect();
        let a: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.31).tan().clamp(-4.0, 4.0))
            .collect();
        (q, lo, hi, a)
    }

    #[test]
    fn rect_dist_bitwise_matches_separate_passes() {
        for n in 1..13usize {
            let (q, lo, hi, a) = vectors(n);
            let rect = Rect::new(lo.clone(), hi.clone());
            let (mn, mx, qa) = rect_dist::<true>(&q, &lo, &hi, &a);
            assert_eq!(mn, rect.mindist2(&q), "mindist2 at n={n}");
            assert_eq!(mx, rect.maxdist2(&q), "maxdist2 at n={n}");
            assert_eq!(qa, dot(&q, &a), "q·a at n={n}");
            let (mn0, mx0, qa0) = rect_dist::<false>(&q, &lo, &hi, &[]);
            assert_eq!((mn0, mx0, qa0), (mn, mx, 0.0));
        }
    }

    #[test]
    fn rect_ip_bitwise_matches_separate_passes() {
        for n in 1..13usize {
            let (q, lo, hi, a) = vectors(n);
            let rect = Rect::new(lo.clone(), hi.clone());
            let (mn, mx, qa) = rect_ip::<true>(&q, &lo, &hi, &a);
            assert_eq!(mn, rect.ip_min(&q), "ip_min at n={n}");
            assert_eq!(mx, rect.ip_max(&q), "ip_max at n={n}");
            assert_eq!(qa, dot(&q, &a), "q·a at n={n}");
            let (mn0, mx0, qa0) = rect_ip::<false>(&q, &lo, &hi, &[]);
            assert_eq!((mn0, mx0, qa0), (mn, mx, 0.0));
        }
    }

    #[test]
    fn ball_probes_bitwise_match_separate_passes() {
        for n in 1..13usize {
            let (q, c, _, a) = vectors(n);
            let (d2, qa) = ball_dist::<true>(&q, &c, &a);
            assert_eq!(d2, dist2(&q, &c), "dist2 at n={n}");
            assert_eq!(qa, dot(&q, &a), "q·a at n={n}");
            assert_eq!(ball_dist::<false>(&q, &c, &[]), (d2, 0.0));
            let (qc, qa2) = ball_ip::<true>(&q, &c, &a);
            assert_eq!(qc, dot(&q, &c), "q·c at n={n}");
            assert_eq!(qa2, qa);
            assert_eq!(ball_ip::<false>(&q, &c, &[]), (qc, 0.0));
        }
    }

    #[test]
    fn batched_node_kernels_bitwise_match_per_node_calls() {
        // Node-major SoA buffers for 5 fake nodes of dimension d, probed in
        // a shuffled id order with repeats (a frontier may revisit bits of
        // the array in any order).
        let d = 7usize;
        let nodes = 5usize;
        let (q, _, _, _) = vectors(d);
        let mut lo = Vec::with_capacity(nodes * d);
        let mut hi = Vec::with_capacity(nodes * d);
        let mut a = Vec::with_capacity(nodes * d);
        for i in 0..nodes * d {
            let t = i as f64 * 0.41;
            lo.push(t.sin() * 2.0 - 1.0);
            hi.push(t.sin() * 2.0 - 1.0 + (t.cos().abs() + 0.1));
            a.push((t * 1.7).cos() * 3.0);
        }
        let ids: [u32; 7] = [3, 0, 4, 1, 1, 2, 0];

        let mut got = Vec::new();
        rect_dist_nodes::<true, _>(&q, &lo, &hi, &a, &ids, |mn, mx, qa| got.push((mn, mx, qa)));
        for (k, &id) in ids.iter().enumerate() {
            let s = id as usize * d;
            let want = rect_dist::<true>(&q, &lo[s..s + d], &hi[s..s + d], &a[s..s + d]);
            assert_eq!(got[k], want, "rect_dist_nodes id {id}");
        }

        let mut got = Vec::new();
        rect_ip_nodes::<false, _>(&q, &lo, &hi, &[], &ids, |mn, mx, qa| got.push((mn, mx, qa)));
        for (k, &id) in ids.iter().enumerate() {
            let s = id as usize * d;
            let want = rect_ip::<false>(&q, &lo[s..s + d], &hi[s..s + d], &[]);
            assert_eq!(got[k], want, "rect_ip_nodes id {id}");
        }

        let mut got = Vec::new();
        ball_dist_nodes::<true, _>(&q, &lo, &a, &ids, |d2, qa| got.push((d2, qa)));
        for (k, &id) in ids.iter().enumerate() {
            let s = id as usize * d;
            let want = ball_dist::<true>(&q, &lo[s..s + d], &a[s..s + d]);
            assert_eq!(got[k], want, "ball_dist_nodes id {id}");
        }

        let mut got = Vec::new();
        ball_ip_nodes::<false, _>(&q, &lo, &[], &ids, |qc, qa| got.push((qc, qa)));
        for (k, &id) in ids.iter().enumerate() {
            let s = id as usize * d;
            let want = ball_ip::<false>(&q, &lo[s..s + d], &[]);
            assert_eq!(got[k], want, "ball_ip_nodes id {id}");
        }

        // Empty frontier: no emissions.
        rect_dist_nodes::<true, _>(&q, &lo, &hi, &a, &[], |_, _, _| {
            panic!("emit on empty frontier")
        });
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(rect_dist::<true>(&[], &[], &[], &[]), (0.0, 0.0, 0.0));
        assert_eq!(rect_ip::<false>(&[], &[], &[], &[]), (0.0, 0.0, 0.0));
        assert_eq!(ball_dist::<true>(&[], &[], &[]), (0.0, 0.0));
        assert_eq!(ball_ip::<false>(&[], &[], &[]), (0.0, 0.0));
    }
}
