//! Runtime-dispatched explicit SIMD kernels with a bitwise determinism
//! contract.
//!
//! Every hot reduction in the workspace — `dist²`/`dot`/`norm²`, the fused
//! per-node probes, and the build-time weighted
//! sums and corner min/max sweeps — runs through this module. Each kernel
//! has exactly **one** generic body written over a 4-lane abstraction
//! ([`Lanes`]) and two backends:
//!
//! * **scalar** — `[f64; 4]`, applying every lane operation element by
//!   element in lane order, and
//! * **avx2** — `std::arch` `__m256d` intrinsics (x86-64 only), one vector
//!   instruction per lane operation.
//!
//! **Determinism contract.** The 4-wide blocked-accumulator order
//! established by `dist`/`fused` is canonical: lane `k` sums the terms at
//! coordinates `k, k+4, k+8, …` and the horizontal reduction is always the
//! scalar `(acc0+acc1) + (acc2+acc3) + tail`, with the tail coordinates
//! (`d % 4`) handled by shared scalar code. The SIMD lanes map 1:1 onto
//! those four accumulators, and **no FMA contraction is used** — every
//! vector operation is the same IEEE-754 add/sub/mul the scalar lane
//! performs, so the two backends produce bitwise-identical results for
//! finite inputs (the validated entry points upstream reject non-finite
//! data). `min`/`max` follow the SSE/AVX selection rule
//! `a OP b ? a : b` (second operand on ties and NaN) in *both* backends;
//! the rule differs from `f64::min`/`f64::max` only on signed zeros and
//! NaNs, neither of which can change any accumulated sum.
//!
//! **Dispatch policy.** The backend is resolved once per process from the
//! `KARL_SIMD` environment variable (`auto`, `avx2` or `scalar`; `auto`
//! and unset pick the best ISA [`is_x86_feature_detected!`] reports) and
//! cached in an atomic; [`set_backend`] overrides it (the CLI `--simd`
//! flag). Requesting `avx2` on hardware without it silently falls back to
//! scalar — the results are bitwise identical either way, so the override
//! can never change an answer, only speed.
//!
//! **Safety.** All `unsafe` in the vector path lives in this module. The
//! only obligation the intrinsic calls carry is "AVX2 is available at
//! runtime", and that is guaranteed by construction: [`SimdBackend`] is
//! opaque, and the only way to obtain its avx2 value is through feature
//! detection. Entry points are safe and validate slice lengths before any
//! vector load; loads/stores are unaligned (`loadu`/`storeu`), so no
//! alignment precondition exists (64-byte-aligned [`crate::buf`] storage
//! merely makes them fast).

use std::sync::atomic::{AtomicU8, Ordering};

use crate::fused::{rect_ip_max_term, rect_ip_min_term, rect_max_term, rect_min_term};

/// Name of the environment variable that selects the SIMD backend
/// (`auto` | `avx2` | `scalar`). Read once, at first dispatch.
pub const KARL_SIMD_ENV: &str = "KARL_SIMD";

const KIND_UNRESOLVED: u8 = 0;
const KIND_SCALAR: u8 = 1;
const KIND_AVX2: u8 = 2;

/// A witness for a usable SIMD backend.
///
/// The type is opaque on purpose: the avx2 value can only be obtained when
/// `is_x86_feature_detected!("avx2")` holds, so holding one licenses the
/// vector entry points to execute AVX2 instructions. Backends are
/// interchangeable by the determinism contract — swapping one for another
/// never changes a result bit, only throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdBackend(u8);

impl SimdBackend {
    /// The portable scalar backend (always available).
    #[inline]
    pub const fn scalar() -> Self {
        SimdBackend(KIND_SCALAR)
    }

    /// The AVX2 backend, if the running CPU supports it.
    #[inline]
    pub fn avx2() -> Option<Self> {
        if avx2_available() {
            Some(SimdBackend(KIND_AVX2))
        } else {
            None
        }
    }

    /// The best backend the running CPU supports.
    #[inline]
    pub fn detect() -> Self {
        Self::avx2().unwrap_or_else(Self::scalar)
    }

    /// Stable lowercase name (`"avx2"` / `"scalar"`), used by `--stats`
    /// output, `index info` and the bench JSON ISA tag.
    #[inline]
    pub fn name(self) -> &'static str {
        match self.0 {
            KIND_AVX2 => "avx2",
            _ => "scalar",
        }
    }

    /// Whether this backend issues vector instructions.
    #[inline]
    pub fn is_vector(self) -> bool {
        self.0 == KIND_AVX2
    }
}

#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A requested backend policy (`KARL_SIMD` / `--simd`), prior to feature
/// detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdChoice {
    /// Pick the best backend the CPU supports (the default).
    Auto,
    /// Request AVX2; falls back to scalar when undetected (bitwise
    /// identical either way).
    Avx2,
    /// Force the portable scalar backend.
    Scalar,
}

impl SimdChoice {
    /// Parses `"auto"` / `"avx2"` / `"scalar"` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("auto") {
            Some(SimdChoice::Auto)
        } else if s.eq_ignore_ascii_case("avx2") {
            Some(SimdChoice::Avx2)
        } else if s.eq_ignore_ascii_case("scalar") {
            Some(SimdChoice::Scalar)
        } else {
            None
        }
    }

    /// Resolves the policy against the running CPU.
    pub fn resolve(self) -> SimdBackend {
        match self {
            SimdChoice::Auto | SimdChoice::Avx2 => match self {
                SimdChoice::Scalar => unreachable!(),
                SimdChoice::Auto => SimdBackend::detect(),
                SimdChoice::Avx2 => SimdBackend::avx2().unwrap_or_else(SimdBackend::scalar),
            },
            SimdChoice::Scalar => SimdBackend::scalar(),
        }
    }
}

/// Process-global active backend; `KIND_UNRESOLVED` until first use.
static ACTIVE: AtomicU8 = AtomicU8::new(KIND_UNRESOLVED);

/// The process-global active backend, resolving it on first use from
/// `KARL_SIMD` (unset or invalid values mean [`SimdChoice::Auto`]).
#[inline]
pub fn backend() -> SimdBackend {
    match ACTIVE.load(Ordering::Relaxed) {
        KIND_SCALAR => SimdBackend(KIND_SCALAR),
        KIND_AVX2 => SimdBackend(KIND_AVX2),
        _ => init_backend(),
    }
}

#[cold]
fn init_backend() -> SimdBackend {
    let choice = std::env::var(KARL_SIMD_ENV)
        .ok()
        .and_then(|s| SimdChoice::parse(&s))
        .unwrap_or(SimdChoice::Auto);
    set_backend(choice)
}

/// Overrides the process-global backend (the CLI `--simd` flag). Returns
/// the backend the choice resolved to. Safe at any time: backends are
/// bitwise interchangeable, so in-flight work is unaffected beyond speed.
pub fn set_backend(choice: SimdChoice) -> SimdBackend {
    let be = choice.resolve();
    ACTIVE.store(be.0, Ordering::Relaxed);
    be
}

/// Name of the process-global active backend (resolving it if needed).
#[inline]
pub fn backend_name() -> &'static str {
    backend().name()
}

// ---------------------------------------------------------------------------
// The 4-lane abstraction
// ---------------------------------------------------------------------------

/// Canonical scalar `min`: the SSE/AVX selection rule `a < b ? a : b`
/// (returns `b` on ties and NaN). Used by the scalar backend and the
/// shared tail code so both backends follow one rule.
#[inline(always)]
fn fmin(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Canonical scalar `max`: `a > b ? a : b` (returns `b` on ties and NaN).
#[inline(always)]
fn fmax(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Four `f64` lanes mapping 1:1 onto the canonical blocked accumulators.
///
/// Every method is one IEEE-754 operation per lane, performed in lane
/// order by the scalar backend and as one vector instruction by the AVX2
/// backend — that is the whole bitwise-equality argument.
trait Lanes: Copy {
    /// All four lanes set to `v`.
    fn splat(v: f64) -> Self;
    /// Loads lanes from `s[i..i + 4]` (panics if out of bounds).
    fn load(s: &[f64], i: usize) -> Self;
    /// Stores lanes to `s[i..i + 4]` (panics if out of bounds).
    fn store(self, s: &mut [f64], i: usize);
    /// Lanewise `a + b`.
    fn add(self, o: Self) -> Self;
    /// Lanewise `a - b`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise `a * b`.
    fn mul(self, o: Self) -> Self;
    /// Lanewise canonical min (`a < b ? a : b`).
    fn min(self, o: Self) -> Self;
    /// Lanewise canonical max (`a > b ? a : b`).
    fn max(self, o: Self) -> Self;
    /// Lanewise `|a|` (clears the sign bit).
    fn abs(self) -> Self;
    /// The four lane values, in lane order.
    fn to_array(self) -> [f64; 4];

    /// The canonical horizontal reduction `(l0+l1) + (l2+l3) + tail`,
    /// always performed in scalar arithmetic.
    #[inline(always)]
    fn hsum(self, tail: f64) -> f64 {
        let l = self.to_array();
        (l[0] + l[1]) + (l[2] + l[3]) + tail
    }
}

/// The portable backend: four scalars, operated on in lane order.
#[derive(Clone, Copy)]
struct ScalarLanes([f64; 4]);

macro_rules! scalar_lanewise {
    ($a:expr, $b:expr, $f:expr) => {{
        let (a, b) = (($a).0, ($b).0);
        ScalarLanes([
            $f(a[0], b[0]),
            $f(a[1], b[1]),
            $f(a[2], b[2]),
            $f(a[3], b[3]),
        ])
    }};
}

impl Lanes for ScalarLanes {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        ScalarLanes([v; 4])
    }

    #[inline(always)]
    fn load(s: &[f64], i: usize) -> Self {
        let w = &s[i..i + 4];
        ScalarLanes([w[0], w[1], w[2], w[3]])
    }

    #[inline(always)]
    fn store(self, s: &mut [f64], i: usize) {
        s[i..i + 4].copy_from_slice(&self.0);
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        scalar_lanewise!(self, o, |a: f64, b: f64| a + b)
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        scalar_lanewise!(self, o, |a: f64, b: f64| a - b)
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        scalar_lanewise!(self, o, |a: f64, b: f64| a * b)
    }

    #[inline(always)]
    fn min(self, o: Self) -> Self {
        scalar_lanewise!(self, o, fmin)
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        scalar_lanewise!(self, o, fmax)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        let a = self.0;
        ScalarLanes([a[0].abs(), a[1].abs(), a[2].abs(), a[3].abs()])
    }

    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self.0
    }
}

// ---------------------------------------------------------------------------
// AVX2 backend (x86-64 only)
// ---------------------------------------------------------------------------
//
// SAFETY ARGUMENT (applies to every `unsafe` block in this module): the
// intrinsics used here have no memory preconditions beyond what the
// bounds-checked subslices establish (`loadu`/`storeu` are unaligned),
// so the only remaining obligation is that the CPU supports AVX2. The
// `Avx2Lanes` type is only ever named by the `*_avx2` wrapper functions
// below, and those are only called by the `_with` dispatchers after
// matching on an avx2 `SimdBackend` witness — which is constructible
// solely via `is_x86_feature_detected!("avx2")`.

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_andnot_pd, _mm256_loadu_pd, _mm256_max_pd, _mm256_min_pd,
        _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// The AVX2 backend: one `__m256d` per accumulator, one vector
    /// instruction per lane operation. No FMA anywhere — `mul` and `add`
    /// stay separate so every lane matches the scalar backend bitwise.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2Lanes(__m256d);

    impl Lanes for Avx2Lanes {
        #[inline(always)]
        fn splat(v: f64) -> Self {
            // SAFETY: see the module safety argument.
            Avx2Lanes(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        fn load(s: &[f64], i: usize) -> Self {
            let w = &s[i..i + 4];
            // SAFETY: `w` holds exactly 4 elements; loadu is unaligned.
            Avx2Lanes(unsafe { _mm256_loadu_pd(w.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, s: &mut [f64], i: usize) {
            let w = &mut s[i..i + 4];
            // SAFETY: `w` holds exactly 4 elements; storeu is unaligned.
            unsafe { _mm256_storeu_pd(w.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: see the module safety argument.
            Avx2Lanes(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: see the module safety argument.
            Avx2Lanes(unsafe { _mm256_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: see the module safety argument.
            Avx2Lanes(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn min(self, o: Self) -> Self {
            // SAFETY: see the module safety argument. `minpd` is the
            // canonical `a < b ? a : b`.
            Avx2Lanes(unsafe { _mm256_min_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: see the module safety argument. `maxpd` is the
            // canonical `a > b ? a : b`.
            Avx2Lanes(unsafe { _mm256_max_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: see the module safety argument.
            let sign = unsafe { _mm256_set1_pd(-0.0) };
            // SAFETY: see the module safety argument. andnot with -0.0
            // clears the sign bit, exactly like `f64::abs`.
            Avx2Lanes(unsafe { _mm256_andnot_pd(sign, self.0) })
        }

        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            // SAFETY: `out` holds exactly 4 elements; storeu is unaligned.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Generic kernel bodies (written once, monomorphized per backend)
// ---------------------------------------------------------------------------

#[inline(always)]
fn dist2_body<L: Lanes>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let blocks = n - n % 4;
    let mut acc = L::splat(0.0);
    let mut j = 0;
    while j < blocks {
        let d = L::load(a, j).sub(L::load(b, j));
        acc = acc.add(d.mul(d));
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        let d = a[j] - b[j];
        tail += d * d;
        j += 1;
    }
    acc.hsum(tail)
}

#[inline(always)]
fn dot_body<L: Lanes>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let blocks = n - n % 4;
    let mut acc = L::splat(0.0);
    let mut j = 0;
    while j < blocks {
        acc = acc.add(L::load(a, j).mul(L::load(b, j)));
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        tail += a[j] * b[j];
        j += 1;
    }
    acc.hsum(tail)
}

#[inline(always)]
fn norm2_body<L: Lanes>(a: &[f64]) -> f64 {
    let n = a.len();
    let blocks = n - n % 4;
    let mut acc = L::splat(0.0);
    let mut j = 0;
    while j < blocks {
        let x = L::load(a, j);
        acc = acc.add(x.mul(x));
        j += 4;
    }
    let mut tail = 0.0;
    while j < n {
        tail += a[j] * a[j];
        j += 1;
    }
    acc.hsum(tail)
}

#[inline(always)]
fn rect_dist_body<const AGG: bool, L: Lanes>(
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
) -> (f64, f64, f64) {
    let d = q.len();
    let blocks = d - d % 4;
    let zero = L::splat(0.0);
    let (mut mn, mut mx, mut qa) = (zero, zero, zero);
    let mut j = 0;
    while j < blocks {
        let x = L::load(q, j);
        let l = L::load(lo, j);
        let h = L::load(hi, j);
        // rect_min_term as a branch-free max chain: identical value for
        // every finite input (signed-zero ties square away).
        let gap = l.sub(x).max(x.sub(h)).max(zero);
        mn = mn.add(gap.mul(gap));
        let far = x.sub(l).abs().max(h.sub(x).abs());
        mx = mx.add(far.mul(far));
        if AGG {
            qa = qa.add(x.mul(L::load(a, j)));
        }
        j += 4;
    }
    let (mut mn_t, mut mx_t, mut qa_t) = (0.0, 0.0, 0.0);
    while j < d {
        let (x, l, h) = (q[j], lo[j], hi[j]);
        mn_t += rect_min_term(x, l, h);
        mx_t += rect_max_term(x, l, h);
        if AGG {
            qa_t += x * a[j];
        }
        j += 1;
    }
    (
        mn.hsum(mn_t),
        mx.hsum(mx_t),
        if AGG { qa.hsum(qa_t) } else { 0.0 },
    )
}

#[inline(always)]
fn rect_ip_body<const AGG: bool, L: Lanes>(
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
) -> (f64, f64, f64) {
    let d = q.len();
    let blocks = d - d % 4;
    let zero = L::splat(0.0);
    let (mut mn, mut mx, mut qa) = (zero, zero, zero);
    let mut j = 0;
    while j < blocks {
        let x = L::load(q, j);
        let pl = x.mul(L::load(lo, j));
        let ph = x.mul(L::load(hi, j));
        mn = mn.add(pl.min(ph));
        mx = mx.add(pl.max(ph));
        if AGG {
            qa = qa.add(x.mul(L::load(a, j)));
        }
        j += 4;
    }
    let (mut mn_t, mut mx_t, mut qa_t) = (0.0, 0.0, 0.0);
    while j < d {
        let (x, l, h) = (q[j], lo[j], hi[j]);
        mn_t += rect_ip_min_term(x, l, h);
        mx_t += rect_ip_max_term(x, l, h);
        if AGG {
            qa_t += x * a[j];
        }
        j += 1;
    }
    (
        mn.hsum(mn_t),
        mx.hsum(mx_t),
        if AGG { qa.hsum(qa_t) } else { 0.0 },
    )
}

#[inline(always)]
fn ball_dist_body<const AGG: bool, L: Lanes>(
    q: &[f64],
    center: &[f64],
    a: &[f64],
) -> (f64, f64) {
    let d = q.len();
    let blocks = d - d % 4;
    let zero = L::splat(0.0);
    let (mut ds, mut qa) = (zero, zero);
    let mut j = 0;
    while j < blocks {
        let x = L::load(q, j);
        let dd = x.sub(L::load(center, j));
        ds = ds.add(dd.mul(dd));
        if AGG {
            qa = qa.add(x.mul(L::load(a, j)));
        }
        j += 4;
    }
    let (mut ds_t, mut qa_t) = (0.0, 0.0);
    while j < d {
        let x = q[j];
        let dd = x - center[j];
        ds_t += dd * dd;
        if AGG {
            qa_t += x * a[j];
        }
        j += 1;
    }
    (ds.hsum(ds_t), if AGG { qa.hsum(qa_t) } else { 0.0 })
}

#[inline(always)]
fn ball_ip_body<const AGG: bool, L: Lanes>(q: &[f64], center: &[f64], a: &[f64]) -> (f64, f64) {
    let d = q.len();
    let blocks = d - d % 4;
    let zero = L::splat(0.0);
    let (mut qc, mut qa) = (zero, zero);
    let mut j = 0;
    while j < blocks {
        let x = L::load(q, j);
        qc = qc.add(x.mul(L::load(center, j)));
        if AGG {
            qa = qa.add(x.mul(L::load(a, j)));
        }
        j += 4;
    }
    let (mut qc_t, mut qa_t) = (0.0, 0.0);
    while j < d {
        let x = q[j];
        qc_t += x * center[j];
        if AGG {
            qa_t += x * a[j];
        }
        j += 1;
    }
    (qc.hsum(qc_t), if AGG { qa.hsum(qa_t) } else { 0.0 })
}

#[inline(always)]
fn axpy_body<L: Lanes>(acc: &mut [f64], w: f64, p: &[f64]) {
    let n = acc.len().min(p.len());
    let blocks = n - n % 4;
    let wv = L::splat(w);
    let mut j = 0;
    while j < blocks {
        L::load(acc, j).add(wv.mul(L::load(p, j))).store(acc, j);
        j += 4;
    }
    while j < n {
        acc[j] += w * p[j];
        j += 1;
    }
}

#[inline(always)]
fn min_max_body<L: Lanes>(lo: &mut [f64], hi: &mut [f64], p: &[f64]) {
    let n = lo.len().min(hi.len()).min(p.len());
    let blocks = n - n % 4;
    let mut j = 0;
    while j < blocks {
        let pv = L::load(p, j);
        L::load(lo, j).min(pv).store(lo, j);
        L::load(hi, j).max(pv).store(hi, j);
        j += 4;
    }
    while j < n {
        lo[j] = fmin(lo[j], p[j]);
        hi[j] = fmax(hi[j], p[j]);
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// AVX2 wrapper functions
// ---------------------------------------------------------------------------
//
// Each wrapper monomorphizes the generic body for `Avx2Lanes` under
// `#[target_feature(enable = "avx2")]`, so the whole body (including the
// scalar tail, which compiles to VEX scalar ops with identical IEEE
// semantics) is generated as AVX2 code. Calling one is unsafe-by-feature:
// the `_with` dispatchers below only do so behind an avx2 backend witness.

#[cfg(target_arch = "x86_64")]
mod avx2_entry {
    use super::x86::Avx2Lanes;
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn dist2(a: &[f64], b: &[f64]) -> f64 {
        dist2_body::<Avx2Lanes>(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        dot_body::<Avx2Lanes>(a, b)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn norm2(a: &[f64]) -> f64 {
        norm2_body::<Avx2Lanes>(a)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn rect_dist<const AGG: bool>(
        q: &[f64],
        lo: &[f64],
        hi: &[f64],
        a: &[f64],
    ) -> (f64, f64, f64) {
        rect_dist_body::<AGG, Avx2Lanes>(q, lo, hi, a)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn rect_ip<const AGG: bool>(
        q: &[f64],
        lo: &[f64],
        hi: &[f64],
        a: &[f64],
    ) -> (f64, f64, f64) {
        rect_ip_body::<AGG, Avx2Lanes>(q, lo, hi, a)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn ball_dist<const AGG: bool>(q: &[f64], center: &[f64], a: &[f64]) -> (f64, f64) {
        ball_dist_body::<AGG, Avx2Lanes>(q, center, a)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn ball_ip<const AGG: bool>(q: &[f64], center: &[f64], a: &[f64]) -> (f64, f64) {
        ball_ip_body::<AGG, Avx2Lanes>(q, center, a)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(acc: &mut [f64], w: f64, p: &[f64]) {
        axpy_body::<Avx2Lanes>(acc, w, p)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn min_max(lo: &mut [f64], hi: &mut [f64], p: &[f64]) {
        min_max_body::<Avx2Lanes>(lo, hi, p)
    }
}

// ---------------------------------------------------------------------------
// Safe, validated, explicit-backend entry points
// ---------------------------------------------------------------------------
//
// These are the module's public surface. The dispatched convenience
// wrappers live where they always did (`crate::dist`, `crate::fused`,
// `Rect`, …) and delegate here after resolving `backend()` once per call
// or once per frontier/build loop.

/// Squared Euclidean distance on the chosen backend. Reduces over
/// `min(a.len(), b.len())` coordinates (the historical `zip` semantics;
/// equal lengths are debug-asserted).
#[inline]
pub fn dist2_with(be: SimdBackend, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::dist2(a, b) },
        _ => dist2_body::<ScalarLanes>(a, b),
    }
}

/// Inner product on the chosen backend (same length semantics as
/// [`dist2_with`]).
#[inline]
pub fn dot_with(be: SimdBackend, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::dot(a, b) },
        _ => dot_body::<ScalarLanes>(a, b),
    }
}

/// Squared Euclidean norm on the chosen backend.
#[inline]
pub fn norm2_with(be: SimdBackend, a: &[f64]) -> f64 {
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::norm2(a) },
        _ => norm2_body::<ScalarLanes>(a),
    }
}

#[inline(always)]
fn check_probe(d: usize, lo: usize, hi: usize, agg: bool, a: usize) {
    assert!(
        lo >= d && hi >= d && (!agg || a >= d),
        "probe buffers shorter than the query dimensionality"
    );
}

/// Fused rectangle distance probe on the chosen backend; see
/// [`crate::fused::rect_dist`].
#[inline]
pub fn rect_dist_with<const AGG: bool>(
    be: SimdBackend,
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
) -> (f64, f64, f64) {
    check_probe(q.len(), lo.len(), hi.len(), AGG, a.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::rect_dist::<AGG>(q, lo, hi, a) },
        _ => rect_dist_body::<AGG, ScalarLanes>(q, lo, hi, a),
    }
}

/// Fused rectangle inner-product probe on the chosen backend; see
/// [`crate::fused::rect_ip`].
#[inline]
pub fn rect_ip_with<const AGG: bool>(
    be: SimdBackend,
    q: &[f64],
    lo: &[f64],
    hi: &[f64],
    a: &[f64],
) -> (f64, f64, f64) {
    check_probe(q.len(), lo.len(), hi.len(), AGG, a.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::rect_ip::<AGG>(q, lo, hi, a) },
        _ => rect_ip_body::<AGG, ScalarLanes>(q, lo, hi, a),
    }
}

/// Fused ball distance probe on the chosen backend; see
/// [`crate::fused::ball_dist`].
#[inline]
pub fn ball_dist_with<const AGG: bool>(
    be: SimdBackend,
    q: &[f64],
    center: &[f64],
    a: &[f64],
) -> (f64, f64) {
    check_probe(q.len(), center.len(), center.len(), AGG, a.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::ball_dist::<AGG>(q, center, a) },
        _ => ball_dist_body::<AGG, ScalarLanes>(q, center, a),
    }
}

/// Fused ball inner-product probe on the chosen backend; see
/// [`crate::fused::ball_ip`].
#[inline]
pub fn ball_ip_with<const AGG: bool>(
    be: SimdBackend,
    q: &[f64],
    center: &[f64],
    a: &[f64],
) -> (f64, f64) {
    check_probe(q.len(), center.len(), center.len(), AGG, a.len());
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::ball_ip::<AGG>(q, center, a) },
        _ => ball_ip_body::<AGG, ScalarLanes>(q, center, a),
    }
}

/// Weighted accumulation `acc[j] += w · p[j]` over
/// `min(acc.len(), p.len())` coordinates on the chosen backend — the
/// build-time kernel behind the node aggregates `a = Σ wᵢ·pᵢ`.
/// Elementwise, so trivially bitwise identical across backends.
#[inline]
pub fn axpy_with(be: SimdBackend, acc: &mut [f64], w: f64, p: &[f64]) {
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::axpy(acc, w, p) },
        _ => axpy_body::<ScalarLanes>(acc, w, p),
    }
}

/// Elementwise running min/max update `lo[j] = min(lo[j], p[j])`,
/// `hi[j] = max(hi[j], p[j])` (canonical min/max semantics) on the chosen
/// backend — the build-time kernel behind the bounding-rectangle sweep.
#[inline]
pub fn min_max_update_with(be: SimdBackend, lo: &mut [f64], hi: &mut [f64], p: &[f64]) {
    match be.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an avx2 backend witness implies the feature is detected.
        KIND_AVX2 => unsafe { avx2_entry::min_max(lo, hi, p) },
        _ => min_max_body::<ScalarLanes>(lo, hi, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic quasi-random vectors (mixed signs, every tail
    /// length around the 4-wide blocking).
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
    fn choice_parsing_and_resolution() {
        assert_eq!(SimdChoice::parse("auto"), Some(SimdChoice::Auto));
        assert_eq!(SimdChoice::parse("AVX2"), Some(SimdChoice::Avx2));
        assert_eq!(SimdChoice::parse("Scalar"), Some(SimdChoice::Scalar));
        assert_eq!(SimdChoice::parse("sse2"), None);
        assert_eq!(SimdChoice::parse(""), None);
        assert_eq!(SimdChoice::Scalar.resolve(), SimdBackend::scalar());
        assert_eq!(SimdChoice::Auto.resolve(), SimdBackend::detect());
        // Requesting avx2 resolves to avx2 where detected, scalar elsewhere.
        let forced = SimdChoice::Avx2.resolve();
        match SimdBackend::avx2() {
            Some(v) => assert_eq!(forced, v),
            None => assert_eq!(forced, SimdBackend::scalar()),
        }
        assert_eq!(SimdBackend::scalar().name(), "scalar");
        assert!(!SimdBackend::scalar().is_vector());
        if let Some(v) = SimdBackend::avx2() {
            assert_eq!(v.name(), "avx2");
            assert!(v.is_vector());
        }
    }

    #[test]
    fn set_backend_overrides_and_reports() {
        // Backends are bitwise interchangeable, so flipping the global in a
        // concurrently-running test process is benign; restore auto anyway.
        let forced = set_backend(SimdChoice::Scalar);
        assert_eq!(forced, SimdBackend::scalar());
        assert_eq!(backend(), SimdBackend::scalar());
        let auto = set_backend(SimdChoice::Auto);
        assert_eq!(auto, SimdBackend::detect());
        assert_eq!(backend_name(), SimdBackend::detect().name());
    }

    /// The historical blocked reference (chunks_exact(4) + remainder),
    /// pinned so the scalar backend can never drift from the canonical
    /// summation order.
    fn dist2_reference(a: &[f64], b: &[f64]) -> f64 {
        let ca = a.chunks_exact(4);
        let cb = b.chunks_exact(4);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        let mut acc = [0.0f64; 4];
        for (xa, xb) in ca.zip(cb) {
            for k in 0..4 {
                let d = xa[k] - xb[k];
                acc[k] += d * d;
            }
        }
        let mut tail = 0.0;
        for (x, y) in ra.iter().zip(rb) {
            let d = x - y;
            tail += d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    #[test]
    fn scalar_backend_matches_canonical_reference() {
        let be = SimdBackend::scalar();
        for n in 0..16usize {
            let (q, c, _, _) = vectors(n);
            assert_eq!(
                dist2_with(be, &q, &c).to_bits(),
                dist2_reference(&q, &c).to_bits(),
                "dist2 at n={n}"
            );
        }
    }

    /// Every primitive must be bitwise identical across backends, at every
    /// tail length, with and without the aggregate accumulators. On hosts
    /// without AVX2 the comparison is scalar-vs-scalar and trivially holds.
    #[test]
    fn backends_are_bitwise_identical_on_every_primitive() {
        let s = SimdBackend::scalar();
        let v = SimdBackend::detect();
        for n in 0..16usize {
            let (q, lo, hi, a) = vectors(n);
            assert_eq!(
                dist2_with(s, &q, &lo).to_bits(),
                dist2_with(v, &q, &lo).to_bits(),
                "dist2 n={n}"
            );
            assert_eq!(
                dot_with(s, &q, &a).to_bits(),
                dot_with(v, &q, &a).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                norm2_with(s, &q).to_bits(),
                norm2_with(v, &q).to_bits(),
                "norm2 n={n}"
            );
            assert_eq!(
                rect_dist_with::<true>(s, &q, &lo, &hi, &a),
                rect_dist_with::<true>(v, &q, &lo, &hi, &a),
                "rect_dist n={n}"
            );
            assert_eq!(
                rect_dist_with::<false>(s, &q, &lo, &hi, &[]),
                rect_dist_with::<false>(v, &q, &lo, &hi, &[]),
                "rect_dist noagg n={n}"
            );
            assert_eq!(
                rect_ip_with::<true>(s, &q, &lo, &hi, &a),
                rect_ip_with::<true>(v, &q, &lo, &hi, &a),
                "rect_ip n={n}"
            );
            assert_eq!(
                ball_dist_with::<true>(s, &q, &lo, &a),
                ball_dist_with::<true>(v, &q, &lo, &a),
                "ball_dist n={n}"
            );
            assert_eq!(
                ball_ip_with::<true>(s, &q, &lo, &a),
                ball_ip_with::<true>(v, &q, &lo, &a),
                "ball_ip n={n}"
            );

            let mut acc_s = lo.clone();
            let mut acc_v = lo.clone();
            axpy_with(s, &mut acc_s, -0.75, &a);
            axpy_with(v, &mut acc_v, -0.75, &a);
            assert_eq!(acc_s, acc_v, "axpy n={n}");

            let (mut lo_s, mut hi_s) = (lo.clone(), hi.clone());
            let (mut lo_v, mut hi_v) = (lo.clone(), hi.clone());
            min_max_update_with(s, &mut lo_s, &mut hi_s, &q);
            min_max_update_with(v, &mut lo_v, &mut hi_v, &q);
            assert_eq!((lo_s, hi_s), (lo_v, hi_v), "min_max_update n={n}");
        }
    }

    #[test]
    fn axpy_and_min_max_match_plain_loops() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 11] {
            let (q, lo, hi, a) = vectors(n);
            let mut acc = lo.clone();
            axpy_with(SimdBackend::detect(), &mut acc, 1.25, &a);
            for j in 0..n {
                assert_eq!(acc[j].to_bits(), (lo[j] + 1.25 * a[j]).to_bits());
            }
            let (mut l, mut h) = (lo.clone(), hi.clone());
            min_max_update_with(SimdBackend::detect(), &mut l, &mut h, &q);
            for j in 0..n {
                assert_eq!(l[j], lo[j].min(q[j]), "lo at {j}");
                assert_eq!(h[j], hi[j].max(q[j]), "hi at {j}");
            }
        }
    }

    #[test]
    fn probe_entry_points_validate_lengths() {
        let r = std::panic::catch_unwind(|| {
            rect_dist_with::<false>(SimdBackend::scalar(), &[0.0; 5], &[0.0; 4], &[0.0; 5], &[])
        });
        assert!(r.is_err(), "short corner buffer must panic");
        let r = std::panic::catch_unwind(|| {
            rect_dist_with::<true>(
                SimdBackend::scalar(),
                &[0.0; 4],
                &[0.0; 4],
                &[0.0; 4],
                &[0.0; 3],
            )
        });
        assert!(r.is_err(), "short aggregate buffer must panic");
    }

    #[test]
    fn empty_inputs_are_zero_on_both_backends() {
        for be in [SimdBackend::scalar(), SimdBackend::detect()] {
            assert_eq!(dist2_with(be, &[], &[]), 0.0);
            assert_eq!(dot_with(be, &[], &[]), 0.0);
            assert_eq!(norm2_with(be, &[]), 0.0);
            assert_eq!(rect_dist_with::<true>(be, &[], &[], &[], &[]), (0.0, 0.0, 0.0));
            assert_eq!(ball_ip_with::<false>(be, &[], &[], &[]), (0.0, 0.0));
        }
    }
}
