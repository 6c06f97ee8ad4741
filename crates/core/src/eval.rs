//! The branch-and-bound kernel aggregation evaluator.
//!
//! This is the query-processing framework of Section II-B (Table V): global
//! lower/upper bounds on `F_P(q)` are assembled from per-node bounds, the
//! node with the largest bound gap is refined first (priority queue), and
//! the loop stops as soon as the bounds decide the query:
//!
//! * **TKAQ** `F_P(q) ≥ τ?` — stop when `lb ≥ τ` (yes) or `ub < τ` (no);
//! * **eKAQ** — stop when `ub ≤ (1+ε)·lb`, return `lb` (which then has
//!   relative error ≤ ε on both sides);
//! * **Within** (extension) — stop when `ub − lb ≤ tol`, return the
//!   midpoint; valid for signed aggregates.
//!
//! Mixed-sign weights (Type III, 2-class SVM) are handled by the P⁺/P⁻
//! split of Section IV-A2: two trees are built over the positive- and
//! negative-weight points (the latter with `|wᵢ|`), and a negated entry's
//! contribution to the global bounds is `[−ub, −lb]`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use karl_geom::{norm2, PointSet};
use karl_tree::{FrozenTree, LeafData, NodeId, NodeShape, SideImage, Tree};

use crate::bounds::{
    assemble_interval, node_intervals_frozen, BoundMethod, BoundPair, NodeInterval, QueryContext,
};
use crate::error::{self, KarlError};
use crate::kernel::Kernel;

/// One recorded refinement step, for the convergence traces of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// Refinement iteration (0 = bounds of the root(s) only).
    pub iteration: usize,
    /// Global lower bound after the step.
    pub lb: f64,
    /// Global upper bound after the step.
    pub ub: f64,
}

/// A kernel aggregation query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// Threshold query: is `F_P(q) ≥ τ`?
    Tkaq {
        /// The threshold `τ`.
        tau: f64,
    },
    /// Approximate query: return `F̂` with relative error ≤ ε.
    Ekaq {
        /// The relative error budget `ε > 0`.
        eps: f64,
    },
    /// Absolute-gap query: refine until `ub − lb ≤ tol` and return the
    /// interval midpoint. Unlike [`Query::Ekaq`] this termination works for
    /// aggregates of any sign, which is what the kernel-regression
    /// extension needs for its (possibly negative) numerator `Σ yᵢK(q,pᵢ)`.
    Within {
        /// The absolute gap budget `tol > 0`.
        tol: f64,
    },
}

impl Query {
    /// Checks the query's parameter: `τ` must not be NaN, `ε` and `tol`
    /// must be finite and positive. Typed [`KarlError::InvalidTau`] /
    /// [`KarlError::InvalidEps`] / [`KarlError::InvalidTol`] otherwise.
    pub fn validate(self) -> Result<(), KarlError> {
        match self {
            Query::Tkaq { tau } if tau.is_nan() => Err(KarlError::InvalidTau { value: tau }),
            Query::Ekaq { eps } if !(eps.is_finite() && eps > 0.0) => {
                Err(KarlError::InvalidEps { value: eps })
            }
            Query::Within { tol } if !(tol.is_finite() && tol > 0.0) => {
                Err(KarlError::InvalidTol { value: tol })
            }
            _ => Ok(()),
        }
    }
}

/// Outcome of one evaluator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Final global lower bound.
    pub lb: f64,
    /// Final global upper bound.
    pub ub: f64,
    /// Number of refinement iterations executed.
    pub iterations: usize,
}

/// How often the amortized wall-clock deadline is consulted: every this
/// many refinement iterations. `Instant::now()` is a vDSO call, but even
/// so one syscall-ish probe per node refinement would dominate cheap
/// queries; one probe per 64 refinements bounds overshoot to a few
/// microseconds of refinement work while keeping the deadline honest.
const DEADLINE_STRIDE: usize = 64;

/// A work/time budget for the refinement loop.
///
/// The branch-and-bound loop maintains a certified `[lb, ub]` at every
/// iteration, so it can stop *anywhere* and still return a sound interval.
/// A `Budget` caps the loop by refined-node count, by leaf points scanned,
/// and/or by an amortized wall-clock deadline (checked every
/// [`DEADLINE_STRIDE`] refinements; `Instant::now` is only ever called
/// when a deadline is set). Exhaustion yields
/// [`Outcome::Truncated`] carrying the interval at stop time; whenever the
/// budget is *not* hit, [`Evaluator::run_budgeted`] returns bitwise the
/// outcome of [`Evaluator::run_query`].
///
/// Truncation granularity: the budget is consulted at the top of the loop,
/// so the final refinement before the stop completes in full (one node, or
/// one leaf scan) — a run may slightly overshoot `max_leaf_points` by up
/// to one leaf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    max_nodes: Option<u64>,
    max_leaf_points: Option<u64>,
    deadline: Option<Duration>,
}

impl Budget {
    /// The no-op budget: never truncates.
    pub const UNLIMITED: Budget = Budget {
        max_nodes: None,
        max_leaf_points: None,
        deadline: None,
    };

    /// A budget with no caps (same as [`Budget::UNLIMITED`]).
    pub fn unlimited() -> Self {
        Self::UNLIMITED
    }

    /// Caps the number of refined nodes (heap pops).
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps the number of leaf points scanned exactly.
    pub fn max_leaf_points(mut self, n: u64) -> Self {
        self.max_leaf_points = Some(n);
        self
    }

    /// Sets an amortized wall-clock deadline for the refinement loop.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Sets the deadline to whatever is left of `total` after `spent` has
    /// already elapsed — e.g. time a request waited in a serving admission
    /// queue before dispatch. Saturates at zero: once `spent >= total` the
    /// deadline is `Duration::ZERO`, which trips on the very first budget
    /// probe (iteration 0 is always a probe), so the run performs **zero
    /// refinement work** and answers from the root interval. It never
    /// underflows and never spends a frontier pass it no longer has time
    /// for.
    pub fn deadline_after(self, total: Duration, spent: Duration) -> Self {
        self.deadline(total.saturating_sub(spent))
    }

    /// Whether no cap is set (the hot loop skips all checks).
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none() && self.max_leaf_points.is_none() && self.deadline.is_none()
    }

    /// Consults the caps; called at the top of the refinement loop, after
    /// the termination test and before the next heap pop.
    #[inline]
    fn check(
        &self,
        iterations: usize,
        leaf_points: u64,
        deadline_start: &mut Option<Instant>,
    ) -> Option<TruncateReason> {
        if let Some(max) = self.max_nodes {
            if iterations as u64 >= max {
                return Some(TruncateReason::NodeBudget);
            }
        }
        if let Some(max) = self.max_leaf_points {
            if leaf_points >= max {
                return Some(TruncateReason::LeafBudget);
            }
        }
        if let Some(limit) = self.deadline {
            if iterations.is_multiple_of(DEADLINE_STRIDE) {
                let start = *deadline_start.get_or_insert_with(Instant::now);
                if start.elapsed() >= limit {
                    return Some(TruncateReason::Deadline);
                }
            }
        }
        None
    }
}

/// Which budget cap stopped a truncated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateReason {
    /// `max_nodes` refined nodes were spent.
    NodeBudget,
    /// `max_leaf_points` leaf points were scanned.
    LeafBudget,
    /// The wall-clock deadline elapsed.
    Deadline,
}

impl std::fmt::Display for TruncateReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncateReason::NodeBudget => write!(f, "node budget exhausted"),
            TruncateReason::LeafBudget => write!(f, "leaf-point budget exhausted"),
            TruncateReason::Deadline => write!(f, "deadline elapsed"),
        }
    }
}

/// Result of a budgeted run: either the query ran to its normal
/// termination, or the budget stopped it with a still-certified interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The query terminated normally; bitwise identical to the unbudgeted
    /// [`RunOutcome`].
    Complete(RunOutcome),
    /// The budget ran out first. `[lb, ub]` is the certified interval at
    /// stop time — it encloses the exact aggregate, it is just wider than
    /// the query asked for.
    Truncated {
        /// Certified global lower bound at stop time.
        lb: f64,
        /// Certified global upper bound at stop time.
        ub: f64,
        /// Which cap fired.
        reason: TruncateReason,
    },
}

impl Outcome {
    /// Certified lower bound (either variant).
    pub fn lb(&self) -> f64 {
        match *self {
            Outcome::Complete(out) => out.lb,
            Outcome::Truncated { lb, .. } => lb,
        }
    }

    /// Certified upper bound (either variant).
    pub fn ub(&self) -> f64 {
        match *self {
            Outcome::Complete(out) => out.ub,
            Outcome::Truncated { ub, .. } => ub,
        }
    }

    /// Whether the budget stopped the run.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated { .. })
    }

    /// The truncation reason, if any.
    pub fn reason(&self) -> Option<TruncateReason> {
        match *self {
            Outcome::Complete(_) => None,
            Outcome::Truncated { reason, .. } => Some(reason),
        }
    }
}

/// Answer of a budgeted threshold query: decided, or the certified
/// interval straddling `τ` when the budget ran out first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TkaqDecision {
    /// The bounds decided the threshold before the budget ran out.
    Decided(bool),
    /// Budget exhausted with `lb < τ ≤ ub`: honest "don't know yet",
    /// carrying the certified interval so the caller can resume or decide
    /// by policy.
    Undecided {
        /// Certified lower bound at stop time.
        lb: f64,
        /// Certified upper bound at stop time.
        ub: f64,
    },
}

/// Answer of a budgeted approximate query: the estimate plus the relative
/// error it actually *achieved* (not the one requested).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimate: the converged eKAQ answer when complete, the interval
    /// midpoint when truncated.
    pub value: f64,
    /// Certified lower bound backing the estimate.
    pub lb: f64,
    /// Certified upper bound backing the estimate.
    pub ub: f64,
    /// Tight worst-case relative error of `value` over the certified
    /// interval (`max(|value−F|/F)` for `F ∈ [lb, ub]`); infinite when
    /// `lb ≤ 0`, where relative-error guarantees are meaningless — use
    /// `(ub − lb) / 2` as the absolute half-width instead.
    pub achieved_eps: f64,
    /// `Some(reason)` when the budget stopped refinement early.
    pub truncated: Option<TruncateReason>,
}

/// Worst-case relative error of `value` over `F ∈ [lb, ub]`: `|value−F|/F`
/// is monotone on either side of `value`, so the maximum sits at an
/// endpoint.
fn achieved_rel_err(value: f64, lb: f64, ub: f64) -> f64 {
    if lb > 0.0 {
        let at_lb = (value - lb).abs() / lb;
        let at_ub = (value - ub).abs() / ub;
        at_lb.max(at_ub)
    } else {
        f64::INFINITY
    }
}

#[derive(Debug)]
struct Entry {
    gap: f64,
    node: NodeId,
    negated: bool,
    lb: f64,
    ub: f64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.gap == other.gap && self.node == other.node && self.negated == other.negated
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Ties on `gap` are broken on (node, negated) so the refinement
        // order — and therefore every trace and iteration count — is a
        // pure function of the inputs. Equal-gap entries pop smallest node
        // id first, positive tree before negated.
        self.gap
            .total_cmp(&other.gap)
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.negated.cmp(&self.negated))
    }
}

/// Run counters accumulated per [`Scratch`] (behind the `stats` feature):
/// how much refinement and envelope work the queries routed through that
/// scratch performed.
#[cfg(feature = "stats")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Heap pops (refinement iterations) across all runs.
    pub nodes_refined: u64,
    /// Envelopes constructed.
    pub envelopes_built: u64,
    /// `Curve::value` evaluations — the transcendental workhorse count.
    pub curve_value_calls: u64,
    /// Active SIMD backend name (`"avx2"` / `"scalar"`) the run's kernels
    /// dispatched to; `""` until a run stamps it. Purely informational —
    /// backends are bitwise identical — but it records which ISA produced
    /// the numbers next to them.
    pub simd_backend: &'static str,
}

#[cfg(feature = "stats")]
impl RunStats {
    /// Field-wise accumulation (used to sum per-worker stats in batch mode).
    pub fn merge(&mut self, other: &RunStats) {
        self.nodes_refined += other.nodes_refined;
        self.envelopes_built += other.envelopes_built;
        self.curve_value_calls += other.curve_value_calls;
        if self.simd_backend.is_empty() {
            self.simd_backend = other.simd_backend;
        }
    }
}

/// Reusable per-query workspace for [`Evaluator::run_with_scratch`] and
/// [`Evaluator::run_budgeted`]: the priority-queue storage (which doubles
/// as the entry pool — `BinaryHeap` keeps its backing buffer across
/// [`clear`](BinaryHeap::clear)), the trace buffer, and the
/// frontier/interval buffers of the two-pass bound kernel. After the first few queries have grown the buffers to the
/// workload's high-water mark, evaluation performs no heap allocation.
///
/// One `Scratch` per worker thread is the intended usage; see
/// [`crate::batch`].
#[derive(Debug, Default)]
pub struct Scratch {
    heap: BinaryHeap<Entry>,
    trace: Vec<TraceStep>,
    /// Node ids gathered by pass 1 of the frontier bound kernel.
    frontier: Vec<NodeId>,
    /// Interval records pass 1 emits and pass 2 consumes.
    intervals: Vec<NodeInterval>,
    #[cfg(feature = "stats")]
    stats: RunStats,
}

impl Scratch {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bound trajectory recorded by the last traced run (empty for
    /// untraced runs).
    pub fn trace(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Clears every buffer and shrinks any that grew beyond `cap` elements
    /// back down to it. Long batch runs call this between chunks so one
    /// adversarial query cannot ratchet a worker's memory for the rest of
    /// the batch; buffers at or under the cap keep their allocations.
    pub fn reset_with_capacity_cap(&mut self, cap: usize) {
        self.heap.clear();
        self.heap.shrink_to(cap);
        self.trace.clear();
        self.trace.shrink_to(cap);
        self.frontier.clear();
        self.frontier.shrink_to(cap);
        self.intervals.clear();
        self.intervals.shrink_to(cap);
    }

    /// The accumulated run counters, stamped with the active SIMD backend
    /// (behind the `stats` feature).
    #[cfg(feature = "stats")]
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        s.simd_backend = karl_geom::backend_name();
        s
    }
}

/// The KARL/SOTA query evaluator over one index family.
///
/// Generic over the node volume `S` ([`karl_geom::Rect`] for the kd-tree,
/// [`karl_geom::Ball`] for the ball-tree); use the [`KdEvaluator`] /
/// [`BallEvaluator`] aliases or the runtime-dispatched
/// [`AnyEvaluator`](crate::tuning::AnyEvaluator).
#[derive(Debug, Clone)]
pub struct Evaluator<S: NodeShape> {
    pos: Option<SideData<S>>,
    neg: Option<SideData<S>>,
    /// SoA compilations of `pos`/`neg`, frozen at construction (or loaded
    /// straight from an index file). Always `Some` exactly where the side
    /// is `Some`.
    pos_frozen: Option<FrozenTree>,
    neg_frozen: Option<FrozenTree>,
    kernel: Kernel,
    method: BoundMethod,
    dims: usize,
}

/// Per-side point data backing leaf refinement: either a built pointer
/// tree (which owns its reordered point buffers), or the bare leaf
/// buffers restored zero-copy from a persistent index.
///
/// The refinement loop reads only `points`/`weights`/`norms2` at the
/// leaves; the node arena of a [`Built`](SideData::Built) side is kept for
/// introspection ([`Evaluator::pos_tree`]).
#[derive(Debug, Clone)]
enum SideData<S: NodeShape> {
    /// A tree built in this process.
    Built(Tree<S>),
    /// Leaf buffers loaded from an index file.
    Loaded(LeafData),
}

impl<S: NodeShape> SideData<S> {
    #[inline]
    fn points(&self) -> &PointSet {
        match self {
            SideData::Built(t) => t.points(),
            SideData::Loaded(l) => l.points(),
        }
    }

    #[inline]
    fn weights(&self) -> &[f64] {
        match self {
            SideData::Built(t) => t.weights(),
            SideData::Loaded(l) => l.weights(),
        }
    }

    #[inline]
    fn norms2(&self) -> &[f64] {
        match self {
            SideData::Built(t) => t.norms2(),
            SideData::Loaded(l) => l.norms2(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            SideData::Built(t) => t.len(),
            SideData::Loaded(l) => l.len(),
        }
    }

    /// The pointer tree, when this side was built in-process.
    #[inline]
    fn tree(&self) -> Option<&Tree<S>> {
        match self {
            SideData::Built(t) => Some(t),
            SideData::Loaded(_) => None,
        }
    }
}

/// Evaluator over a kd-tree.
pub type KdEvaluator = Evaluator<karl_geom::Rect>;
/// Evaluator over a ball-tree.
pub type BallEvaluator = Evaluator<karl_geom::Ball>;

impl<S: NodeShape> Evaluator<S> {
    /// Builds an evaluator over `points` with signed `weights`.
    ///
    /// Points with positive weight go into the P⁺ tree, points with
    /// negative weight into the P⁻ tree (indexed with `|wᵢ|`), zero-weight
    /// points are dropped. `leaf_capacity` is the index granularity knob
    /// the automatic tuner sweeps.
    ///
    /// # Panics
    /// Panics if `points` is empty, lengths mismatch, every weight is zero,
    /// or any coordinate/weight is non-finite (see
    /// [`try_build`](Self::try_build) for the typed variant).
    pub fn build(
        points: &PointSet,
        weights: &[f64],
        kernel: Kernel,
        method: BoundMethod,
        leaf_capacity: usize,
    ) -> Self {
        Self::try_build(points, weights, kernel, method, leaf_capacity)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`build`](Self::build): rejects empty data,
    /// length mismatches, non-finite coordinates/weights (with the
    /// offending index), all-zero weights, and a zero leaf capacity with a
    /// typed [`KarlError`] instead of panicking.
    pub fn try_build(
        points: &PointSet,
        weights: &[f64],
        kernel: Kernel,
        method: BoundMethod,
        leaf_capacity: usize,
    ) -> Result<Self, KarlError> {
        if leaf_capacity == 0 {
            return Err(KarlError::InvalidLeafCapacity);
        }
        error::validate_data(points, weights)?;
        let mut pos_idx = Vec::new();
        let mut neg_idx = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                pos_idx.push(i);
            } else if w < 0.0 {
                neg_idx.push(i);
            }
        }
        let build_side = |idx: &[usize], flip: bool| -> Result<Option<Tree<S>>, KarlError> {
            if idx.is_empty() {
                return Ok(None);
            }
            let pts = points.select(idx);
            let ws: Vec<f64> = idx
                .iter()
                .map(|&i| if flip { -weights[i] } else { weights[i] })
                .collect();
            Ok(Some(Tree::try_build(pts, &ws, leaf_capacity)?))
        };
        let pos = build_side(&pos_idx, false)?;
        let neg = build_side(&neg_idx, true)?;
        Ok(Self {
            pos_frozen: pos.as_ref().map(Tree::freeze),
            neg_frozen: neg.as_ref().map(Tree::freeze),
            pos: pos.map(SideData::Built),
            neg: neg.map(SideData::Built),
            kernel,
            method,
            dims: points.dims(),
        })
    }

    /// Wraps pre-built trees (advanced; both trees must hold non-negative
    /// weights, the `neg` tree representing `|wᵢ|` of the negative side).
    ///
    /// # Panics
    /// Panics if both trees are `None` or their dimensionalities disagree.
    pub fn from_trees(
        pos: Option<Tree<S>>,
        neg: Option<Tree<S>>,
        kernel: Kernel,
        method: BoundMethod,
    ) -> Self {
        Self::try_from_trees(pos, neg, kernel, method).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating variant of [`from_trees`](Self::from_trees): typed
    /// [`KarlError::NoTree`] / [`KarlError::DimMismatch`] instead of
    /// panicking.
    pub fn try_from_trees(
        pos: Option<Tree<S>>,
        neg: Option<Tree<S>>,
        kernel: Kernel,
        method: BoundMethod,
    ) -> Result<Self, KarlError> {
        let dims = match (&pos, &neg) {
            (Some(p), Some(n)) => {
                if p.dims() != n.dims() {
                    return Err(KarlError::DimMismatch {
                        expected: p.dims(),
                        got: n.dims(),
                    });
                }
                p.dims()
            }
            (Some(p), None) => p.dims(),
            (None, Some(n)) => n.dims(),
            (None, None) => return Err(KarlError::NoTree),
        };
        Ok(Self {
            pos_frozen: pos.as_ref().map(Tree::freeze),
            neg_frozen: neg.as_ref().map(Tree::freeze),
            pos: pos.map(SideData::Built),
            neg: neg.map(SideData::Built),
            kernel,
            method,
            dims,
        })
    }

    /// Assembles an evaluator from loaded (frozen-only) sides; the
    /// zero-copy path of [`from_index_file`](Self::from_index_file).
    pub(crate) fn from_loaded(
        pos: Option<(FrozenTree, LeafData)>,
        neg: Option<(FrozenTree, LeafData)>,
        kernel: Kernel,
        method: BoundMethod,
    ) -> Result<Self, KarlError> {
        let dims = match (&pos, &neg) {
            (Some((p, _)), Some((n, _))) => {
                if p.dims() != n.dims() {
                    return Err(KarlError::DimMismatch {
                        expected: p.dims(),
                        got: n.dims(),
                    });
                }
                p.dims()
            }
            (Some((p, _)), None) => p.dims(),
            (None, Some((n, _))) => n.dims(),
            (None, None) => return Err(KarlError::NoTree),
        };
        let split = |side: Option<(FrozenTree, LeafData)>| match side {
            Some((frozen, leaf)) => (Some(frozen), Some(SideData::Loaded(leaf))),
            None => (None, None),
        };
        let (pos_frozen, pos) = split(pos);
        let (neg_frozen, neg) = split(neg);
        Ok(Self {
            pos_frozen,
            neg_frozen,
            pos,
            neg,
            kernel,
            method,
            dims,
        })
    }

    /// Borrows both sides as persistence images (used by
    /// [`write_index_file`](Self::write_index_file); works for built and
    /// loaded sides alike, so a loaded index can be re-serialized).
    pub(crate) fn side_images(&self) -> (Option<SideImage<'_>>, Option<SideImage<'_>>) {
        fn image<'a, S: NodeShape>(
            side: Option<&'a SideData<S>>,
            frozen: Option<&'a FrozenTree>,
        ) -> Option<SideImage<'a>> {
            side.zip(frozen).map(|(s, f)| match s {
                SideData::Built(t) => SideImage::from_tree(t, f),
                SideData::Loaded(l) => SideImage {
                    frozen: f,
                    points: l.points(),
                    weights: l.weights(),
                    norms2: l.norms2(),
                    perm: l.perm(),
                },
            })
        }
        (
            image(self.pos.as_ref(), self.pos_frozen.as_ref()),
            image(self.neg.as_ref(), self.neg_frozen.as_ref()),
        )
    }

    /// The kernel this evaluator aggregates with.
    #[inline]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The bound method (SOTA or KARL) in use.
    #[inline]
    pub fn method(&self) -> BoundMethod {
        self.method
    }

    /// Switches the bound method, reusing the trees (used by comparisons).
    pub fn with_method(mut self, method: BoundMethod) -> Self {
        self.method = method;
        self
    }

    /// Number of indexed points (both signs).
    pub fn len(&self) -> usize {
        self.pos.as_ref().map_or(0, SideData::len) + self.neg.as_ref().map_or(0, SideData::len)
    }

    /// Whether the evaluator indexes no points (never true once built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Depth of the deepest node across both trees.
    pub fn max_depth(&self) -> u16 {
        let side = |side: Option<&SideData<S>>, frozen: Option<&FrozenTree>| match side {
            Some(SideData::Built(t)) => t.max_depth(),
            Some(SideData::Loaded(_)) => {
                frozen.map_or(0, |f| f.max_depth().try_into().unwrap_or(u16::MAX))
            }
            None => 0,
        };
        side(self.pos.as_ref(), self.pos_frozen.as_ref())
            .max(side(self.neg.as_ref(), self.neg_frozen.as_ref()))
    }

    /// The positive-weight pointer tree, if this evaluator was built
    /// in-process (`None` on a side restored from an index file).
    pub fn pos_tree(&self) -> Option<&Tree<S>> {
        self.pos.as_ref().and_then(SideData::tree)
    }

    /// The negative-weight pointer tree (holding `|wᵢ|`), if this
    /// evaluator was built in-process.
    pub fn neg_tree(&self) -> Option<&Tree<S>> {
        self.neg.as_ref().and_then(SideData::tree)
    }

    /// The frozen SoA index of the positive-weight tree, if any.
    pub fn pos_frozen(&self) -> Option<&FrozenTree> {
        self.pos_frozen.as_ref()
    }

    /// The frozen SoA index of the negative-weight tree, if any.
    pub fn neg_frozen(&self) -> Option<&FrozenTree> {
        self.neg_frozen.as_ref()
    }

    /// Exact `F_P(q)` by scanning both trees (no pruning). Ground truth.
    pub fn exact(&self, q: &[f64]) -> f64 {
        self.check_query(q);
        let qn = norm2(q);
        let side = |side: &SideData<S>| {
            self.kernel.eval_range(
                side.points(),
                side.weights(),
                side.norms2(),
                0,
                side.len(),
                q,
                qn,
            )
        };
        self.pos.as_ref().map_or(0.0, side) - self.neg.as_ref().map_or(0.0, side)
    }

    /// Threshold query: `F_P(q) ≥ τ`?
    pub fn tkaq(&self, q: &[f64], tau: f64) -> bool {
        decide_tkaq(&self.run_query(q, Query::Tkaq { tau }, None), tau)
    }

    /// Approximate query: returns `F̂` with `(1−ε)F ≤ F̂ ≤ (1+ε)F`
    /// (for non-negative `F`; mixed-sign aggregates fall back to the exact
    /// value).
    ///
    /// # Panics
    /// Panics unless `eps > 0`.
    pub fn ekaq(&self, q: &[f64], eps: f64) -> f64 {
        assert!(eps > 0.0, "eps must be positive");
        estimate_ekaq(&self.run_query(q, Query::Ekaq { eps }, None))
    }

    /// Absolute-gap query: returns `(F̂, half_width)` with
    /// `|F̂ − F_P(q)| ≤ half_width ≤ tol/2` (exactly `F` when the tree
    /// bottoms out first).
    ///
    /// # Panics
    /// Panics unless `tol > 0`.
    pub fn within(&self, q: &[f64], tol: f64) -> (f64, f64) {
        assert!(tol > 0.0, "tol must be positive");
        let out = self.run_query(q, Query::Within { tol }, None);
        (0.5 * (out.lb + out.ub), 0.5 * (out.ub - out.lb).max(0.0))
    }

    /// Runs a threshold query recording the bound trajectory (Figure 6).
    pub fn trace_tkaq(&self, q: &[f64], tau: f64) -> (bool, Vec<TraceStep>) {
        let (out, trace) = self.trace_run(q, Query::Tkaq { tau });
        (decide_tkaq(&out, tau), trace)
    }

    /// Runs a query recording the bound trajectory, one [`TraceStep`] per
    /// refinement iteration (step 0 holds the root bounds).
    pub fn trace_run(&self, q: &[f64], query: Query) -> (RunOutcome, Vec<TraceStep>) {
        self.check_query(q);
        let mut scratch = Scratch::new();
        let (out, _) = self.run_core(q, query, None, &mut scratch, true, &Budget::UNLIMITED);
        (out, std::mem::take(&mut scratch.trace))
    }

    /// Runs a query and returns the raw bound outcome (used by the harness
    /// and the tuners; `level_cap` simulates the top-`level` tree).
    ///
    /// # Panics
    /// Panics if the query dimensionality does not match the evaluator's.
    pub fn run_query(&self, q: &[f64], query: Query, level_cap: Option<u16>) -> RunOutcome {
        self.check_query(q);
        self.run_with_scratch(q, query, level_cap, &mut Scratch::new())
    }

    /// [`run_query`](Self::run_query) with caller-owned scratch buffers:
    /// after the buffers have grown to the workload's high-water mark, the
    /// query path performs zero heap allocations. The outcome is
    /// bit-identical to [`run_query`](Self::run_query).
    ///
    /// Dimensionality is only `debug_assert!`ed here; the validated
    /// counterpart is [`run_budgeted`](Self::run_budgeted).
    pub fn run_with_scratch(
        &self,
        q: &[f64],
        query: Query,
        level_cap: Option<u16>,
        scratch: &mut Scratch,
    ) -> RunOutcome {
        self.run_core(q, query, level_cap, scratch, false, &Budget::UNLIMITED)
            .0
    }

    /// The validated, budget-aware entry point — the one the batch engine
    /// runs per query. Rejects a wrong-dimensional or non-finite query
    /// point and an invalid query parameter with a typed [`KarlError`].
    /// Whenever the budget is not hit the result is `Outcome::Complete`
    /// and bitwise identical to [`run_query`](Self::run_query); otherwise
    /// the loop stops at the cap and returns the certified interval it had
    /// at that moment.
    pub fn run_budgeted(
        &self,
        q: &[f64],
        query: Query,
        level_cap: Option<u16>,
        budget: &Budget,
        scratch: &mut Scratch,
    ) -> Result<Outcome, KarlError> {
        error::validate_query(q, self.dims)?;
        query.validate()?;
        let (out, truncated) = self.run_core(q, query, level_cap, scratch, false, budget);
        Ok(match truncated {
            None => Outcome::Complete(out),
            Some(reason) => Outcome::Truncated {
                lb: out.lb,
                ub: out.ub,
                reason,
            },
        })
    }

    /// Budgeted threshold query: [`TkaqDecision::Decided`] when the bounds
    /// settle `F_P(q) ≥ τ` within budget, otherwise
    /// [`TkaqDecision::Undecided`] with the certified interval straddling
    /// `τ`.
    pub fn tkaq_budgeted(
        &self,
        q: &[f64],
        tau: f64,
        budget: &Budget,
    ) -> Result<TkaqDecision, KarlError> {
        match self.run_budgeted(q, Query::Tkaq { tau }, None, budget, &mut Scratch::new())? {
            Outcome::Complete(out) => Ok(TkaqDecision::Decided(decide_tkaq(&out, tau))),
            // The budget check runs only while the bounds are still
            // straddling τ (the termination test fires first), so a
            // truncated threshold query is always undecided.
            Outcome::Truncated { lb, ub, .. } => Ok(TkaqDecision::Undecided { lb, ub }),
        }
    }

    /// Budgeted approximate query: the converged eKAQ answer when complete,
    /// otherwise the interval midpoint — either way [`Estimate`] reports
    /// the relative error actually *achieved*, not the one requested.
    pub fn ekaq_budgeted(
        &self,
        q: &[f64],
        eps: f64,
        budget: &Budget,
    ) -> Result<Estimate, KarlError> {
        match self.run_budgeted(q, Query::Ekaq { eps }, None, budget, &mut Scratch::new())? {
            Outcome::Complete(out) => {
                let value = estimate_ekaq(&out);
                Ok(Estimate {
                    value,
                    lb: out.lb,
                    ub: out.ub,
                    achieved_eps: achieved_rel_err(value, out.lb, out.ub),
                    truncated: None,
                })
            }
            Outcome::Truncated { lb, ub, reason } => {
                let value = 0.5 * (lb + ub);
                Ok(Estimate {
                    value,
                    lb,
                    ub,
                    achieved_eps: achieved_rel_err(value, lb, ub),
                    truncated: Some(reason),
                })
            }
        }
    }

    fn check_query(&self, q: &[f64]) {
        assert_eq!(q.len(), self.dims, "query dimensionality mismatch");
    }

    /// The refinement loop of every entry point. Per-node bounds come from
    /// the frozen SoA index through the **two-pass frontier kernel**: each
    /// heap pop gathers its children into the frontier buffer, pass 1
    /// streams the batched fused geometry kernels over them emitting
    /// [`NodeInterval`] records, and pass 2 sweeps those records building
    /// envelopes.
    ///
    /// Frontier order is left child then right child — exactly the push
    /// order of the old one-node-at-a-time loop — and pass 2 accumulates
    /// `lb`/`ub` in that same order with the same per-node arithmetic, so
    /// outcomes and traces are bitwise identical to the pre-frontier engine.
    /// `tests/frozen_equivalence.rs` checks every node's bounds against the
    /// pointer tree's.
    fn run_core(
        &self,
        q: &[f64],
        query: Query,
        level_cap: Option<u16>,
        scratch: &mut Scratch,
        record_trace: bool,
        budget: &Budget,
    ) -> (RunOutcome, Option<TruncateReason>) {
        debug_assert_eq!(q.len(), self.dims, "query dimensionality mismatch");
        #[cfg(feature = "stats")]
        let (value_calls0, built0) = (
            crate::curve::stats::value_calls(),
            crate::envelope::stats::envelopes_built(),
        );
        let ctx = QueryContext::new(&self.kernel, self.method, q);
        let method = self.method;
        let curve = self.kernel.curve();
        let Scratch {
            heap,
            trace,
            frontier,
            intervals,
            ..
        } = scratch;
        heap.clear();
        trace.clear();
        let mut lb = 0.0f64;
        let mut ub = 0.0f64;
        let pos = self.pos.as_ref().zip(self.pos_frozen.as_ref());
        let neg = self.neg.as_ref().zip(self.neg_frozen.as_ref());

        let mut bound_frontier = |heap: &mut BinaryHeap<Entry>,
                                  lb: &mut f64,
                                  ub: &mut f64,
                                  frozen: &FrozenTree,
                                  ids: &[NodeId],
                                  negated: bool| {
            node_intervals_frozen(&ctx, frozen, ids, intervals);
            for iv in intervals.iter() {
                let b = assemble_interval(method, curve, iv);
                let (elb, eub) = contribution(&b, negated);
                *lb += elb;
                *ub += eub;
                heap.push(Entry {
                    gap: eub - elb,
                    node: iv.node,
                    negated,
                    lb: elb,
                    ub: eub,
                });
            }
        };

        if let Some((_, frozen)) = pos {
            frontier.clear();
            frontier.push(frozen.root());
            bound_frontier(heap, &mut lb, &mut ub, frozen, frontier, false);
        }
        if let Some((_, frozen)) = neg {
            frontier.clear();
            frontier.push(frozen.root());
            bound_frontier(heap, &mut lb, &mut ub, frozen, frontier, true);
        }

        let mut iterations = 0usize;
        let mut leaf_points = 0u64;
        let mut truncated = None;
        let mut deadline_start = None;
        // Hoisted so unbudgeted runs pay one bool test per iteration.
        let budgeted = !budget.is_unlimited();
        if record_trace {
            trace.push(TraceStep {
                iteration: 0,
                lb,
                ub,
            });
        }
        loop {
            if terminated(query, lb, ub) {
                break;
            }
            // Checked after the termination test so a completed run can
            // never be reported as truncated, and before the pop so the
            // certified interval at stop time is left intact.
            if budgeted {
                if let Some(reason) = budget.check(iterations, leaf_points, &mut deadline_start) {
                    truncated = Some(reason);
                    break;
                }
            }
            let Some(entry) = heap.pop() else { break };
            iterations += 1;
            lb -= entry.lb;
            ub -= entry.ub;
            let (side, frozen) = if entry.negated {
                neg.expect("negated entry without neg tree")
            } else {
                pos.expect("entry without pos tree")
            };
            let refine_exactly = frozen.is_leaf(entry.node)
                || level_cap.is_some_and(|cap| frozen.depth(entry.node) >= cap);
            if refine_exactly {
                let (start, end) = frozen.range(entry.node);
                leaf_points += (end - start) as u64;
                let exact = self.kernel.eval_range(
                    side.points(),
                    side.weights(),
                    side.norms2(),
                    start,
                    end,
                    q,
                    ctx.q_norm2(),
                );
                let signed = if entry.negated { -exact } else { exact };
                lb += signed;
                ub += signed;
            } else {
                frontier.clear();
                let gathered = frozen.gather_children(entry.node, frontier);
                debug_assert!(gathered, "non-leaf node has children");
                bound_frontier(heap, &mut lb, &mut ub, frozen, frontier, entry.negated);
            }
            if record_trace {
                trace.push(TraceStep {
                    iteration: iterations,
                    lb,
                    ub,
                });
            }
        }
        #[cfg(feature = "stats")]
        {
            scratch.stats.nodes_refined += iterations as u64;
            scratch.stats.envelopes_built += crate::envelope::stats::envelopes_built() - built0;
            scratch.stats.curve_value_calls += crate::curve::stats::value_calls() - value_calls0;
        }
        (RunOutcome { lb, ub, iterations }, truncated)
    }
}

#[inline]
pub(crate) fn contribution(b: &BoundPair, negated: bool) -> (f64, f64) {
    if negated {
        (-b.ub, -b.lb)
    } else {
        (b.lb, b.ub)
    }
}

/// Termination test on the certified interval `[lb, ub]`.
#[inline]
fn terminated(query: Query, lb: f64, ub: f64) -> bool {
    match query {
        Query::Tkaq { tau } => lb >= tau || ub < tau,
        Query::Ekaq { eps } => (lb > 0.0 && ub <= (1.0 + eps) * lb) || ub <= lb,
        Query::Within { tol } => ub - lb <= tol,
    }
}

pub(crate) fn decide_tkaq(out: &RunOutcome, tau: f64) -> bool {
    if out.lb >= tau {
        true
    } else if out.ub < tau {
        false
    } else {
        // Heap exhausted without a decision: lb == ub == F up to rounding.
        0.5 * (out.lb + out.ub) >= tau
    }
}

pub(crate) fn estimate_ekaq(out: &RunOutcome) -> f64 {
    if out.lb > 0.0 && out.ub > out.lb {
        out.lb
    } else {
        0.5 * (out.lb + out.ub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::aggregate_exact;
    use karl_geom::{Ball, Rect};
    use karl_testkit::rng::StdRng;
    use karl_testkit::rng::{Rng, SeedableRng};
    use karl_testkit::{prop_assert, prop_assert_eq};

    fn clustered_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let center = if i % 2 == 0 { -2.0 } else { 2.0 };
            for _ in 0..d {
                data.push(center + rng.random_range(-0.5..0.5));
            }
        }
        PointSet::new(d, data)
    }

    fn mixed_weights(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let w: f64 = rng.random_range(0.2..2.0);
                if rng.random_bool(0.4) {
                    -w
                } else {
                    w
                }
            })
            .collect()
    }

    #[test]
    fn tkaq_matches_scan_type1() {
        let ps = clustered_points(400, 3, 1);
        let w = vec![1.0 / 400.0; 400];
        let kernel = Kernel::gaussian(0.5);
        for method in [BoundMethod::Sota, BoundMethod::Karl] {
            let eval = Evaluator::<Rect>::build(&ps, &w, kernel, method, 16);
            let queries = clustered_points(30, 3, 2);
            for q in queries.iter() {
                let truth = aggregate_exact(&kernel, &ps, &w, q);
                for mult in [0.5, 0.9, 1.1, 2.0] {
                    let tau = truth * mult;
                    assert_eq!(
                        eval.tkaq(q, tau),
                        truth >= tau,
                        "{method:?} wrong at tau={tau}, truth={truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn tkaq_matches_scan_type3_mixed_weights() {
        let ps = clustered_points(300, 2, 3);
        let w = mixed_weights(300, 4);
        let kernel = Kernel::gaussian(0.8);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        let queries = clustered_points(25, 2, 5);
        for q in queries.iter() {
            let truth = aggregate_exact(&kernel, &ps, &w, q);
            for delta in [-0.5, -0.05, 0.05, 0.5] {
                let tau = truth + delta;
                assert_eq!(eval.tkaq(q, tau), truth >= tau, "tau={tau} truth={truth}");
            }
        }
    }

    #[test]
    fn ekaq_respects_relative_error() {
        let ps = clustered_points(500, 3, 6);
        let w = vec![0.01; 500];
        let kernel = Kernel::gaussian(0.4);
        for method in [BoundMethod::Sota, BoundMethod::Karl] {
            let eval = Evaluator::<Ball>::build(&ps, &w, kernel, method, 32);
            let queries = clustered_points(20, 3, 7);
            for eps in [0.05, 0.2, 0.5] {
                for q in queries.iter() {
                    let truth = aggregate_exact(&kernel, &ps, &w, q);
                    let est = eval.ekaq(q, eps);
                    assert!(
                        est >= (1.0 - eps) * truth - 1e-12 && est <= (1.0 + eps) * truth + 1e-12,
                        "{method:?} eps={eps}: est={est} truth={truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_matches_scan() {
        let ps = clustered_points(150, 4, 8);
        let w = mixed_weights(150, 9);
        let kernel = Kernel::polynomial(0.5, 0.2, 3);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 4);
        let queries = clustered_points(10, 4, 10);
        for q in queries.iter() {
            let truth = aggregate_exact(&kernel, &ps, &w, q);
            let got = eval.exact(q);
            assert!((got - truth).abs() < 1e-8 * (1.0 + truth.abs()));
        }
    }

    #[test]
    fn karl_terminates_in_fewer_iterations_than_sota() {
        // Figure 6's qualitative claim: KARL's tighter bounds stop sooner.
        let ps = clustered_points(2000, 3, 11);
        let w = vec![1.0; 2000];
        let kernel = Kernel::gaussian(0.2);
        let karl = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        let sota = karl.clone().with_method(BoundMethod::Sota);
        let queries = clustered_points(20, 3, 12);
        let mut karl_iters = 0usize;
        let mut sota_iters = 0usize;
        for q in queries.iter() {
            let truth = aggregate_exact(&kernel, &ps, &w, q);
            let tau = truth * 1.05;
            karl_iters += karl.run_query(q, Query::Tkaq { tau }, None).iterations;
            sota_iters += sota.run_query(q, Query::Tkaq { tau }, None).iterations;
        }
        assert!(
            karl_iters <= sota_iters,
            "KARL used {karl_iters} iterations vs SOTA {sota_iters}"
        );
    }

    #[test]
    fn level_capped_queries_are_correct() {
        let ps = clustered_points(256, 2, 13);
        let w = vec![0.5; 256];
        let kernel = Kernel::gaussian(0.6);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 1);
        let queries = clustered_points(10, 2, 14);
        for q in queries.iter() {
            let truth = aggregate_exact(&kernel, &ps, &w, q);
            for level in [0, 1, 3, 8] {
                let tau = truth * 1.2;
                let out = eval.run_query(q, Query::Tkaq { tau }, Some(level));
                assert_eq!(decide_tkaq(&out, tau), truth >= tau);
                let out = eval.run_query(q, Query::Ekaq { eps: 0.1 }, Some(level));
                let est = estimate_ekaq(&out);
                assert!(est >= 0.9 * truth - 1e-12 && est <= 1.1 * truth + 1e-12);
            }
        }
    }

    #[test]
    fn trace_is_monotone_and_bracketing() {
        let ps = clustered_points(512, 3, 15);
        let w = vec![1.0; 512];
        let kernel = Kernel::gaussian(0.3);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 4);
        let q = ps.point(0).to_vec();
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        let (_, trace) = eval.trace_tkaq(&q, truth * 2.0);
        assert!(!trace.is_empty());
        for step in &trace {
            assert!(step.lb <= truth + 1e-6 * truth.abs().max(1.0));
            assert!(step.ub + 1e-6 * truth.abs().max(1.0) >= truth);
        }
        // Bounds tighten (weakly) as refinement proceeds.
        for w2 in trace.windows(2) {
            assert!(w2[1].lb >= w2[0].lb - 1e-7 * (1.0 + w2[0].lb.abs()));
            assert!(w2[1].ub <= w2[0].ub + 1e-7 * (1.0 + w2[0].ub.abs()));
        }
    }

    #[test]
    fn all_negative_weights_work() {
        let ps = clustered_points(100, 2, 16);
        let w = vec![-1.0; 100];
        let kernel = Kernel::gaussian(0.5);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        let q = vec![0.0, 0.0];
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        assert!(truth < 0.0);
        assert!((eval.exact(&q) - truth).abs() < 1e-9);
        assert!(!(eval.tkaq(&q, truth + 0.1)));
        assert!(eval.tkaq(&q, truth - 0.1));
    }

    #[test]
    #[should_panic]
    fn query_dim_mismatch_panics() {
        let ps = clustered_points(10, 3, 17);
        let eval =
            Evaluator::<Rect>::build(&ps, &[1.0; 10], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        eval.tkaq(&[0.0, 0.0], 1.0);
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_panics() {
        let ps = clustered_points(5, 2, 18);
        Evaluator::<Rect>::build(&ps, &[0.0; 5], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
    }

    #[test]
    fn zero_weight_points_are_dropped() {
        let ps = clustered_points(20, 2, 19);
        let mut w = vec![1.0; 20];
        for wi in w.iter_mut().take(10) {
            *wi = 0.0;
        }
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        assert_eq!(eval.len(), 10);
    }

    #[test]
    fn within_query_respects_absolute_tolerance() {
        let ps = clustered_points(300, 2, 21);
        let w = mixed_weights(300, 22);
        let kernel = Kernel::gaussian(0.9);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        for i in 0..10 {
            let q = ps.point(i * 29).to_vec();
            let truth = aggregate_exact(&kernel, &ps, &w, &q);
            for tol in [2.0, 0.2, 0.002] {
                let (est, half) = eval.within(&q, tol);
                assert!(half <= tol / 2.0 + 1e-12, "half-width {half} > tol/2");
                assert!((est - truth).abs() <= half + 1e-9 * (1.0 + truth.abs()));
            }
        }
    }

    #[test]
    fn traced_ekaq_run_ends_within_contract() {
        let ps = clustered_points(400, 2, 23);
        let w = vec![1.0; 400];
        let kernel = Kernel::gaussian(0.4);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        let q = ps.point(5).to_vec();
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        let (out, trace) = eval.trace_run(&q, Query::Ekaq { eps: 0.2 });
        let est = estimate_ekaq(&out);
        assert!(!trace.is_empty());
        assert!(est >= 0.8 * truth - 1e-12 && est <= 1.2 * truth + 1e-12);
        let last = trace.last().unwrap();
        assert!(last.ub <= (1.0 + 0.2) * last.lb + 1e-12 || last.ub <= last.lb + 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let ps = clustered_points(300, 3, 42);
        let w = mixed_weights(300, 43);
        let kernel = Kernel::gaussian(0.6);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        let mut scratch = Scratch::new();
        let queries = clustered_points(20, 3, 44);
        for q in queries.iter() {
            for query in [
                Query::Tkaq { tau: 0.3 },
                Query::Ekaq { eps: 0.1 },
                Query::Within { tol: 0.05 },
            ] {
                let fresh = eval.run_query(q, query, None);
                let reused = eval.run_with_scratch(q, query, None, &mut scratch);
                assert_eq!(fresh, reused, "{query:?}");
            }
        }
        assert!(scratch.trace().is_empty(), "untraced runs record no trace");
    }

    #[test]
    fn reset_with_capacity_cap_shrinks_oversized_buffers() {
        // Grow a scratch well past a small cap on a real workload, then
        // check the shrink policy: every buffer lands at or below the cap,
        // and subsequent runs still produce identical results.
        let ps = clustered_points(2000, 3, 48);
        let w = vec![1.0 / 2000.0; 2000];
        let kernel = Kernel::gaussian(0.2);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 2);
        let mut scratch = Scratch::new();
        let q = ps.point(0).to_vec();
        // A tight Within query forces deep refinement → large buffers.
        let want = eval.run_with_scratch(&q, Query::Within { tol: 1e-9 }, None, &mut scratch);
        let grown = scratch.heap.capacity();
        assert!(grown > 8, "workload too small to grow the heap ({grown})");

        let cap = 8usize;
        scratch.reset_with_capacity_cap(cap);
        assert!(scratch.heap.capacity() <= cap);
        assert!(scratch.trace.capacity() <= cap);
        assert!(scratch.frontier.capacity() <= cap);
        assert!(scratch.intervals.capacity() <= cap);
        assert!(scratch.heap.is_empty() && scratch.trace.is_empty());

        // Within-cap buffers are left alone by a larger cap.
        let big = 1 << 20;
        scratch.reset_with_capacity_cap(big);
        assert!(scratch.heap.capacity() <= cap.max(8));

        // And the scratch still evaluates identically after shrinking.
        let again = eval.run_with_scratch(&q, Query::Within { tol: 1e-9 }, None, &mut scratch);
        assert_eq!(want, again);
    }

    #[test]
    fn equal_gap_entries_refine_deterministically() {
        // A perfectly symmetric point set makes sibling gaps collide; the
        // (gap, node, negated) tie-break must still give a reproducible
        // trace.
        let ps = PointSet::from_rows(&[
            vec![-1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, -1.0],
            vec![0.0, 1.0],
        ]);
        let w = vec![1.0, 1.0, -1.0, -1.0];
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.5), BoundMethod::Karl, 1);
        let q = [0.0, 0.0];
        let (_, t1) = eval.trace_tkaq(&q, 0.1);
        let (_, t2) = eval.trace_tkaq(&q, 0.1);
        assert_eq!(t1, t2);
    }

    #[test]
    fn from_trees_wraps_prebuilt_indexes() {
        let ps = clustered_points(100, 2, 24);
        let w = vec![1.0; 100];
        let kernel = Kernel::gaussian(1.0);
        let tree = karl_tree::Tree::<Rect>::build(ps.clone(), &w, 8);
        let eval = Evaluator::from_trees(Some(tree), None, kernel, BoundMethod::Karl);
        let q = ps.point(0).to_vec();
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        assert!((eval.exact(&q) - truth).abs() < 1e-9);
        assert_eq!(eval.dims(), 2);
    }

    #[test]
    #[should_panic]
    fn from_trees_requires_a_tree() {
        Evaluator::<Rect>::from_trees(None, None, Kernel::gaussian(1.0), BoundMethod::Karl);
    }

    #[test]
    fn laplacian_kernel_queries_are_exact() {
        let ps = clustered_points(250, 3, 25);
        let w = vec![0.7; 250];
        let kernel = Kernel::laplacian(2.0);
        let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8);
        for i in 0..8 {
            let q = ps.point(i * 31).to_vec();
            let truth = aggregate_exact(&kernel, &ps, &w, &q);
            assert!(!(eval.tkaq(&q, truth * 1.02)));
            assert!(eval.tkaq(&q, truth * 0.98));
        }
    }

    #[test]
    fn polynomial_overflow_keeps_intervals_finite_and_correct() {
        // Coordinates of 3e102 keep every *per-point* kernel value finite
        // (⟨q,p⟩³ = 2.7e307), but the root rect corner (3e102, 3e102) maps
        // to ⟨q,corner⟩³ = inf. Without envelope saturation that ±inf node
        // bound turns the global interval into NaN via `inf − inf`; with
        // it every certified interval stays finite and encloses the exact
        // aggregate.
        let ps = PointSet::new(2, vec![3e102, 0.0, 0.0, 3e102]);
        let w = vec![1.0, 1.0];
        let kernel = Kernel::polynomial(1.0, 0.0, 3);
        let exact = aggregate_exact(&kernel, &ps, &w, &[1.0, 1.0]);
        assert!(exact.is_finite());
        for method in [BoundMethod::Karl, BoundMethod::Sota] {
            let eval = Evaluator::<Rect>::build(&ps, &w, kernel, method, 1);
            let out = eval.run_query(&[1.0, 1.0], Query::Within { tol: 1.0 }, None);
            assert!(
                out.lb.is_finite() && out.ub.is_finite(),
                "{method:?} interval poisoned: [{}, {}]",
                out.lb,
                out.ub
            );
            assert!(out.lb <= exact && exact <= out.ub, "{method:?}");
        }
    }

    karl_testkit::props! {
        /// TKAQ must agree with the scan ground truth for random mixed-sign
        /// workloads, kernels and thresholds.
        #[test]
        fn prop_tkaq_agrees_with_scan(
            seed in 0u64..40,
            kid in 0usize..3,
            tau_off in -1.0f64..1.0,
            leaf_cap in 1usize..20,
        ) {
            let n = 120;
            let ps = clustered_points(n, 2, seed);
            let w = mixed_weights(n, seed + 1000);
            let kernel = [
                Kernel::gaussian(0.7),
                Kernel::polynomial(0.4, 0.3, 3),
                Kernel::sigmoid(0.6, 0.1),
            ][kid];
            let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, leaf_cap);
            let q = ps.point(seed as usize % n).to_vec();
            let truth = aggregate_exact(&kernel, &ps, &w, &q);
            // Keep τ away from the exact value to avoid FP-tie flakiness.
            let tau = truth + tau_off.signum() * (0.01 + tau_off.abs());
            prop_assert_eq!(eval.tkaq(&q, tau), truth >= tau);
        }

        /// eKAQ estimates respect the ε contract on positive aggregates.
        #[test]
        fn prop_ekaq_within_eps(
            seed in 0u64..40,
            eps in 0.02f64..0.6,
            ball in karl_testkit::props::bools(),
        ) {
            let n = 200;
            let ps = clustered_points(n, 2, seed);
            let w = vec![1.0; n];
            let kernel = Kernel::gaussian(0.5);
            let q = ps.point((seed as usize * 7) % n).to_vec();
            let truth = aggregate_exact(&kernel, &ps, &w, &q);
            let est = if ball {
                Evaluator::<Ball>::build(&ps, &w, kernel, BoundMethod::Karl, 8).ekaq(&q, eps)
            } else {
                Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 8).ekaq(&q, eps)
            };
            prop_assert!(est >= (1.0 - eps) * truth - 1e-9);
            prop_assert!(est <= (1.0 + eps) * truth + 1e-9);
        }
    }
}
