//! Automatic index tuning (Section III-C of the paper).
//!
//! The throughput of the branch-and-bound evaluator depends on the index
//! family (kd-tree vs ball-tree) and on the leaf capacity, and the best
//! choice is dataset-dependent (Figure 7). Two tuners are provided:
//!
//! * [`OfflineTuner`] — the offline scenario: the dataset is known in
//!   advance and tuning time is free. Builds one index per
//!   (family, leaf-capacity) candidate, measures throughput on a small
//!   query sample, and returns the fastest (`KARL_auto`, Table VIII).
//! * [`OnlineTuner`] — the in-situ scenario (online kernel learning): index
//!   construction and tuning count against the clock. Builds a single deep
//!   kd-tree, *simulates* the trees `T_i` that keep only the top `i` levels
//!   (a depth-capped query over the full tree behaves exactly like a query
//!   over `T_i`), spends a small fraction of the query stream finding the
//!   best level, and answers the remainder there (`KARL_online`, Table IX).

use std::time::{Duration, Instant};

use karl_geom::PointSet;

use crate::bounds::BoundMethod;
use crate::eval::{
    decide_tkaq, estimate_ekaq, BallEvaluator, Evaluator, KdEvaluator, Query, RunOutcome,
};
use crate::kernel::Kernel;

/// The index families the tuner chooses between (the two supported by
/// Scikit-learn, which the paper mirrors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// kd-tree (bounding-rectangle nodes).
    Kd,
    /// ball-tree (bounding-ball nodes).
    Ball,
}

/// A runtime-dispatched evaluator over either index family.
#[derive(Debug, Clone)]
pub enum AnyEvaluator {
    /// kd-tree backed evaluator.
    Kd(KdEvaluator),
    /// ball-tree backed evaluator.
    Ball(BallEvaluator),
}

impl AnyEvaluator {
    /// Builds an evaluator of the requested family.
    pub fn build(
        kind: IndexKind,
        points: &PointSet,
        weights: &[f64],
        kernel: Kernel,
        method: BoundMethod,
        leaf_capacity: usize,
    ) -> Self {
        match kind {
            IndexKind::Kd => AnyEvaluator::Kd(Evaluator::build(
                points,
                weights,
                kernel,
                method,
                leaf_capacity,
            )),
            IndexKind::Ball => AnyEvaluator::Ball(Evaluator::build(
                points,
                weights,
                kernel,
                method,
                leaf_capacity,
            )),
        }
    }

    /// Which family backs this evaluator.
    pub fn kind(&self) -> IndexKind {
        match self {
            AnyEvaluator::Kd(_) => IndexKind::Kd,
            AnyEvaluator::Ball(_) => IndexKind::Ball,
        }
    }

    /// Threshold query (see [`Evaluator::tkaq`]).
    pub fn tkaq(&self, q: &[f64], tau: f64) -> bool {
        match self {
            AnyEvaluator::Kd(e) => e.tkaq(q, tau),
            AnyEvaluator::Ball(e) => e.tkaq(q, tau),
        }
    }

    /// Approximate query (see [`Evaluator::ekaq`]).
    pub fn ekaq(&self, q: &[f64], eps: f64) -> f64 {
        match self {
            AnyEvaluator::Kd(e) => e.ekaq(q, eps),
            AnyEvaluator::Ball(e) => e.ekaq(q, eps),
        }
    }

    /// Exact aggregate (see [`Evaluator::exact`]).
    pub fn exact(&self, q: &[f64]) -> f64 {
        match self {
            AnyEvaluator::Kd(e) => e.exact(q),
            AnyEvaluator::Ball(e) => e.exact(q),
        }
    }

    /// Raw query run (see [`Evaluator::run_query`]).
    pub fn run_query(&self, q: &[f64], query: Query, level_cap: Option<u16>) -> RunOutcome {
        match self {
            AnyEvaluator::Kd(e) => e.run_query(q, query, level_cap),
            AnyEvaluator::Ball(e) => e.run_query(q, query, level_cap),
        }
    }

    /// Answers `query` as the workload-appropriate scalar: TKAQ answers map
    /// to `1.0` / `0.0`, eKAQ answers to the estimate. Used by benchmark
    /// plumbing that is generic over the workload.
    pub fn answer(&self, q: &[f64], query: Query) -> f64 {
        match query {
            Query::Tkaq { tau } => {
                if self.tkaq(q, tau) {
                    1.0
                } else {
                    0.0
                }
            }
            Query::Ekaq { eps } => self.ekaq(q, eps),
            Query::Within { tol } => match self {
                AnyEvaluator::Kd(e) => e.within(q, tol).0,
                AnyEvaluator::Ball(e) => e.within(q, tol).0,
            },
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        match self {
            AnyEvaluator::Kd(e) => e.len(),
            AnyEvaluator::Ball(e) => e.len(),
        }
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        match self {
            AnyEvaluator::Kd(e) => e.dims(),
            AnyEvaluator::Ball(e) => e.dims(),
        }
    }

    /// Whether no points are indexed (never true once built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where a persistent index is expected to live when it is queried —
/// the knob of the storage-aware tuner.
///
/// The branch-and-bound loop pays two very different prices per visited
/// node depending on residence: an in-memory (or page-cached) index costs
/// roughly a cache miss per node, while a cold on-disk index pays the
/// storage stack's per-access latency plus a per-byte transfer cost. The
/// optimal leaf capacity moves accordingly: cheap node visits favour
/// small leaves (tight bounds, little exact work), expensive ones favour
/// large leaves (fewer visits, sequential leaf scans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageProfile {
    /// Index resident in RAM (the default; matches the in-process tuner).
    #[default]
    Memory,
    /// Index loaded cold from persistent storage per query batch.
    Disk,
}

impl std::fmt::Display for StorageProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StorageProfile::Memory => "memory",
            StorageProfile::Disk => "disk",
        })
    }
}

impl StorageProfile {
    /// Parses the CLI spelling (`memory` / `disk`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "memory" | "mem" | "ram" => Some(StorageProfile::Memory),
            "disk" | "ssd" | "cold" => Some(StorageProfile::Disk),
            _ => None,
        }
    }
}

/// The two measured parameters of the storage cost model: what one node
/// visit costs (latency) and what one transferred byte costs (bandwidth).
///
/// Recorded in the index file header at build time so `karl index info`
/// can report the assumptions the stored layout was tuned under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageCalibration {
    /// Fixed cost per node visit, in nanoseconds (pointer chase / seek).
    pub node_visit_ns: f64,
    /// Cost per byte moved to the CPU, in nanoseconds.
    pub byte_read_ns: f64,
}

impl StorageCalibration {
    /// Canned calibration constants per profile: a RAM visit is a cache
    /// miss (~60 ns) with ~100 GB/s streaming; a cold-storage visit pays
    /// ~80 µs of stack latency with ~500 MB/s effective bandwidth.
    pub fn canned(profile: StorageProfile) -> Self {
        match profile {
            StorageProfile::Memory => Self {
                node_visit_ns: 60.0,
                byte_read_ns: 0.01,
            },
            StorageProfile::Disk => Self {
                node_visit_ns: 80_000.0,
                byte_read_ns: 2.0,
            },
        }
    }

    /// Measures the *memory* parameters on this machine with a short
    /// pointer-chase (latency) and sequential-sum (bandwidth) probe.
    /// Deterministic access pattern; only the timings vary per host.
    pub fn measure() -> Self {
        // Latency: chase a shuffled permutation so the prefetcher can't
        // help. 1 Mi entries × 8 B = 8 MiB, comfortably past L2.
        const N: usize = 1 << 20;
        let mut next: Vec<u32> = (0..N as u32).collect();
        // Deterministic LCG shuffle (no external RNG dependency here).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..N).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            next.swap(i, j);
        }
        let t0 = Instant::now();
        let mut idx = 0u32;
        for _ in 0..N {
            idx = next[idx as usize];
        }
        std::hint::black_box(idx);
        let node_visit_ns = (t0.elapsed().as_nanos() as f64 / N as f64).max(1.0);

        // Bandwidth: stream the same buffer sequentially.
        let t1 = Instant::now();
        let sum: u64 = next.iter().map(|&x| x as u64).sum();
        std::hint::black_box(sum);
        let bytes = (N * std::mem::size_of::<u32>()) as f64;
        let byte_read_ns = (t1.elapsed().as_nanos() as f64 / bytes).max(1e-4);
        Self {
            node_visit_ns,
            byte_read_ns,
        }
    }

    /// Calibration for `profile`: measured on this host for
    /// [`Memory`](StorageProfile::Memory), canned constants for
    /// [`Disk`](StorageProfile::Disk) (cold-storage latency cannot be
    /// probed without actually owning the target device).
    pub fn for_profile(profile: StorageProfile) -> Self {
        match profile {
            StorageProfile::Memory => Self::measure(),
            StorageProfile::Disk => Self::canned(StorageProfile::Disk),
        }
    }
}

/// One candidate of the storage-aware analytic sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageCandidate {
    /// The index family tried.
    pub kind: IndexKind,
    /// The leaf capacity tried.
    pub leaf_capacity: usize,
    /// Modelled per-query cost in nanoseconds.
    pub est_cost_ns: f64,
}

/// The storage-aware tuning decision plus the full modelled sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePlan {
    /// Chosen index family.
    pub kind: IndexKind,
    /// Chosen leaf capacity.
    pub leaf_capacity: usize,
    /// The profile the plan was made for.
    pub profile: StorageProfile,
    /// The calibration the cost model used.
    pub calibration: StorageCalibration,
    /// Every candidate with its modelled cost, cheapest first.
    pub candidates: Vec<StorageCandidate>,
}

/// Bytes the evaluator touches per visited node of each family: the
/// frozen SoA row (shape + aggregates as `f64`, counts/ranges/links as
/// `u32`/`u16`), matching [`FrozenTree::footprint_sections`] per node.
///
/// [`FrozenTree::footprint_sections`]: karl_tree::FrozenTree::footprint_sections
fn node_bytes(kind: IndexKind, dims: usize) -> f64 {
    let d = dims as f64;
    let aggregates = (d + 2.0) * 8.0; // weighted_sum + weight_sum + weighted_norm2
    let links = 22.0; // count/start/end/left/right u32 + depth u16
    match kind {
        IndexKind::Kd => 2.0 * d * 8.0 + aggregates + links,
        IndexKind::Ball => (d + 1.0) * 8.0 + aggregates + links,
    }
}

/// Analytic storage-aware tuner: picks (family, leaf capacity) from a
/// two-parameter cost model instead of a measured sweep, so it can plan
/// for a device the build machine does not have (the `--profile disk`
/// case of `karl index build`).
///
/// Model: branch-and-bound refinement visits a corridor of `k` nodes per
/// level down a tree of `log₂(n / c)` levels, then refines `k` leaves of
/// `c` points each. Per node it pays `t_node + node_bytes · t_byte`; per
/// leaf additionally the point payload `c·(d+2)·8 · t_byte` plus the
/// arithmetic of `c` kernel evaluations. The corridor is wider for
/// rectangles in high dimension (their bounds loosen faster than balls'),
/// which is what lets the model flip family with `d`.
///
/// The absolute numbers are rough, but the *argmin* over candidates only
/// needs the relative shape: expensive node visits (disk) push the
/// optimum toward large leaves, cheap ones (memory) toward small leaves —
/// exactly the monotonicity the tests pin down.
pub fn plan_for_storage(
    n: usize,
    dims: usize,
    profile: StorageProfile,
    calibration: StorageCalibration,
) -> StoragePlan {
    const CAPS: [usize; 7] = [10, 20, 40, 80, 160, 320, 640];
    let d = dims as f64;
    let t_node = calibration.node_visit_ns.max(0.0);
    let t_byte = calibration.byte_read_ns.max(0.0);
    let mut candidates = Vec::with_capacity(2 * CAPS.len());
    for kind in [IndexKind::Kd, IndexKind::Ball] {
        let corridor = match kind {
            IndexKind::Kd => 8.0 * (1.0 + d / 16.0),
            IndexKind::Ball => 12.0,
        };
        let nb = node_bytes(kind, dims);
        for &cap in &CAPS {
            let c = cap as f64;
            let levels = ((n as f64 / c).max(2.0)).log2();
            let descend = corridor * levels * (t_node + nb * t_byte);
            let leaf_bytes = c * (d + 2.0) * 8.0;
            let eval_ns = c * (0.5 * d + 3.0);
            let refine = corridor * (t_node + leaf_bytes * t_byte + eval_ns);
            candidates.push(StorageCandidate {
                kind,
                leaf_capacity: cap,
                est_cost_ns: descend + refine,
            });
        }
    }
    // Cheapest first; break ties toward the kd family and the smaller
    // capacity so the plan is deterministic.
    candidates.sort_by(|a, b| {
        a.est_cost_ns
            .total_cmp(&b.est_cost_ns)
            .then_with(|| (a.kind == IndexKind::Ball).cmp(&(b.kind == IndexKind::Ball)))
            .then_with(|| a.leaf_capacity.cmp(&b.leaf_capacity))
    });
    let best = candidates[0];
    StoragePlan {
        kind: best.kind,
        leaf_capacity: best.leaf_capacity,
        profile,
        calibration,
        candidates,
    }
}

/// One measured tuning candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateResult {
    /// The index family tried.
    pub kind: IndexKind,
    /// The leaf capacity tried.
    pub leaf_capacity: usize,
    /// Measured throughput (queries / second) on the sample.
    pub throughput: f64,
    /// Wall-clock time spent answering the sample.
    pub elapsed: Duration,
}

/// Result of an offline tuning sweep.
#[derive(Debug)]
pub struct OfflineTuningOutcome {
    /// The fastest evaluator (`KARL_auto`).
    pub best: AnyEvaluator,
    /// Every candidate with its measured throughput, best first.
    pub report: Vec<CandidateResult>,
}

/// Offline tuner: exhaustive sweep over (family × leaf capacity) scored on
/// a query sample.
#[derive(Debug, Clone)]
pub struct OfflineTuner {
    /// Leaf capacities to try (paper default: 10,20,40,…,640).
    pub leaf_capacities: Vec<usize>,
    /// Index families to try.
    pub index_kinds: Vec<IndexKind>,
}

impl Default for OfflineTuner {
    fn default() -> Self {
        Self {
            leaf_capacities: vec![10, 20, 40, 80, 160, 320, 640],
            index_kinds: vec![IndexKind::Kd, IndexKind::Ball],
        }
    }
}

impl OfflineTuner {
    /// Sweeps every candidate, measuring throughput of `workload` over
    /// `sample` queries, and returns the fastest evaluator plus the full
    /// report (sorted fastest-first).
    ///
    /// # Panics
    /// Panics if the candidate lists or the sample are empty.
    pub fn tune(
        &self,
        points: &PointSet,
        weights: &[f64],
        kernel: Kernel,
        method: BoundMethod,
        sample: &PointSet,
        workload: Query,
    ) -> OfflineTuningOutcome {
        assert!(!self.leaf_capacities.is_empty(), "no leaf capacities");
        assert!(!self.index_kinds.is_empty(), "no index kinds");
        assert!(!sample.is_empty(), "empty tuning sample");
        let mut best: Option<(f64, AnyEvaluator)> = None;
        let mut report = Vec::new();
        for &kind in &self.index_kinds {
            for &cap in &self.leaf_capacities {
                let eval = AnyEvaluator::build(kind, points, weights, kernel, method, cap);
                let start = Instant::now();
                for q in sample.iter() {
                    std::hint::black_box(eval.answer(q, workload));
                }
                let elapsed = start.elapsed();
                let throughput = sample.len() as f64 / elapsed.as_secs_f64().max(1e-12);
                report.push(CandidateResult {
                    kind,
                    leaf_capacity: cap,
                    throughput,
                    elapsed,
                });
                if best.as_ref().is_none_or(|(t, _)| throughput > *t) {
                    best = Some((throughput, eval));
                }
            }
        }
        report.sort_by(|a, b| b.throughput.total_cmp(&a.throughput));
        OfflineTuningOutcome {
            best: best.expect("at least one candidate").1,
            report,
        }
    }
}

/// Result of an in-situ (online) run: answers plus the time breakdown the
/// paper's end-to-end throughput metric charges.
#[derive(Debug, Clone)]
pub struct OnlineRunReport {
    /// Workload answers, aligned with the input query order (TKAQ answers
    /// encoded as 1.0/0.0).
    pub answers: Vec<f64>,
    /// The level `i*` the tuner settled on.
    pub chosen_level: u16,
    /// Time to build the single kd-tree.
    pub build_time: Duration,
    /// Time spent probing candidate levels on the sample queries.
    pub tuning_time: Duration,
    /// Time answering the remaining queries at the chosen level.
    pub query_time: Duration,
    /// End-to-end throughput: `|Q| / (build + tuning + query)`.
    pub throughput: f64,
}

/// In-situ tuner: one deep kd-tree, level probing on a query-sample
/// prefix, remainder answered at the best level.
#[derive(Debug, Clone, Copy)]
pub struct OnlineTuner {
    /// Fraction of the query stream spent probing levels (paper: 1%).
    pub sample_fraction: f64,
    /// Leaf capacity of the single tree (small, so that every level `i` up
    /// to ~log₂(n) can be simulated).
    pub leaf_capacity: usize,
}

impl Default for OnlineTuner {
    fn default() -> Self {
        Self {
            sample_fraction: 0.01,
            leaf_capacity: 8,
        }
    }
}

impl OnlineTuner {
    /// Runs the full in-situ pipeline: build, probe, answer.
    ///
    /// # Panics
    /// Panics if `queries` is empty, `sample_fraction ∉ (0, 1]`, or the
    /// workload's parameter is invalid ([`Query::validate`]).
    pub fn run(
        &self,
        points: &PointSet,
        weights: &[f64],
        kernel: Kernel,
        method: BoundMethod,
        queries: &PointSet,
        workload: Query,
    ) -> OnlineRunReport {
        assert!(!queries.is_empty(), "empty query stream");
        assert!(
            self.sample_fraction > 0.0 && self.sample_fraction <= 1.0,
            "sample fraction out of range"
        );
        workload.validate().unwrap_or_else(|e| panic!("{e}"));
        let t0 = Instant::now();
        let eval = KdEvaluator::build(points, weights, kernel, method, self.leaf_capacity);
        let build_time = t0.elapsed();

        // Candidate levels 0..=max_depth, thinned so every candidate gets at
        // least one probe query.
        let max_depth = eval.max_depth();
        let sample_count =
            ((queries.len() as f64 * self.sample_fraction).ceil() as usize).clamp(1, queries.len());
        let num_candidates = (max_depth as usize + 1).min(sample_count);
        let candidates: Vec<u16> = (0..num_candidates)
            .map(|i| {
                if num_candidates == 1 {
                    max_depth
                } else {
                    (i as f64 * max_depth as f64 / (num_candidates - 1) as f64).round() as u16
                }
            })
            .collect();

        let mut answers = vec![0.0; queries.len()];
        let t1 = Instant::now();
        // Round-robin the probe prefix across candidate levels, recording
        // per-level cost (the probe answers are exact regardless of level).
        let mut level_time = vec![Duration::ZERO; candidates.len()];
        let mut level_hits = vec![0u32; candidates.len()];
        #[allow(clippy::needless_range_loop)] // s drives the round-robin level index too
        for s in 0..sample_count {
            let li = s % candidates.len();
            let q = queries.point(s);
            let ts = Instant::now();
            answers[s] = answer_to_level(&eval, q, workload, candidates[li]);
            level_time[li] += ts.elapsed();
            level_hits[li] += 1;
        }
        let best_idx = (0..candidates.len())
            .filter(|&i| level_hits[i] > 0)
            .min_by(|&a, &b| {
                let ta = level_time[a].as_secs_f64() / level_hits[a] as f64;
                let tb = level_time[b].as_secs_f64() / level_hits[b] as f64;
                ta.total_cmp(&tb)
            })
            .expect("at least one probed level");
        let chosen_level = candidates[best_idx];
        let tuning_time = t1.elapsed();

        let t2 = Instant::now();
        #[allow(clippy::needless_range_loop)]
        for i in sample_count..queries.len() {
            answers[i] = answer_to_level(&eval, queries.point(i), workload, chosen_level);
        }
        let query_time = t2.elapsed();
        let total = build_time + tuning_time + query_time;
        OnlineRunReport {
            answers,
            chosen_level,
            build_time,
            tuning_time,
            query_time,
            throughput: queries.len() as f64 / total.as_secs_f64().max(1e-12),
        }
    }
}

fn answer_to_level(eval: &KdEvaluator, q: &[f64], workload: Query, level: u16) -> f64 {
    let out = eval.run_query(q, workload, Some(level));
    match workload {
        Query::Tkaq { tau } => {
            if decide_tkaq(&out, tau) {
                1.0
            } else {
                0.0
            }
        }
        Query::Ekaq { .. } => estimate_ekaq(&out),
        Query::Within { .. } => 0.5 * (out.lb + out.ub),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::aggregate_exact;
    use karl_testkit::rng::StdRng;
    use karl_testkit::rng::{Rng, SeedableRng};

    fn clustered(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let c = if i % 3 == 0 { -1.5 } else { 1.5 };
            for _ in 0..d {
                data.push(c + rng.random_range(-0.4..0.4));
            }
        }
        PointSet::new(d, data)
    }

    #[test]
    fn any_evaluator_matches_both_families() {
        let ps = clustered(200, 2, 1);
        let w = vec![1.0; 200];
        let kernel = Kernel::gaussian(0.5);
        let q = ps.point(0).to_vec();
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        for kind in [IndexKind::Kd, IndexKind::Ball] {
            let e = AnyEvaluator::build(kind, &ps, &w, kernel, BoundMethod::Karl, 8);
            assert_eq!(e.kind(), kind);
            assert_eq!(e.len(), 200);
            assert!((e.exact(&q) - truth).abs() < 1e-9);
            assert!(e.tkaq(&q, truth * 0.9));
            assert!(!(e.tkaq(&q, truth * 1.1)));
            let est = e.ekaq(&q, 0.1);
            assert!(est >= 0.9 * truth - 1e-12 && est <= 1.1 * truth + 1e-12);
            assert_eq!(e.answer(&q, Query::Tkaq { tau: truth * 0.9 }), 1.0);
        }
    }

    #[test]
    fn offline_tuner_returns_fastest_candidate() {
        let ps = clustered(400, 3, 2);
        let w = vec![1.0; 400];
        let kernel = Kernel::gaussian(0.4);
        let sample = clustered(20, 3, 3);
        let tuner = OfflineTuner {
            leaf_capacities: vec![4, 64],
            index_kinds: vec![IndexKind::Kd, IndexKind::Ball],
        };
        let out = tuner.tune(
            &ps,
            &w,
            kernel,
            BoundMethod::Karl,
            &sample,
            Query::Ekaq { eps: 0.2 },
        );
        assert_eq!(out.report.len(), 4);
        // Report is sorted fastest-first and the winner matches `best`.
        for pair in out.report.windows(2) {
            assert!(pair[0].throughput >= pair[1].throughput);
        }
        let winner = out.report[0];
        assert_eq!(out.best.kind(), winner.kind);
        // The tuned evaluator still answers correctly.
        let q = ps.point(7).to_vec();
        let truth = aggregate_exact(&kernel, &ps, &w, &q);
        let est = out.best.ekaq(&q, 0.2);
        assert!(est >= 0.8 * truth - 1e-12 && est <= 1.2 * truth + 1e-12);
    }

    #[test]
    fn online_tuner_answers_are_exactly_correct() {
        let ps = clustered(300, 2, 4);
        let w = vec![1.0; 300];
        let kernel = Kernel::gaussian(0.6);
        let queries = clustered(50, 2, 5);
        // τ at the mean aggregate of the queries, like the paper's I-τ.
        let mean: f64 = queries
            .iter()
            .map(|q| aggregate_exact(&kernel, &ps, &w, q))
            .sum::<f64>()
            / queries.len() as f64;
        let tuner = OnlineTuner {
            sample_fraction: 0.2,
            leaf_capacity: 4,
        };
        let report = tuner.run(
            &ps,
            &w,
            kernel,
            BoundMethod::Karl,
            &queries,
            Query::Tkaq { tau: mean },
        );
        assert_eq!(report.answers.len(), 50);
        for (i, q) in queries.iter().enumerate() {
            let truth = aggregate_exact(&kernel, &ps, &w, q) >= mean;
            assert_eq!(report.answers[i] == 1.0, truth, "query {i}");
        }
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn online_tuner_single_query_stream() {
        let ps = clustered(100, 2, 6);
        let w = vec![1.0; 100];
        let queries = ps.select(&[0]);
        let report = OnlineTuner::default().run(
            &ps,
            &w,
            Kernel::gaussian(0.5),
            BoundMethod::Karl,
            &queries,
            Query::Ekaq { eps: 0.3 },
        );
        assert_eq!(report.answers.len(), 1);
        let truth = aggregate_exact(&Kernel::gaussian(0.5), &ps, &w, queries.point(0));
        assert!((report.answers[0] - truth).abs() <= 0.3 * truth + 1e-9);
    }

    #[test]
    fn storage_plan_moves_to_larger_leaves_on_disk() {
        let n = 1_000_000;
        for dims in [2, 4, 8, 32] {
            let mem = plan_for_storage(
                n,
                dims,
                StorageProfile::Memory,
                StorageCalibration::canned(StorageProfile::Memory),
            );
            let disk = plan_for_storage(
                n,
                dims,
                StorageProfile::Disk,
                StorageCalibration::canned(StorageProfile::Disk),
            );
            // Expensive node visits must never shrink the optimal leaf.
            assert!(
                mem.leaf_capacity <= disk.leaf_capacity,
                "dims {dims}: memory cap {} > disk cap {}",
                mem.leaf_capacity,
                disk.leaf_capacity
            );
            // The sweep is exhaustive and sorted cheapest-first.
            assert_eq!(mem.candidates.len(), 14);
            for pair in mem.candidates.windows(2) {
                assert!(pair[0].est_cost_ns <= pair[1].est_cost_ns);
            }
            assert_eq!(mem.kind, mem.candidates[0].kind);
            assert_eq!(mem.leaf_capacity, mem.candidates[0].leaf_capacity);
        }
    }

    #[test]
    fn storage_plan_prefers_balls_in_high_dimension() {
        let cal = StorageCalibration::canned(StorageProfile::Memory);
        let low = plan_for_storage(1_000_000, 2, StorageProfile::Memory, cal);
        let high = plan_for_storage(1_000_000, 64, StorageProfile::Memory, cal);
        assert_eq!(low.kind, IndexKind::Kd);
        assert_eq!(high.kind, IndexKind::Ball);
    }

    #[test]
    fn storage_calibration_probe_is_sane() {
        let c = StorageCalibration::measure();
        // A pointer chase is slower per access than a streamed byte, and
        // both land in a physically plausible window.
        assert!(c.node_visit_ns >= 1.0 && c.node_visit_ns < 1e6);
        assert!(c.byte_read_ns > 0.0 && c.byte_read_ns < 1e3);
        assert!(c.node_visit_ns > c.byte_read_ns);
    }

    #[test]
    #[should_panic]
    fn offline_tuner_empty_sample_panics() {
        let ps = clustered(10, 2, 7);
        OfflineTuner::default().tune(
            &ps,
            &[1.0; 10],
            Kernel::gaussian(1.0),
            BoundMethod::Karl,
            &PointSet::empty(2),
            Query::Ekaq { eps: 0.1 },
        );
    }
}
