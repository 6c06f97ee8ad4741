//! The determinism contract of the SIMD backend as a property: for random
//! datasets, mixed-sign weights, both index families, every kernel and
//! every query variant — including tail lengths `n % 4 ≠ 0` and odd
//! dimensionalities — the dispatched vector backend must produce
//! [`RunOutcome`]s, refinement traces and batch reports **bitwise
//! identical** to the forced-scalar backend. No tolerance anywhere: the
//! 4-wide blocked accumulator order is canonical, SIMD lanes map 1:1 onto
//! the four scalar accumulators, and no FMA contraction is permitted, so
//! switching backends may not change a single bit, iteration count, or
//! trace step at any thread count.
//!
//! The backend selector is process-global, so every flip in this file is
//! serialized behind one mutex and restored to `Auto` afterward — the
//! other integration-test binaries then still run whatever the host
//! detects.

use std::sync::Mutex;

use karl::core::{
    BoundMethod, Evaluator, KarlError, Kernel, Outcome, Query, QueryBatch, RunOutcome, TraceStep,
};
use karl::geom::{backend_name, set_backend, Ball, PointSet, Rect, SimdChoice};
use karl::tree::NodeShape;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::{prop_assert, prop_assert_eq, props};

/// Serializes backend flips across the `props!` shrink loop and any future
/// sibling tests in this binary.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Restores the `Auto` backend even if an assertion unwinds mid-case.
struct RestoreAuto;
impl Drop for RestoreAuto {
    fn drop(&mut self) {
        set_backend(SimdChoice::Auto);
    }
}

/// Two Gaussian blobs plus a uniform background so refinement walks the
/// tree instead of terminating at the root.
fn clustered(n: usize, d: usize, rng: &mut StdRng) -> PointSet {
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        match i % 3 {
            0 => data.extend((0..d).map(|_| -1.5 + rng.random_range(-0.4..0.4))),
            1 => data.extend((0..d).map(|_| 1.5 + rng.random_range(-0.4..0.4))),
            _ => data.extend((0..d).map(|_| rng.random_range(-3.0..3.0))),
        }
    }
    PointSet::new(d, data)
}

fn mixed_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let w: f64 = rng.random_range(0.1..1.5);
            if rng.random_bool(0.35) {
                -w
            } else {
                w
            }
        })
        .collect()
}

/// Everything one backend produces for one (evaluator, query stream) pair:
/// per-query outcomes and traces, plus batch results at several thread
/// counts. Derives `PartialEq` so a whole run compares bitwise in one
/// assertion.
#[derive(Debug, PartialEq)]
struct BackendRun {
    outcomes: Vec<RunOutcome>,
    traces: Vec<(RunOutcome, Vec<TraceStep>)>,
    batches: Vec<Vec<Result<Outcome, KarlError>>>,
}

fn run_everything<S: NodeShape + Sync>(
    eval: &Evaluator<S>,
    queries: &PointSet,
    query: Query,
) -> BackendRun {
    let outcomes = queries
        .iter()
        .map(|q| eval.run_query(q, query, None))
        .collect();
    let traces = queries.iter().map(|q| eval.trace_run(q, query)).collect();
    let batches = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| {
            QueryBatch::new(queries, query)
                .threads(t)
                .try_run(eval)
                .unwrap()
                .results()
                .to_vec()
        })
        .collect();
    BackendRun {
        outcomes,
        traces,
        batches,
    }
}

/// Builds the evaluator under the *active* backend too: `NodeStats` sums,
/// bounding rectangles and centroid norms all flow through the dispatched
/// primitives, so the build itself is part of the contract.
fn scalar_vs_dispatched<S: NodeShape + Sync>(
    points: &PointSet,
    weights: &[f64],
    kernel: Kernel,
    method: BoundMethod,
    leaf: usize,
    queries: &PointSet,
    query: Query,
) {
    set_backend(SimdChoice::Scalar);
    assert_eq!(backend_name(), "scalar");
    let eval_s = Evaluator::<S>::build(points, weights, kernel, method, leaf);
    let scalar = run_everything(&eval_s, queries, query);

    set_backend(SimdChoice::Auto);
    let eval_d = Evaluator::<S>::build(points, weights, kernel, method, leaf);
    let dispatched = run_everything(&eval_d, queries, query);

    prop_assert_eq!(
        &dispatched,
        &scalar,
        "backend {} diverged from scalar",
        backend_name()
    );
    // Cross-build check: a scalar-built tree queried by the dispatched
    // backend (the persistence story — indexes outlive the process that
    // built them) must answer identically as well.
    let cross = run_everything(&eval_s, queries, query);
    prop_assert_eq!(&cross, &scalar, "cross-backend query diverged");
    prop_assert!(!scalar.traces.is_empty());
}

props! {
    /// The tentpole property: across both families, four kernels, three
    /// query variants, mixed-sign weights, every tail length and 1/2/4/8
    /// threads, forced-scalar and runtime-dispatched backends are bitwise
    /// interchangeable — outcomes, traces and batch reports alike.
    #[test]
    fn simd_backends_are_bitwise_interchangeable(
        seed in 0u64..1_000_000,
        n in 30usize..170,
        d in 1usize..9,
        leaf in 1usize..24,
        kernel_id in 0usize..4,
        variant in 0usize..3
    ) {
        let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = RestoreAuto;
        let mut rng = StdRng::seed_from_u64(seed);
        let sota = rng.random_bool(0.5);
        // Force every congruence class of n mod 4 into the stream so the
        // vector kernels' scalar tails are exercised on point counts too.
        let n = n + (seed as usize) % 4;
        let points = clustered(n, d, &mut rng);
        let weights = mixed_weights(n, &mut rng);
        let kernel = match kernel_id {
            0 => Kernel::gaussian(rng.random_range(0.3..1.5)),
            1 => Kernel::laplacian(rng.random_range(0.3..1.2)),
            2 => Kernel::polynomial(rng.random_range(0.1..0.5), 0.2, 2),
            _ => Kernel::sigmoid(rng.random_range(0.1..0.6), 0.1),
        };
        let query = match variant {
            0 => Query::Tkaq { tau: rng.random_range(-0.5..0.5) },
            1 => Query::Ekaq { eps: rng.random_range(0.01..0.4) },
            _ => Query::Within { tol: rng.random_range(0.001..0.1) },
        };
        let method = if sota { BoundMethod::Sota } else { BoundMethod::Karl };
        let queries = clustered(16, d, &mut rng);

        scalar_vs_dispatched::<Rect>(&points, &weights, kernel, method, leaf, &queries, query);
        scalar_vs_dispatched::<Ball>(&points, &weights, kernel, method, leaf, &queries, query);
    }
}

/// A pinned, non-random spot check kept deliberately tiny so a contract
/// break fails with a readable diff: n = 7 (largest tail), d = 5 (odd),
/// one query per variant.
#[test]
fn pinned_tail_case_is_backend_independent() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = RestoreAuto;
    let points = PointSet::new(
        5,
        (0..35).map(|i| ((i * 37) % 11) as f64 * 0.25 - 1.0).collect(),
    );
    let weights = vec![1.0, -0.5, 0.75, 2.0, -1.25, 0.3, 1.1];
    let kernel = Kernel::gaussian(0.8);
    let q = [0.1, -0.2, 0.3, -0.4, 0.5];
    for query in [
        Query::Tkaq { tau: 0.2 },
        Query::Ekaq { eps: 0.05 },
        Query::Within { tol: 0.01 },
    ] {
        set_backend(SimdChoice::Scalar);
        let es = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, 2);
        let (out_s, trace_s) = es.trace_run(&q, query);
        set_backend(SimdChoice::Auto);
        let ed = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, 2);
        let (out_d, trace_d) = ed.trace_run(&q, query);
        assert_eq!(out_d, out_s, "{query:?} outcome under {}", backend_name());
        assert_eq!(trace_d, trace_s, "{query:?} trace under {}", backend_name());
    }
}
