//! Batch fault containment under injected faults (feature `fault-inject`):
//! with panics / NaN queries forced at chosen indices, `try_run` must
//! return `Err` for exactly those queries — with the right error variant —
//! and **bitwise identical** `Ok` outcomes for every other query, at 1, 2,
//! 4 and 8 threads. A panicking query also quarantines the worker's
//! scratch (it is discarded, never reused).
//!
//! Every test holds its injection guard across all of its batches,
//! healthy baselines included: the engine reads the process-global plan
//! without the guard's lock, so an unguarded batch could pick up another
//! test's live plan.
#![cfg(feature = "fault-inject")]

use karl::core::{
    fault, BoundMethod, Evaluator, Fault, KarlError, Kernel, Outcome, Query, QueryBatch,
};
use karl::geom::{PointSet, Rect};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

fn clustered(n: usize, d: usize, seed: u64) -> PointSet {
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

fn setup() -> (Evaluator<Rect>, PointSet) {
    // Injected panics are expected here by the dozen; silence the default
    // per-panic backtrace spew once for the whole binary.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| std::panic::set_hook(Box::new(|_| {})));
    let ps = clustered(400, 3, 1);
    let w: Vec<f64> = (0..400).map(|i| 0.3 + (i % 5) as f64 * 0.2).collect();
    let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
    let queries = clustered(67, 3, 2);
    (eval, queries)
}

fn healthy_outcomes(eval: &Evaluator<Rect>, queries: &PointSet) -> Vec<Outcome> {
    QueryBatch::new(queries, Query::Ekaq { eps: 0.1 })
        .threads(1)
        .try_run(eval)
        .unwrap()
        .results()
        .iter()
        .map(|r| *r.as_ref().unwrap())
        .collect()
}

#[test]
fn injected_faults_poison_exactly_their_own_slots() {
    let (eval, queries) = setup();
    let guard = fault::inject(&[]);
    let baseline = healthy_outcomes(&eval, &queries);
    guard.set(&[(3, Fault::Panic), (17, Fault::Nan), (40, Fault::Panic)]);
    for threads in [1, 2, 4, 8] {
        let report = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .threads(threads)
            .try_run(&eval)
            .unwrap();
        assert_eq!(report.len(), queries.len());
        assert_eq!(report.failed_indices(), vec![3, 17, 40], "x{threads}");
        assert_eq!(report.ok_count(), queries.len() - 3);
        assert!(report.has_failures());
        // Exactly the two panicking queries quarantined a scratch.
        assert_eq!(report.quarantined(), 2, "x{threads}");
        for (i, result) in report.results().iter().enumerate() {
            match result {
                Ok(out) => {
                    // Healthy slots carry the same bits as an all-healthy
                    // run — faults must not perturb their neighbours.
                    let b = &baseline[i];
                    assert_eq!(out.lb().to_bits(), b.lb().to_bits(), "query {i} x{threads}");
                    assert_eq!(out.ub().to_bits(), b.ub().to_bits(), "query {i} x{threads}");
                }
                Err(KarlError::QueryPanicked { index, message }) => {
                    assert_eq!(*index, i);
                    assert!(matches!(i, 3 | 40), "unexpected panic slot {i}");
                    assert!(message.contains("injected fault"), "{message}");
                }
                Err(KarlError::NonFiniteQuery { value, .. }) => {
                    assert_eq!(i, 17);
                    assert!(value.is_nan());
                }
                Err(e) => panic!("query {i}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn guard_drop_clears_the_plan() {
    let (eval, queries) = setup();
    {
        let _guard = fault::inject(&[(0, Fault::Panic)]);
        let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
            .threads(2)
            .try_run(&eval)
            .unwrap();
        assert_eq!(report.failed_indices(), vec![0]);
    }
    // The same batch is now fully healthy. The fresh empty guard keeps
    // other tests' plans out of this run; that drop alone clears the plan
    // is checked by the unit test in `karl_core::fault`.
    let _guard = fault::inject(&[]);
    let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
        .threads(2)
        .try_run(&eval)
        .unwrap();
    assert!(!report.has_failures());
    assert_eq!(report.quarantined(), 0);
}

#[test]
fn all_faulted_batch_still_completes() {
    let (eval, queries) = setup();
    let plan: Vec<(usize, Fault)> = (0..queries.len()).map(|i| (i, Fault::Panic)).collect();
    let _guard = fault::inject(&plan);
    for threads in [1, 4] {
        let report = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 })
            .threads(threads)
            .try_run(&eval)
            .unwrap();
        assert_eq!(report.ok_count(), 0);
        assert_eq!(report.quarantined(), queries.len());
        assert_eq!(report.failed_indices().len(), queries.len());
    }
}
