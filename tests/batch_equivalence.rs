//! The batch engine's determinism contract as a property: for random
//! datasets, mixed-sign weights, every query variant, both index families
//! and thread counts 1/2/4/8, [`QueryBatch`] must return results
//! **bitwise identical** to looping the sequential `Evaluator::run_query`
//! over the same queries. No tolerance anywhere — the parallel engine may
//! not change a single bit.

use karl::core::{
    BoundMethod, Budget, Evaluator, KarlError, Kernel, Outcome, Query, QueryBatch, RunOutcome,
    Scratch,
};
use karl::geom::{Ball, PointSet, Rect};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::{prop_assert, prop_assert_eq, props};

/// Two Gaussian blobs plus a uniform background — enough structure that
/// the refinement order actually matters (some queries terminate in a few
/// iterations, others walk deep into one cluster).
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

props! {
    #[test]
    fn batch_is_bitwise_identical_to_sequential_loop(
        seed in 0u64..1_000_000,
        n in 40usize..220,
        d in 1usize..5,
        leaf in 1usize..24,
        kernel_id in 0usize..3,
        variant in 0usize..3
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = clustered(n, d, &mut rng);
        let weights = mixed_weights(n, &mut rng);
        let kernel = match kernel_id {
            0 => Kernel::gaussian(rng.random_range(0.3..1.5)),
            1 => Kernel::laplacian(rng.random_range(0.3..1.2)),
            _ => Kernel::polynomial(rng.random_range(0.1..0.5), 0.2, 2),
        };
        let query = match variant {
            0 => Query::Tkaq { tau: rng.random_range(-0.5..0.5) },
            1 => Query::Ekaq { eps: rng.random_range(0.01..0.4) },
            _ => Query::Within { tol: rng.random_range(0.001..0.1) },
        };
        let queries = clustered(33, d, &mut rng);

        let kd = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, leaf);
        let ball = Evaluator::<Ball>::build(&points, &weights, kernel, BoundMethod::Karl, leaf);

        let seq_kd: Vec<RunOutcome> =
            queries.iter().map(|q| kd.run_query(q, query, None)).collect();
        let seq_ball: Vec<RunOutcome> =
            queries.iter().map(|q| ball.run_query(q, query, None)).collect();
        let complete = |seq: &[RunOutcome]| -> Vec<Result<Outcome, KarlError>> {
            seq.iter().map(|&o| Ok(Outcome::Complete(o))).collect()
        };
        let (want_kd, want_ball) = (complete(&seq_kd), complete(&seq_ball));

        for threads in [1usize, 2, 4, 8] {
            let out_kd = QueryBatch::new(&queries, query).threads(threads).try_run(&kd).unwrap();
            prop_assert_eq!(out_kd.results(), &want_kd[..]);
            prop_assert!(out_kd.threads() >= 1 && out_kd.threads() <= threads);

            let out_ball =
                QueryBatch::new(&queries, query).threads(threads).try_run(&ball).unwrap();
            prop_assert_eq!(out_ball.results(), &want_ball[..]);
        }

        // One shared scratch across all queries must not leak state between
        // them either — this is exactly what each batch worker does.
        let mut scratch = Scratch::new();
        for (q, expect) in queries.iter().zip(&seq_kd) {
            prop_assert_eq!(kd.run_with_scratch(q, query, None, &mut scratch), *expect);
            prop_assert_eq!(
                kd.run_budgeted(q, query, None, &Budget::UNLIMITED, &mut scratch),
                Ok(Outcome::Complete(*expect))
            );
        }
    }
}
