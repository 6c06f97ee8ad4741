//! Validated constructors vs. the adversarial-input generator: every
//! hostile case must either be rejected with the *right* [`KarlError`]
//! variant (index-level diagnostics included) or — when structurally
//! valid — build an evaluator whose answers match the brute-force oracle,
//! denormals, duplicates, mixed signs, extreme γ and all.

use karl::core::{BoundMethod, Budget, Evaluator, KarlError, Kernel, Query, QueryBatch, Scratch};
use karl::geom::{Ball, PointSet, Rect};
use karl_testkit::adversarial::{adversarial_case, shape_edge_case, Expected};
use karl_testkit::oracle::exact_sum;
use karl_testkit::{prop_assert, prop_assert_eq, props};

props! {
    /// The tentpole property: constructor verdicts match the generator's
    /// tags, and accepted inputs answer correctly.
    #[test]
    fn prop_validated_build_matches_expected_verdict(seed in 0u64..300) {
        let case = adversarial_case(seed);
        let points = PointSet::new(case.dims, case.data.clone());
        let kernel = Kernel::gaussian(case.gamma);
        let built =
            Evaluator::<Rect>::try_build(&points, &case.weights, kernel, BoundMethod::Karl, 4);
        match case.expected {
            Expected::Accept => {
                let eval = match built {
                    Ok(e) => e,
                    Err(e) => panic!("valid case rejected: {e}"),
                };
                // Oracle agreement on an exact-interval query at a data point.
                let q = points.point(0);
                let exact = exact_sum(points.iter(), &case.weights, q, |a, b| kernel.eval(a, b));
                let out = eval.run_query(q, Query::Within { tol: 1e-12 }, None);
                // The evaluator computes distances via the norm identity,
                // the oracle via direct differences; at the generator's
                // coordinate/γ extremes the two agree to ~γ·‖x‖²·ε, which
                // this tolerance dominates.
                let tol = 1e-5 * (1.0 + exact.abs());
                prop_assert!(out.lb <= exact + tol && exact <= out.ub + tol,
                    "[{}, {}] misses oracle {exact}", out.lb, out.ub);
            }
            Expected::NonFinitePoint { index, dim } => {
                match built {
                    Err(KarlError::NonFinitePoint { index: i, dim: d, value }) => {
                        prop_assert_eq!(i, index);
                        prop_assert_eq!(d, dim);
                        prop_assert!(!value.is_finite());
                    }
                    other => panic!("expected NonFinitePoint({index},{dim}), got {other:?}"),
                }
            }
            Expected::NonFiniteWeight { index } => {
                match built {
                    Err(KarlError::NonFiniteWeight { index: i, value }) => {
                        prop_assert_eq!(i, index);
                        prop_assert!(!value.is_finite());
                    }
                    other => panic!("expected NonFiniteWeight({index}), got {other:?}"),
                }
            }
            Expected::AllZeroWeights => {
                prop_assert!(
                    matches!(built, Err(KarlError::AllZeroWeights)),
                    "expected AllZeroWeights, got {:?}", built.err()
                );
            }
        }
    }
}

props! {
    /// Shape edges: every SIMD tail length (n = 1..=7) crossed with odd
    /// dimensionalities, at leaf capacities that make the whole tree one
    /// tiny leaf or a few near-degenerate nodes. Verdicts must stay typed
    /// and accepted cases must still bracket the oracle — under both
    /// bounding families, so the vector kernels' scalar tails are hit on
    /// every code path.
    #[test]
    fn prop_shape_edges_build_and_answer_or_reject_typed(seed in 0u64..300) {
        let case = shape_edge_case(seed);
        let points = PointSet::new(case.dims, case.data.clone());
        let kernel = Kernel::gaussian(case.gamma);
        for leaf in [1usize, 2, 8] {
            let rect =
                Evaluator::<Rect>::try_build(&points, &case.weights, kernel, BoundMethod::Karl, leaf);
            let ball =
                Evaluator::<Ball>::try_build(&points, &case.weights, kernel, BoundMethod::Karl, leaf);
            match case.expected {
                Expected::Accept => {
                    let (rect, ball) = match (rect, ball) {
                        (Ok(r), Ok(b)) => (r, b),
                        (r, b) => panic!("valid tiny case rejected: {:?} / {:?}",
                            r.err(), b.err()),
                    };
                    let q = points.point(0);
                    let exact =
                        exact_sum(points.iter(), &case.weights, q, |a, b| kernel.eval(a, b));
                    let tol = 1e-5 * (1.0 + exact.abs());
                    for out in [
                        rect.run_query(q, Query::Within { tol: 1e-12 }, None),
                        ball.run_query(q, Query::Within { tol: 1e-12 }, None),
                    ] {
                        prop_assert!(out.lb <= exact + tol && exact <= out.ub + tol,
                            "n={} d={} leaf={leaf}: [{}, {}] misses oracle {exact}",
                            case.len(), case.dims, out.lb, out.ub);
                    }
                }
                Expected::NonFinitePoint { index, dim } => {
                    for built in [rect.err(), ball.map(|_| ()).err()] {
                        match built {
                            Some(KarlError::NonFinitePoint { index: i, dim: d, value }) => {
                                prop_assert_eq!(i, index);
                                prop_assert_eq!(d, dim);
                                prop_assert!(!value.is_finite());
                            }
                            other => panic!("expected NonFinitePoint({index},{dim}), got {other:?}"),
                        }
                    }
                }
                Expected::NonFiniteWeight { index } => {
                    for built in [rect.err(), ball.map(|_| ()).err()] {
                        match built {
                            Some(KarlError::NonFiniteWeight { index: i, value }) => {
                                prop_assert_eq!(i, index);
                                prop_assert!(!value.is_finite());
                            }
                            other => panic!("expected NonFiniteWeight({index}), got {other:?}"),
                        }
                    }
                }
                Expected::AllZeroWeights => {
                    prop_assert!(matches!(rect, Err(KarlError::AllZeroWeights)));
                    prop_assert!(matches!(ball, Err(KarlError::AllZeroWeights)));
                }
            }
        }
    }
}

#[test]
fn empty_ranges_panic_in_geometry_builders() {
    // Shape satellite: empty index sets are a caller bug, caught loudly at
    // the geometry boundary rather than producing a garbage rectangle.
    let points = PointSet::new(3, vec![0.0, 1.0, 2.0]);
    assert!(std::panic::catch_unwind(|| Rect::bounding(&points, &[])).is_err());
    assert!(std::panic::catch_unwind(|| Rect::bounding_range(&points, 1, 1)).is_err());
}

#[test]
fn invalid_parameters_are_rejected_with_typed_errors() {
    assert!(matches!(
        Kernel::try_gaussian(0.0),
        Err(KarlError::InvalidGamma { value }) if value == 0.0
    ));
    assert!(matches!(
        Kernel::try_gaussian(f64::NAN),
        Err(KarlError::InvalidGamma { .. })
    ));
    assert!(matches!(
        Kernel::try_polynomial(1.0, f64::INFINITY, 2),
        Err(KarlError::InvalidCoef0 { .. })
    ));
    assert!(matches!(
        Kernel::try_sigmoid(-1.0, 0.0),
        Err(KarlError::InvalidGamma { .. })
    ));
    // Extreme but valid γ is accepted.
    assert!(Kernel::try_gaussian(1e-300).is_ok());
    assert!(Kernel::try_laplacian(1e300).is_ok());

    let points = PointSet::new(2, vec![0.0, 0.0, 1.0, 1.0]);
    assert!(matches!(
        Evaluator::<Rect>::try_build(&points, &[1.0, 1.0], Kernel::gaussian(1.0),
            BoundMethod::Karl, 0),
        Err(KarlError::InvalidLeafCapacity)
    ));
    assert!(matches!(
        Evaluator::<Rect>::try_build(&points, &[1.0], Kernel::gaussian(1.0),
            BoundMethod::Karl, 2),
        Err(KarlError::LengthMismatch { expected: 2, got: 1 })
    ));

    let eval =
        Evaluator::<Rect>::try_build(&points, &[1.0, 1.0], Kernel::gaussian(1.0), BoundMethod::Karl, 2)
            .unwrap();
    let run = |q: &[f64], query: Query| {
        eval.run_budgeted(q, query, None, &Budget::UNLIMITED, &mut Scratch::new())
    };
    assert!(matches!(
        run(&[0.0], Query::Tkaq { tau: 0.5 }),
        Err(KarlError::DimMismatch { expected: 2, got: 1 })
    ));
    assert!(matches!(
        run(&[f64::NAN, 0.0], Query::Tkaq { tau: 0.5 }),
        Err(KarlError::NonFiniteQuery { dim: 0, .. })
    ));
    assert!(matches!(
        run(&[0.0, 0.0], Query::Ekaq { eps: -1.0 }),
        Err(KarlError::InvalidEps { .. })
    ));
    assert!(matches!(
        run(&[0.0, 0.0], Query::Within { tol: 0.0 }),
        Err(KarlError::InvalidTol { .. })
    ));
    // The same parameter rule, checked without an evaluator.
    assert!(matches!(
        Query::Tkaq { tau: f64::NAN }.validate(),
        Err(KarlError::InvalidTau { .. })
    ));
    assert!(matches!(
        Query::Ekaq { eps: f64::INFINITY }.validate(),
        Err(KarlError::InvalidEps { .. })
    ));
    assert!(Query::Tkaq { tau: f64::INFINITY }.validate().is_ok());
}

#[test]
fn batch_rejects_dim_mismatch_in_release_builds() {
    // Satellite (a): the batch-entry dimension check is a checked error,
    // not a debug_assert, so release builds reject it too.
    let points = PointSet::new(3, vec![0.0; 9]);
    let eval = Evaluator::<Rect>::try_build(
        &points,
        &[1.0, 1.0, 1.0],
        Kernel::gaussian(1.0),
        BoundMethod::Karl,
        2,
    )
    .unwrap();
    let queries = PointSet::new(2, vec![0.0; 4]);
    let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 }).try_run(&eval);
    assert!(matches!(
        report,
        Err(KarlError::DimMismatch { expected: 3, got: 2 })
    ));
    // Batch-level construction errors are typed as well.
    assert!(matches!(
        QueryBatch::try_new(&queries, Query::Ekaq { eps: 0.0 }),
        Err(KarlError::InvalidEps { .. })
    ));
}

#[test]
fn error_display_carries_index_level_diagnostics() {
    let e = KarlError::NonFinitePoint {
        index: 7,
        dim: 2,
        value: f64::NEG_INFINITY,
    };
    let msg = e.to_string();
    assert!(msg.contains('7') && msg.contains('2'), "{msg}");
    let e = KarlError::QueryPanicked {
        index: 12,
        message: "boom".into(),
    };
    assert!(e.to_string().contains("12") && e.to_string().contains("boom"));
}
