//! Anytime-evaluation contract of the refinement [`Budget`]:
//!
//! * an unlimited budget is **bitwise identical** to the unbudgeted path,
//! * every truncated outcome's certified interval encloses the exact
//!   aggregate (the anytime guarantee),
//! * the node / leaf-point / deadline caps each trip with the right
//!   [`TruncateReason`],
//! * budgeted TKAQ degrades to `Undecided` (never a wrong decision) and
//!   budgeted eKAQ reports the relative error it actually achieved.

use std::time::Duration;

use karl::core::{
    aggregate_exact, BoundMethod, Budget, Evaluator, Kernel, Outcome, Query, Scratch, TkaqDecision,
    TruncateReason,
};
use karl::geom::{PointSet, Rect};
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::{prop_assert, prop_assert_eq, props};

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

fn mixed_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let w: f64 = rng.random_range(0.2..2.0);
            if rng.random_bool(0.3) {
                -w
            } else {
                w
            }
        })
        .collect()
}

fn build(seed: u64) -> (Evaluator<Rect>, PointSet, Vec<f64>, Kernel) {
    let ps = clustered(500, 3, seed);
    let w = mixed_weights(500, seed + 1000);
    let kernel = Kernel::gaussian(0.6);
    let eval = Evaluator::<Rect>::build(&ps, &w, kernel, BoundMethod::Karl, 4);
    (eval, ps, w, kernel)
}

#[test]
fn unlimited_budget_is_bitwise_identical_to_run_query() {
    let (eval, ps, _, _) = build(1);
    let query = Query::Ekaq { eps: 0.05 };
    for i in [0, 17, 123] {
        let q = ps.point(i);
        let plain = eval.run_query(q, query, None);
        let budgeted = eval.run_budgeted(q, query, None, &Budget::UNLIMITED, &mut Scratch::new());
        match budgeted.unwrap() {
            Outcome::Complete(out) => {
                assert_eq!(out.lb.to_bits(), plain.lb.to_bits());
                assert_eq!(out.ub.to_bits(), plain.ub.to_bits());
                assert_eq!(out.iterations, plain.iterations);
            }
            Outcome::Truncated { .. } => panic!("unlimited budget truncated"),
        }
    }
}

#[test]
fn generous_budget_is_complete_and_identical() {
    let (eval, ps, _, _) = build(2);
    let query = Query::Within { tol: 1e-6 };
    let q = ps.point(42);
    let plain = eval.run_query(q, query, None);
    let budget = Budget::unlimited().max_nodes(plain.iterations as u64 + 1);
    match eval
        .run_budgeted(q, query, None, &budget, &mut Scratch::new())
        .unwrap()
    {
        Outcome::Complete(out) => {
            assert_eq!(out.lb.to_bits(), plain.lb.to_bits());
            assert_eq!(out.ub.to_bits(), plain.ub.to_bits());
        }
        Outcome::Truncated { reason, .. } => panic!("generous budget truncated: {reason}"),
    }
}

#[test]
fn node_budget_truncates_with_enclosing_interval() {
    let (eval, ps, w, kernel) = build(3);
    let query = Query::Within { tol: 1e-9 };
    for i in [3, 99, 250] {
        let q = ps.point(i);
        let exact = aggregate_exact(&kernel, &ps, &w, q);
        let out = eval
            .run_budgeted(
                q,
                query,
                None,
                &Budget::unlimited().max_nodes(5),
                &mut Scratch::new(),
            )
            .unwrap();
        match out {
            Outcome::Truncated { lb, ub, reason } => {
                assert_eq!(reason, TruncateReason::NodeBudget);
                assert!(lb.is_finite() && ub.is_finite());
                let tol = 1e-9 * (1.0 + exact.abs());
                assert!(
                    lb <= exact + tol && exact <= ub + tol,
                    "truncated interval [{lb}, {ub}] does not enclose {exact}"
                );
            }
            Outcome::Complete(_) => panic!("5-node budget should truncate a 500-point query"),
        }
    }
}

#[test]
fn leaf_budget_trips_with_its_own_reason() {
    let (eval, ps, _, _) = build(4);
    // leaf_capacity = 4 on 500 points: refinement scans leaves almost
    // immediately, so a 1-point leaf budget trips as soon as one leaf is
    // refined exactly.
    let out = eval
        .run_budgeted(
            ps.point(7),
            Query::Within { tol: 1e-9 },
            None,
            &Budget::unlimited().max_leaf_points(1),
            &mut Scratch::new(),
        )
        .unwrap();
    match out {
        Outcome::Truncated { reason, .. } => assert_eq!(reason, TruncateReason::LeafBudget),
        Outcome::Complete(out) => panic!("leaf budget ignored: {out:?}"),
    }
}

#[test]
fn zero_deadline_truncates_deterministically_at_the_root() {
    let (eval, ps, w, kernel) = build(5);
    let q = ps.point(11);
    let exact = aggregate_exact(&kernel, &ps, &w, q);
    // A zero deadline trips at the very first check (elapsed >= 0), so the
    // reported interval is the root-level bound — still certified.
    let out = eval
        .run_budgeted(
            q,
            Query::Within { tol: 1e-9 },
            None,
            &Budget::unlimited().deadline(Duration::ZERO),
            &mut Scratch::new(),
        )
        .unwrap();
    match out {
        Outcome::Truncated { lb, ub, reason } => {
            assert_eq!(reason, TruncateReason::Deadline);
            let tol = 1e-9 * (1.0 + exact.abs());
            assert!(lb <= exact + tol && exact <= ub + tol);
            assert!(out.is_truncated());
        }
        Outcome::Complete(_) => panic!("zero deadline did not trip"),
    }
}

#[test]
fn deadline_after_saturates_and_expired_deadlines_answer_from_the_root() {
    let ms = Duration::from_millis;
    let base = Budget::unlimited();
    // The serving queue maps "deadline minus time spent queued" through
    // deadline_after; pin its saturating arithmetic exactly (Budget is Eq).
    assert_eq!(base.deadline_after(ms(5), ms(0)), base.deadline(ms(5)));
    assert_eq!(base.deadline_after(ms(7), ms(5)), base.deadline(ms(2)));
    assert_eq!(base.deadline_after(ms(5), ms(5)), base.deadline(Duration::ZERO));
    assert_eq!(base.deadline_after(ms(5), ms(600)), base.deadline(Duration::ZERO));
    assert_eq!(
        base.deadline_after(Duration::ZERO, Duration::ZERO),
        base.deadline(Duration::ZERO)
    );

    // A deadline that expired while queued (spent > total) must do ZERO
    // refinement work: its certified interval is the root interval, bit
    // for bit the same one a zero-node budget reports — no frontier pass,
    // no underflow, only the truncation reason differs.
    let (eval, ps, _, _) = build(12);
    let q = ps.point(5);
    let query = Query::Within { tol: 1e-9 };
    let expired = eval
        .run_budgeted(
            q,
            query,
            None,
            &base.deadline_after(ms(3), ms(9)),
            &mut Scratch::new(),
        )
        .unwrap();
    let zero_nodes = eval
        .run_budgeted(q, query, None, &base.max_nodes(0), &mut Scratch::new())
        .unwrap();
    match (expired, zero_nodes) {
        (
            Outcome::Truncated {
                lb: lb_d,
                ub: ub_d,
                reason: r_d,
            },
            Outcome::Truncated {
                lb: lb_n,
                ub: ub_n,
                reason: r_n,
            },
        ) => {
            assert_eq!(r_d, TruncateReason::Deadline);
            assert_eq!(r_n, TruncateReason::NodeBudget);
            assert_eq!(lb_d.to_bits(), lb_n.to_bits(), "root lb must match");
            assert_eq!(ub_d.to_bits(), ub_n.to_bits(), "root ub must match");
        }
        other => panic!("expired deadline must truncate at the root: {other:?}"),
    }
}

#[test]
fn budgeted_tkaq_is_decided_or_honestly_undecided() {
    let (eval, ps, w, kernel) = build(6);
    let q = ps.point(33).to_vec();
    let exact = aggregate_exact(&kernel, &ps, &w, &q);
    let tau = exact + 1e-4; // truth: false, but only barely
    match eval
        .tkaq_budgeted(&q, tau, &Budget::unlimited().max_nodes(2))
        .unwrap()
    {
        TkaqDecision::Decided(ans) => assert_eq!(ans, exact >= tau),
        TkaqDecision::Undecided { lb, ub } => {
            // Undecided means the certified interval still straddles τ —
            // and it must still enclose the exact value.
            assert!(lb < tau && tau <= ub);
            let tol = 1e-9 * (1.0 + exact.abs());
            assert!(lb <= exact + tol && exact <= ub + tol);
        }
    }
    // With no budget pressure the same query decides.
    match eval.tkaq_budgeted(&q, tau, &Budget::UNLIMITED).unwrap() {
        TkaqDecision::Decided(ans) => assert_eq!(ans, exact >= tau),
        TkaqDecision::Undecided { .. } => panic!("unlimited TKAQ must decide"),
    }
}

#[test]
fn budgeted_ekaq_reports_achieved_error() {
    let (eval, ps, _, _) = build(7);
    let ps_pos = ps;
    let w = vec![1.0; ps_pos.len()];
    let kernel = Kernel::gaussian(0.6);
    let eval_pos = Evaluator::<Rect>::build(&ps_pos, &w, kernel, BoundMethod::Karl, 4);
    let _ = eval; // mixed-sign evaluator unused here: the ε contract needs F > 0
    let q = ps_pos.point(21).to_vec();
    let exact = aggregate_exact(&kernel, &ps_pos, &w, &q);

    let complete = eval_pos.ekaq_budgeted(&q, 0.05, &Budget::UNLIMITED).unwrap();
    assert!(complete.truncated.is_none());
    assert!(complete.achieved_eps <= 0.05 + 1e-12);
    assert!((complete.value - exact).abs() <= 0.05 * exact + 1e-9);

    let truncated = eval_pos
        .ekaq_budgeted(&q, 1e-12, &Budget::unlimited().max_nodes(3))
        .unwrap();
    assert!(truncated.truncated.is_some());
    // The midpoint estimate's true error is bounded by the achieved ε it
    // reports (worst case over the certified interval).
    let achieved = truncated.achieved_eps;
    assert!((truncated.value - exact).abs() <= achieved * exact.abs() + 1e-9);
    assert!(truncated.lb <= exact + 1e-9 && exact <= truncated.ub + 1e-9);
    // Tiny requested ε under a 3-node budget cannot possibly be achieved.
    assert!(achieved > 1e-12);
}

props! {
    /// Anytime guarantee as a property: for random queries and random node
    /// budgets, a truncated interval always encloses the oracle's exact
    /// value, and completion always matches the unbudgeted bits.
    #[test]
    fn prop_truncated_intervals_enclose_exact(
        seed in 0u64..25,
        qi in 0usize..500,
        cap in 1u64..40,
    ) {
        let (eval, ps, w, kernel) = build(seed + 100);
        let q = ps.point(qi % ps.len());
        let exact = aggregate_exact(&kernel, &ps, &w, q);
        let query = Query::Within { tol: 1e-7 };
        let budget = Budget::unlimited().max_nodes(cap);
        let out = eval.run_budgeted(q, query, None, &budget, &mut Scratch::new()).unwrap();
        let tol = 1e-9 * (1.0 + exact.abs());
        prop_assert!(out.lb() <= exact + tol && exact <= out.ub() + tol,
            "[{}, {}] misses {exact}", out.lb(), out.ub());
        if let Outcome::Complete(run) = out {
            let plain = eval.run_query(q, query, None);
            prop_assert_eq!(run.lb.to_bits(), plain.lb.to_bits());
            prop_assert_eq!(run.ub.to_bits(), plain.ub.to_bits());
            prop_assert_eq!(run.iterations, plain.iterations);
        }
    }
}
