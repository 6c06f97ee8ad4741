//! Batch query execution: scoped-thread workers over one evaluator.
//!
//! The paper measures single-query refinement cost; a serving system cares
//! about *throughput over a stream of queries*. This module amortizes the
//! index across a whole batch:
//!
//! * **Parallelism** — `std::thread::scope` workers (no runtime, no
//!   registry dependencies) pull chunks of query indices off an atomic
//!   work-stealing cursor, so skewed per-query refinement cost balances
//!   automatically.
//! * **Allocation reuse** — each worker owns one [`Scratch`] (priority
//!   queue storage + trace buffer) threaded through
//!   [`Evaluator::run_budgeted`], so the per-query hot path performs
//!   zero heap allocations once the buffers reach the workload's
//!   high-water mark.
//! * **Fault containment** — every query runs inside `catch_unwind`, so a
//!   poisoned query yields an `Err` in its own result slot and the rest
//!   of the batch completes normally.
//! * **Determinism** — every query's result is written to its own slot,
//!   each query is evaluated by exactly the same code path as the
//!   sequential [`Evaluator::run_budgeted`], and the heap's refinement
//!   order is a pure function of the query (equal-gap ties break on node
//!   id). A batch result is therefore **bitwise identical** to the
//!   sequential loop, at any thread count.
//!
//! The thread count resolves in order: [`QueryBatch::threads`] override →
//! `KARL_THREADS` environment variable → `available_parallelism`, and is
//! finally capped by the number of queries.
//!
//! ```
//! use karl_core::{BoundMethod, Evaluator, Kernel, Query, QueryBatch};
//! use karl_geom::{PointSet, Rect};
//!
//! let points = PointSet::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
//! let eval = Evaluator::<Rect>::build(
//!     &points, &[1.0, 1.0], Kernel::gaussian(0.5), BoundMethod::Karl, 2);
//! let queries = PointSet::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0]]);
//!
//! let report = QueryBatch::new(&queries, Query::Tkaq { tau: 1.0 })
//!     .threads(2)
//!     .try_run(&eval)
//!     .unwrap();
//! let answers: Vec<f64> = report
//!     .results()
//!     .iter()
//!     .map(|r| report.answer(r.as_ref().unwrap()))
//!     .collect();
//! assert_eq!(answers, vec![1.0, 0.0]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use karl_geom::PointSet;
use karl_tree::NodeShape;

use crate::error::KarlError;
#[cfg(feature = "stats")]
use crate::eval::RunStats;
use crate::eval::{decide_tkaq, estimate_ekaq, Budget, Evaluator, Outcome, Query, Scratch};
use crate::tuning::AnyEvaluator;

/// Queries are handed to workers in index chunks of this size: large enough
/// that the `fetch_add` on the shared cursor is negligible next to even the
/// cheapest query, small enough that a straggler chunk cannot idle the
/// other workers at the end of a batch.
const CHUNK: usize = 16;

/// Between chunks each worker shrinks any scratch buffer that grew past
/// this many elements, so a single adversarial query cannot ratchet a
/// worker's memory for the rest of the batch. Generous enough that
/// ordinary workloads never hit it.
const SCRATCH_CAP: usize = 1 << 15;

/// Resolves the worker count for a batch: explicit request →
/// `KARL_THREADS` → `available_parallelism` → 1. Zero and unparsable
/// values of `KARL_THREADS` are ignored rather than honored as nonsense.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("KARL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sums the run counters of every worker's scratch.
#[cfg(feature = "stats")]
fn merged_stats(scratches: &[Scratch]) -> RunStats {
    let mut s = RunStats::default();
    for sc in scratches {
        s.merge(&sc.stats());
    }
    s
}

/// A set of queries to evaluate under one query specification.
///
/// Built once, runnable against any evaluator whose dimensionality matches;
/// see the [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct QueryBatch<'a> {
    queries: &'a PointSet,
    query: Query,
    threads: Option<usize>,
    level_cap: Option<u16>,
    budget: Budget,
}

impl<'a> QueryBatch<'a> {
    /// Creates a batch of `queries` all answering `query`.
    ///
    /// # Panics
    /// Panics if the query's parameter is invalid (non-finite `τ`,
    /// `eps <= 0` or `tol <= 0`) — validated here once instead of per
    /// query. Use [`try_new`](Self::try_new) for a typed rejection.
    pub fn new(queries: &'a PointSet, query: Query) -> Self {
        Self::try_new(queries, query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating constructor: rejects invalid query parameters with a
    /// typed [`KarlError`] (`InvalidTau` / `InvalidEps` / `InvalidTol`)
    /// instead of panicking.
    pub fn try_new(queries: &'a PointSet, query: Query) -> Result<Self, KarlError> {
        query.validate()?;
        Ok(Self {
            queries,
            query,
            threads: None,
            level_cap: None,
            budget: Budget::UNLIMITED,
        })
    }

    /// Overrides the worker count (otherwise `KARL_THREADS` /
    /// `available_parallelism`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "thread count must be at least 1");
        self.threads = Some(n);
        self
    }

    /// Restricts refinement to the top `level` tree levels (the simulated
    /// tree of the in-situ tuner).
    pub fn level_cap(mut self, level: u16) -> Self {
        self.level_cap = Some(level);
        self
    }

    /// Applies a per-query refinement [`Budget`] (default unlimited).
    /// Queries that exhaust theirs report `Outcome::Truncated` with the
    /// certified interval at stop time.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Evaluates the batch against `eval`. Every query runs through the
    /// validated, budget-aware [`Evaluator::run_budgeted`] inside
    /// `catch_unwind`, so one poisoned query (non-finite point, or a panic
    /// in the refinement loop) yields an `Err` in **its own result slot**
    /// while every other query completes normally — with outcomes bitwise
    /// identical to an all-healthy run.
    ///
    /// A worker whose query panicked discards its [`Scratch`] (the
    /// buffers may hold partially-updated state) and continues the batch
    /// with a fresh one; [`BatchReport::quarantined`] counts how often
    /// that happened. Batch-level defects — mismatched dimensionality,
    /// an invalid query spec — fail the whole call instead.
    pub fn try_run<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
    ) -> Result<BatchReport, KarlError> {
        if self.queries.dims() != eval.dims() {
            return Err(KarlError::DimMismatch {
                expected: eval.dims(),
                got: self.queries.dims(),
            });
        }
        self.query.validate()?;
        let n = self.queries.len();
        let threads = resolve_threads(self.threads).min(n.max(1));
        let start = Instant::now();
        let (results, scratches, quarantined) = if threads <= 1 {
            let mut scratch = Scratch::new();
            let mut quarantined = 0usize;
            let out = (0..n)
                .map(|i| self.run_one_contained(eval, i, &mut scratch, &mut quarantined))
                .collect();
            (out, vec![scratch], quarantined)
        } else {
            self.run_parallel(eval, n, threads)
        };
        let elapsed = start.elapsed();
        #[cfg(feature = "stats")]
        let stats = merged_stats(&scratches);
        let _ = scratches;
        Ok(BatchReport {
            query: self.query,
            threads,
            elapsed,
            results,
            quarantined,
            #[cfg(feature = "stats")]
            stats,
        })
    }

    /// [`try_run`](Self::try_run) over a runtime-dispatched evaluator.
    pub fn try_run_any(&self, eval: &AnyEvaluator) -> Result<BatchReport, KarlError> {
        match eval {
            AnyEvaluator::Kd(e) => self.try_run(e),
            AnyEvaluator::Ball(e) => self.try_run(e),
        }
    }

    /// Evaluates query `i` with panic containment. On a panic the scratch
    /// is quarantined — replaced wholesale rather than reused — because an
    /// unwind can leave its buffers in a partially-updated state.
    fn run_one_contained<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        i: usize,
        scratch: &mut Scratch,
        quarantined: &mut usize,
    ) -> Result<Outcome, KarlError> {
        // AssertUnwindSafe audit: the closure mutates only `scratch`, and
        // the catch arm below discards that scratch instead of reusing it,
        // so no broken invariant can escape the unwind.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let q = self.queries.point(i);
            #[cfg(feature = "fault-inject")]
            let nan_q: Vec<f64>;
            #[cfg(feature = "fault-inject")]
            let q = match crate::fault::planned(i) {
                Some(crate::fault::Fault::Panic) => panic!("injected fault at query {i}"),
                Some(crate::fault::Fault::Nan) => {
                    nan_q = vec![f64::NAN; self.queries.dims()];
                    &nan_q[..]
                }
                None => q,
            };
            eval.run_budgeted(q, self.query, self.level_cap, &self.budget, scratch)
        }));
        match attempt {
            Ok(result) => result,
            Err(payload) => {
                *scratch = Scratch::new();
                *quarantined += 1;
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(KarlError::QueryPanicked { index: i, message })
            }
        }
    }

    fn run_parallel<S: NodeShape + Sync>(
        &self,
        eval: &Evaluator<S>,
        n: usize,
        threads: usize,
    ) -> (Vec<Result<Outcome, KarlError>>, Vec<Scratch>, usize) {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = Scratch::new();
                        let mut quarantined = 0usize;
                        let mut local: Vec<(usize, Result<Outcome, KarlError>)> =
                            Vec::with_capacity(n / threads + CHUNK);
                        loop {
                            let lo = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                            if lo >= n {
                                break;
                            }
                            let hi = (lo + CHUNK).min(n);
                            for i in lo..hi {
                                let r =
                                    self.run_one_contained(eval, i, &mut scratch, &mut quarantined);
                                local.push((i, r));
                            }
                            // Bound the worker's memory between chunks: one
                            // adversarial query must not ratchet allocations
                            // for the rest of the batch. A no-op while every
                            // buffer stays under the cap.
                            scratch.reset_with_capacity_cap(SCRATCH_CAP);
                        }
                        (local, scratch, quarantined)
                    })
                })
                .collect();
            // Stitch the stolen chunks back into query order; this is what
            // makes the results independent of scheduling.
            let mut out: Vec<Result<Outcome, KarlError>> = Vec::with_capacity(n);
            out.resize_with(n, || Err(KarlError::EmptyPoints));
            let mut scratches = Vec::with_capacity(threads);
            let mut quarantined = 0usize;
            for w in workers {
                // Worker threads never panic for query-level faults —
                // those are contained per slot — so this join only fails
                // on harness-level bugs.
                let (local, scratch, q) = w.join().expect("batch worker panicked");
                for (i, r) in local {
                    out[i] = r;
                }
                scratches.push(scratch);
                quarantined += q;
            }
            (out, scratches, quarantined)
        })
    }
}

/// Result of a fault-contained [`QueryBatch::try_run`]: one
/// `Result<Outcome, KarlError>` per query, in query order. Healthy
/// queries carry the same bits they would in an all-healthy run; poisoned
/// queries carry the error that took them down.
#[derive(Debug, Clone)]
pub struct BatchReport {
    query: Query,
    threads: usize,
    elapsed: Duration,
    results: Vec<Result<Outcome, KarlError>>,
    quarantined: usize,
    #[cfg(feature = "stats")]
    stats: RunStats,
}

impl BatchReport {
    /// Per-query results, in query order.
    pub fn results(&self) -> &[Result<Outcome, KarlError>] {
        &self.results
    }

    /// The query specification the batch answered.
    pub fn query(&self) -> Query {
        self.query
    }

    /// Worker threads the run actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Wall-clock time of the run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// How many times a worker discarded its scratch after containing a
    /// panic (at most once per failed query).
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the batch held no queries.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Indices of the queries that failed, in query order.
    pub fn failed_indices(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect()
    }

    /// Number of queries that completed (possibly truncated) successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Whether any query failed.
    pub fn has_failures(&self) -> bool {
        self.results.iter().any(|r| r.is_err())
    }

    /// Number of queries whose budget tripped before termination.
    pub fn truncated_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Ok(o) if o.is_truncated()))
            .count()
    }

    /// Number of queries that ran to their normal termination — succeeded
    /// and were *not* budget-truncated. `completed_count() +
    /// truncated_count() + failed_indices().len()` always equals
    /// [`len`](Self::len).
    pub fn completed_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Ok(o) if !o.is_truncated()))
            .count()
    }

    /// Queries answered per second.
    pub fn throughput(&self) -> f64 {
        self.results.len() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Scalar answer for one successful outcome under this batch's query
    /// spec: the TKAQ decision as `1.0`/`0.0`, the eKAQ estimate or the
    /// Within midpoint, bit-for-bit equal to [`AnyEvaluator::answer`] on
    /// complete outcomes. Truncated outcomes degrade to the certified-interval
    /// midpoint (eKAQ / Within) or to the midpoint decision (TKAQ — use
    /// [`Outcome::is_truncated`] to tell an honest decision apart).
    pub fn answer(&self, out: &Outcome) -> f64 {
        match (*out, self.query) {
            (Outcome::Complete(run), Query::Tkaq { tau }) => {
                if decide_tkaq(&run, tau) {
                    1.0
                } else {
                    0.0
                }
            }
            (Outcome::Truncated { lb, ub, .. }, Query::Tkaq { tau }) => {
                if 0.5 * (lb + ub) >= tau {
                    1.0
                } else {
                    0.0
                }
            }
            (Outcome::Complete(run), Query::Ekaq { .. }) => estimate_ekaq(&run),
            (Outcome::Complete(run), Query::Within { .. }) => 0.5 * (run.lb + run.ub),
            (Outcome::Truncated { lb, ub, .. }, Query::Ekaq { .. } | Query::Within { .. }) => {
                0.5 * (lb + ub)
            }
        }
    }

    /// Run counters summed across all workers (behind the `stats`
    /// feature).
    #[cfg(feature = "stats")]
    pub fn stats(&self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::BoundMethod;
    use crate::kernel::Kernel;
    use karl_geom::{Ball, Rect};
    use karl_testkit::rng::{Rng, SeedableRng, StdRng};

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

    /// The sequential reference: one fresh-scratch run per query.
    fn sequential<S: NodeShape>(
        eval: &Evaluator<S>,
        queries: &PointSet,
        query: Query,
        level_cap: Option<u16>,
    ) -> Vec<Result<Outcome, KarlError>> {
        queries
            .iter()
            .map(|q| {
                eval.run_budgeted(q, query, level_cap, &Budget::UNLIMITED, &mut Scratch::new())
            })
            .collect()
    }

    fn answers(report: &BatchReport) -> Vec<f64> {
        report
            .results()
            .iter()
            .map(|r| report.answer(r.as_ref().unwrap()))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_every_thread_count() {
        let ps = clustered_points(400, 3, 1);
        let w = mixed_weights(400, 2);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
        let queries = clustered_points(67, 3, 3);
        for query in [
            Query::Tkaq { tau: 0.2 },
            Query::Ekaq { eps: 0.15 },
            Query::Within { tol: 0.05 },
        ] {
            let expect = sequential(&eval, &queries, query, None);
            for (r, q) in expect.iter().zip(queries.iter()) {
                assert_eq!(*r, Ok(Outcome::Complete(eval.run_query(q, query, None))));
            }
            for threads in [1, 2, 4, 8] {
                let batch = QueryBatch::new(&queries, query)
                    .threads(threads)
                    .try_run(&eval)
                    .unwrap();
                assert_eq!(batch.results(), &expect[..], "{query:?} x{threads}");
                assert!(batch.threads() <= threads);
            }
        }
    }

    #[cfg(feature = "stats")]
    #[test]
    fn batch_stats_aggregate_across_workers() {
        let ps = clustered_points(300, 3, 25);
        let w = mixed_weights(300, 26);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.6), BoundMethod::Karl, 8);
        let base = clustered_points(8, 3, 27);
        let queries = PointSet::new(
            3,
            (0..32).flat_map(|i| base.point(i % 8).to_vec()).collect(),
        );
        let query = Query::Ekaq { eps: 0.1 };
        let seq = QueryBatch::new(&queries, query)
            .threads(1)
            .try_run(&eval)
            .unwrap();
        let par = QueryBatch::new(&queries, query)
            .threads(4)
            .try_run(&eval)
            .unwrap();
        let total_iterations: u64 = seq
            .results()
            .iter()
            .map(|r| match r {
                Ok(Outcome::Complete(o)) => o.iterations as u64,
                other => panic!("unexpected result {other:?}"),
            })
            .sum();
        // Refinement work is a pure function of the queries.
        assert_eq!(
            seq.stats().nodes_refined,
            total_iterations,
            "nodes_refined counts heap pops"
        );
        assert_eq!(seq.stats().nodes_refined, par.stats().nodes_refined);
        assert_eq!(seq.stats().envelopes_built, par.stats().envelopes_built);
        assert_eq!(seq.stats().curve_value_calls, par.stats().curve_value_calls);
        assert!(seq.stats().envelopes_built > 0);
    }

    #[test]
    fn batch_works_over_ball_trees_and_any_evaluator() {
        let ps = clustered_points(200, 2, 4);
        let w = vec![1.0; 200];
        let kernel = Kernel::gaussian(0.5);
        let ball = Evaluator::<Ball>::build(&ps, &w, kernel, BoundMethod::Karl, 16);
        let queries = clustered_points(20, 2, 5);
        let batch = QueryBatch::new(&queries, Query::Ekaq { eps: 0.1 }).threads(3);
        let direct = batch.try_run(&ball).unwrap();
        let any = AnyEvaluator::Ball(ball);
        let dispatched = batch.try_run_any(&any).unwrap();
        assert_eq!(direct.results(), dispatched.results());
        for (est, q) in answers(&dispatched).iter().zip(queries.iter()) {
            assert_eq!(*est, any.ekaq(q, 0.1));
        }
    }

    #[test]
    fn decisions_match_scalar_tkaq() {
        let ps = clustered_points(150, 2, 6);
        let w = mixed_weights(150, 7);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.8), BoundMethod::Karl, 8);
        let queries = clustered_points(30, 2, 8);
        let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.1 })
            .threads(4)
            .try_run(&eval)
            .unwrap();
        let expect: Vec<f64> = queries
            .iter()
            .map(|q| if eval.tkaq(q, 0.1) { 1.0 } else { 0.0 })
            .collect();
        assert_eq!(answers(&report), expect);
        assert_eq!(report.len(), 30);
        assert_eq!(report.completed_count(), 30);
    }

    #[test]
    fn intervals_respect_the_tolerance() {
        let ps = clustered_points(200, 2, 9);
        let w = mixed_weights(200, 10);
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.9), BoundMethod::Karl, 8);
        let queries = clustered_points(15, 2, 11);
        let report = QueryBatch::new(&queries, Query::Within { tol: 0.02 })
            .threads(2)
            .try_run(&eval)
            .unwrap();
        for r in report.results() {
            let o = r.as_ref().unwrap();
            assert!(!o.is_truncated());
            assert!(0.5 * (o.ub() - o.lb()) <= 0.01 + 1e-12);
            assert!(report.answer(o).is_finite());
        }
    }

    #[test]
    fn level_cap_is_forwarded() {
        let ps = clustered_points(128, 2, 12);
        let w = vec![1.0; 128];
        let eval = Evaluator::<Rect>::build(&ps, &w, Kernel::gaussian(0.7), BoundMethod::Karl, 1);
        let queries = clustered_points(10, 2, 13);
        let query = Query::Ekaq { eps: 0.1 };
        let report = QueryBatch::new(&queries, query)
            .level_cap(2)
            .threads(2)
            .try_run(&eval)
            .unwrap();
        assert_eq!(
            report.results(),
            &sequential(&eval, &queries, query, Some(2))[..]
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let ps = clustered_points(10, 2, 14);
        let eval =
            Evaluator::<Rect>::build(&ps, &[1.0; 10], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        let queries = PointSet::empty(2);
        let report = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
            .threads(4)
            .try_run(&eval)
            .unwrap();
        assert!(report.is_empty());
        assert!(!report.has_failures());
    }

    #[test]
    fn dimension_mismatch_is_rejected_at_batch_entry() {
        let ps = clustered_points(10, 3, 15);
        let eval =
            Evaluator::<Rect>::build(&ps, &[1.0; 10], Kernel::gaussian(1.0), BoundMethod::Karl, 4);
        let queries = clustered_points(5, 2, 16);
        let err = QueryBatch::new(&queries, Query::Tkaq { tau: 0.5 })
            .try_run(&eval)
            .unwrap_err();
        assert_eq!(
            err,
            KarlError::DimMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    #[should_panic]
    fn non_positive_eps_panics_at_construction() {
        let queries = clustered_points(5, 2, 17);
        QueryBatch::new(&queries, Query::Ekaq { eps: 0.0 });
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
