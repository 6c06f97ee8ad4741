//! SIMD backend throughput: what the runtime-dispatched vector kernels
//! buy over the forced-scalar path, measured as same-run controls — the
//! *same process* flips `set_backend` between timed sections, so both
//! rows see identical trees, buffers, cache state and host noise.
//!
//! Two sections mirror the two hot loops the dispatcher feeds:
//!
//! * **bound_kernels** — per-node `[LB, UB]` evaluations/s through
//!   `node_bounds_frozen` (the refinement loop's hot operation), kd and
//!   ball families, SOTA and KARL methods;
//! * **leaf_aggregates** — exact weighted kernel sums/s through
//!   `Scan::aggregate` (the leaf-scan shape: one dist²/dot per point,
//!   4-wide blocked accumulators), plus raw `dist2`/`dot` primitive
//!   sweeps.
//!
//! Every section first asserts the two backends agree **bitwise** on a
//! probe value — the determinism contract, re-checked in the same run
//! the speedup is claimed from.
//!
//! Emits a standalone JSON file when `KARL_BENCH_JSON=<path>` is set,
//! recording the detected ISA next to every ratio. Sizing overrides: `KARL_BENCH_N` (points),
//! `KARL_BENCH_BOUND_QUERIES` (bound-kernel queries).

use std::time::Instant;

use karl_core::{node_bounds_frozen, BoundMethod, Evaluator, Kernel, QueryContext, Scan};
use karl_geom::{backend_name, dist2, dot, set_backend, Ball, PointSet, Rect, SimdChoice};
use karl_kde::scotts_gamma;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_tree::NodeShape;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn reps() -> usize {
    env_usize("KARL_BENCH_REPS", 5)
}

fn synthetic(n: usize, d: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        match i % 4 {
            0 => data.extend((0..d).map(|_| -1.0 + rng.random_range(-0.3..0.3))),
            1 | 2 => data.extend((0..d).map(|_| 1.0 + rng.random_range(-0.3..0.3))),
            _ => data.extend((0..d).map(|_| rng.random_range(-2.5..2.5))),
        }
    }
    PointSet::new(d, data)
}

/// Best-of-[`reps`] wall clock of `f`, converted to operations/sec.
fn measure<F: FnMut()>(ops: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps() {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    ops as f64 / best.max(1e-12)
}

/// One scalar-vs-dispatched row. The scalar and dispatched measurements
/// run back to back under the corresponding forced backend, and `probe`
/// values from both backends must agree bitwise before timing starts.
struct Row {
    section: &'static str,
    label: String,
    dims: usize,
    scalar_per_s: f64,
    dispatched_per_s: f64,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.dispatched_per_s / self.scalar_per_s
    }
}

/// Times `f` under the forced-scalar backend, then under the dispatched
/// one, returning `(scalar_per_s, dispatched_per_s)`. `probe` is invoked
/// once under each backend and its bits must match — the same-run
/// determinism control.
fn scalar_vs_dispatched<F: FnMut(), P: FnMut() -> f64>(
    ops: usize,
    mut probe: P,
    mut f: F,
) -> (f64, f64) {
    set_backend(SimdChoice::Scalar);
    let probe_scalar = probe();
    let scalar = measure(ops, &mut f);
    set_backend(SimdChoice::Auto);
    let probe_dispatched = probe();
    assert_eq!(
        probe_scalar.to_bits(),
        probe_dispatched.to_bits(),
        "determinism contract violated: scalar {probe_scalar:?} vs {} {probe_dispatched:?}",
        backend_name()
    );
    let dispatched = measure(ops, &mut f);
    (scalar, dispatched)
}

fn bench_bounds<S: NodeShape>(
    family: &'static str,
    eval: &Evaluator<S>,
    queries: &PointSet,
    rows: &mut Vec<Row>,
) {
    let frozen = eval.pos_frozen().expect("frozen index is always built");
    let nodes = eval.pos_tree().expect("pos tree").num_nodes();
    let total = nodes * queries.len();
    let kernel = *eval.kernel();
    let d = queries.dims();
    for method in [BoundMethod::Sota, BoundMethod::Karl] {
        let q0 = queries.point(0);
        let (scalar, dispatched) = scalar_vs_dispatched(
            total,
            || {
                let ctx = QueryContext::new(&kernel, method, q0);
                let b = node_bounds_frozen(&ctx, frozen, 0);
                b.lb + b.ub
            },
            || {
                for q in queries.iter() {
                    let ctx = QueryContext::new(&kernel, method, q);
                    for id in 0..nodes as u32 {
                        black_box(node_bounds_frozen(&ctx, frozen, id));
                    }
                }
            },
        );
        rows.push(Row {
            section: "bound_kernels",
            label: format!("{family}/{method:?}"),
            dims: d,
            scalar_per_s: scalar,
            dispatched_per_s: dispatched,
        });
    }
}

fn bench_dims(n: usize, n_queries: usize, d: usize, rows: &mut Vec<Row>) {
    let points = synthetic(n, d, 0xF0_2E);
    let queries = synthetic(n_queries, d, 0xF0_2F);
    let gamma = scotts_gamma(&points);
    let weights = vec![1.0 / n as f64; n];
    let kernel = Kernel::gaussian(gamma);
    println!("\nworkload: {n} points x {d} dims, {n_queries} queries, gamma {gamma:.4}");

    // Trees are built once, under the dispatched backend; the build is
    // backend-independent by contract, so both timed rows share them.
    let kd = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, 80);
    let ball = Evaluator::<Ball>::build(&points, &weights, kernel, BoundMethod::Karl, 80);
    bench_bounds("kd", &kd, &queries, rows);
    bench_bounds("ball", &ball, &queries, rows);

    // Leaf-aggregate shape: one kernel evaluation (dist² or dot) per
    // point, accumulated 4-wide — `Scan::aggregate` is exactly the leaf
    // scan the tree engines run below the frontier.
    for (label, k) in [
        ("scan/gaussian", Kernel::gaussian(gamma)),
        ("scan/polynomial", Kernel::polynomial(0.3, 0.2, 2)),
    ] {
        let scan = Scan::new(points.clone(), weights.clone(), k);
        let q0 = queries.point(0).to_vec();
        let (scalar, dispatched) = scalar_vs_dispatched(
            n * n_queries,
            || scan.aggregate(&q0),
            || {
                for q in queries.iter() {
                    black_box(scan.aggregate(q));
                }
            },
        );
        rows.push(Row {
            section: "leaf_aggregates",
            label: label.to_string(),
            dims: d,
            scalar_per_s: scalar,
            dispatched_per_s: dispatched,
        });
    }

    // Raw primitive sweeps: the dispatcher's floor (no transcendental to
    // hide behind, pure coordinate arithmetic).
    for (label, prim) in [
        ("primitive/dist2", dist2 as fn(&[f64], &[f64]) -> f64),
        ("primitive/dot", dot as fn(&[f64], &[f64]) -> f64),
    ] {
        let q0 = queries.point(0).to_vec();
        let (scalar, dispatched) = scalar_vs_dispatched(
            n * n_queries,
            || prim(&q0, points.point(0)),
            || {
                for q in queries.iter() {
                    for i in 0..points.len() {
                        black_box(prim(q, points.point(i)));
                    }
                }
            },
        );
        rows.push(Row {
            section: "leaf_aggregates",
            label: label.to_string(),
            dims: d,
            scalar_per_s: scalar,
            dispatched_per_s: dispatched,
        });
    }
}

fn main() {
    let n = env_usize("KARL_BENCH_N", 100_000);
    let n_queries = env_usize("KARL_BENCH_BOUND_QUERIES", 64);
    // The ratio is a function of per-call work: at d=8 the non-inlinable
    // `#[target_feature]` call (+ vzeroupper on exit) eats most of the
    // 256-bit win, at d=32 the vector loop amortizes it. Both windows are
    // reported; `KARL_BENCH_DIMS` pins a single one.
    let dims: Vec<usize> = match std::env::var("KARL_BENCH_DIMS") {
        Ok(v) => vec![v.parse().expect("KARL_BENCH_DIMS must be an integer")],
        Err(_) => vec![8, 32],
    };

    // Resolve and report the ISA the dispatched rows will run on.
    let isa = set_backend(SimdChoice::Auto).name();
    println!("dispatched isa: {isa}");
    if isa == "scalar" {
        println!("note: no vector ISA detected; dispatched rows are scalar controls");
    }

    let mut rows = Vec::new();
    for &d in &dims {
        bench_dims(n, n_queries, d, &mut rows);
    }

    println!(
        "\n{:<16} {:<18} {:>5} {:>16} {:>16} {:>8}",
        "section", "row", "dims", "scalar ops/s", "dispatched ops/s", "ratio"
    );
    for r in &rows {
        println!(
            "{:<16} {:<18} {:>5} {:>16.0} {:>16.0} {:>7.2}x",
            r.section,
            r.label,
            r.dims,
            r.scalar_per_s,
            r.dispatched_per_s,
            r.ratio()
        );
    }

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"simd_kernels\",\n");
        json.push_str(&format!("  \"isa\": \"{isa}\",\n"));
        json.push_str(&format!("  \"points\": {n},\n"));
        json.push_str(&format!("  \"queries\": {n_queries},\n"));
        json.push_str(
            "  \"note\": \"same-run controls: one process flips \
             set_backend between the scalar and dispatched timings, and \
             each row's probe value is asserted bitwise identical across \
             backends before timing. bound_kernels counts [LB,UB] node \
             evaluations/s through node_bounds_frozen; leaf_aggregates \
             counts exact weighted kernel sums/s (Scan::aggregate) and \
             raw dist2/dot primitive calls/s. Gaussian scan rows split \
             their time between the dist2 coordinate pass (vectorized) \
             and the exp call (not), so their ratio trails the raw \
             primitive ratio by Amdahl; d=8 rows pay the non-inlinable \
             target_feature call per primitive, d=32 rows amortize it\",\n",
        );
        json.push_str("  \"results\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"section\": \"{}\", \"row\": \"{}\", \"dims\": {}, \
                 \"isa\": \"{isa}\", \
                 \"scalar_per_s\": {:.0}, \"dispatched_per_s\": {:.0}, \
                 \"dispatched_over_scalar\": {:.3}}}{}\n",
                r.section,
                r.label,
                r.dims,
                r.scalar_per_s,
                r.dispatched_per_s,
                r.ratio(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        println!("\nwrote {path}");
    }
}
