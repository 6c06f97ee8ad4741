//! Node-bound throughput: how many per-node `[LB, UB]` evaluations per
//! second each engine sustains. This isolates the tentpole win of the
//! frozen SoA index — the refinement loop's hot operation — from query
//! termination effects: every node of the tree is bounded for every
//! query, pointer path (`node_bounds` over the node arena) vs frozen path
//! (`node_bounds_frozen` over the flat buffers through the fused
//! kernels).
//!
//! Emits JSON when `KARL_BENCH_JSON=<path>` is set. Sizing overrides:
//! `KARL_BENCH_N` (points), `KARL_BENCH_BOUND_QUERIES` (queries).

use std::time::Instant;

use karl_core::{node_bounds, node_bounds_frozen, BoundMethod, Evaluator, Kernel, QueryContext};
use karl_geom::{norm2, Ball, PointSet, Rect};
use karl_kde::scotts_gamma;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_tree::{NodeShape, Tree};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of repetitions per measurement (`KARL_BENCH_REPS` override). On a
/// shared host the best-of filter is what rejects scheduler noise, so
/// recorded runs should use more reps than the CI smoke's default.
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

/// Best-of-[`reps`] wall clock of `f`, converted to bound evaluations/sec.
fn measure<F: FnMut()>(evals: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps() {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    evals as f64 / best.max(1e-12)
}

struct Row {
    family: &'static str,
    method: BoundMethod,
    pointer_bounds_per_s: f64,
    frozen_bounds_per_s: f64,
}

fn bench_family<S: NodeShape>(
    family: &'static str,
    eval_karl: &Evaluator<S>,
    queries: &PointSet,
    rows: &mut Vec<Row>,
) {
    let tree: &Tree<S> = eval_karl
        .pos_tree()
        .expect("Type-I workload has a pos tree");
    let frozen = eval_karl
        .pos_frozen()
        .expect("frozen index is always built");
    let nodes = tree.num_nodes();
    let total = nodes * queries.len();
    let kernel = *eval_karl.kernel();

    for method in [BoundMethod::Sota, BoundMethod::Karl] {
        let pointer = measure(total, || {
            for q in queries.iter() {
                let qn = norm2(q);
                for (_, node) in tree.iter_nodes() {
                    black_box(node_bounds(
                        method,
                        &kernel,
                        &node.shape,
                        &node.stats,
                        q,
                        qn,
                    ));
                }
            }
        });
        let froz = measure(total, || {
            for q in queries.iter() {
                let ctx = QueryContext::new(&kernel, method, q);
                for id in 0..nodes as u32 {
                    black_box(node_bounds_frozen(&ctx, frozen, id));
                }
            }
        });
        rows.push(Row {
            family,
            method,
            pointer_bounds_per_s: pointer,
            frozen_bounds_per_s: froz,
        });
    }
}

fn main() {
    let n = env_usize("KARL_BENCH_N", 100_000);
    let n_queries = env_usize("KARL_BENCH_BOUND_QUERIES", 64);
    let d = 8;
    let points = synthetic(n, d, 0xF0_2E);
    let queries = synthetic(n_queries, d, 0xF0_2F);
    let gamma = scotts_gamma(&points);
    let weights = vec![1.0 / n as f64; n];
    let kernel = Kernel::gaussian(gamma);

    let kd = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, 80);
    let ball = Evaluator::<Ball>::build(&points, &weights, kernel, BoundMethod::Karl, 80);
    let nodes = kd.pos_tree().unwrap().num_nodes();
    println!(
        "workload: {n} points x {d} dims, {nodes} nodes, {n_queries} queries, gamma {gamma:.4}"
    );

    let mut rows = Vec::new();
    bench_family("kd", &kd, &queries, &mut rows);
    bench_family("ball", &ball, &queries, &mut rows);

    println!(
        "{:<6} {:<6} {:>16} {:>16} {:>8}",
        "family", "method", "pointer bnd/s", "frozen bnd/s", "ratio"
    );
    for r in &rows {
        println!(
            "{:<6} {:<6} {:>16.0} {:>16.0} {:>7.2}x",
            r.family,
            format!("{:?}", r.method),
            r.pointer_bounds_per_s,
            r.frozen_bounds_per_s,
            r.frozen_bounds_per_s / r.pointer_bounds_per_s
        );
    }

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"frozen_bounds\",\n");
        json.push_str(&format!("  \"points\": {n},\n"));
        json.push_str(&format!("  \"dims\": {d},\n"));
        json.push_str(&format!("  \"queries\": {n_queries},\n"));
        json.push_str(&format!("  \"gamma\": {gamma},\n"));
        json.push_str(
            "  \"note\": \"Karl rows include the envelope construction, \
             which dominates the coordinate pass at d=8; since PR 4 the \
             builder shares the endpoint curve evaluations between range, \
             chord and tangent (6 exps -> 3 for the Gaussian), which is \
             what moves the Karl rows\",\n",
        );
        json.push_str("  \"results\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"family\": \"{}\", \"method\": \"{:?}\", \
                 \"pointer_bounds_per_s\": {:.0}, \"frozen_bounds_per_s\": {:.0}, \
                 \"frozen_over_pointer\": {:.3}}}{}\n",
                r.family,
                r.method,
                r.pointer_bounds_per_s,
                r.frozen_bounds_per_s,
                r.frozen_bounds_per_s / r.pointer_bounds_per_s,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        println!("\nwrote {path}");
    }
}
