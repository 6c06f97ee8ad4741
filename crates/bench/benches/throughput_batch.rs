//! Batch-engine throughput: the sequential per-query loop (baseline) vs
//! scratch reuse and the `QueryBatch` executor at 1/2/4/8 worker threads,
//! over a synthetic 100 000-point Type-I workload.
//!
//! Unlike the other bench targets this one measures whole-batch wall
//! clock (the quantity the batch engine optimizes), not per-call latency,
//! and can emit machine-readable JSON: set `KARL_BENCH_JSON=<path>` and
//! the results are written there. Sizing overrides: `KARL_BENCH_N`
//! (points), `KARL_BENCH_QUERIES` (queries).

use std::time::Instant;

use karl_core::{BoundMethod, Evaluator, KdEvaluator, Kernel, Query, QueryBatch, Scratch};
use karl_geom::PointSet;
use karl_kde::scotts_gamma;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

/// Timing repetitions per mode; the fastest is reported (standard
/// best-of-N to shed scheduler noise).
const REPS: usize = 3;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Two Gaussian blobs plus uniform background, mirroring the registry's
/// Type-I densities: queries near a blob terminate in a handful of
/// refinements, background queries walk deeper — realistic skew for the
/// work-stealing cursor.
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

struct Measurement {
    mode: &'static str,
    threads: usize,
    queries_per_s: f64,
}

/// Best-of-`REPS` wall-clock of `f`, converted to queries/second.
fn measure<F: FnMut()>(n_queries: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    n_queries as f64 / best.max(1e-12)
}

fn run_workload(
    label: &str,
    eval: &KdEvaluator,
    queries: &PointSet,
    query: Query,
    out: &mut Vec<(String, Vec<Measurement>)>,
) {
    let mut results = Vec::new();

    // The per-query API, fresh buffers each call — exactly what a caller
    // without the batch engine writes. Every speedup below is relative to
    // this.
    results.push(Measurement {
        mode: "sequential",
        threads: 1,
        queries_per_s: measure(queries.len(), || {
            for q in queries.iter() {
                black_box(eval.run_query(q, query, None));
            }
        }),
    });

    // Scratch reuse alone (no threading): isolates the allocation-reuse
    // win, which is the whole story on single-core hosts.
    results.push(Measurement {
        mode: "sequential_scratch",
        threads: 1,
        queries_per_s: measure(queries.len(), || {
            let mut scratch = Scratch::new();
            for q in queries.iter() {
                black_box(eval.run_with_scratch(q, query, None, &mut scratch));
            }
        }),
    });

    for threads in [1usize, 2, 4, 8] {
        let spec = QueryBatch::new(queries, query).threads(threads);
        results.push(Measurement {
            mode: "batch",
            threads,
            queries_per_s: measure(queries.len(), || {
                black_box(spec.try_run(eval).expect("valid batch"));
            }),
        });
    }

    let base = results[0].queries_per_s;
    println!("\n== throughput_batch/{label} ==");
    println!(
        "{:<20} {:>7} {:>12} {:>8}",
        "mode", "threads", "queries/s", "speedup"
    );
    for m in &results {
        println!(
            "{:<20} {:>7} {:>12.0} {:>7.2}x",
            m.mode,
            m.threads,
            m.queries_per_s,
            m.queries_per_s / base
        );
    }
    out.push((label.to_string(), results));
}

fn main() {
    let n = env_usize("KARL_BENCH_N", 100_000);
    let n_queries = env_usize("KARL_BENCH_QUERIES", 2_000);
    let d = 8;
    let points = synthetic(n, d, 0xBA7C4);
    let queries = synthetic(n_queries, d, 0xBA7C5);
    let gamma = scotts_gamma(&points);
    let weights = vec![1.0 / n as f64; n];
    let eval = Evaluator::build(
        &points,
        &weights,
        Kernel::gaussian(gamma),
        BoundMethod::Karl,
        80,
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload: {n} points x {d} dims, {n_queries} queries, gamma {gamma:.4}, \
         available_parallelism {parallelism}"
    );

    let mut all: Vec<(String, Vec<Measurement>)> = Vec::new();
    run_workload("ekaq", &eval, &queries, Query::Ekaq { eps: 0.2 }, &mut all);
    // Threshold near the bulk of the density so TKAQ queries are not all
    // trivially decidable at the root.
    let tau = {
        let mut vals: Vec<f64> = queries
            .iter()
            .take(64)
            .map(|q| eval.ekaq(q, 0.05))
            .collect();
        vals.sort_by(f64::total_cmp);
        vals[vals.len() / 2]
    };
    run_workload("tkaq", &eval, &queries, Query::Tkaq { tau }, &mut all);

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"throughput_batch\",\n");
        json.push_str(&format!("  \"points\": {n},\n"));
        json.push_str(&format!("  \"dims\": {d},\n"));
        json.push_str(&format!("  \"queries\": {n_queries},\n"));
        json.push_str(&format!("  \"gamma\": {gamma},\n"));
        json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
        json.push_str(
            "  \"note\": \"thread-count speedups are bounded above by \
             available_parallelism; on a 1-core host only the scratch-reuse \
             gain can materialize\",\n",
        );
        json.push_str("  \"workloads\": {\n");
        for (wi, (label, results)) in all.iter().enumerate() {
            let base = results[0].queries_per_s;
            json.push_str(&format!("    \"{label}\": [\n"));
            for (i, m) in results.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"mode\": \"{}\", \"threads\": {}, \"queries_per_s\": {:.1}, \
                     \"speedup_vs_sequential\": {:.3}}}{}\n",
                    m.mode,
                    m.threads,
                    m.queries_per_s,
                    m.queries_per_s / base,
                    if i + 1 < results.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!(
                "    ]{}\n",
                if wi + 1 < all.len() { "," } else { "" }
            ));
        }
        json.push_str("  }\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        println!("\nwrote {path}");
    }
}
