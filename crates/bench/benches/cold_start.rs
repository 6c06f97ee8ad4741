//! Cold-start cost: rebuilding an evaluator from raw points vs loading
//! the persisted index file, at three dataset sizes.
//!
//! This is the number the persistence tier exists for — `karl index
//! build` is paid once, and every later process start replaces an
//! O(n log n) tree construction with a single bulk read plus checksum
//! walk (zero per-node work; the loaded evaluator answers bitwise
//! identically, which this bench re-verifies on a query probe each run).
//!
//! Wall clock is best-of-N like the other throughput benches. Set
//! `KARL_BENCH_JSON=<path>` for machine-readable output, written there as
//! a standalone file. Sizing override: `KARL_BENCH_COLD_N` sets the
//! largest size; the other two are N/16 and N/4.

use std::time::Instant;

use karl_core::{
    BoundMethod, Evaluator, IndexMeta, KdEvaluator, Kernel, Query, StorageCalibration,
    StorageProfile,
};
use karl_geom::PointSet;
use karl_kde::scotts_gamma;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};

/// Timing repetitions per mode; the fastest is reported.
const REPS: usize = 5;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Blobs plus background, same family as the throughput workloads.
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

/// Best-of-`REPS` wall clock of `f`, in seconds.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct Row {
    n: usize,
    index_bytes: u64,
    build_s: f64,
    load_s: f64,
}

fn main() {
    let largest = env_usize("KARL_BENCH_COLD_N", 320_000).max(16);
    let sizes = [largest / 16, largest / 4, largest];
    let d = 8;
    let leaf = 80;
    let dir = std::env::temp_dir().join("karl_cold_start_bench");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    println!("cold_start: build vs load, {d} dims, leaf {leaf}, best of {REPS}");
    println!(
        "{:>9} {:>12} {:>10} {:>10} {:>8}",
        "points", "index_bytes", "build_ms", "load_ms", "speedup"
    );

    let mut rows = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let points = synthetic(n, d, 0xC01D + i as u64);
        let gamma = scotts_gamma(&points);
        let kernel = Kernel::gaussian(gamma);
        let weights = vec![1.0 / n as f64; n];

        let build_s = best_of(|| {
            black_box(Evaluator::<karl_geom::Rect>::build(
                &points,
                &weights,
                kernel,
                BoundMethod::Karl,
                leaf,
            ));
        });

        let eval: KdEvaluator = Evaluator::build(&points, &weights, kernel, BoundMethod::Karl, leaf);
        let meta = IndexMeta {
            kernel,
            method: BoundMethod::Karl,
            leaf_capacity: leaf as u32,
            profile: StorageProfile::Memory,
            calibration: StorageCalibration::canned(StorageProfile::Memory),
        };
        let path = dir.join(format!("cold_{n}.idx"));
        let index_bytes = eval.write_index_file(&path, &meta).expect("write index");

        let load_s = best_of(|| {
            black_box(KdEvaluator::from_index_file(&path).expect("load index"));
        });

        // Answer-equivalence probe: the loaded evaluator must be bitwise
        // identical to the fresh build on a live query.
        let (loaded, _) = KdEvaluator::from_index_file(&path).expect("load index");
        let probe: Vec<f64> = points.point(n / 2).to_vec();
        let q = Query::Ekaq { eps: 0.1 };
        assert_eq!(
            loaded.run_query(&probe, q, None),
            eval.run_query(&probe, q, None),
            "loaded index must answer bitwise identically"
        );

        println!(
            "{:>9} {:>12} {:>10.2} {:>10.2} {:>7.1}x",
            n,
            index_bytes,
            build_s * 1e3,
            load_s * 1e3,
            build_s / load_s
        );
        std::fs::remove_file(&path).ok();
        rows.push(Row {
            n,
            index_bytes,
            build_s,
            load_s,
        });
    }

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"cold_start\",\n");
        json.push_str(&format!("  \"dims\": {d},\n"));
        json.push_str(&format!("  \"leaf_capacity\": {leaf},\n"));
        json.push_str(&format!("  \"reps\": {REPS},\n"));
        json.push_str(
            "  \"note\": \"build = Evaluator::build from raw points (tree \
             construction + permutation + frozen flattening); load = \
             Evaluator::from_index_file (one bulk read + checksum walk + \
             zero-copy section views); loaded answers verified bitwise \
             identical each run\",\n",
        );
        json.push_str("  \"sizes\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"points\": {}, \"index_bytes\": {}, \"build_ms\": {:.3}, \
                 \"load_ms\": {:.3}, \"load_speedup_vs_build\": {:.1}}}{}\n",
                r.n,
                r.index_bytes,
                r.build_s * 1e3,
                r.load_s * 1e3,
                r.build_s / r.load_s,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        eprintln!("wrote {path}");
    }
}
