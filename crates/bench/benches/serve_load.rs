//! Serve-loop throughput and tail latency: NDJSON request scripts driven
//! through `karl_core::serve::Server` over an in-memory `Cursor`, so the
//! numbers isolate admission + micro-batch dispatch + response rendering
//! from transport cost.
//!
//! Two workloads:
//!
//!   * steady — a burst of eKAQ requests under a roomy queue, swept over
//!     1/2/4/8 worker threads: requests/second plus p50/p99
//!     admission-to-response latency from the server's own histogram;
//!   * overload — bursts larger than the admission queue with
//!     `batch_max > queue_cap` (no auto-flush), so every burst exercises
//!     the full degradation ladder: admit, shed past the watermark,
//!     reject at capacity. Offered-load requests/second plus the
//!     admit/shed/reject partition, which is deterministic and identical
//!     at every thread count.
//!
//! Set `KARL_BENCH_JSON=<path>` for machine-readable output, written
//! there as a standalone file. Sizing overrides: `KARL_BENCH_N` (points),
//! `KARL_BENCH_SERVE_REQS` (steady requests), `KARL_BENCH_SERVE_BURSTS`
//! (overload bursts).

use std::io::Cursor;
use std::time::Instant;

use karl_core::{
    AnyEvaluator, BoundMethod, IndexKind, Kernel, ServeConfig, Server, StatsSnapshot,
};
use karl_geom::PointSet;
use karl_testkit::bench::black_box;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::serve_script::ScriptBuilder;

/// Timing repetitions per configuration; the fastest is reported.
const REPS: usize = 3;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Two Gaussian blobs plus uniform background (the registry's Type-I
/// shape), matching the other end-to-end benches.
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

struct RunOut {
    secs: f64,
    p50_us: u64,
    p99_us: u64,
    snap: StatsSnapshot,
}

/// One full server lifetime over `script`; the transcript goes to a
/// black-boxed buffer and the log to a sink, so only serving is timed.
fn run_once(eval: &AnyEvaluator, cfg: &ServeConfig, script: &str) -> RunOut {
    let mut server = Server::new(eval, cfg.clone()).expect("valid bench config");
    let mut out = Vec::with_capacity(script.len());
    let start = Instant::now();
    server
        .run(Cursor::new(script.as_bytes()), &mut out, std::io::sink())
        .expect("serve loop");
    let secs = start.elapsed().as_secs_f64();
    black_box(&out);
    let stats = server.stats();
    let threads = cfg.threads.unwrap_or(1) as u64;
    RunOut {
        secs,
        p50_us: stats.p50_us(),
        p99_us: stats.p99_us(),
        snap: stats.snapshot(threads),
    }
}

/// Best-of-`REPS`: wall clock from the fastest repetition, latency
/// quantiles and counters from that same run (counters are deterministic
/// across repetitions; only timing varies).
fn measure(eval: &AnyEvaluator, cfg: &ServeConfig, script: &str) -> RunOut {
    let mut best = run_once(eval, cfg, script);
    for _ in 1..REPS {
        let run = run_once(eval, cfg, script);
        assert_eq!(
            run.snap, best.snap,
            "serve counters must be deterministic across repetitions"
        );
        if run.secs < best.secs {
            best = run;
        }
    }
    best
}

fn main() {
    let n = env_usize("KARL_BENCH_N", 50_000);
    let n_reqs = env_usize("KARL_BENCH_SERVE_REQS", 2_000);
    let bursts = env_usize("KARL_BENCH_SERVE_BURSTS", 10);
    let d = 8;
    let points = synthetic(n, d, 0x5E4E1);
    let weights = vec![1.0 / n as f64; n];
    let gamma = 0.5;
    let eval = AnyEvaluator::build(
        IndexKind::Kd,
        &points,
        &weights,
        Kernel::gaussian(gamma),
        BoundMethod::Karl,
        80,
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "workload: {n} points x {d} dims, {n_reqs} steady requests, gamma {gamma}, \
         available_parallelism {parallelism}"
    );

    // Steady state: auto-flush every 64 requests, queue never near full.
    let steady_script = {
        let mut s = ScriptBuilder::new();
        let mut rng = StdRng::seed_from_u64(0x5E4E2);
        s.ekaq_burst(n_reqs, d, 0.05, -2.5..2.5, &mut rng);
        s.shutdown();
        s.build()
    };
    println!("\n== serve_load/steady (batch_max 64, queue 1024) ==");
    println!(
        "{:>7} {:>12} {:>9} {:>9} {:>8}",
        "threads", "requests/s", "p50_us", "p99_us", "batches"
    );
    let mut steady = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let cfg = ServeConfig {
            threads: Some(threads),
            ..ServeConfig::default()
        };
        let run = measure(&eval, &cfg, &steady_script);
        assert_eq!(run.snap.admitted, n_reqs as u64, "steady run must admit all");
        assert_eq!(run.snap.rejected, 0);
        let rps = n_reqs as f64 / run.secs.max(1e-12);
        println!(
            "{threads:>7} {rps:>12.0} {:>9} {:>9} {:>8}",
            run.p50_us, run.p99_us, run.snap.batches
        );
        steady.push((threads, rps, run));
    }

    // Overload: bursts of 100 against a 32-deep queue with shedding from
    // depth 24 and batch_max above queue_cap, so dispatch happens only at
    // the explicit flush — each burst admits 32 (8 of them shed) and
    // rejects the remaining 68. The partition is pure admission
    // arithmetic: identical at every thread count.
    let burst_size = 100usize;
    let overload_cfg = ServeConfig {
        queue_cap: 32,
        shed_at: 24,
        batch_max: 256,
        threads: Some(4.min(parallelism)),
        ..ServeConfig::default()
    };
    let overload_script = {
        let mut s = ScriptBuilder::new();
        let mut rng = StdRng::seed_from_u64(0x5E4E3);
        for _ in 0..bursts {
            s.ekaq_burst(burst_size, d, 0.05, -2.5..2.5, &mut rng);
            s.flush();
        }
        s.shutdown();
        s.build()
    };
    let offered = (bursts * burst_size) as u64;
    let run = measure(&eval, &overload_cfg, &overload_script);
    assert_eq!(run.snap.queries, offered);
    assert_eq!(run.snap.admitted + run.snap.rejected, offered);
    assert!(run.snap.shed > 0, "overload run must shed");
    assert!(run.snap.rejected > 0, "overload run must reject");
    let offered_rps = offered as f64 / run.secs.max(1e-12);
    println!(
        "\n== serve_load/overload (queue 32, shed_at 24, {bursts} bursts of {burst_size}) =="
    );
    println!(
        "offered {offered_rps:.0} requests/s; partition: {} admitted ({} shed), \
         {} rejected; p50 {} us, p99 {} us",
        run.snap.admitted, run.snap.shed, run.snap.rejected, run.p50_us, run.p99_us
    );

    if let Ok(path) = std::env::var("KARL_BENCH_JSON") {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"serve_load\",\n");
        json.push_str(&format!("  \"points\": {n},\n"));
        json.push_str(&format!("  \"dims\": {d},\n"));
        json.push_str(&format!("  \"gamma\": {gamma},\n"));
        json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
        json.push_str(
            "  \"note\": \"in-memory transport; latency is admission-to-response, \
             bucket upper edges (power-of-two us); the overload partition is \
             deterministic admission arithmetic\",\n",
        );
        json.push_str(&format!("  \"steady_requests\": {n_reqs},\n"));
        json.push_str("  \"steady\": [\n");
        for (i, (threads, rps, run)) in steady.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"threads\": {threads}, \"requests_per_s\": {rps:.1}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"batches\": {}}}{}\n",
                run.p50_us,
                run.p99_us,
                run.snap.batches,
                if i + 1 < steady.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str("  \"overload\": {\n");
        json.push_str(&format!("    \"queue_cap\": {},\n", overload_cfg.queue_cap));
        json.push_str(&format!("    \"shed_at\": {},\n", overload_cfg.shed_at));
        json.push_str(&format!("    \"batch_max\": {},\n", overload_cfg.batch_max));
        json.push_str(&format!("    \"bursts\": {bursts},\n"));
        json.push_str(&format!("    \"burst_size\": {burst_size},\n"));
        json.push_str(&format!("    \"offered\": {offered},\n"));
        json.push_str(&format!("    \"admitted\": {},\n", run.snap.admitted));
        json.push_str(&format!("    \"shed\": {},\n", run.snap.shed));
        json.push_str(&format!("    \"rejected\": {},\n", run.snap.rejected));
        json.push_str(&format!(
            "    \"offered_requests_per_s\": {offered_rps:.1},\n"
        ));
        json.push_str(&format!("    \"p50_us\": {},\n", run.p50_us));
        json.push_str(&format!("    \"p99_us\": {}\n", run.p99_us));
        json.push_str("  }\n}\n");
        std::fs::write(&path, json).expect("write KARL_BENCH_JSON");
        println!("\nwrote {path}");
    }
}
