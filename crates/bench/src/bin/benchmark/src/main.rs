//! The repository benchmark: `karl batch` throughput and open-loop
//! `karl serve` latency on four workloads, plus a traced per-layer run.
//! See README.md in this directory for the metrics and how to read them.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out FILE] [--smoke]
//! benchmark trace …                    (same as run --trace 1)
//! benchmark compare [--claim W/M] PARENT.json… -- CHANGE.json…
//! ```
//!
//! Run from the repository root; it builds `karl` from source first.

mod compare;
mod config;
mod drive;
mod e2e;
mod host;
mod inputs;
mod json;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use config::Config;
use e2e::{Outcome, Status, Value};
use json::{obj, Json};
use oracle::Reply;
use workload::{Kind, Request, Sizes, Workload, FULL, ORACLE_QUERIES, SMOKE, WORKLOADS};

/// The end-to-end metrics every workload reports, in output order.
const END_TO_END: [&str; 4] = ["setup_s", "qps", "p50_ms", "p99_ms"];

/// The leaf capacity `karl batch --data` builds with by default.
const BATCH_LEAF: usize = 80;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    claim: Option<String>,
    files: (Vec<String>, Vec<String>),
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
        smoke: false,
        claim: None,
        files: (Vec::new(), Vec::new()),
    };
    let mut it = raw.iter().peekable();
    if let Some(cmd) = it.peek().filter(|c| !c.starts_with("--")) {
        a.command = cmd.to_string();
        it.next();
    }
    let mut after_sep = false;
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--claim" => a.claim = Some(value()?),
            "--" if a.command == "compare" => after_sep = true,
            s if a.command == "compare" && !s.starts_with("--") => if after_sep {
                &mut a.files.1
            } else {
                &mut a.files.0
            }
            .push(s.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match a.command.as_str() {
        "run" | "compare" => {}
        "trace" => a.trace = true,
        other => return Err(format!("unknown command {other:?} (run|trace|compare)")),
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|a| dispatch(&a)) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

fn dispatch(a: &Args) -> Result<u8, String> {
    let root = drive::repo_root()?;
    let cfg = Config::load(&root)?;
    if a.command == "compare" {
        let worse = compare::run(&cfg, &a.files.0, &a.files.1, a.claim.as_deref())?;
        return Ok(worse as u8);
    }
    // Either variable changes what is measured (kernel backend, worker
    // count), so a run under one would not be comparable.
    for var in ["KARL_SIMD", "KARL_THREADS"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it, it changes what is measured"
            ));
        }
    }
    check_config(&cfg)?;
    let workloads: Vec<&Workload> = match &a.workload {
        Some(name) => vec![workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?],
        None => WORKLOADS.iter().collect(),
    };
    let sizes = if a.smoke { SMOKE } else { FULL };
    let seconds = a
        .seconds
        .unwrap_or(if a.smoke { 0.5 } else { cfg.run_seconds as f64 });
    let karl = drive::build_karl(&root)?;
    let cache =
        drive::target_dir(&root)
            .join("benchmark")
            .join(if a.smoke { "smoke" } else { "full" });

    let mut host = host::Reference::new();
    let mut results = Vec::new();
    for w in workloads {
        let r = measure(w, &karl, &cache, &mut host, a, &sizes, seconds)?;
        print_lines(w, &r, &cfg, a.trace);
        results.push((w, r));
    }

    let guards = obj([
        ("git_rev", Json::Str(drive::git_rev(&root))),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
    ]);
    if let Some(path) = &a.out {
        let doc = obj([
            ("schema", Json::Str("karl-benchmark-v1".into())),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(a.smoke)),
            ("trace", Json::Bool(a.trace)),
            ("guards", guards),
            (
                "workloads",
                Json::Arr(
                    results
                        .iter()
                        .map(|(w, r)| result_json(w, r, &cfg))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.to_text() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let correct = results.iter().all(|(_, r)| r.outcome.correct());
    let invalid: Vec<String> = results
        .iter()
        .flat_map(|(w, r)| {
            r.outcome
                .invalid
                .iter()
                .map(move |m| format!("{}: {m}", w.name))
        })
        .collect();
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (w, r) in &results {
        for (name, value) in r.reported(a.trace) {
            let key = if single {
                name.to_string()
            } else {
                format!("{}/{name}", w.name)
            };
            let unit = unit_of(&cfg, name, a.trace);
            metrics.push((
                key,
                obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
            ));
        }
    }
    let summary = obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Num(
                results
                    .iter()
                    .map(|(_, r)| r.outcome.attempted)
                    .sum::<u64>() as f64,
            ),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|(_, r)| r.outcome.failed).sum::<u64>() as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", summary.to_text());
    if !correct {
        eprintln!("benchmark: correctness check failed");
        return Ok(2);
    }
    if !invalid.is_empty() {
        eprintln!("benchmark: invalid run: {}", invalid.join("; "));
        return Ok(3);
    }
    Ok(0)
}

/// `BENCHMARK.json` must describe exactly what the harness measures.
fn check_config(cfg: &Config) -> Result<(), String> {
    let names = |ms: &[config::Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    let want_workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    if cfg.workloads != want_workloads {
        return Err(format!(
            "BENCHMARK.json workloads {:?} != {want_workloads:?}",
            cfg.workloads
        ));
    }
    if names(&cfg.end_to_end) != END_TO_END {
        return Err(format!(
            "BENCHMARK.json end_to_end {:?} != {END_TO_END:?}",
            names(&cfg.end_to_end)
        ));
    }
    if names(&cfg.per_layer) != trace::METRICS {
        return Err(format!(
            "BENCHMARK.json per_layer {:?} != {:?}",
            names(&cfg.per_layer),
            trace::METRICS
        ));
    }
    Ok(())
}

fn unit_of(cfg: &Config, name: &str, traced: bool) -> String {
    let list = if traced {
        &cfg.per_layer
    } else {
        &cfg.end_to_end
    };
    list.iter()
        .find(|m| m.name == name)
        .map_or_else(String::new, |m| m.unit.clone())
}

fn nproc() -> usize {
    std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
        .unwrap_or(0)
}

/// One workload's results: the binary's end-to-end outcome, and in a
/// traced run the per-layer metrics.
struct WorkloadResult {
    outcome: Outcome,
    per_layer: Vec<(&'static str, f64)>,
    spans: Option<PathBuf>,
}

impl WorkloadResult {
    fn reported(&self, traced: bool) -> Vec<(&'static str, f64)> {
        if traced {
            self.per_layer.clone()
        } else {
            self.outcome
                .metrics
                .iter()
                .map(|m| (m.name, m.value))
                .collect()
        }
    }
}

fn measure(
    w: &Workload,
    karl: &Path,
    cache: &Path,
    host: &mut host::Reference,
    a: &Args,
    sizes: &Sizes,
    seconds: f64,
) -> Result<WorkloadResult, String> {
    let p = inputs::prepare(cache, a.seed, w.dataset, sizes)?;
    let seed = workload::mix(a.seed, w.name.bytes().map(u64::from).sum());
    let mut out = Outcome::default();
    let min_reps = if a.smoke { 2 } else { 3 };
    match (w.kind, a.trace) {
        (Kind::Batch { .. }, false) => {
            e2e::batch(w, &p, karl, host, seconds, min_reps, &mut out)?;
            Ok(WorkloadResult {
                outcome: out,
                per_layer: Vec::new(),
                spans: None,
            })
        }
        (Kind::Serve { .. }, false) => {
            let idx = drive::default_index(karl, &p)?;
            e2e::serve(
                w, &p, &idx, karl, host, seed, seconds, sizes, a.smoke, true, &mut out,
            )?;
            Ok(WorkloadResult {
                outcome: out,
                per_layer: Vec::new(),
                spans: None,
            })
        }
        (Kind::Batch { op }, true) => {
            // Half the run through the binary for the untraced value and
            // the answers the traced run must reproduce bit for bit.
            let binary = e2e::batch(w, &p, karl, host, seconds / 2.0, 1, &mut out)?;
            let burst: Vec<Request> = (0..sizes.trace_serve_burst)
                .map(|i| Request {
                    id: i as u64 + 1,
                    due: std::time::Duration::ZERO,
                    op,
                    point: i % ORACLE_QUERIES.min(p.points.len()),
                    deadline_ms: None,
                })
                .collect();
            let before = host.slowness();
            let traced = trace::run(&trace::Plan {
                p: &p,
                index: None,
                leaf: BATCH_LEAF,
                stream: trace::Stream::File(&p.queries, op),
                serve: &burst,
                paced: false,
            })?;
            for (i, (slot, mine)) in binary.iter().zip(&traced.batch_answers).enumerate() {
                if e2e::slot_bits(slot) != mine.map(f64::to_bits) {
                    out.wrong(format!(
                        "query {i}: in-process answer {mine:?} differs from the binary's {slot:?}"
                    ));
                }
            }
            let slow = 0.5 * (before + host.slowness());
            check_serve_answers(&burst, &traced.serve_responses, None, &p, &mut out);
            // Both sides at the nominal host speed, as the untraced value is.
            let untraced = out.metric("qps").ok_or("no untraced qps")?.value;
            let overhead = untraced / (traced.traced_qps * slow) - 1.0;
            finish_trace(w, cache, out, traced, overhead)
        }
        (Kind::Serve { .. }, true) => {
            let idx = drive::default_index(karl, &p)?;
            let half = seconds / 2.0;
            let binary = e2e::serve(
                w, &p, &idx, karl, host, seed, half, sizes, a.smoke, false, &mut out,
            )?;
            let traced = trace::run(&trace::Plan {
                p: &p,
                index: Some(&idx.path),
                leaf: idx.leaf as usize,
                stream: trace::Stream::Requests(&binary.requests),
                serve: &binary.requests,
                paced: true,
            })?;
            check_serve_answers(
                &binary.requests,
                &traced.serve_responses,
                Some(&binary.responses),
                &p,
                &mut out,
            );
            let untraced = out.metric("p50_ms").ok_or("no untraced p50")?.value;
            let overhead = traced.traced_p50_ms / untraced - 1.0;
            finish_trace(w, cache, out, traced, overhead)
        }
    }
}

/// Checks the in-process server's answers against the oracle and, where
/// the binary answered the same request `ok`, bit for bit against it.
/// Deadline requests may legitimately differ in status (their budgets
/// depend on wall-clock queueing), so they are compared only when both
/// completed.
fn check_serve_answers(
    reqs: &[Request],
    mine: &[Option<e2e::Response>],
    binary: Option<&[Option<e2e::Response>]>,
    p: &inputs::Prepared,
    out: &mut Outcome,
) {
    for (k, req) in reqs.iter().enumerate() {
        let Some(r) = mine[k] else {
            out.wrong(format!("in-process request {} unanswered", req.id));
            continue;
        };
        if let Some(reply) = r.reply {
            out.check(req.op, p, req.point, reply);
        }
        let Some(theirs) = binary.and_then(|b| b[k]) else {
            continue;
        };
        let both_ok = r.status == Status::Ok && theirs.status == Status::Ok;
        let bits = |x: e2e::Response| match x.reply {
            Some(Reply::Answer(v)) => Some(v.to_bits()),
            _ => None,
        };
        if (both_ok && bits(r) != bits(theirs))
            || (req.deadline_ms.is_none() && r.status != theirs.status)
        {
            out.wrong(format!(
                "request {}: in-process {:?} differs from the binary's {:?}",
                req.id, r, theirs
            ));
        }
    }
}

fn finish_trace(
    w: &Workload,
    cache: &Path,
    outcome: Outcome,
    traced: trace::Traced,
    overhead: f64,
) -> Result<WorkloadResult, String> {
    let dir = cache.join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", w.name));
    std::fs::write(&path, traced.tracer.to_json().to_text() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut per_layer = traced.metrics;
    per_layer.push(("trace.overhead_frac", overhead));
    if !per_layer.iter().map(|m| m.0).eq(trace::METRICS) {
        return Err("the traced run's metrics do not match trace::METRICS".into());
    }
    Ok(WorkloadResult {
        outcome,
        per_layer,
        spans: Some(path),
    })
}

fn print_lines(w: &Workload, r: &WorkloadResult, cfg: &Config, traced: bool) {
    for (name, value) in r.reported(traced) {
        let unit = unit_of(cfg, name, traced);
        match r
            .outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .filter(|_| !traced)
        {
            Some(Value { samples, raw, .. }) if samples.len() > 1 => {
                let (q1, med, q3) = stats::quartiles(samples);
                println!("{:<14} {name:<10} {value:>12.4} {unit:<10} (samples {}: q1 {q1:.4}, median {med:.4}, q3 {q3:.4}; as measured {raw:.4})", w.name, samples.len());
            }
            _ => println!("{:<14} {name:<28} {value:>14.4} {unit}", w.name),
        }
    }
    for (name, value, unit) in &r.outcome.info {
        println!(
            "{:<14} {name:<10} {value:>12.4} {unit:<10} (informational, no bound)",
            w.name
        );
    }
    let o = &r.outcome;
    eprintln!(
        "# {}: attempted {} failed {} unverifiable {} wrong {}{}",
        w.name,
        o.attempted,
        o.failed,
        o.unverifiable,
        o.wrong,
        r.spans
            .as_ref()
            .map_or(String::new(), |p| format!("; spans in {}", p.display()))
    );
    for e in &o.wrong_examples {
        eprintln!("#   {e}");
    }
}

fn result_json(w: &Workload, r: &WorkloadResult, cfg: &Config) -> Json {
    let o = &r.outcome;
    let metric = |m: &Value| {
        let (q1, med, q3) = stats::quartiles(&m.samples);
        obj([
            ("value", Json::Num(m.value)),
            ("raw", Json::Num(m.raw)),
            ("unit", Json::Str(unit_of(cfg, m.name, false))),
            ("median", Json::Num(med)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("count", Json::Num(m.samples.len() as f64)),
        ])
    };
    let mut members = vec![
        ("name", Json::Str(w.name.into())),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("unverifiable", Json::Num(o.unverifiable as f64)),
        (
            "invalid",
            Json::Arr(o.invalid.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                o.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), metric(m)))
                    .collect(),
            ),
        ),
        (
            "info",
            Json::Obj(
                o.info
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            obj([("value", Json::Num(*v)), ("unit", Json::Str(u.to_string()))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "guards",
            Json::Obj(
                o.guards
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ];
    if !r.per_layer.is_empty() {
        members.push((
            "per_layer",
            Json::Obj(
                r.per_layer
                    .iter()
                    .map(|(n, v)| {
                        (
                            n.to_string(),
                            obj([
                                ("value", Json::Num(*v)),
                                ("unit", Json::Str(unit_of(cfg, n, true))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(p) = &r.spans {
        members.push(("spans", Json::Str(p.display().to_string())));
    }
    obj(members)
}
