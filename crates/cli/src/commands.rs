//! Subcommand implementations.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use karl_core::{
    plan_for_storage, AnyEvaluator, BoundMethod, Budget, IndexKind, IndexMeta, Kernel,
    OfflineTuner, Query, QueryBatch, Scan, ServeConfig, Server, StatsSnapshot, StorageCalibration,
    StorageProfile,
};
use karl_data::{
    by_name, load_csv, load_labeled_csv, load_libsvm, registry, save_csv, LabelColumn,
};
use karl_geom::PointSet;
use karl_geom::{backend_name, set_backend, SimdChoice};
use karl_kde::scotts_gamma;
use karl_svm::{load_model, save_model, CSvc, OneClassSvm, SvmType};

use crate::args::Parsed;
use crate::CmdOutput;

type CmdResult = Result<String, String>;

/// `karl datasets`
pub fn datasets(p: &Parsed) -> CmdResult {
    p.expect_flags(&[]).map_err(|e| e.to_string())?;
    let mut out = String::from("name        n_raw    dims  model\n");
    for spec in registry() {
        let model = match spec.model {
            karl_data::ModelKind::KernelDensity => "kernel-density (Type I)",
            karl_data::ModelKind::OneClass => "1-class SVM (Type II)",
            karl_data::ModelKind::TwoClass => "2-class SVM (Type III)",
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>6}  {model}",
            spec.name, spec.n_raw, spec.dims
        );
    }
    Ok(out)
}

/// `karl generate --name N --n COUNT --out FILE [--labeled]`
pub fn generate(p: &Parsed) -> CmdResult {
    p.expect_flags(&["name", "n", "out", "labeled"])
        .map_err(|e| e.to_string())?;
    let name = p.required("name").map_err(|e| e.to_string())?;
    let n: usize = p
        .get_or("n", 10_000, "a point count")
        .map_err(|e| e.to_string())?;
    let out_path = p.required("out").map_err(|e| e.to_string())?;
    let spec =
        by_name(name).ok_or_else(|| format!("unknown dataset {name:?} (try `karl datasets`)"))?;
    let ds = spec.generate_n(n);
    let labels = if p.has("labeled") {
        Some(
            ds.labels
                .clone()
                .ok_or_else(|| format!("dataset {name} has no labels"))?,
        )
    } else {
        None
    };
    save_csv(out_path, &ds.points, labels.as_deref()).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} points x {} dims to {out_path}{}\n",
        ds.points.len(),
        ds.points.dims(),
        if labels.is_some() {
            " (label last)"
        } else {
            ""
        }
    ))
}

fn parse_method(p: &Parsed) -> Result<BoundMethod, String> {
    match p.get("method") {
        None | Some("karl") => Ok(BoundMethod::Karl),
        Some("sota") => Ok(BoundMethod::Sota),
        Some(other) => Err(format!("unknown method {other:?} (karl|sota)")),
    }
}

fn gamma_for(p: &Parsed, points: &PointSet) -> Result<f64, String> {
    match p.get("gamma") {
        None | Some("auto") => Ok(scotts_gamma(points)),
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--gamma {v:?}: expected a number or 'auto'")),
    }
}

/// The query of a `kde`/`batch`/`tune` run: exactly one of the `flags`
/// (`tau`, `eps`, `tol`) must be given, and its value must pass the
/// library's parameter check ([`Query::validate`]).
fn query_from_flags(p: &Parsed, flags: &[&str]) -> Result<Query, String> {
    let names: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
    let (last, rest) = names.split_last().expect("at least one query flag");
    let usage = format!("exactly one of {} or {last} is required", rest.join(", "));
    let mut query = None;
    for &flag in flags {
        let Some(v) = p.get_parsed(flag, "a number").map_err(|e| e.to_string())? else {
            continue;
        };
        if query.is_some() {
            return Err(usage);
        }
        query = Some(match flag {
            "tau" => Query::Tkaq { tau: v },
            "eps" => Query::Ekaq { eps: v },
            _ => Query::Within { tol: v },
        });
    }
    let query = query.ok_or(usage)?;
    query.validate().map_err(|e| e.to_string())?;
    Ok(query)
}

/// `karl kde --data FILE --queries FILE (--tau T | --eps E) …`
pub fn kde(p: &Parsed) -> CmdResult {
    p.expect_flags(&["data", "queries", "tau", "eps", "method", "leaf", "gamma"])
        .map_err(|e| e.to_string())?;
    let query = query_from_flags(p, &["tau", "eps"])?;
    let data =
        load_csv(p.required("data").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let queries =
        load_csv(p.required("queries").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    if queries.dims() != data.dims() {
        return Err(format!(
            "query dims {} != data dims {}",
            queries.dims(),
            data.dims()
        ));
    }
    let method = parse_method(p)?;
    let leaf: usize = p
        .get_or("leaf", 80, "a leaf capacity")
        .map_err(|e| e.to_string())?;
    let gamma = gamma_for(p, &data)?;

    let n = data.len();
    let weights = vec![1.0 / n as f64; n];
    let eval = AnyEvaluator::build(
        IndexKind::Kd,
        &data,
        &weights,
        Kernel::gaussian(gamma),
        method,
        leaf,
    );
    let mut out = String::with_capacity(queries.len() * 8);
    let start = Instant::now();
    match query {
        Query::Tkaq { tau } => {
            for q in queries.iter() {
                out.push_str(if eval.tkaq(q, tau) { "1\n" } else { "0\n" });
            }
        }
        Query::Ekaq { eps } => {
            for q in queries.iter() {
                let _ = writeln!(out, "{}", eval.ekaq(q, eps));
            }
        }
        Query::Within { .. } => unreachable!("kde takes no --tol"),
    }
    let elapsed = start.elapsed();
    let _ = writeln!(
        out,
        "# throughput {:.0} queries/s over {} points (gamma {:.4}, {:?}, leaf {leaf})",
        queries.len() as f64 / elapsed.as_secs_f64(),
        n,
        gamma,
        method
    );
    Ok(out)
}

/// `karl batch --data FILE --queries FILE (--tau T | --eps E | --tol W) …`
///
/// Same queries and answers as `kde`, executed through the parallel
/// [`QueryBatch`] engine. Worker count: `--threads` flag, else the
/// `KARL_THREADS` environment variable, else `available_parallelism`;
/// every thread count produces bitwise-identical answers.
///
/// `--budget-nodes` / `--budget-leaf` / `--deadline-ms` bound each
/// query's refinement; a query that trips a budget answers from the
/// certified interval it reached (TKAQ prints `?` when the interval
/// still straddles τ). Faults in individual queries are contained: the
/// poisoned query gets an `# error` line, every other query keeps its
/// exact bits, and [`CmdOutput::failed_queries`] counts the casualties.
pub fn batch(p: &Parsed) -> Result<CmdOutput, String> {
    p.expect_flags(&[
        "data",
        "index",
        "queries",
        "tau",
        "eps",
        "tol",
        "method",
        "leaf",
        "gamma",
        "threads",
        "stats",
        "budget-nodes",
        "budget-leaf",
        "deadline-ms",
        "simd",
        "stats-json",
    ])
    .map_err(|e| e.to_string())?;
    let query = query_from_flags(p, &["tau", "eps", "tol"])?;
    // Resolve the SIMD backend before any kernel work (build or query);
    // backends are bitwise identical, so this changes speed, never bits.
    match p.get("simd") {
        None => {}
        Some(s) => match SimdChoice::parse(s) {
            Some(choice) => {
                set_backend(choice);
            }
            None => return Err(format!("unknown simd backend {s:?} (auto|avx2|scalar)")),
        },
    }
    let index_path = p.get("index");
    if index_path.is_some() {
        for flag in ["data", "gamma", "method", "leaf"] {
            if p.has(flag) {
                return Err(format!(
                    "--{flag} conflicts with --index (kernel, method and leaf capacity are recorded in the index file)"
                ));
            }
        }
    }
    let data = match index_path {
        None => Some(
            load_csv(p.required("data").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?,
        ),
        Some(_) => None,
    };
    let queries =
        load_csv(p.required("queries").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    if let Some(data) = &data {
        if queries.dims() != data.dims() {
            return Err(format!(
                "query dims {} != data dims {}",
                queries.dims(),
                data.dims()
            ));
        }
    }
    let threads: Option<usize> = p
        .get_parsed("threads", "a thread count")
        .map_err(|e| e.to_string())?;
    let want_stats = p.has("stats");
    #[cfg(not(feature = "stats"))]
    if want_stats {
        return Err("--stats requires building karl-cli with the `stats` feature".into());
    }
    let budget_nodes: Option<u64> = p
        .get_parsed("budget-nodes", "a node count")
        .map_err(|e| e.to_string())?;
    let budget_leaf: Option<u64> = p
        .get_parsed("budget-leaf", "a leaf-point count")
        .map_err(|e| e.to_string())?;
    let deadline_ms: Option<u64> = p
        .get_parsed("deadline-ms", "milliseconds")
        .map_err(|e| e.to_string())?;
    let mut budget = Budget::unlimited();
    if let Some(nodes) = budget_nodes {
        if nodes == 0 {
            return Err("--budget-nodes must be at least 1".into());
        }
        budget = budget.max_nodes(nodes);
    }
    if let Some(points) = budget_leaf {
        if points == 0 {
            return Err("--budget-leaf must be at least 1".into());
        }
        budget = budget.max_leaf_points(points);
    }
    if let Some(ms) = deadline_ms {
        budget = budget.deadline(Duration::from_millis(ms));
    }

    let (eval, gamma, method, leaf) = match (index_path, &data) {
        (Some(path), _) => {
            let (eval, meta) =
                AnyEvaluator::from_index_file(Path::new(path)).map_err(|e| e.to_string())?;
            if queries.dims() != eval.dims() {
                return Err(format!(
                    "query dims {} != index dims {}",
                    queries.dims(),
                    eval.dims()
                ));
            }
            let gamma = match meta.kernel {
                Kernel::Gaussian { gamma }
                | Kernel::Polynomial { gamma, .. }
                | Kernel::Sigmoid { gamma, .. }
                | Kernel::Laplacian { gamma } => gamma,
            };
            (eval, gamma, meta.method, meta.leaf_capacity as usize)
        }
        (None, Some(data)) => {
            let method = parse_method(p)?;
            let leaf: usize = p
                .get_or("leaf", 80, "a leaf capacity")
                .map_err(|e| e.to_string())?;
            let gamma = gamma_for(p, data)?;
            let n = data.len();
            let weights = vec![1.0 / n as f64; n];
            let eval = AnyEvaluator::build(
                IndexKind::Kd,
                data,
                &weights,
                Kernel::gaussian(gamma),
                method,
                leaf,
            );
            (eval, gamma, method, leaf)
        }
        (None, None) => unreachable!("data is loaded whenever --index is absent"),
    };
    let n = eval.len();
    let mut spec = QueryBatch::new(&queries, query).budget(budget);
    if let Some(t) = threads {
        if t == 0 {
            return Err("--threads must be at least 1".into());
        }
        spec = spec.threads(t);
    }
    let report = spec.try_run_any(&eval).map_err(|e| e.to_string())?;

    let mut out = String::with_capacity(queries.len() * 8);
    let mut failed = 0usize;
    for (i, result) in report.results().iter().enumerate() {
        match result {
            Ok(o) => match query {
                Query::Tkaq { .. } if o.is_truncated() => out.push_str("?\n"),
                Query::Tkaq { .. } => {
                    out.push_str(if report.answer(o) == 1.0 { "1\n" } else { "0\n" });
                }
                Query::Ekaq { .. } | Query::Within { .. } => {
                    let _ = writeln!(out, "{}", report.answer(o));
                }
            },
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "# error query {i}: {e}");
            }
        }
    }
    let _ = writeln!(
        out,
        "# throughput {:.0} queries/s over {} points (gamma {:.4}, {:?}, leaf {leaf}, threads {}, simd {})",
        report.throughput(),
        n,
        gamma,
        method,
        report.threads(),
        backend_name()
    );
    let truncated = report.truncated_count();
    if truncated > 0 {
        let _ = writeln!(
            out,
            "# truncated {truncated} of {} queries answered from their certified interval at budget exhaustion",
            report.len()
        );
    }
    if failed > 0 {
        let _ = writeln!(out, "# failed {failed} of {} queries", report.len());
    }
    if let Some(path) = p.get("stats-json") {
        // The shared `karl-stats-v1` schema (`karl serve`'s `stats` verb
        // emits the same object): one batch is one micro-batch in which
        // every query was trivially admitted. No timing fields, so two
        // identical runs write identical bytes.
        let snap = StatsSnapshot {
            queries: report.len() as u64,
            admitted: report.len() as u64,
            rejected: 0,
            shed: 0,
            completed: report.completed_count() as u64,
            truncated: truncated as u64,
            faulted: failed as u64,
            protocol_errors: 0,
            batches: 1,
            queue_depth_max: report.len() as u64,
            threads: report.threads() as u64,
        };
        #[cfg(feature = "stats")]
        let json = karl_core::stats_json_with_run(&snap, &report.stats());
        #[cfg(not(feature = "stats"))]
        let json = karl_core::stats_json(&snap);
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("--stats-json {path}: {e}"))?;
    }
    #[cfg(feature = "stats")]
    if want_stats {
        let s = report.stats();
        let _ = writeln!(
            out,
            "# stats nodes_refined {} envelopes_built {} curve_value_calls {} simd_backend {}",
            s.nodes_refined, s.envelopes_built, s.curve_value_calls, s.simd_backend
        );
    }
    Ok(CmdOutput {
        text: out,
        failed_queries: failed,
    })
}

/// `karl serve (--stdio | --listen ADDR) (--data FILE | --index FILE) …`
///
/// The online query daemon (DESIGN.md §16): newline-delimited JSON
/// requests in, one typed response line per request out, with bounded
/// admission (`--queue`), certified load shedding (`--shed`), and
/// micro-batches dispatched whenever the input drains, capped at
/// `--batch`, through the parallel engine. The
/// response transcript on stdout is deterministic — summary lines go to
/// stderr — and the process exits 2 when any request faulted inside the
/// containment boundary, mirroring `batch`'s exit-code contract.
pub fn serve(p: &Parsed) -> Result<CmdOutput, String> {
    p.expect_flags(&[
        "stdio",
        "listen",
        "data",
        "index",
        "gamma",
        "method",
        "leaf",
        "threads",
        "queue",
        "shed",
        "batch",
        "budget-nodes",
        "budget-leaf",
        "summary-every",
        "simd",
    ])
    .map_err(|e| e.to_string())?;
    match p.get("simd") {
        None => {}
        Some(s) => match SimdChoice::parse(s) {
            Some(choice) => {
                set_backend(choice);
            }
            None => return Err(format!("unknown simd backend {s:?} (auto|avx2|scalar)")),
        },
    }

    let eval = match p.get("index") {
        Some(path) => {
            for flag in ["data", "gamma", "method", "leaf"] {
                if p.has(flag) {
                    return Err(format!(
                        "--{flag} conflicts with --index (kernel, method and leaf capacity are recorded in the index file)"
                    ));
                }
            }
            let (eval, _meta) =
                AnyEvaluator::from_index_file(Path::new(path)).map_err(|e| e.to_string())?;
            eval
        }
        None => {
            let data = load_csv(p.required("data").map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let method = parse_method(p)?;
            let leaf: usize = p
                .get_or("leaf", 80, "a leaf capacity")
                .map_err(|e| e.to_string())?;
            let gamma = gamma_for(p, &data)?;
            let n = data.len();
            let weights = vec![1.0 / n as f64; n];
            AnyEvaluator::build(
                IndexKind::Kd,
                &data,
                &weights,
                Kernel::gaussian(gamma),
                method,
                leaf,
            )
        }
    };

    let defaults = ServeConfig::default();
    let budget_nodes: Option<u64> = p
        .get_parsed("budget-nodes", "a node count")
        .map_err(|e| e.to_string())?;
    let budget_leaf: Option<u64> = p
        .get_parsed("budget-leaf", "a leaf-point count")
        .map_err(|e| e.to_string())?;
    let mut budget = Budget::unlimited();
    if let Some(nodes) = budget_nodes {
        if nodes == 0 {
            return Err("--budget-nodes must be at least 1".into());
        }
        budget = budget.max_nodes(nodes);
    }
    if let Some(points) = budget_leaf {
        if points == 0 {
            return Err("--budget-leaf must be at least 1".into());
        }
        budget = budget.max_leaf_points(points);
    }
    let queue_cap: usize = p
        .get_or("queue", defaults.queue_cap, "a queue capacity")
        .map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        queue_cap,
        // Unless pinned, the shed watermark tracks the queue at 3/4 —
        // shedding kicks in with headroom left before hard rejection.
        shed_at: p
            .get_parsed("shed", "a shed watermark")
            .map_err(|e| e.to_string())?
            .unwrap_or((queue_cap * 3 / 4).max(1)),
        batch_max: p
            .get_or("batch", defaults.batch_max, "a micro-batch size")
            .map_err(|e| e.to_string())?,
        threads: p
            .get_parsed("threads", "a thread count")
            .map_err(|e| e.to_string())?,
        budget,
        summary_every: p
            .get_or("summary-every", 0u64, "a request count")
            .map_err(|e| e.to_string())?,
    };

    let mut server = Server::new(&eval, cfg).map_err(|e| e.to_string())?;
    match (p.has("stdio"), p.get("listen")) {
        (true, Some(_)) => return Err("--stdio conflicts with --listen".into()),
        (true, None) => {
            // 64 KiB (a full Linux pipe buffer) rather than StdinLock's
            // 8 KiB, so one read drains everything already written.
            let stdin = std::io::BufReader::with_capacity(1 << 16, std::io::stdin().lock());
            let stdout = std::io::stdout();
            server
                .run(stdin, stdout.lock(), std::io::stderr())
                .map_err(|e| format!("serve transport error: {e}"))?;
        }
        (false, Some(addr)) => serve_tcp(&mut server, addr)?,
        (false, None) => {
            return Err(
                "serve needs a transport: --stdio (newline-delimited JSON on stdin/stdout) \
                 or --listen ADDR (TCP; needs the `net` build feature)"
                    .into(),
            )
        }
    }
    Ok(CmdOutput {
        text: String::new(),
        failed_queries: server.stats().faulted as usize,
    })
}

/// Serves the stdio protocol over TCP, one connection at a time; the
/// server (and its counters) persists across connections until a client
/// sends `shutdown`.
#[cfg(feature = "net")]
fn serve_tcp(server: &mut Server<'_>, addr: &str) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("--listen {addr}: {e}"))?;
    eprintln!("# karl serve listening on {local}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept on {local}: {e}"))?;
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone connection: {e}"))?,
        );
        server
            .run(reader, stream, std::io::stderr())
            .map_err(|e| format!("serve transport error: {e}"))?;
        if server.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

#[cfg(not(feature = "net"))]
fn serve_tcp(_server: &mut Server<'_>, _addr: &str) -> Result<(), String> {
    Err("--listen requires building karl-cli with the `net` feature (--stdio is always available)"
        .into())
}

/// `karl index build DATA OUT …` / `karl index info PATH`
///
/// `build` constructs the evaluator over DATA (weights `1/n`, Gaussian
/// kernel) and saves it in the versioned zero-copy format of
/// `karl_tree::persist`; family and leaf capacity default to the
/// storage-aware cost model for `--profile` (memory is calibrated on
/// this machine, disk uses canned cold-storage constants), and explicit
/// `--family` / `--leaf` override it. `info` prints the header, the
/// decoded build metadata, and the per-section byte breakdown (the
/// checksum is verified as a side effect).
pub fn index(p: &Parsed) -> CmdResult {
    match p.action.as_deref() {
        Some("build") => index_build(p),
        Some("info") => index_info(p),
        Some(other) => Err(format!("unknown index action {other:?} (build|info)")),
        None => Err("usage: karl index build DATA OUT | karl index info PATH".into()),
    }
}

fn index_build(p: &Parsed) -> CmdResult {
    p.expect_flags(&["profile", "family", "leaf", "gamma", "method"])
        .map_err(|e| e.to_string())?;
    let [data_path, out_path] = p.rest.as_slice() else {
        return Err("usage: karl index build DATA OUT [--profile memory|disk] …".into());
    };
    let data = load_csv(data_path).map_err(|e| e.to_string())?;
    let method = parse_method(p)?;
    let gamma = gamma_for(p, &data)?;
    let profile = match p.get("profile") {
        None => StorageProfile::Memory,
        Some(s) => StorageProfile::parse(s)
            .ok_or_else(|| format!("unknown profile {s:?} (memory|disk)"))?,
    };
    let family = match p.get("family") {
        None => None,
        Some("kd") => Some(IndexKind::Kd),
        Some("ball") => Some(IndexKind::Ball),
        Some(other) => return Err(format!("unknown family {other:?} (kd|ball)")),
    };
    let leaf: Option<usize> = p
        .get_parsed("leaf", "a leaf capacity")
        .map_err(|e| e.to_string())?;
    // The cost model only fills in what the flags leave open. With both
    // pinned it is not consulted, and the metadata records the canned
    // constants instead of a per-run measurement, so two builds of the
    // same data write identical bytes.
    let (family, leaf, calibration) = match (family, leaf) {
        (Some(family), Some(leaf)) => (family, leaf, StorageCalibration::canned(profile)),
        _ => {
            let calibration = StorageCalibration::for_profile(profile);
            let plan = plan_for_storage(data.len(), data.dims(), profile, calibration);
            (
                family.unwrap_or(plan.kind),
                leaf.unwrap_or(plan.leaf_capacity),
                calibration,
            )
        }
    };
    if leaf == 0 || leaf > u32::MAX as usize {
        return Err("--leaf must be between 1 and 2^32-1".into());
    }
    let n = data.len();
    let weights = vec![1.0 / n as f64; n];
    let t0 = Instant::now();
    let eval = AnyEvaluator::build(family, &data, &weights, Kernel::gaussian(gamma), method, leaf);
    let build_time = t0.elapsed();
    let meta = IndexMeta {
        kernel: Kernel::gaussian(gamma),
        method,
        leaf_capacity: leaf as u32,
        profile,
        calibration,
    };
    let t1 = Instant::now();
    let bytes = eval
        .write_index_file(Path::new(out_path), &meta)
        .map_err(|e| e.to_string())?;
    let write_time = t1.elapsed();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "indexed {n} points x {} dims into {out_path} ({bytes} bytes)",
        data.dims()
    );
    let _ = writeln!(
        out,
        "family {} leaf {leaf}{} (profile {profile}: node {:.0} ns, byte {:.4} ns)",
        match family {
            IndexKind::Kd => "kd",
            IndexKind::Ball => "ball",
        },
        if p.has("family") || p.has("leaf") {
            ""
        } else {
            " [auto-tuned]"
        },
        calibration.node_visit_ns,
        calibration.byte_read_ns
    );
    let _ = writeln!(
        out,
        "gamma {gamma:.4}, {method:?}; built in {build_time:.2?}, written in {write_time:.2?}"
    );
    Ok(out)
}

fn index_info(p: &Parsed) -> CmdResult {
    p.expect_flags(&[]).map_err(|e| e.to_string())?;
    let [path] = p.rest.as_slice() else {
        return Err("usage: karl index info PATH".into());
    };
    let info = karl_tree::index_file_info(Path::new(path)).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "format v{}  family {}  dims {}  {} bytes  checksum {:#018x} (verified)",
        info.version, info.family, info.dims, info.file_len, info.checksum
    );
    let _ = writeln!(
        out,
        "simd backend {} (KARL_SIMD to override; answers are backend-independent)",
        backend_name()
    );
    match IndexMeta::decode(&info.app_meta) {
        Ok(m) => {
            let _ = writeln!(
                out,
                "built with {:?} kernel, {:?}, leaf {}; tuned for {} (node {:.0} ns, byte {:.4} ns)",
                m.kernel,
                m.method,
                m.leaf_capacity,
                m.profile,
                m.calibration.node_visit_ns,
                m.calibration.byte_read_ns
            );
        }
        Err(_) => {
            let _ = writeln!(
                out,
                "metadata: {} bytes (not a karl-cli metadata record)",
                info.app_meta.len()
            );
        }
    }
    let _ = writeln!(out, "\nsection               elem       offset        bytes        count");
    let mut total = 0u64;
    for s in &info.sections {
        total += s.bytes;
        let _ = writeln!(
            out,
            "{:<20}  {:<4} {:>12} {:>12} {:>12}",
            s.label, s.elem, s.offset, s.bytes, s.count
        );
    }
    let _ = writeln!(
        out,
        "{:<20}  {:<4} {:>12} {:>12}",
        "total payload", "", "", total
    );
    Ok(out)
}

fn load_training(p: &Parsed) -> Result<(PointSet, Option<Vec<f64>>), String> {
    let path = p.required("data").map_err(|e| e.to_string())?;
    match p.get("format") {
        None | Some("csv-last") => {
            let (x, y) = load_labeled_csv(path, LabelColumn::Last).map_err(|e| e.to_string())?;
            Ok((x, Some(y)))
        }
        Some("csv-first") => {
            let (x, y) = load_labeled_csv(path, LabelColumn::First).map_err(|e| e.to_string())?;
            Ok((x, Some(y)))
        }
        Some("csv") => Ok((load_csv(path).map_err(|e| e.to_string())?, None)),
        Some("libsvm") => {
            let (x, y) = load_libsvm(path).map_err(|e| e.to_string())?;
            Ok((x, Some(y)))
        }
        Some(other) => Err(format!(
            "unknown format {other:?} (csv|csv-first|csv-last|libsvm)"
        )),
    }
}

fn kernel_from_flags(p: &Parsed, points: &PointSet) -> Result<Kernel, String> {
    let gamma = match p.get("gamma") {
        None | Some("auto") => 1.0 / points.dims() as f64, // LIBSVM default
        Some(v) => v
            .parse()
            .map_err(|_| format!("--gamma {v:?}: expected a number or 'auto'"))?,
    };
    let coef0: f64 = p
        .get_or("coef0", 0.0, "a number")
        .map_err(|e| e.to_string())?;
    let degree: u32 = p
        .get_or("degree", 3, "an integer")
        .map_err(|e| e.to_string())?;
    match p.get("kernel") {
        None | Some("rbf") | Some("gaussian") => Ok(Kernel::gaussian(gamma)),
        Some("poly") | Some("polynomial") => Ok(Kernel::polynomial(gamma, coef0, degree)),
        Some("sigmoid") => Ok(Kernel::sigmoid(gamma, coef0)),
        Some("laplacian") => Ok(Kernel::laplacian(gamma)),
        Some(other) => Err(format!(
            "unknown kernel {other:?} (rbf|poly|sigmoid|laplacian)"
        )),
    }
}

/// `karl svm-train --data FILE --svm csvc|oneclass --out MODEL …`
pub fn svm_train(p: &Parsed) -> CmdResult {
    p.expect_flags(&[
        "data", "svm", "out", "format", "c", "nu", "kernel", "gamma", "degree", "coef0",
    ])
    .map_err(|e| e.to_string())?;
    let out_path = p.required("out").map_err(|e| e.to_string())?;
    let svm = p.required("svm").map_err(|e| e.to_string())?.to_string();
    let (points, labels) = load_training(p)?;
    let kernel = kernel_from_flags(p, &points)?;
    let start = Instant::now();
    let (model, ty) = match svm.as_str() {
        "csvc" => {
            let y = labels.ok_or("csvc training needs labeled data")?;
            let c: f64 = p.get_or("c", 1.0, "a number").map_err(|e| e.to_string())?;
            (CSvc::new(c, kernel).train(&points, &y), SvmType::CSvc)
        }
        "oneclass" => {
            let nu: f64 = p.get_or("nu", 0.1, "a number").map_err(|e| e.to_string())?;
            (
                OneClassSvm::new(nu, kernel).train(&points),
                SvmType::OneClass,
            )
        }
        other => return Err(format!("unknown --svm {other:?} (csvc|oneclass)")),
    };
    let elapsed = start.elapsed();
    save_model(out_path, &model, ty).map_err(|e| e.to_string())?;
    Ok(format!(
        "trained {} on {} points in {elapsed:.2?}: {} support vectors, rho {:.6}; saved to {out_path}\n",
        if ty == SvmType::CSvc { "c_svc" } else { "one_class" },
        points.len(),
        model.num_support(),
        model.threshold()
    ))
}

/// `karl svm-predict --model MODEL --queries FILE …`
pub fn svm_predict(p: &Parsed) -> CmdResult {
    p.expect_flags(&["model", "queries", "method", "leaf"])
        .map_err(|e| e.to_string())?;
    let queries =
        load_csv(p.required("queries").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let (model, _) = load_model(
        p.required("model").map_err(|e| e.to_string())?,
        Some(queries.dims()),
    )
    .map_err(|e| e.to_string())?;
    let tau = model.threshold();
    let leaf: usize = p
        .get_or("leaf", 40, "a leaf capacity")
        .map_err(|e| e.to_string())?;

    let mut out = String::with_capacity(queries.len() * 4);
    let start = Instant::now();
    if p.get("method") == Some("scan") {
        let scan = Scan::new(
            model.support().clone(),
            model.weights().to_vec(),
            *model.kernel(),
        );
        for q in queries.iter() {
            out.push_str(if scan.tkaq(q, tau) { "+1\n" } else { "-1\n" });
        }
    } else {
        let method = parse_method(p)?;
        let eval = AnyEvaluator::build(
            IndexKind::Kd,
            model.support(),
            model.weights(),
            *model.kernel(),
            method,
            leaf,
        );
        for q in queries.iter() {
            out.push_str(if eval.tkaq(q, tau) { "+1\n" } else { "-1\n" });
        }
    }
    let elapsed = start.elapsed();
    let _ = writeln!(
        out,
        "# throughput {:.0} queries/s ({} support vectors)",
        queries.len() as f64 / elapsed.as_secs_f64(),
        model.num_support()
    );
    Ok(out)
}

/// `karl tune --data FILE --queries FILE (--tau T | --eps E) …`
pub fn tune(p: &Parsed) -> CmdResult {
    p.expect_flags(&["data", "queries", "tau", "eps", "method", "gamma"])
        .map_err(|e| e.to_string())?;
    let workload = query_from_flags(p, &["tau", "eps"])?;
    let data =
        load_csv(p.required("data").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let queries =
        load_csv(p.required("queries").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let method = parse_method(p)?;
    let gamma = gamma_for(p, &data)?;
    let n = data.len();
    let weights = vec![1.0 / n as f64; n];
    let outcome = OfflineTuner::default().tune(
        &data,
        &weights,
        Kernel::gaussian(gamma),
        method,
        &queries,
        workload,
    );
    let mut out = String::from("kind  leaf  queries/s\n");
    for c in &outcome.report {
        let _ = writeln!(
            out,
            "{:<5} {:>4}  {:>9.0}",
            match c.kind {
                IndexKind::Kd => "kd",
                IndexKind::Ball => "ball",
            },
            c.leaf_capacity,
            c.throughput
        );
    }
    let best = outcome.report[0];
    let _ = writeln!(
        out,
        "recommended: {:?} with leaf capacity {} ({:.0} queries/s)",
        best.kind, best.leaf_capacity, best.throughput
    );
    Ok(out)
}
