//! The traced run: the workload through the library's public entry
//! points, in-process, with a span around each call at a layer boundary.
//! Every library call of the traced run is in this file, so an API rename
//! touches only this module.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the run ends. A layer's self time is its span minus
//! the part its child spans cover.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use karl_core::{
    envelope_parts, node_intervals_frozen, AnyEvaluator, BoundMethod, IndexKind, IndexMeta, Kernel,
    Outcome as RunResult, Query, QueryBatch, QueryContext, Scan, Scratch, ServeConfig, Server,
    StorageCalibration, StorageProfile,
};
use karl_data::load_csv;
use karl_geom::PointSet;
use karl_tree::{FrozenTree, NodeId};

use crate::e2e::{parse_response, Response, Status};
use crate::inputs::Prepared;
use crate::json::{obj, Json};
use crate::stats;
use crate::workload::{Op, Request};

/// The per-layer metrics of a traced run, in report order.
pub const METRICS: [&str; 30] = [
    "data.load_s",
    "tree.build_s",
    "tree.load_s",
    "tree.index_bytes",
    "tuning.leaf_capacity",
    "eval.query_us.p50",
    "eval.query_us.p99",
    "eval.busy_s",
    "eval.iters_per_query",
    "eval.iters.p99",
    "bounds.ns_per_node",
    "envelope.ns_per_envelope",
    "scan.ns_per_point",
    "batch.run_s",
    "batch.overhead_frac",
    "serve.backlog_ms.p50",
    "serve.backlog_ms.p99",
    "serve.queue_ms.p50",
    "serve.queue_ms.p99",
    "serve.dispatch_ms.p50",
    "serve.dispatch_ms.p99",
    "serve.batch_size.mean",
    "serve.groups_per_flush.mean",
    "serve.parse_us.p50",
    "serve.idle_frac",
    "serve.truncated",
    "serve.shed",
    "serve.rejected",
    "unattributed_frac",
    "trace.overhead_frac",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        req: Option<u64>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now, None)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, Some(parent), start, Instant::now(), None);
        out
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Seconds of all spans named `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("req", opt(s.req)),
                    ])
                })
                .collect(),
        )
    }
}

/// What the traced run is asked to do.
pub struct Plan<'a> {
    pub p: &'a Prepared,
    /// The index the daemon serves (serve workloads); batch workloads
    /// build a kd tree with `leaf` in-process, as `karl batch --data` does.
    pub index: Option<&'a Path>,
    pub leaf: usize,
    /// The evaluation stream: each query point with its op.
    pub stream: Stream<'a>,
    /// Requests replayed through the in-process server, and whether they
    /// are paced to their due times (open loop) or sent at once (burst).
    pub serve: &'a [Request],
    pub paced: bool,
}

pub enum Stream<'a> {
    /// The batch query file, one op for all.
    File(&'a Path, Op),
    /// The serve requests (points are oracle queries).
    Requests(&'a [Request]),
}

pub struct Traced {
    pub tracer: Tracer,
    pub metrics: Vec<(&'static str, f64)>,
    /// In-process `QueryBatch` answers in stream order (`None` for a
    /// per-query error), for the bitwise comparison with the binary.
    pub batch_answers: Vec<Option<f64>>,
    /// In-process server responses by request (position = id − 1).
    pub serve_responses: Vec<Option<Response>>,
    /// Queries per second of the traced per-query loop.
    pub traced_qps: f64,
    /// Median traced serve latency (due → flush written).
    pub traced_p50_ms: f64,
}

fn query_of(op: Op, mu: f64) -> Query {
    let (_, _, v) = op.wire(mu);
    match op {
        Op::Ekaq { .. } => Query::Ekaq { eps: v },
        Op::Tkaq => Query::Tkaq { tau: v },
        Op::Within => Query::Within { tol: v },
    }
}

fn frozen(e: &AnyEvaluator) -> Option<&FrozenTree> {
    match e {
        AnyEvaluator::Kd(e) => e.pos_frozen(),
        AnyEvaluator::Ball(e) => e.pos_frozen(),
    }
}

/// Node ids of the top `levels` levels below the root.
fn top_nodes(tree: &FrozenTree, levels: usize) -> Vec<NodeId> {
    let mut all = Vec::new();
    let mut level = vec![tree.root()];
    for _ in 0..levels {
        let mut next = Vec::new();
        for &id in &level {
            tree.gather_children(id, &mut next);
        }
        all.extend_from_slice(&next);
        level = next;
    }
    all
}

pub fn run(plan: &Plan) -> Result<Traced, String> {
    let p = plan.p;
    let mut t = Tracer::new();
    let root = t.open("workload", None);

    let data = t
        .time("data.load", root, || load_csv(&p.data))
        .map_err(|e| format!("load_csv: {e}"))?;
    let n = data.len();
    let weights = vec![1.0 / n as f64; n];
    let kernel = Kernel::gaussian(p.gamma);

    // The evaluator the binary answers from, plus the timing of the
    // persist layer on it.
    let (eval, index_path, leaf) = match plan.index {
        Some(path) => {
            let (eval, meta) = t
                .time("tree.load", root, || AnyEvaluator::from_index_file(path))
                .map_err(|e| format!("from_index_file: {e}"))?;
            let leaf = meta.leaf_capacity as usize;
            t.time("tree.build", root, || {
                AnyEvaluator::build(eval.kind(), &data, &weights, meta.kernel, meta.method, leaf)
            });
            (eval, path.to_path_buf(), leaf)
        }
        None => {
            let eval = t.time("tree.build", root, || {
                AnyEvaluator::build(
                    IndexKind::Kd,
                    &data,
                    &weights,
                    kernel,
                    BoundMethod::Karl,
                    plan.leaf,
                )
            });
            let path = p.dir.join("trace-batch.idx");
            let meta = IndexMeta {
                kernel,
                method: BoundMethod::Karl,
                leaf_capacity: plan.leaf as u32,
                profile: StorageProfile::Memory,
                calibration: StorageCalibration::canned(StorageProfile::Memory),
            };
            t.time("tree.write", root, || eval.write_index_file(&path, &meta))
                .map_err(|e| format!("write_index_file: {e}"))?;
            t.time("tree.load", root, || AnyEvaluator::from_index_file(&path))
                .map_err(|e| format!("from_index_file: {e}"))?;
            (eval, path, plan.leaf)
        }
    };
    let index_bytes = std::fs::metadata(&index_path)
        .map_err(|e| e.to_string())?
        .len();

    // The evaluation stream, grouped by query spec for the batch engine
    // (one group for a batch file; at most three for a serve mix).
    let (points, specs): (PointSet, Vec<Query>) = match plan.stream {
        Stream::File(path, op) => {
            let qs = t
                .time("queries.load", root, || load_csv(path))
                .map_err(|e| format!("load_csv: {e}"))?;
            let len = qs.len();
            (qs, vec![query_of(op, p.mu); len])
        }
        Stream::Requests(reqs) => {
            let mut flat = Vec::new();
            for r in reqs {
                flat.extend_from_slice(&p.points[r.point]);
            }
            (
                PointSet::new(p.points[0].len(), flat),
                reqs.iter().map(|r| query_of(r.op, p.mu)).collect(),
            )
        }
    };
    let mut groups: Vec<(Query, Vec<usize>)> = Vec::new();
    for (i, q) in specs.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| g == q) {
            Some((_, members)) => members.push(i),
            None => groups.push((*q, vec![i])),
        }
    }

    let batch_span = t.open("batch.run", Some(root));
    let mut results: Vec<Option<RunResult>> = vec![None; specs.len()];
    let mut batch_answers = vec![None; specs.len()];
    for (query, members) in &groups {
        let subset;
        let qs = if groups.len() == 1 {
            &points
        } else {
            subset = points.select(members);
            &subset
        };
        let start = Instant::now();
        let report = QueryBatch::new(qs, *query)
            .threads(1)
            .try_run_any(&eval)
            .map_err(|e| format!("QueryBatch: {e}"))?;
        t.record("batch.group", Some(batch_span), start, Instant::now(), None);
        for (slot, &i) in members.iter().enumerate() {
            if let Ok(o) = &report.results()[slot] {
                results[i] = Some(*o);
                batch_answers[i] = Some(report.answer(o));
            }
        }
    }
    t.close(batch_span);

    // Per-query spans around the engine's scratch-reusing entry point.
    let eval_span = t.open("eval", Some(root));
    let mut scratch = Scratch::new();
    let (mut query_us, mut iters) = (
        Vec::with_capacity(specs.len()),
        Vec::with_capacity(specs.len()),
    );
    for (i, q) in specs.iter().enumerate() {
        let x = points.point(i);
        let start = Instant::now();
        let out = match &eval {
            AnyEvaluator::Kd(e) => e.run_with_scratch(x, *q, None, &mut scratch),
            AnyEvaluator::Ball(e) => e.run_with_scratch(x, *q, None, &mut scratch),
        };
        let end = Instant::now();
        t.record("eval.query", Some(eval_span), start, end, Some(i as u64));
        query_us.push((end - start).as_secs_f64() * 1e6);
        iters.push(out.iterations as f64);
        if let Some(RunResult::Complete(b)) = results[i] {
            if b.lb.to_bits() != out.lb.to_bits() || b.ub.to_bits() != out.ub.to_bits() {
                return Err(format!(
                    "query {i}: run_with_scratch and QueryBatch disagree"
                ));
            }
        }
    }
    t.close(eval_span);
    let eval_wall = t.secs(eval_span);

    let (bounds_ns, envelope_ns, scan_ns) =
        probes(&mut t, root, &eval, &data, &weights, kernel, p)?;

    let serve = serve_session(&mut t, root, &eval, plan)?;
    t.close(root);

    let children: f64 = (0..t.spans.len())
        .filter(|&i| t.spans[i].parent == Some(root))
        .map(|i| t.secs(i))
        .sum();
    let busy = t.total("eval.query");
    let batch_run = t.secs(batch_span);
    let q = |v: &[f64], pct: f64| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        stats::percentile(&s, pct)
    };
    let mut metrics = vec![
        ("data.load_s", t.total("data.load")),
        ("tree.build_s", t.total("tree.build")),
        ("tree.load_s", t.total("tree.load")),
        ("tree.index_bytes", index_bytes as f64),
        ("tuning.leaf_capacity", leaf as f64),
        ("eval.query_us.p50", q(&query_us, 0.5)),
        ("eval.query_us.p99", q(&query_us, 0.99)),
        ("eval.busy_s", busy),
        (
            "eval.iters_per_query",
            iters.iter().sum::<f64>() / iters.len() as f64,
        ),
        ("eval.iters.p99", q(&iters, 0.99)),
        ("bounds.ns_per_node", bounds_ns),
        ("envelope.ns_per_envelope", envelope_ns),
        ("scan.ns_per_point", scan_ns),
        ("batch.run_s", batch_run),
        ("batch.overhead_frac", 1.0 - busy / batch_run),
    ];
    metrics.extend(serve.metrics);
    metrics.push(("unattributed_frac", 1.0 - children / t.secs(root)));
    Ok(Traced {
        tracer: t,
        metrics,
        batch_answers,
        serve_responses: serve.responses,
        traced_qps: specs.len() as f64 / eval_wall,
        traced_p50_ms: serve.p50_ms,
    })
}

/// Node levels below the root the bound probe covers.
const PROBE_LEVELS: usize = 8;
/// Repetitions of the bound and envelope probes, so each times tens of
/// milliseconds of work.
const PROBE_ROUNDS: usize = 8;
/// Oracle queries the scan probe aggregates exactly.
const SCAN_QUERIES: usize = 16;

/// Microprobes over the workload's own tree with the oracle queries:
/// bound geometry per node, envelope construction per node interval, and
/// the exact scan per point (which also cross-checks the oracle).
fn probes(
    t: &mut Tracer,
    root: usize,
    eval: &AnyEvaluator,
    data: &PointSet,
    weights: &[f64],
    kernel: Kernel,
    p: &Prepared,
) -> Result<(f64, f64, f64), String> {
    let tree = frozen(eval).ok_or("the evaluator has no positive-weight tree")?;
    let ids = top_nodes(tree, PROBE_LEVELS);
    let mut intervals = Vec::new();
    let mut buf = Vec::new();
    let start = Instant::now();
    for round in 0..PROBE_ROUNDS {
        for q in &p.points {
            let ctx = QueryContext::new(&kernel, BoundMethod::Karl, q);
            node_intervals_frozen(&ctx, tree, &ids, &mut buf);
            if round == 0 {
                intervals.extend(
                    buf.iter()
                        .filter(|iv| iv.w > 0.0)
                        .map(|iv| (iv.lo, iv.hi, iv.x_agg / iv.w)),
                );
            }
        }
    }
    let end = Instant::now();
    t.record("probe.bounds", Some(root), start, end, None);
    let bounds_ns =
        (end - start).as_nanos() as f64 / (PROBE_ROUNDS * ids.len() * p.points.len()).max(1) as f64;

    let curve = kernel.curve();
    let start = Instant::now();
    for _ in 0..PROBE_ROUNDS {
        for &(lo, hi, xbar) in &intervals {
            std::hint::black_box(envelope_parts(curve, lo, hi, xbar));
        }
    }
    let end = Instant::now();
    t.record("probe.envelope", Some(root), start, end, None);
    let envelope_ns =
        (end - start).as_nanos() as f64 / (PROBE_ROUNDS * intervals.len()).max(1) as f64;

    let scan = Scan::new(data.clone(), weights.to_vec(), kernel);
    let take = SCAN_QUERIES.min(p.points.len());
    let start = Instant::now();
    let sums: Vec<f64> = p.points[..take].iter().map(|q| scan.aggregate(q)).collect();
    let end = Instant::now();
    t.record("probe.scan", Some(root), start, end, None);
    for (i, (s, f)) in sums.iter().zip(&p.exact).enumerate() {
        if (s - f).abs() > 1e-9 * f.abs() {
            return Err(format!(
                "oracle query {i}: library scan {s} disagrees with the oracle {f}"
            ));
        }
    }
    let scan_ns = (end - start).as_nanos() as f64 / (take * data.len()) as f64;
    Ok((bounds_ns, envelope_ns, scan_ns))
}

/// What the instrumented transport saw during one `Server::run`.
#[derive(Default)]
struct Wire {
    /// When each request line was handed to the server.
    handed: Vec<Instant>,
    /// When the server next asked for input after each line.
    next_call: Vec<Option<Instant>>,
    /// The latest read event (a line or end of input): what triggers a
    /// flush that follows it.
    last_read: Option<(Instant, Option<usize>)>,
    eof: bool,
    idle: Duration,
    flushes: Vec<Flush>,
    unflushed: usize,
    written: bool,
    out: Vec<u8>,
}

/// One micro-batch dispatch: lines `first..end` answered, triggered by
/// reading `trigger_line` (`None`: end of input) at `trigger`, last
/// response written at `done`.
struct Flush {
    first: usize,
    end: usize,
    trigger: Instant,
    trigger_line: Option<usize>,
    done: Instant,
}

/// A `BufRead` over a channel of request lines that records when each
/// line is handed to the server and how long the server waits for input.
struct ChannelReader<'a> {
    rx: mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
    wire: &'a RefCell<Wire>,
}

impl Read for ChannelReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            let mut w = self.wire.borrow_mut();
            if w.eof {
                return Ok(&[]);
            }
            let called = Instant::now();
            if let Some(k) = w.handed.len().checked_sub(1) {
                w.next_call[k].get_or_insert(called);
            }
            drop(w);
            let got = self.rx.recv();
            let now = Instant::now();
            let mut w = self.wire.borrow_mut();
            w.idle += now - called;
            self.pos = 0;
            match got {
                Ok(line) => {
                    w.last_read = Some((now, Some(w.handed.len())));
                    w.handed.push(now);
                    w.next_call.push(None);
                    self.buf = line.into_bytes();
                }
                Err(_) => {
                    w.last_read = Some((now, None));
                    w.eof = true;
                    self.buf.clear();
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// A `Write` that keeps the responses and closes a flush record each
/// time the server flushes after writing.
struct FlushRecorder<'a> {
    wire: &'a RefCell<Wire>,
}

impl Write for FlushRecorder<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut w = self.wire.borrow_mut();
        w.out.extend_from_slice(buf);
        w.written = true;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut w = self.wire.borrow_mut();
        if w.written {
            let (trigger, trigger_line) = w.last_read.expect("a flush follows a read");
            let flush = Flush {
                first: w.unflushed,
                end: w.handed.len(),
                trigger,
                trigger_line,
                done: Instant::now(),
            };
            w.unflushed = flush.end;
            w.written = false;
            w.flushes.push(flush);
        }
        Ok(())
    }
}

struct ServeTrace {
    metrics: Vec<(&'static str, f64)>,
    responses: Vec<Option<Response>>,
    p50_ms: f64,
}

/// Replays `plan.serve` through `Server::run` over the instrumented
/// transport. Per request: backlog = due → handed to the server, queue =
/// handed → the read that triggered its flush, dispatch = trigger → last
/// response of that flush written; the three sum to the traced latency
/// exactly.
fn serve_session(
    t: &mut Tracer,
    root: usize,
    eval: &AnyEvaluator,
    plan: &Plan,
) -> Result<ServeTrace, String> {
    let (reqs, mu) = (plan.serve, plan.p.mu);
    let lines: Vec<(Duration, String)> = reqs
        .iter()
        .map(|r| (r.due, r.line(&plan.p.points, mu)))
        .collect();
    let wire = RefCell::new(Wire::default());
    let session = t.open("serve.session", Some(root));
    let paced = plan.paced;
    let t0 = Instant::now() + Duration::from_millis(if paced { 2 } else { 0 });
    let (tx, rx) = mpsc::channel::<String>();
    let run = std::thread::scope(|s| {
        s.spawn(move || {
            for (due, line) in lines {
                if paced {
                    let now = Instant::now();
                    if t0 + due > now {
                        std::thread::sleep(t0 + due - now);
                    }
                }
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        let cfg = ServeConfig {
            threads: Some(1),
            ..ServeConfig::default()
        };
        let mut server = Server::new(eval, cfg).map_err(|e| format!("Server::new: {e}"))?;
        let reader = ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
            wire: &wire,
        };
        server
            .run(reader, FlushRecorder { wire: &wire }, io::sink())
            .map_err(|e| format!("Server::run: {e}"))
    });
    run?;
    t.close(session);
    let session_s = t.secs(session);
    let w = wire.into_inner();

    let text = String::from_utf8(w.out).map_err(|e| e.to_string())?;
    let parsed: Vec<Response> = text.lines().map(parse_response).collect::<Result<_, _>>()?;
    if parsed.len() != reqs.len() || w.handed.len() != reqs.len() {
        return Err(format!(
            "in-process server: {} lines in, {} responses out",
            w.handed.len(),
            parsed.len()
        ));
    }
    let mut responses = vec![None; reqs.len()];
    let (mut backlog, mut queue, mut dispatch, mut latency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut groups, mut trigger_lines) = (0usize, Vec::new());
    let ms = |a: u64, b: u64| (b as f64 - a as f64) * 1e-6;
    for f in &w.flushes {
        let (trig, done) = (t.ns(f.trigger), t.ns(f.done));
        t.record("serve.flush", Some(session), f.trigger, f.done, None);
        trigger_lines.extend(f.trigger_line);
        let mut specs: Vec<(&'static str, u64)> = Vec::new();
        for k in f.first..f.end {
            let (r, resp) = (&reqs[k], parsed[k]);
            if resp.id != r.id {
                return Err(format!(
                    "response {k} carries id {} but answers request {}",
                    resp.id, r.id
                ));
            }
            responses[k] = Some(resp);
            let due = t0 + r.due;
            let (d, h) = (t.ns(due), t.ns(w.handed[k]));
            if !(d <= h && h <= trig && trig <= done) {
                return Err(format!("request {}: stage times out of order", r.id));
            }
            let span = t.record("serve.request", Some(session), due, f.done, Some(r.id));
            t.record("serve.backlog", Some(span), due, w.handed[k], Some(r.id));
            t.record(
                "serve.queue",
                Some(span),
                w.handed[k],
                f.trigger,
                Some(r.id),
            );
            t.record("serve.dispatch", Some(span), f.trigger, f.done, Some(r.id));
            backlog.push(ms(d, h));
            queue.push(ms(h, trig));
            dispatch.push(ms(trig, done));
            latency.push(ms(d, done));
            // The server groups a flush by (op, parameters, budget); every
            // deadline request has its own budget.
            let (op, _, v) = r.op.wire(mu);
            if r.deadline_ms.is_some() {
                groups += 1;
            } else if !specs.contains(&(op, v.to_bits())) {
                specs.push((op, v.to_bits()));
                groups += 1;
            }
        }
    }
    if responses.iter().any(Option::is_none) {
        return Err("a request was answered outside every flush".into());
    }
    let parse_us: Vec<f64> = (0..reqs.len())
        .filter(|k| !trigger_lines.contains(k))
        .filter_map(|k| w.next_call[k].map(|n| (n - w.handed[k]).as_secs_f64() * 1e6))
        .collect();
    let count = |st: Status| parsed.iter().filter(|r| r.status == st).count() as f64;
    let pct = |v: &[f64], q: f64| {
        if v.is_empty() {
            return 0.0;
        }
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        stats::percentile(&s, q)
    };
    let flushes = w.flushes.len().max(1) as f64;
    Ok(ServeTrace {
        metrics: vec![
            ("serve.backlog_ms.p50", pct(&backlog, 0.5)),
            ("serve.backlog_ms.p99", pct(&backlog, 0.99)),
            ("serve.queue_ms.p50", pct(&queue, 0.5)),
            ("serve.queue_ms.p99", pct(&queue, 0.99)),
            ("serve.dispatch_ms.p50", pct(&dispatch, 0.5)),
            ("serve.dispatch_ms.p99", pct(&dispatch, 0.99)),
            ("serve.batch_size.mean", reqs.len() as f64 / flushes),
            ("serve.groups_per_flush.mean", groups as f64 / flushes),
            ("serve.parse_us.p50", pct(&parse_us, 0.5)),
            ("serve.idle_frac", w.idle.as_secs_f64() / session_s),
            ("serve.truncated", count(Status::Truncated)),
            ("serve.shed", count(Status::Shed)),
            ("serve.rejected", count(Status::Rejected)),
        ],
        responses,
        p50_ms: pct(&latency, 0.5),
    })
}
