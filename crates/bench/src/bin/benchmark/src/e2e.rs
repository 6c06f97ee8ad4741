//! End-to-end measurement of one workload through the binary, tracing
//! off, with every answer checked against the oracle.

use std::time::{Duration, Instant};

use crate::drive::{self, IndexFile, Slot};
use crate::host::Reference;
use crate::inputs::Prepared;
use crate::json::{self, Json};
use crate::oracle::{self, Reply, Verdict};
use crate::stats;
use crate::workload::{
    self, Kind, Op, Request, Sizes, Workload, LATENCY_LIMIT_MS, MAX_LATENESS_MS, ORACLE_QUERIES,
};

/// One reported number: `value` is what the metric reads, `samples` the
/// within-run observations it was computed from, and `raw` the value
/// before scaling to the nominal host speed (equal to `value` for
/// open-loop latencies, which are not scaled).
#[derive(Debug, Clone)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub raw: f64,
    pub samples: Vec<f64>,
}

impl Value {
    fn new(name: &'static str, value: f64, raw: f64, samples: Vec<f64>) -> Self {
        Value {
            name,
            value,
            raw,
            samples,
        }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub unverifiable: u64,
    pub wrong: u64,
    /// The first few correctness failures, for the log.
    pub wrong_examples: Vec<String>,
    /// Why the run's numbers cannot be trusted (generator lateness, too
    /// few samples beyond p99), if they cannot.
    pub invalid: Vec<String>,
    pub metrics: Vec<Value>,
    /// Shares that can legitimately read 0, so they carry no bound.
    pub info: Vec<(&'static str, f64, &'static str)>,
    pub guards: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Records one answer's oracle verdict.
    pub fn check(&mut self, op: Op, p: &Prepared, point: usize, reply: Reply) {
        match oracle::check(op, p.mu, p.exact[point], reply) {
            Verdict::Ok => {}
            Verdict::Unverifiable => self.unverifiable += 1,
            Verdict::Wrong(msg) => self.wrong(format!("oracle query {point}: {msg}")),
        }
    }

    pub fn wrong(&mut self, msg: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 5 {
            self.wrong_examples.push(msg);
        }
    }

    pub fn metric(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Closed loop: each repetition runs `karl batch` on the 1-query file
/// and on the full query file, alternating which goes first, until the
/// time is spent (at least `min_reps` repetitions). Every repetition is
/// scaled to the nominal host speed by the reference timed before and
/// after it. Returns the answers of the full file, for the traced run's
/// bitwise comparison.
pub fn batch(
    w: &Workload,
    p: &Prepared,
    karl: &std::path::Path,
    host: &mut Reference,
    seconds: f64,
    min_reps: usize,
    out: &mut Outcome,
) -> Result<Vec<Slot>, String> {
    let Kind::Batch { op } = w.kind else {
        unreachable!("batch() on a serve workload")
    };
    let (_, flag, value) = op.wire(p.mu);
    let q = p.query_count;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setup, mut qps, mut job_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut first: Option<Vec<Slot>> = None;
    let mut comments = String::new();
    let mut before = host.slowness();
    for rep in 0.. {
        let started = Instant::now();
        let run = |file: &std::path::Path| drive::run_batch(karl, p, file, flag, value);
        let (one, full) = if rep % 2 == 0 {
            let one = run(&p.query1)?;
            (one, run(&p.queries)?)
        } else {
            let full = run(&p.queries)?;
            (run(&p.query1)?, full)
        };
        for (r, expect) in [(&one, 1), (&full, q)] {
            out.attempted += expect as u64;
            let answered = r
                .slots
                .iter()
                .filter(|s| matches!(s, Slot::Reply(_)))
                .count();
            out.failed += (expect - answered.min(expect)) as u64;
            if r.slots.len() != expect {
                out.wrong(format!(
                    "karl batch printed {} answers for {expect} queries",
                    r.slots.len()
                ));
            }
        }
        match &first {
            None => {
                for (i, slot) in full.slots.iter().take(ORACLE_QUERIES).enumerate() {
                    if let Slot::Reply(reply) = *slot {
                        out.check(op, p, i, reply);
                    }
                }
                comments = full.comments.clone();
                first = Some(full.slots.clone());
            }
            Some(f) if !same_bits(f, &full.slots) => {
                out.wrong(format!(
                    "repetition {rep} answered differently from repetition 0"
                ));
            }
            Some(_) => {}
        }
        if one.slots.first().map(slot_bits) != full.slots.first().map(slot_bits) {
            out.wrong("the 1-query file's answer differs from the full file's first".into());
        }
        let after = host.slowness();
        let slow = 0.5 * (before + after);
        before = after;
        setup.push(one.wall_s, slow);
        qps.push(q as f64 / (full.wall_s - one.wall_s).max(1e-6), slow);
        job_ms.push(full.wall_s * 1e3, slow);
        let rep_time = started.elapsed();
        if rep + 1 >= min_reps && Instant::now() + rep_time > deadline {
            break;
        }
    }
    // Every answer of a batch job arrives when the job ends, so each
    // query's latency is the job's wall time and p50 = p99.
    out.metrics = vec![
        setup.value("setup_s", false),
        qps.value("qps", true),
        job_ms.value("p50_ms", false),
        job_ms.value("p99_ms", false),
    ];
    out.guards.extend([
        ("repetitions", Json::Num(setup.raw.len() as f64)),
        ("host_slowness", Json::Num(stats::median(&setup.slow))),
    ]);
    out.guards
        .push(("karl_batch_note", Json::Str(comments.trim().to_string())));
    if let Some(simd) = drive::word_after(&comments, "simd ") {
        out.guards
            .push(("simd_backend", Json::Str(simd.to_string())));
    }
    Ok(first.unwrap_or_default())
}

/// The bits of a complete answer (`None` for anything else).
pub fn slot_bits(s: &Slot) -> Option<u64> {
    match s {
        Slot::Reply(Reply::Answer(v)) => Some(v.to_bits()),
        _ => None,
    }
}

fn same_bits(a: &[Slot], b: &[Slot]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| slot_bits(x) == slot_bits(y))
}

/// A parsed `karl serve` response line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    pub id: u64,
    pub status: Status,
    pub reply: Option<Reply>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Truncated,
    Shed,
    Rejected,
    Error,
}

pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = json::parse(line).map_err(|e| format!("unreadable response {line:?}: {e}"))?;
    let num = |k: &str| v.get(k).and_then(Json::as_f64);
    let id = num("id").ok_or(format!("response without id: {line}"))? as u64;
    let status = match v.get("status").and_then(Json::as_str) {
        Some("ok") => Status::Ok,
        Some("truncated") => Status::Truncated,
        Some("shed") => Status::Shed,
        Some("rejected") => Status::Rejected,
        _ => Status::Error,
    };
    let reply = match status {
        Status::Ok => num("answer").map(Reply::Answer),
        Status::Truncated | Status::Shed => num("lb")
            .zip(num("ub"))
            .map(|(lb, ub)| Reply::Interval { lb, ub }),
        _ => None,
    };
    Ok(Response { id, status, reply })
}

/// Responses per throughput window of a saturation burst.
const BURST_WINDOW: usize = 64;

/// Saturation bursts before and after the open loop. Each is bracketed by
/// the host reference; one long burst would hide host drift inside it.
const BURSTS_PER_SIDE: usize = 2;

/// The open-loop responses, by request, kept for the traced run's
/// bitwise comparison.
pub struct ServeAnswers {
    pub requests: Vec<Request>,
    pub responses: Vec<Option<Response>>,
}

/// Checks `responses` of one session against `requests` (ids are
/// positions + 1) and tallies failures; returns the responses by request.
fn tally(
    reqs: &[Request],
    session: &drive::Session,
    p: &Prepared,
    out: &mut Outcome,
) -> Result<Vec<Option<(std::time::Instant, Response)>>, String> {
    let mut by_req: Vec<Option<(std::time::Instant, Response)>> = vec![None; reqs.len()];
    for (t, line) in &session.responses {
        let r = parse_response(line)?;
        match by_req.get_mut((r.id as usize).wrapping_sub(1)) {
            Some(slot @ None) => *slot = Some((*t, r)),
            _ => out.wrong(format!("unexpected or repeated response id {}", r.id)),
        }
    }
    out.attempted += reqs.len() as u64;
    for (req, got) in reqs.iter().zip(&by_req) {
        let Some((_, r)) = got else {
            out.failed += 1;
            continue;
        };
        if !matches!(r.status, Status::Ok | Status::Truncated) {
            out.failed += 1;
        }
        match r.reply {
            Some(reply) => out.check(req.op, p, req.point, reply),
            None if matches!(r.status, Status::Ok | Status::Truncated | Status::Shed) => {
                out.wrong(format!("request {} answered without a value", req.id))
            }
            None => {}
        }
    }
    Ok(by_req)
}

/// Raw CPU-bound samples, each with the host slowness it ran at.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    slow: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw: f64, slow: f64) {
        self.raw.push(raw);
        self.slow.push(slow);
    }

    /// The samples at nominal host speed: times shrink and rates grow by
    /// the slowness.
    fn scaled(&self, rate: bool) -> Vec<f64> {
        self.raw
            .iter()
            .zip(&self.slow)
            .map(|(x, s)| if rate { x * s } else { x / s })
            .collect()
    }

    fn value(&self, name: &'static str, rate: bool) -> Value {
        let scaled = self.scaled(rate);
        Value::new(
            name,
            stats::median(&scaled),
            stats::median(&self.raw),
            scaled,
        )
    }
}

/// Saturation throughput: `count` requests of the workload's mix written
/// as fast as the pipe takes them to a fresh daemon. Records the
/// throughput of each window of [`BURST_WINDOW`] consecutive responses
/// (one default micro-batch) and the daemon's start-up time.
#[allow(clippy::too_many_arguments)]
fn burst(
    w: &Workload,
    p: &Prepared,
    idx: &IndexFile,
    karl: &std::path::Path,
    host: &mut Reference,
    seed: u64,
    count: usize,
    windows: &mut Samples,
    setup: &mut Samples,
    out: &mut Outcome,
) -> Result<(), String> {
    let reqs = workload::burst(&w.kind, seed, count, p.points.len());
    let before = host.slowness();
    let s = drive::serve_session(karl, &idx.path, &lines(&reqs, p), false)?;
    let slow = 0.5 * (before + host.slowness());
    tally(&reqs, &s, p, out)?;
    setup.push(s.ready_s, before);
    let times: Vec<Instant> = s.responses.iter().map(|(t, _)| *t).collect();
    let last = times.last().ok_or("the burst got no responses")?;
    if times.len() <= BURST_WINDOW {
        windows.push(
            reqs.len() as f64 / last.duration_since(s.t0).as_secs_f64(),
            slow,
        );
    }
    for (a, b) in times
        .iter()
        .step_by(BURST_WINDOW)
        .zip(times.iter().skip(BURST_WINDOW).step_by(BURST_WINDOW))
    {
        windows.push(
            BURST_WINDOW as f64 / b.duration_since(*a).as_secs_f64(),
            slow,
        );
    }
    Ok(())
}

fn lines(reqs: &[Request], p: &Prepared) -> Vec<(Duration, String)> {
    reqs.iter()
        .map(|r| (r.due, r.line(&p.points, p.mu)))
        .collect()
}

/// The serve workload: saturation bursts, the open loop at the
/// workload's Poisson rate for `seconds`, and more bursts, each in a
/// fresh daemon, plus more daemon start-ups up to the `setup_s` sample
/// count. Bursts on both sides of the open loop sample the host at
/// moments 20 s apart, so one slow stretch cannot set `qps`.
/// `with_burst` is false in the traced run, which only needs the
/// open-loop answers and median latency (it reports no `p99_ms`, so its
/// shorter open loop is not held to the samples-beyond-p99 rule).
/// Open-loop latencies are not scaled by host speed: they are mostly
/// waiting for a micro-batch to fill.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    w: &Workload,
    p: &Prepared,
    idx: &IndexFile,
    karl: &std::path::Path,
    host: &mut Reference,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    smoke: bool,
    with_burst: bool,
    out: &mut Outcome,
) -> Result<ServeAnswers, String> {
    let (mut windows, mut setup) = (Samples::default(), Samples::default());
    let bursts = if with_burst { BURSTS_PER_SIDE } else { 0 };
    let mut burst_seeds = (1..).map(|i| workload::mix(seed, i));
    for s in burst_seeds.by_ref().take(bursts) {
        let (n, win, set) = (sizes.burst, &mut windows, &mut setup);
        burst(w, p, idx, karl, host, s, n, win, set, out)?;
    }
    let requests = workload::open_loop(
        &w.kind,
        seed,
        Duration::from_secs_f64(seconds),
        p.points.len(),
    );
    let before = host.slowness();
    let session = drive::serve_session(karl, &idx.path, &lines(&requests, p), true)?;
    setup.push(session.ready_s, before);
    let by_req = tally(&requests, &session, p, out)?;
    let mut latency_ms = Vec::new();
    let (mut in_slo, mut truncated) = (0usize, 0usize);
    for (req, got) in requests.iter().zip(&by_req) {
        if let Some((t, r)) = got {
            let ms = t
                .saturating_duration_since(session.t0 + req.due)
                .as_secs_f64()
                * 1e3;
            latency_ms.push(ms);
            in_slo += (r.status == Status::Ok && ms <= LATENCY_LIMIT_MS) as usize;
            truncated += (r.status == Status::Truncated) as usize;
        }
    }
    for s in burst_seeds.take(bursts) {
        let (n, win, set) = (sizes.burst, &mut windows, &mut setup);
        burst(w, p, idx, karl, host, s, n, win, set, out)?;
    }
    while with_burst && setup.raw.len() < sizes.setup_samples {
        let before = host.slowness();
        setup.push(drive::serve_startup(karl, &idx.path)?, before);
    }
    if latency_ms.is_empty() {
        return Err("no open-loop request was answered".into());
    }
    let mut sorted = latency_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let mut late = session.lateness_ms.clone();
    late.sort_by(f64::total_cmp);
    let (late_p99, late_max) = (stats::percentile(&late, 0.99), late[late.len() - 1]);
    let beyond = stats::samples_beyond(sorted.len(), 0.99);
    if !smoke {
        if late_p99 > MAX_LATENESS_MS {
            out.invalid.push(format!(
                "the generator's p99 lateness is {late_p99:.1} ms (limit {MAX_LATENESS_MS} ms)"
            ));
        }
        if with_burst && beyond < stats::MIN_BEYOND {
            out.invalid
                .push(format!("only {beyond} samples beyond p99"));
        }
    }
    let sent = requests.len().max(1) as f64;
    let (p50, p99) = (
        stats::percentile(&sorted, 0.5),
        stats::percentile(&sorted, 0.99),
    );
    out.metrics = vec![
        setup.value("setup_s", false),
        Value::new("p50_ms", p50, p50, latency_ms.clone()),
        Value::new("p99_ms", p99, p99, latency_ms),
    ];
    if with_burst {
        out.metrics.insert(1, windows.value("qps", true));
    }
    let failed_open = requests.len()
        - by_req
            .iter()
            .flatten()
            .filter(|(_, r)| matches!(r.status, Status::Ok | Status::Truncated))
            .count();
    out.info = vec![
        ("slo_frac", in_slo as f64 / sent, "share"),
        ("failed_frac", failed_open as f64 / sent, "share"),
        ("degraded_frac", truncated as f64 / sent, "share"),
    ];
    out.guards.extend([
        ("requests", Json::Num(requests.len() as f64)),
        ("host_slowness", Json::Num(stats::median(&setup.slow))),
        ("samples_beyond_p99", Json::Num(beyond as f64)),
        ("generator_p99_lateness_ms", Json::Num(late_p99)),
        ("generator_max_lateness_ms", Json::Num(late_max)),
        ("index_family", Json::Str(idx.family.clone())),
        ("index_leaf", Json::Num(idx.leaf as f64)),
        ("simd_backend", Json::Str(idx.simd.clone())),
    ]);
    Ok(ServeAnswers {
        responses: by_req.into_iter().map(|g| g.map(|(_, r)| r)).collect(),
        requests,
    })
}
