//! The four workloads, their input sizes, and the seeded request streams
//! the serve workloads replay.

use std::time::Duration;

/// Exact sums the harness computes per dataset; the first this many
/// queries of every query file are the oracle queries, and serve requests
/// draw their points from them, so every serve answer is checked.
pub const ORACLE_QUERIES: usize = 256;

/// Latency limit of the serve workloads (on p99; `slo_frac` counts
/// requests answered `ok` within it).
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// An open-loop run in which more than 1 % of requests were written this
/// late measured the generator, not the daemon. The limit is on the 99th
/// percentile, not the maximum: latency is timed from due time, so a lone
/// late write biases nothing, and a bare 300 Hz sleep loop on a 2-vCPU
/// host already sees isolated 5–15 ms pauses.
pub const MAX_LATENESS_MS: f64 = 20.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Registry `home`: 10-d, low intrinsic dimension.
    Home,
    /// Registry `miniboone`: 50-d.
    Miniboone,
}

impl Dataset {
    pub fn registry_name(self) -> &'static str {
        match self {
            Dataset::Home => "home",
            Dataset::Miniboone => "miniboone",
        }
    }
}

/// A query type. τ and the Within tolerance are tied to the dataset's
/// mean exact aggregate μ over the oracle queries (the paper's τ = μ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Ekaq {
        eps: f64,
    },
    /// τ = μ.
    Tkaq,
    /// tol = 0.05·μ.
    Within,
}

impl Op {
    /// `(wire op, parameter name, parameter value)`: the `karl serve`
    /// request fields, also the `karl batch` flag (`--eps`, `--tau`,
    /// `--tol`).
    pub fn wire(self, mu: f64) -> (&'static str, &'static str, f64) {
        match self {
            Op::Ekaq { eps } => ("ekaq", "eps", eps),
            Op::Tkaq => ("tkaq", "tau", mu),
            Op::Within => ("within", "tol", 0.05 * mu),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Closed loop over `karl batch --data`, one query type per file.
    Batch { op: Op },
    /// Open loop against `karl serve --index` with seeded Poisson
    /// arrivals; `mix` lists `(share, op)`, and `deadline_share` of the
    /// requests carry `deadline_ms`.
    Serve {
        rate: f64,
        mix: &'static [(f64, Op)],
        deadline_share: f64,
        deadline_ms: u32,
    },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    // Paper I-ε: the refinement engine does almost all the work, with a
    // low-d per-node cost dominated by envelope construction.
    Workload {
        name: "batch-ekaq",
        dataset: Dataset::Home,
        kind: Kind::Batch {
            op: Op::Ekaq { eps: 0.2 },
        },
    },
    // Paper I-τ: per-node geometry over 50 coordinates (the SIMD-sensitive
    // kernels), stopping as soon as τ is decided.
    Workload {
        name: "batch-tkaq",
        dataset: Dataset::Miniboone,
        kind: Kind::Batch { op: Op::Tkaq },
    },
    // Latency is dominated by waiting for a 64-request micro-batch to
    // fill; engine time is small.
    Workload {
        name: "serve-trickle",
        dataset: Dataset::Home,
        kind: Kind::Serve {
            rate: 100.0,
            mix: &[(1.0, Op::Ekaq { eps: 0.05 })],
            deadline_share: 0.0,
            deadline_ms: 0,
        },
    },
    // One flush splits into several engine batches (each deadline request
    // is its own group); deadline truncation and near-capacity behaviour.
    Workload {
        name: "serve-mixed",
        dataset: Dataset::Home,
        kind: Kind::Serve {
            rate: 300.0,
            mix: &[
                (0.6, Op::Ekaq { eps: 0.05 }),
                (0.3, Op::Tkaq),
                (0.1, Op::Within),
            ],
            deadline_share: 0.25,
            deadline_ms: 50,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. Batch query counts are sized so at least five closed-loop
/// repetitions fit in one 20 s run on a 2-core host; each of a serve
/// run's four saturation bursts takes 1–2 s.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub home_n: usize,
    pub miniboone_n: usize,
    pub ekaq_queries: usize,
    pub tkaq_queries: usize,
    /// Requests per saturation burst.
    pub burst: usize,
    /// Daemon start-ups measured per serve run (`setup_s`).
    pub setup_samples: usize,
    /// Requests the traced run replays through the in-process server on a
    /// batch workload (as one burst).
    pub trace_serve_burst: usize,
}

pub const FULL: Sizes = Sizes {
    home_n: 200_000,
    miniboone_n: 100_000,
    ekaq_queries: 8_000,
    tkaq_queries: 20_000,
    burst: 1_000,
    setup_samples: 5,
    trace_serve_burst: 1_024,
};

pub const SMOKE: Sizes = Sizes {
    home_n: 3_000,
    miniboone_n: 2_000,
    ekaq_queries: 300,
    tkaq_queries: 300,
    burst: 100,
    setup_samples: 2,
    trace_serve_burst: 128,
};

impl Sizes {
    pub fn points(&self, d: Dataset) -> usize {
        match d {
            Dataset::Home => self.home_n,
            Dataset::Miniboone => self.miniboone_n,
        }
    }

    /// Length of the dataset's query file: the largest batch file drawn
    /// from it (serve workloads use only its oracle prefix).
    pub fn queries(&self, d: Dataset) -> usize {
        match d {
            Dataset::Home => self.ekaq_queries,
            Dataset::Miniboone => self.tkaq_queries,
        }
    }
}

/// One serve request: `point` indexes the oracle queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: u64,
    /// Offset of the due time from the start of the schedule.
    pub due: Duration,
    pub op: Op,
    pub point: usize,
    pub deadline_ms: Option<u32>,
}

impl Request {
    /// The NDJSON line for `karl serve` (coordinates in shortest
    /// round-trip form, bit-identical to the query file).
    pub fn line(&self, points: &[Vec<f64>], mu: f64) -> String {
        let (op, key, value) = self.op.wire(mu);
        let coords: Vec<String> = points[self.point].iter().map(|x| format!("{x}")).collect();
        let mut s = format!(
            "{{\"id\":{},\"op\":\"{op}\",\"{key}\":{value},\"q\":[{}]",
            self.id,
            coords.join(",")
        );
        if let Some(ms) = self.deadline_ms {
            s.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        s.push_str("}\n");
        s
    }
}

/// Seeded Poisson arrivals at `rate` for `duration`, with the workload's
/// op mix; `points` oracle queries to draw from. Same seed, same stream.
pub fn open_loop(kind: &Kind, seed: u64, duration: Duration, points: usize) -> Vec<Request> {
    let Kind::Serve { rate, .. } = *kind else {
        panic!("open_loop on a batch workload");
    };
    let mut arrivals = Rng::new(mix(seed, 0xA881));
    let mut picks = Rng::new(mix(seed, 0x0915));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -arrivals.unit().ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(draw(
            kind,
            &mut picks,
            out.len() as u64 + 1,
            Duration::from_secs_f64(t),
            points,
        ));
    }
}

/// `count` requests of the workload's mix, all due at once: the
/// saturation burst that measures serve throughput.
pub fn burst(kind: &Kind, seed: u64, count: usize, points: usize) -> Vec<Request> {
    let mut picks = Rng::new(mix(seed, 0xB0B5));
    (0..count)
        .map(|i| draw(kind, &mut picks, i as u64 + 1, Duration::ZERO, points))
        .collect()
}

fn draw(kind: &Kind, rng: &mut Rng, id: u64, due: Duration, points: usize) -> Request {
    let Kind::Serve {
        mix: ops,
        deadline_share,
        deadline_ms,
        ..
    } = *kind
    else {
        panic!("requests are drawn for serve workloads only");
    };
    let u = rng.unit();
    let mut acc = 0.0;
    let mut op = ops[ops.len() - 1].1;
    for &(share, o) in ops {
        acc += share;
        if u <= acc {
            op = o;
            break;
        }
    }
    let deadline = rng.unit() <= deadline_share;
    Request {
        id,
        due,
        op,
        point: (rng.next_u64() % points as u64) as usize,
        deadline_ms: deadline.then_some(deadline_ms),
    }
}

/// Derives an independent seed for one purpose from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// SplitMix64: small, seedable, and the harness's own, so request
/// streams do not move when a library generator changes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(name: &str) -> Kind {
        by_name(name).unwrap().kind
    }

    #[test]
    fn schedule_and_mix_repeat_for_the_same_seed() {
        let k = serve("serve-mixed");
        let a = open_loop(&k, 7, Duration::from_secs(5), 256);
        let b = open_loop(&k, 7, Duration::from_secs(5), 256);
        assert_eq!(a, b);
        assert_eq!(burst(&k, 7, 300, 256), burst(&k, 7, 300, 256));
        let c = open_loop(&k, 8, Duration::from_secs(5), 256);
        assert_ne!(a, c, "another seed draws another stream");
    }

    #[test]
    fn poisson_rate_and_mix_shares_are_as_specified() {
        let k = serve("serve-mixed");
        let reqs = open_loop(&k, 3, Duration::from_secs(100), 256);
        // 30 000 expected arrivals; 4 standard deviations is ±700.
        assert!(
            (reqs.len() as f64 - 30_000.0).abs() < 700.0,
            "{}",
            reqs.len()
        );
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(reqs.iter().enumerate().all(|(i, r)| r.id == i as u64 + 1));
        let share = |f: &dyn Fn(&Request) -> bool| {
            reqs.iter().filter(|r| f(r)).count() as f64 / reqs.len() as f64
        };
        assert!((share(&|r| matches!(r.op, Op::Ekaq { .. })) - 0.6).abs() < 0.02);
        assert!((share(&|r| r.op == Op::Tkaq) - 0.3).abs() < 0.02);
        assert!((share(&|r| r.op == Op::Within) - 0.1).abs() < 0.02);
        assert!((share(&|r| r.deadline_ms == Some(50)) - 0.25).abs() < 0.02);
        assert!(reqs.iter().all(|r| r.point < 256));
        let trickle = open_loop(&serve("serve-trickle"), 3, Duration::from_secs(10), 256);
        assert!(trickle
            .iter()
            .all(|r| r.op == Op::Ekaq { eps: 0.05 } && r.deadline_ms.is_none()));
    }

    #[test]
    fn request_lines_carry_exact_coordinates() {
        let points = vec![vec![0.1 + 0.2, 1.0 / 3.0]];
        let r = Request {
            id: 9,
            due: Duration::ZERO,
            op: Op::Within,
            point: 0,
            deadline_ms: Some(50),
        };
        let line = r.line(&points, 2.0);
        assert_eq!(
            line,
            "{\"id\":9,\"op\":\"within\",\"tol\":0.1,\"q\":[0.30000000000000004,0.3333333333333333],\"deadline_ms\":50}\n"
        );
    }
}
