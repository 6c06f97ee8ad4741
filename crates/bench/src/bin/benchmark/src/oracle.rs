//! The correctness gate: exact Gaussian aggregates computed with the
//! harness's own compensated summation (not the library's), and the
//! checks every answer of every run must pass.

use crate::workload::Op;

/// `F(q) = (1/n)·Σ exp(−γ·‖q − p‖²)` over row-major `points` of `dims`
/// coordinates, summed with Neumaier compensation, so the only error left
/// is that of each term (a few ulps).
pub fn exact_sum(points: &[f64], dims: usize, gamma: f64, q: &[f64]) -> f64 {
    let n = points.len() / dims;
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for p in points.chunks_exact(dims) {
        let d2: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
        let term = (-gamma * d2).exp();
        let t = sum + term;
        comp += if sum.abs() >= term.abs() {
            (sum - t) + term
        } else {
            (term - t) + sum
        };
        sum = t;
    }
    (sum + comp) / n as f64
}

/// Relative allowance for the oracle's own rounding.
const SLACK: f64 = 1e-12;

/// TKAQ decisions this close to τ (relative) cannot be checked against an
/// oracle with rounding error; they are counted, not failed.
const TAU_BAND: f64 = 1e-9;

/// What a run answered for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// A complete answer: the estimate (eKAQ, Within) or 1/0 (TKAQ).
    Answer(f64),
    /// A certified interval only (`truncated` or `shed`).
    Interval { lb: f64, ub: f64 },
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    Unverifiable,
    Wrong(String),
}

/// Checks `reply` to `op` against the exact aggregate `f`; `mu` fixes τ
/// and the Within tolerance.
pub fn check(op: Op, mu: f64, f: f64, reply: Reply) -> Verdict {
    let slack = SLACK * f.abs();
    match reply {
        Reply::Interval { lb, ub } => {
            if lb <= f + slack && f <= ub + slack {
                Verdict::Ok
            } else {
                Verdict::Wrong(format!("interval [{lb}, {ub}] misses exact {f}"))
            }
        }
        Reply::Answer(a) => match op {
            Op::Ekaq { eps } => within(a, f, eps * f + slack, "eKAQ"),
            Op::Within => within(a, f, 0.5 * op.wire(mu).2 + slack, "Within"),
            Op::Tkaq => {
                let tau = mu;
                if (f - tau).abs() <= TAU_BAND * tau {
                    Verdict::Unverifiable
                } else if (a == 1.0) == (f >= tau) && (a == 1.0 || a == 0.0) {
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("TKAQ answered {a} but exact {f} vs tau {tau}"))
                }
            }
        },
    }
}

fn within(a: f64, f: f64, allowed: f64, what: &str) -> Verdict {
    if (a - f).abs() <= allowed {
        Verdict::Ok
    } else {
        Verdict::Wrong(format!(
            "{what} answered {a}, exact {f}, allowed error {allowed}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_matches_a_hand_computation() {
        // Two points at squared distances 0 and 2 from q, gamma 0.5.
        let f = exact_sum(&[0.0, 0.0, 1.0, 1.0], 2, 0.5, &[0.0, 0.0]);
        assert!((f - (1.0 + (-1.0f64).exp()) / 2.0).abs() < 1e-16);
    }

    #[test]
    fn compensation_recovers_small_terms() {
        // One term near 1 and 10 000 terms of 1e-17: a plain sum loses
        // every small term, the compensated sum keeps them.
        let mut pts = vec![0.0];
        let far = (-(1e-17f64).ln()).sqrt();
        pts.extend(std::iter::repeat_n(far, 10_000));
        let f = exact_sum(&pts, 1, 1.0, &[0.0]) * 10_001.0;
        assert!((f - (1.0 + 1e-13)).abs() < 1e-15, "{f}");
    }

    #[test]
    fn ekaq_and_within_bounds() {
        let e = Op::Ekaq { eps: 0.2 };
        assert_eq!(check(e, 1.0, 10.0, Reply::Answer(8.0)), Verdict::Ok);
        assert_eq!(check(e, 1.0, 10.0, Reply::Answer(12.0)), Verdict::Ok);
        assert!(matches!(
            check(e, 1.0, 10.0, Reply::Answer(7.9)),
            Verdict::Wrong(_)
        ));
        // tol = 0.05·mu = 0.1, so the midpoint may be off by 0.05.
        assert_eq!(
            check(Op::Within, 2.0, 1.0, Reply::Answer(1.05)),
            Verdict::Ok
        );
        assert!(matches!(
            check(Op::Within, 2.0, 1.0, Reply::Answer(1.06)),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn tkaq_decisions_and_the_unverifiable_band() {
        let tau = 0.5;
        assert_eq!(check(Op::Tkaq, tau, 0.6, Reply::Answer(1.0)), Verdict::Ok);
        assert_eq!(check(Op::Tkaq, tau, 0.4, Reply::Answer(0.0)), Verdict::Ok);
        assert!(matches!(
            check(Op::Tkaq, tau, 0.4, Reply::Answer(1.0)),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            check(Op::Tkaq, tau, 0.6, Reply::Answer(0.0)),
            Verdict::Wrong(_)
        ));
        assert_eq!(
            check(Op::Tkaq, tau, 0.5 + 1e-12, Reply::Answer(0.0)),
            Verdict::Unverifiable
        );
        assert!(matches!(
            check(Op::Tkaq, tau, 0.6, Reply::Answer(0.5)),
            Verdict::Wrong(_)
        ));
    }

    #[test]
    fn degraded_answers_must_enclose_the_exact_value() {
        let iv = Reply::Interval { lb: 0.1, ub: 0.3 };
        assert_eq!(check(Op::Tkaq, 0.2, 0.25, iv), Verdict::Ok);
        assert!(matches!(check(Op::Tkaq, 0.2, 0.35, iv), Verdict::Wrong(_)));
        assert!(matches!(
            check(Op::Ekaq { eps: 0.1 }, 0.2, 0.05, iv),
            Verdict::Wrong(_)
        ));
    }
}
