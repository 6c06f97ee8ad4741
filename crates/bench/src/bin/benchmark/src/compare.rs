//! `benchmark compare PARENT.json… -- CHANGE.json…`: the regression check
//! between two sets of `benchmark run --out` files, runs paired in the
//! order given (run them alternating parent/change).
//!
//! * A claimed metric (`--claim WORKLOAD/METRIC`) is better only when the
//!   change wins at least 9 of every 10 pairs (ties count for neither)
//!   and the medians differ by more than the parent's interquartile
//!   range; otherwise the claim is not met.
//! * Every row is worse when the change's median is worse than the
//!   parent's by more than the metric's bound from `BENCHMARK.json`, and
//!   unresolved when the parent's own spread is wider than the bound
//!   (unless every change run beats every parent run).

use std::path::Path;

use crate::config::{Config, Metric};
use crate::json::{self, Json};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub verdict: Verdict,
    pub parent_median: f64,
    pub change_median: f64,
    /// Parent's interquartile range as a share of its median.
    pub parent_spread: f64,
    pub wins: usize,
    pub pairs: usize,
    pub note: &'static str,
}

/// Pairs the rule needs before a gain can be claimed.
const MIN_PAIRS: usize = 10;

pub fn judge(metric: &Metric, parent: &[f64], change: &[f64], claimed: bool) -> Row {
    let (q1, pm, q3) = stats::quartiles(parent);
    let cm = stats::median(change);
    let better = |a: f64, b: f64| {
        if metric.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let worse_by = if metric.higher_is_better {
        (pm - cm) / pm
    } else {
        (cm - pm) / pm
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let gain =
        pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1;
    let every_run_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let bound = metric.bound.unwrap_or(0.0);
    let parent_spread = (q3 - q1) / pm.abs();
    let (verdict, note) = if gain {
        (Verdict::Better, if claimed { "claim met" } else { "" })
    } else if worse_by > bound {
        (Verdict::Worse, "worse than the bound")
    } else if claimed {
        (Verdict::Unresolved, "claim not met")
    } else if parent_spread > bound {
        if every_run_better {
            (Verdict::Better, "every change run beats every parent run")
        } else {
            (Verdict::Unresolved, "parent spread exceeds the bound")
        }
    } else {
        (Verdict::Unchanged, "")
    };
    Row {
        verdict,
        parent_median: pm,
        change_median: cm,
        parent_spread,
        wins,
        pairs,
        note,
    }
}

/// `(workload, metric) → value` of one result file, plus its guards.
struct RunFile {
    values: Vec<(String, String, f64)>,
    guards: Vec<(String, String)>,
}

fn load(path: &Path) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = Vec::new();
    let mut guards = Vec::new();
    for w in v
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or(format!("{}: no workloads", path.display()))?
    {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        if w.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{}: {name} was not correct; it cannot be compared",
                path.display()
            ));
        }
        for (metric, m) in w.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                values.push((name.clone(), metric.clone(), x));
            }
        }
        for (g, x) in w.get("guards").and_then(Json::as_obj).unwrap_or(&[]) {
            if matches!(g.as_str(), "simd_backend" | "index_family" | "index_leaf") {
                guards.push((format!("{name}/{g}"), x.to_text()));
            }
        }
    }
    for (g, x) in v.get("guards").and_then(Json::as_obj).unwrap_or(&[]) {
        if g == "available_parallelism" {
            guards.push((g.clone(), x.to_text()));
        }
    }
    Ok(RunFile { values, guards })
}

/// Prints one row per workload × end-to-end metric; returns whether any
/// row is worse.
pub fn run(
    cfg: &Config,
    parent: &[String],
    change: &[String],
    claim: Option<&str>,
) -> Result<bool, String> {
    if parent.is_empty() || change.is_empty() {
        return Err(
            "usage: benchmark compare [--claim WORKLOAD/METRIC] PARENT.json… -- CHANGE.json…"
                .into(),
        );
    }
    let a: Vec<RunFile> = parent
        .iter()
        .map(|p| load(Path::new(p)))
        .collect::<Result<_, _>>()?;
    let b: Vec<RunFile> = change
        .iter()
        .map(|p| load(Path::new(p)))
        .collect::<Result<_, _>>()?;
    for g in a.iter().chain(&b).flat_map(|f| &f.guards) {
        if let Some(other) = a[0].guards.iter().find(|x| x.0 == g.0 && x.1 != g.1) {
            println!(
                "warning: guard {} differs between runs ({} vs {})",
                g.0, other.1, g.1
            );
        }
    }
    let mut any_worse = false;
    for w in &cfg.workloads {
        for m in &cfg.end_to_end {
            let pick = |files: &[RunFile]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| {
                        f.values
                            .iter()
                            .find(|(wn, mn, _)| wn == w && *mn == m.name)
                            .map(|x| x.2)
                    })
                    .collect()
            };
            let (pa, ch) = (pick(&a), pick(&b));
            if pa.is_empty() || ch.is_empty() {
                continue;
            }
            let claimed = claim == Some(format!("{w}/{}", m.name).as_str());
            let row = judge(m, &pa, &ch, claimed);
            any_worse |= row.verdict == Verdict::Worse;
            println!(
                "{w:<14} {:<8} {:<10} change/parent {:.4} (base: parent median {} {}; change median {}; parent IQR {:.1}% vs bound {:.0}%; change wins {}/{} pairs){}{}",
                m.name,
                format!("{:?}", row.verdict).to_lowercase(),
                row.change_median / row.parent_median,
                row.parent_median,
                m.unit,
                row.change_median,
                100.0 * row.parent_spread,
                100.0 * m.bound.unwrap_or(0.0),
                row.wins,
                row.pairs,
                if row.note.is_empty() { "" } else { " — " },
                row.note
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qps() -> Metric {
        Metric {
            name: "qps".into(),
            unit: "queries/s".into(),
            higher_is_better: true,
            bound: Some(0.10),
        }
    }

    fn lat() -> Metric {
        Metric {
            name: "p99_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(0.15),
        }
    }

    fn around(center: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + 0.002 * (i as f64 - n as f64 / 2.0)))
            .collect()
    }

    #[test]
    fn a_clear_gain_wins_nine_of_ten_pairs() {
        let row = judge(&qps(), &around(100.0, 10), &around(120.0, 10), true);
        assert_eq!(row.verdict, Verdict::Better);
        assert_eq!((row.wins, row.pairs), (10, 10));
        assert_eq!(row.note, "claim met");
    }

    #[test]
    fn a_claim_needs_ten_pairs_and_a_gap_beyond_the_parent_iqr() {
        // Too few pairs.
        assert_eq!(
            judge(&qps(), &around(100.0, 5), &around(120.0, 5), true).verdict,
            Verdict::Unresolved
        );
        // Eight wins of ten is not enough.
        let parent = around(100.0, 10);
        let mut change = around(101.0, 10);
        change[0] = 50.0;
        change[1] = 50.0;
        let row = judge(&qps(), &parent, &change, true);
        assert_eq!(
            (row.verdict, row.note),
            (Verdict::Unresolved, "claim not met")
        );
        // Wins every pair by less than the parent's quartile distance.
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|x| x + 0.5).collect();
        assert_eq!(
            judge(&qps(), &parent, &change, true).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn the_bound_decides_worse_and_unchanged() {
        // 5% slower throughput within a 10% bound.
        assert_eq!(
            judge(&qps(), &around(100.0, 10), &around(95.0, 10), false).verdict,
            Verdict::Unchanged
        );
        // 20% slower is worse, claimed or not.
        assert_eq!(
            judge(&qps(), &around(100.0, 10), &around(80.0, 10), false).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&qps(), &around(100.0, 10), &around(80.0, 10), true).verdict,
            Verdict::Worse
        );
        // Lower is better for latency: 20% higher p99 exceeds the 15% bound.
        assert_eq!(
            judge(&lat(), &around(10.0, 10), &around(12.0, 10), false).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lat(), &around(10.0, 10), &around(11.0, 10), false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_noisy_parent_leaves_rows_unresolved() {
        let parent = vec![60.0, 80.0, 100.0, 120.0, 140.0];
        let change = vec![70.0, 90.0, 100.0, 110.0, 130.0];
        let row = judge(&qps(), &parent, &change, false);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // …unless every change run beats every parent run.
        let change = vec![150.0, 160.0, 170.0, 180.0, 190.0];
        assert_eq!(
            judge(&qps(), &parent, &change, false).verdict,
            Verdict::Better
        );
    }
}
