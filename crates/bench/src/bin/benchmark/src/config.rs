//! Settings come from `BENCHMARK.json` at the repository root: run
//! length, workload names, and each metric's unit, direction and
//! regression bound. The harness has no other knobs.

use std::path::Path;

use crate::json::{self, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Config {
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Config, String> {
        let v = json::parse(text)?;
        let run_seconds =
            v.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| *s >= 1.0 && s.fract() == 0.0)
                .ok_or("run_seconds must be a whole number of seconds")? as u64;
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect::<Option<Vec<_>>>()
            .ok_or("every workload needs a name")?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("{key} entry without {f}"))
                    };
                    let higher_is_better = match field("better")? {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("better must be higher|lower, not {other:?}")),
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let cfg = Config {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        if let Some(m) = cfg.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric {} has no bound", m.name));
        }
        Ok(cfg)
    }
}
