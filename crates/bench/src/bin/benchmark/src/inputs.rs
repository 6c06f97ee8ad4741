//! Inputs, generated once and cached under `<target>/benchmark/`, so a
//! parent and a change built from the same generators read byte-identical
//! files.
//!
//! The data is the `karl-data` registry generator at its own fixed seed:
//! a different dataset per run seed moved `qps` by 2× between seeds
//! (dataset difficulty), which would hide any change to the code. For the
//! same reason γ (Scott's rule) and τ = μ are properties of the dataset:
//! μ is the mean exact aggregate over a fixed reference sample of
//! [`ORACLE_QUERIES`] queries. The run seed picks everything else: the
//! query sample (drawn from the data, the paper's protocol), whose first
//! [`ORACLE_QUERIES`] queries get exact aggregates from the harness's own
//! compensated sum, and the serve schedules.

use std::fs;
use std::path::{Path, PathBuf};

use karl_data::{by_name, sample_queries, save_csv};
use karl_geom::PointSet;
use karl_kde::scotts_gamma;

use crate::oracle::exact_sum;
use crate::workload::{mix, Dataset, Sizes, ORACLE_QUERIES};

/// One dataset's inputs for one seed.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The dataset's directory (data file, index files).
    pub dir: PathBuf,
    pub data: PathBuf,
    /// The seed's query file; its first [`ORACLE_QUERIES`] rows are the
    /// oracle queries.
    pub queries: PathBuf,
    /// The first query alone (the 1-query invocation of the batch loop).
    pub query1: PathBuf,
    pub query_count: usize,
    pub gamma: f64,
    /// Mean exact aggregate over the dataset's reference queries (τ = μ).
    pub mu: f64,
    /// Exact aggregate of each oracle query.
    pub exact: Vec<f64>,
    /// Coordinates of each oracle query.
    pub points: Vec<Vec<f64>>,
}

/// Returns the dataset's inputs for `seed`, generating what is missing.
/// Each set is complete once its marker file (written last) exists.
pub fn prepare(
    cache: &Path,
    seed: u64,
    dataset: Dataset,
    sizes: &Sizes,
) -> Result<Prepared, String> {
    let dir = cache.join(dataset.registry_name());
    let seed_dir = dir.join(format!("seed-{seed}"));
    let n = sizes.points(dataset);
    let q = sizes.queries(dataset);
    let data_path = dir.join("data.csv");
    let params_path = dir.join("params.txt");
    let oracle_path = seed_dir.join("oracle.txt");
    let spec = by_name(dataset.registry_name()).ok_or("dataset missing from the registry")?;
    let mut points: Option<PointSet> = None;

    if !params_path.is_file() {
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ps = spec.generate_n(n).points;
        save(&dir, "data.csv", &ps)?;
        let gamma = scotts_gamma(&ps);
        let reference = sample_queries(&ps, ORACLE_QUERIES, spec.seed);
        let refs: Vec<&[f64]> = reference.iter().collect();
        let exact = parallel_exact(ps.as_slice(), ps.dims(), gamma, &refs);
        let mu = exact.iter().sum::<f64>() / exact.len() as f64;
        write(&params_path, &format!("{gamma}\n{mu}\n"))?;
        points = Some(ps);
    }
    let params = read(&params_path)?
        .lines()
        .map(|l| {
            l.parse::<f64>()
                .map_err(|e| format!("{}: {e}", params_path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let [gamma, mu] = params[..] else {
        return Err(format!("{}: expected gamma and mu", params_path.display()));
    };

    if !oracle_path.is_file() {
        fs::create_dir_all(&seed_dir).map_err(|e| format!("{}: {e}", seed_dir.display()))?;
        let ps = match points.take() {
            Some(ps) => ps,
            None => spec.generate_n(n).points,
        };
        let queries = sample_queries(&ps, q, mix(seed, spec.seed));
        save(&seed_dir, "queries.csv", &queries)?;
        save(&seed_dir, "query1.csv", &queries.select(&[0]))?;
        let oracle: Vec<&[f64]> = queries.iter().take(ORACLE_QUERIES).collect();
        let exact = parallel_exact(ps.as_slice(), ps.dims(), gamma, &oracle);
        let mut text = String::new();
        for f in &exact {
            text.push_str(&format!("{f}\n"));
        }
        write(&oracle_path, &text)?;
    }
    let exact = read(&oracle_path)?
        .lines()
        .map(|l| {
            l.parse::<f64>()
                .map_err(|e| format!("{}: {e}", oracle_path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queries = seed_dir.join("queries.csv");
    let points = read_rows(&queries, ORACLE_QUERIES)?;
    if exact.len() != points.len() || exact.is_empty() {
        return Err(format!(
            "{}: oracle/query count mismatch",
            seed_dir.display()
        ));
    }
    Ok(Prepared {
        data: data_path,
        query1: seed_dir.join("query1.csv"),
        queries,
        query_count: q,
        gamma,
        mu,
        exact,
        points,
        dir,
    })
}

/// Exact sums for `queries`, split over the available cores (this is
/// one-off input preparation, not a measurement).
fn parallel_exact(points: &[f64], dims: usize, gamma: f64, queries: &[&[f64]]) -> Vec<f64> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let chunk = queries.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| {
                s.spawn(move || {
                    qs.iter()
                        .map(|q| exact_sum(points, dims, gamma, q))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// Writes `ps` as `dir/name` through a temporary file and a rename, so a
/// killed run never leaves a partial input behind.
fn save(dir: &Path, name: &str, ps: &PointSet) -> Result<(), String> {
    let tmp = dir.join(format!("{name}.tmp"));
    save_csv(&tmp, ps, None).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, dir.join(name)).map_err(|e| format!("{}: {e}", tmp.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The first `limit` rows of a comma-separated point file.
pub fn read_rows(path: &Path, limit: usize) -> Result<Vec<Vec<f64>>, String> {
    read(path)?
        .lines()
        .take(limit)
        .map(|l| {
            l.split(',')
                .map(|c| c.trim().parse::<f64>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}
