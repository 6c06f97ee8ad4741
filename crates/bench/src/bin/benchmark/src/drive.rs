//! Driving the shipped `karl` binary through its stable CLI and NDJSON
//! protocol. The end-to-end run uses only
//! `karl index build DATA OUT --gamma G`, `karl index info`,
//! `karl batch --data … --queries … --eps|--tau … --gamma G --threads 1`
//! and `karl serve --stdio --index … --threads 1`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::Prepared;
use crate::oracle::Reply;

/// The checkout root: the current directory, which must hold the
/// workspace (the benchmark is run from the repository root).
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    if cwd.join("Cargo.toml").is_file() && cwd.join("crates/cli/Cargo.toml").is_file() {
        Ok(cwd)
    } else {
        Err(format!(
            "{} is not the karl repository root (run the benchmark from there)",
            cwd.display()
        ))
    }
}

/// Cargo's target directory for the workspace (`CARGO_TARGET_DIR` when
/// set, relative paths taken from the root).
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds the release `karl` binary from source and returns its path.
pub fn build_karl(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "karl-cli"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of karl-cli failed ({status})"));
    }
    let karl = target_dir(root).join("release").join("karl");
    if karl.is_file() {
        Ok(karl)
    } else {
        Err(format!("built binary not found at {}", karl.display()))
    }
}

/// FNV-1a of a file: names the index a given binary built, so a rebuilt
/// binary never serves a stale index.
pub fn file_hash(path: &Path) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// `git rev-parse HEAD` of the checkout's own `.git` (never a parent
/// directory's), or `unknown` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .env("GIT_DIR", root.join(".git"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The token following `key` in `text`, up to whitespace or punctuation.
pub fn word_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| c.is_whitespace() || matches!(c, ';' | ',' | ')'))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|w| !w.is_empty())
}

/// One answer line of `karl batch`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    Reply(Reply),
    /// `?`: a TKAQ query still undecided at a budget (none is set here).
    Undecided,
    /// `# error query i: …`.
    Error,
}

pub struct BatchRun {
    pub wall_s: f64,
    pub slots: Vec<Slot>,
    /// The `#` comment lines (build summary and throughput note).
    pub comments: String,
}

/// One `karl batch` invocation, timed from spawn to exit.
pub fn run_batch(
    karl: &Path,
    p: &Prepared,
    queries: &Path,
    flag: &str,
    value: f64,
) -> Result<BatchRun, String> {
    let start = Instant::now();
    let out = Command::new(karl)
        .arg("batch")
        .arg("--data")
        .arg(&p.data)
        .arg("--queries")
        .arg(queries)
        .arg(format!("--{flag}"))
        .arg(format!("{value}"))
        .arg("--gamma")
        .arg(format!("{}", p.gamma))
        .args(["--threads", "1"])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("karl batch: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    // 2 means some queries failed inside the engine; they show as
    // `# error` lines and are counted, not fatal.
    if !matches!(out.status.code(), Some(0) | Some(2)) {
        return Err(format!(
            "karl batch failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("karl batch output: {e}"))?;
    let mut slots = Vec::new();
    let mut comments = String::new();
    for line in text.lines() {
        if line.starts_with("# error query ") {
            slots.push(Slot::Error);
        } else if line.starts_with('#') {
            comments.push_str(line);
            comments.push('\n');
        } else if line == "?" {
            slots.push(Slot::Undecided);
        } else {
            let v = line
                .parse::<f64>()
                .map_err(|_| format!("karl batch printed an unreadable answer {line:?}"))?;
            slots.push(Slot::Reply(Reply::Answer(v)));
        }
    }
    Ok(BatchRun {
        wall_s,
        slots,
        comments,
    })
}

/// The default-tuned serving index of the documented serving path.
#[derive(Debug, Clone)]
pub struct IndexFile {
    pub path: PathBuf,
    pub family: String,
    pub leaf: u64,
    pub simd: String,
}

/// Builds (once per binary) the index `karl index build DATA OUT
/// --gamma G` makes with default tuning, and reads its header back with
/// `karl index info`.
pub fn default_index(karl: &Path, p: &Prepared) -> Result<IndexFile, String> {
    let path = p.dir.join(format!("index-{:016x}.idx", file_hash(karl)?));
    if !path.is_file() {
        let tmp = p.dir.join("index.idx.tmp");
        let out = Command::new(karl)
            .args(["index", "build"])
            .arg(&p.data)
            .arg(&tmp)
            .arg("--gamma")
            .arg(format!("{}", p.gamma))
            .output()
            .map_err(|e| format!("karl index build: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "karl index build failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let out = Command::new(karl)
        .args(["index", "info"])
        .arg(&path)
        .output()
        .map_err(|e| format!("karl index info: {e}"))?;
    let info = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "karl index info failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let field = |key: &str| {
        word_after(&info, key)
            .map(String::from)
            .ok_or(format!("karl index info has no {key:?}"))
    };
    Ok(IndexFile {
        family: field("family ")?,
        leaf: field("leaf ")?
            .parse()
            .map_err(|_| "karl index info: unreadable leaf".to_string())?,
        simd: field("simd backend ")?,
        path,
    })
}

/// A running `karl serve --stdio` child; dropping it kills and reaps
/// the process if it is still running.
struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns the daemon and waits for its `# karl serve ready` line;
    /// returns the seconds from spawn to that line (index load).
    fn start(karl: &Path, index: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(karl)
            .args(["serve", "--stdio", "--index"])
            .arg(index)
            .args(["--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("karl serve: {e}"))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut d = Daemon { child, stderr };
        let mut line = String::new();
        loop {
            line.clear();
            let n = d
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("karl serve stderr: {e}"))?;
            if n == 0 {
                return Err("karl serve exited before it was ready".into());
            }
            if line.starts_with("# karl serve ready") {
                return Ok((d, start.elapsed().as_secs_f64()));
            }
        }
    }

    /// Waits for exit, draining the rest of stderr (the final summary);
    /// a non-zero exit is an error.
    fn finish(mut self) -> Result<(), String> {
        let mut rest = String::new();
        let _ = self.stderr.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("karl serve exited with {status}: {}", rest.trim()))
        }
    }
}

/// Seconds from spawn to ready of one daemon that then shuts down at
/// end of input.
pub fn serve_startup(karl: &Path, index: &Path) -> Result<f64, String> {
    let (mut d, ready) = Daemon::start(karl, index)?;
    drop(d.child.stdin.take());
    d.finish()?;
    Ok(ready)
}

pub struct Session {
    pub ready_s: f64,
    /// Origin of the schedule: request `k` was due at `t0 + due_k`.
    pub t0: Instant,
    /// Per request, ms between its due time and the end of its write
    /// (empty for unpaced sessions).
    pub lateness_ms: Vec<f64>,
    /// Each stdout line with the time it was read.
    pub responses: Vec<(Instant, String)>,
}

/// One daemon session: writes `lines` (each with its due offset) on one
/// connection, the stdio pipe, then closes it and collects every response.
/// Paced sessions sleep until each due time (open loop); unpaced ones
/// write as fast as the pipe accepts (saturation burst). Two threads: this
/// one schedules and writes, a second reads stdout.
pub fn serve_session(
    karl: &Path,
    index: &Path,
    lines: &[(Duration, String)],
    paced: bool,
) -> Result<Session, String> {
    let (mut d, ready_s) = Daemon::start(karl, index)?;
    let mut stdin = d.child.stdin.take().expect("stdin is piped");
    let stdout = d.child.stdout.take().expect("stdout is piped");
    let (t0, lateness_ms, write_err, responses) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut out = Vec::new();
            for line in BufReader::new(stdout).lines() {
                let t = Instant::now();
                out.push((t, line.map_err(|e| e.to_string())?));
            }
            Ok::<_, String>(out)
        });
        let t0 = Instant::now() + Duration::from_millis(if paced { 5 } else { 0 });
        let mut lateness_ms = Vec::new();
        let mut write_err = None;
        for (due, line) in lines {
            let due_at = t0 + *due;
            if paced {
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
            }
            if let Err(e) = stdin.write_all(line.as_bytes()) {
                write_err = Some(e.to_string());
                break;
            }
            if paced {
                lateness_ms.push(
                    Instant::now()
                        .saturating_duration_since(due_at)
                        .as_secs_f64()
                        * 1e3,
                );
            }
        }
        drop(stdin);
        (
            t0,
            lateness_ms,
            write_err,
            reader.join().expect("reader thread panicked"),
        )
    });
    d.finish()?;
    if let Some(e) = write_err {
        return Err(format!("writing to karl serve: {e}"));
    }
    Ok(Session {
        ready_s,
        t0,
        lateness_ms,
        responses: responses?,
    })
}
