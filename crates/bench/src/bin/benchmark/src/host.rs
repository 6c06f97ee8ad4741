//! Host-speed reference for CPU-bound measurements.
//!
//! The reference host is a 2-vCPU VM on a shared machine whose speed
//! drifts by up to ~40 % for minutes at a time; CPU time tracks wall time
//! through it, so it is the hardware, not scheduling. The drift hits all
//! CPU-bound work alike, so a fixed kernel of the harness's own — the
//! oracle's exp-and-distance sum over fixed synthetic points — timed right
//! before and after a measurement tells how slow the host ran during it.
//! Over a noisy 12-minute stretch, 20 s medians of `karl batch` wall time
//! spread 0.27 (IQR/median); divided by this reference, 0.10.
//!
//! The kernel is harness code, identical on a parent and a change, so it
//! cannot absorb a change to `karl`.

use std::time::Instant;

use crate::oracle::exact_sum;
use crate::workload::Rng;

const DIMS: usize = 10;
const POINTS: usize = 100_000;
const QUERIES: usize = 100;
const GAMMA: f64 = 100.0;

/// The kernel's time on the reference host when it runs at full speed
/// (its lower quartile over a quiet 90 s): measurements are scaled to
/// this host speed.
pub const NOMINAL_S: f64 = 0.105;

pub struct Reference {
    points: Vec<f64>,
    queries: Vec<f64>,
    /// Every timing taken, in seconds.
    pub times: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x4057_5EED);
        let mut draw = |n: usize| (0..n * DIMS).map(|_| rng.unit()).collect::<Vec<f64>>();
        Reference {
            points: draw(POINTS),
            queries: draw(QUERIES),
            times: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its time as a multiple of
    /// [`NOMINAL_S`]: above 1 the host is running slower than nominal.
    pub fn slowness(&mut self) -> f64 {
        let start = Instant::now();
        let sum: f64 = self
            .queries
            .chunks_exact(DIMS)
            .map(|q| exact_sum(&self.points, DIMS, GAMMA, q))
            .sum();
        std::hint::black_box(sum);
        let s = start.elapsed().as_secs_f64();
        self.times.push(s);
        s / NOMINAL_S
    }
}
