//! # karl-core — fast kernel aggregation queries
//!
//! The primary contribution of *"KARL: Fast Kernel Aggregation Queries"*
//! (Chan, Yiu, U — ICDE 2019): linear bound functions for weighted kernel
//! aggregates, a branch-and-bound evaluator for threshold (TKAQ) and
//! approximate (eKAQ) queries over kd-/ball-tree indexes, and automatic
//! index tuning.
//!
//! ## Layout
//!
//! * [`kernel`] — the Gaussian / polynomial / sigmoid kernels and their
//!   reduction to scalar curves.
//! * [`curve`] — the scalar curves `exp(−x)`, `x^deg`, `tanh(x)` with their
//!   curvature structure.
//! * [`envelope`] — chord / optimal-tangent / rotation linear envelopes
//!   (Sections III-A, III-B, IV-B).
//! * [`bounds`] — per-node `[LB, UB]` pairs: SOTA's constant bounds and
//!   KARL's linear bounds.
//! * [`eval`] — the priority-queue refinement evaluator (Section II-B)
//!   supporting all three weighting types via the P⁺/P⁻ split.
//! * [`scan`] — the SCAN and LIBSVM-style exact baselines.
//! * [`batch`] — the scoped-thread batch executor with reusable per-worker
//!   scratch (deterministic at any thread count).
//! * [`tuning`] — offline (`KARL_auto`) and in-situ (`KARL_online`) index
//!   tuning.
//! * [`serve`] — the online query daemon: NDJSON request loop with
//!   admission control, load shedding and graceful degradation.
//!
//! ## Example
//!
//! ```
//! use karl_core::{BoundMethod, Evaluator, Kernel};
//! use karl_geom::{PointSet, Rect};
//!
//! let points = PointSet::from_rows(&[
//!     vec![0.0, 0.0],
//!     vec![0.1, 0.1],
//!     vec![5.0, 5.0],
//! ]);
//! let weights = vec![1.0; 3];
//! let eval = Evaluator::<Rect>::build(
//!     &points, &weights, Kernel::gaussian(0.5), BoundMethod::Karl, 2);
//!
//! // Threshold query: is the aggregate at the origin at least 1.0?
//! assert!(eval.tkaq(&[0.0, 0.0], 1.0));
//! // Approximate query with 10% relative error.
//! let f = eval.ekaq(&[0.0, 0.0], 0.1);
//! let exact = eval.exact(&[0.0, 0.0]);
//! assert!((f - exact).abs() <= 0.1 * exact);
//! ```

pub mod batch;
pub mod bounds;
pub mod curve;
pub mod envelope;
pub mod error;
pub mod eval;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod index;
pub mod kernel;
pub mod scan;
pub mod serve;
pub mod stream;
pub mod tuning;

pub use batch::{resolve_threads, BatchReport, QueryBatch};
pub use error::KarlError;
pub use bounds::{
    assemble_interval, node_bounds, node_bounds_frozen, node_interval_frozen,
    node_intervals_frozen, BoundMethod, BoundPair, NodeInterval, QueryContext,
};
pub use curve::{Curvature, Curve};
pub use envelope::{envelope, envelope_parts, Envelope, EnvelopeParts, Line};
#[cfg(feature = "stats")]
pub use eval::RunStats;
pub use eval::{
    BallEvaluator, Budget, Estimate, Evaluator, KdEvaluator, Outcome, Query, RunOutcome,
    Scratch, TkaqDecision, TraceStep, TruncateReason,
};
#[cfg(feature = "fault-inject")]
pub use fault::{base, clear_plan, inject, set_base, Fault, InjectionGuard};
pub use index::{IndexMeta, META_LEN};
pub use kernel::{aggregate_exact, Kernel};
pub use scan::{LibSvmScan, Scan};
#[cfg(feature = "stats")]
pub use serve::stats_json_with_run;
pub use serve::{
    parse_json, push_num, push_str_json, stats_json, Json, LatencyHistogram, ServeConfig,
    ServeStats, Server, StatsSnapshot, MAX_JSON_DEPTH, MAX_LINE_BYTES,
};
pub use stream::StreamingEvaluator;
pub use tuning::{
    plan_for_storage, AnyEvaluator, CandidateResult, IndexKind, OfflineTuner,
    OfflineTuningOutcome, OnlineRunReport, OnlineTuner, StorageCalibration, StorageCandidate,
    StoragePlan, StorageProfile,
};
