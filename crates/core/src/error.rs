//! Typed errors for every validated public entry point.
//!
//! The refinement loop maintains a certified interval at every iteration,
//! so a query can always *degrade* — but only if malformed inputs are
//! rejected before they reach the hot path. [`KarlError`] is the single
//! taxonomy every `try_*` constructor and budgeted entry point in this
//! crate returns: index-level diagnostics for non-finite data, structural
//! mismatches, invalid kernel/query parameters, and (for the batch engine)
//! per-query panics contained by `catch_unwind`.
//!
//! Hot inner loops keep `debug_assert!`s; the panicking constructors
//! (`Evaluator::build`, `Kernel::gaussian`, …) remain as thin wrappers over
//! the validating `try_*` variants, so existing callers keep their
//! fail-fast behavior while `Result`-based callers get typed rejection.

use std::fmt;

use karl_geom::GeomError;
use karl_tree::TreeError;

/// Everything a validated `karl_core` entry point can reject or report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KarlError {
    /// The point set is empty (an aggregate over nothing is undefined).
    EmptyPoints,
    /// Two parallel buffers disagree in length (e.g. weights vs points).
    LengthMismatch {
        /// Expected element count (from the point set).
        expected: usize,
        /// Actual element count supplied.
        got: usize,
    },
    /// A query or batch has the wrong dimensionality for the evaluator.
    DimMismatch {
        /// The evaluator's dimensionality.
        expected: usize,
        /// The dimensionality supplied.
        got: usize,
    },
    /// A data point has a NaN/±inf coordinate.
    NonFinitePoint {
        /// Point index in the input buffer.
        index: usize,
        /// Offending coordinate dimension.
        dim: usize,
        /// The offending value (NaN or ±inf).
        value: f64,
    },
    /// A weight is NaN/±inf.
    NonFiniteWeight {
        /// Weight index in the input buffer.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Every weight is exactly zero: the aggregate is trivially zero and
    /// the P⁺/P⁻ split has no tree to build.
    AllZeroWeights,
    /// A query point has a NaN/±inf coordinate.
    NonFiniteQuery {
        /// Offending coordinate dimension.
        dim: usize,
        /// The offending value.
        value: f64,
    },
    /// Kernel `γ` is not finite and positive.
    InvalidGamma {
        /// The rejected value.
        value: f64,
    },
    /// Kernel `coef0` (β) is not finite.
    InvalidCoef0 {
        /// The rejected value.
        value: f64,
    },
    /// eKAQ relative error bound `ε` is not finite and positive.
    InvalidEps {
        /// The rejected value.
        value: f64,
    },
    /// Absolute-gap tolerance is not finite and positive.
    InvalidTol {
        /// The rejected value.
        value: f64,
    },
    /// TKAQ threshold `τ` is NaN.
    InvalidTau {
        /// The rejected value.
        value: f64,
    },
    /// Tree leaf capacity is zero.
    InvalidLeafCapacity,
    /// An evaluator was assembled from no trees at all.
    NoTree,
    /// A batch query panicked inside the containment boundary; the rest of
    /// the batch completed normally.
    QueryPanicked {
        /// Index of the poisoned query within the batch.
        index: usize,
        /// Panic payload rendered as text (when downcastable).
        message: String,
    },
    /// An OS-level I/O failure while reading or writing an index file.
    IndexIo {
        /// Operation and OS error rendering.
        reason: String,
    },
    /// A structurally invalid index file: bad magic, foreign endianness,
    /// inconsistent section table, malformed tree topology, or metadata
    /// this build cannot decode.
    IndexFormat {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// An index file's payload checksum did not match its header — the
    /// file was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        got: u64,
    },
    /// An index file's format version is newer than this build supports.
    VersionUnsupported {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// An index file ends before the bytes its header requires.
    Truncated {
        /// Bytes required.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The serving admission queue was at its high watermark, so the
    /// request was rejected instead of queued (degrade, never collapse:
    /// the client gets a typed rejection it can retry, not an unbounded
    /// queue).
    Overloaded {
        /// The configured admission-queue capacity.
        capacity: usize,
    },
    /// A malformed request line on the serving wire: not JSON, missing or
    /// ill-typed fields, or an unknown verb.
    Protocol {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A serving configuration that cannot run (zero queue capacity or
    /// zero micro-batch size).
    InvalidConfig {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for KarlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KarlError::EmptyPoints => write!(f, "point set is empty"),
            KarlError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected} elements, got {got}")
            }
            KarlError::DimMismatch { expected, got } => {
                write!(f, "dimensionality mismatch: evaluator has {expected} dims, input has {got}")
            }
            KarlError::NonFinitePoint { index, dim, value } => {
                write!(f, "point {index} has non-finite coordinate {value} at dim {dim}")
            }
            KarlError::NonFiniteWeight { index, value } => {
                write!(f, "weight {index} is non-finite ({value})")
            }
            KarlError::AllZeroWeights => write!(f, "all weights are zero"),
            KarlError::NonFiniteQuery { dim, value } => {
                write!(f, "query has non-finite coordinate {value} at dim {dim}")
            }
            KarlError::InvalidGamma { value } => {
                write!(f, "gamma must be finite and positive (got {value})")
            }
            KarlError::InvalidCoef0 { value } => {
                write!(f, "coef0 must be finite (got {value})")
            }
            KarlError::InvalidEps { value } => {
                write!(f, "eps must be finite and positive (got {value})")
            }
            KarlError::InvalidTol { value } => {
                write!(f, "tol must be finite and positive (got {value})")
            }
            KarlError::InvalidTau { value } => {
                write!(f, "tau must not be NaN (got {value})")
            }
            KarlError::InvalidLeafCapacity => write!(f, "leaf capacity must be at least 1"),
            KarlError::NoTree => write!(f, "evaluator needs at least one tree"),
            KarlError::QueryPanicked { index, message } => {
                write!(f, "query {index} panicked: {message}")
            }
            KarlError::IndexIo { reason } => write!(f, "index file I/O error: {reason}"),
            KarlError::IndexFormat { reason } => write!(f, "invalid index file: {reason}"),
            KarlError::ChecksumMismatch { expected, got } => write!(
                f,
                "index file checksum mismatch: header records {expected:#018x}, payload hashes to {got:#018x}"
            ),
            KarlError::VersionUnsupported { found, supported } => write!(
                f,
                "index format version {found} unsupported (this build reads up to {supported})"
            ),
            KarlError::Truncated { needed, got } => {
                write!(f, "index file truncated: need {needed} bytes, found {got}")
            }
            KarlError::Overloaded { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            KarlError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            KarlError::InvalidConfig { reason } => write!(f, "invalid serve config: {reason}"),
        }
    }
}

impl std::error::Error for KarlError {}

impl From<karl_tree::PersistError> for KarlError {
    fn from(e: karl_tree::PersistError) -> Self {
        use karl_tree::PersistError as P;
        match e {
            P::Io { op, reason } => KarlError::IndexIo {
                reason: format!("{op}: {reason}"),
            },
            P::Truncated { needed, got } => KarlError::Truncated { needed, got },
            P::Format { reason } => KarlError::IndexFormat { reason },
            P::ChecksumMismatch { expected, got } => {
                KarlError::ChecksumMismatch { expected, got }
            }
            P::VersionUnsupported { found, supported } => {
                KarlError::VersionUnsupported { found, supported }
            }
        }
    }
}

impl From<TreeError> for KarlError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::EmptyPoints => KarlError::EmptyPoints,
            TreeError::LengthMismatch { expected, got } => {
                KarlError::LengthMismatch { expected, got }
            }
            TreeError::ZeroLeafCapacity => KarlError::InvalidLeafCapacity,
            TreeError::NonFiniteCoordinate { index, dim, value } => {
                KarlError::NonFinitePoint { index, dim, value }
            }
            TreeError::NonFiniteWeight { index, value } => {
                KarlError::NonFiniteWeight { index, value }
            }
        }
    }
}

impl From<GeomError> for KarlError {
    fn from(e: GeomError) -> Self {
        match e {
            GeomError::ZeroDims => KarlError::EmptyPoints,
            GeomError::MisalignedData { len, dims } => KarlError::LengthMismatch {
                expected: len / dims.max(1) * dims.max(1),
                got: len,
            },
            GeomError::EmptyRows => KarlError::EmptyPoints,
            GeomError::InconsistentRow { expected, got, .. } => {
                KarlError::DimMismatch { expected, got }
            }
            GeomError::NonFiniteCoordinate { index, dim, value } => {
                KarlError::NonFinitePoint { index, dim, value }
            }
        }
    }
}

/// Scans `points` (row-major, `dims` per row) for the first non-finite
/// coordinate and `weights` for the first non-finite entry; also rejects
/// all-zero weight vectors. Shared by the evaluator / streaming / KDE
/// entry checks.
pub(crate) fn validate_data(
    points: &karl_geom::PointSet,
    weights: &[f64],
) -> Result<(), KarlError> {
    if points.is_empty() {
        return Err(KarlError::EmptyPoints);
    }
    if weights.len() != points.len() {
        return Err(KarlError::LengthMismatch {
            expected: points.len(),
            got: weights.len(),
        });
    }
    for (index, p) in points.iter().enumerate() {
        for (dim, &value) in p.iter().enumerate() {
            if !value.is_finite() {
                return Err(KarlError::NonFinitePoint { index, dim, value });
            }
        }
    }
    let mut any_nonzero = false;
    for (index, &value) in weights.iter().enumerate() {
        if !value.is_finite() {
            return Err(KarlError::NonFiniteWeight { index, value });
        }
        any_nonzero |= value != 0.0;
    }
    if !any_nonzero {
        return Err(KarlError::AllZeroWeights);
    }
    Ok(())
}

/// Validates a single query point against the evaluator dimensionality:
/// typed [`KarlError::DimMismatch`] / [`KarlError::NonFiniteQuery`] instead
/// of the panicking `check_query`.
pub(crate) fn validate_query(q: &[f64], dims: usize) -> Result<(), KarlError> {
    if q.len() != dims {
        return Err(KarlError::DimMismatch {
            expected: dims,
            got: q.len(),
        });
    }
    for (dim, &value) in q.iter().enumerate() {
        if !value.is_finite() {
            return Err(KarlError::NonFiniteQuery { dim, value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use karl_geom::PointSet;

    #[test]
    fn display_is_informative() {
        let e = KarlError::NonFinitePoint {
            index: 3,
            dim: 1,
            value: f64::NAN,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('1') && s.contains("NaN"));
        assert!(KarlError::AllZeroWeights.to_string().contains("zero"));
    }

    #[test]
    fn validate_data_finds_first_offender() {
        let ps = PointSet::new(2, vec![0.0, 1.0, f64::INFINITY, 2.0]);
        let err = validate_data(&ps, &[1.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            KarlError::NonFinitePoint {
                index: 1,
                dim: 0,
                value: f64::INFINITY
            }
        );
    }

    #[test]
    fn validate_data_rejects_zero_weights_and_length() {
        let ps = PointSet::new(1, vec![0.0, 1.0]);
        assert_eq!(
            validate_data(&ps, &[0.0, 0.0]),
            Err(KarlError::AllZeroWeights)
        );
        assert_eq!(
            validate_data(&ps, &[1.0]),
            Err(KarlError::LengthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(validate_data(&ps, &[0.0, -1.0]).is_ok());
    }

    #[test]
    fn validate_query_checks_dims_then_values() {
        assert_eq!(
            validate_query(&[0.0], 2),
            Err(KarlError::DimMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            validate_query(&[0.0, f64::NAN], 2),
            Err(KarlError::NonFiniteQuery { dim: 1, .. })
        ));
        assert!(validate_query(&[0.0, 1.0], 2).is_ok());
    }

    #[test]
    fn tree_and_geom_errors_convert() {
        let k: KarlError = TreeError::ZeroLeafCapacity.into();
        assert_eq!(k, KarlError::InvalidLeafCapacity);
        let k: KarlError = GeomError::NonFiniteCoordinate {
            index: 0,
            dim: 2,
            value: f64::NEG_INFINITY,
        }
        .into();
        assert!(matches!(k, KarlError::NonFinitePoint { dim: 2, .. }));
    }
}
