//! Evaluator-level persistence: save a built evaluator to the on-disk
//! format of [`karl_tree::persist`] and restore it zero-copy.
//!
//! The tree crate's format stores the frozen node buffers and the
//! reordered leaf buffers verbatim, plus an opaque application-metadata
//! section. This module defines that metadata — [`IndexMeta`], a small
//! fixed-layout record carrying the kernel, the bound method, and the
//! storage-tuning decision — so a file round-trips into a ready-to-query
//! evaluator with no per-node work and no sidecar configuration.
//!
//! A restored evaluator answers **bitwise identically** to the one that
//! wrote the file: the refinement loop reads exactly the buffers that were
//! serialized, in the same order (pinned by
//! `tests/index_persist_equivalence.rs`). The pointer node arena is not
//! stored, so [`Evaluator::pos_tree`]/[`Evaluator::neg_tree`] are `None`
//! on a loaded evaluator.

use std::path::Path;

use karl_geom::{Ball, Rect};
use karl_tree::{LoadedIndex, NodeShape, ShapeFamily};

use crate::bounds::BoundMethod;
use crate::error::KarlError;
use crate::eval::Evaluator;
use crate::kernel::Kernel;
use crate::tuning::{AnyEvaluator, StorageCalibration, StorageProfile};

/// Encoded length of [`IndexMeta`] (fixed little-endian layout).
pub const META_LEN: usize = 56;

/// Version of the metadata record (independent of the container format
/// version in the file header).
const META_VERSION: u32 = 1;

const KERNEL_GAUSSIAN: u32 = 0;
const KERNEL_POLYNOMIAL: u32 = 1;
const KERNEL_SIGMOID: u32 = 2;
const KERNEL_LAPLACIAN: u32 = 3;

/// Query configuration stored alongside the tree buffers, so an index
/// file is self-describing: loading needs no kernel/method flags and
/// `karl index info` can report how the index was built and tuned.
///
/// Encoded as a 56-byte little-endian record (see the layout table in
/// `DESIGN.md` §14); unlike the tree payload it is byte-order-normalized
/// because it is tiny and decoded once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMeta {
    /// The kernel the evaluator aggregates with.
    pub kernel: Kernel,
    /// The bound method (SOTA or KARL).
    pub method: BoundMethod,
    /// Leaf capacity the trees were built with.
    pub leaf_capacity: u32,
    /// Storage profile the layout was tuned for.
    pub profile: StorageProfile,
    /// The cost-model calibration recorded at build time.
    pub calibration: StorageCalibration,
}

impl IndexMeta {
    /// Serializes the record into its fixed 56-byte layout.
    pub fn encode(&self) -> [u8; META_LEN] {
        let (kind, gamma, coef0, degree) = match self.kernel {
            Kernel::Gaussian { gamma } => (KERNEL_GAUSSIAN, gamma, 0.0, 0),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (KERNEL_POLYNOMIAL, gamma, coef0, degree),
            Kernel::Sigmoid { gamma, coef0 } => (KERNEL_SIGMOID, gamma, coef0, 0),
            Kernel::Laplacian { gamma } => (KERNEL_LAPLACIAN, gamma, 0.0, 0),
        };
        let mut out = [0u8; META_LEN];
        out[0..4].copy_from_slice(&META_VERSION.to_le_bytes());
        out[4..8].copy_from_slice(&kind.to_le_bytes());
        out[8..16].copy_from_slice(&gamma.to_le_bytes());
        out[16..24].copy_from_slice(&coef0.to_le_bytes());
        out[24..28].copy_from_slice(&degree.to_le_bytes());
        out[28..32].copy_from_slice(
            &match self.method {
                BoundMethod::Sota => 0u32,
                BoundMethod::Karl => 1u32,
            }
            .to_le_bytes(),
        );
        out[32..36].copy_from_slice(&self.leaf_capacity.to_le_bytes());
        out[36..40].copy_from_slice(
            &match self.profile {
                StorageProfile::Memory => 0u32,
                StorageProfile::Disk => 1u32,
            }
            .to_le_bytes(),
        );
        out[40..48].copy_from_slice(&self.calibration.node_visit_ns.to_le_bytes());
        out[48..56].copy_from_slice(&self.calibration.byte_read_ns.to_le_bytes());
        out
    }

    /// Decodes and validates the record (typed [`KarlError::IndexFormat`]
    /// on any malformed field; kernel parameters go through the same
    /// validators as the builder API).
    pub fn decode(bytes: &[u8]) -> Result<Self, KarlError> {
        if bytes.len() != META_LEN {
            return Err(KarlError::IndexFormat {
                reason: format!(
                    "application metadata is {} bytes, expected {META_LEN}",
                    bytes.len()
                ),
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let f64_at = |off: usize| f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = u32_at(0);
        if version != META_VERSION {
            return Err(KarlError::IndexFormat {
                reason: format!("metadata version {version} unsupported (expected {META_VERSION})"),
            });
        }
        let gamma = f64_at(8);
        let coef0 = f64_at(16);
        let degree = u32_at(24);
        let kernel = match u32_at(4) {
            KERNEL_GAUSSIAN => Kernel::try_gaussian(gamma),
            KERNEL_POLYNOMIAL => Kernel::try_polynomial(gamma, coef0, degree),
            KERNEL_SIGMOID => Kernel::try_sigmoid(gamma, coef0),
            KERNEL_LAPLACIAN => Kernel::try_laplacian(gamma),
            k => {
                return Err(KarlError::IndexFormat {
                    reason: format!("unknown kernel tag {k}"),
                })
            }
        }
        .map_err(|e| KarlError::IndexFormat {
            reason: format!("invalid kernel parameters: {e}"),
        })?;
        let method = match u32_at(28) {
            0 => BoundMethod::Sota,
            1 => BoundMethod::Karl,
            m => {
                return Err(KarlError::IndexFormat {
                    reason: format!("unknown bound-method tag {m}"),
                })
            }
        };
        let leaf_capacity = u32_at(32);
        if leaf_capacity == 0 {
            return Err(KarlError::IndexFormat {
                reason: "zero leaf capacity in metadata".into(),
            });
        }
        let profile = match u32_at(36) {
            0 => StorageProfile::Memory,
            1 => StorageProfile::Disk,
            p => {
                return Err(KarlError::IndexFormat {
                    reason: format!("unknown storage-profile tag {p}"),
                })
            }
        };
        let (node_visit_ns, byte_read_ns) = (f64_at(40), f64_at(48));
        let calib_ok = |v: f64| v.is_finite() && v >= 0.0;
        if !calib_ok(node_visit_ns) || !calib_ok(byte_read_ns) {
            return Err(KarlError::IndexFormat {
                reason: "non-finite or negative calibration in metadata".into(),
            });
        }
        Ok(Self {
            kernel,
            method,
            leaf_capacity,
            profile,
            calibration: StorageCalibration {
                node_visit_ns,
                byte_read_ns,
            },
        })
    }
}

impl<S: NodeShape> Evaluator<S> {
    /// Serializes this evaluator's frozen index and leaf buffers (plus
    /// `meta`) to `path`; returns the file length in bytes. Works for
    /// built and loaded evaluators alike, so indexes can be re-saved.
    pub fn write_index_file(&self, path: &Path, meta: &IndexMeta) -> Result<u64, KarlError> {
        let (pos, neg) = self.side_images();
        Ok(karl_tree::write_index_file(path, pos, neg, &meta.encode())?)
    }

    /// Restores an evaluator from an index file written by
    /// [`write_index_file`](Self::write_index_file), zero-copy: the file
    /// is read into one aligned arena and every buffer is a view into it.
    ///
    /// Fails with a typed [`KarlError`] if the file is corrupt, written
    /// by an incompatible build, or holds the other index family (use
    /// [`AnyEvaluator::from_index_file`] for family dispatch).
    pub fn from_index_file(path: &Path) -> Result<(Self, IndexMeta), KarlError> {
        Self::from_loaded_index(karl_tree::load_index_file(path)?)
    }

    /// [`from_index_file`](Self::from_index_file) through an `mmap(2)` of
    /// the file instead of a bulk read (still fully validated up front).
    #[cfg(feature = "mmap")]
    pub fn from_index_file_mmap(path: &Path) -> Result<(Self, IndexMeta), KarlError> {
        Self::from_loaded_index(karl_tree::persist::load_index_file_mmap(path)?)
    }

    fn from_loaded_index(loaded: LoadedIndex) -> Result<(Self, IndexMeta), KarlError> {
        if loaded.family != S::FAMILY {
            return Err(KarlError::IndexFormat {
                reason: format!(
                    "index holds a {}-tree, evaluator requires a {}-tree",
                    loaded.family,
                    S::FAMILY
                ),
            });
        }
        let meta = IndexMeta::decode(&loaded.app_meta)?;
        let side = |s: Option<karl_tree::LoadedSide>| s.map(|s| (s.frozen, s.leaf));
        let eval = Evaluator::from_loaded(
            side(loaded.pos),
            side(loaded.neg),
            meta.kernel,
            meta.method,
        )?;
        Ok((eval, meta))
    }
}

impl AnyEvaluator {
    /// Restores an evaluator from an index file, dispatching on the
    /// family recorded in the file header.
    pub fn from_index_file(path: &Path) -> Result<(Self, IndexMeta), KarlError> {
        let loaded = karl_tree::load_index_file(path)?;
        match loaded.family {
            ShapeFamily::Rect => Evaluator::<Rect>::from_loaded_index(loaded)
                .map(|(e, m)| (AnyEvaluator::Kd(e), m)),
            ShapeFamily::Ball => Evaluator::<Ball>::from_loaded_index(loaded)
                .map(|(e, m)| (AnyEvaluator::Ball(e), m)),
        }
    }

    /// Serializes whichever family backs this evaluator (see
    /// [`Evaluator::write_index_file`]).
    pub fn write_index_file(&self, path: &Path, meta: &IndexMeta) -> Result<u64, KarlError> {
        match self {
            AnyEvaluator::Kd(e) => e.write_index_file(path, meta),
            AnyEvaluator::Ball(e) => e.write_index_file(path, meta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(kernel: Kernel) -> IndexMeta {
        IndexMeta {
            kernel,
            method: BoundMethod::Karl,
            leaf_capacity: 40,
            profile: StorageProfile::Disk,
            calibration: StorageCalibration::canned(StorageProfile::Disk),
        }
    }

    #[test]
    fn meta_round_trips_every_kernel() {
        for kernel in [
            Kernel::gaussian(0.5),
            Kernel::polynomial(0.25, 1.5, 3),
            Kernel::sigmoid(0.1, -0.5),
            Kernel::laplacian(2.0),
        ] {
            let m = meta(kernel);
            let bytes = m.encode();
            assert_eq!(bytes.len(), META_LEN);
            assert_eq!(IndexMeta::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn meta_rejects_malformed_records() {
        let m = meta(Kernel::gaussian(1.0));
        let good = m.encode();

        // Wrong length.
        assert!(matches!(
            IndexMeta::decode(&good[..40]),
            Err(KarlError::IndexFormat { .. })
        ));
        // Unknown kernel tag.
        let mut bad = good;
        bad[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            IndexMeta::decode(&bad),
            Err(KarlError::IndexFormat { .. })
        ));
        // Invalid gamma (negative) must fail the kernel validator.
        let mut bad = good;
        bad[8..16].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(matches!(
            IndexMeta::decode(&bad),
            Err(KarlError::IndexFormat { .. })
        ));
        // Unknown method / profile tags, zero leaf capacity.
        for (off, val) in [(28usize, 7u32), (36, 7), (32, 0)] {
            let mut bad = good;
            bad[off..off + 4].copy_from_slice(&val.to_le_bytes());
            assert!(
                matches!(IndexMeta::decode(&bad), Err(KarlError::IndexFormat { .. })),
                "offset {off}"
            );
        }
        // Non-finite calibration.
        let mut bad = good;
        bad[40..48].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            IndexMeta::decode(&bad),
            Err(KarlError::IndexFormat { .. })
        ));
    }
}
