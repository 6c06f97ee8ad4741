//! The persistence contract as a property: an evaluator restored from an
//! index file must be **bitwise indistinguishable** from the one that
//! wrote it — same outcomes, same iteration counts, same refinement
//! traces, for both index families, every kernel, every query variant,
//! mixed-sign weights, and every batch thread count. No tolerance
//! anywhere: loading is a zero-copy re-view of the very buffers that
//! were serialized, so a single differing bit is a format bug.
//!
//! The second half pins the failure mode: corrupted files (truncated,
//! bit-flipped, foreign magic/endianness/version) must be rejected with
//! the matching typed [`KarlError`] — never a panic, never UB, and never
//! a silently wrong evaluator.

use std::path::{Path, PathBuf};

use karl::core::{
    AnyEvaluator, BoundMethod, Budget, Evaluator, IndexMeta, KarlError, Kernel, Outcome, Query,
    QueryBatch, Scratch, StorageCalibration, StorageProfile,
};
use karl::geom::{Ball, PointSet, Rect};
use karl::tree::NodeShape;
use karl_testkit::rng::{Rng, SeedableRng, StdRng};
use karl_testkit::{prop_assert, prop_assert_eq, props};

fn clustered(n: usize, d: usize, rng: &mut StdRng) -> PointSet {
    let mut data = Vec::with_capacity(n * d);
    for i in 0..n {
        match i % 3 {
            0 => data.extend((0..d).map(|_| -1.5 + rng.random_range(-0.4..0.4))),
            1 => data.extend((0..d).map(|_| 1.5 + rng.random_range(-0.4..0.4))),
            _ => data.extend((0..d).map(|_| rng.random_range(-3.0..3.0))),
        }
    }
    PointSet::new(d, data)
}

fn mixed_weights(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let w: f64 = rng.random_range(0.1..1.5);
            if rng.random_bool(0.35) {
                -w
            } else {
                w
            }
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("karl_index_persist_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn meta_for(eval_kernel: Kernel, method: BoundMethod, leaf: usize) -> IndexMeta {
    IndexMeta {
        kernel: eval_kernel,
        method,
        leaf_capacity: leaf as u32,
        profile: StorageProfile::Memory,
        calibration: StorageCalibration::canned(StorageProfile::Memory),
    }
}

/// Writes `fresh` to `path`, loads it back, and asserts the loaded
/// evaluator is bitwise identical on raw outcomes, traces, exact scans,
/// and batch execution at 1/2/4/8 threads plus the `KARL_THREADS`
/// default.
fn assert_round_trip<S: NodeShape + Sync>(
    fresh: &Evaluator<S>,
    path: &Path,
    meta: &IndexMeta,
    queries: &PointSet,
    query: Query,
) {
    let bytes = fresh.write_index_file(path, meta).unwrap();
    prop_assert!(bytes >= 64);
    let (loaded, rmeta) = Evaluator::<S>::from_index_file(path).unwrap();
    prop_assert_eq!(&rmeta, meta);
    prop_assert_eq!(loaded.len(), fresh.len());
    prop_assert_eq!(loaded.dims(), fresh.dims());
    prop_assert_eq!(loaded.max_depth(), fresh.max_depth());
    // The pointer node arena is not persisted.
    prop_assert!(loaded.pos_tree().is_none() && loaded.neg_tree().is_none());

    let mut scratch = Scratch::new();
    for q in queries.iter() {
        // Raw outcomes, fresh and reused scratch.
        let a = fresh.run_query(q, query, None);
        prop_assert_eq!(loaded.run_query(q, query, None), a);
        prop_assert_eq!(loaded.run_with_scratch(q, query, None, &mut scratch), a);
        // The validated entry point the batch engine runs.
        prop_assert_eq!(
            loaded.run_budgeted(q, query, None, &Budget::UNLIMITED, &mut scratch),
            Ok(Outcome::Complete(a))
        );
        // Refinement traces, step by step.
        let (out_f, trace_f) = fresh.trace_run(q, query);
        let (out_l, trace_l) = loaded.trace_run(q, query);
        prop_assert_eq!(out_l, out_f);
        prop_assert_eq!(trace_l, trace_f);
        // Ground-truth scans agree bit for bit (same buffers, same order).
        prop_assert_eq!(loaded.exact(q).to_bits(), fresh.exact(q).to_bits());
    }

    // Batch execution: explicit thread counts plus the KARL_THREADS
    // default (ci.sh replays this test under KARL_THREADS=4).
    let baseline = QueryBatch::new(queries, query)
        .threads(1)
        .try_run(fresh)
        .unwrap();
    for threads in [1usize, 2, 4, 8] {
        let batch = QueryBatch::new(queries, query)
            .threads(threads)
            .try_run(&loaded)
            .unwrap();
        prop_assert_eq!(batch.results(), baseline.results());
    }
    let default_threads = QueryBatch::new(queries, query).try_run(&loaded).unwrap();
    prop_assert_eq!(default_threads.results(), baseline.results());
}

props! {
    #[test]
    fn loaded_index_is_bitwise_identical_to_fresh_build(
        seed in 0u64..1_000_000,
        n in 30usize..150,
        d in 1usize..9,
        leaf in 1usize..24,
        kernel_id in 0usize..4,
        variant in 0usize..3
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sota = rng.random_bool(0.5);
        let points = clustered(n, d, &mut rng);
        let weights = mixed_weights(n, &mut rng);
        let kernel = match kernel_id {
            0 => Kernel::gaussian(rng.random_range(0.3..1.5)),
            1 => Kernel::laplacian(rng.random_range(0.3..1.2)),
            2 => Kernel::polynomial(rng.random_range(0.1..0.5), 0.2, 2),
            _ => Kernel::sigmoid(rng.random_range(0.1..0.6), 0.1),
        };
        let query = match variant {
            0 => Query::Tkaq { tau: rng.random_range(-0.5..0.5) },
            1 => Query::Ekaq { eps: rng.random_range(0.01..0.4) },
            _ => Query::Within { tol: rng.random_range(0.001..0.1) },
        };
        let method = if sota { BoundMethod::Sota } else { BoundMethod::Karl };
        let queries = clustered(12, d, &mut rng);
        let meta = meta_for(kernel, method, leaf);

        let kd = Evaluator::<Rect>::build(&points, &weights, kernel, method, leaf);
        let kd_path = tmp(&format!("kd_{seed}_{n}_{d}_{leaf}_{kernel_id}_{variant}.idx"));
        assert_round_trip(&kd, &kd_path, &meta, &queries, query);

        let ball = Evaluator::<Ball>::build(&points, &weights, kernel, method, leaf);
        let ball_path = tmp(&format!("ball_{seed}_{n}_{d}_{leaf}_{kernel_id}_{variant}.idx"));
        assert_round_trip(&ball, &ball_path, &meta, &queries, query);

        // Family dispatch: AnyEvaluator picks the family from the header
        // and answers identically.
        let (any, _) = AnyEvaluator::from_index_file(&kd_path).unwrap();
        let q0: Vec<f64> = queries.point(0).to_vec();
        prop_assert_eq!(any.exact(&q0).to_bits(), kd.exact(&q0).to_bits());
        // Loading a kd file as a ball evaluator is a typed format error.
        prop_assert!(matches!(
            Evaluator::<Ball>::from_index_file(&kd_path),
            Err(KarlError::IndexFormat { .. })
        ));

        std::fs::remove_file(&kd_path).ok();
        std::fs::remove_file(&ball_path).ok();
    }
}

// ---------------------------------------------------------------------
// Corruption: every damaged file is rejected with the matching typed
// error. Built once, damaged many ways.
// ---------------------------------------------------------------------

fn written_index(name: &str) -> (PathBuf, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(7);
    let points = clustered(80, 3, &mut rng);
    let weights = mixed_weights(80, &mut rng);
    let kernel = Kernel::gaussian(0.7);
    let eval = Evaluator::<Rect>::build(&points, &weights, kernel, BoundMethod::Karl, 8);
    let path = tmp(name);
    eval.write_index_file(&path, &meta_for(kernel, BoundMethod::Karl, 8))
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn truncated_files_are_rejected_typed() {
    let (path, bytes) = written_index("truncated.idx");
    // Shorter than the fixed header.
    std::fs::write(&path, &bytes[..32]).unwrap();
    let err = Evaluator::<Rect>::from_index_file(&path).unwrap_err();
    assert_eq!(err, KarlError::Truncated { needed: 64, got: 32 });
    // Mid-payload cut: the header promises more bytes than exist.
    std::fs::write(&path, &bytes[..bytes.len() - 128]).unwrap();
    assert!(matches!(
        Evaluator::<Rect>::from_index_file(&path),
        Err(KarlError::Truncated { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_payload_byte_is_a_checksum_mismatch() {
    let (path, bytes) = written_index("bitflip.idx");
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    std::fs::write(&path, &bad).unwrap();
    let err = Evaluator::<Rect>::from_index_file(&path).unwrap_err();
    assert!(
        matches!(err, KarlError::ChecksumMismatch { expected, got } if expected != got),
        "{err:?}"
    );
    // Every single-byte flip in the payload region is caught.
    for off in [64usize, 200, bytes.len() / 2] {
        let mut bad = bytes.clone();
        bad[off] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            matches!(
                Evaluator::<Rect>::from_index_file(&path),
                Err(KarlError::ChecksumMismatch { .. })
            ),
            "flip at {off}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_magic_and_endianness_are_format_errors() {
    let (path, bytes) = written_index("magic.idx");
    // Foreign magic.
    let mut bad = bytes.clone();
    bad[..8].copy_from_slice(b"NOTKARL!");
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(
        Evaluator::<Rect>::from_index_file(&path),
        Err(KarlError::IndexFormat { .. })
    ));
    // Byte-swapped endianness tag (a file from a foreign-endian host).
    let mut bad = bytes.clone();
    bad[12..16].reverse();
    std::fs::write(&path, &bad).unwrap();
    let err = Evaluator::<Rect>::from_index_file(&path).unwrap_err();
    assert!(matches!(err, KarlError::IndexFormat { .. }), "{err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn future_version_is_rejected_with_supported_range() {
    let (path, bytes) = written_index("version.idx");
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    let err = Evaluator::<Rect>::from_index_file(&path).unwrap_err();
    assert_eq!(
        err,
        KarlError::VersionUnsupported {
            found: 99,
            supported: 1
        }
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_an_io_error() {
    let path = tmp("does_not_exist.idx");
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        Evaluator::<Rect>::from_index_file(&path),
        Err(KarlError::IndexIo { .. })
    ));
}
