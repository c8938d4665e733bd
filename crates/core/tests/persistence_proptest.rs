//! Property tests for the `LRMD` persistence format: random
//! decompositions survive a save/load round trip bit-for-bit, and the
//! loader rejects corrupt headers and unsupported versions.

use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
use lrm_core::persistence::{load_decomposition, save_decomposition};
use lrm_core::CoreError;
use lrm_dp::SensitivityNorm;
use lrm_workload::Workload;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique temp path per proptest case (cases run within one process).
fn tmp(name: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let case = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lrm_persistence_prop_{name}_{}_{case}.lrmd",
        std::process::id()
    ))
}

/// Strategy: a small random workload (entries bounded away from the
/// degenerate all-zero case by the +1 diagonal bump).
fn workload(
    mr: std::ops::Range<usize>,
    nr: std::ops::Range<usize>,
) -> impl Strategy<Value = Workload> {
    (mr, nr).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-3.0f64..3.0, m * n).prop_map(move |mut data| {
            for i in 0..m.min(n) {
                data[i * n + i] += 1.0;
            }
            let matrix = lrm_linalg::Matrix::from_vec(m, n, data).unwrap();
            Workload::new(matrix).unwrap()
        })
    })
}

/// A quick decomposition config — the property is about persistence, not
/// solver quality.
fn quick_config() -> DecompositionConfig {
    DecompositionConfig {
        target_rank: TargetRank::RatioOfRank(1.0),
        max_outer_iters: 20,
        polish_iters: 0,
        ..DecompositionConfig::default()
    }
}

fn decompose(w: &Workload) -> WorkloadDecomposition {
    WorkloadDecomposition::compute(w, &quick_config(), SensitivityNorm::L1, None)
        .expect("small decompositions succeed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn round_trip_preserves_factors(w in workload(2..6, 3..9)) {
        let decomposition = decompose(&w);
        let path = tmp("roundtrip");
        save_decomposition(&decomposition, &path).unwrap();
        let loaded = load_decomposition(&w, &path).unwrap();

        // Factors are stored losslessly (f64 bits), so equality is exact…
        prop_assert_eq!(decomposition.b(), loaded.b());
        prop_assert_eq!(decomposition.l(), loaded.l());
        // …and the revalidated residual matches the fresh one.
        prop_assert!(
            (decomposition.stats().residual - loaded.stats().residual).abs() <= 1e-12
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_header_is_rejected(w in workload(2..5, 3..7), flip in 0usize..4) {
        let decomposition = decompose(&w);
        let path = tmp("corrupt");
        save_decomposition(&decomposition, &path).unwrap();

        // Flip one magic byte: the loader must refuse, mentioning the magic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[flip] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        match load_decomposition(&w, &path) {
            Err(CoreError::InvalidArgument(msg)) => prop_assert!(msg.contains("magic"), "{}", msg),
            other => prop_assert!(false, "expected bad-magic rejection, got {:?}", other),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn wrong_version_is_rejected(w in workload(2..5, 3..7), version in 2u32..200) {
        let decomposition = decompose(&w);
        let path = tmp("version");
        save_decomposition(&decomposition, &path).unwrap();

        // Patch the version word (bytes 4..8, little-endian).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_decomposition(&w, &path) {
            Err(CoreError::InvalidArgument(msg)) => {
                prop_assert!(msg.contains("version"), "{}", msg)
            }
            other => prop_assert!(false, "expected version rejection, got {:?}", other),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncation_is_an_io_error_with_the_path(w in workload(2..5, 3..7), keep in 0usize..8) {
        let decomposition = decompose(&w);
        let path = tmp("truncate");
        save_decomposition(&decomposition, &path).unwrap();

        // Keep only the first `keep` bytes — header reads hit EOF.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..keep.min(bytes.len())]).unwrap();
        match load_decomposition(&w, &path) {
            Err(CoreError::Io { path: p, .. }) => prop_assert_eq!(p, path.clone()),
            // A cut inside the matrix blocks surfaces as a numerical read
            // failure instead; both are typed rejections.
            Err(CoreError::Numerical(_)) | Err(CoreError::InvalidArgument(_)) => {}
            other => prop_assert!(false, "expected typed rejection, got {:?}", other),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_reports_io_with_path(w in workload(2..4, 3..5)) {
        let path = tmp("missing");
        match load_decomposition(&w, &path) {
            Err(CoreError::Io { path: p, source }) => {
                prop_assert_eq!(p, path);
                prop_assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
            }
            other => prop_assert!(false, "expected Io error, got {:?}", other),
        }
    }
}
