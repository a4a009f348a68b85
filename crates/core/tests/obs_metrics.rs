//! Merged observability counters must be exact for any `SCNN_THREADS`.
//!
//! The acceptance property of the metrics layer: work-item counters and
//! span call counts merged across the parallel workers are **identical**
//! for `SCNN_THREADS=1` and `SCNN_THREADS=8` (and anything in between),
//! because every item produces the same instrumentation events no matter
//! which worker runs it and the merge is a sum of exact atomics.
//!
//! These tests mutate `SCNN_THREADS` and the global toggle/registry state,
//! so they live in their own integration-test binary and serialize through
//! one lock.

use scnn_bitstream::Precision;
use scnn_core::{HybridLenet, ScOptions, StochasticConvLayer};
use scnn_nn::data::synthetic;
use scnn_nn::layers::{Conv2d, Padding};
use scnn_nn::lenet::{lenet5_tail, LenetConfig};
use std::collections::BTreeMap;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs one full extract + evaluate pass under `threads` workers with
/// metrics on and returns the registry snapshot as a map.
fn pass_snapshot(images: usize, threads: &str) -> BTreeMap<String, f64> {
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 23).unwrap();
    let engine =
        StochasticConvLayer::from_conv(&conv, Precision::new(4).unwrap(), ScOptions::this_work())
            .unwrap();
    let mut hybrid = HybridLenet::new(Box::new(engine), lenet5_tail(&cfg).unwrap());
    let dataset = synthetic::generate(images, 7);

    scnn_obs::registry().reset();
    std::env::set_var(scnn_core::parallel::THREADS_ENV, threads);
    let _features = hybrid.extract_features(&dataset).unwrap();
    let _eval = hybrid.evaluate(&dataset, 4).unwrap();
    std::env::remove_var(scnn_core::parallel::THREADS_ENV);
    scnn_obs::registry().snapshot().into_iter().collect()
}

/// The scheduling-independent keys: per-item counters and per-item span
/// call counts. (Worker-shaped metrics — `parallel/*`, chunk-granular
/// decode spans, scratch/cache traffic — legitimately vary with the
/// partition, which is exactly why work is counted in items.)
const DETERMINISTIC_KEYS: &[&str] = &[
    "conv/images",
    "conv/zero_windows",
    "nn/images_evaluated",
    "data/items_decoded",
    "stage/conv/forward/count",
    "stage/conv/fold/count",
    "stage/core/extract_features/count",
    "stage/nn/evaluate/count",
];

#[test]
fn counter_totals_identical_for_1_and_8_threads() {
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    scnn_obs::force(true, false);

    // Property over dataset sizes (including ones that don't divide evenly
    // across 8 workers) and the full thread sweep.
    for images in [1usize, 5, 12] {
        let baseline = pass_snapshot(images, "1");
        for threads in ["2", "8"] {
            let snap = pass_snapshot(images, threads);
            for &key in DETERMINISTIC_KEYS {
                assert_eq!(
                    snap.get(key),
                    baseline.get(key),
                    "{key} differs between SCNN_THREADS=1 and SCNN_THREADS={threads} \
                     ({images} images)"
                );
            }
        }
        // And the totals are not just equal but correct: each image passes
        // the conv head twice (once materialized in extract_features, once
        // through evaluate's streaming feature source) and the tail
        // evaluates each image once.
        let images_f = images as f64;
        assert_eq!(baseline.get("conv/images"), Some(&(2.0 * images_f)));
        assert_eq!(baseline.get("stage/conv/forward/count"), Some(&(2.0 * images_f)));
        assert_eq!(baseline.get("nn/images_evaluated"), Some(&images_f));
    }

    scnn_obs::force(false, false);
}

#[test]
fn disabled_metrics_record_nothing() {
    let _env = ENV_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    scnn_obs::force(false, false);
    let snap = pass_snapshot(3, "2");
    for (key, value) in &snap {
        assert_eq!(*value, 0.0, "{key} recorded with metrics off");
    }
}
