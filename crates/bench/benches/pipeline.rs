//! Criterion bench for the end-to-end engines: first-layer forward time
//! per image as a function of precision, and the binary tail's
//! `predict` time per batch.
//!
//! This is the run-time counterpart of the paper's §VI observation that
//! stochastic run time grows as `2^b` (one simulated stream bit per clock)
//! while the binary engine's work is precision-independent at the
//! algorithmic level.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scnn_bench::report::BenchJson;
use scnn_bitstream::Precision;
use scnn_core::{BinaryConvLayer, FirstLayer, HybridLenet, ScOptions, StochasticConvLayer};
use scnn_nn::data::{synthetic, BatchSource};
use scnn_nn::layers::{Conv2d, Padding};
use scnn_nn::lenet::{lenet5_tail, LenetConfig};
use std::hint::black_box;
use std::time::Duration;

fn bench_first_layers(c: &mut Criterion) {
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let image = synthetic::single(7, 1);
    let mut group = c.benchmark_group("pipeline/first_layer_forward");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for bits in [4u32, 6, 8] {
        let precision = Precision::new(bits).expect("valid");
        let tff = StochasticConvLayer::from_conv(&conv, precision, ScOptions::this_work())
            .expect("engine");
        group.bench_with_input(BenchmarkId::new("this_work", bits), &tff, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
        let binary = BinaryConvLayer::from_conv(&conv, precision, 0.0).expect("engine");
        group.bench_with_input(BenchmarkId::new("binary", bits), &binary, |b, engine| {
            b.iter(|| engine.forward_image(black_box(&image)).expect("forward"))
        });
    }
    // The old-SC MUX engine (route-masked table, lane sum); one point suffices.
    let old = StochasticConvLayer::from_conv(
        &conv,
        Precision::new(6).expect("valid"),
        ScOptions::old_sc(),
    )
    .expect("engine");
    group.bench_function("old_sc/6", |b| {
        b.iter(|| old.forward_image(black_box(&image)).expect("forward"))
    });
    group.finish();
}

/// The binary tail (`Conv2d` 32→64 onward) on pooled first-layer features
/// of seeded synthetic digits, at batch 1 and 8. The per-iteration times go
/// to `BENCH.json` as `pipeline/tail_predict/batch{1,8}`, where the perf
/// gate tracks them.
fn bench_tail(c: &mut Criterion) {
    let cfg = LenetConfig::default();
    let conv = Conv2d::new(1, 32, 5, Padding::Same, 42).expect("conv");
    let head =
        BinaryConvLayer::from_conv(&conv, Precision::new(8).expect("valid"), 0.0).expect("engine");
    let mut hybrid = HybridLenet::new(Box::new(head), lenet5_tail(&cfg).expect("tail"));
    let frames = synthetic::generate(8, 3);
    let path = BenchJson::default_path();
    let mut json = BenchJson::load(&path);
    let mut group = c.benchmark_group("pipeline/tail_predict");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for batch in [1usize, 8] {
        let (pooled, _) = hybrid.features(&frames).batch_range(0..batch).expect("features");
        let name = format!("batch{batch}");
        group.bench_function(&name, |b| {
            b.iter(|| hybrid.tail_mut().predict(black_box(&pooled)).expect("predict"));
            json.record(&format!("pipeline/tail_predict/{name}"), b.last_ns_per_iter);
        });
    }
    group.finish();
    json.write(&path).expect("write BENCH.json");
}

criterion_group!(benches, bench_first_layers, bench_tail);
criterion_main!(benches);
