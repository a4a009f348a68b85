//! The traced run: per-layer numbers from timers the benchmark puts around
//! calls into each layer's public functions, plus the library's own
//! registry counters.
//!
//! The traced run does a fixed amount of work (it ignores `--seconds`), so
//! its counters repeat exactly for a given workload. Every layer is
//! measured on every workload, on that workload's frames and designs; the
//! README says which end-to-end metric each layer metric should move, and
//! on which workload.

use crate::inputs::{zero_window_frac, Frames, Stream};
use crate::report::Tally;
use crate::stats::{median, percentile};
use crate::workload::{
    check_outputs, faulty, nproc, set_threads, setup, Engine, Workload, THREADS,
};
use scnn_core::{HeadKind, ScenarioSpec, StochasticConvLayer};
use scnn_nn::data::{BatchSource, Dataset};
use scnn_nn::optim::Adam;
use scnn_nn::parallel::par_map_range_threads;
use scnn_nn::{softmax_cross_entropy, Network, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Frames per training batch in the tail-layer profile.
const TRAIN_BATCH: usize = 8;
/// Learning rate of the profiled optimizer steps (the retraining default).
const LEARNING_RATE: f32 = 5e-4;

type Values = BTreeMap<&'static str, f64>;

/// Microseconds elapsed since `t`.
fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median of `v`, or 0 when a layer had no samples.
fn p50(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Runs the traced profile of `w` and returns every per-layer metric.
pub fn run(w: &Workload, seed: u64) -> Result<(Values, Tally), String> {
    let nproc = nproc();
    set_threads(nproc);
    scnn_obs::force(true, false);
    scnn_obs::registry().reset();
    let frames = Frames::new(seed, w.background);
    let mut values = Values::new();
    let mut tally = Tally::default();

    let mut s = setup(w, &frames)?;
    values.insert("data.generate_s", s.generate_s);
    values.insert("retrain.train_base_s", s.train_base_s);
    values.insert("scenario.compile_ms", s.compile_s * 1e3);
    check_outputs(&mut s, nproc, &mut tally);

    let block = frames.block(Stream::Profile, 0, w.profile);
    let bits: Vec<u32> = s.designs.iter().map(|d| d.spec.bits).collect();
    let zero: f64 = bits.iter().map(|&b| zero_window_frac(&block, b)).sum();
    values.insert("input.zero_window_frac", zero / bits.len() as f64);

    // First layer: the workload's stochastic engines, one frame at a time.
    let stochastic: Vec<&StochasticConvLayer> = s
        .designs
        .iter()
        .filter_map(|d| match &d.engine {
            Engine::Stochastic(e) => Some(e),
            Engine::Binary(_) => None,
        })
        .collect();
    let times = forward_times(stochastic.iter().map(|e| *e as _), &block, &mut tally);
    values.insert("stochastic.forward_us_p50", p50(&times));
    values.insert("stochastic.forward_us_p90", percentile(&times, 90.0).unwrap_or(0.0));
    values.insert("stochastic.busy_s", times.iter().sum::<f64>() / 1e6);
    values.insert("stochastic.images", times.len() as f64);
    let lut = stochastic.iter().filter(|e| e.uses_count_table()).count();
    values.insert("stochastic.lut_share", lut as f64 / stochastic.len().max(1) as f64);

    // Fault injection: faulted against clean `this_work` at the bits of the
    // workload's stochastic designs, on the same frames.
    let conv = s.base.conv1();
    let stochastic_bits: Vec<u32> = s
        .designs
        .iter()
        .filter(|d| d.spec.head == HeadKind::Stochastic)
        .map(|d| d.spec.bits)
        .collect();
    let compile = |spec: ScenarioSpec| spec.stochastic_conv(conv).map_err(|e| e.to_string());
    let clean: Vec<_> = stochastic_bits
        .iter()
        .map(|&b| compile(ScenarioSpec::this_work(b)))
        .collect::<Result<_, _>>()?;
    let faulted: Vec<_> =
        stochastic_bits.iter().map(|&b| compile(faulty(b))).collect::<Result<_, _>>()?;
    let clean_us: f64 =
        forward_times(clean.iter().map(|e| e as _), &block, &mut tally).iter().sum();
    let injected_before = scnn_obs::registry().counter("fault/injected").get();
    let faulted_us: f64 =
        forward_times(faulted.iter().map(|e| e as _), &block, &mut tally).iter().sum();
    let injected = scnn_obs::registry().counter("fault/injected").get() - injected_before;
    values.insert("faults.overhead_x", faulted_us / clean_us);
    values.insert("faults.injected", injected as f64);
    tally.record(1, injected > 0, || "no faults injected".into());

    // The binary baseline: the workload's own binary designs, else one at
    // each stochastic design's precision.
    let mut binary: Vec<Engine> = s
        .designs
        .iter()
        .filter(|d| d.spec.head == HeadKind::Binary)
        .map(|d| d.engine.clone())
        .collect();
    if binary.is_empty() {
        binary = stochastic_bits
            .iter()
            .map(|&b| Engine::compile(&ScenarioSpec::binary(b), conv))
            .collect::<Result<_, _>>()?;
    }
    let times = forward_times(binary.iter().map(Engine::layer), &block, &mut tally);
    values.insert("baseline.forward_us_p50", p50(&times));
    values.insert("baseline.busy_s", times.iter().sum::<f64>() / 1e6);

    // Hybrid feature batches (engine + pooling), then the tail's forward
    // pass on one pooled frame at a time.
    let mut batch_ms = Vec::new();
    let mut predict_us = Vec::new();
    let mut first_features = None;
    for hybrid in &mut s.hybrids {
        let source = hybrid.features(&block);
        let mut pooled = Vec::new();
        let mut labels = Vec::new();
        for start in (0..block.len()).step_by(TRAIN_BATCH) {
            let t = Instant::now();
            let result = source.batch_range(start..(start + TRAIN_BATCH).min(block.len()));
            batch_ms.push(us(t) / 1e3);
            let ok = result.is_ok();
            tally.record(1, ok, || format!("feature batch: {:?}", result.as_ref().err()));
            if let Ok((x, l)) = result {
                pooled.extend_from_slice(x.data());
                labels.extend(l);
            }
        }
        let features = Dataset::new(pooled, source.item_shape(), labels)
            .map_err(|e| format!("pooled features: {e}"))?;
        for i in 0..features.len() {
            let x = Tensor::from_vec(features.item(i).to_vec(), &[1, 32, 14, 14])
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let result = hybrid.tail_mut().predict(&x);
            predict_us.push(us(t));
            tally.record(1, result.is_ok(), || format!("predict: {result:?}"));
        }
        first_features.get_or_insert(features);
    }
    values.insert("hybrid.feature_batch_ms_p50", p50(&batch_ms));
    values.insert("network.forward_us_p50", p50(&predict_us));
    let features = first_features.ok_or("the workload has no designs")?;

    // The tail's training side on retraining batches streamed from the
    // first design: data gather, each layer's forward and backward, and the
    // optimizer step.
    values.extend(profile_tail(&s.hybrids[0], &s.base.tail, &block, &mut tally)?);
    let mut net = s.base.tail_clone();
    let t = Instant::now();
    let result = {
        let streamed = s.hybrids[0].features(&block);
        net.train_epoch(&streamed, TRAIN_BATCH, &mut Adam::new(LEARNING_RATE), seed)
    };
    values.insert("network.train_epoch_s", us(t) / 1e6);
    tally.record(1, result.is_ok(), || format!("train_epoch: {result:?}"));

    // Parallel speed-ups at nproc workers over one, each side on its own
    // unseen frames (extraction) or the same features (training, whose
    // result must not depend on the worker count).
    let engine = s.designs[0].engine.layer();
    let mut extract_s = [0.0; 2];
    for (side, threads) in [1, nproc].into_iter().enumerate() {
        let frames_side = frames.block(Stream::Profile, 1 + side as u64, w.profile);
        let t = Instant::now();
        let out = par_map_range_threads(threads, frames_side.len(), |i| {
            engine.forward_image(frames_side.item(i)).is_ok()
        });
        extract_s[side] = us(t);
        tally.record(out.len() as u64, out.iter().all(|&ok| ok), || "parallel extract".into());
    }
    values.insert("parallel.extract_speedup_x", extract_s[0] / extract_s[1]);
    let mut trained = Vec::new();
    let mut train_s = [0.0; 2];
    for (side, threads) in [1, nproc].into_iter().enumerate() {
        let mut net = s.base.tail_clone();
        let mut opt = Adam::new(LEARNING_RATE);
        let t = Instant::now();
        let result = net.train_epoch_threads(&features, TRAIN_BATCH, &mut opt, seed, threads);
        train_s[side] = us(t);
        tally.record(1, result.is_ok(), || format!("train_epoch_threads: {result:?}"));
        trained.push(params(&mut net));
    }
    values.insert("parallel.train_speedup_x", train_s[0] / train_s[1]);
    tally.record(1, trained[0] == trained[1], || {
        format!("trained weights differ between 1 and {nproc} threads")
    });

    let registry = scnn_obs::registry();
    let count = |name: &str| registry.counter(name).get() as f64;
    values.insert("conv.images", count("conv/images"));
    values.insert("nn.batches_trained", count("nn/batches_trained"));
    values.insert("nn.images_evaluated", count("nn/images_evaluated"));
    let checkouts = count("scratch_pool/checkouts");
    let allocs = count("scratch_pool/allocs");
    values.insert(
        "scratch_pool.allocs_per_checkout",
        if checkouts > 0.0 { allocs / checkouts } else { 0.0 },
    );

    // Cost of the traced run itself: untraced over traced throughput of the
    // first design, each on its own unseen frames, at the end-to-end run's
    // worker count.
    set_threads(THREADS);
    let mut eval_s = [0.0; 2];
    for (side, traced) in [false, true].into_iter().enumerate() {
        let input = frames.block(Stream::Profile, 3 + side as u64, 2 * w.profile);
        scnn_obs::force(traced, false);
        let t = Instant::now();
        let result = s.hybrids[0].evaluate(&input, TRAIN_BATCH);
        eval_s[side] = us(t);
        tally.record(input.len() as u64, result.is_ok(), || format!("evaluate: {result:?}"));
    }
    scnn_obs::force(false, false);
    values.insert("obs.trace_overhead_x", eval_s[1] / eval_s[0]);
    Ok((values, tally))
}

/// Per-frame `forward_image_indexed` times (µs) of every engine over every
/// frame of `block`, on the calling thread.
fn forward_times<'a>(
    engines: impl Iterator<Item = &'a dyn scnn_core::FirstLayer>,
    block: &Dataset,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = Vec::new();
    for engine in engines {
        for i in 0..block.len() {
            let t = Instant::now();
            let result = engine.forward_image_indexed(block.item(i), i as u64);
            times.push(us(t));
            tally.record(1, result.is_ok(), || format!("{}: {:?}", engine.label(), result.err()));
        }
    }
    times
}

/// Times the training side of the tail on batches gathered from the
/// streamed feature source of `hybrid`: `BatchSource::gather`, each layer's
/// `forward` and `backward` (through `Network::layer_mut`), and
/// `Network::step`. Reports the median per batch.
fn profile_tail(
    hybrid: &scnn_core::HybridLenet,
    tail: &Network,
    block: &Dataset,
    tally: &mut Tally,
) -> Result<Values, String> {
    let mut net = tail.clone();
    let layers = net.len();
    let mut fwd = vec![Vec::new(); layers];
    let mut bwd = vec![Vec::new(); layers];
    let (mut gather, mut step) = (Vec::new(), Vec::new());
    let mut opt = Adam::new(LEARNING_RATE);
    let source = hybrid.features(block);
    let indices: Vec<usize> = (0..block.len()).rev().collect();
    for batch in indices.chunks(TRAIN_BATCH) {
        let t = Instant::now();
        let (x, labels) = source.gather(batch).map_err(|e| format!("gather: {e}"))?;
        gather.push(us(t));
        net.zero_grads();
        let mut x = x;
        for (i, times) in fwd.iter_mut().enumerate() {
            let layer = net.layer_mut(i).expect("index below len");
            let t = Instant::now();
            x = layer.forward(&x, true).map_err(|e| format!("L{i} forward: {e}"))?;
            times.push(us(t));
        }
        let (_, mut grad) = softmax_cross_entropy(&x, &labels).map_err(|e| e.to_string())?;
        for (i, times) in bwd.iter_mut().enumerate().rev() {
            let layer = net.layer_mut(i).expect("index below len");
            let t = Instant::now();
            grad = layer.backward(&grad).map_err(|e| format!("L{i} backward: {e}"))?;
            times.push(us(t));
        }
        let t = Instant::now();
        net.step(&mut opt);
        step.push(us(t));
        tally.record(batch.len() as u64, true, String::new);
    }
    let mut values = Values::new();
    for i in 0..layers {
        let kind = net.layer(i).expect("index below len").name();
        for (suffix, times) in [("fwd_us", &fwd[i]), ("bwd_us", &bwd[i])] {
            let name = format!("network.L{i}_{kind}.{suffix}");
            let name = crate::report::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("tail layer metric {name} is not in the catalogue"))?
                .name;
            values.insert(name, p50(times));
        }
    }
    values.insert("data.gather_us", p50(&gather));
    values.insert("optim.step_us", p50(&step));
    Ok(values)
}

/// Every parameter of `net`, as bits, in visiting order.
fn params(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    net.visit_all_params(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
    bits
}
