//! Workloads, their set-up, the output checks and the end-to-end phases.
//!
//! Every workload runs a few hardware designs ([`ScenarioSpec`]s) with equal
//! weight. Set-up generates the calibration splits, trains the base model
//! and compiles the engines; it is cold on every run (nothing is read from
//! disk). The end-to-end run measures with tracing off and at
//! `SCNN_THREADS` = 1; the output checks also run at the machine's core
//! count.

use crate::inputs::{Background, Frames, Stream};
use crate::report::Tally;
use crate::stats::{mean_of_medians, percentile};
use scnn_core::{
    train_base, AdderKind, BaseModel, BinaryConvLayer, FirstLayer, HeadKind, HybridLenet,
    ScenarioSpec, StochasticConvLayer, TrainConfig,
};
use scnn_nn::data::Dataset;
use scnn_nn::layers::Conv2d;
use scnn_nn::parallel::THREADS_ENV;
use scnn_nn::Evaluation;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["infer-tff", "infer-mux"];

/// Precisions of the workloads' designs.
const BITS: [u32; 3] = [4, 6, 8];
/// Per-bit flip probability of the bit-error designs the traced run
/// profiles.
const BER: f64 = 1e-2;
/// Training frames of the base model (one epoch).
const BASE_TRAIN: usize = 500;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker count of set-up and of the timed end-to-end phases. Work split
/// over every core of a shared host waits at each join for the core that
/// other tenants slow most, so its rates swing far more than one worker's
/// (see README.md, "Noise"). The output checks still compare one worker
/// with the core count, and the traced run reports the parallel speed-ups.
pub const THREADS: usize = 1;
/// Batch size of `HybridLenet::evaluate` in the throughput phase.
const EVAL_BATCH: usize = 8;
/// Fewest throughput rounds.
const MIN_ROUNDS: usize = 3;
/// Fewest latency samples: p90 then has at least ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 100;
/// Frames per check on which the count-domain engine is compared with the
/// streaming oracle.
const ORACLE_FRAMES: usize = 4;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `this_work` at 4/6/8 bits over zero-background frames.
    InferTff,
    /// `old_sc` (MUX adder, LFSR sources) at 4/6/8 bits over noisy frames.
    InferMux,
}

/// One workload and its input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Background model of its frames.
    pub background: Background,
    /// Frames per design in one throughput block.
    pub block: usize,
    /// Frames of the fixed test split (`misclass_pct`).
    pub test: usize,
    /// Frames the output checks run on.
    pub check: usize,
    /// Frames per design in the traced run.
    pub profile: usize,
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        let (kind, background, block, test, check, profile) = match name {
            "infer-tff" => (Kind::InferTff, Background::Zero, 64, 128, 8, 64),
            "infer-mux" => (Kind::InferMux, Background::Noisy, 8, 32, 4, 16),
            _ => return None,
        };
        Some(Self { kind, background, block, test, check, profile })
    }

    /// The designs it runs, each with equal weight.
    pub fn designs(&self) -> Vec<ScenarioSpec> {
        match self.kind {
            Kind::InferTff => BITS.map(ScenarioSpec::this_work).to_vec(),
            Kind::InferMux => BITS.map(ScenarioSpec::old_sc).to_vec(),
        }
    }
}

/// `this_work(bits)` under bit errors at [`BER`].
pub fn faulty(bits: u32) -> ScenarioSpec {
    ScenarioSpec::this_work(bits).customize().bit_error_rate(BER).build()
}

/// A compiled first-layer engine, kept concrete so it can be cloned into a
/// fresh `HybridLenet` and checked against its oracle.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a run holds a handful of engines
pub enum Engine {
    /// A stochastic-computing engine.
    Stochastic(StochasticConvLayer),
    /// The quantized fixed-point baseline.
    Binary(BinaryConvLayer),
}

impl Engine {
    /// Compiles `spec` against the base model's first convolution.
    pub fn compile(spec: &ScenarioSpec, conv: &Conv2d) -> Result<Self, String> {
        match spec.head {
            HeadKind::Stochastic => spec.stochastic_conv(conv).map(Engine::Stochastic),
            HeadKind::Binary => spec
                .precision()
                .and_then(|p| BinaryConvLayer::from_conv(conv, p, spec.soft_threshold))
                .map(Engine::Binary),
            HeadKind::Float => return Err("the benchmark runs no float designs".into()),
        }
        .map_err(|e| format!("compiling {}: {e}", spec.label()))
    }

    /// The engine as a first layer.
    pub fn layer(&self) -> &dyn FirstLayer {
        match self {
            Engine::Stochastic(e) => e,
            Engine::Binary(e) => e,
        }
    }

    /// A boxed copy, for a new `HybridLenet`.
    pub fn boxed(&self) -> Box<dyn FirstLayer> {
        match self {
            Engine::Stochastic(e) => Box::new(e.clone()),
            Engine::Binary(e) => Box::new(e.clone()),
        }
    }
}

/// A design: its spec and compiled engine.
#[derive(Debug, Clone)]
pub struct Design {
    /// The scenario it was compiled from.
    pub spec: ScenarioSpec,
    /// The compiled engine.
    pub engine: Engine,
}

/// Everything set-up produces.
pub struct Setup {
    /// The trained base model.
    pub base: BaseModel,
    /// The fixed test split.
    pub test: Dataset,
    /// Frames of the output checks.
    pub checks: Dataset,
    /// The compiled designs, in workload order.
    pub designs: Vec<Design>,
    /// One hybrid network per design (its engine and the base tail).
    pub hybrids: Vec<HybridLenet>,
    /// Seconds spent generating inputs.
    pub generate_s: f64,
    /// Seconds spent in `train_base`.
    pub train_base_s: f64,
    /// Seconds spent compiling engines and assembling the hybrids.
    pub compile_s: f64,
}

/// Generates the inputs, trains the base model and compiles every design.
pub fn setup(w: &Workload, frames: &Frames) -> Result<Setup, String> {
    let t = Instant::now();
    let (train, test) = frames.calibration(BASE_TRAIN, w.test);
    let checks = frames.block(Stream::Check, 0, w.check);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = TrainConfig { epochs: 1, ..TrainConfig::default() };
    let base = train_base(&train, &test, &config).map_err(|e| format!("train_base: {e}"))?;
    let train_base_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let designs = w
        .designs()
        .into_iter()
        .map(|spec| Ok(Design { spec, engine: Engine::compile(&spec, base.conv1())? }))
        .collect::<Result<Vec<_>, String>>()?;
    let hybrids =
        designs.iter().map(|d| HybridLenet::new(d.engine.boxed(), base.tail_clone())).collect();
    let compile_s = t.elapsed().as_secs_f64();

    Ok(Setup { base, test, checks, designs, hybrids, generate_s, train_base_s, compile_s })
}

/// The machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sets the library's worker count. Called only between phases, while the
/// benchmark runs no other thread.
pub fn set_threads(n: usize) {
    std::env::set_var(THREADS_ENV, n.to_string());
}

/// Runs the output checks, recording each in `tally`:
///
/// * every design gives identical evaluations, features and predictions at
///   one worker and at `nproc` workers, and the single-caller
///   `classify_image` agrees with the batched predictions;
/// * every TFF engine is bit-exact against its streaming oracle.
///
/// The workloads' designs are fault-free; the traced run checks that
/// bit-error engines inject faults.
pub fn check_outputs(s: &mut Setup, nproc: usize, tally: &mut Tally) {
    let batch = (s.checks.len() / (2 * nproc)).max(1);
    for (design, hybrid) in s.designs.iter().zip(&mut s.hybrids) {
        let label = design.spec.label();
        set_threads(1);
        let serial = observe(hybrid, &s.checks, batch);
        set_threads(nproc);
        let parallel = observe(hybrid, &s.checks, batch);
        let n = s.checks.len() as u64;
        let same = match (&serial, &parallel) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        tally.record(n, same, || format!("{label}: outputs differ between 1 and {nproc} threads"));
        if let Ok((_, _, predictions)) = &parallel {
            let single: Result<Vec<usize>, _> =
                (0..s.checks.len()).map(|i| hybrid.classify_image(s.checks.item(i))).collect();
            let agree = single.as_ref().is_ok_and(|p| p == predictions);
            tally.record(n, agree, || format!("{label}: classify_image disagrees with evaluate"));
        }

        let Engine::Stochastic(engine) = &design.engine else { continue };
        if design.spec.adder == AdderKind::Tff {
            for i in 0..ORACLE_FRAMES.min(s.checks.len()) {
                let frame = s.checks.item(i);
                let fast = engine.forward_image_indexed(frame, i as u64);
                let oracle = engine.forward_image_streaming(frame);
                let exact = match (fast, oracle) {
                    (Ok(a), Ok(b)) => {
                        a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()))
                    }
                    _ => false,
                };
                tally.record(1, exact, || format!("{label}: frame {i} differs from the oracle"));
            }
        }
    }
}

/// What the thread-identity check compares: the evaluation (loss to the
/// bit), the extracted features, and the tail's predictions.
type Observation = (Evaluation, Dataset, Vec<usize>);

fn observe(
    hybrid: &mut HybridLenet,
    frames: &Dataset,
    batch: usize,
) -> Result<Observation, String> {
    let evaluation = hybrid.evaluate(frames, batch).map_err(|e| e.to_string())?;
    let features = hybrid.extract_features(frames).map_err(|e| e.to_string())?;
    let all: Vec<usize> = (0..features.len()).collect();
    let (x, _) = features.batch(&all).map_err(|e| e.to_string())?;
    let predictions = hybrid.tail_mut().predict(&x).map_err(|e| e.to_string())?;
    Ok((evaluation, features, predictions))
}

/// Runs `w` end to end and returns every end-to-end metric.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<(BTreeMap<&'static str, f64>, Tally), String> {
    let nproc = nproc();
    set_threads(THREADS);
    scnn_obs::force(false, false);
    let frames = Frames::new(seed, w.background);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        last = Some(setup(w, &frames)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut s = last.expect("at least one set-up");

    let mut tally = Tally::default();
    check_outputs(&mut s, nproc, &mut tally);
    set_threads(THREADS);

    let budget = Duration::from_secs(seconds);
    let mut latency = Latency::new(frames);
    let work = inference_rounds(w, &mut s, &frames, budget, &mut latency, &mut tally);

    let all = latency.bursts.concat();
    eprintln!(
        "perfbench: throughput over {} rounds, latency over {} samples",
        work.rounds,
        all.len()
    );
    let mut values = BTreeMap::new();
    let stat = |v: &[f64], p: f64, what: &str| {
        percentile(v, p).ok_or_else(|| format!("no {what} samples"))
    };
    values.insert("throughput_img_s", work.images as f64 / work.busy_s);
    let p50 = mean_of_medians(&latency.bursts).ok_or("no latency samples")?;
    values.insert("latency_p50_ms", p50);
    values.insert("latency_p90_ms", stat(&all, 90.0, "latency")?);
    values.insert("misclass_pct", work.misclass_pct());
    values.insert("peak_rss_mb", peak_rss_mb()?);
    values.insert("ok_ratio", tally.ok_ratio());
    values.insert("setup_s", stat(&setup_s, 50.0, "set-up")?);
    Ok((values, tally))
}

/// Work done in the throughput rounds.
#[derive(Debug, Default)]
struct Work {
    /// Rounds done (every design once per round).
    rounds: usize,
    /// Images completed inside the timed library calls.
    images: usize,
    /// Seconds spent inside the timed library calls.
    busy_s: f64,
    /// Misclassified test frames.
    wrong: usize,
    /// Test frames scored.
    scored: usize,
}

impl Work {
    fn add_round(&mut self, images: usize, busy_s: f64) {
        self.rounds += 1;
        self.images += images;
        self.busy_s += busy_s;
    }

    fn misclass_pct(&self) -> f64 {
        100.0 * self.wrong as f64 / self.scored.max(1) as f64
    }

    /// Whether the run may stop: the budget is spent, and there are enough
    /// rounds and latency samples.
    fn done(&self, start: Instant, budget: Duration, latency: &Latency) -> bool {
        self.rounds >= MIN_ROUNDS
            && latency.samples() >= MIN_LATENCY_SAMPLES
            && start.elapsed() >= budget
    }
}

/// Evaluates rounds of frames, one block per design per round, each round
/// followed by a latency burst as long as the round, until the budget is
/// spent. Round 0 is the fixed test split, which also gives the
/// misclassification rate; later rounds are unseen blocks drawn from the
/// run's seed.
fn inference_rounds(
    w: &Workload,
    s: &mut Setup,
    frames: &Frames,
    budget: Duration,
    latency: &mut Latency,
    tally: &mut Tally,
) -> Work {
    let designs = s.hybrids.len() as u64;
    let mut work = Work::default();
    let start = Instant::now();
    let mut round = 0u64;
    while !work.done(start, budget, latency) {
        let (mut busy, mut images) = (0.0, 0usize);
        for (d, hybrid) in s.hybrids.iter_mut().enumerate() {
            let fresh;
            let input = if round == 0 {
                &s.test
            } else {
                fresh = frames.block(Stream::Throughput, round * designs + d as u64, w.block);
                &fresh
            };
            let t = Instant::now();
            let result = hybrid.evaluate(input, EVAL_BATCH);
            busy += t.elapsed().as_secs_f64();
            let n = input.len();
            let ok = matches!(&result, Ok(e) if e.total == n && e.correct <= n);
            tally.record(n as u64, ok, || format!("evaluate round {round}: {result:?}"));
            if let (0, Ok(e)) = (round, &result) {
                work.wrong += e.total - e.correct;
                work.scored += e.total;
            }
            images += n;
        }
        work.add_round(images, busy);
        latency.burst(&mut s.hybrids, Duration::from_secs_f64(busy), tally);
        round += 1;
    }
    work
}

/// Per-frame latency in a closed loop with one caller: each burst
/// classifies one unseen frame at a time on each network in turn, timing
/// each `classify_image` call.
struct Latency {
    frames: Frames,
    chunk: Dataset,
    next: usize,
    /// Latencies in milliseconds, one vector per burst.
    bursts: Vec<Vec<f64>>,
}

impl Latency {
    /// Frames are drawn from the latency stream this many at a time.
    const CHUNK: usize = 32;

    fn new(frames: Frames) -> Self {
        let chunk = Dataset::new(Vec::new(), &[1, 28, 28], Vec::new()).expect("empty dataset");
        Self { frames, chunk, next: 0, bursts: Vec::new() }
    }

    fn samples(&self) -> usize {
        self.bursts.iter().map(Vec::len).sum()
    }

    /// Classifies frames on every network until `length` has passed (at
    /// least one frame).
    fn burst(&mut self, hybrids: &mut [HybridLenet], length: Duration, tally: &mut Tally) {
        let start = Instant::now();
        let mut samples = Vec::new();
        loop {
            if self.next.is_multiple_of(Self::CHUNK) {
                let index = (self.next / Self::CHUNK) as u64;
                self.chunk = self.frames.block(Stream::Latency, index, Self::CHUNK);
            }
            let frame = self.chunk.item(self.next % Self::CHUNK);
            self.next += 1;
            for hybrid in hybrids.iter_mut() {
                let t = Instant::now();
                let result = hybrid.classify_image(frame);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let ok = matches!(result, Ok(class) if class < 10);
                tally.record(1, ok, || format!("classify_image: {result:?}"));
                if ok {
                    samples.push(ms);
                }
            }
            if start.elapsed() >= length {
                break;
            }
        }
        self.bursts.push(samples);
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
