use crate::arena::{and_count, mux_words, StreamArena};
use crate::baseline::{ternary, window_taps, FirstLayer, KernelBank, IMAGE_SIDE};
use crate::counts::{
    fold_tree_counts_wide, fold_tree_counts_wide_stuck, live_fold_node, table_fits,
    AnyLevelCountTable, LaneTree, LaneWidth, LaneWord, LevelCountTable, LevelStreamCache,
    ScratchPool,
};
use crate::faults::{gather_faulted, AnyCountFaultPlan, ImageFaults};
use crate::Error;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scnn_bitstream::Precision;
use scnn_nn::layers::Conv2d;
use scnn_nn::quant::{pixel_level, weight_level};
use scnn_rng::{Lfsr, NumberSource, Ramp, Sobol2, TrueRandom, VanDerCorput};
use scnn_sim::{FaultModel, FaultSite, S0Policy};
use std::sync::{Arc, Mutex, PoisonError};

/// Which number source drives a comparator SNG bank in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SourceKind {
    /// Linear ramp — the analog-to-stochastic converter model (paper §IV-A).
    Ramp,
    /// Van der Corput (Sobol' dimension 1) low-discrepancy sequence.
    VanDerCorput,
    /// Sobol' dimension 2 low-discrepancy sequence.
    Sobol2,
    /// Maximal-length LFSR (prior-work configuration).
    Lfsr,
    /// Seeded uniform random values.
    Random,
}

impl SourceKind {
    /// Materializes one period of source values (`len` draws of `bits` bits).
    ///
    /// # Errors
    ///
    /// Propagates construction errors for unsupported widths.
    pub fn sequence(self, bits: u32, len: usize, seed: u64) -> Result<Vec<u64>, Error> {
        let mut src: Box<dyn NumberSource> = match self {
            SourceKind::Ramp => Box::new(Ramp::new(bits)?),
            SourceKind::VanDerCorput => Box::new(VanDerCorput::new(bits)?),
            SourceKind::Sobol2 => Box::new(Sobol2::new(bits)?),
            SourceKind::Lfsr => {
                let width = bits.max(3);
                let mask = (1u64 << width) - 1;
                let lfsr_seed = (seed & mask).max(1);
                Box::new(Lfsr::new(width, lfsr_seed)?)
            }
            SourceKind::Random => Box::new(TrueRandom::new(bits, seed)?),
        };
        let scale_shift = src.width() - bits;
        Ok((0..len).map(|_| src.next_value() >> scale_shift).collect())
    }
}

/// Which scaled-adder tree reduces the dot products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdderKind {
    /// The proposed TFF adder tree (§III) — exact counting, no selects.
    Tff,
    /// The conventional MUX adder tree with LFSR select streams — the
    /// prior-work ("Old SC") reducer.
    Mux,
}

/// Configuration of a [`StochasticConvLayer`].
///
/// The two presets mirror the designs Table 3 compares:
/// [`this_work`](Self::this_work) (ramp-converted pixels, low-discrepancy
/// weights, TFF adders) and [`old_sc`](Self::old_sc) (LFSR number
/// generation, MUX adders).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScOptions {
    /// Adder tree implementation.
    pub adder: AdderKind,
    /// Number source behind the pixel (sensor) SNG bank.
    pub pixel_source: SourceKind,
    /// Number source behind the shared weight SNG bank.
    pub weight_source: SourceKind,
    /// Initial-state policy of the TFF tree (ignored for MUX).
    pub s0_policy: S0Policy,
    /// Soft threshold τ in scaled dot-product units (Kim et al.).
    pub soft_threshold: f32,
    /// Fault model for the resilience experiments (paper §I / Fig. 8):
    /// [`FaultModel::None`] (every preset) runs fault-free;
    /// [`FaultModel::BitError`] injects per-bit stream flips — as count
    /// deltas on the count-domain path (TFF and MUX alike), literally on
    /// the streaming reference; stuck-at models pin a datapath site (TFF
    /// only).
    pub fault: FaultModel,
    /// Seed for LFSRs, random sources and fault injection.
    pub seed: u64,
    /// [`LaneWord`] width of the count-domain reduction (the TFF fold or
    /// the MUX lane sum). [`LaneWidth::Auto`] (every preset) picks `u64`
    /// when the count path is available and falls back to streaming
    /// otherwise (table over budget, or stream counts beyond the 16-bit
    /// lane ceiling); an explicit width turns that fallback into a
    /// construction error.
    pub lane_width: LaneWidth,
}

impl ScOptions {
    /// The paper's proposed configuration: ramp-compare pixel conversion,
    /// Sobol' weight generation, TFF adder tree.
    pub fn this_work() -> Self {
        Self {
            adder: AdderKind::Tff,
            pixel_source: SourceKind::Ramp,
            weight_source: SourceKind::Sobol2,
            s0_policy: S0Policy::Alternating,
            soft_threshold: 0.0,
            fault: FaultModel::None,
            seed: 42,
            lane_width: LaneWidth::Auto,
        }
    }

    /// The prior-work configuration: LFSR number generation everywhere and
    /// MUX adder trees (Table 3 "Old SC" rows).
    pub fn old_sc() -> Self {
        Self {
            adder: AdderKind::Mux,
            pixel_source: SourceKind::Lfsr,
            weight_source: SourceKind::Lfsr,
            s0_policy: S0Policy::Alternating,
            soft_threshold: 0.0,
            fault: FaultModel::None,
            seed: 42,
            lane_width: LaneWidth::Auto,
        }
    }
}

impl Default for ScOptions {
    fn default() -> Self {
        Self::this_work()
    }
}

/// The stochastic first-layer convolution engine (paper Fig. 3, §IV-B).
///
/// Per image: each pixel is converted once to a stream of `N = 2^b` bits
/// (shared by all windows covering it, as in the 784-unit parallel
/// hardware); each kernel weight is split into positive/negative unipolar
/// magnitudes and converted once by the shared weight SNG bank; every
/// window evaluates 25 AND-gate multiplications feeding two scaled-adder
/// trees (positive and negative), two counters, and a comparator that
/// implements the ternary sign activation with the trained bias folded in
/// as a count offset.
///
/// Both adder kinds run in the count domain. The TFF configuration uses
/// the counting closed form of the TFF adder (§III) — bit-exact with the
/// sequential hardware model, which the test-suite cross-validates
/// against `scnn-sim`'s reference tree. The MUX configuration's select
/// streams are fixed at construction, so every clock routes the tree
/// output to exactly one leaf: with `route(tree, t)` the clocks routed to
/// leaf `t`, the output count is
/// `Σ_t count(pixel ∧ weight(k, t) ∧ route(tree, t))`. The engine masks
/// each weight stream with the route of the tree its sign feeds once at
/// construction, builds the same table from the masked streams, and
/// reduces with a lane-wise sum instead of the TFF fold.
///
/// # The level-indexed AND-count table
///
/// A comparator SNG is a deterministic function of its input level: against
/// the fixed shared `pixel_seq`, a stream can take at most `2^b + 1`
/// distinct bit patterns — one per comparator level `0..=2^b`; the table
/// covers them all, though `b`-bit pixel quantization saturates at level
/// `2^b − 1` and so reads only `2^b` rows. Both datapaths consume
/// streams *only* through `count(pixel ∧ weight [∧ route])`, so the whole
/// per-tap multiply-and-count collapses to a
/// [`LevelCountTable`](crate::counts::LevelCountTable) precomputed at
/// construction. [`forward_image`](FirstLayer::forward_image) then
/// quantizes each pixel once and reduces counts for all `K` kernels in
/// parallel [`LaneTree`](crate::counts::LaneTree) lanes — zero bitstream
/// traffic, bit-exact with
/// [`forward_image_streaming`](Self::forward_image_streaming) (property
/// tested for both adders). Fault injection stays on the fast path: bit
/// errors are lifted into per-(pixel, tap) count deltas and stuck-at
/// sites into gather/fold overrides, so faulted sweeps run at LUT speed
/// (see [`ScOptions::fault`]). The bit-level streaming simulation is the
/// reference oracle for tests and the ground-truth fault model, and runs
/// in production only where the table cannot (oversized table, streams
/// beyond the 16-bit lane ceiling). The shared machinery lives in
/// [`counts`](crate::counts) and also powers
/// [`StochasticDenseLayer`](crate::StochasticDenseLayer).
///
/// # All-zero windows
///
/// A comparator SNG never emits a 1 at level 0, so every level-0 table row
/// is zero and a window whose in-image taps are all level 0 (dark
/// background; out-of-image taps are zero-filled alike) gathers the same
/// all-zero counts wherever it sits. A fault-free engine reduces that
/// window once at construction through its own gather and reducer — so the
/// S0 policy and the bias offsets come out as the real fold gives them —
/// and the window loop copies the stored outputs instead of gathering and
/// folding again. Faulted engines always fold: bit errors and stuck-at
/// sites perturb zero windows too.
#[derive(Debug, Clone)]
pub struct StochasticConvLayer {
    bank: KernelBank,
    precision: Precision,
    options: ScOptions,
    /// Stream length N.
    n: usize,
    /// Padded tap count (next power of two ≥ ksize²) — the tree width.
    padded: usize,
    /// Magnitude streams per (kernel, tap), unmasked — what the weight SNG
    /// bank emits.
    weight_streams: StreamArena,
    /// Sign of each (kernel, tap) weight.
    weight_neg: Vec<bool>,
    /// Select streams for the MUX trees (2·(padded−1) streams), empty for TFF.
    select_streams: StreamArena,
    /// Level-indexed AND-count table of the configured [`LaneWidth`]
    /// (built from route-masked weights for the MUX adder); `None` when
    /// the streaming path must run (oversized table, streams beyond the
    /// 16-bit lane ceiling).
    lut: Option<AnyLevelCountTable>,
    /// Count-domain bit-error plan, built when the table is live and
    /// [`ScOptions::fault`] carries a positive bit-error rate; per image
    /// it samples the flip set from `(seed, image_index, pixel)` and
    /// perturbs the gathered counts exactly as literal stream flips would.
    fault_plan: Option<AnyCountFaultPlan>,
    /// Per-distinct-level comparator conversion cache for the streaming
    /// paths, hoisted out of `pixel_streams` so repeated streaming
    /// forwards reuse one conversion per level across images. Shared by
    /// clones and worker threads (the stream is a pure function of the
    /// level against the fixed `pixel_seq`).
    level_streams: Arc<Mutex<LevelStreamCache>>,
    /// Per-kernel outputs of an all-level-0 window (see the type-level
    /// docs); `None` without the count table, under any fault model, or if
    /// a level-0 table row is not all zero. Shared by clones: it is
    /// computed once at construction and only read afterwards.
    zero_window: Option<Arc<[f32]>>,
}

impl StochasticConvLayer {
    /// Builds the engine from a trained first-layer convolution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for non-first-layer convolution shapes or
    /// unsupported precisions.
    pub fn from_conv(
        conv: &Conv2d,
        precision: Precision,
        options: ScOptions,
    ) -> Result<Self, Error> {
        let bank = KernelBank::from_conv(conv)?;
        let bits = precision.bits();
        let n = precision.stream_len();
        let ksq = bank.ksize * bank.ksize;
        let padded = ksq.next_power_of_two();

        // Fault-model validation: a malformed rate is rejected up front,
        // and a stuck-at site must name real hardware — a window tap or a
        // live node of the TFF fold (the MUX tree has no count-domain
        // nodes to pin).
        options.fault.validate().map_err(|e| Error::config(e.to_string()))?;
        if let Some((site, _)) = options.fault.stuck() {
            if options.adder != AdderKind::Tff {
                return Err(Error::config("stuck-at fault models target the TFF adder datapath"));
            }
            match site {
                FaultSite::LutTap { tap } if tap as usize >= ksq => {
                    return Err(Error::config(format!(
                        "stuck-at tap {tap} out of range (window has {ksq} taps)"
                    )));
                }
                FaultSite::AdderNode { node } if !live_fold_node(ksq, node as usize) => {
                    return Err(Error::config(format!(
                        "stuck-at node {node} is not a live node of the {ksq}-tap TFF fold"
                    )));
                }
                _ => {}
            }
            if scnn_obs::metrics_enabled() {
                scnn_obs::registry().counter("fault/sites").add(1);
            }
        }

        // Shared weight SNG bank: one sequence, one comparator per weight.
        const WEIGHT_SEED_SALT: u64 = 0x77_5eed;
        let weight_seq =
            options.weight_source.sequence(bits, n, options.seed ^ WEIGHT_SEED_SALT)?;
        let mut weight_streams = StreamArena::new(bank.kernels * ksq, n)?;
        let mut weight_neg = vec![false; bank.kernels * ksq];
        for k in 0..bank.kernels {
            for t in 0..ksq {
                let (level, neg) = weight_level(bank.weight(k, t), bits);
                weight_streams.write_from_levels(k * ksq + t, &weight_seq, level);
                weight_neg[k * ksq + t] = neg;
            }
        }

        // Pixel SNG sequence (regenerated identically for every image —
        // the hardware's global ramp / shared LFSR).
        let pixel_seq = options.pixel_source.sequence(bits, n, options.seed ^ 0x1234)?;

        // MUX select streams: one LFSR-driven 1/2 stream per tree node,
        // shared across all 784 engines (they run in lock-step).
        let select_streams = if options.adder == AdderKind::Mux {
            let nodes = 2 * (padded - 1);
            let mut arena = StreamArena::new(nodes, n)?;
            for node in 0..nodes {
                let seq = SourceKind::Lfsr.sequence(
                    bits,
                    n,
                    options.seed ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )?;
                arena.write_from_levels(node, &seq, 1u64 << (bits - 1));
            }
            arena
        } else {
            StreamArena::new(0, n)?
        };

        // The MUX table gathers route-masked counts: each weight stream is
        // ANDed with the route of the tree its sign feeds, so the table and
        // fault-plan builders below see `weight ∧ route` as the weight.
        let masked_weights = if options.adder == AdderKind::Mux {
            let routes = mux_routes(&select_streams, padded, n)?;
            let mut masked = weight_streams.clone();
            for (idx, &neg) in weight_neg.iter().enumerate() {
                let route = routes.stream(usize::from(neg) * padded + idx % ksq);
                for (w, &r) in masked.stream_mut(idx).iter_mut().zip(route) {
                    *w &= r;
                }
            }
            Some(masked)
        } else {
            None
        };
        let table_weights = masked_weights.as_ref().unwrap_or(&weight_streams);

        // Level-indexed AND-count table (see the type-level docs).
        // `table_fits` gates the memory budget and the 16-bit lane
        // arithmetic shared by every width. Fault injection does not force
        // streaming: bit errors become count deltas (the plan below) and
        // stuck-at sites become gather/fold overrides.
        let count_path =
            table_fits(n, ksq, bank.kernels) && options.lane_width.supports_counts_to(n);
        let lut = if count_path {
            let _build = scnn_obs::span("conv/lut_build");
            Some(AnyLevelCountTable::build(
                options.lane_width,
                &pixel_seq,
                table_weights,
                &weight_neg,
                ksq,
                bank.kernels,
            )?)
        } else if options.lane_width != LaneWidth::Auto {
            // An explicit width pins the count-domain reduction; the
            // silent streaming fallback would ignore it.
            return Err(Error::config(format!(
                "lane width {} requires the count-domain path (table within budget, stream \
                 counts within the 16-bit lane ceiling)",
                options.lane_width
            )));
        } else {
            None
        };

        // Count-domain bit-error plan: per-(stream bit, tap) weight bit
        // planes, sampled per (image index, pixel) at forward time. Built
        // from the masked MUX weights, a flip at clock `j` shifts a count
        // by `±(weight_bit ∧ route_bit)`.
        let fault_plan = match (&lut, options.fault.bit_error_rate()) {
            (Some(table), ber) if ber > 0.0 => Some(AnyCountFaultPlan::build(
                table.width(),
                ber,
                options.seed,
                &pixel_seq,
                table_weights,
                &weight_neg,
                ksq,
                bank.kernels,
            )),
            _ => None,
        };

        let level_streams = Arc::new(Mutex::new(LevelStreamCache::new(&pixel_seq)?));

        let mut engine = Self {
            bank,
            precision,
            options,
            n,
            padded,
            weight_streams,
            weight_neg,
            select_streams,
            lut,
            fault_plan,
            level_streams,
            zero_window: None,
        };
        if options.fault.is_none() {
            engine.zero_window = engine.zero_window_outputs()?;
        }
        Ok(engine)
    }

    /// The operating precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The engine configuration.
    pub fn options(&self) -> &ScOptions {
        &self.options
    }

    /// Stream length `N = 2^b` (clock cycles per frame window).
    pub fn stream_len(&self) -> usize {
        self.n
    }

    /// Number of taps per kernel window (`ksize²`).
    pub fn taps(&self) -> usize {
        self.bank.ksize * self.bank.ksize
    }

    /// Packed words of the magnitude stream for kernel `k`, tap `t`
    /// (exposed for the hardware activity-factor measurements in `scnn-hw`).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `t` is out of range.
    pub fn weight_stream(&self, k: usize, t: usize) -> &[u64] {
        self.weight_streams.stream(k * self.taps() + t)
    }

    /// Whether the weight at kernel `k`, tap `t` feeds the negative tree.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `t` is out of range.
    pub fn weight_is_negative(&self, k: usize, t: usize) -> bool {
        self.weight_neg[k * self.taps() + t]
    }

    /// Converts the image to its per-pixel streams — step one of the
    /// pipeline, exposed for tests and benches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    pub fn pixel_streams(&self, image: &[f32]) -> Result<StreamArena, Error> {
        if image.len() != IMAGE_SIDE * IMAGE_SIDE {
            return Err(Error::config(format!(
                "expected {} pixels, got {}",
                IMAGE_SIDE * IMAGE_SIDE,
                image.len()
            )));
        }
        let _convert = scnn_obs::span("conv/sng_convert");
        let bits = self.precision.bits();
        let mut arena = StreamArena::new(image.len(), self.n)?;
        // One comparator-SNG conversion per *distinct* level (≤ 2^b + 1)
        // instead of one per pixel: against the fixed shared `pixel_seq`
        // the stream is a pure function of the level, so equal-level pixels
        // share bit patterns and the rest is a word copy. The cache is
        // engine-owned, so repeated streaming forwards (and clones) reuse
        // conversions across images instead of redoing them per call.
        {
            let mut level_words = self.level_streams.lock().unwrap_or_else(PoisonError::into_inner);
            for (p, &v) in image.iter().enumerate() {
                let level = pixel_level(v, bits) as usize;
                arena.stream_mut(p).copy_from_slice(level_words.words(level));
            }
        }
        let ber = self.options.fault.bit_error_rate();
        if ber > 0.0 {
            // Deterministic per image content.
            let content_hash: u64 =
                image.iter().enumerate().map(|(i, &v)| (i as u64 + 1) * (v.to_bits() as u64)).sum();
            let mut rng = StdRng::seed_from_u64(self.options.seed ^ content_hash);
            let total_bits = image.len() * self.n;
            // Geometric skip-sampling: draw the gap to the next flipped bit
            // directly (P(gap = g) = (1 − p)^g · p, the inverse-CDF form)
            // instead of one Bernoulli draw per bit — the same flip
            // distribution in O(expected flips) rather than O(total bits).
            let p = ber;
            // ln(1 − p) via ln_1p so denormally small rates don't round the
            // denominator to 0 (−∞ when p == 1: every gap is 0).
            let ln_keep = (-p).ln_1p();
            let mut flat = 0usize;
            while flat < total_bits {
                let u: f64 = rng.gen();
                let gap = ((1.0 - u).ln() / ln_keep).floor();
                if gap >= (total_bits - flat) as f64 {
                    break;
                }
                flat += gap as usize;
                let bit = flat % self.n;
                arena.stream_mut(flat / self.n)[bit / 64] ^= 1u64 << (bit % 64);
                flat += 1;
            }
        }
        Ok(arena)
    }

    /// Whether the level-indexed AND-count fast path is active (table
    /// within budget, stream counts within the 16-bit lane ceiling) — for
    /// both adders and faulted configurations included: bit errors run as
    /// count deltas, stuck-at sites as gather/fold overrides.
    pub fn uses_count_table(&self) -> bool {
        self.lut.is_some()
    }

    /// The concrete [`LaneWidth`] of the count-domain fold (never `Auto`),
    /// or `None` when the engine runs the streaming path.
    pub fn lane_width(&self) -> Option<LaneWidth> {
        self.lut.as_ref().map(AnyLevelCountTable::width)
    }

    /// The count-domain fast path: dispatches the configured lane width
    /// and the adder's reducer into the monomorphized window loop.
    /// `image_index` seeds the bit-error flip set (ignored when the engine
    /// is fault-free), keeping faulted results byte-identical for any
    /// thread count or batch order.
    fn forward_image_lut(&self, image: &[f32], image_index: u64) -> Result<Vec<f32>, Error> {
        let lut = self.lut.as_ref().expect("caller checked uses_count_table");
        match self.options.adder {
            AdderKind::Tff => self.forward_image_lut_width::<false>(lut, image, image_index),
            AdderKind::Mux => self.forward_image_lut_width::<true>(lut, image, image_index),
        }
    }

    /// [`forward_image_lut`](Self::forward_image_lut)'s lane-width arm.
    fn forward_image_lut_width<const LANE_SUM: bool>(
        &self,
        lut: &AnyLevelCountTable,
        image: &[f32],
        image_index: u64,
    ) -> Result<Vec<f32>, Error> {
        match lut {
            AnyLevelCountTable::U16(lut) => {
                self.forward_image_lut_typed::<_, LANE_SUM>(lut, image, image_index)
            }
            AnyLevelCountTable::U32(lut) => {
                self.forward_image_lut_typed::<_, LANE_SUM>(lut, image, image_index)
            }
            AnyLevelCountTable::U64(lut) => {
                self.forward_image_lut_typed::<_, LANE_SUM>(lut, image, image_index)
            }
            AnyLevelCountTable::U128(lut) => {
                self.forward_image_lut_typed::<_, LANE_SUM>(lut, image, image_index)
            }
        }
    }

    /// The per-kernel outputs of an all-level-0 window, reduced once through
    /// the engine's own gather and reducer; `None` without the count table
    /// or if some level-0 table row is not all zero.
    fn zero_window_outputs(&self) -> Result<Option<Arc<[f32]>>, Error> {
        match &self.lut {
            None => Ok(None),
            Some(AnyLevelCountTable::U16(lut)) => self.zero_window_typed(lut),
            Some(AnyLevelCountTable::U32(lut)) => self.zero_window_typed(lut),
            Some(AnyLevelCountTable::U64(lut)) => self.zero_window_typed(lut),
            Some(AnyLevelCountTable::U128(lut)) => self.zero_window_typed(lut),
        }
    }

    /// [`zero_window_outputs`](Self::zero_window_outputs) over one
    /// [`LaneWord`].
    fn zero_window_typed<W: LaneWord>(
        &self,
        lut: &LevelCountTable<W>,
    ) -> Result<Option<Arc<[f32]>>, Error> {
        if !lut.level_is_zero(0) {
            return Ok(None);
        }
        let (ksq, lanes) = (self.taps(), self.bank.kernels);
        let policy = self.options.s0_policy;
        let mut pos = LaneTree::<W>::new(ksq, lanes, policy, self.n)?;
        let mut neg = LaneTree::<W>::new(ksq, lanes, policy, self.n)?;
        for t in 0..ksq {
            lut.gather(0, t, pos.tap_lanes_mut(t), neg.tap_lanes_mut(t));
        }
        match self.options.adder {
            AdderKind::Tff => self.reduce::<W, false>(&mut pos, &mut neg, None),
            AdderKind::Mux => self.reduce::<W, true>(&mut pos, &mut neg, None),
        }
        Ok(Some((0..lanes).map(|k| self.emit(k, pos.root_lane(k), neg.root_lane(k))).collect()))
    }

    /// Reduces one window's gathered trees: the MUX lane sum when
    /// `LANE_SUM` is set, else the TFF fold with a stuck adder node pinned.
    #[inline]
    fn reduce<W: LaneWord, const LANE_SUM: bool>(
        &self,
        pos: &mut LaneTree<W>,
        neg: &mut LaneTree<W>,
        stuck: Option<(FaultSite, bool)>,
    ) {
        if LANE_SUM {
            // MUX trees: the gathered counts are already masked by their
            // leaf routes, which partition the clocks.
            pos.sum();
            neg.sum();
        } else {
            match stuck {
                // A stuck TFF column pins one node of the positive tree (a
                // systematic defect: the same physical adder in every
                // window).
                Some((FaultSite::AdderNode { node }, value)) => {
                    pos.fold_stuck(node as usize, if value { self.n as u16 } else { 0 });
                    neg.fold();
                }
                _ => {
                    pos.fold();
                    neg.fold();
                }
            }
        }
    }

    /// Kernel `k`'s ternary output for root counts `pos` and `neg`: the
    /// counter difference re-normalized to scaled dot-product units, plus
    /// the bias comparator offset.
    #[inline]
    fn emit(&self, k: usize, pos: u16, neg: u16) -> f32 {
        let diff = f32::from(pos) - f32::from(neg);
        let v = diff * self.padded as f32 / self.n as f32 + self.bank.offsets[k];
        ternary(v, self.options.soft_threshold)
    }

    /// The count-domain fast path over one [`LaneWord`]: quantize each
    /// pixel once, gather per-tap AND counts for all kernels from the
    /// level-indexed table, and reduce both trees in packed kernel lanes
    /// on pooled scratch — the TFF fold, or the MUX lane sum when
    /// `LANE_SUM` is set (fixed per engine by its adder, so the window loop
    /// never branches on it). On a fault-free engine, a window whose
    /// in-image taps are all level 0 copies the precomputed outputs and
    /// skips the gathers and the reduction.
    fn forward_image_lut_typed<W: LaneWord, const LANE_SUM: bool>(
        &self,
        lut: &LevelCountTable<W>,
        image: &[f32],
        image_index: u64,
    ) -> Result<Vec<f32>, Error> {
        if image.len() != IMAGE_SIDE * IMAGE_SIDE {
            return Err(Error::config(format!(
                "expected {} pixels, got {}",
                IMAGE_SIDE * IMAGE_SIDE,
                image.len()
            )));
        }
        let _forward = scnn_obs::span("conv/forward");
        let bits = self.precision.bits();
        let lanes = self.bank.kernels;
        let levels: Vec<usize> = image.iter().map(|&v| pixel_level(v, bits) as usize).collect();
        // Per-image fault state: the sampled flip lists (bit errors,
        // seeded from the image index) and the stuck-at site, applied on
        // top of the healthy gathers and folds below.
        let faults: Option<ImageFaults<'_, W>> =
            self.fault_plan.as_ref().map(|p| p.typed::<W>().image_faults(&levels, image_index));
        let stuck = self.options.fault.stuck();
        // Per output pixel: copy the precomputed all-zero-window outputs?
        let zero = self.zero_window.as_deref().map(|z| (z, zero_windows(&levels, self.bank.ksize)));
        if scnn_obs::metrics_enabled() {
            let registry = scnn_obs::registry();
            registry.counter("conv/images").add(1);
            if let Some(f) = &faults {
                registry.counter("fault/injected").add(f.flips);
            }
            if let Some((_, is_zero)) = &zero {
                let windows = is_zero.iter().filter(|&&z| z).count();
                registry.counter("conv/zero_windows").add(windows as u64);
            }
        }
        let n_out = IMAGE_SIDE * IMAGE_SIDE;
        let mut out = vec![0.0f32; lanes * n_out];
        let ksq = self.bank.ksize * self.bank.ksize;
        let policy = self.options.s0_policy;
        let mut pos = ScratchPool::checkout::<W>(ksq, lanes, policy, self.n)?;
        let mut neg = ScratchPool::checkout::<W>(ksq, lanes, policy, self.n)?;
        let _fold = scnn_obs::span("conv/fold");
        for oy in 0..IMAGE_SIDE {
            for ox in 0..IMAGE_SIDE {
                let base = oy * IMAGE_SIDE + ox;
                if let Some((outputs, is_zero)) = &zero {
                    if is_zero[base] {
                        for (k, &v) in outputs.iter().enumerate() {
                            out[k * n_out + base] = v;
                        }
                        continue;
                    }
                }
                // Every tap's lanes are rewritten per window, which is the
                // LaneTree reuse contract.
                for (t, px) in window_taps(self.bank.ksize, oy, ox) {
                    if let Some(p) = px {
                        match &faults {
                            Some(f) => gather_faulted(
                                lut,
                                f,
                                levels[p],
                                p,
                                t,
                                pos.tap_lanes_mut(t),
                                neg.tap_lanes_mut(t),
                            ),
                            None => {
                                lut.gather(levels[p], t, pos.tap_lanes_mut(t), neg.tap_lanes_mut(t))
                            }
                        }
                    } else {
                        pos.tap_lanes_mut(t).fill(W::ZERO);
                        neg.tap_lanes_mut(t).fill(W::ZERO);
                    }
                }
                // A stuck AND-gate line overrides whatever the gather (and
                // any bit-error delta) produced — for out-of-image taps
                // too: the defective gate drives its line regardless of
                // the pixel feeding it. Stuck-at-1 counts N toward the
                // tree each weight's sign feeds; stuck-at-0 zeroes both.
                if let Some((FaultSite::LutTap { tap }, value)) = stuck {
                    let t = tap as usize;
                    if value {
                        lut.split_by_sign(
                            t,
                            self.n as u16,
                            pos.tap_lanes_mut(t),
                            neg.tap_lanes_mut(t),
                        );
                    } else {
                        pos.tap_lanes_mut(t).fill(W::ZERO);
                        neg.tap_lanes_mut(t).fill(W::ZERO);
                    }
                }
                self.reduce::<W, LANE_SUM>(&mut pos, &mut neg, stuck);
                for k in 0..lanes {
                    out[k * n_out + base] = self.emit(k, pos.root_lane(k), neg.root_lane(k));
                }
            }
        }
        Ok(out)
    }

    /// The bit-level streaming engine — the hardware reference model.
    ///
    /// [`forward_image`](FirstLayer::forward_image) dispatches here only
    /// when the count-domain table is unavailable (oversized table,
    /// streams beyond the 16-bit lane ceiling); it stays public so benches
    /// and property tests can compare the two paths on any configuration
    /// (bit-exact for every fault-free engine and the stuck-at TFF
    /// engine). Under
    /// [`FaultModel::BitError`] this path flips literal stream bits seeded
    /// by image *content* — the ground-truth realization the count-domain
    /// deltas are statistically matched against.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the image has the wrong size.
    pub fn forward_image_streaming(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        if image.len() != IMAGE_SIDE * IMAGE_SIDE {
            return Err(Error::config(format!(
                "expected {} pixels, got {}",
                IMAGE_SIDE * IMAGE_SIDE,
                image.len()
            )));
        }
        let _forward = scnn_obs::span("conv/forward_streaming");
        if scnn_obs::metrics_enabled() {
            scnn_obs::registry().counter("conv/images").add(1);
        }
        let n_out = IMAGE_SIDE * IMAGE_SIDE;
        let ksq = self.bank.ksize * self.bank.ksize;
        let scale = self.padded as f32;
        let n_f = self.n as f32;
        let policy = self.options.s0_policy;
        // Stuck-at site, mirrored from the LUT path (construction already
        // rejected stuck-at on the MUX adder, so only the TFF arm reads it).
        let stuck = self.options.fault.stuck();
        let mut out = vec![0.0f32; self.bank.kernels * n_out];
        let w = self.weight_streams.words_per_stream();
        let mut scratch = vec![0u64; self.padded * w];
        let mut next = vec![0u64; (self.padded / 2).max(1) * w];
        let mut pos_counts = vec![0u64; self.padded];
        let mut neg_counts = vec![0u64; self.padded];
        let pixels = self.pixel_streams(image)?;
        for k in 0..self.bank.kernels {
            for oy in 0..IMAGE_SIDE {
                for ox in 0..IMAGE_SIDE {
                    let (pos, neg) = match self.options.adder {
                        AdderKind::Tff => {
                            pos_counts.fill(0);
                            neg_counts.fill(0);
                            for (t, px) in window_taps(self.bank.ksize, oy, ox) {
                                if let Some(p) = px {
                                    let idx = k * ksq + t;
                                    let c = and_count(
                                        pixels.stream(p),
                                        self.weight_streams.stream(idx),
                                    );
                                    if self.weight_neg[idx] {
                                        neg_counts[t] = c;
                                    } else {
                                        pos_counts[t] = c;
                                    }
                                }
                            }
                            // Stuck AND-gate line: override the tap's count
                            // (out-of-image taps included), routed by this
                            // kernel's weight sign — exactly the LUT path's
                            // split_by_sign override.
                            if let Some((FaultSite::LutTap { tap }, value)) = stuck {
                                let t = tap as usize;
                                pos_counts[t] = 0;
                                neg_counts[t] = 0;
                                if value {
                                    let c = self.n as u64;
                                    if self.weight_neg[k * ksq + t] {
                                        neg_counts[t] = c;
                                    } else {
                                        pos_counts[t] = c;
                                    }
                                }
                            }
                            match stuck {
                                // Stuck TFF column in the positive tree.
                                Some((FaultSite::AdderNode { node }, value)) => (
                                    fold_tree_counts_wide_stuck(
                                        policy,
                                        &mut pos_counts,
                                        node as usize,
                                        if value { self.n as u64 } else { 0 },
                                    ),
                                    fold_tree_counts_wide(policy, &mut neg_counts),
                                ),
                                _ => (
                                    fold_tree_counts_wide(policy, &mut pos_counts),
                                    fold_tree_counts_wide(policy, &mut neg_counts),
                                ),
                            }
                        }
                        AdderKind::Mux => {
                            let mut window = |tree| {
                                self.mux_window(&pixels, k, oy, ox, &mut scratch, &mut next, tree)
                            };
                            (window(0), window(1))
                        }
                    };
                    // Counter difference, re-normalized to scaled dot-product
                    // units, plus the bias comparator offset.
                    let diff_norm = (pos as f32 - neg as f32) * scale / n_f;
                    let v = diff_norm + self.bank.offsets[k];
                    out[k * n_out + oy * IMAGE_SIDE + ox] = ternary(v, self.options.soft_threshold);
                }
            }
        }
        Ok(out)
    }

    /// One window-kernel dot product via the MUX trees (bit-parallel) —
    /// the bit-level oracle the count-domain MUX path is tested against.
    #[allow(clippy::too_many_arguments)]
    fn mux_window(
        &self,
        pixels: &StreamArena,
        k: usize,
        oy: usize,
        ox: usize,
        scratch: &mut [u64],
        next: &mut [u64],
        tree: usize, // 0 = positive, 1 = negative
    ) -> u64 {
        let w = self.weight_streams.words_per_stream();
        let ksq = self.bank.ksize * self.bank.ksize;
        scratch.fill(0);
        for (t, px) in window_taps(self.bank.ksize, oy, ox) {
            let idx = k * ksq + t;
            if (tree == 1) != self.weight_neg[idx] {
                continue;
            }
            if let Some(p) = px {
                let dst = &mut scratch[t * w..(t + 1) * w];
                let (pw, ww) = (pixels.stream(p), self.weight_streams.stream(idx));
                for i in 0..w {
                    dst[i] = pw[i] & ww[i];
                }
            }
        }
        let out = mux_fold(&self.select_streams, self.padded, tree, scratch, next);
        out.iter().map(|x| u64::from(x.count_ones())).sum()
    }
}

/// Folds one MUX tree level by level over the `padded` leaf streams in
/// `leaves` (ping-pong with `next`) and returns the root stream. `tree`
/// picks the positive (0) or negative (1) tree's select streams; nodes
/// are numbered as in [`StochasticConvLayer::from_conv`].
fn mux_fold<'a>(
    selects: &StreamArena,
    padded: usize,
    tree: usize,
    leaves: &'a mut [u64],
    next: &'a mut [u64],
) -> &'a [u64] {
    let w = selects.words_per_stream();
    let mut width = padded;
    let mut node = (padded - 1) * tree;
    let mut cur = leaves;
    let mut nxt = next;
    while width > 1 {
        for i in 0..width / 2 {
            let sel = selects.stream(node);
            node += 1;
            let (a, b) = (&cur[2 * i * w..(2 * i + 1) * w], &cur[(2 * i + 1) * w..(2 * i + 2) * w]);
            // Select 1 picks the first input, matching sim::MuxAdder's
            // convention of select picking y when 1 — orientation is
            // symmetric for a 1/2 select, so either is faithful.
            mux_words(&mut nxt[i * w..(i + 1) * w], a, b, sel);
        }
        std::mem::swap(&mut cur, &mut nxt);
        width /= 2;
    }
    &cur[..w]
}

/// Per output pixel of a 28×28 image, whether every in-image tap of its
/// `ksize × ksize` window (centred as in `window_taps`) has level 0: one
/// summed-area table of nonzero levels, then an O(1) box sum per window.
fn zero_windows(levels: &[usize], ksize: usize) -> Vec<bool> {
    const S: usize = IMAGE_SIDE + 1;
    let mut sat = vec![0u16; S * S];
    for y in 0..IMAGE_SIDE {
        let mut row = 0u16;
        for x in 0..IMAGE_SIDE {
            row += u16::from(levels[y * IMAGE_SIDE + x] != 0);
            sat[(y + 1) * S + x + 1] = sat[y * S + x + 1] + row;
        }
    }
    // In-image rows (columns) `lo..hi` of a window centred at `o`.
    let pad = (ksize - 1) / 2;
    let span = |o: usize| (o.saturating_sub(pad), (o + ksize - pad).min(IMAGE_SIDE));
    (0..IMAGE_SIDE * IMAGE_SIDE)
        .map(|p| {
            let (y0, y1) = span(p / IMAGE_SIDE);
            let (x0, x1) = span(p % IMAGE_SIDE);
            sat[y1 * S + x1] + sat[y0 * S + x0] == sat[y0 * S + x1] + sat[y1 * S + x0]
        })
        .collect()
}

/// The route masks of both MUX trees: stream `tree · padded + t` holds the
/// clocks at which tree `tree` outputs leaf `t` — the tree's output when
/// an all-ones stream feeds leaf `t` and zeros feed every other leaf. The
/// selects are fixed, so one tree's routes partition its `n` clocks.
fn mux_routes(selects: &StreamArena, padded: usize, n: usize) -> Result<StreamArena, Error> {
    let mut routes = StreamArena::new(2 * padded, n)?;
    // An all-ones stream: every draw of an all-zero sequence is below 1.
    let mut ones = StreamArena::new(1, n)?;
    ones.write_from_levels(0, &vec![0; n], 1);
    let w = routes.words_per_stream();
    let mut leaves = vec![0u64; padded * w];
    let mut next = vec![0u64; (padded / 2).max(1) * w];
    for tree in 0..2 {
        for t in 0..padded {
            leaves.fill(0);
            leaves[t * w..(t + 1) * w].copy_from_slice(ones.stream(0));
            let route = mux_fold(selects, padded, tree, &mut leaves, &mut next);
            routes.stream_mut(tree * padded + t).copy_from_slice(route);
        }
    }
    Ok(routes)
}

impl FirstLayer for StochasticConvLayer {
    fn forward_image(&self, image: &[f32]) -> Result<Vec<f32>, Error> {
        self.forward_image_indexed(image, 0)
    }

    fn forward_image_indexed(&self, image: &[f32], image_index: u64) -> Result<Vec<f32>, Error> {
        if self.uses_count_table() {
            self.forward_image_lut(image, image_index)
        } else {
            // The streaming fault realization is seeded by image content,
            // so the index is irrelevant here.
            self.forward_image_streaming(image)
        }
    }

    fn kernels(&self) -> usize {
        self.bank.kernels
    }

    fn label(&self) -> String {
        match self.options.adder {
            AdderKind::Tff => format!("this-work({})", self.precision),
            AdderKind::Mux => format!("old-sc({})", self.precision),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FloatConvLayer;
    use scnn_bitstream::BitStream;
    use scnn_nn::layers::Padding;
    use scnn_sim::TffAdderTree;

    fn conv() -> Conv2d {
        Conv2d::new(1, 8, 5, Padding::Same, 5).unwrap()
    }

    fn test_image(seed: u64) -> Vec<f32> {
        (0..784).map(|i| (((i as u64).wrapping_mul(seed * 7 + 3) % 251) as f32) / 250.0).collect()
    }

    fn precision(bits: u32) -> Precision {
        Precision::new(bits).unwrap()
    }

    #[test]
    fn outputs_ternary_and_sized() {
        for options in [ScOptions::this_work(), ScOptions::old_sc()] {
            let engine = StochasticConvLayer::from_conv(&conv(), precision(4), options).unwrap();
            let out = engine.forward_image(&test_image(1)).unwrap();
            assert_eq!(out.len(), 8 * 784);
            assert!(out.iter().all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn tff_fold_matches_sim_reference_tree() {
        // The inline fold must agree with scnn-sim's TffAdderTree for every
        // policy and count pattern.
        for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
            let tree = TffAdderTree::new(32, policy).unwrap();
            for seed in 0..20u64 {
                let counts: Vec<u64> =
                    (0..32).map(|i| (seed.wrapping_mul(31 + i) ^ i) % 65).collect();
                let mut scratch = counts.clone();
                assert_eq!(
                    fold_tree_counts_wide(policy, &mut scratch),
                    tree.fold_counts(&counts),
                    "policy {policy:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn tff_engine_matches_bit_level_stream_simulation() {
        // Cross-validate one window of the packed fast path against a fully
        // sequential scnn-sim simulation built from the same streams.
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(6), ScOptions::this_work()).unwrap();
        let img = test_image(3);
        let pixels = engine.pixel_streams(&img).unwrap();
        let ksq = 25;
        let (k, oy, ox) = (2usize, 10usize, 12usize);
        // Reconstruct BitStreams and run the reference tree.
        let to_stream = |words: &[u64]| BitStream::from_words(words.to_vec(), engine.stream_len());
        let mut pos_inputs = Vec::new();
        let mut neg_inputs = Vec::new();
        for (t, px) in window_taps(5, oy, ox) {
            let idx = k * ksq + t;
            let product = match px {
                Some(p) => to_stream(pixels.stream(p))
                    .checked_and(&to_stream(engine.weight_streams.stream(idx)))
                    .unwrap(),
                None => BitStream::zeros(engine.stream_len()),
            };
            if engine.weight_neg[idx] {
                neg_inputs.push(product);
                pos_inputs.push(BitStream::zeros(engine.stream_len()));
            } else {
                pos_inputs.push(product);
                neg_inputs.push(BitStream::zeros(engine.stream_len()));
            }
        }
        let tree = TffAdderTree::new(25, engine.options().s0_policy).unwrap();
        let pos_ref = tree.add_streams(&pos_inputs).unwrap().count_ones();
        let neg_ref = tree.add_streams(&neg_inputs).unwrap().count_ones();

        // Fast path equivalents.
        let mut pos_counts = vec![0u64; engine.padded];
        let mut neg_counts = vec![0u64; engine.padded];
        for (t, px) in window_taps(5, oy, ox) {
            if let Some(p) = px {
                let idx = k * ksq + t;
                let c = and_count(pixels.stream(p), engine.weight_streams.stream(idx));
                if engine.weight_neg[idx] {
                    neg_counts[t] = c;
                } else {
                    pos_counts[t] = c;
                }
            }
        }
        let policy = engine.options().s0_policy;
        assert_eq!(fold_tree_counts_wide(policy, &mut pos_counts), pos_ref);
        assert_eq!(fold_tree_counts_wide(policy, &mut neg_counts), neg_ref);
    }

    #[test]
    fn mux_lut_and_streaming_paths_are_bit_exact() {
        // The route-masked table plus lane sum must reproduce the bit-level
        // MUX trees for every precision.
        for bits in [2u32, 3, 4, 6, 8] {
            let engine =
                StochasticConvLayer::from_conv(&conv(), precision(bits), ScOptions::old_sc())
                    .unwrap();
            assert!(engine.uses_count_table(), "bits={bits}");
            let img = test_image(u64::from(bits) * 5 + 2);
            assert_eq!(
                engine.forward_image(&img).unwrap(),
                engine.forward_image_streaming(&img).unwrap(),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn mux_routes_partition_the_clocks() {
        // Each tree's live-leaf routes are pairwise disjoint, and with the
        // padded leaves they cover every one of the N clocks exactly once.
        for bits in [2u32, 4, 6, 8] {
            let engine =
                StochasticConvLayer::from_conv(&conv(), precision(bits), ScOptions::old_sc())
                    .unwrap();
            let (n, padded) = (engine.stream_len(), engine.padded);
            let routes = mux_routes(&engine.select_streams, padded, n).unwrap();
            for tree in 0..2 {
                let route = |t: usize| routes.stream(tree * padded + t);
                for a in 0..engine.taps() {
                    for b in a + 1..engine.taps() {
                        assert_eq!(and_count(route(a), route(b)), 0, "bits={bits} {a}/{b}");
                    }
                }
                let covered: u64 = (0..padded).map(|t| routes.count(tree * padded + t)).sum();
                assert_eq!(covered, n as u64, "bits={bits} tree={tree}");
            }
        }
    }

    #[test]
    fn this_work_approaches_float_reference_with_precision() {
        let c = conv();
        let float = FloatConvLayer::from_conv(&c, 0.0).unwrap();
        let img = test_image(9);
        let reference = float.forward_image(&img).unwrap();
        let mismatch_at = |bits: u32| {
            let engine =
                StochasticConvLayer::from_conv(&c, precision(bits), ScOptions::this_work())
                    .unwrap();
            let got = engine.forward_image(&img).unwrap();
            got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count()
        };
        let m4 = mismatch_at(4);
        let m8 = mismatch_at(8);
        assert!(m8 < reference.len() / 10, "8-bit mismatches {m8}");
        assert!(m8 <= m4 + reference.len() / 100, "m8={m8} m4={m4}");
    }

    #[test]
    fn this_work_beats_old_sc_against_reference() {
        let c = conv();
        let float = FloatConvLayer::from_conv(&c, 0.0).unwrap();
        let img = test_image(13);
        let reference = float.forward_image(&img).unwrap();
        let mismatch = |options: ScOptions| {
            let engine = StochasticConvLayer::from_conv(&c, precision(6), options).unwrap();
            let got = engine.forward_image(&img).unwrap();
            got.iter().zip(&reference).filter(|(a, b)| (*a - *b).abs() > 0.5).count()
        };
        let new = mismatch(ScOptions::this_work());
        let old = mismatch(ScOptions::old_sc());
        assert!(new < old, "this-work {new} vs old-sc {old} feature errors");
    }

    #[test]
    fn bit_errors_degrade_gracefully() {
        let c = conv();
        let clean_opts = ScOptions::this_work();
        let noisy_opts = ScOptions { fault: FaultModel::BitError(0.02), ..clean_opts };
        let img = test_image(17);
        let clean = StochasticConvLayer::from_conv(&c, precision(6), clean_opts)
            .unwrap()
            .forward_image(&img)
            .unwrap();
        let noisy = StochasticConvLayer::from_conv(&c, precision(6), noisy_opts)
            .unwrap()
            .forward_image(&img)
            .unwrap();
        let flipped = clean.iter().zip(&noisy).filter(|(a, b)| (*a - *b).abs() > 0.5).count();
        // 2% stream bit errors should flip only a small fraction of the
        // ternary features — SC's graceful degradation (paper §I).
        assert!(flipped < clean.len() / 10, "{flipped} of {} features flipped", clean.len());
    }

    #[test]
    fn label_and_accessors() {
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::this_work()).unwrap();
        assert_eq!(engine.label(), "this-work(4-bit)");
        assert_eq!(engine.stream_len(), 16);
        assert_eq!(engine.kernels(), 8);
        assert_eq!(engine.precision().bits(), 4);
        let old =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::old_sc()).unwrap();
        assert_eq!(old.label(), "old-sc(4-bit)");
    }

    #[test]
    fn rejects_wrong_image() {
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::this_work()).unwrap();
        assert!(engine.forward_image(&[0.0; 10]).is_err());
        assert!(engine.forward_image_streaming(&[0.0; 10]).is_err());
    }

    #[test]
    fn lut_and_streaming_paths_are_bit_exact() {
        for bits in [2u32, 4, 6, 8] {
            for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
                let opts = ScOptions { s0_policy: policy, ..ScOptions::this_work() };
                let engine =
                    StochasticConvLayer::from_conv(&conv(), precision(bits), opts).unwrap();
                assert!(engine.uses_count_table(), "bits={bits}");
                let img = test_image(u64::from(bits) * 11 + 1);
                assert_eq!(
                    engine.forward_image(&img).unwrap(),
                    engine.forward_image_streaming(&img).unwrap(),
                    "bits={bits} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn faulted_tff_configurations_keep_the_table() {
        // Fault injection does not forfeit the count path: bit errors run
        // as count deltas at LUT speed — on the TFF and the MUX adder.
        for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
            let noisy = ScOptions { fault: FaultModel::BitError(0.01), ..preset };
            let engine = StochasticConvLayer::from_conv(&conv(), precision(4), noisy).unwrap();
            assert!(engine.uses_count_table(), "{:?}", preset.adder);
            assert_eq!(engine.lane_width(), Some(LaneWidth::U64));
            assert!(engine.fault_plan.is_some());
        }
        let mux =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::old_sc()).unwrap();
        assert!(mux.uses_count_table());
    }

    #[test]
    fn auto_width_resolves_to_u64_by_default() {
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(6), ScOptions::this_work()).unwrap();
        assert_eq!(engine.lane_width(), Some(LaneWidth::U64));
    }

    #[test]
    fn every_lane_width_is_bit_exact_with_streaming() {
        let img = test_image(29);
        let reference =
            StochasticConvLayer::from_conv(&conv(), precision(6), ScOptions::this_work())
                .unwrap()
                .forward_image_streaming(&img)
                .unwrap();
        for width in [LaneWidth::U16, LaneWidth::U32, LaneWidth::U64, LaneWidth::U128] {
            let opts = ScOptions { lane_width: width, ..ScOptions::this_work() };
            let engine = StochasticConvLayer::from_conv(&conv(), precision(6), opts).unwrap();
            assert_eq!(engine.lane_width(), Some(width));
            assert_eq!(engine.forward_image(&img).unwrap(), reference, "width={width}");
        }
    }

    #[test]
    fn explicit_width_rejects_streaming_only_configurations() {
        // 15-bit streams overflow the 16-bit lanes, so only the streaming
        // path can run them: an explicit width is an error on either adder.
        for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
            let wide = ScOptions { lane_width: LaneWidth::U64, ..preset };
            let err = StochasticConvLayer::from_conv(&conv(), precision(15), wide).unwrap_err();
            assert!(err.to_string().contains("count-domain"), "{err}");
        }
        // The MUX adder and faulted engines keep the count path, so an
        // explicit width compiles on them.
        let mux = ScOptions { lane_width: LaneWidth::U16, ..ScOptions::old_sc() };
        let engine = StochasticConvLayer::from_conv(&conv(), precision(4), mux).unwrap();
        assert_eq!(engine.lane_width(), Some(LaneWidth::U16));
        let noisy = ScOptions {
            lane_width: LaneWidth::U32,
            fault: FaultModel::BitError(0.01),
            ..ScOptions::this_work()
        };
        let engine = StochasticConvLayer::from_conv(&conv(), precision(4), noisy).unwrap();
        assert_eq!(engine.lane_width(), Some(LaneWidth::U32));
    }

    #[test]
    fn deduped_pixel_streams_match_direct_conversion() {
        // The per-distinct-level cache must reproduce exactly what one
        // comparator conversion per pixel used to produce.
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(6), ScOptions::this_work()).unwrap();
        let img = test_image(21);
        let streams = engine.pixel_streams(&img).unwrap();
        let bits = engine.precision().bits();
        let seq = engine.level_streams.lock().unwrap().seq().to_vec();
        let mut direct = StreamArena::new(img.len(), engine.stream_len()).unwrap();
        for (p, &v) in img.iter().enumerate() {
            direct.write_from_levels(p, &seq, pixel_level(v, bits));
        }
        assert_eq!(streams, direct);
    }

    #[test]
    fn zero_window_outputs_match_the_oracle_for_every_source_and_adder() {
        let sources = [
            SourceKind::Ramp,
            SourceKind::VanDerCorput,
            SourceKind::Sobol2,
            SourceKind::Lfsr,
            SourceKind::Random,
        ];
        let blank = vec![0.0f32; 784];
        for source in sources {
            for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
                for bits in 2..=8u32 {
                    let opts = ScOptions { pixel_source: source, weight_source: source, ..preset };
                    let ctx = format!("{source:?} {:?} bits={bits}", preset.adder);
                    let engine =
                        StochasticConvLayer::from_conv(&conv(), precision(bits), opts).unwrap();
                    // A comparator SNG never emits a 1 at level 0.
                    let Some(AnyLevelCountTable::U64(lut)) = &engine.lut else {
                        panic!("{ctx}: expected the u64 count table");
                    };
                    for t in 0..engine.taps() {
                        for k in 0..engine.kernels() {
                            assert_eq!(lut.count(0, t, k), 0, "{ctx} tap={t} kernel={k}");
                        }
                    }
                    // The stored outputs are what the gate-level oracle
                    // emits for every window of a blank frame, interior
                    // and border alike, and the shortcut path agrees.
                    let zero = engine.zero_window.as_ref().expect("fault-free engine");
                    let oracle = engine.forward_image_streaming(&blank).unwrap();
                    for (k, &v) in zero.iter().enumerate() {
                        let maps = &oracle[k * 784..(k + 1) * 784];
                        assert!(maps.iter().all(|&o| o == v), "{ctx} kernel={k}");
                    }
                    assert_eq!(engine.forward_image(&blank).unwrap(), oracle, "{ctx}");
                    // Faulted engines never store the shortcut.
                    let noisy = ScOptions { fault: FaultModel::BitError(0.01), ..opts };
                    let noisy =
                        StochasticConvLayer::from_conv(&conv(), precision(bits), noisy).unwrap();
                    assert!(noisy.zero_window.is_none(), "{ctx}");
                    if preset.adder == AdderKind::Tff {
                        let site = FaultSite::LutTap { tap: 3 };
                        let stuck =
                            ScOptions { fault: FaultModel::StuckAt { site, value: false }, ..opts };
                        let stuck = StochasticConvLayer::from_conv(&conv(), precision(bits), stuck)
                            .unwrap();
                        assert!(stuck.zero_window.is_none(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_window_outputs_follow_the_bias() {
        // The stored outputs come from the real fold, not a hard-coded 0:
        // an all-zero tree folds to zero under every S0 policy, so the two
        // roots tie and each kernel's bias comparator decides its sign.
        let mut c = conv();
        for (k, b) in c.bias_mut().data_mut().iter_mut().enumerate() {
            *b = [-0.2, 0.0, 0.3][k % 3];
        }
        for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
            let opts = ScOptions { s0_policy: policy, ..ScOptions::this_work() };
            let engine = StochasticConvLayer::from_conv(&c, precision(4), opts).unwrap();
            let zero = engine.zero_window.as_ref().unwrap();
            let expect: Vec<f32> = (0..8).map(|k| [-1.0, 0.0, 1.0][k % 3]).collect();
            assert_eq!(zero[..], expect[..], "{policy:?}");
        }
    }

    #[test]
    fn faulted_engines_still_fault_blank_frames() {
        let blank = vec![0.0f32; 784];
        let clean =
            StochasticConvLayer::from_conv(&conv(), precision(6), ScOptions::this_work()).unwrap();
        let expect = clean.forward_image(&blank).unwrap();
        // Bit errors flip level-0 stream bits too: the plan samples flips
        // on a blank frame and the output moves off the fault-free one.
        let opts = ScOptions { fault: FaultModel::BitError(0.05), ..ScOptions::this_work() };
        let noisy = StochasticConvLayer::from_conv(&conv(), precision(6), opts).unwrap();
        let plan = noisy.fault_plan.as_ref().unwrap().typed::<u64>();
        assert!(plan.image_faults(&[0; 784], 3).flips > 0);
        assert_ne!(noisy.forward_image_indexed(&blank, 3).unwrap(), expect);
        // A stuck-at-1 AND gate drives its line on every window.
        let site = FaultSite::LutTap { tap: 12 };
        let opts = ScOptions {
            fault: FaultModel::StuckAt { site, value: true },
            ..ScOptions::this_work()
        };
        let stuck = StochasticConvLayer::from_conv(&conv(), precision(6), opts).unwrap();
        let out = stuck.forward_image(&blank).unwrap();
        assert_ne!(out, expect);
        assert_eq!(out, stuck.forward_image_streaming(&blank).unwrap());
    }

    #[test]
    fn zero_window_flags_match_the_window_taps() {
        for ksize in [1usize, 3, 4, 5] {
            for seed in 0..8u64 {
                // Sparse lit pixels, corners and edges included.
                let mut levels = vec![0usize; 784];
                for p in [0, 27, 756, 783, 14, 392] {
                    if (seed >> (p % 5)) & 1 == 1 {
                        levels[p] = 1;
                    }
                }
                for i in 0..3 {
                    levels[((seed * 131 + i * 277) % 784) as usize] = 2;
                }
                let flags = zero_windows(&levels, ksize);
                for oy in 0..IMAGE_SIDE {
                    for ox in 0..IMAGE_SIDE {
                        let expect = window_taps(ksize, oy, ox)
                            .all(|(_, px)| px.is_none_or(|p| levels[p] == 0));
                        assert_eq!(flags[oy * 28 + ox], expect, "ksize={ksize} ({oy}, {ox})");
                    }
                }
            }
        }
    }

    // The stored zero-window outputs are a one-entry window cache keyed on
    // the all-level-0 window; the `window_cache_*` tests below pin that
    // cache's contract: bit-exact hits, count-path only, shared by clones.

    #[test]
    fn window_cache_forward_is_bit_exact_and_counts_lookups() {
        // One lit centre pixel and one lit corner pixel leave 25 + 9
        // windows to fold; every other window copies the stored outputs.
        let mut img = vec![0.0f32; 784];
        img[14 * 28 + 14] = 0.8;
        img[0] = 0.5;
        for bits in [4u32, 6] {
            let levels: Vec<usize> = img.iter().map(|&v| pixel_level(v, bits) as usize).collect();
            let hits = zero_windows(&levels, 5).iter().filter(|&&z| z).count();
            assert_eq!(hits, 784 - 25 - 9, "bits={bits}");
            for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
                let ctx = format!("{:?} bits={bits}", preset.adder);
                let engine =
                    StochasticConvLayer::from_conv(&conv(), precision(bits), preset).unwrap();
                let fast = engine.forward_image(&img).unwrap();
                assert_eq!(fast, engine.forward_image_streaming(&img).unwrap(), "{ctx}");
                // Folding every window on the same table gives the same
                // bytes.
                let mut full = engine.clone();
                full.zero_window = None;
                assert_eq!(full.forward_image(&img).unwrap(), fast, "{ctx}");
            }
        }
    }

    #[test]
    fn window_cache_is_bit_exact_under_eviction_churn() {
        // Lit pixels on every 6th row and column: along a row the loop
        // keeps switching between the stored outputs and full folds, so
        // the two paths interleave through one image and one scratch pair.
        let mut img = vec![0.0f32; 784];
        for y in (3..28).step_by(6) {
            for x in (3..28).step_by(6) {
                img[y * 28 + x] = ((y * x) % 7 + 1) as f32 / 8.0;
            }
        }
        let levels: Vec<usize> = img.iter().map(|&v| pixel_level(v, 6) as usize).collect();
        let flags = zero_windows(&levels, 5);
        let switches = flags.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(switches > 100, "only {switches} path switches");
        for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
            let reference = StochasticConvLayer::from_conv(&conv(), precision(6), preset)
                .unwrap()
                .forward_image_streaming(&img)
                .unwrap();
            for width in [LaneWidth::U16, LaneWidth::U32, LaneWidth::U64, LaneWidth::U128] {
                let opts = ScOptions { lane_width: width, ..preset };
                let engine = StochasticConvLayer::from_conv(&conv(), precision(6), opts).unwrap();
                assert!(engine.zero_window.is_some());
                let got = engine.forward_image(&img).unwrap();
                assert_eq!(got, reference, "{:?} width={width}", preset.adder);
            }
        }
    }

    #[test]
    fn window_cache_requires_the_count_path() {
        for preset in [ScOptions::this_work(), ScOptions::old_sc()] {
            let adder = preset.adder;
            // 15-bit streams overflow the 16-bit lanes: no table, no
            // stored outputs.
            let wide = StochasticConvLayer::from_conv(&conv(), precision(15), preset).unwrap();
            assert!(!wide.uses_count_table(), "{adder:?}");
            assert!(wide.zero_window.is_none(), "{adder:?}");
            // A zero bit-error rate is the healthy model and keeps them.
            for fault in [FaultModel::None, FaultModel::BitError(0.0)] {
                let opts = ScOptions { fault, ..preset };
                let engine = StochasticConvLayer::from_conv(&conv(), precision(4), opts).unwrap();
                assert!(engine.zero_window.is_some(), "{adder:?} {fault:?}");
            }
            // A faulted engine keeps the table but always folds.
            let noisy = ScOptions { fault: FaultModel::BitError(0.01), ..preset };
            let engine = StochasticConvLayer::from_conv(&conv(), precision(4), noisy).unwrap();
            assert!(engine.uses_count_table(), "{adder:?}");
            assert!(engine.zero_window.is_none(), "{adder:?}");
        }
        let site = FaultSite::AdderNode { node: 30 };
        let stuck = ScOptions {
            fault: FaultModel::StuckAt { site, value: true },
            ..ScOptions::this_work()
        };
        let engine = StochasticConvLayer::from_conv(&conv(), precision(4), stuck).unwrap();
        assert!(engine.uses_count_table());
        assert!(engine.zero_window.is_none());
    }

    #[test]
    fn clones_share_one_window_cache() {
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::this_work()).unwrap();
        let clone = engine.clone();
        let (a, b) = (engine.zero_window.as_ref().unwrap(), clone.zero_window.as_ref().unwrap());
        assert!(Arc::ptr_eq(a, b), "a clone must not recompute the stored outputs");
        let mut img = vec![0.0f32; 784];
        img[100] = 0.7;
        assert_eq!(clone.forward_image(&img).unwrap(), engine.forward_image(&img).unwrap());
    }

    #[test]
    fn geometric_fault_injection_hits_expected_rate() {
        // Flip count over many stream bits should concentrate near p.
        let opts = ScOptions { fault: FaultModel::BitError(0.05), ..ScOptions::this_work() };
        let engine = StochasticConvLayer::from_conv(&conv(), precision(8), opts).unwrap();
        let clean_opts = ScOptions::this_work();
        let clean_engine =
            StochasticConvLayer::from_conv(&conv(), precision(8), clean_opts).unwrap();
        let img = test_image(5);
        let noisy = engine.pixel_streams(&img).unwrap();
        let clean = clean_engine.pixel_streams(&img).unwrap();
        let mut flips = 0u64;
        for p in 0..img.len() {
            flips += noisy
                .stream(p)
                .iter()
                .zip(clean.stream(p))
                .map(|(a, b)| u64::from((a ^ b).count_ones()))
                .sum::<u64>();
        }
        let total = (img.len() * engine.stream_len()) as f64;
        let rate = flips as f64 / total;
        assert!((rate - 0.05).abs() < 0.01, "observed flip rate {rate}");
    }

    #[test]
    fn zero_rate_bit_error_model_is_bit_exact_with_fault_free() {
        let c = conv();
        let zero = ScOptions { fault: FaultModel::BitError(0.0), ..ScOptions::this_work() };
        let engine = StochasticConvLayer::from_conv(&c, precision(6), zero).unwrap();
        let clean =
            StochasticConvLayer::from_conv(&c, precision(6), ScOptions::this_work()).unwrap();
        assert!(engine.uses_count_table());
        let img = test_image(23);
        let expect = clean.forward_image(&img).unwrap();
        assert_eq!(engine.forward_image(&img).unwrap(), expect);
        // Index-independent too: no plan exists to sample from.
        assert_eq!(engine.forward_image_indexed(&img, 7).unwrap(), expect);
    }

    #[test]
    fn faulted_lut_forward_is_a_function_of_the_image_index() {
        let opts = ScOptions { fault: FaultModel::BitError(0.05), ..ScOptions::this_work() };
        let engine = StochasticConvLayer::from_conv(&conv(), precision(6), opts).unwrap();
        assert!(engine.uses_count_table(), "faulted TFF should stay on the LUT path");
        let img = test_image(11);
        let a = engine.forward_image_indexed(&img, 4).unwrap();
        // Same index → byte-identical realization.
        assert_eq!(a, engine.forward_image_indexed(&img, 4).unwrap());
        // Another index draws another flip set.
        assert_ne!(a, engine.forward_image_indexed(&img, 5).unwrap());
    }

    #[test]
    fn stuck_at_faults_are_bit_exact_across_paths() {
        // Stuck-at faults are deterministic, so the count-domain overrides
        // must reproduce the streaming datapath defect bit for bit.
        let c = conv();
        let img = test_image(19);
        for site in [
            FaultSite::LutTap { tap: 7 },
            FaultSite::LutTap { tap: 24 },
            FaultSite::AdderNode { node: 0 },
            FaultSite::AdderNode { node: 16 },
            FaultSite::AdderNode { node: 30 },
        ] {
            for value in [false, true] {
                let opts = ScOptions {
                    fault: FaultModel::StuckAt { site, value },
                    ..ScOptions::this_work()
                };
                let engine = StochasticConvLayer::from_conv(&c, precision(6), opts).unwrap();
                assert!(engine.uses_count_table());
                assert_eq!(
                    engine.forward_image(&img).unwrap(),
                    engine.forward_image_streaming(&img).unwrap(),
                    "{site} value={value}"
                );
            }
        }
    }

    #[test]
    fn stuck_at_validation_rejects_bad_sites() {
        let c = conv();
        let stuck_at = |site| FaultModel::StuckAt { site, value: true };
        let make = |fault| ScOptions { fault, ..ScOptions::this_work() };
        // Tap out of the 25-tap window.
        let err = StochasticConvLayer::from_conv(
            &c,
            precision(4),
            make(stuck_at(FaultSite::LutTap { tap: 25 })),
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Dead node of the 25-tap fold (the padded tail never folds).
        let err = StochasticConvLayer::from_conv(
            &c,
            precision(4),
            make(stuck_at(FaultSite::AdderNode { node: 13 })),
        )
        .unwrap_err();
        assert!(err.to_string().contains("live"), "{err}");
        assert!(StochasticConvLayer::from_conv(
            &c,
            precision(4),
            make(stuck_at(FaultSite::AdderNode { node: 31 })),
        )
        .is_err());
        // The MUX tree has no count-domain site to pin.
        let mux =
            ScOptions { fault: stuck_at(FaultSite::LutTap { tap: 0 }), ..ScOptions::old_sc() };
        let err = StochasticConvLayer::from_conv(&c, precision(4), mux).unwrap_err();
        assert!(err.to_string().contains("TFF"), "{err}");
        // Malformed rates are rejected up front, NaN included.
        assert!(StochasticConvLayer::from_conv(
            &c,
            precision(4),
            make(FaultModel::BitError(f64::NAN)),
        )
        .is_err());
        assert!(StochasticConvLayer::from_conv(&c, precision(4), make(FaultModel::BitError(1.5)))
            .is_err());
        // A well-formed compound model compiles.
        let compound = FaultModel::Compound {
            ber: 0.01,
            site: FaultSite::AdderNode { node: 30 },
            value: false,
        };
        assert!(StochasticConvLayer::from_conv(&c, precision(4), make(compound)).is_ok());
    }

    #[test]
    fn count_domain_faults_match_streaming_statistics() {
        assert_fault_statistics_match(ScOptions::this_work());
    }

    #[test]
    fn count_domain_mux_faults_match_streaming_statistics() {
        assert_fault_statistics_match(ScOptions::old_sc());
    }

    /// Both fault paths sample Bernoulli(p) per stream bit — flip-count
    /// moments must match the Binomial(784·N, p) law, and the ternary
    /// feature perturbation rate must agree across paths (the two
    /// realizations differ; their statistics must not).
    fn assert_fault_statistics_match(preset: ScOptions) {
        let c = conv();
        for (bits, ber) in [(4u32, 0.1f64), (6, 0.05)] {
            let clean = StochasticConvLayer::from_conv(&c, precision(bits), preset).unwrap();
            let opts = ScOptions { fault: FaultModel::BitError(ber), ..preset };
            let engine = StochasticConvLayer::from_conv(&c, precision(bits), opts).unwrap();
            assert!(engine.uses_count_table(), "{:?}", preset.adder);
            let plan = engine.fault_plan.as_ref().expect("ber > 0 builds a plan");
            let n = engine.stream_len();
            let images = 24u64;
            let (mut lut_flips, mut str_flips) = (Vec::new(), Vec::new());
            let (mut lut_frac, mut str_frac) = (0.0f64, 0.0f64);
            for i in 0..images {
                let img = test_image(i * 17 + 3);
                let levels: Vec<usize> =
                    img.iter().map(|&v| pixel_level(v, bits) as usize).collect();
                lut_flips.push(plan.typed::<u64>().image_faults(&levels, i).flips as f64);
                let noisy = engine.pixel_streams(&img).unwrap();
                let base_streams = clean.pixel_streams(&img).unwrap();
                let flips: u64 = (0..img.len())
                    .map(|p| {
                        noisy
                            .stream(p)
                            .iter()
                            .zip(base_streams.stream(p))
                            .map(|(a, b)| u64::from((a ^ b).count_ones()))
                            .sum::<u64>()
                    })
                    .sum();
                str_flips.push(flips as f64);
                let base = clean.forward_image(&img).unwrap();
                let frac = |out: &[f32]| {
                    out.iter().zip(&base).filter(|(a, b)| (**a - **b).abs() > 0.5).count() as f64
                        / base.len() as f64
                };
                lut_frac += frac(&engine.forward_image_indexed(&img, i).unwrap());
                str_frac += frac(&engine.forward_image_streaming(&img).unwrap());
            }
            let stats = |v: &[f64]| {
                let m = v.iter().sum::<f64>() / v.len() as f64;
                let var = v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
                (m, var)
            };
            let (lm, lv) = stats(&lut_flips);
            let (sm, sv) = stats(&str_flips);
            let expect_mean = 784.0 * n as f64 * ber;
            let expect_var = expect_mean * (1.0 - ber);
            assert!((lm - expect_mean).abs() < 0.05 * expect_mean, "bits={bits} lut mean {lm}");
            assert!((sm - expect_mean).abs() < 0.05 * expect_mean, "bits={bits} str mean {sm}");
            assert!(lv > 0.3 * expect_var && lv < 3.0 * expect_var, "bits={bits} lut var {lv}");
            assert!(sv > 0.3 * expect_var && sv < 3.0 * expect_var, "bits={bits} str var {sv}");
            let (lf, sf) = (lut_frac / images as f64, str_frac / images as f64);
            assert!(lf > 0.0 && sf > 0.0, "bits={bits} lut {lf} streaming {sf}");
            assert!(
                (lf - sf).abs() < 0.25 * lf.max(sf) + 0.01,
                "bits={bits} perturbation rates diverge: lut {lf} vs streaming {sf}"
            );
        }
    }

    #[test]
    fn level_stream_cache_recovers_from_poison() {
        // A worker panicking mid-conversion must not wedge every later
        // pixel conversion: the cache holds only recomputable streams.
        let engine =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::old_sc()).unwrap();
        let cache = Arc::clone(&engine.level_streams);
        let _ = std::thread::spawn(move || {
            let _guard = cache.lock().unwrap();
            panic!("poison the level stream cache");
        })
        .join();
        assert!(engine.level_streams.lock().is_err(), "lock should be poisoned");
        let img = test_image(3);
        let streams = engine.pixel_streams(&img).unwrap();
        assert_eq!(streams.len(), 784);
        // Still correct, not just non-panicking.
        let clean =
            StochasticConvLayer::from_conv(&conv(), precision(4), ScOptions::old_sc()).unwrap();
        assert_eq!(streams, clean.pixel_streams(&img).unwrap());
    }
}
