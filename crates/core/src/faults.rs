//! Count-domain fault injection: the LUT-speed twin of the streaming
//! bit-flip model.
//!
//! The streaming engine injects transient faults by literally flipping
//! pixel-stream bits ([`scnn_sim::fault::inject_bit_errors`]'s Bernoulli
//! model, gap-sampled). That forfeits the count-domain fast path — the
//! AND-count LUT tabulates *healthy* streams. But a flip's effect on every
//! downstream count is itself a pure function of the flipped position:
//! flipping bit `j` of pixel `p`'s stream changes
//! `count(pixel(p) ∧ weight(k, t))` by `±weight_bit(k, t, j)` — `+1` when
//! the healthy bit was 0, `−1` when it was 1, and only where the weight
//! stream has a 1 at `j`. So the engine can gather healthy counts from the
//! LUT and add the flipped bits' **weight-plane rows** instead of touching
//! any stream bits.
//!
//! [`CountFaultPlan`] precomputes, per stream-bit position `j` and tap
//! `t`, the packed per-kernel weight-bit indicator rows (split by weight
//! sign, mirroring [`LevelCountTable::gather`]'s routing). Per image,
//! [`CountFaultPlan::image_faults`] gap-samples each pixel's flip
//! positions — seeded from `(seed, image_index, pixel)`, so the flip set
//! is a pure function of the image *index*, byte-identical for any
//! `SCNN_THREADS` — into a compact flip list. Each `(pixel, tap)` gather
//! then accumulates its flips' plane rows directly: the plane is a few
//! hundred kilobytes and stays cache-hot across the whole image, where a
//! materialized per-pixel delta block would stream megabytes through
//! memory for exactly one use per entry. The faulted count is distributed
//! exactly as `count(flipped_stream ∧ weight)`: the LUT path is
//! statistically indistinguishable from the streaming reference
//! (property-tested moments), it just draws a different deterministic
//! realization. The MUX engine builds its plan from the same route-masked
//! weight streams as its table (`weight ∧ route`), so there a flip at
//! clock `j` shifts a count by `±(weight_bit(j) ∧ route_bit(j))`.
//!
//! Carry-safety: [`ImageFaults::apply`] accumulates a pixel's `0→1` flips
//! (count grows) before its `1→0` flips (count shrinks). Each add keeps a
//! lane at most `healthy + plus ≤ 2N ≤ 65534`, so [`LaneWord::lane_add`]
//! never carries; each subtract then steps the lane down toward the final
//! faulted count, which is a true AND-count and hence non-negative, so
//! every intermediate stays `≥ 0` and [`LaneWord::lane_sub`] never
//! borrows.

use crate::arena::StreamArena;
use crate::counts::{LaneWidth, LaneWord, LevelCountTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Deterministic per-(seed, image, pixel) RNG seed: a SplitMix64-style
/// finalizer over the three coordinates, so neighbouring images and
/// pixels get uncorrelated flip sets while any thread assignment sees the
/// same bytes.
fn fault_seed(seed: u64, image: u64, pixel: u64) -> u64 {
    let mut z = seed
        ^ image.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ pixel.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-engine precomputation for count-domain bit-error injection over one
/// [`LaneWord`]; built at engine construction alongside the count table.
#[derive(Debug, Clone)]
pub(crate) struct CountFaultPlan<W: LaneWord> {
    seed: u64,
    n: usize,
    taps: usize,
    row_words: usize,
    /// `ln(1 − ber)` — the geometric gap sampler's denominator (`−∞` when
    /// `ber == 1`: every gap is 0). Computed via `ln_1p` so denormally
    /// small rates don't round it to 0.
    ln_keep: f64,
    /// The comparator source sequence: bit `j` of a level-`L` pixel stream
    /// is `pixel_seq[j] < L`, which decides each flip's sign.
    pixel_seq: Vec<u64>,
    /// Per `(stream bit j, tap t)`: packed per-kernel weight-bit indicator
    /// rows (lane `k` is 1 where kernel `k`'s weight stream has a 1 at
    /// `j`), the positive-weight row then the negative-weight row, laid
    /// out `(j · taps + t) · 2 · row_words` so one flip touches one
    /// contiguous row pair.
    plane: Vec<W>,
}

impl<W: LaneWord> CountFaultPlan<W> {
    /// Precomputes the weight bit planes; arguments mirror
    /// [`LevelCountTable::build`] plus the fault parameters.
    pub(crate) fn build(
        ber: f64,
        seed: u64,
        pixel_seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Self {
        let n = pixel_seq.len();
        let row_words = lanes.div_ceil(W::LANES);
        let mut plane = vec![W::ZERO; n * taps * 2 * row_words];
        for k in 0..lanes {
            for t in 0..taps {
                let idx = k * taps + t;
                let words = weight_streams.stream(idx);
                let half = usize::from(weight_neg[idx]) * row_words;
                for j in 0..n {
                    if (words[j / 64] >> (j % 64)) & 1 == 1 {
                        plane[(j * taps + t) * 2 * row_words + half + k / W::LANES]
                            .set_lane(k % W::LANES, 1);
                    }
                }
            }
        }
        Self {
            seed,
            n,
            taps,
            row_words,
            ln_keep: (-ber).ln_1p(),
            pixel_seq: pixel_seq.to_vec(),
            plane,
        }
    }

    /// Samples this image's flip set (seeded from `(seed, image_index,
    /// pixel)`) into a per-pixel flip list, `0→1` flips first.
    ///
    /// `levels` holds one quantized comparator level per pixel — the same
    /// values the LUT forward gathers with.
    pub(crate) fn image_faults(&self, levels: &[usize], image_index: u64) -> ImageFaults<'_, W> {
        let mut starts = Vec::with_capacity(levels.len() + 1);
        starts.push(0u32);
        let mut splits = Vec::with_capacity(levels.len());
        let mut bits: Vec<u16> = Vec::new();
        let (mut adds, mut subs): (Vec<u16>, Vec<u16>) = (Vec::new(), Vec::new());
        for (p, &level) in levels.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(fault_seed(self.seed, image_index, p as u64));
            adds.clear();
            subs.clear();
            // Geometric skip-sampling, as in the streaming injector: draw
            // the gap to the next flipped bit directly — the same Bernoulli
            // flip distribution in O(expected flips) per pixel.
            let mut j = 0usize;
            loop {
                let u: f64 = rng.gen();
                let gap = ((1.0 - u).ln() / self.ln_keep).floor();
                if gap >= (self.n - j) as f64 {
                    break;
                }
                j += gap as usize;
                // A healthy 1 flips to 0 (counts shrink where the weight
                // samples bit j), a healthy 0 flips to 1 (counts grow).
                if self.pixel_seq[j] < level as u64 {
                    subs.push(j as u16);
                } else {
                    adds.push(j as u16);
                }
                j += 1;
            }
            bits.extend_from_slice(&adds);
            splits.push(bits.len() as u32);
            bits.extend_from_slice(&subs);
            starts.push(bits.len() as u32);
        }
        let flips = bits.len() as u64;
        ImageFaults { plan: self, starts, splits, bits, flips }
    }
}

/// One image's sampled flip set: per pixel, the flipped stream-bit
/// positions (`0→1` flips first, then `1→0` — the order
/// [`apply`](Self::apply)'s carry-safety argument needs), resolved against
/// the plan's cache-hot weight planes at gather time.
#[derive(Debug)]
pub(crate) struct ImageFaults<'a, W: LaneWord> {
    plan: &'a CountFaultPlan<W>,
    /// Per pixel: start offset of its flips in `bits` (one trailing end).
    starts: Vec<u32>,
    /// Per pixel: offset where its `1→0` flips begin.
    splits: Vec<u32>,
    /// Flipped bit positions, grouped per pixel.
    bits: Vec<u16>,
    /// Total flips sampled (the `fault/injected` counter's increment).
    pub(crate) flips: u64,
}

impl<W: LaneWord> ImageFaults<'_, W> {
    /// Perturbs one gathered `(pixel, tap)` row pair in place. A pixel
    /// without flips is two indexed loads — the common case at small
    /// bit-error rates.
    #[inline]
    pub(crate) fn apply(&self, pixel: usize, tap: usize, pos: &mut [W], neg: &mut [W]) {
        let start = self.starts[pixel] as usize;
        let end = self.starts[pixel + 1] as usize;
        if start == end {
            return;
        }
        let split = self.splits[pixel] as usize;
        let rw = self.plan.row_words;
        let taps = self.plan.taps;
        for &j in &self.bits[start..split] {
            let row = &self.plan.plane[(j as usize * taps + tap) * 2 * rw..][..2 * rw];
            for w in 0..rw {
                pos[w] = pos[w].lane_add(row[w]);
                neg[w] = neg[w].lane_add(row[rw + w]);
            }
        }
        for &j in &self.bits[split..end] {
            let row = &self.plan.plane[(j as usize * taps + tap) * 2 * rw..][..2 * rw];
            for w in 0..rw {
                pos[w] = pos[w].lane_sub(row[w]);
                neg[w] = neg[w].lane_sub(row[rw + w]);
            }
        }
    }
}

/// A [`CountFaultPlan`] of runtime-selected [`LaneWidth`], mirroring
/// [`AnyLevelCountTable`](crate::counts::AnyLevelCountTable): the engine
/// builds the plan with its table's width and recovers the typed plan
/// inside each monomorphized forward.
#[derive(Debug, Clone)]
pub(crate) enum AnyCountFaultPlan {
    U16(CountFaultPlan<u16>),
    U32(CountFaultPlan<u32>),
    U64(CountFaultPlan<u64>),
    U128(CountFaultPlan<u128>),
}

impl AnyCountFaultPlan {
    /// Builds a plan of the given width ([`LaneWidth::Auto`] resolves as
    /// for the table); arguments as in [`CountFaultPlan::build`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        width: LaneWidth,
        ber: f64,
        seed: u64,
        pixel_seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Self {
        match width.resolve() {
            LaneWidth::U16 => Self::U16(CountFaultPlan::build(
                ber,
                seed,
                pixel_seq,
                weight_streams,
                weight_neg,
                taps,
                lanes,
            )),
            LaneWidth::U32 => Self::U32(CountFaultPlan::build(
                ber,
                seed,
                pixel_seq,
                weight_streams,
                weight_neg,
                taps,
                lanes,
            )),
            LaneWidth::U64 => Self::U64(CountFaultPlan::build(
                ber,
                seed,
                pixel_seq,
                weight_streams,
                weight_neg,
                taps,
                lanes,
            )),
            LaneWidth::U128 => Self::U128(CountFaultPlan::build(
                ber,
                seed,
                pixel_seq,
                weight_streams,
                weight_neg,
                taps,
                lanes,
            )),
            LaneWidth::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// The typed plan for the monomorphized forward; the engine guarantees
    /// the plan was built with the table's width.
    pub(crate) fn typed<W: LaneWord>(&self) -> &CountFaultPlan<W> {
        let any: &dyn Any = match self {
            Self::U16(p) => p,
            Self::U32(p) => p,
            Self::U64(p) => p,
            Self::U128(p) => p,
        };
        any.downcast_ref().expect("fault plan width matches the table width")
    }
}

/// Applies the faulted gather for one `(pixel, tap)`: healthy LUT gather
/// plus this image's delta rows. Factored here so the engine's window loop
/// stays one call.
#[inline]
pub(crate) fn gather_faulted<W: LaneWord>(
    lut: &LevelCountTable<W>,
    faults: &ImageFaults<'_, W>,
    level: usize,
    pixel: usize,
    tap: usize,
    pos: &mut [W],
    neg: &mut [W],
) {
    lut.gather(level, tap, pos, neg);
    faults.apply(pixel, tap, pos, neg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::SourceKind;

    /// A small conv-like fixture: `taps` weight streams per kernel lane.
    fn fixture(
        bits: u32,
        taps: usize,
        lanes: usize,
    ) -> (Vec<u64>, StreamArena, Vec<bool>, LevelCountTable<u64>) {
        let n = 1usize << bits;
        let pixel_seq = SourceKind::Ramp.sequence(bits, n, 1).unwrap();
        let weight_seq = SourceKind::Sobol2.sequence(bits, n, 7).unwrap();
        let mut weights = StreamArena::new(taps * lanes, n).unwrap();
        let mut neg = vec![false; taps * lanes];
        for (i, sign) in neg.iter_mut().enumerate() {
            weights.write_from_levels(i, &weight_seq, (i as u64 * 3 + 1) % (n as u64));
            *sign = i % 4 == 2;
        }
        let table = LevelCountTable::<u64>::build(&pixel_seq, &weights, &neg, taps, lanes).unwrap();
        (pixel_seq, weights, neg, table)
    }

    /// Replays the plan's per-pixel sampler: the flip positions of
    /// `(seed, image, pixel)` over `n` bits at rate `ber`.
    fn reference_flips(seed: u64, image: u64, pixel: u64, n: usize, ber: f64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(fault_seed(seed, image, pixel));
        let ln_keep = (-ber).ln_1p();
        let mut out = Vec::new();
        let mut j = 0usize;
        loop {
            let u: f64 = rng.gen();
            let gap = ((1.0 - u).ln() / ln_keep).floor();
            if gap >= (n - j) as f64 {
                return out;
            }
            j += gap as usize;
            out.push(j);
            j += 1;
        }
    }

    #[test]
    fn deltas_equal_counts_of_literally_flipped_streams() {
        // The plan's perturbed counts must equal popcount(flipped ∧ weight)
        // exactly, for every (pixel, tap, kernel) — the defining identity
        // of the count-domain model.
        let (bits, taps, lanes) = (5u32, 3usize, 6usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, table) = fixture(bits, taps, lanes);
        let (ber, seed) = (0.2f64, 99u64);
        let plan = CountFaultPlan::<u64>::build(ber, seed, &pixel_seq, &weights, &neg, taps, lanes);
        // Pretend a `taps`-pixel image where window tap t reads pixel t.
        let levels: Vec<usize> = (0..taps).map(|p| (p * 11 + 3) % (n + 1)).collect();
        for image in 0..8u64 {
            let faults = plan.image_faults(&levels, image);
            let rw = table.row_words();
            for (p, &level) in levels.iter().enumerate() {
                // Literal flipped stream of pixel p.
                let flips = reference_flips(seed, image, p as u64, n, ber);
                let mut stream: Vec<bool> = (0..n).map(|j| pixel_seq[j] < level as u64).collect();
                for &j in &flips {
                    stream[j] = !stream[j];
                }
                let mut pos = vec![0u64; rw];
                let mut neg_row = vec![0u64; rw];
                gather_faulted(&table, &faults, level, p, p, &mut pos, &mut neg_row);
                for k in 0..lanes {
                    let idx = k * taps + p;
                    let words = weights.stream(idx);
                    let want: u16 = (0..n)
                        .filter(|&j| stream[j] && (words[j / 64] >> (j % 64)) & 1 == 1)
                        .count() as u16;
                    let got =
                        if neg[idx] { neg_row[k / 4].lane(k % 4) } else { pos[k / 4].lane(k % 4) };
                    assert_eq!(got, want, "image={image} pixel={p} kernel={k}");
                    // And the other tree's lane stays untouched.
                    let other =
                        if neg[idx] { pos[k / 4].lane(k % 4) } else { neg_row[k / 4].lane(k % 4) };
                    assert_eq!(other, 0, "image={image} pixel={p} kernel={k}");
                }
            }
        }
    }

    #[test]
    fn flip_sets_depend_on_image_index_not_thread_or_order() {
        let (bits, taps, lanes) = (4u32, 3usize, 2usize);
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::<u64>::build(0.3, 5, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![3usize; taps];
        let a = plan.image_faults(&levels, 12);
        let b = plan.image_faults(&levels, 12);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.splits, b.splits);
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.flips, b.flips);
        let c = plan.image_faults(&levels, 13);
        assert_ne!((c.flips, c.bits.clone()), (a.flips, a.bits.clone()));
    }

    #[test]
    fn flip_lists_group_adds_before_subs() {
        // apply()'s no-borrow argument needs every pixel's 0→1 flips ahead
        // of its 1→0 flips; check the layout against the comparator rule.
        let (bits, taps, lanes) = (6u32, 2usize, 1usize);
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::<u64>::build(0.4, 21, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![40usize, 9];
        let faults = plan.image_faults(&levels, 3);
        for (p, &level) in levels.iter().enumerate() {
            let (start, split, end) = (
                faults.starts[p] as usize,
                faults.splits[p] as usize,
                faults.starts[p + 1] as usize,
            );
            for &j in &faults.bits[start..split] {
                assert!(pixel_seq[j as usize] >= level as u64, "add flip must be a healthy 0");
            }
            for &j in &faults.bits[split..end] {
                assert!(pixel_seq[j as usize] < level as u64, "sub flip must be a healthy 1");
            }
        }
    }

    #[test]
    fn sampled_flip_rate_concentrates_near_ber() {
        let (bits, taps, lanes) = (8u32, 2usize, 1usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        for ber in [0.02f64, 0.1, 0.5] {
            let plan =
                CountFaultPlan::<u64>::build(ber, 11, &pixel_seq, &weights, &neg, taps, lanes);
            let levels = vec![7usize; 64]; // 64 "pixels" per image
            let mut flips = 0u64;
            let images = 40u64;
            for image in 0..images {
                flips += plan.image_faults(&levels, image).flips;
            }
            let total = (images as usize * levels.len() * n) as f64;
            let rate = flips as f64 / total;
            assert!((rate - ber).abs() < 0.15 * ber + 0.002, "ber={ber} observed {rate}");
        }
    }

    #[test]
    fn ber_one_flips_every_bit() {
        let (bits, taps, lanes) = (4u32, 2usize, 1usize);
        let n = 1usize << bits;
        let (pixel_seq, weights, neg, _table) = fixture(bits, taps, lanes);
        let plan = CountFaultPlan::<u64>::build(1.0, 3, &pixel_seq, &weights, &neg, taps, lanes);
        let levels = vec![5usize; taps];
        let faults = plan.image_faults(&levels, 0);
        assert_eq!(faults.flips, (taps * n) as u64);
    }
}
