//! The benchmark's seeded input generator.
//!
//! Frames come from the library's procedural digit generator
//! (`scnn_nn::data::synthetic`), but the benchmark owns the seeding: every
//! block of frames is drawn from a seed mixed from the run's `--seed`, a
//! stream tag and a block index, and never from the seeds of the fixed
//! calibration splits the base model is trained and scored on. Each block is
//! generated once and handed to the engines, so no frame is replayed.

use scnn_nn::data::{synthetic, Dataset};
use scnn_nn::quant::pixel_level;

/// Seed of the fixed training split of the base model. Independent of
/// `--seed`, so every run trains the same model.
pub const TRAIN_SEED: u64 = 0x7472_6169_6e00_0001;
/// Seed of the fixed test split that `misclass_pct` is scored on.
pub const TEST_SEED: u64 = 0x7465_7374_0000_0002;

/// Pixels below this value are background in a zero-background frame. It
/// sits above the generator's largest pixel-noise amplitude (0.05), so
/// clamping removes all background noise and leaves the strokes.
pub const BACKGROUND_CUTOFF: f32 = 0.06;

const SIDE: usize = 28;
const KSIZE: usize = 5;

/// How a frame's background looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Background {
    /// As generated: small random noise on every pixel.
    Noisy,
    /// Noise below [`BACKGROUND_CUTOFF`] clamped to exactly 0, like MNIST.
    Zero,
}

impl Background {
    /// Applies the background model to every pixel of `ds`.
    pub fn apply(self, ds: Dataset) -> Dataset {
        match self {
            Background::Noisy => ds,
            Background::Zero => {
                let mut data = Vec::with_capacity(ds.len() * ds.item_len());
                for i in 0..ds.len() {
                    data.extend(
                        ds.item(i).iter().map(|&v| if v < BACKGROUND_CUTOFF { 0.0 } else { v }),
                    );
                }
                Dataset::new(data, ds.item_shape(), ds.labels().to_vec())
                    .expect("same shape and labels as the input")
            }
        }
    }
}

/// What a block of frames is drawn for. Each purpose has its own seed
/// stream, so blocks drawn for different phases never coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Frames evaluated in the throughput phase.
    Throughput,
    /// Frames classified one at a time in the latency phase.
    Latency,
    /// Frames the output checks run on.
    Check,
    /// Frames of the traced per-layer run.
    Profile,
}

/// The seeded frame source of one run.
#[derive(Debug, Clone, Copy)]
pub struct Frames {
    seed: u64,
    background: Background,
}

impl Frames {
    /// A frame source for run seed `seed`.
    pub fn new(seed: u64, background: Background) -> Self {
        Self { seed, background }
    }

    /// The generator seed of block `index` of `stream`. Never equal to
    /// [`TRAIN_SEED`] or [`TEST_SEED`].
    pub fn block_seed(&self, stream: Stream, index: u64) -> u64 {
        let mut s = splitmix(self.seed ^ splitmix(stream as u64 ^ splitmix(index)));
        while s == TRAIN_SEED || s == TEST_SEED {
            s = splitmix(s);
        }
        s
    }

    /// `count` unseen labelled frames: block `index` of `stream`.
    pub fn block(&self, stream: Stream, index: u64, count: usize) -> Dataset {
        self.background.apply(synthetic::generate(count, self.block_seed(stream, index)))
    }

    /// The fixed calibration splits: `train` noisy training frames and
    /// `test` test frames under this source's background model.
    pub fn calibration(&self, train: usize, test: usize) -> (Dataset, Dataset) {
        let train = synthetic::generate(train, TRAIN_SEED);
        let test = self.background.apply(synthetic::generate(test, TEST_SEED));
        (train, test)
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Share of the 5×5 windows (one per output pixel, "same" padding) of the
/// frames in `ds` whose in-image pixels all quantize to level 0 at `bits`.
pub fn zero_window_frac(ds: &Dataset, bits: u32) -> f64 {
    let half = KSIZE / 2;
    let mut zero = 0usize;
    for i in 0..ds.len() {
        let levels: Vec<u64> = ds.item(i).iter().map(|&v| pixel_level(v, bits)).collect();
        for oy in 0..SIDE {
            for ox in 0..SIDE {
                let rows = oy.saturating_sub(half)..(oy + half + 1).min(SIDE);
                let all_zero = rows.into_iter().all(|y| {
                    let cols = ox.saturating_sub(half)..(ox + half + 1).min(SIDE);
                    levels[y * SIDE + cols.start..y * SIDE + cols.end].iter().all(|&l| l == 0)
                });
                zero += usize::from(all_zero);
            }
        }
    }
    zero as f64 / (ds.len() * SIDE * SIDE).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_frames() {
        for background in [Background::Noisy, Background::Zero] {
            let a = Frames::new(7, background);
            let b = Frames::new(7, background);
            assert_eq!(a.block(Stream::Throughput, 3, 12), b.block(Stream::Throughput, 3, 12));
            assert_eq!(a.calibration(10, 10), b.calibration(10, 10));
        }
    }

    #[test]
    fn seeds_streams_and_blocks_give_different_frames() {
        let a = Frames::new(1, Background::Noisy);
        let b = Frames::new(2, Background::Noisy);
        let block = a.block(Stream::Throughput, 0, 8);
        assert_ne!(block, b.block(Stream::Throughput, 0, 8));
        assert_ne!(block, a.block(Stream::Latency, 0, 8));
        assert_ne!(block, a.block(Stream::Throughput, 1, 8));
    }

    #[test]
    fn calibration_splits_do_not_depend_on_the_run_seed() {
        let (train_a, test_a) = Frames::new(1, Background::Noisy).calibration(10, 10);
        let (train_b, test_b) = Frames::new(99, Background::Noisy).calibration(10, 10);
        assert_eq!(train_a, train_b);
        assert_eq!(test_a, test_b);
    }

    #[test]
    fn block_seeds_avoid_the_calibration_seeds() {
        for seed in 0..64 {
            let frames = Frames::new(seed, Background::Noisy);
            for stream in [Stream::Throughput, Stream::Latency, Stream::Check, Stream::Profile] {
                for index in 0..64 {
                    let s = frames.block_seed(stream, index);
                    assert!(s != TRAIN_SEED && s != TEST_SEED);
                }
            }
        }
    }

    #[test]
    fn zero_background_clamps_only_the_background() {
        let noisy = Frames::new(5, Background::Noisy).block(Stream::Check, 0, 6);
        let zero = Background::Zero.apply(noisy.clone());
        assert_eq!(zero.labels(), noisy.labels());
        for i in 0..noisy.len() {
            for (&n, &z) in noisy.item(i).iter().zip(zero.item(i)) {
                if n < BACKGROUND_CUTOFF {
                    assert_eq!(z, 0.0);
                } else {
                    assert_eq!(z, n);
                }
            }
        }
        for bits in [4, 6, 8] {
            assert!(zero_window_frac(&zero, bits) > zero_window_frac(&noisy, bits));
        }
    }

    #[test]
    fn zero_window_frac_of_constant_frames() {
        let blank = Dataset::new(vec![0.0; 2 * SIDE * SIDE], &[1, SIDE, SIDE], vec![0, 1]).unwrap();
        assert_eq!(zero_window_frac(&blank, 8), 1.0);
        let lit = Dataset::new(vec![1.0; SIDE * SIDE], &[1, SIDE, SIDE], vec![0]).unwrap();
        assert_eq!(zero_window_frac(&lit, 4), 0.0);
        // One lit pixel in a corner darkens exactly the windows covering it:
        // a 3×3 block of output positions.
        let mut data = vec![0.0; SIDE * SIDE];
        data[0] = 1.0;
        let corner = Dataset::new(data, &[1, SIDE, SIDE], vec![0]).unwrap();
        let expect = 1.0 - 9.0 / (SIDE * SIDE) as f64;
        assert!((zero_window_frac(&corner, 8) - expect).abs() < 1e-12);
    }
}
