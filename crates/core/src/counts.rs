//! The shared count-domain engine core, generic over the lane word.
//!
//! Every adder-tree datapath in this workspace consumes bit streams only
//! through `count(a ∧ b [∧ mask])`. The closed form of the TFF adder
//! ([`scnn_sim::TffAdder::add_count`]) makes a TFF tree a pure function of
//! its leaf 1-counts. A MUX tree with fixed select streams routes every
//! clock to exactly one leaf, so its output count is the plain sum of the
//! leaf counts masked by each leaf's route. That one observation powers
//! every engine:
//!
//! * [`LevelCountTable`] — the level-indexed AND-count LUT. A comparator
//!   SNG's output is a deterministic function of its input level, so
//!   against a fixed source sequence a stream takes at most `2^b + 1`
//!   distinct patterns; pre-counting `count(stream(level) ∧ weight)` for
//!   every (level, weight) pair turns a whole multiply-and-count datapath
//!   into a table gather. Used by the convolution engine (TFF weights as
//!   they are, MUX weights pre-masked with their leaf's route) and the
//!   dense engine's unipolar mode (the same counting identity Hirtzlin
//!   et al. apply to fully-connected SC layers).
//! * [`LaneTree`] — reduces one adder tree for many output lanes at once
//!   (all kernels of a conv window, all neurons of a dense layer):
//!   [`fold`](LaneTree::fold) is bit-exact with
//!   [`scnn_sim::TffAdderTree::fold_counts`] per lane, and
//!   [`sum`](LaneTree::sum) is the MUX tree's lane-wise routed sum.
//! * [`LevelStreamCache`] — stream-level dedup for the bit-level reference
//!   paths: one comparator conversion per *distinct* level.
//! * All-zero windows — a comparator SNG never emits a 1 at level 0, so
//!   every level-0 row of a [`LevelCountTable`]
//!   ([`level_is_zero`](LevelCountTable::level_is_zero)) is zero; the
//!   fault-free conv engine reduces the all-level-0 window once at
//!   construction and copies its outputs wherever it recurs (see
//!   [`StochasticConvLayer`](crate::StochasticConvLayer)).
//!
//! # Lane words
//!
//! Both count structures are generic over a [`LaneWord`] `W` — a packed
//! machine word of 16-bit count lanes, modeled on `hi_sparse_bitset`'s
//! `BitBlock` trait over generic words. `u16` carries one lane (the
//! original engine), `u32` two, `u64` four and `u128` eight, so one fold
//! implementation serves 4–8× wider words: every per-node
//! `(x + y + S0) >> 1` then retires that many lanes per instruction. The
//! default word is `u16` for source compatibility; the engines resolve
//! [`LaneWidth::Auto`] to `u64`, the widest natively-arithmetic word.
//!
//! Two further wastes of the original `u16` engine are gone in the same
//! rewrite: [`LaneTree::fold`] walks only the **live prefix** of each tree
//! level (the padded tail above `taps` is all-zero by construction — ~20 %
//! of the nodes at 784 taps), and the per-call `entry`/`scratch` buffers
//! are checked out of a per-thread [`ScratchPool`] instead of being
//! reallocated by every `forward`.
//!
//! # Example: count a dot product through the table
//!
//! ```
//! use scnn_core::counts::{LaneTree, LevelCountTable};
//! use scnn_core::{SourceKind, StreamArena};
//! use scnn_sim::S0Policy;
//!
//! # fn main() -> Result<(), scnn_core::Error> {
//! let n = 16; // 4-bit streams
//! let seq = SourceKind::Ramp.sequence(4, n, 1)?;
//! // Two lanes × three taps of weight streams, lane-major.
//! let mut weights = StreamArena::new(2 * 3, n)?;
//! for i in 0..6 {
//!     weights.write_from_levels(i, &seq, (i as u64 * 3) % 17);
//! }
//! let neg = vec![false, true, false, true, false, true];
//! // Both lanes fit one u64 word; the fold retires them per instruction.
//! let table = LevelCountTable::<u64>::build(&seq, &weights, &neg, 3, 2)?;
//! let mut pos = LaneTree::<u64>::new(3, 2, S0Policy::Alternating, n)?;
//! let mut neg_tree = LaneTree::<u64>::new(3, 2, S0Policy::Alternating, n)?;
//! for tap in 0..3 {
//!     table.gather(9, tap, pos.tap_lanes_mut(tap), neg_tree.tap_lanes_mut(tap));
//! }
//! pos.fold();
//! // One scaled sum per logical lane, extracted from the packed root.
//! let (lane0, lane1) = (pos.root_lane(0), pos.root_lane(1));
//! assert!(u64::from(lane0.max(lane1)) <= 16);
//! # Ok(())
//! # }
//! ```

use crate::arena::{and_count, StreamArena};
use crate::Error;
use scnn_sim::S0Policy;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Upper bound on AND-count table entries (`(2^b + 1) · taps · lanes`);
/// configurations above it fall back to the streaming engines.
pub const MAX_LUT_ENTRIES: usize = 1 << 24;

/// Trees kept per word width in each thread's [`ScratchPool`]; checkouts
/// beyond the cap simply allocate and are dropped on return.
const POOL_CAP: usize = 8;

mod sealed {
    /// Seals [`LaneWord`](super::LaneWord): the fold's cross-lane carry
    /// argument is only audited for the four packed words implemented
    /// here, so foreign impls are not accepted.
    pub trait Sealed {}
}

/// A packed machine word of 16-bit count lanes — the unit the generic
/// count-domain fold operates on.
///
/// Modeled on `hi_sparse_bitset`'s `BitBlock` trait over generic words:
/// the same fold implementation runs over `u16` (one lane), `u32` (two),
/// `u64` (four) and `u128` (eight lanes). The trait is **sealed** — the
/// per-node arithmetic below is only sound under the lane-ceiling
/// invariant these four impls enforce.
///
/// # The in-lane widening argument
///
/// A TFF tree node computes `(x + y + S0) >> 1` per lane. With every leaf
/// count at most [`MAX_LEAF_COUNT`](Self::MAX_LEAF_COUNT) `= 32767`, the
/// transient `x + y + S0 ≤ 65535` still fits the 16-bit lane, so the
/// word-wide add never carries across a lane boundary — the widening add
/// stays in-lane and one `wrapping_add` retires [`LANES`](Self::LANES)
/// nodes. The shift leaks each lane's LSB into its lower neighbour's MSB;
/// masking with per-lane `0x7FFF` restores exactness because the true
/// result `≤ 32767` needs only 15 bits. [`LaneTree::new`] rejects
/// configurations whose declared maximum leaf count breaks the invariant.
///
/// # Example
///
/// ```
/// use scnn_core::counts::LaneWord;
///
/// let mut w = <u64 as LaneWord>::splat(9);
/// assert_eq!(<u64 as LaneWord>::LANES, 4);
/// assert_eq!(w.lane(3), 9);
/// w.set_lane(1, 700);
/// assert_eq!(w.lane(1), 700);
/// // One instruction folds all four lanes: (9 + 9 + 1) >> 1 = 9.
/// let folded = <u64 as LaneWord>::tff_node(w, w, true);
/// assert_eq!(folded.lane(0), 9);
/// assert_eq!(folded.lane(1), 700);
/// ```
pub trait LaneWord:
    sealed::Sealed + Copy + PartialEq + Eq + fmt::Debug + Send + Sync + 'static
{
    /// The all-zero word (every lane count 0).
    const ZERO: Self;
    /// Number of 16-bit count lanes packed in one word.
    const LANES: usize;
    /// Largest leaf count a lane may carry without the fold's transient
    /// `2·count + 1` overflowing the lane: `(2¹⁶ − 1 − 1) / 2 = 32767`,
    /// i.e. streams of 14-bit precision and under.
    const MAX_LEAF_COUNT: u16;
    /// The [`LaneWidth`] tag naming this word.
    const WIDTH: LaneWidth;
    #[doc(hidden)]
    const ONES: Self;
    #[doc(hidden)]
    const HALF_MASK: Self;
    #[doc(hidden)]
    const TOP_BITS: Self;

    /// Broadcasts one count into every lane.
    fn splat(count: u16) -> Self;
    /// Reads lane `lane` (0-based from the least significant end).
    fn lane(self, lane: usize) -> u16;
    /// Writes lane `lane`.
    fn set_lane(&mut self, lane: usize, count: u16);
    /// One TFF adder node, all lanes at once: per lane
    /// `(x + y + S0) >> 1` — exactly [`scnn_sim::TffAdder::add_count`]
    /// for both rounding directions.
    fn tff_node(x: Self, y: Self, s0: bool) -> Self;
    /// Lane-wise AND (used with all-ones/all-zero lane masks).
    fn and(self, mask: Self) -> Self;
    /// Lane-wise subtraction; the caller guarantees `rhs ≤ self` in every
    /// lane, so no borrow crosses a lane boundary.
    fn lane_sub(self, rhs: Self) -> Self;
    /// Lane-wise addition; the caller guarantees `self + rhs < 2¹⁶` in
    /// every lane, so no carry crosses a lane boundary. The count-domain
    /// fault injector relies on this with both sides ≤ the stream length
    /// `N ≤ 32767`.
    fn lane_add(self, rhs: Self) -> Self;
    #[doc(hidden)]
    fn pool_bucket(pool: &mut ScratchPool) -> &mut Vec<LaneTree<Self>>;
}

macro_rules! impl_lane_word {
    ($ty:ty, $width:expr, $bucket:ident) => {
        impl sealed::Sealed for $ty {}

        impl LaneWord for $ty {
            const ZERO: Self = 0;
            const LANES: usize = std::mem::size_of::<$ty>() / 2;
            const MAX_LEAF_COUNT: u16 = (u16::MAX - 1) / 2;
            const WIDTH: LaneWidth = $width;
            // 0x0001_0001…: one set bit per 16-bit lane.
            const ONES: Self = <$ty>::MAX / 0xFFFF;
            const HALF_MASK: Self = Self::ONES.wrapping_mul(0x7FFF);
            const TOP_BITS: Self = Self::ONES.wrapping_mul(0x8000);

            #[inline]
            fn splat(count: u16) -> Self {
                Self::ONES.wrapping_mul(count as $ty)
            }

            #[inline]
            fn lane(self, lane: usize) -> u16 {
                debug_assert!(lane < Self::LANES, "lane index out of range");
                (self >> (lane * 16)) as u16
            }

            #[inline]
            fn set_lane(&mut self, lane: usize, count: u16) {
                debug_assert!(lane < Self::LANES, "lane index out of range");
                let shift = lane * 16;
                *self = (*self & !((0xFFFF as $ty) << shift)) | ((count as $ty) << shift);
            }

            #[inline]
            fn tff_node(x: Self, y: Self, s0: bool) -> Self {
                let carry_in = if s0 { Self::ONES } else { 0 };
                let sum = x.wrapping_add(y).wrapping_add(carry_in);
                (sum >> 1) & Self::HALF_MASK
            }

            #[inline]
            fn and(self, mask: Self) -> Self {
                self & mask
            }

            #[inline]
            fn lane_sub(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }

            #[inline]
            fn lane_add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }

            fn pool_bucket(pool: &mut ScratchPool) -> &mut Vec<LaneTree<Self>> {
                &mut pool.$bucket
            }
        }
    };
}

impl_lane_word!(u16, LaneWidth::U16, trees_u16);
impl_lane_word!(u32, LaneWidth::U32, trees_u32);
impl_lane_word!(u64, LaneWidth::U64, trees_u64);
impl_lane_word!(u128, LaneWidth::U128, trees_u128);

/// Which [`LaneWord`] a count-domain engine folds with.
///
/// `Auto` (the default, and what every [`ScenarioSpec`](crate::ScenarioSpec)
/// preset uses) resolves to `u64` — the widest word with native single-
/// instruction arithmetic — whenever the count table is available, and
/// falls back to the streaming engines otherwise. The explicit widths pin
/// the word and turn the silent fallback into a configuration error, which
/// is what benches and width-sweep experiments want.
///
/// Every width packs **16-bit lanes**, so they share one count ceiling
/// ([`LaneWord::MAX_LEAF_COUNT`]): a precision whose stream length exceeds
/// it (15- and 16-bit streams) can overflow a lane and is rejected at
/// validation rather than wrapped at runtime.
///
/// # Example
///
/// ```
/// use scnn_core::counts::LaneWidth;
///
/// assert_eq!(LaneWidth::Auto.resolve(), LaneWidth::U64);
/// assert_eq!(LaneWidth::U128.lanes_per_word(), 8);
/// // 8-bit streams (256 counts) fit every width…
/// assert!(LaneWidth::U32.supports_counts_to(256));
/// // …16-bit streams overflow the shared 16-bit lane ceiling.
/// assert!(!LaneWidth::U32.supports_counts_to(1 << 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum LaneWidth {
    /// Let the engine pick: `u64` when the count-domain path is available.
    #[default]
    Auto,
    /// One 16-bit lane per word — the original scalar engine.
    U16,
    /// Two lanes per `u32` word.
    U32,
    /// Four lanes per `u64` word (what `Auto` resolves to).
    U64,
    /// Eight lanes per `u128` word (two-word synthesized arithmetic on
    /// 64-bit targets, but half the memory traffic per lane).
    U128,
}

impl LaneWidth {
    /// The concrete width `Auto` stands for.
    pub fn resolve(self) -> LaneWidth {
        match self {
            LaneWidth::Auto => LaneWidth::U64,
            other => other,
        }
    }

    /// 16-bit lanes per word of the resolved width.
    pub fn lanes_per_word(self) -> usize {
        match self.resolve() {
            LaneWidth::U16 => 1,
            LaneWidth::U32 => 2,
            LaneWidth::U64 => 4,
            LaneWidth::U128 => 8,
            LaneWidth::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Short lower-case name (`"auto"`, `"u16"`, …) used in bench keys and
    /// error messages.
    pub fn name(self) -> &'static str {
        match self {
            LaneWidth::Auto => "auto",
            LaneWidth::U16 => "u16",
            LaneWidth::U32 => "u32",
            LaneWidth::U64 => "u64",
            LaneWidth::U128 => "u128",
        }
    }

    /// Whether leaf counts up to `max_leaf_count` fit this width's 16-bit
    /// lanes without the fold's transient overflowing
    /// ([`LaneWord::MAX_LEAF_COUNT`]).
    pub fn supports_counts_to(self, max_leaf_count: usize) -> bool {
        max_leaf_count <= usize::from((u16::MAX - 1) / 2)
    }
}

impl fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a level table for `n`-bit streams over `taps × lanes` weights
/// fits the memory budget *and* the 16-bit lane arithmetic (the fold's
/// transient `2n + 1` must fit a lane — the same bound for every
/// [`LaneWidth`]).
pub fn table_fits(n: usize, taps: usize, lanes: usize) -> bool {
    2 * n < usize::from(u16::MAX)
        && (n + 1).saturating_mul(taps.saturating_mul(lanes)) <= MAX_LUT_ENTRIES
}

/// Rounds a row count up to the next even number — the fold always reads
/// whole pairs, so every buffer keeps one zero row beyond an odd live
/// prefix.
fn round_even(rows: usize) -> usize {
    rows + (rows & 1)
}

/// A level-indexed AND-count table with positive/negative lane masks,
/// packed in [`LaneWord`]s.
///
/// Layout: `count(stream(level) ∧ weight(lane, tap))` is stored tap-major
/// at `[level][tap][lane]`, each tap row packed into
/// `lanes.div_ceil(W::LANES)` words so one tap's [`gather`](Self::gather)
/// reads a contiguous word row shared by every lane. Weight streams and
/// signs are supplied **lane-major** (`lane · taps + tap`), the natural
/// layout of both the convolution engine (`kernel · ksize² + tap`) and the
/// dense engine (`neuron · in_features + input`).
///
/// The default word is `u16` — the pre-generic layout; the engines build
/// wider tables through [`AnyLevelCountTable`].
#[derive(Debug, Clone)]
pub struct LevelCountTable<W: LaneWord = u16> {
    taps: usize,
    lanes: usize,
    /// Packed words per tap row: `lanes.div_ceil(W::LANES)`.
    row_words: usize,
    /// `(n + 1) × taps × row_words` packed counts.
    lut: Vec<W>,
    /// Per-`(tap, lane)` mask word row: lane all-ones where the weight
    /// feeds the positive tree, all-zero where it feeds the negative.
    pos_mask: Vec<W>,
}

impl<W: LaneWord> LevelCountTable<W> {
    /// Whether a table for `n`-bit streams over `taps × lanes` weights
    /// fits the budget — see [`table_fits`].
    pub fn fits(n: usize, taps: usize, lanes: usize) -> bool {
        table_fits(n, taps, lanes)
    }

    /// Builds the table by enumerating every comparator level of `seq`
    /// against every weight stream.
    ///
    /// `weight_streams` and `weight_neg` hold `lanes · taps` entries,
    /// lane-major; `seq` is the source sequence shared by all level
    /// streams (its length is the stream bit length).
    ///
    /// # Errors
    ///
    /// Propagates arena construction errors.
    ///
    /// # Panics
    ///
    /// Panics if the stream/sign counts do not match `taps · lanes` or the
    /// configuration fails [`fits`](Self::fits).
    pub fn build(
        seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Result<Self, Error> {
        let n = seq.len();
        assert_eq!(weight_streams.len(), taps * lanes, "weight stream count mismatch");
        assert_eq!(weight_neg.len(), taps * lanes, "weight sign count mismatch");
        assert!(Self::fits(n, taps, lanes), "table exceeds the count-domain budget");
        let levels = n + 1;
        let row_words = lanes.div_ceil(W::LANES);
        let mut lut = vec![W::ZERO; levels * taps * row_words];
        let mut level_stream = StreamArena::new(1, n)?;
        for level in 0..levels {
            level_stream.write_from_levels(0, seq, level as u64);
            let row = &mut lut[level * taps * row_words..(level + 1) * taps * row_words];
            for t in 0..taps {
                for lane in 0..lanes {
                    let count =
                        and_count(level_stream.stream(0), weight_streams.stream(lane * taps + t));
                    row[t * row_words + lane / W::LANES].set_lane(lane % W::LANES, count as u16);
                }
            }
        }
        let mut pos_mask = vec![W::ZERO; taps * row_words];
        for t in 0..taps {
            for lane in 0..lanes {
                if !weight_neg[lane * taps + t] {
                    pos_mask[t * row_words + lane / W::LANES].set_lane(lane % W::LANES, u16::MAX);
                }
            }
        }
        Ok(Self { taps, lanes, row_words, lut, pos_mask })
    }

    /// Logical lanes per tap row.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Taps per lane.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Packed words per tap row (`lanes.div_ceil(W::LANES)`) — the length
    /// [`gather`](Self::gather) expects of its output slices.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Whether every stored count of comparator level `level` is zero —
    /// true of level 0 for any comparator SNG, which never emits a 1 there.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn level_is_zero(&self, level: usize) -> bool {
        let rows = self.taps * self.row_words;
        self.lut[level * rows..(level + 1) * rows].iter().all(|&w| w == W::ZERO)
    }

    /// One stored count, unpacked (test and diagnostic access).
    ///
    /// # Panics
    ///
    /// Panics if `level`, `tap` or `lane` is out of range.
    pub fn count(&self, level: usize, tap: usize, lane: usize) -> u16 {
        assert!(lane < self.lanes, "lane out of range");
        self.lut[(level * self.taps + tap) * self.row_words + lane / W::LANES].lane(lane % W::LANES)
    }

    /// Splits one (level, tap) word row into the positive and negative
    /// tree inputs: lanes whose weight is positive receive the count in
    /// `pos` (and `0` in `neg`), negative lanes the other way around.
    ///
    /// # Panics
    ///
    /// Panics if `level`/`tap` are out of range or the slices are shorter
    /// than [`row_words`](Self::row_words).
    #[inline]
    pub fn gather(&self, level: usize, tap: usize, pos: &mut [W], neg: &mut [W]) {
        let row = &self.lut[(level * self.taps + tap) * self.row_words..][..self.row_words];
        let mask = &self.pos_mask[tap * self.row_words..(tap + 1) * self.row_words];
        for (((pd, nd), &c), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(row).zip(mask) {
            let to_pos = c.and(m);
            *pd = to_pos;
            *nd = c.lane_sub(to_pos);
        }
    }

    /// Routes one uniform `count` through tap `tap`'s weight signs — the
    /// stuck-at-1 override of the count-domain fault model: positive-
    /// weight lanes receive `count` in `pos` (and 0 in `neg`), negative
    /// lanes the other way around. Exactly [`gather`](Self::gather) with
    /// every lane's stored count replaced by `count`.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range or the slices are shorter than
    /// [`row_words`](Self::row_words).
    #[inline]
    pub fn split_by_sign(&self, tap: usize, count: u16, pos: &mut [W], neg: &mut [W]) {
        let mask = &self.pos_mask[tap * self.row_words..(tap + 1) * self.row_words];
        let c = W::splat(count);
        for ((pd, nd), &m) in pos.iter_mut().zip(neg.iter_mut()).zip(mask) {
            let to_pos = c.and(m);
            *pd = to_pos;
            *nd = c.lane_sub(to_pos);
        }
    }
}

/// A [`LevelCountTable`] of runtime-selected [`LaneWidth`] — the engines
/// pick the word per [`ScenarioSpec`](crate::ScenarioSpec) and dispatch
/// each forward through one `match` into the monomorphized fold.
#[derive(Debug, Clone)]
pub enum AnyLevelCountTable {
    /// One 16-bit lane per word.
    U16(LevelCountTable<u16>),
    /// Two lanes per word.
    U32(LevelCountTable<u32>),
    /// Four lanes per word.
    U64(LevelCountTable<u64>),
    /// Eight lanes per word.
    U128(LevelCountTable<u128>),
}

impl AnyLevelCountTable {
    /// Builds a table of the given width ([`LaneWidth::Auto`] resolves to
    /// `u64`); arguments as in [`LevelCountTable::build`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the stream length's counts overflow
    /// the width's 16-bit lanes; propagates construction errors.
    pub fn build(
        width: LaneWidth,
        seq: &[u64],
        weight_streams: &StreamArena,
        weight_neg: &[bool],
        taps: usize,
        lanes: usize,
    ) -> Result<Self, Error> {
        if !width.supports_counts_to(seq.len()) {
            return Err(Error::config(format!(
                "stream counts up to {} overflow the 16-bit lanes of lane width {}",
                seq.len(),
                width
            )));
        }
        Ok(match width.resolve() {
            LaneWidth::U16 => {
                Self::U16(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U32 => {
                Self::U32(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U64 => {
                Self::U64(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::U128 => {
                Self::U128(LevelCountTable::build(seq, weight_streams, weight_neg, taps, lanes)?)
            }
            LaneWidth::Auto => unreachable!("resolve never returns Auto"),
        })
    }

    /// The concrete width of the stored table (never `Auto`).
    pub fn width(&self) -> LaneWidth {
        match self {
            Self::U16(_) => LaneWidth::U16,
            Self::U32(_) => LaneWidth::U32,
            Self::U64(_) => LaneWidth::U64,
            Self::U128(_) => LaneWidth::U128,
        }
    }
}

/// A multi-lane adder tree reduced in packed [`LaneWord`] lanes: a TFF
/// tree through [`fold`](Self::fold), a route-masked MUX tree through
/// [`sum`](Self::sum).
///
/// Holds the live tap rows (packed `lanes.div_ceil(W::LANES)` words per
/// row) plus the fold scratch. Per node the lane op is
/// [`LaneWord::tff_node`] — exactly [`scnn_sim::TffAdder::add_count`] for
/// both rounding directions — and nodes are numbered breadth-first as in
/// [`scnn_sim::TffAdderTree`], so each lane's root equals
/// [`TffAdderTree::fold_counts`](scnn_sim::TffAdderTree::fold_counts) on
/// that lane's taps (property-tested in `scnn-core` for every word).
///
/// [`fold`](Self::fold) walks only the **live prefix** of each level: the
/// padded tail above `taps` is all-zero by construction (a zero pair folds
/// to zero under either rounding direction), so the tree never touches it
/// — neither the ~20 % dead nodes a 784-tap tree used to fold, nor the
/// dead entry rows it used to allocate and re-zero.
///
/// Reuse contract: [`fold`](Self::fold) dirties entry rows below
/// `taps.div_ceil(4) + 1`, which is always less than `taps` for multi-tap
/// trees; a caller that rewrites **every** tap's lanes (via
/// [`tap_lanes_mut`](Self::tap_lanes_mut)) before each fold keeps the
/// zero rows beyond the live prefix intact and may reuse one tree across
/// windows. [`ScratchPool::checkout`] hands out exactly such reusable
/// trees.
///
/// Count ceiling: the per-node transient `x + y + S0` lives in a 16-bit
/// lane, so every leaf count must satisfy `2·count + 1 ≤ u16::MAX`
/// ([`LaneWord::MAX_LEAF_COUNT`], streams of 14-bit precision and under).
/// The constructor **rejects** a declared `max_leaf_count` beyond the
/// ceiling — release builds can no longer wrap silently — and
/// [`fold`](Self::fold) still debug-asserts the loaded counts.
#[derive(Debug, Clone)]
pub struct LaneTree<W: LaneWord = u16> {
    taps: usize,
    lanes: usize,
    row_words: usize,
    padded: usize,
    policy: S0Policy,
    /// `round_even(taps) × row_words` packed tap counts; rows beyond
    /// `taps` are zero and stay zero (the live-prefix invariant).
    entry: Vec<W>,
    /// `round_even(taps.div_ceil(2)).max(1) × row_words` fold scratch.
    scratch: Vec<W>,
    root: Vec<W>,
}

impl<W: LaneWord> LaneTree<W> {
    /// A tree over `taps` leaves (logically padded to the next power of
    /// two) carrying `lanes` independent sums, accepting leaf counts up to
    /// `max_leaf_count`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `taps` or `lanes` is zero, or if
    /// `max_leaf_count` exceeds [`LaneWord::MAX_LEAF_COUNT`] (the fold's
    /// transient would wrap a 16-bit lane).
    pub fn new(
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<Self, Error> {
        Self::validate(taps, lanes, max_leaf_count)?;
        let row_words = lanes.div_ceil(W::LANES);
        Ok(Self {
            taps,
            lanes,
            row_words,
            padded: taps.next_power_of_two(),
            policy,
            entry: vec![W::ZERO; round_even(taps) * row_words],
            scratch: vec![W::ZERO; round_even(taps.div_ceil(2)).max(1) * row_words],
            root: vec![W::ZERO; row_words],
        })
    }

    /// The shared constructor-time checks behind [`new`](Self::new) and
    /// pool reconfiguration.
    fn validate(taps: usize, lanes: usize, max_leaf_count: usize) -> Result<(), Error> {
        if taps == 0 || lanes == 0 {
            return Err(Error::config("LaneTree needs at least one tap and lane"));
        }
        if max_leaf_count > usize::from(W::MAX_LEAF_COUNT) {
            return Err(Error::config(format!(
                "leaf counts up to {max_leaf_count} overflow the 16-bit lanes of a {} tree \
                 (ceiling {})",
                W::WIDTH,
                W::MAX_LEAF_COUNT,
            )));
        }
        Ok(())
    }

    /// Reshapes a recycled tree in place, reusing its allocations. The
    /// buffers are re-zeroed so the live-prefix invariant holds afresh.
    fn reconfigure(
        &mut self,
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<(), Error> {
        Self::validate(taps, lanes, max_leaf_count)?;
        self.taps = taps;
        self.lanes = lanes;
        self.row_words = lanes.div_ceil(W::LANES);
        self.padded = taps.next_power_of_two();
        self.policy = policy;
        self.entry.clear();
        self.entry.resize(round_even(taps) * self.row_words, W::ZERO);
        self.scratch.clear();
        self.scratch.resize(round_even(taps.div_ceil(2)).max(1) * self.row_words, W::ZERO);
        self.root.clear();
        self.root.resize(self.row_words, W::ZERO);
        Ok(())
    }

    /// The padded tree width (the scale factor of the scaled sum).
    pub fn scale(&self) -> usize {
        self.padded
    }

    /// Leaves of the tree.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Logical lanes carried per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Packed words per row (`lanes.div_ceil(W::LANES)`).
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Mutable packed lane row of tap `tap` — fill these with the leaf
    /// counts (via [`LevelCountTable::gather`] or [`LaneWord::set_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range.
    #[inline]
    pub fn tap_lanes_mut(&mut self, tap: usize) -> &mut [W] {
        assert!(tap < self.taps, "tap out of range");
        &mut self.entry[tap * self.row_words..(tap + 1) * self.row_words]
    }

    /// Folds the tree bottom-up over the live prefix of each level and
    /// returns the packed root row (one 16-bit lane per logical lane; see
    /// [`root_lane`](Self::root_lane) for scalar access).
    ///
    /// Debug-asserts the leaf-count ceiling the constructor declared.
    pub fn fold(&mut self) -> &[W] {
        debug_assert!(
            self.entry.iter().all(|w| w.and(W::TOP_BITS) == W::ZERO),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let rw = self.row_words;
        let mut width = self.padded;
        let mut live = self.taps;
        let mut node_base = 0usize;
        let mut cur: &mut [W] = &mut self.entry;
        let mut nxt: &mut [W] = &mut self.scratch;
        while width > 1 {
            let pairs = live.div_ceil(2);
            for i in 0..pairs {
                let s0 = self.policy.state_for(node_base + i);
                let (left, right) = cur[2 * i * rw..(2 * i + 2) * rw].split_at(rw);
                let dst = &mut nxt[i * rw..(i + 1) * rw];
                for ((d, &x), &y) in dst.iter_mut().zip(left).zip(right) {
                    *d = W::tff_node(x, y, s0);
                }
            }
            // Dead pairs fold zeros to zero under either rounding
            // direction, so only the node *numbering* must account for
            // them: the next level starts `width / 2` nodes further on.
            // An odd live prefix makes the next level read one row past
            // the written prefix — keep that boundary row zero (in the
            // entry buffer it may hold stale tap data from the caller).
            if pairs % 2 == 1 && width > 2 {
                nxt[pairs * rw..(pairs + 1) * rw].fill(W::ZERO);
            }
            node_base += width / 2;
            width /= 2;
            live = pairs;
            std::mem::swap(&mut cur, &mut nxt);
        }
        self.root.copy_from_slice(&cur[..rw]);
        &self.root
    }

    /// [`fold`](Self::fold) with a stuck-at fault: node `node` (numbered
    /// breadth-first, bottom-up, as in [`scnn_sim::TffAdderTree`]) emits
    /// `value` in every lane instead of its computed output — the count-
    /// domain image of a TFF column stuck at constant 0s (`value = 0`) or
    /// 1s (`value = N`), systematic across the kernel bank.
    ///
    /// `node` must be a **live** node of this tree shape (see
    /// [`live_fold_node`]): the fold never computes the all-zero padded
    /// tail, so a defect there has no dataflow to intervene on. The
    /// engines validate sites at construction; here a dead or out-of-range
    /// node simply never matches and the fold equals [`fold`](Self::fold).
    pub fn fold_stuck(&mut self, node: usize, value: u16) -> &[W] {
        debug_assert!(
            self.entry.iter().all(|w| w.and(W::TOP_BITS) == W::ZERO),
            "LaneTree leaf counts must satisfy 2·count + 1 ≤ u16::MAX"
        );
        let stuck = W::splat(value);
        let rw = self.row_words;
        let mut width = self.padded;
        let mut live = self.taps;
        let mut node_base = 0usize;
        let mut cur: &mut [W] = &mut self.entry;
        let mut nxt: &mut [W] = &mut self.scratch;
        while width > 1 {
            let pairs = live.div_ceil(2);
            for i in 0..pairs {
                let dst = &mut nxt[i * rw..(i + 1) * rw];
                if node_base + i == node {
                    dst.fill(stuck);
                    continue;
                }
                let s0 = self.policy.state_for(node_base + i);
                let (left, right) = cur[2 * i * rw..(2 * i + 2) * rw].split_at(rw);
                for ((d, &x), &y) in dst.iter_mut().zip(left).zip(right) {
                    *d = W::tff_node(x, y, s0);
                }
            }
            if pairs % 2 == 1 && width > 2 {
                nxt[pairs * rw..(pairs + 1) * rw].fill(W::ZERO);
            }
            node_base += width / 2;
            width /= 2;
            live = pairs;
            std::mem::swap(&mut cur, &mut nxt);
        }
        self.root.copy_from_slice(&cur[..rw]);
        &self.root
    }

    /// Sums the tap rows lane-wise into the root row — the count-domain
    /// MUX adder tree. Fixed select streams route every clock to exactly
    /// one leaf, so once each leaf count is masked by its leaf's route
    /// (`count(pixel ∧ weight ∧ route)`) the tree's output count is the
    /// plain sum of its leaf counts.
    ///
    /// Carry-safety: the routes of one tree partition its `N` clocks, so
    /// one lane's leaf counts sum to at most `N ≤ 2¹⁴` — with or without
    /// bit errors, because a faulted leaf count is still a true AND-count
    /// under its route mask. Every partial sum stays below `2¹⁶`, so
    /// [`LaneWord::lane_add`] never carries across a lane boundary.
    pub fn sum(&mut self) -> &[W] {
        let rw = self.row_words;
        let (first, rest) = self.entry[..self.taps * rw].split_at(rw);
        self.root.copy_from_slice(first);
        for row in rest.chunks_exact(rw) {
            for (r, &x) in self.root.iter_mut().zip(row) {
                *r = r.lane_add(x);
            }
        }
        &self.root
    }

    /// The root count of logical lane `lane` from the last
    /// [`fold`](Self::fold) or [`sum`](Self::sum).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[inline]
    pub fn root_lane(&self, lane: usize) -> u16 {
        assert!(lane < self.lanes, "lane out of range");
        self.root[lane / W::LANES].lane(lane % W::LANES)
    }
}

/// The generic scalar-shaped closed-form TFF tree fold: folds a padded
/// (power-of-two length) buffer of packed [`LaneWord`]s in place, lane-
/// wise, and returns the root word. Node numbering matches
/// [`scnn_sim::TffAdderTree`] exactly, so each 16-bit lane folds
/// independently and bit-exactly.
///
/// Counts must respect [`LaneWord::MAX_LEAF_COUNT`] per lane; for the
/// streaming engines' wide scalar counts (15- and 16-bit streams) use
/// [`fold_tree_counts_wide`].
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts<W: LaneWord>(policy: S0Policy, counts: &mut [W]) -> W {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            counts[i] = W::tff_node(counts[2 * i], counts[2 * i + 1], policy.state_for(node));
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// The wide scalar TFF tree fold used by the bit-level streaming engines:
/// each element is one `u64` count with no lane packing, so counts beyond
/// the 16-bit lane ceiling (15- and 16-bit streams) fold exactly. Node
/// numbering matches [`scnn_sim::TffAdderTree`].
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts_wide(policy: S0Policy, counts: &mut [u64]) -> u64 {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            let sum = counts[2 * i] + counts[2 * i + 1];
            counts[i] = if policy.state_for(node) { sum.div_ceil(2) } else { sum / 2 };
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// [`fold_tree_counts_wide`] with a stuck-at fault: node `stuck_node`
/// emits `value` instead of its computed output — the scalar twin of
/// [`LaneTree::fold_stuck`], used by the streaming engine so both paths
/// share one defect semantics (bit-exactness is property-tested).
///
/// # Panics
///
/// Debug-panics if `counts.len()` is not a power of two.
pub fn fold_tree_counts_wide_stuck(
    policy: S0Policy,
    counts: &mut [u64],
    stuck_node: usize,
    value: u64,
) -> u64 {
    debug_assert!(counts.len().is_power_of_two(), "fold needs the padded tree width");
    let mut width = counts.len();
    let mut node = 0usize;
    while width > 1 {
        for i in 0..width / 2 {
            counts[i] = if node == stuck_node {
                value
            } else {
                let sum = counts[2 * i] + counts[2 * i + 1];
                if policy.state_for(node) {
                    sum.div_ceil(2)
                } else {
                    sum / 2
                }
            };
            node += 1;
        }
        width /= 2;
    }
    counts[0]
}

/// Whether breadth-first node `node` is on the **live prefix** of a
/// `taps`-leaf TFF tree fold — the nodes [`LaneTree::fold`] actually
/// computes. The padded tail above `taps` is all-zero by construction and
/// the fold skips it, so only live nodes are valid stuck-at sites (the
/// engines reject the rest at construction).
///
/// # Example
///
/// ```
/// use scnn_core::counts::live_fold_node;
///
/// // A 25-tap (5×5 window) tree pads to 32 leaves: 13 + 7 + 4 + 2 + 1
/// // live nodes of the 31 structural ones.
/// assert!(live_fold_node(25, 0)); // first bottom-level node
/// assert!(live_fold_node(25, 12)); // last live bottom-level node
/// assert!(!live_fold_node(25, 13)); // dead: pads rows 26..32
/// assert!(live_fold_node(25, 30)); // the root
/// assert!(!live_fold_node(25, 31)); // out of range
/// ```
pub fn live_fold_node(taps: usize, node: usize) -> bool {
    let mut width = taps.next_power_of_two();
    let mut live = taps;
    let mut node_base = 0usize;
    while width > 1 {
        let pairs = live.div_ceil(2);
        if (node_base..node_base + pairs).contains(&node) {
            return true;
        }
        node_base += width / 2;
        width /= 2;
        live = pairs;
    }
    false
}

/// A per-thread pool of reusable [`LaneTree`] scratch, one bucket per
/// [`LaneWord`] width.
///
/// The count-domain forwards of
/// [`StochasticConvLayer`](crate::StochasticConvLayer) and
/// [`StochasticDenseLayer`](crate::StochasticDenseLayer) used to allocate
/// fresh `entry`/`scratch` buffers on every call; they now
/// [`checkout`](Self::checkout) a tree from the calling thread's pool and
/// return it on drop, so steady-state inference does no per-forward
/// allocation on any worker thread. Recycled trees are reshaped (and
/// re-zeroed) in place, growing their buffers only when a larger shape
/// comes along.
///
/// # Example
///
/// ```
/// use scnn_core::counts::{LaneWord, ScratchPool};
/// use scnn_sim::S0Policy;
///
/// # fn main() -> Result<(), scnn_core::Error> {
/// let mut tree = ScratchPool::checkout::<u64>(25, 32, S0Policy::Alternating, 64)?;
/// for tap in 0..25 {
///     tree.tap_lanes_mut(tap).fill(<u64 as LaneWord>::splat(7));
/// }
/// tree.fold();
/// // All 32 lanes fold the same taps, so every root lane agrees.
/// assert_eq!(tree.root_lane(0), tree.root_lane(31));
/// drop(tree); // returns the buffers to this thread's pool
/// assert!(ScratchPool::thread_pooled::<u64>() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    trees_u16: Vec<LaneTree<u16>>,
    trees_u32: Vec<LaneTree<u32>>,
    trees_u64: Vec<LaneTree<u64>>,
    trees_u128: Vec<LaneTree<u128>>,
}

thread_local! {
    static THREAD_POOL: RefCell<ScratchPool> = RefCell::new(ScratchPool::default());
}

impl ScratchPool {
    /// Checks a tree of the requested shape out of the calling thread's
    /// pool, recycling a previous tree's buffers when one is available.
    /// The guard returns the tree on drop.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for shapes [`LaneTree::new`] rejects.
    pub fn checkout<W: LaneWord>(
        taps: usize,
        lanes: usize,
        policy: S0Policy,
        max_leaf_count: usize,
    ) -> Result<PooledTree<W>, Error> {
        let recycled = THREAD_POOL
            .try_with(|pool| W::pool_bucket(&mut pool.borrow_mut()).pop())
            .ok()
            .flatten();
        if scnn_obs::metrics_enabled() {
            // Handles are resolved once per process; a checkout that finds
            // the thread pool empty pays a fresh tree allocation.
            static HANDLES: std::sync::OnceLock<(
                &'static scnn_obs::Counter,
                &'static scnn_obs::Counter,
            )> = std::sync::OnceLock::new();
            let (checkouts, allocs) = HANDLES.get_or_init(|| {
                let registry = scnn_obs::registry();
                (
                    registry.counter("scratch_pool/checkouts"),
                    registry.counter("scratch_pool/allocs"),
                )
            });
            checkouts.add(1);
            if recycled.is_none() {
                allocs.add(1);
            }
        }
        let tree = match recycled {
            Some(mut tree) => {
                tree.reconfigure(taps, lanes, policy, max_leaf_count)?;
                tree
            }
            None => LaneTree::new(taps, lanes, policy, max_leaf_count)?,
        };
        Ok(PooledTree { tree: Some(tree) })
    }

    /// How many `W` trees the calling thread's pool currently holds
    /// (diagnostics and tests).
    pub fn thread_pooled<W: LaneWord>() -> usize {
        THREAD_POOL.try_with(|pool| W::pool_bucket(&mut pool.borrow_mut()).len()).unwrap_or(0)
    }
}

/// A [`LaneTree`] checked out of the calling thread's [`ScratchPool`];
/// dereferences to the tree and returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledTree<W: LaneWord> {
    tree: Option<LaneTree<W>>,
}

impl<W: LaneWord> Deref for PooledTree<W> {
    type Target = LaneTree<W>;

    fn deref(&self) -> &LaneTree<W> {
        self.tree.as_ref().expect("tree present until drop")
    }
}

impl<W: LaneWord> DerefMut for PooledTree<W> {
    fn deref_mut(&mut self) -> &mut LaneTree<W> {
        self.tree.as_mut().expect("tree present until drop")
    }
}

impl<W: LaneWord> Drop for PooledTree<W> {
    fn drop(&mut self) {
        if let Some(tree) = self.tree.take() {
            // During thread teardown the pool may already be gone; the
            // tree is then simply dropped.
            let _ = THREAD_POOL.try_with(|pool| {
                let mut pool = pool.borrow_mut();
                let bucket = W::pool_bucket(&mut pool);
                if bucket.len() < POOL_CAP {
                    bucket.push(tree);
                }
            });
        }
    }
}

/// One comparator-SNG conversion per *distinct* level.
///
/// Against a fixed source sequence the comparator stream is a pure function
/// of the level, so equal-level inputs share bit patterns; the cache
/// converts on first sight and hands out word slices afterwards. This is
/// the stream-arena dedup the conv engine's `pixel_streams` has used since
/// PR 2, now shared with the dense engine's input bank. The cache owns a
/// copy of its source sequence, so an engine can keep one instance warm
/// across calls instead of rebuilding it per image.
#[derive(Debug)]
pub struct LevelStreamCache {
    seq: Vec<u64>,
    scratch: StreamArena,
    cache: Vec<Option<Vec<u64>>>,
}

impl LevelStreamCache {
    /// A cache over the source sequence `seq` (one value per stream bit),
    /// covering comparator levels `0..=seq.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty sequence.
    pub fn new(seq: &[u64]) -> Result<Self, Error> {
        Ok(Self {
            seq: seq.to_vec(),
            scratch: StreamArena::new(1, seq.len())?,
            cache: vec![None; seq.len() + 1],
        })
    }

    /// The source sequence this cache converts against.
    pub fn seq(&self) -> &[u64] {
        &self.seq
    }

    /// The packed words of the level-`level` comparator stream, converting
    /// on first use.
    ///
    /// # Panics
    ///
    /// Panics if `level > seq.len()`.
    pub fn words(&mut self, level: usize) -> &[u64] {
        if self.cache[level].is_none() {
            self.scratch.write_from_levels(0, &self.seq, level as u64);
            self.cache[level] = Some(self.scratch.stream(0).to_vec());
        }
        self.cache[level].as_deref().expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceKind;
    use scnn_sim::TffAdderTree;

    fn seq(bits: u32, n: usize) -> Vec<u64> {
        SourceKind::VanDerCorput.sequence(bits, n, 3).unwrap()
    }

    const POLICIES: [S0Policy; 3] = [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating];

    fn lane_tree_matches_reference<W: LaneWord>() {
        for taps in [1usize, 3, 7, 25, 30] {
            for policy in POLICIES {
                let lanes = 2 * W::LANES + 1; // exercise a partial last word
                let mut tree = LaneTree::<W>::new(taps, lanes, policy, 64).unwrap();
                let reference = TffAdderTree::new(taps, policy).unwrap();
                let mut per_lane = vec![vec![0u64; taps]; lanes];
                #[allow(clippy::needless_range_loop)]
                for t in 0..taps {
                    let row = tree.tap_lanes_mut(t);
                    for lane in 0..lanes {
                        let c = ((t * 31 + lane * 17 + 5) % 64) as u64;
                        row[lane / W::LANES].set_lane(lane % W::LANES, c as u16);
                        per_lane[lane][t] = c;
                    }
                }
                tree.fold();
                for (lane, counts) in per_lane.iter().enumerate() {
                    assert_eq!(
                        u64::from(tree.root_lane(lane)),
                        reference.fold_counts(counts),
                        "taps={taps} lane={lane} policy={policy:?} width={}",
                        W::WIDTH
                    );
                }
            }
        }
    }

    #[test]
    fn lane_tree_matches_reference_tree_per_lane_every_width() {
        lane_tree_matches_reference::<u16>();
        lane_tree_matches_reference::<u32>();
        lane_tree_matches_reference::<u64>();
        lane_tree_matches_reference::<u128>();
    }

    #[test]
    fn lane_word_splat_and_lanes_round_trip() {
        fn check<W: LaneWord>() {
            let w = W::splat(0x1234);
            for lane in 0..W::LANES {
                assert_eq!(w.lane(lane), 0x1234, "width={}", W::WIDTH);
            }
            let mut w = W::ZERO;
            for lane in 0..W::LANES {
                w.set_lane(lane, (lane as u16 + 1) * 3);
            }
            for lane in 0..W::LANES {
                assert_eq!(w.lane(lane), (lane as u16 + 1) * 3, "width={}", W::WIDTH);
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn tff_node_is_exact_at_the_count_ceiling() {
        // The widening-add argument: both rounding directions stay exact
        // with every lane at the ceiling simultaneously.
        fn check<W: LaneWord>() {
            let max = W::MAX_LEAF_COUNT;
            let full = W::splat(max);
            for (s0, expect) in [(false, max), (true, max)] {
                // (32767 + 32767 + s0) >> 1 = 32767 either way.
                let folded = W::tff_node(full, full, s0);
                for lane in 0..W::LANES {
                    assert_eq!(folded.lane(lane), expect, "s0={s0} width={}", W::WIDTH);
                }
            }
            // Mixed lanes: adjacent ceiling/zero lanes must not leak.
            let mut mixed = W::ZERO;
            for lane in (0..W::LANES).step_by(2) {
                mixed.set_lane(lane, max);
            }
            let folded = W::tff_node(mixed, mixed, true);
            for lane in 0..W::LANES {
                let expect = if lane % 2 == 0 { max } else { 0 };
                assert_eq!(folded.lane(lane), expect, "width={}", W::WIDTH);
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn lane_tree_is_reusable_without_residue() {
        // Second fold over fresh taps must equal a fresh tree's fold.
        let mut tree = LaneTree::<u64>::new(25, 3, S0Policy::Alternating, 16).unwrap();
        for t in 0..25 {
            tree.tap_lanes_mut(t).fill(<u64 as LaneWord>::splat(7));
        }
        let _ = tree.fold();
        for t in 0..25 {
            let row = tree.tap_lanes_mut(t);
            for lane in 0..3 {
                row[lane / 4].set_lane(lane % 4, (t + lane) as u16 % 9);
            }
        }
        tree.fold();
        let second: Vec<u16> = (0..3).map(|l| tree.root_lane(l)).collect();
        let mut fresh = LaneTree::<u64>::new(25, 3, S0Policy::Alternating, 16).unwrap();
        for t in 0..25 {
            let row = fresh.tap_lanes_mut(t);
            for lane in 0..3 {
                row[lane / 4].set_lane(lane % 4, (t + lane) as u16 % 9);
            }
        }
        fresh.fold();
        let fresh_roots: Vec<u16> = (0..3).map(|l| fresh.root_lane(l)).collect();
        assert_eq!(second, fresh_roots);
    }

    #[test]
    fn lane_sum_matches_scalar_sum_per_lane_every_width() {
        fn check<W: LaneWord>() {
            let (taps, lanes) = (25, 9);
            let mut tree = LaneTree::<W>::new(taps, lanes, S0Policy::Alternating, 64).unwrap();
            let mut expect = vec![0u16; lanes];
            for t in 0..taps {
                let row = tree.tap_lanes_mut(t);
                for (lane, sum) in expect.iter_mut().enumerate() {
                    let c = ((t * 7 + lane * 3) % 11) as u16;
                    row[lane / W::LANES].set_lane(lane % W::LANES, c);
                    *sum += c;
                }
            }
            tree.sum();
            for (lane, &sum) in expect.iter().enumerate() {
                assert_eq!(tree.root_lane(lane), sum, "width={} lane={lane}", W::WIDTH);
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn constructor_rejects_overflowing_leaf_counts() {
        // 14-bit streams (16384 counts) are the last fitting precision.
        assert!(LaneTree::<u16>::new(25, 4, S0Policy::Alternating, 1 << 14).is_ok());
        for too_big in [1usize << 15, 1 << 16, usize::MAX] {
            let err = LaneTree::<u64>::new(25, 4, S0Policy::Alternating, too_big).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
        }
        assert!(LaneTree::<u64>::new(0, 4, S0Policy::Alternating, 16).is_err());
        assert!(LaneTree::<u64>::new(4, 0, S0Policy::Alternating, 16).is_err());
    }

    #[test]
    fn generic_fold_matches_reference_tree() {
        let reference = TffAdderTree::new(25, S0Policy::Alternating).unwrap();
        let counts: Vec<u64> = (0..25).map(|i| (i * 13 + 7) % 65).collect();
        // Scalar u16 lane words…
        let mut padded16: Vec<u16> = counts.iter().map(|&c| c as u16).collect();
        padded16.resize(32, 0);
        assert_eq!(
            u64::from(fold_tree_counts(S0Policy::Alternating, &mut padded16)),
            reference.fold_counts(&counts)
        );
        // …and the wide scalar fold agree with the reference.
        let mut padded = counts.clone();
        padded.resize(32, 0);
        assert_eq!(
            fold_tree_counts_wide(S0Policy::Alternating, &mut padded),
            reference.fold_counts(&counts)
        );
    }

    #[test]
    fn packed_fold_matches_scalar_fold_per_lane() {
        // Four independent count sets fold in one u64 pass.
        for policy in POLICIES {
            let mut packed = vec![0u64; 32];
            let mut scalar = vec![[0u64; 32]; 4];
            for (i, word) in packed.iter_mut().enumerate() {
                for (lane, counts) in scalar.iter_mut().enumerate() {
                    let c = ((i * 29 + lane * 1031 + 3) % 32000) as u64;
                    LaneWord::set_lane(word, lane, c as u16);
                    counts[i] = c;
                }
            }
            let root = fold_tree_counts(policy, &mut packed);
            for (lane, counts) in scalar.iter_mut().enumerate() {
                assert_eq!(
                    u64::from(root.lane(lane)),
                    fold_tree_counts_wide(policy, counts),
                    "lane={lane} policy={policy:?}"
                );
            }
        }
    }

    #[test]
    fn level_table_counts_match_direct_and_count_every_width() {
        fn check<W: LaneWord>() {
            let n = 32;
            let s = seq(5, n);
            let taps = 4;
            let lanes = 2 * W::LANES + 1;
            let mut weights = StreamArena::new(taps * lanes, n).unwrap();
            let mut neg = vec![false; taps * lanes];
            for lane in 0..lanes {
                for t in 0..taps {
                    let idx = lane * taps + t;
                    weights.write_from_levels(idx, &s, ((idx * 7 + 3) % 33) as u64);
                    neg[idx] = idx % 3 == 1;
                }
            }
            let table = LevelCountTable::<W>::build(&s, &weights, &neg, taps, lanes).unwrap();
            assert_eq!(table.row_words(), lanes.div_ceil(W::LANES));
            let mut level_stream = StreamArena::new(1, n).unwrap();
            let mut pos = vec![W::ZERO; table.row_words()];
            let mut neg_out = vec![W::ZERO; table.row_words()];
            for level in [0usize, 1, 16, 32] {
                level_stream.write_from_levels(0, &s, level as u64);
                for t in 0..taps {
                    table.gather(level, t, &mut pos, &mut neg_out);
                    for lane in 0..lanes {
                        let idx = lane * taps + t;
                        let expect = and_count(level_stream.stream(0), weights.stream(idx)) as u16;
                        let (want_pos, want_neg) = if neg[idx] { (0, expect) } else { (expect, 0) };
                        assert_eq!(table.count(level, t, lane), expect);
                        assert_eq!(
                            pos[lane / W::LANES].lane(lane % W::LANES),
                            want_pos,
                            "level={level} t={t} lane={lane} width={}",
                            W::WIDTH
                        );
                        assert_eq!(
                            neg_out[lane / W::LANES].lane(lane % W::LANES),
                            want_neg,
                            "level={level} t={t} lane={lane} width={}",
                            W::WIDTH
                        );
                    }
                }
            }
        }
        check::<u16>();
        check::<u32>();
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn any_table_builds_the_requested_width() {
        let n = 16;
        let s = seq(4, n);
        let mut weights = StreamArena::new(6, n).unwrap();
        for i in 0..6 {
            weights.write_from_levels(i, &s, (i % 17) as u64);
        }
        let neg = vec![false; 6];
        for (width, expect) in [
            (LaneWidth::Auto, LaneWidth::U64),
            (LaneWidth::U16, LaneWidth::U16),
            (LaneWidth::U32, LaneWidth::U32),
            (LaneWidth::U64, LaneWidth::U64),
            (LaneWidth::U128, LaneWidth::U128),
        ] {
            let table = AnyLevelCountTable::build(width, &s, &weights, &neg, 3, 2).unwrap();
            assert_eq!(table.width(), expect);
        }
    }

    #[test]
    fn lane_width_validation_and_names() {
        assert_eq!(LaneWidth::Auto.resolve(), LaneWidth::U64);
        assert_eq!(LaneWidth::U16.resolve(), LaneWidth::U16);
        assert_eq!(LaneWidth::Auto.lanes_per_word(), 4);
        assert_eq!(LaneWidth::U128.lanes_per_word(), 8);
        for width in [LaneWidth::Auto, LaneWidth::U16, LaneWidth::U32, LaneWidth::U128] {
            assert!(width.supports_counts_to(1 << 14), "{width}");
            assert!(!width.supports_counts_to(1 << 15), "{width}");
        }
        assert_eq!(LaneWidth::U64.to_string(), "u64");
        assert_eq!(LaneWidth::Auto.name(), "auto");
    }

    #[test]
    fn fits_rejects_oversized_configurations() {
        assert!(LevelCountTable::<u16>::fits(256, 25, 32));
        assert!(table_fits(256, 25, 32));
        assert!(!table_fits(40_000, 25, 32)); // 16-bit lanes overflow
        assert!(!table_fits(256, 1 << 12, 1 << 12)); // table too big
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let tree = ScratchPool::checkout::<u128>(25, 9, S0Policy::Alternating, 64).unwrap();
        let while_out = ScratchPool::thread_pooled::<u128>();
        drop(tree);
        assert_eq!(ScratchPool::thread_pooled::<u128>(), while_out + 1);
        // A recycled checkout must behave like a fresh tree even after the
        // previous user dirtied it with a different shape.
        let mut a = ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 64).unwrap();
        for t in 0..7 {
            a.tap_lanes_mut(t).fill(<u128 as LaneWord>::splat(9));
        }
        a.fold();
        let dirty_roots: Vec<u16> = (0..3).map(|l| a.root_lane(l)).collect();
        drop(a);
        let mut b = ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 64).unwrap();
        for t in 0..7 {
            b.tap_lanes_mut(t).fill(<u128 as LaneWord>::splat(9));
        }
        b.fold();
        let clean_roots: Vec<u16> = (0..3).map(|l| b.root_lane(l)).collect();
        assert_eq!(dirty_roots, clean_roots);
        // And invalid shapes are rejected at checkout.
        assert!(ScratchPool::checkout::<u128>(0, 3, S0Policy::AllOne, 64).is_err());
        assert!(ScratchPool::checkout::<u128>(7, 3, S0Policy::AllOne, 1 << 15).is_err());
    }

    #[test]
    fn level_stream_cache_matches_direct_conversion() {
        let n = 48;
        let s = seq(6, n);
        let mut cache = LevelStreamCache::new(&s).unwrap();
        let mut direct = StreamArena::new(1, n).unwrap();
        for level in [0usize, 5, 5, 48, 17, 5] {
            direct.write_from_levels(0, &s, level as u64);
            assert_eq!(cache.words(level), direct.stream(0), "level={level}");
        }
    }
    #[test]
    fn live_fold_node_matches_the_fold_walk() {
        // Enumerate live nodes by re-walking the fold's level loop and
        // cross-check the predicate over the full structural range.
        for taps in 1usize..=33 {
            let padded = taps.next_power_of_two();
            let mut expected = std::collections::HashSet::new();
            let (mut width, mut live, mut node_base) = (padded, taps, 0usize);
            while width > 1 {
                for i in 0..live.div_ceil(2) {
                    expected.insert(node_base + i);
                }
                node_base += width / 2;
                live = live.div_ceil(2);
                width /= 2;
            }
            for node in 0..padded.max(2) {
                assert_eq!(
                    live_fold_node(taps, node),
                    expected.contains(&node),
                    "taps={taps} node={node}"
                );
            }
        }
        // The documented 25-tap shape: 27 live of 31 structural nodes.
        assert_eq!((0..31).filter(|&n| live_fold_node(25, n)).count(), 27);
    }

    #[test]
    fn fold_stuck_matches_the_scalar_stuck_fold_per_lane() {
        let (taps, lanes, n) = (25usize, 5usize, 64usize);
        for policy in [S0Policy::AllZero, S0Policy::AllOne, S0Policy::Alternating] {
            for value in [0u16, 17, n as u16] {
                for node in (0..31).filter(|&nd| live_fold_node(taps, nd)) {
                    let mut tree = LaneTree::<u64>::new(taps, lanes, policy, n).unwrap();
                    let mut scalar = vec![vec![0u64; taps.next_power_of_two()]; lanes];
                    #[allow(clippy::needless_range_loop)]
                    for t in 0..taps {
                        let row = tree.tap_lanes_mut(t);
                        for lane in 0..lanes {
                            let c = ((t * 7 + lane * 13) % (n + 1)) as u16;
                            row[lane / <u64 as LaneWord>::LANES]
                                .set_lane(lane % <u64 as LaneWord>::LANES, c);
                            scalar[lane][t] = u64::from(c);
                        }
                    }
                    tree.fold_stuck(node, value);
                    for (lane, counts) in scalar.iter().enumerate() {
                        let want = fold_tree_counts_wide_stuck(
                            policy,
                            &mut counts.clone(),
                            node,
                            u64::from(value),
                        );
                        assert_eq!(
                            u64::from(tree.root_lane(lane)),
                            want,
                            "policy={policy:?} node={node} value={value} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_stuck_without_a_matching_node_equals_fold() {
        let (taps, lanes, n) = (25usize, 3usize, 64usize);
        let mut a = LaneTree::<u32>::new(taps, lanes, S0Policy::Alternating, n).unwrap();
        let mut b = a.clone();
        for t in 0..taps {
            for lane in 0..lanes {
                let c = ((t * 11 + lane * 5) % (n + 1)) as u16;
                a.tap_lanes_mut(t)[lane / 2].set_lane(lane % 2, c);
                b.tap_lanes_mut(t)[lane / 2].set_lane(lane % 2, c);
            }
        }
        // Node 13 is dead for a 25-tap tree; an out-of-range index too.
        assert_eq!(a.fold().to_vec(), b.fold_stuck(13, 50).to_vec());
        assert_eq!(a.fold().to_vec(), b.fold_stuck(1000, 50).to_vec());
    }

    #[test]
    fn split_by_sign_routes_uniform_counts_by_weight_sign() {
        let n = 16;
        let seq = crate::SourceKind::Ramp.sequence(4, n, 1).unwrap();
        let (taps, lanes) = (3usize, 5usize);
        let mut weights = StreamArena::new(taps * lanes, n).unwrap();
        let mut neg = vec![false; taps * lanes];
        for (i, n) in neg.iter_mut().enumerate() {
            weights.write_from_levels(i, &seq, (i as u64 * 5) % 17);
            *n = i % 3 == 1;
        }
        let table = LevelCountTable::<u64>::build(&seq, &weights, &neg, taps, lanes).unwrap();
        let rw = table.row_words();
        let mut pos = vec![0u64; rw];
        let mut neg_row = vec![0u64; rw];
        for t in 0..taps {
            table.split_by_sign(t, n as u16, &mut pos, &mut neg_row);
            for lane in 0..lanes {
                let p = pos[lane / 4].lane(lane % 4);
                let m = neg_row[lane / 4].lane(lane % 4);
                if neg[lane * taps + t] {
                    assert_eq!((p, m), (0, n as u16), "tap={t} lane={lane}");
                } else {
                    assert_eq!((p, m), (n as u16, 0), "tap={t} lane={lane}");
                }
            }
        }
    }
}
