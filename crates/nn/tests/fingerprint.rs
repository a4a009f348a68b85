//! Behaviour fingerprint of the binary network.
//!
//! Trains the full LeNet-5 for one small epoch on seeded synthetic digits
//! and pins three committed constants: an FNV-1a hash of every trained
//! parameter's bits, an FNV-1a hash of the test-split logits' bits, and the
//! test-split correct count. Every layer's forward and backward kernel
//! feeds these numbers, so a kernel rewrite that claims to be
//! byte-identical must leave them unchanged. The constants hold for every
//! worker count: training is byte-identical across thread counts by
//! construction, and this test checks one and two workers.

use scnn_nn::data::synthetic;
use scnn_nn::lenet::{lenet5, LenetConfig};
use scnn_nn::optim::Adam;

/// Training items (one epoch).
const TRAIN: usize = 48;
/// Test items whose logits are hashed.
const TEST: usize = 20;
/// Training batch size.
const BATCH: usize = 16;

/// FNV-1a (64-bit) of the values' bit patterns, little-endian bytes.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(parameter hash, logit hash, correct count)` after one epoch at
/// `threads` workers.
fn fingerprint(threads: usize) -> (u64, u64, usize) {
    let train = synthetic::generate(TRAIN, 5);
    let test = synthetic::generate(TEST, 6);
    let mut net = lenet5(&LenetConfig::default()).unwrap();
    let mut opt = Adam::new(1e-3);
    net.train_epoch_threads(&train, BATCH, &mut opt, 9, threads).unwrap();

    let mut params = Vec::new();
    net.visit_all_params(&mut |p, _| params.extend_from_slice(p.data()));

    let indices: Vec<usize> = (0..test.len()).collect();
    let (x, labels) = test.batch(&indices).unwrap();
    let logits = net.forward(&x, false).unwrap();
    let predicted = net.predict(&x).unwrap();
    let correct = predicted.iter().zip(&labels).filter(|&(&p, &l)| p == usize::from(l)).count();
    (fnv1a(&params), fnv1a(logits.data()), correct)
}

/// Committed on the im2col + matmul forward kernel; every later kernel must
/// reproduce them exactly.
const PARAM_HASH: u64 = 0x1359_4f7c_7540_ea9d;
const LOGIT_HASH: u64 = 0x0c47_556d_8096_da8e;
const CORRECT: usize = 4;

#[test]
fn lenet5_one_epoch_fingerprint_is_pinned() {
    for threads in [1, 2] {
        let got = fingerprint(threads);
        assert_eq!(
            got,
            (PARAM_HASH, LOGIT_HASH, CORRECT),
            "fingerprint at {threads} worker(s): params {:#018x}, logits {:#018x}, correct {}",
            got.0,
            got.1,
            got.2
        );
    }
}
