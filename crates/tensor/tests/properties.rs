//! Property-based tests for the tensor algebra.

use oasis_tensor::{parallel, tile_rows, Tensor};
use proptest::prelude::*;

mod reference;
use reference::{bits, matrix};

/// Strategy: a rank-2 tensor with dims in [1, 8] and small finite values.
fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

/// Strategy: two same-shape matrices.
fn matrix_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-100.0f32..100.0, r * c);
        let b = proptest::collection::vec(-100.0f32..100.0, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Tensor::from_vec(a, &[r, c]).unwrap(),
                Tensor::from_vec(b, &[r, c]).unwrap(),
            )
        })
    })
}

/// Element strategy mixing ordinary values with both signed zeros, so
/// all-zero 4-blocks and skipped tail steps come up often.
fn entry() -> impl Strategy<Value = f32> {
    prop_oneof![
        -10.0f32..10.0,
        -10.0f32..10.0,
        -10.0f32..10.0,
        Just(0.0f32),
        Just(-0.0f32),
    ]
}

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(entry(), rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).unwrap())
}

/// `(m, k, n)` with every `k % 4` and `k = 0` reachable.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=9, 0usize..=13, 1usize..=9)
}

proptest! {
    #[test]
    fn matmul_follows_the_documented_order(
        (a, b) in dims().prop_flat_map(|(m, k, n)| (tensor(m, k), tensor(k, n)))
    ) {
        prop_assert_eq!(bits(a.matmul(&b).unwrap().data()), bits(&reference::matmul(&a, &b)));
    }

    #[test]
    fn matmul_tn_follows_the_documented_order(
        (a, b) in dims().prop_flat_map(|(m, k, n)| (tensor(k, m), tensor(k, n)))
    ) {
        let got = a.matmul_tn(&b).unwrap();
        prop_assert_eq!(bits(got.data()), bits(&reference::matmul_tn(&a, &b)));
    }

    #[test]
    fn matmul_nt_follows_the_documented_order(
        (a, b) in (1usize..=9, prop_oneof![0usize..=13, 64usize..=75], 1usize..=9)
            .prop_flat_map(|(m, k, n)| (tensor(m, k), tensor(n, k)))
    ) {
        let got = a.matmul_nt(&b).unwrap();
        prop_assert_eq!(bits(got.data()), bits(&reference::matmul_nt(&a, &b)));
    }

    #[test]
    fn fused_accumulate_equals_add_assign_of_the_product(
        (a, b, acc) in dims().prop_flat_map(|(m, k, n)| (tensor(k, m), tensor(k, n), tensor(m, n)))
    ) {
        let mut unfused = acc.clone();
        unfused.add_assign(&a.matmul_tn(&b).unwrap()).unwrap();
        let mut fused = acc;
        a.matmul_tn_acc(&b, &mut fused).unwrap();
        prop_assert_eq!(bits(fused.data()), bits(unfused.data()));
    }

    #[test]
    fn add_commutes((a, b) in matrix_pair()) {
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn sub_then_add_recovers((a, b) in matrix_pair()) {
        let round = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in round.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-5));
        }
    }

    #[test]
    fn transpose_is_involution(a in small_matrix()) {
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn identity_is_matmul_neutral(a in small_matrix()) {
        let n = a.dims()[1];
        let prod = a.matmul(&Tensor::eye(n)).unwrap();
        prop_assert_eq!(prod, a);
    }

    #[test]
    fn matmul_tn_matches_transpose(a in small_matrix(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let k = a.dims()[0];
        let b = Tensor::randn(&[k, 3], &mut StdRng::seed_from_u64(seed));
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn matmul_nt_matches_transpose(a in small_matrix(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let k = a.dims()[1];
        let b = Tensor::randn(&[5, k], &mut StdRng::seed_from_u64(seed));
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn scale_distributes_over_add((a, b) in matrix_pair(), s in -10.0f32..10.0) {
        let lhs = a.add(&b).unwrap().scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn sum_axis_decompositions_agree(a in small_matrix()) {
        let total = a.sum();
        let by_rows = a.sum_axis1().unwrap().sum();
        let by_cols = a.sum_axis0().unwrap().sum();
        prop_assert!((total - by_rows).abs() <= 1e-2_f32.max(total.abs() * 1e-5));
        prop_assert!((total - by_cols).abs() <= 1e-2_f32.max(total.abs() * 1e-5));
    }

    #[test]
    fn mse_is_symmetric_and_nonnegative((a, b) in matrix_pair()) {
        let ab = a.mse(&b).unwrap();
        let ba = b.mse(&a).unwrap();
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn relu_is_idempotent(a in small_matrix()) {
        let once = a.relu();
        let twice = once.relu();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn reshape_preserves_sum(a in small_matrix()) {
        let n = a.numel();
        let flat = a.reshape(&[n]).unwrap();
        prop_assert_eq!(flat.sum(), a.sum());
    }

    #[test]
    fn stack_then_slice_recovers((a, b) in matrix_pair()) {
        let stacked = Tensor::concat_rows(&[a.clone(), b.clone()]).unwrap();
        let ra = stacked.slice_rows(0, a.dims()[0]).unwrap();
        let rb = stacked.slice_rows(a.dims()[0], stacked.dims()[0]).unwrap();
        prop_assert_eq!(ra, a);
        prop_assert_eq!(rb, b);
    }
}

#[test]
fn fused_accumulate_keeps_signed_zeros_and_nonzero_accumulators() {
    // An accumulator holding nonzero values, `+0.0` and `-0.0`
    // against a product with zero rows (all-zero 4-blocks in every
    // step): `-0.0 + +0.0` must come out `+0.0` exactly as
    // `add_assign` does, over more than one tile.
    let (m, k, n) = (2 * tile_rows(8192) + 1, 9, 8192);
    let mut lhs = matrix(k, m, 7);
    for p in 0..k {
        lhs.data_mut()[p * m] = 0.0;
        lhs.data_mut()[p * m + 1] = -0.0;
    }
    let b = matrix(k, n, 8);
    let mut acc = matrix(m, n, 9);
    for j in 0..n {
        acc.data_mut()[j] = if j % 2 == 0 { -0.0 } else { 0.0 };
    }
    let mut unfused = acc.clone();
    unfused.add_assign(&lhs.matmul_tn(&b).unwrap()).unwrap();
    for threads in [1, 2, 4] {
        let mut fused = acc.clone();
        parallel::with_threads(threads, || lhs.matmul_tn_acc(&b, &mut fused).unwrap());
        assert_eq!(bits(fused.data()), bits(unfused.data()), "t={threads}");
    }
    assert!(unfused.data()[..n].iter().all(|v| v.to_bits() == 0));
}
