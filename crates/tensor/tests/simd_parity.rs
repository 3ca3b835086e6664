//! SIMD-vs-scalar parity at lane boundaries.
//!
//! Every dispatched kernel is specified to be *bit-identical* to the
//! scalar reference (see `oasis_tensor::simd`), so these tests pin
//! equality of bit patterns, not tolerances: proptests sweep lengths
//! through `1..=33` (covering empty vector-chunk counts, exact lane
//! multiples, and every tail length for both 8- and 4-lane backends)
//! plus misaligned sub-slices (vector loads must not assume an
//! aligned base), with tricky values — signed zeros, subnormal-scale
//! magnitudes, large magnitudes — mixed in. On hardware where the
//! best backend *is* scalar the comparisons are trivially true; the
//! CI perf leg runs on AVX2 where they are load-bearing.

use oasis_tensor::simd::{self, Backend};
use oasis_tensor::{parallel, tile_rows, Tensor};
use proptest::prelude::*;

mod reference;
use reference::{bits, matrix};

/// Element strategy biased toward lane-combine edge cases.
fn tricky_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -100.0f32..100.0,
        -100.0f32..100.0,
        Just(0.0f32),
        Just(-0.0f32),
        -1e-6f32..1e-6,
        -1e30f32..1e30,
    ]
}

/// A vector sweeping every lane/tail split for 8- and 4-lane kernels.
fn lane_vec() -> impl Strategy<Value = Vec<f32>> {
    (1usize..=33).prop_flat_map(|n| proptest::collection::vec(tricky_f32(), n))
}

/// Same-length vector pair.
fn lane_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=33).prop_flat_map(|n| {
        (
            proptest::collection::vec(tricky_f32(), n),
            proptest::collection::vec(tricky_f32(), n),
        )
    })
}

fn best() -> Backend {
    Backend::detect()
}

proptest! {
    #[test]
    fn dot_is_bit_identical((a, b) in lane_pair()) {
        let scalar = simd::with_backend(Backend::Scalar, || simd::dot(&a, &b));
        let vector = simd::with_backend(best(), || simd::dot(&a, &b));
        prop_assert_eq!(scalar.to_bits(), vector.to_bits());
    }

    #[test]
    fn dot_on_misaligned_subslices_is_bit_identical(
        (a, b) in lane_pair(), off in 0usize..4,
    ) {
        let off = off % a.len();
        let (sa, sb) = (&a[off..], &b[off..]);
        let scalar = simd::with_backend(Backend::Scalar, || simd::dot(sa, sb));
        let vector = simd::with_backend(best(), || simd::dot(sa, sb));
        prop_assert_eq!(scalar.to_bits(), vector.to_bits());
    }

    #[test]
    fn blocked_dots_equal_scalar_dot(
        (k, v) in (0usize..=33).prop_flat_map(|k| {
            proptest::collection::vec(tricky_f32(), 6 * k + 3).prop_map(move |v| (k, v))
        }),
        off in 0usize..4,
    ) {
        let rows = six_rows(&v, k, off);
        let want = dot_bits(&scalar_dots(&rows));
        for backend in [Backend::Scalar, best()] {
            let (got2, got1) = simd::with_backend(backend, || blocked_dots(&rows));
            prop_assert_eq!(dot_bits(&got2), want.clone(), "dot2x4 {:?} k={}", backend, k);
            prop_assert_eq!(dot_bits(&got1), want.clone(), "dot1x4 {:?} k={}", backend, k);
        }
    }

    #[test]
    fn axpy_is_bit_identical((out, x) in lane_pair(), alpha in tricky_f32()) {
        let mut via_scalar = out.clone();
        let mut via_vector = out.clone();
        simd::with_backend(Backend::Scalar, || simd::axpy(&mut via_scalar, alpha, &x));
        simd::with_backend(best(), || simd::axpy(&mut via_vector, alpha, &x));
        for (s, v) in via_scalar.iter().zip(&via_vector) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn tensor_axpy_routes_through_the_same_kernel(
        (out, x) in lane_pair(), alpha in tricky_f32(),
    ) {
        let n = out.len();
        let mut t = Tensor::from_vec(out.clone(), &[n]).unwrap();
        let xt = Tensor::from_vec(x.clone(), &[n]).unwrap();
        t.axpy(alpha, &xt).unwrap();
        let mut direct = out;
        simd::axpy(&mut direct, alpha, &x);
        prop_assert_eq!(t.data(), &direct[..]);
    }

    #[test]
    fn minmax_is_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let s = &x[off..];
        let (slo, shi) = simd::with_backend(Backend::Scalar, || simd::minmax(s));
        let (vlo, vhi) = simd::with_backend(best(), || simd::minmax(s));
        prop_assert_eq!(slo.to_bits(), vlo.to_bits());
        prop_assert_eq!(shi.to_bits(), vhi.to_bits());
    }

    #[test]
    fn q8_bytes_are_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let src = &x[off..];
        let (lo, hi) = simd::minmax(src);
        let scale = (f64::from(hi) - f64::from(lo)) / 255.0;
        if scale <= 0.0 {
            continue; // constant vector: the codec never calls the kernel
        }
        let mut q_scalar = vec![0u8; src.len()];
        let mut q_vector = vec![0u8; src.len()];
        simd::with_backend(Backend::Scalar, || {
            simd::quantize_q8(src, lo, scale, &mut q_scalar);
        });
        simd::with_backend(best(), || {
            simd::quantize_q8(src, lo, scale, &mut q_vector);
        });
        prop_assert_eq!(&q_scalar, &q_vector, "wire bytes must not depend on backend");

        // And the round trip back to f32 is bit-identical too.
        let scale32 = scale as f32;
        let mut d_scalar = vec![0.0f32; src.len()];
        let mut d_vector = vec![0.0f32; src.len()];
        simd::with_backend(Backend::Scalar, || {
            simd::dequantize_q8(&q_scalar, lo, scale32, &mut d_scalar);
        });
        simd::with_backend(best(), || {
            simd::dequantize_q8(&q_vector, lo, scale32, &mut d_vector);
        });
        for (s, v) in d_scalar.iter().zip(&d_vector) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn sign_bytes_are_bit_identical(x in lane_vec(), off in 0usize..4) {
        let off = off % x.len();
        let src = &x[off..];
        let mut b_scalar = vec![0xAAu8; src.len().div_ceil(8)];
        let mut b_vector = vec![0x55u8; src.len().div_ceil(8)];
        simd::with_backend(Backend::Scalar, || simd::pack_signs(src, &mut b_scalar));
        simd::with_backend(best(), || simd::pack_signs(src, &mut b_vector));
        prop_assert_eq!(&b_scalar, &b_vector, "wire bytes must not depend on backend");

        let mut u_scalar = vec![0.0f32; src.len()];
        let mut u_vector = vec![0.0f32; src.len()];
        simd::with_backend(Backend::Scalar, || {
            simd::unpack_signs(&b_scalar, 0.75, &mut u_scalar);
        });
        simd::with_backend(best(), || {
            simd::unpack_signs(&b_vector, 0.75, &mut u_vector);
        });
        for (s, v) in u_scalar.iter().zip(&u_vector) {
            prop_assert_eq!(s.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn sq_err_sum_is_bit_identical((a, b) in lane_pair(), off in 0usize..4) {
        let off = off % a.len();
        let (sa, sb) = (&a[off..], &b[off..]);
        let scalar = simd::with_backend(Backend::Scalar, || simd::sq_err_sum(sa, sb));
        let vector = simd::with_backend(best(), || simd::sq_err_sum(sa, sb));
        prop_assert_eq!(scalar.to_bits(), vector.to_bits());
    }
}

/// Six rows of length `k` cut back to back from `v` starting at
/// `off`: two left rows, then four right rows. Whenever `off` or `k`
/// is not a multiple of eight the rows start off the lane grid.
fn six_rows(v: &[f32], k: usize, off: usize) -> [&[f32]; 6] {
    std::array::from_fn(|r| &v[off + r * k..off + (r + 1) * k])
}

/// The 2×4 block and the two 1×4 rows of `rows` through the active
/// backend's blocked kernels.
fn blocked_dots(rows: &[&[f32]; 6]) -> ([[f32; 4]; 2], [[f32; 4]; 2]) {
    let [a0, a1, b0, b1, b2, b3] = *rows;
    let b = [b0, b1, b2, b3];
    (
        simd::dot2x4([a0, a1], b),
        [simd::dot1x4(a0, b), simd::dot1x4(a1, b)],
    )
}

/// What both halves of [`blocked_dots`] must equal: the scalar `dot`
/// of every left row with every right row.
fn scalar_dots(rows: &[&[f32]; 6]) -> [[f32; 4]; 2] {
    simd::with_backend(Backend::Scalar, || {
        std::array::from_fn(|i| std::array::from_fn(|j| simd::dot(rows[i], rows[2 + j])))
    })
}

fn dot_bits(block: &[[f32; 4]; 2]) -> Vec<u32> {
    bits(block.as_flattened())
}

#[test]
fn blocked_dots_match_the_reference_at_every_tail_length() {
    // Every `k % 8` several times over (k < 8 has no vector chunk at
    // all), each at four start offsets, against the naive reference
    // and the scalar `dot`.
    for k in 0..=40 {
        for off in 0..4 {
            let m = matrix(1, 6 * k + 3, 80 + k as u64);
            let rows = six_rows(m.data(), k, off);
            let want = scalar_dots(&rows);
            let naive: [[f32; 4]; 2] = std::array::from_fn(|i| {
                std::array::from_fn(|j| reference::dot(rows[i], rows[2 + j]))
            });
            assert_eq!(dot_bits(&want), dot_bits(&naive), "scalar dot k={k}");
            for backend in [Backend::Scalar, best()] {
                let (got2, got1) = simd::with_backend(backend, || blocked_dots(&rows));
                assert_eq!(
                    dot_bits(&got2),
                    dot_bits(&want),
                    "dot2x4 {backend:?} k={k} off={off}"
                );
                assert_eq!(
                    dot_bits(&got1),
                    dot_bits(&want),
                    "dot1x4 {backend:?} k={k} off={off}"
                );
            }
        }
    }
}

#[test]
fn blocked_dots_reject_rows_of_different_lengths() {
    let (long, short) = ([1.0f32; 9], [1.0f32; 8]);
    let r =
        std::panic::catch_unwind(|| simd::dot2x4([&long, &long], [&long, &long, &short, &long]));
    assert!(r.is_err());
    let r = std::panic::catch_unwind(|| simd::dot1x4(&short, [&long; 4]));
    assert!(r.is_err());
}

#[test]
fn signed_zero_minmax_is_canonical_on_every_backend() {
    // f32::min(-0.0, 0.0) is fold-order sensitive; both backends must
    // canonicalize so the q8 affine header never leaks lane order.
    for x in [
        vec![-0.0f32, 0.0],
        vec![0.0f32, -0.0],
        vec![-0.0f32; 17],
        vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
    ] {
        for backend in [Backend::Scalar, best()] {
            let (lo, hi) = simd::with_backend(backend, || simd::minmax(&x));
            assert_eq!(lo.to_bits(), 0.0f32.to_bits(), "{backend:?} {x:?}");
            assert_eq!(hi.to_bits(), 0.0f32.to_bits(), "{backend:?} {x:?}");
        }
    }
}

#[test]
fn q8_rounding_boundaries_match_rust_round() {
    // Levels landing exactly on .5 (ties away from zero) and just
    // below it — where a `floor(x + 0.5)` emulation would diverge
    // from Rust's `round`. lo = 0, scale = 1 makes the quantized
    // quantity equal the input value.
    let src: Vec<f32> = vec![
        0.5, 1.5, 2.5, 3.5, 100.5, 254.5, 0.49999997, 1.4999999, 0.50000006, 127.49999,
    ];
    let mut q_scalar = vec![0u8; src.len()];
    let mut q_vector = vec![0u8; src.len()];
    simd::with_backend(Backend::Scalar, || {
        simd::quantize_q8(&src, 0.0, 1.0, &mut q_scalar);
    });
    simd::with_backend(best(), || {
        simd::quantize_q8(&src, 0.0, 1.0, &mut q_vector);
    });
    let expected: Vec<u8> = src
        .iter()
        .map(|&v| (f64::from(v).round() as i32).clamp(0, 255) as u8)
        .collect();
    assert_eq!(q_scalar, expected);
    assert_eq!(q_vector, expected);
}

#[test]
fn matmul_is_bit_identical_across_backends_and_threads() {
    // End-to-end: the matmul kernels run through the dispatched
    // dot/axpy4 paths, above the parallel threshold, with the backend
    // pinned around the pool dispatch — the override must propagate
    // into the workers for the scalar run to actually be scalar.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let a = Tensor::randn(&[96, 130], &mut rng);
    let b = Tensor::randn(&[130, 80], &mut rng);
    let bt = Tensor::randn(&[40, 130], &mut rng);
    let at = Tensor::randn(&[130, 96], &mut rng);
    let run = || {
        (
            a.matmul(&b).unwrap(),
            a.matmul_nt(&bt).unwrap(),
            at.matmul_tn(&b).unwrap(),
        )
    };
    let reference = simd::with_backend(Backend::Scalar, || parallel::with_threads(1, run));
    for backend in [Backend::Scalar, best()] {
        for threads in [1, 4] {
            let got = simd::with_backend(backend, || parallel::with_threads(threads, run));
            assert_eq!(
                got.0.data(),
                reference.0.data(),
                "matmul {backend:?} t={threads}"
            );
            assert_eq!(
                got.1.data(),
                reference.1.data(),
                "matmul_nt {backend:?} t={threads}"
            );
            assert_eq!(
                got.2.data(),
                reference.2.data(),
                "matmul_tn {backend:?} t={threads}"
            );
        }
    }
}

/// Runs `check` under every backend × thread-count combination the
/// kernels promise to be invariant over, labelled for messages.
fn for_each_backend_and_thread_count(mut check: impl FnMut(&str)) {
    for backend in [Backend::Scalar, best()] {
        for threads in [1, 2, 4] {
            simd::with_backend(backend, || {
                parallel::with_threads(threads, || check(&format!("{backend:?} t={threads}")))
            });
        }
    }
}

#[test]
fn tiled_axpy_products_match_the_reference_at_tile_boundaries() {
    // Output rows are tiled: n = 8192 makes a tile 8 rows at the
    // kernel's 256 KiB budget (`t` follows the kernel either way).
    // The shapes straddle the boundary (one row short, exact, one row
    // over, two tiles plus one), every `k % 4` appears, and every m
    // but the exact-tile one is odd, so row pairs get a leftover.
    let n = 8192;
    let t = tile_rows(n);
    for (s, (m, k)) in [(t - 1, 8), (t, 9), (t + 1, 10), (2 * t + 1, 11)]
        .into_iter()
        .enumerate()
    {
        let s = s as u64;
        let a = matrix(m, k, 10 + s);
        let at = matrix(m, k, 20 + s).transpose().unwrap();
        let b = matrix(k, n, 30 + s);
        let acc0 = matrix(m, n, 40 + s);
        let want = bits(&reference::matmul(&a, &b));
        let want_tn = reference::matmul_tn(&at, &b);
        let want_acc: Vec<u32> = acc0
            .data()
            .iter()
            .zip(&want_tn)
            .map(|(x, y)| (x + y).to_bits())
            .collect();
        let want_tn = bits(&want_tn);
        for_each_backend_and_thread_count(|ctx| {
            assert_eq!(
                bits(a.matmul(&b).unwrap().data()),
                want,
                "matmul m={m} k={k} {ctx}"
            );
            assert_eq!(
                bits(at.matmul_tn(&b).unwrap().data()),
                want_tn,
                "matmul_tn m={m} k={k} {ctx}"
            );
            let mut acc = acc0.clone();
            at.matmul_tn_acc(&b, &mut acc).unwrap();
            assert_eq!(
                bits(acc.data()),
                want_acc,
                "matmul_tn_acc m={m} k={k} {ctx}"
            );
        });
    }
}

#[test]
fn tiled_dot_products_match_the_reference_at_tile_boundaries() {
    // Left-hand rows are tiled for the long-reduction `matmul_nt`:
    // k ≈ 8192 makes a tile 8 rows (6 once k passes 8192), and
    // `k % 8` ∈ {0, 1, 2, 3} gives the dot's sequential tail work.
    // Every `n % 4` leaves 0–3 columns outside the 2×4 blocks, and
    // the row counts are odd and even, so tiles end on a whole row
    // pair or on a lone `dot1x4` row.
    for (s, r) in (0..4).enumerate() {
        let k = 8192 + r;
        let t = tile_rows(k);
        for n in [8, 9, 10, 11] {
            let b = matrix(n, k, 50 + (4 * s + n) as u64);
            for m in [t - 1, t, t + 1, 2 * t, 2 * t + 1] {
                let a = matrix(m, k, 60 + m as u64);
                let want = bits(&reference::matmul_nt(&a, &b));
                for_each_backend_and_thread_count(|ctx| {
                    assert_eq!(
                        bits(a.matmul_nt(&b).unwrap().data()),
                        want,
                        "matmul_nt m={m} k={k} n={n} {ctx}"
                    );
                });
            }
        }
    }
}

#[test]
fn blocked_dot_products_match_the_reference_at_model_shapes() {
    // The campaign's first layer, a batch of 8–13 rows against a
    // 64×3072 weight (both row parities, whole 4-blocks of columns),
    // and the attacks' rtf:512 malicious layer, 32×3072 against
    // 512×3072.
    let k = 3 * 32 * 32;
    let w = matrix(64, k, 90);
    for m in 8..=13 {
        let x = matrix(m, k, 91 + m as u64);
        let want = bits(&reference::matmul_nt(&x, &w));
        for_each_backend_and_thread_count(|ctx| {
            assert_eq!(
                bits(x.matmul_nt(&w).unwrap().data()),
                want,
                "campaign m={m} {ctx}"
            );
        });
    }
    let (x, w) = (matrix(32, k, 92), matrix(512, k, 93));
    let want = bits(&reference::matmul_nt(&x, &w));
    for_each_backend_and_thread_count(|ctx| {
        assert_eq!(bits(x.matmul_nt(&w).unwrap().data()), want, "rtf512 {ctx}");
    });
}
