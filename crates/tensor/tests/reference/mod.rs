//! Naive reference products that spell out the documented
//! per-element operation order of `oasis_tensor`'s matmul kernels, one
//! output element at a time, with no tiling, pairing or partitioning.
//! A kernel is correct exactly when it matches these bit for bit.

#![allow(dead_code)]

use oasis_tensor::Tensor;

/// One axpy-product element: `coeff(p)` is the left-hand coefficient
/// at reduction step `p`, `rhs(p)` the matching right-hand value.
/// The 4-blocks go first, in ascending order, each skipped when its
/// four coefficients are all zero and otherwise added as
/// `((c0·b0 + c1·b1) + c2·b2) + c3·b3`; then the `k % 4` leftover
/// steps in ascending order, each skipped when its coefficient is
/// zero.
fn axpy_element(k: usize, coeff: impl Fn(usize) -> f32, rhs: impl Fn(usize) -> f32) -> f32 {
    let blocks = k / 4 * 4;
    let mut acc = 0.0f32;
    for p in (0..blocks).step_by(4) {
        let c = [coeff(p), coeff(p + 1), coeff(p + 2), coeff(p + 3)];
        if c == [0.0; 4] {
            continue;
        }
        acc += c[0] * rhs(p) + c[1] * rhs(p + 1) + c[2] * rhs(p + 2) + c[3] * rhs(p + 3);
    }
    for p in blocks..k {
        let c = coeff(p);
        if c != 0.0 {
            acc += c * rhs(p);
        }
    }
    acc
}

/// The eight-lane dot product: lane `l` accumulates the products at
/// indices `≡ l (mod 8)` over whole chunks, the lanes combine as
/// `((l0+l4) + (l1+l5)) + ((l2+l6) + (l3+l7))`, and the leftover
/// products are summed in order and added last.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / 8;
    let mut l = [0.0f32; 8];
    for c in 0..chunks {
        for (lane, acc) in l.iter_mut().enumerate() {
            *acc += a[c * 8 + lane] * b[c * 8 + lane];
        }
    }
    let tail: f32 = (chunks * 8..a.len()).map(|i| a[i] * b[i]).sum();
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7])) + tail
}

/// `a (m×k) · b (k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let (a, b) = (a.data(), b.data());
    (0..m * n)
        .map(|e| {
            let (i, j) = (e / n, e % n);
            axpy_element(k, |p| a[i * k + p], |p| b[p * n + j])
        })
        .collect()
}

/// `aᵀ · b` with `a (k×m)`, `b (k×n)`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (k, m, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let (a, b) = (a.data(), b.data());
    (0..m * n)
        .map(|e| {
            let (i, j) = (e / n, e % n);
            axpy_element(k, |p| a[p * m + i], |p| b[p * n + j])
        })
        .collect()
}

/// `a · bᵀ` with `a (m×k)`, `b (n×k)`: one [`dot`] per element when
/// the reduction axis is long (`k ≥ 64` and `k ≥ 2n`), otherwise the
/// axpy order of `a · (bᵀ)`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[0]);
    let (a, b) = (a.data(), b.data());
    (0..m * n)
        .map(|e| {
            let (i, j) = (e / n, e % n);
            if k < 64 || k < 2 * n {
                axpy_element(k, |p| a[i * k + p], |p| b[j * k + p])
            } else {
                dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k])
            }
        })
        .collect()
}

/// A deterministic `rows×cols` matrix of mixed-sign values with
/// signed zeros sprinkled in and, in every third row, one all-zero
/// 4-block (`+0.0` and `-0.0` mixed, which the kernels must skip).
pub fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 13 {
                0 => 0.0,
                1 => -0.0,
                r => (r as f32 - 6.5) * (1.0 + (state >> 40) as f32 / (1u64 << 24) as f32),
            }
        })
        .collect();
    for r in (0..rows).step_by(3) {
        if cols >= 4 {
            let p = (r / 3 % (cols / 4)) * 4;
            data[r * cols + p..r * cols + p + 4].copy_from_slice(&[0.0, -0.0, 0.0, -0.0]);
        }
    }
    Tensor::from_vec(data, &[rows, cols]).unwrap()
}

/// Bit patterns, for exact comparison that tells `-0.0` from `+0.0`.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
