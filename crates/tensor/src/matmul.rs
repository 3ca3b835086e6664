//! Dense matrix multiplication with L2-tiled loop orders.
//!
//! The inner kernels — the eight-lane unrolled dot product, its
//! register-blocked `dot2x4`/`dot1x4` forms and the register-blocked
//! `axpy4`/`axpy4x2` row updates — live in
//! [`crate::simd`] and dispatch to the best available instruction set
//! at runtime; this module contributes the loop nests, the zero-block
//! skips, and the row partitioning.
//!
//! ## Tiles
//!
//! The attacks' malicious `Linear` is as wide as an image (6.3 MB of
//! weights for 512 neurons on 3×32×32 inputs), far larger than a
//! core's L2, so a nest that revisits it per output row pays memory
//! bandwidth on every visit. Each product here walks its output in
//! tiles of rows sized by [`TILE_BYTES`] — output rows for
//! [`Tensor::matmul`] and [`Tensor::matmul_tn`], left-hand rows for
//! [`Tensor::matmul_nt`] — and inside a tile puts the right-hand rows
//! (or 4-blocks of them) on the outer loop, so the large operand
//! streams once per tile while the tile stays in L2.
//!
//! ## Reduction order
//!
//! Tiling and register blocking reorder *which element* is worked on
//! next, never the operations applied to one element. Every output
//! element keeps one fixed sequence. For the axpy products it is the
//! 4-blocks of the reduction axis in ascending order (a block whose
//! four left-hand coefficients are all zero is skipped), then the
//! leftover `k % 4` steps in ascending order (zero coefficients
//! skipped).
//!
//! For [`Tensor::matmul_nt`]'s long-reduction path it is one
//! [`simd::dot`] chain over the whole row pair. The kernel computes
//! the output in 2×4 blocks — two left rows against four right rows
//! through `simd::dot2x4`, a tile's odd last row through
//! `simd::dot1x4`, the `n % 4` leftover columns through `simd::dot` —
//! but each of a block's eight elements has its own accumulator and
//! runs `dot`'s exact chain: mul then add per eight-lane chunk, the
//! fixed lane fold, the sequential tail.
//!
//! Neither sequence depends on the tile size, the block position or
//! the parallel row partition, so every product is bit-identical at
//! any thread count and any tile size (`crates/tensor/tests/
//! properties.rs` and `simd_parity.rs` check it against a naive
//! per-element reference).

use crate::{parallel, simd, Result, Tensor, TensorError};

/// Minimum multiply-add count (`2·m·k·n`) before a product enters the
/// worker pool.
///
/// Below this, pool-dispatch latency rivals the kernel itself, so
/// sub-threshold problems always run serially on the caller. The
/// cutoff is FLOP-based rather than output-element-based so skinny
/// products with a long reduction axis (conv lowerings, the attacks'
/// wide `Linear`) parallelize even when their output is small.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Hot working set of one tile: the bytes of tiled rows (output rows,
/// or left-hand rows for `matmul_nt`) a tile may hold. Well inside a
/// typical 1–2 MB L2, leaving room for the streamed right-hand rows;
/// every conv lowering and the `matmul_256` output fit in one tile.
const TILE_BYTES: usize = 256 * 1024;

/// Whether an `m×k · k×n` product is worth dispatching to the pool.
fn above_par_threshold(m: usize, k: usize, n: usize) -> bool {
    m > 1 && 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n) >= PAR_MIN_FLOPS
}

/// Rows of `row_len` floats per tile: as many as fit in
/// [`TILE_BYTES`], rounded down to an even count (so `matmul`'s row
/// pairs never straddle a tile) and at least one pair. Exported,
/// hidden, so tests can place shapes at the real tile boundaries.
#[doc(hidden)]
pub fn tile_rows(row_len: usize) -> usize {
    (TILE_BYTES / (4 * row_len.max(1))).max(2) & !1
}

/// Runs `kernel(first_row, rows)` over the `n`-wide rows of `out`,
/// on the worker pool when the `m×k · k×n` product is large enough.
fn for_each_rows<F>(out: &mut [f32], (m, k, n): (usize, usize, usize), kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if above_par_threshold(m, k, n) {
        parallel::for_each_row_block(out, n, kernel);
    } else {
        kernel(0, out);
    }
}

use simd::{axpy4, axpy4x2};

/// Right-hand rows `p..p + 4` of a row-major matrix with `n` columns.
fn rows4(b: &[f32], p: usize, n: usize) -> [&[f32]; 4] {
    std::array::from_fn(|r| &b[(p + r) * n..(p + r + 1) * n])
}

/// One tile of an axpy product (`matmul`, `matmul_tn`): `out` holds
/// output rows `i0..` (each `n` wide) and accumulates
/// `Σ_p lhs(i, p) · b[p]` into row `i`, with `b` the `k×n` right-hand
/// matrix and `lhs(i, p)` the left-hand coefficient however it is
/// laid out. The 4-blocks of `b` are the outer loop, so each is read
/// once per tile; rows go in pairs through `axpy4x2`, a tile's odd
/// last row through `axpy4` (both perform the same per-row
/// operations), then the leftover steps follow.
fn axpy_tile(
    b: &[f32],
    (k, n): (usize, usize),
    i0: usize,
    out: &mut [f32],
    lhs: impl Fn(usize, usize) -> f32,
) {
    let coeff4 = |i: usize, p: usize| std::array::from_fn(|r| lhs(i, p + r));
    let blocks = k / 4 * 4;
    for p in (0..blocks).step_by(4) {
        let [b0, b1, b2, b3] = rows4(b, p, n);
        for (pi, pair) in out.chunks_mut(2 * n).enumerate() {
            let i = i0 + 2 * pi;
            if pair.len() < 2 * n {
                let c = coeff4(i, p);
                if c != [0.0; 4] {
                    axpy4(pair, c, b0, b1, b2, b3);
                }
                continue;
            }
            let (o0, o1) = pair.split_at_mut(n);
            let (c0, c1) = (coeff4(i, p), coeff4(i + 1, p));
            match (c0 == [0.0; 4], c1 == [0.0; 4]) {
                (false, false) => axpy4x2(o0, o1, c0, c1, b0, b1, b2, b3),
                (false, true) => axpy4(o0, c0, b0, b1, b2, b3),
                (true, false) => axpy4(o1, c1, b0, b1, b2, b3),
                (true, true) => {}
            }
        }
    }
    for p in blocks..k {
        let brow = &b[p * n..(p + 1) * n];
        for (li, orow) in out.chunks_mut(n).enumerate() {
            let c = lhs(i0 + li, p);
            if c == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += c * bv;
            }
        }
    }
}

/// One tile of [`Tensor::matmul_nt`]'s dot path: `out` holds the
/// output rows of the left-hand rows `a` (each `k` long) against the
/// `n×k` right-hand matrix `b`. The 4-blocks of `b`'s rows are the
/// outer loop, so each is read once per tile; left rows go in pairs
/// through `dot2x4`, a tile's odd last row through `dot1x4`, and the
/// `n % 4` leftover columns through `dot`. All three compute each
/// element as the same one `dot` chain.
fn dot_tile(a: &[f32], b: &[f32], (k, n): (usize, usize), out: &mut [f32]) {
    let blocks = n / 4 * 4;
    for j in (0..blocks).step_by(4) {
        let b4 = rows4(b, j, k);
        for (pair, a2) in out.chunks_mut(2 * n).zip(a.chunks(2 * k)) {
            if a2.len() < 2 * k {
                pair[j..j + 4].copy_from_slice(&simd::dot1x4(a2, b4));
                continue;
            }
            let [r0, r1] = simd::dot2x4([&a2[..k], &a2[k..]], b4);
            pair[j..j + 4].copy_from_slice(&r0);
            pair[n + j..n + j + 4].copy_from_slice(&r1);
        }
    }
    for (j, brow) in b.chunks_exact(k).enumerate().skip(blocks) {
        for (orow, arow) in out.chunks_mut(n).zip(a.chunks_exact(k)) {
            orow[j] = simd::dot(arow, brow);
        }
    }
}

impl Tensor {
    /// Matrix product `self (m×k) · other (k×n) → (m×n)`.
    ///
    /// `i-k-j` order inside tiles of output rows (256 KiB of them):
    /// for each 4-block of `other`'s rows, every row pair of the tile
    /// takes one register-blocked `axpy4x2` pass, so the innermost
    /// loop walks output and right-hand rows contiguously and
    /// `other` is streamed once per tile. Large products are split
    /// across threads by row blocks.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = dims2(self, "matmul")?;
        let (k2, n) = dims2(other, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let _span = oasis_telemetry::span("tensor.matmul");
        oasis_telemetry::counter!("tensor.matmul_flops").add(2 * (m * k * n) as u64);
        let mut out = Tensor::zeros(&[m, n]);
        let (a, b) = (self.data(), other.data());
        let tile = tile_rows(n);
        for_each_rows(out.data_mut(), (m, k, n), |row0, rows| {
            for (t, tile_out) in rows.chunks_mut(tile * n).enumerate() {
                axpy_tile(b, (k, n), row0 + t * tile, tile_out, |i, p| a[i * k + p]);
            }
        });
        Ok(out)
    }

    /// Computes `selfᵀ · other` without materializing the transpose.
    ///
    /// `self` is `(k×m)`, `other` is `(k×n)`, result is `(m×n)`. This is
    /// the shape needed for weight gradients (`xᵀ · δ`). Tiles hold
    /// 256 KiB of output rows; inside one, the 4-blocks of
    /// `other` are the outer loop (see the module docs for the
    /// per-element order).
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// leading dimension.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k, n) = tn_dims(self, other, "matmul_tn")?;
        let _span = oasis_telemetry::span("tensor.matmul_tn");
        oasis_telemetry::counter!("tensor.matmul_flops").add(2 * (m * k * n) as u64);
        let mut out = Tensor::zeros(&[m, n]);
        let (a, b) = (self.data(), other.data());
        let tile = tile_rows(n);
        for_each_rows(out.data_mut(), (m, k, n), |i0, rows| {
            for (t, tile_out) in rows.chunks_mut(tile * n).enumerate() {
                axpy_tile(b, (k, n), i0 + t * tile, tile_out, |i, p| a[p * m + i]);
            }
        });
        Ok(out)
    }

    /// Fused weight-gradient accumulate: `acc += selfᵀ · other`.
    ///
    /// Bit-identical to `acc.add_assign(&self.matmul_tn(other)?)` for
    /// any `acc`, signed zeros included: each tile of the product is
    /// computed by the same tile kernel into a zeroed per-tile
    /// scratch buffer, which is then added into `acc` element by
    /// element. No `m×n` temporary is allocated — only one tile of
    /// scratch per row block.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// leading dimension and `acc` is `(m×n)`.
    pub fn matmul_tn_acc(&self, other: &Tensor, acc: &mut Tensor) -> Result<()> {
        let (m, k, n) = tn_dims(self, other, "matmul_tn_acc")?;
        if acc.dims() != [m, n] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_tn_acc",
                lhs: acc.dims().to_vec(),
                rhs: vec![m, n],
            });
        }
        let _span = oasis_telemetry::span("tensor.matmul_tn_acc");
        oasis_telemetry::counter!("tensor.matmul_flops").add(2 * (m * k * n) as u64);
        let (a, b) = (self.data(), other.data());
        let tile = tile_rows(n);
        for_each_rows(acc.data_mut(), (m, k, n), |i0, rows| {
            let mut scratch = vec![0.0f32; rows.len().min(tile * n)];
            for (t, acc_tile) in rows.chunks_mut(tile * n).enumerate() {
                let prod = &mut scratch[..acc_tile.len()];
                prod.fill(0.0);
                axpy_tile(b, (k, n), i0 + t * tile, prod, |i, p| a[p * m + i]);
                for (x, &p) in acc_tile.iter_mut().zip(prod.iter()) {
                    *x += p;
                }
            }
        });
        Ok(())
    }

    /// Computes `self · otherᵀ` without materializing the transpose.
    ///
    /// `self` is `(m×k)`, `other` is `(n×k)`, result is `(m×n)`. This is
    /// the shape needed for input gradients (`δ · Wᵀ` with `W: n×k`)
    /// and for `Linear`'s forward pass. With a long reduction axis,
    /// each output element is one [`simd::dot`] chain. Tiles hold
    /// 256 KiB of `self`'s rows; inside one, the 4-blocks of
    /// `other`'s rows are the outer loop, so `other` is streamed once
    /// per tile instead of once per row, and each row pair of the
    /// tile takes one register-blocked `dot2x4` pass over the block.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// trailing dimension.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = dims2(self, "matmul_nt")?;
        let (n, k2) = dims2(other, "matmul_nt")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let _span = oasis_telemetry::span("tensor.matmul_nt");
        // Two regimes: a long reduction dim amortizes the unrolled
        // dot's lane setup, while a short one (conv im2col: k = C·k²,
        // often < 64) wastes most of each 8-lane chunk — there the
        // axpy kernel on a materialized transpose wins despite the
        // copy.
        if k < 64 || k < 2 * n {
            return self.matmul(&other.transpose()?);
        }
        oasis_telemetry::counter!("tensor.matmul_flops").add(2 * (m * k * n) as u64);
        let mut out = Tensor::zeros(&[m, n]);
        let (a, b) = (self.data(), other.data());
        let tile = tile_rows(k);
        for_each_rows(out.data_mut(), (m, k, n), |row0, rows| {
            for (t, tile_out) in rows.chunks_mut(tile * n).enumerate() {
                let i0 = row0 + t * tile;
                dot_tile(
                    &a[i0 * k..(i0 + tile_out.len() / n) * k],
                    b,
                    (k, n),
                    tile_out,
                );
            }
        });
        Ok(out)
    }

    /// Matrix-vector product `self (m×k) · v (k) → (m)`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `self` is rank-2 and `v` rank-1 with
    /// matching length.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor> {
        let (m, k) = dims2(self, "matvec")?;
        if v.rank() != 1 || v.numel() != k {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.dims().to_vec(),
                rhs: v.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            *o = simd::dot(&self.data()[i * k..(i + 1) * k], v.data());
        }
        Tensor::from_vec(out, &[m])
    }
}

/// `(m, k, n)` of a `selfᵀ · other` product with `self: k×m` and
/// `other: k×n`.
fn tn_dims(lhs: &Tensor, rhs: &Tensor, op: &'static str) -> Result<(usize, usize, usize)> {
    let (k, m) = dims2(lhs, op)?;
    let (k2, n) = dims2(rhs, op)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
        });
    }
    Ok((m, k, n))
}

fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[r, c]).unwrap()
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = m(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 3, 2);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 5.0, 2.0], 3, 2);
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 2, 3);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 5.0, 2.0], 2, 3);
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let v = Tensor::from_slice(&[5.0, 6.0]);
        let mv = a.matvec(&v).unwrap();
        assert_eq!(mv.data(), &[17.0, 39.0]);
    }

    #[test]
    fn tiny_matmul_under_wide_thread_override_matches_serial() {
        // Sub-threshold problems (a 4×4 matmul is ~128 FLOPs, far
        // under `PAR_MIN_FLOPS`) must never enter the pool: even with
        // 8 threads requested the result is the serial one, bit for
        // bit.
        let a = m((0..16).map(|i| i as f32 * 0.37 - 2.0).collect(), 4, 4);
        let b = m((0..16).map(|i| (i as f32).sin()).collect(), 4, 4);
        let serial = a.matmul(&b).unwrap();
        let wide = parallel::with_threads(8, || a.matmul(&b).unwrap());
        assert_eq!(wide, serial);
        assert!(!above_par_threshold(4, 4, 4));
    }

    #[test]
    fn fused_accumulate_matches_add_assign_of_the_product() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 3, 2);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 5.0, 2.0], 3, 2);
        let acc0 = m(vec![-0.0, 0.0, 7.5, -3.25], 2, 2);
        let mut unfused = acc0.clone();
        unfused.add_assign(&a.matmul_tn(&b).unwrap()).unwrap();
        let mut fused = acc0;
        a.matmul_tn_acc(&b, &mut fused).unwrap();
        assert_eq!(fused, unfused);
        assert!(a.matmul_tn_acc(&b, &mut Tensor::zeros(&[2, 3])).is_err());
        let short = Tensor::zeros(&[2, 2]);
        assert!(a
            .matmul_tn_acc(&short, &mut Tensor::zeros(&[2, 2]))
            .is_err());
    }

    #[test]
    fn pool_dispatched_products_match_serial() {
        // The smallest shapes above `PAR_MIN_FLOPS`, cheap enough for
        // the interpreter: each product enters the worker pool (and
        // its lifetime-erased task queue) at 2 and 4 threads.
        let seq = |len: usize, s: f32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i as f32 * s).sin() * 4.0).round() / 4.0)
                .collect()
        };
        let a = m(seq(8 * 12, 0.7), 8, 12);
        let b = m(seq(12 * 344, 0.3), 12, 344);
        let at = m(seq(12 * 8, 1.1), 12, 8);
        let long_a = m(seq(8 * 128, 0.9), 8, 128);
        let long_b = m(seq(32 * 128, 0.5), 32, 128);
        let acc0 = m(seq(8 * 344, 0.2), 8, 344);
        assert!(above_par_threshold(8, 12, 344) && above_par_threshold(8, 128, 32));
        let run = || {
            let mut acc = acc0.clone();
            at.matmul_tn_acc(&b, &mut acc).unwrap();
            (
                a.matmul(&b).unwrap(),
                at.matmul_tn(&b).unwrap(),
                acc,
                long_a.matmul_nt(&long_b).unwrap(),
            )
        };
        let serial = parallel::with_threads(1, run);
        for threads in [2, 4] {
            assert_eq!(parallel::with_threads(threads, run), serial, "t={threads}");
        }
    }

    // The remaining thread tests run well over 10⁵ output elements or
    // 10⁶ multiply-adds, too slow for the interpreter.

    #[test]
    #[cfg(not(miri))]
    fn all_products_are_bit_identical_across_thread_counts() {
        // Shapes chosen above the FLOP threshold so the parallel path
        // actually engages; the row partition must not perturb a
        // single bit of the result.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[96, 130], &mut rng);
        let b = Tensor::randn(&[130, 80], &mut rng);
        // 40 × 130: keeps k ≥ 2n so matmul_nt stays on its unrolled
        // dot path instead of dispatching to a transposed matmul.
        let bt = Tensor::randn(&[40, 130], &mut rng);
        let at = Tensor::randn(&[130, 96], &mut rng);
        let serial = parallel::with_threads(1, || {
            (
                a.matmul(&b).unwrap(),
                a.matmul_nt(&bt).unwrap(),
                at.matmul_tn(&b).unwrap(),
            )
        });
        for threads in [2, 4, 8] {
            let parallel = parallel::with_threads(threads, || {
                (
                    a.matmul(&b).unwrap(),
                    a.matmul_nt(&bt).unwrap(),
                    at.matmul_tn(&b).unwrap(),
                )
            });
            assert_eq!(parallel.0.data(), serial.0.data(), "matmul t={threads}");
            assert_eq!(parallel.1.data(), serial.1.data(), "matmul_nt t={threads}");
            assert_eq!(parallel.2.data(), serial.2.data(), "matmul_tn t={threads}");
        }
    }

    #[test]
    #[cfg(not(miri))]
    fn large_matmul_uses_parallel_path_consistently() {
        // Exercise both code paths and check they agree.
        let n = 300; // 300*300 = 90_000 > threshold
        let a = Tensor::from_vec(
            (0..n * n).map(|i| (i % 17) as f32 * 0.25).collect(),
            &[n, n],
        )
        .unwrap();
        let i = Tensor::eye(n);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c, a);
    }
}
