//! Fully-connected layer — the layer type the active reconstruction
//! attacks weaponize (paper §III-A).

use oasis_tensor::Tensor;
use rand::Rng;
use std::any::Any;

use crate::{Layer, Mode, NnError, Result};

/// A fully-connected layer `y = x · Wᵀ + b`.
///
/// `W` has shape `(out_features, in_features)` so that row `i` of `W`
/// (together with `b[i]`) parameterizes neuron `i` — matching the
/// paper's notation `(W ∈ R^{n×d}, b ∈ R^n)` for the malicious layer.
///
/// The weight and bias (and their gradients) are directly accessible:
/// the dishonest server edits them, and the attacks read the gradient
/// buffers after a client's backward pass.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform initialized weights.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let bound = (1.0 / in_features as f32).sqrt();
        Linear {
            weight: Tensor::rand_uniform(&[out_features, in_features], -bound, bound, rng),
            bias: Tensor::rand_uniform(&[out_features], -bound, bound, rng),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Creates a layer from explicit weights — how an attacker builds
    /// a malicious layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `weight` is not rank-2 or `bias` length
    /// differs from the weight's row count.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 || bias.rank() != 1 || bias.numel() != weight.dims()[0] {
            return Err(NnError::BadInput {
                layer: "linear",
                expected: "weight (out,in) and bias (out)".into(),
                actual: weight.dims().to_vec(),
            });
        }
        let (out_f, in_f) = (weight.dims()[0], weight.dims()[1]);
        Ok(Linear {
            weight,
            bias,
            grad_weight: Tensor::zeros(&[out_f, in_f]),
            grad_bias: Tensor::zeros(&[out_f]),
            cached_input: None,
        })
    }

    /// Number of input features `d`.
    pub fn in_features(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Number of output neurons `n`.
    pub fn out_features(&self) -> usize {
        self.weight.dims()[0]
    }

    /// The weight matrix `W (out, in)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector `b (out)`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Accumulated weight gradient `∂L/∂W` — what a client uploads and
    /// the attacker inverts.
    pub fn grad_weight(&self) -> &Tensor {
        &self.grad_weight
    }

    /// Accumulated bias gradient `∂L/∂b`.
    pub fn grad_bias(&self) -> &Tensor {
        &self.grad_bias
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features() {
            return Err(NnError::BadInput {
                layer: "linear",
                expected: format!("[batch, {}]", self.in_features()),
                actual: input.dims().to_vec(),
            });
        }
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let y = input.matmul_nt(&self.weight)?;
        Ok(y.add_row_broadcast(&self.bias)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        // ∂L/∂x = δ · W
        Ok(grad_output.matmul(&self.weight)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "linear" })?;
        // ∂L/∂W += δᵀ · x  (out, in), accumulated tile by tile straight
        // into the gradient: bit-identical to adding a materialized
        // product, without the (out, in) temporary.
        grad_output.matmul_tn_acc(input, &mut self.grad_weight)?;
        // ∂L/∂b = Σ_batch δ
        self.grad_bias.add_assign(&grad_output.sum_axis0()?)?;
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_hand_computation() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let mut l = Linear::from_parts(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[1.5, 3.5]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn single_sample_gradient_is_outer_product() {
        // For one sample x and upstream signal g, ∂L/∂W_i = g_i · x and
        // ∂L/∂b_i = g_i — the identity that makes Eq. 6 inversion work.
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![0.3, -0.7, 0.2], &[1, 3]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![2.0, -1.5], &[1, 2]).unwrap();
        l.backward(&g).unwrap();
        let _ = y;
        for i in 0..2 {
            let gi = g.data()[i];
            assert!((l.grad_bias().data()[i] - gi).abs() < 1e-6);
            for j in 0..3 {
                let expect = gi * x.data()[j];
                let got = l.grad_weight().get(&[i, j]).unwrap();
                assert!((got - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn batch_gradients_are_summed_over_samples() {
        // Paper §III-A: "all derivatives are summed over the batch
        // dimension".
        let mut rng = StdRng::seed_from_u64(2);
        let make = |rng: &mut StdRng| Linear::new(3, 2, rng);
        let mut l_batch = make(&mut rng);
        let mut l_single =
            Linear::from_parts(l_batch.weight().clone(), l_batch.bias().clone()).unwrap();

        let x = Tensor::randn(&[4, 3], &mut rng);
        let g = Tensor::randn(&[4, 2], &mut rng);

        l_batch.forward(&x, Mode::Train).unwrap();
        l_batch.backward(&g).unwrap();

        for s in 0..4 {
            let xs = x.slice_rows(s, s + 1).unwrap();
            let gs = g.slice_rows(s, s + 1).unwrap();
            l_single.forward(&xs, Mode::Train).unwrap();
            l_single.backward(&gs).unwrap(); // accumulates
        }
        for (a, b) in l_batch
            .grad_weight()
            .data()
            .iter()
            .zip(l_single.grad_weight().data())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn from_parts_validates_shapes() {
        let w = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3]);
        assert!(Linear::from_parts(w, b).is_err());
    }
}
