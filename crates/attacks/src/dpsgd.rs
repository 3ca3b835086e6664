//! DP-SGD utility baseline.
//!
//! The related-work comparison: differentially-private SGD bounds
//! reconstruction leakage by clipping per-sample gradients and adding
//! Gaussian noise, but the noise needed to hide image content also
//! degrades accuracy (paper §I and §V). The attack harness measures
//! the privacy side when the defense stack carries a DP update stage
//! (`run_attack` with `oasis_fl::DpStage`); this module measures the
//! utility side by training a classifier under the same mechanism.

use oasis_data::{Batch, Dataset};
use oasis_nn::{train_step, Linear, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{AttackError, Result};

/// DP-SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct DpConfig {
    /// Per-sample gradient L2 clipping bound `C`.
    pub clip_norm: f32,
    /// Noise multiplier σ (noise std = `σ·C/B`).
    pub noise_multiplier: f32,
    /// Learning rate.
    pub learning_rate: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            learning_rate: 0.1,
            epochs: 5,
            batch_size: 16,
        }
    }
}

/// The per-sample clipped gradient sum of record-level DP-SGD. For
/// each sample of `batch` it runs one [`train_step`] on the sample's
/// one-row input, scales the first layer's `(∂W, ∂b)` down to L2 norm
/// at most `clip_norm` (the norm over both tensors), and adds it to
/// the running sums. Returns the two sums and the sum of the
/// per-sample losses; each caller averages and perturbs them itself.
///
/// The first layer must be a [`Linear`]. In the attack harness it is
/// the malicious layer, which dominates the norm and is all the
/// attacker reads; in the utility baseline it is the whole model.
///
/// # Errors
///
/// Propagates model execution failures, and a first layer that is not
/// a `Linear`.
pub(crate) fn clipped_grad_sum(
    model: &mut Sequential,
    batch: &Batch,
    clip_norm: f32,
) -> Result<(Tensor, Tensor, f32)> {
    let lin = first_linear(model)?;
    let d = lin.grad_weight().dims()[1];
    let mut sum_gw = Tensor::zeros(lin.grad_weight().dims());
    let mut sum_gb = Tensor::zeros(lin.grad_bias().dims());
    let mut loss_sum = 0.0f32;
    for (image, label) in batch.images.iter().zip(&batch.labels) {
        let xi = image.to_tensor().reshape(&[1, d])?;
        loss_sum += train_step(model, &xi, std::slice::from_ref(label))?;
        let lin = first_linear(model)?;
        let norm = (lin.grad_weight().norm_sq() + lin.grad_bias().norm_sq()).sqrt();
        let scale = if norm > clip_norm {
            clip_norm / norm
        } else {
            1.0
        };
        sum_gw.axpy(scale, lin.grad_weight())?;
        sum_gb.axpy(scale, lin.grad_bias())?;
    }
    Ok((sum_gw, sum_gb, loss_sum))
}

/// The model's first layer as a [`Linear`] — the attacked layer whose
/// gradients the attacks invert.
pub(crate) fn first_linear(model: &Sequential) -> Result<&Linear> {
    model
        .layer_as::<Linear>(0)
        .ok_or_else(|| AttackError::BadConfig("first layer is not Linear".into()))
}

/// Trains a linear softmax classifier with DP-SGD and returns the
/// final test accuracy — one point of the DP utility/privacy
/// trade-off curve.
///
/// # Errors
///
/// Propagates model execution failures.
pub fn train_linear_with_dp(
    train: &Dataset,
    test: &Dataset,
    config: DpConfig,
    seed: u64,
) -> Result<f64> {
    let d = train.feature_dim();
    let classes = train.num_classes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Sequential::new();
    model.push(Linear::new(d, classes, &mut rng));

    for _ in 0..config.epochs {
        for batch in train.shuffled_batches(config.batch_size, &mut rng) {
            let b = batch.len();
            if b == 0 {
                continue;
            }
            let (sum_gw, sum_gb, _) = clipped_grad_sum(&mut model, &batch, config.clip_norm)?;
            // The model is its one `Linear` layer: `(∂W, ∂b)` is the
            // whole gradient, in `flatten_grads` order.
            let mut update = sum_gw.into_vec();
            update.extend_from_slice(sum_gb.data());
            let sigma = config.noise_multiplier * config.clip_norm / b as f32;
            let noise = Tensor::randn_scaled(&[update.len()], 0.0, sigma, &mut rng);
            for ((u, &nz), _) in update.iter_mut().zip(noise.data()).zip(0..) {
                *u = *u / b as f32 + nz;
            }
            // SGD step.
            let mut params = oasis_nn::flatten_params(&mut model);
            for (p, &g) in params.iter_mut().zip(&update) {
                *p -= config.learning_rate * g;
            }
            oasis_nn::load_params(&mut model, &params)?;
        }
    }
    oasis_fl::evaluate_accuracy(&mut model, test, config.batch_size).map_err(|e| match e {
        oasis_fl::FlError::Nn(nn) => crate::AttackError::Nn(nn),
        other => crate::AttackError::BadConfig(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;

    /// A two-layer model (first layer `Linear`), a batch of four
    /// samples, and the model's feature width.
    fn clip_fixture() -> (Sequential, Batch, usize) {
        let ds = cifar_like_with(3, 4, 8, 3);
        let d = ds.feature_dim();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Sequential::new();
        model.push(Linear::new(d, 6, &mut rng));
        model.push(oasis_nn::Relu::new());
        model.push(Linear::new(6, 3, &mut rng));
        let batch = ds.sample_batch(4, &mut rng);
        (model, batch, d)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn clip_above_every_norm_is_the_unclipped_sum() {
        let (mut model, batch, d) = clip_fixture();
        let (gw, gb, loss) = clipped_grad_sum(&mut model, &batch, f32::MAX).unwrap();
        let lin = first_linear(&model).unwrap();
        let mut want_gw = Tensor::zeros(lin.grad_weight().dims());
        let mut want_gb = Tensor::zeros(lin.grad_bias().dims());
        let mut want_loss = 0.0f32;
        for (image, &label) in batch.images.iter().zip(&batch.labels) {
            let xi = image.to_tensor().reshape(&[1, d]).unwrap();
            want_loss += train_step(&mut model, &xi, &[label]).unwrap();
            let lin = first_linear(&model).unwrap();
            want_gw.axpy(1.0, lin.grad_weight()).unwrap();
            want_gb.axpy(1.0, lin.grad_bias()).unwrap();
        }
        assert_eq!(bits(&gw), bits(&want_gw));
        assert_eq!(bits(&gb), bits(&want_gb));
        assert_eq!(loss.to_bits(), want_loss.to_bits());
    }

    #[test]
    fn small_clip_bounds_each_samples_contribution() {
        let (mut model, batch, _) = clip_fixture();
        let clip = 1e-3;
        for (image, &label) in batch.images.iter().zip(&batch.labels) {
            let one = Batch::new(vec![image.clone()], vec![label]);
            let mut norm = |c| {
                let (gw, gb, _) = clipped_grad_sum(&mut model, &one, c).unwrap();
                (gw.norm_sq() + gb.norm_sq()).sqrt()
            };
            assert!(norm(f32::MAX) > clip, "the sample must need clipping");
            assert!(norm(clip) <= clip * (1.0 + 1e-5));
        }
    }

    #[test]
    fn clip_needs_a_linear_first_layer() {
        let mut model = Sequential::new();
        model.push(oasis_nn::Relu::new());
        assert!(clipped_grad_sum(&mut model, &clip_fixture().1, 1.0).is_err());
    }

    fn split() -> (Dataset, Dataset) {
        let ds = cifar_like_with(3, 24, 8, 2);
        let mut rng = StdRng::seed_from_u64(0);
        ds.split(0.75, &mut rng)
    }

    #[test]
    fn no_noise_learns_separable_classes() {
        let (train, test) = split();
        let cfg = DpConfig {
            noise_multiplier: 0.0,
            clip_norm: 5.0,
            epochs: 12,
            learning_rate: 0.5,
            batch_size: 8,
        };
        let acc = train_linear_with_dp(&train, &test, cfg, 1).unwrap();
        assert!(acc > 0.5, "accuracy {acc} too low without noise");
    }

    #[test]
    fn heavy_noise_destroys_utility() {
        let (train, test) = split();
        let low_noise = DpConfig {
            noise_multiplier: 0.0,
            clip_norm: 5.0,
            epochs: 12,
            learning_rate: 0.5,
            batch_size: 8,
        };
        let heavy_noise = DpConfig {
            noise_multiplier: 50.0,
            ..low_noise
        };
        let clean = train_linear_with_dp(&train, &test, low_noise, 1).unwrap();
        let noisy = train_linear_with_dp(&train, &test, heavy_noise, 1).unwrap();
        assert!(
            noisy < clean,
            "heavy DP noise should reduce accuracy: {noisy} vs {clean}"
        );
    }
}
