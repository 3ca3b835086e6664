//! Curious Abandon Honesty (CAH) — the trap-weights attack of
//! Boenisch et al. (EuroS&P 2023), reimplemented from the paper's
//! construction.
//!
//! The malicious layer's rows are *trap weights*: random vectors in
//! which a random half of the coordinates is negated and rescaled by a
//! factor γ. For non-negative inputs (images), γ (or, in the
//! calibrated variant, a per-row bias at a data quantile) controls the
//! probability that a neuron activates; the attacker tunes it so each
//! neuron fires for only a small fraction of inputs. A neuron
//! activated by exactly one sample yields that sample *exactly* via
//! Eq. 6 inversion.
//!
//! Two constructors:
//!
//! * [`CahAttack::new`] — the paper-literal variant: zero biases,
//!   activation controlled only by the global γ. Per-row activation
//!   probabilities are over-dispersed (some rows fire for most
//!   inputs, many never fire).
//! * [`CahAttack::calibrated`] — the strongest-attack configuration
//!   used by the evaluation (the OASIS paper configures every attack
//!   "to have the highest success rate", §IV-A): each row's bias is
//!   set at the `1−p` quantile of that row's response over a
//!   calibration set, pinning every neuron's activation probability
//!   at the target `p`.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::{parallel, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inversion::PAR_MIN_SWEEP_ELEMS;
use crate::{attacked_model, dedupe_images, invert_neuron, ActiveAttack, AttackError, Result};

/// Default activation probability target.
///
/// A fixed 10% target (rather than `1/B` per batch size) reproduces
/// the paper's qualitative findings: near-perfect reconstruction of
/// undefended small batches, degradation at batch 64 (Figure 4's
/// trend), and the MR-fails-at-B=8 / MR+SH-succeeds contrast of
/// Figure 6. The mechanism is binomial collision: a neuron leaks a
/// sample with probability `p·(1−p)^{m−1}` where `m` is the effective
/// batch size, so expanding `m` from 32 (MR) to 56 (MR+SH) multiplies
/// the leak rate by `(1−p)^{24} ≈ 0.08` — exactly the integration
/// effect the paper reports.
pub const DEFAULT_ACTIVATION_TARGET: f64 = 0.10;

/// The CAH trap-weights attack.
#[derive(Debug, Clone)]
pub struct CahAttack {
    neurons: usize,
    gamma: f32,
    weight_seed: u64,
    /// Per-row biases from quantile calibration (None ⇒ zero biases).
    biases: Option<Vec<f32>>,
    /// Input dimension the biases were calibrated for.
    calibrated_dim: Option<usize>,
}

impl CahAttack {
    /// Paper-literal trap weights: zero biases, activation controlled
    /// by the global negative-scaling factor γ.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for zero neurons or γ ≤ 0.
    pub fn new(neurons: usize, gamma: f32, weight_seed: u64) -> Result<Self> {
        if neurons == 0 {
            return Err(AttackError::BadConfig("CAH needs at least 1 neuron".into()));
        }
        if gamma <= 0.0 {
            return Err(AttackError::BadConfig("gamma must be positive".into()));
        }
        Ok(CahAttack {
            neurons,
            gamma,
            weight_seed,
            biases: None,
            calibrated_dim: None,
        })
    }

    /// Strongest-attack variant: per-row biases at the `1−target`
    /// response quantile over `calibration` images, pinning each
    /// neuron's activation probability at `target`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Calibration`] if the calibration set is
    /// empty or the target is not in `(0, 1)`.
    pub fn calibrated(
        neurons: usize,
        target: f64,
        calibration: &[Image],
        weight_seed: u64,
    ) -> Result<Self> {
        if calibration.is_empty() {
            return Err(AttackError::Calibration("empty calibration set".into()));
        }
        if !(target > 0.0 && target < 1.0) {
            return Err(AttackError::Calibration(format!(
                "unreachable target {target}"
            )));
        }
        let d = calibration[0].numel();
        let gamma = 1.0f32;
        let w = trap_weights(neurons, d, gamma, weight_seed);
        let mut biases = Vec::with_capacity(neurons);
        for r in 0..neurons {
            let row = w.row(r).expect("row in bounds");
            let mut responses: Vec<f32> = calibration
                .iter()
                .map(|img| row.iter().zip(img.data()).map(|(&a, &b)| a * b).sum())
                .collect();
            responses.sort_by(f32::total_cmp);
            // Bias at the (1−target) quantile: P(z > −b) ≈ target.
            let pos = ((1.0 - target) * (responses.len() - 1) as f64).round() as usize;
            biases.push(-responses[pos]);
        }
        Ok(CahAttack {
            neurons,
            gamma,
            weight_seed,
            biases: Some(biases),
            calibrated_dim: Some(d),
        })
    }

    /// The negative-scaling factor γ.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }
}

/// Builds `rows` trap-weight rows of width `d`: |N(0,1)| magnitudes, a
/// random half of coordinates negated and scaled by γ.
fn trap_weights(rows: usize, d: usize, gamma: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Tensor::randn(&[rows, d], &mut rng).map(f32::abs);
    let mut indices: Vec<usize> = (0..d).collect();
    for r in 0..rows {
        indices.shuffle(&mut rng);
        let row = w.row_mut(r).expect("row in bounds");
        for &i in indices.iter().take(d / 2) {
            row[i] *= -gamma;
        }
    }
    // Normalize rows so pre-activations stay O(1) for unit images.
    let scale = 1.0 / (d as f32).sqrt();
    w.scale_in_place(scale);
    w
}

impl ActiveAttack for CahAttack {
    fn name(&self) -> &'static str {
        "CAH"
    }

    fn attacked_neurons(&self) -> usize {
        self.neurons
    }

    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential> {
        let (c, h, w) = geometry;
        let d = c * h * w;
        if let Some(cal_d) = self.calibrated_dim {
            if cal_d != d {
                return Err(AttackError::BadConfig(format!(
                    "attack calibrated for d={cal_d}, asked to build d={d}"
                )));
            }
        }
        let weight = trap_weights(self.neurons, d, self.gamma, self.weight_seed);
        let bias = match &self.biases {
            Some(b) => Tensor::from_slice(b),
            None => Tensor::zeros(&[self.neurons]),
        };
        attacked_model(weight, bias, classes, seed)
    }

    fn reconstruct(
        &self,
        grad_weight: &Tensor,
        grad_bias: &Tensor,
        geometry: (usize, usize, usize),
    ) -> Vec<Image> {
        let (c, h, w) = geometry;
        let d = c * h * w;
        let invert_trap = |i: usize| -> Option<Image> {
            invert_neuron(
                grad_weight.row(i).expect("row in bounds"),
                grad_bias.data()[i],
            )
            .and_then(|values| Image::from_vec(c, h, w, values).ok())
        };
        // Per-trap-neuron Eq. 6 inversions are independent — fan the
        // sweep out across the worker pool, keeping index order so
        // dedupe sees the same candidate sequence at any thread count.
        let candidates = parallel::map_range_min(
            self.neurons,
            self.neurons * d,
            PAR_MIN_SWEEP_ELEMS,
            invert_trap,
        );
        dedupe_images(candidates.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_data::cifar_like_with;
    use oasis_metrics::match_greedy;
    use oasis_nn::{train_step, Linear};

    fn structured_images(count: usize, side: usize, seed: u64) -> Vec<Image> {
        let ds = cifar_like_with(count, 1, side, seed);
        ds.items().iter().map(|it| it.image.clone()).collect()
    }

    #[test]
    fn trap_weights_have_half_negative_entries() {
        let w = trap_weights(10, 100, 2.0, 0);
        for r in 0..10 {
            let neg = w.row(r).unwrap().iter().filter(|&&v| v < 0.0).count();
            assert_eq!(neg, 50, "row {r} has {neg} negative entries");
        }
    }

    #[test]
    fn calibration_pins_per_row_activation_probability() {
        let imgs = structured_images(96, 12, 5);
        let target = 0.1;
        let attack = CahAttack::calibrated(32, target, &imgs, 7).unwrap();
        // Measure per-row activation on a fresh sample of images.
        let fresh = structured_images(80, 12, 99);
        let d = fresh[0].numel();
        let w = trap_weights(32, d, attack.gamma(), 7);
        let biases = attack.biases.as_ref().unwrap();
        let mut rates = Vec::new();
        for (r, &bias) in biases.iter().enumerate().take(32) {
            let row = w.row(r).unwrap();
            let active = fresh
                .iter()
                .filter(|img| {
                    let z: f32 = row.iter().zip(img.data()).map(|(&a, &b)| a * b).sum();
                    z + bias > 0.0
                })
                .count();
            rates.push(active as f64 / fresh.len() as f64);
        }
        let mean_rate = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (mean_rate - target).abs() < 0.08,
            "mean per-row activation {mean_rate} far from target {target}"
        );
    }

    #[test]
    fn higher_gamma_means_fewer_activations() {
        let imgs = structured_images(32, 10, 3);
        let d = imgs[0].numel();
        let count_active = |gamma: f32| -> usize {
            let w = trap_weights(64, d, gamma, 11);
            let mut active = 0;
            for img in &imgs {
                for r in 0..64 {
                    let z: f32 = w
                        .row(r)
                        .unwrap()
                        .iter()
                        .zip(img.data())
                        .map(|(&a, &b)| a * b)
                        .sum();
                    if z > 0.0 {
                        active += 1;
                    }
                }
            }
            active
        };
        assert!(count_active(0.5) > count_active(4.0));
    }

    #[test]
    fn undefended_batch_leaks_samples() {
        // CAH against an undefended batch: singleton-activated neurons
        // must reconstruct samples perfectly.
        let calib = structured_images(96, 12, 1);
        let attack = CahAttack::calibrated(192, DEFAULT_ACTIVATION_TARGET, &calib, 13).unwrap();
        let batch = structured_images(6, 12, 9);
        let geometry = batch[0].dims();
        let mut model = attack.build_model(geometry, 10, 0).unwrap();

        let d = geometry.0 * geometry.1 * geometry.2;
        let mut x = Tensor::zeros(&[6, d]);
        for (i, img) in batch.iter().enumerate() {
            x.row_mut(i).unwrap().copy_from_slice(img.data());
        }
        train_step(&mut model, &x, &[0, 1, 2, 3, 4, 5]).unwrap();

        let lin = model.layer_as::<Linear>(0).unwrap();
        let recons = attack.reconstruct(lin.grad_weight(), lin.grad_bias(), geometry);
        assert!(!recons.is_empty(), "no reconstructions at all");
        let matches = match_greedy(&recons, &batch);
        let perfect = matches.iter().filter(|m| m.psnr > 100.0).count();
        assert!(
            perfect >= 4,
            "only {perfect}/6 samples leaked; PSNRs: {:?}",
            matches.iter().map(|m| m.psnr as i64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn build_rejects_mismatched_dimension() {
        let calib = structured_images(16, 8, 2);
        let attack = CahAttack::calibrated(16, 0.1, &calib, 0).unwrap();
        assert!(attack.build_model((3, 8, 8), 4, 0).is_ok());
        assert!(attack.build_model((3, 16, 16), 4, 0).is_err());
    }

    #[test]
    fn constructor_validates() {
        assert!(CahAttack::new(0, 1.0, 0).is_err());
        assert!(CahAttack::new(10, 0.0, 0).is_err());
        assert!(CahAttack::new(10, 1.0, 0).is_ok());
    }

    #[test]
    fn calibration_rejects_empty_and_bad_targets() {
        let imgs = structured_images(4, 8, 0);
        assert!(CahAttack::calibrated(8, 0.1, &[], 0).is_err());
        assert!(CahAttack::calibrated(8, 0.0, &imgs, 0).is_err());
        assert!(CahAttack::calibrated(8, 1.5, &imgs, 0).is_err());
    }
}
