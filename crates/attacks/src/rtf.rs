//! Robbing the Fed (RTF) — the imprint-module attack of Fowl et al.
//! (ICLR 2022), reimplemented from the paper's construction.
//!
//! The dishonest server replaces the first fully-connected layer with
//! an *imprint module* of `n` neurons:
//!
//! * every row of `W` is the same measurement functional `h` — here
//!   the mean pixel intensity, `h(x) = (1/d)·Σ x_i`;
//! * bias `i` is `−c_i`, where `c_i` is the `(i+1)/(n+1)` quantile of
//!   `h(x)` under the data distribution (the server knows coarse data
//!   statistics and models `h` as a Gaussian).
//!
//! With ReLU, neuron `i` activates iff `h(x) > c_i`, so consecutive
//! neurons differ by exactly the samples landing in measurement bin
//! `(c_i, c_{i+1}]` — and the gradient *difference* of adjacent
//! neurons isolates those samples for Eq. 6 inversion.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::{parallel, Tensor};

use crate::inversion::PAR_MIN_SWEEP_ELEMS;
use crate::{
    attacked_model, dedupe_images, invert_neuron, invert_neuron_difference, probit, ActiveAttack,
    AttackError, Result,
};

/// The RTF imprint attack.
#[derive(Debug, Clone)]
pub struct RtfAttack {
    neurons: usize,
    measurement_mean: f32,
    measurement_std: f32,
}

impl RtfAttack {
    /// Creates the attack with explicit Gaussian measurement
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for zero neurons or
    /// non-positive std.
    pub fn new(neurons: usize, measurement_mean: f32, measurement_std: f32) -> Result<Self> {
        if neurons < 2 {
            return Err(AttackError::BadConfig(
                "RTF needs at least 2 neurons".into(),
            ));
        }
        if measurement_std <= 0.0 {
            return Err(AttackError::BadConfig(
                "measurement std must be positive".into(),
            ));
        }
        Ok(RtfAttack {
            neurons,
            measurement_mean,
            measurement_std,
        })
    }

    /// Calibrates the measurement distribution from sample images —
    /// the paper's assumption that the server knows coarse statistics
    /// of the data domain.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Calibration`] when fewer than two
    /// calibration images are supplied or they have zero variance.
    pub fn calibrated(neurons: usize, calibration: &[Image]) -> Result<Self> {
        if calibration.len() < 2 {
            return Err(AttackError::Calibration(
                "need at least 2 calibration images".into(),
            ));
        }
        let means: Vec<f32> = calibration.iter().map(Image::mean).collect();
        let mu = means.iter().sum::<f32>() / means.len() as f32;
        let var = means.iter().map(|m| (m - mu) * (m - mu)).sum::<f32>() / means.len() as f32;
        if var <= 0.0 {
            return Err(AttackError::Calibration(
                "calibration images have no variance".into(),
            ));
        }
        Self::new(neurons, mu, var.sqrt())
    }

    /// The bias cutoffs `c_1 < … < c_n`.
    pub fn cutoffs(&self) -> Vec<f32> {
        (0..self.neurons)
            .map(|i| {
                let p = (i + 1) as f64 / (self.neurons + 1) as f64;
                self.measurement_mean + self.measurement_std * probit(p) as f32
            })
            .collect()
    }
}

impl ActiveAttack for RtfAttack {
    fn name(&self) -> &'static str {
        "RTF"
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
        // Every row is the measurement functional h(x) = mean(x).
        let row_value = 1.0 / d as f32;
        let mut weight = Tensor::full(&[self.neurons, d], row_value);
        let _ = weight.data_mut(); // rows identical by construction
        let cutoffs = self.cutoffs();
        let bias = Tensor::from_slice(&cutoffs.iter().map(|&c| -c).collect::<Vec<_>>());
        attacked_model(weight, bias, classes, seed)
    }

    fn reconstruct(
        &self,
        grad_weight: &Tensor,
        grad_bias: &Tensor,
        geometry: (usize, usize, usize),
    ) -> Vec<Image> {
        let (c, h, w) = geometry;
        let n = self.neurons;
        let d = c * h * w;
        let invert_bin = |i: usize| -> Option<Image> {
            let rec = if i + 1 < n {
                invert_neuron_difference(
                    grad_weight.row(i).expect("row in bounds"),
                    grad_bias.data()[i],
                    grad_weight.row(i + 1).expect("row in bounds"),
                    grad_bias.data()[i + 1],
                )
            } else {
                // Top bin: h(x) > c_n — the last neuron alone.
                invert_neuron(
                    grad_weight.row(i).expect("row in bounds"),
                    grad_bias.data()[i],
                )
            };
            rec.and_then(|values| Image::from_vec(c, h, w, values).ok())
        };
        // Each bin inverts independently — the sweep fans out across
        // the worker pool (in index order, so the pool fed to dedupe
        // is the same sequence at any thread count).
        let candidates = parallel::map_range_min(n, n * d, PAR_MIN_SWEEP_ELEMS, invert_bin);
        dedupe_images(candidates.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_metrics::{match_greedy, PSNR_CAP};
    use oasis_nn::{train_step, Linear};

    fn structured_images(count: usize, side: usize, seed: u64) -> Vec<Image> {
        let ds = oasis_data::cifar_like_with(count, 1, side, seed);
        ds.items().iter().map(|it| it.image.clone()).collect()
    }

    #[test]
    fn cutoffs_are_increasing_quantiles() {
        let attack = RtfAttack::new(100, 0.4, 0.1).unwrap();
        let cuts = attack.cutoffs();
        assert_eq!(cuts.len(), 100);
        for pair in cuts.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // Median cutoff near the mean.
        assert!((cuts[49] - 0.4).abs() < 0.01);
    }

    #[test]
    fn calibration_fits_sample_statistics() {
        let imgs = structured_images(40, 16, 3);
        let attack = RtfAttack::calibrated(64, &imgs).unwrap();
        let emp_mean = imgs.iter().map(Image::mean).sum::<f32>() / imgs.len() as f32;
        assert!((attack.measurement_mean - emp_mean).abs() < 1e-5);
        assert!(attack.measurement_std > 0.0);
    }

    #[test]
    fn calibration_requires_variance() {
        let imgs = vec![Image::new(1, 4, 4), Image::new(1, 4, 4)];
        assert!(RtfAttack::calibrated(8, &imgs).is_err());
    }

    #[test]
    fn undefended_small_batch_is_perfectly_reconstructed() {
        // End-to-end: RTF against an undefended batch of 4 structured
        // images with plenty of bins must reconstruct every sample at
        // (numerically) perfect PSNR — the paper's WO baseline.
        let imgs = structured_images(64, 12, 7);
        let attack = RtfAttack::calibrated(256, &imgs).unwrap();
        let batch: Vec<Image> = imgs[..4].to_vec();
        let geometry = batch[0].dims();
        let mut model = attack.build_model(geometry, 10, 0).unwrap();

        let d = geometry.0 * geometry.1 * geometry.2;
        let mut x = Tensor::zeros(&[4, d]);
        for (i, img) in batch.iter().enumerate() {
            x.row_mut(i).unwrap().copy_from_slice(img.data());
        }
        train_step(&mut model, &x, &[0, 1, 2, 3]).unwrap();

        let lin = model.layer_as::<Linear>(0).unwrap();
        let recons = attack.reconstruct(lin.grad_weight(), lin.grad_bias(), geometry);
        assert!(!recons.is_empty());
        let matches = match_greedy(&recons, &batch);
        assert_eq!(matches.len(), 4);
        for m in &matches {
            assert!(
                m.psnr > 100.0,
                "sample {} reconstructed at only {:.1} dB",
                m.original_idx,
                m.psnr
            );
        }
        assert!(matches.iter().any(|m| m.psnr >= PSNR_CAP - 30.0));
    }

    #[test]
    fn new_rejects_degenerate_configs() {
        assert!(RtfAttack::new(1, 0.5, 0.1).is_err());
        assert!(RtfAttack::new(10, 0.5, 0.0).is_err());
    }
}
