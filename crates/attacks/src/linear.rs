//! Gradient inversion on linear models (paper §IV-D).
//!
//! The most restrictive setting from the literature: the model is a
//! single fully-connected layer trained with softmax (logistic
//! regression) loss, and each training batch contains images with
//! **unique labels**. The server needs no malicious modification at
//! all — the gradient row of each class is already dominated by the
//! one sample of that class, so plain Eq. 6 inversion per class row
//! reveals the data.

use oasis_image::Image;
use oasis_nn::{Linear, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{dedupe_images, invert_neuron, ActiveAttack, AttackError, Result};

/// The linear-model inversion attack.
///
/// `classes` doubles as the number of "attacked neurons": each class
/// row of the weight matrix is one reconstruction channel.
#[derive(Debug, Clone)]
pub struct LinearModelAttack {
    classes: usize,
}

impl LinearModelAttack {
    /// Creates the attack for a `classes`-way linear model.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadConfig`] for fewer than 2 classes.
    pub fn new(classes: usize) -> Result<Self> {
        if classes < 2 {
            return Err(AttackError::BadConfig("need at least 2 classes".into()));
        }
        Ok(LinearModelAttack { classes })
    }
}

impl ActiveAttack for LinearModelAttack {
    fn name(&self) -> &'static str {
        "LinearInv"
    }

    fn attacked_neurons(&self) -> usize {
        self.classes
    }

    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential> {
        if classes != self.classes {
            return Err(AttackError::BadConfig(format!(
                "attack configured for {} classes, asked to build {classes}",
                self.classes
            )));
        }
        let (c, h, w) = geometry;
        let d = c * h * w;
        // An ordinary, honestly-initialized single-layer model: this
        // attack requires no tampering.
        let mut rng = StdRng::seed_from_u64(seed);
        let model_layer = Linear::new(d, classes, &mut rng);
        let mut model = Sequential::new();
        model.push(model_layer);
        Ok(model)
    }

    fn reconstruct(
        &self,
        grad_weight: &Tensor,
        grad_bias: &Tensor,
        geometry: (usize, usize, usize),
    ) -> Vec<Image> {
        let (c, h, w) = geometry;
        let mut pool = Vec::new();
        for class in 0..self.classes {
            if let Some(mut values) = invert_neuron(
                grad_weight.row(class).expect("class row"),
                grad_bias.data()[class],
            ) {
                // The softmax cross-terms scale the dominant sample by
                // (1−p)/(… ), so the raw ratio over- or under-shoots
                // the [0,1] range. Min-max normalization (the standard
                // presentation step for gradient-inversion outputs)
                // restores a comparable intensity range.
                let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                if hi - lo > 1e-9 {
                    for v in &mut values {
                        *v = (*v - lo) / (hi - lo);
                    }
                }
                if let Ok(img) = Image::from_vec(c, h, w, values) {
                    pool.push(img);
                }
            }
        }
        dedupe_images(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_attack;
    use oasis_data::{cifar_like_with, Batch};
    use oasis_fl::DefenseStack;

    #[test]
    fn unique_label_batch_leaks_content() {
        let ds = cifar_like_with(8, 3, 12, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let batch = ds.sample_batch_unique_labels(6, &mut rng);
        let attack = LinearModelAttack::new(8).unwrap();
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 8, 1).unwrap();
        // Linear inversion is approximate (softmax cross-terms), but
        // content must be clearly recognizable for most samples.
        assert!(
            outcome.mean_psnr() > 14.0,
            "mean PSNR {:.1} dB too low for undefended linear inversion",
            outcome.mean_psnr()
        );
    }

    #[test]
    fn duplicate_labels_blur_the_class_row() {
        // With two samples sharing a class, that class row mixes them:
        // the linear combination the paper's defense leverages via
        // same-label augmentation. Invert the target sample's class
        // row directly in both settings and compare.
        use crate::invert_neuron;
        use oasis_metrics::psnr;
        use oasis_nn::{train_step, Linear};

        // Many classes keep the softmax cross-terms small (p ≈ 1/k),
        // as with the paper's CIFAR100/ImageNet label spaces — the
        // regime where the undefended class row is clean enough for
        // the blur effect to be visible.
        let classes = 100;
        let ds = cifar_like_with(classes, 2, 12, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let unique = ds.sample_batch_unique_labels(3, &mut rng);
        let mut dup_images = unique.images.clone();
        let mut dup_labels = unique.labels.clone();
        // Add a *rotated* copy of sample 0 with the same label —
        // exactly what the OASIS preprocessor does.
        dup_images.push(unique.images[0].rotate90(1));
        dup_labels.push(unique.labels[0]);
        let dup = Batch::new(dup_images, dup_labels);

        let attack = LinearModelAttack::new(classes).unwrap();
        let geometry = unique.images[0].dims();
        let class_row = unique.labels[0];

        let invert_class_row = |batch: &Batch| -> f64 {
            let mut model = attack.build_model(geometry, classes, 1).unwrap();
            train_step(&mut model, &batch.to_matrix(), &batch.labels).unwrap();
            let lin = model.layer_as::<Linear>(0).unwrap();
            let mut values = invert_neuron(
                lin.grad_weight().row(class_row).unwrap(),
                lin.grad_bias().data()[class_row],
            )
            .expect("class row has signal");
            let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
            let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for v in &mut values {
                *v = (*v - lo) / (hi - lo);
            }
            let rec =
                oasis_image::Image::from_vec(geometry.0, geometry.1, geometry.2, values).unwrap();
            psnr(&rec, &unique.images[0])
        };

        let clean = invert_class_row(&unique);
        let blurred = invert_class_row(&dup);
        assert!(
            blurred < clean,
            "mixing a rotated copy into the class row must blur it: {blurred:.1} vs {clean:.1} dB"
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(LinearModelAttack::new(1).is_err());
        assert!(LinearModelAttack::new(2).is_ok());
    }

    #[test]
    fn build_rejects_mismatched_classes() {
        let attack = LinearModelAttack::new(4).unwrap();
        assert!(attack.build_model((1, 4, 4), 5, 0).is_err());
    }
}
