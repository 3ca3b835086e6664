//! Client-side preprocessing, data partitioning and centralized
//! training helpers (used by the Table I experiment).

use std::sync::Arc;

use oasis_data::Dataset;
use oasis_nn::{train_step, Layer, Mode, Optimizer, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{BatchStage, DefenseStack, FlClient, Result};

/// Splits a dataset into `n` i.i.d. client shards, all running the
/// same [`DefenseStack`].
pub fn partition_iid(
    dataset: &Dataset,
    n: usize,
    defense: Arc<DefenseStack>,
    rng: &mut StdRng,
) -> Vec<FlClient> {
    use rand::seq::SliceRandom;
    let mut items = dataset.items().to_vec();
    items.shuffle(rng);
    let per = items.len() / n.max(1);
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let start = i * per;
        let end = if i == n - 1 {
            items.len()
        } else {
            (i + 1) * per
        };
        let shard = Dataset::new(
            format!("{}-shard{}", dataset.name(), i),
            dataset.num_classes(),
            items[start..end].to_vec(),
        );
        clients.push(FlClient::new(i, shard, Arc::clone(&defense)));
    }
    clients
}

/// Splits a dataset into `n` label-skewed (non-IID) client shards via
/// a symmetric Dirichlet(α) allocation per class — the standard
/// heterogeneity model in the FL literature. Small `alpha` (e.g. 0.1)
/// gives near-pathological skew; large `alpha` approaches IID.
///
/// # Panics
///
/// Panics if `alpha` is not positive or `n` is zero.
pub fn partition_dirichlet(
    dataset: &Dataset,
    n: usize,
    alpha: f64,
    defense: Arc<DefenseStack>,
    rng: &mut StdRng,
) -> Vec<FlClient> {
    use rand::seq::SliceRandom;
    use rand::Rng;
    assert!(alpha > 0.0, "Dirichlet concentration must be positive");
    assert!(n > 0, "need at least one client");

    // Marsaglia–Tsang-free Gamma(α) sampling via Johnk's algorithm for
    // α < 1 and sum-of-exponentials boosting; adequate for partition
    // weights.
    let gamma_sample = |a: f64, rng: &mut StdRng| -> f64 {
        let mut acc = 0.0f64;
        let mut shape = a;
        while shape >= 1.0 {
            // Gamma(1) = Exp(1).
            acc += -(1.0 - rng.gen::<f64>()).ln();
            shape -= 1.0;
        }
        if shape > 1e-9 {
            // Johnk's generator for the fractional part.
            loop {
                let u: f64 = rng.gen();
                let v: f64 = rng.gen();
                let x = u.powf(1.0 / shape);
                let y = v.powf(1.0 / (1.0 - shape));
                if x + y <= 1.0 {
                    let e = -(1.0 - rng.gen::<f64>()).ln();
                    acc += e * x / (x + y);
                    break;
                }
            }
        }
        acc
    };

    let mut per_client_items: Vec<Vec<oasis_data::LabeledImage>> =
        (0..n).map(|_| Vec::new()).collect();
    for class in 0..dataset.num_classes() {
        let mut class_items: Vec<_> = dataset
            .items()
            .iter()
            .filter(|it| it.label == class)
            .cloned()
            .collect();
        if class_items.is_empty() {
            continue;
        }
        class_items.shuffle(rng);
        // Dirichlet weights = normalized Gamma draws.
        let weights: Vec<f64> = (0..n)
            .map(|_| gamma_sample(alpha, rng).max(1e-12))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut start = 0usize;
        for (client, &w) in weights.iter().enumerate() {
            let count = if client == n - 1 {
                class_items.len() - start
            } else {
                ((w / total) * class_items.len() as f64).round() as usize
            };
            let end = (start + count).min(class_items.len());
            per_client_items[client].extend(class_items[start..end].iter().cloned());
            start = end;
        }
    }
    per_client_items
        .into_iter()
        .enumerate()
        .map(|(i, items)| {
            let shard = Dataset::new(
                format!("{}-dirichlet{}", dataset.name(), i),
                dataset.num_classes(),
                items,
            );
            FlClient::new(i, shard, Arc::clone(&defense))
        })
        .collect()
}

/// Report from a centralized training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Final test accuracy in `[0, 1]`.
    pub test_accuracy: f64,
}

/// Trains `model` on `train` for `epochs` epochs with the given batch
/// size and preprocessor, then evaluates top-1 accuracy on `test`.
///
/// This is the Table I pipeline: the preprocessor is either the
/// identity (the paper's "Without OASIS" row) or the OASIS defense
/// (every other row).
///
/// # Errors
///
/// Propagates model execution failures.
#[allow(clippy::too_many_arguments)]
pub fn train_centralized(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    train: &Dataset,
    test: &Dataset,
    preprocessor: &dyn BatchStage,
    epochs: usize,
    batch_size: usize,
    seed: u64,
) -> Result<TrainReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut losses = Vec::new();
        for batch in train.shuffled_batches(batch_size, &mut rng) {
            let processed = preprocessor.process(&batch, &mut rng);
            let loss = train_step(model, &processed.to_matrix(), &processed.labels)?;
            optimizer.step(model);
            losses.push(loss);
        }
        epoch_losses.push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
    }
    let test_accuracy = evaluate_accuracy(model, test, batch_size.max(1))?;
    Ok(TrainReport {
        epoch_losses,
        test_accuracy,
    })
}

/// Top-1 accuracy of `model` on `dataset`, evaluated in batches.
///
/// # Errors
///
/// Propagates model execution failures.
pub fn evaluate_accuracy(
    model: &mut Sequential,
    dataset: &Dataset,
    batch_size: usize,
) -> Result<f64> {
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in dataset.batches(batch_size) {
        let x: Tensor = batch.to_matrix();
        let logits = model.forward(&x, Mode::Eval)?;
        let preds = logits.argmax_rows().map_err(oasis_nn::NnError::from)?;
        correct += preds
            .iter()
            .zip(&batch.labels)
            .filter(|(p, l)| p == l)
            .count();
        total += batch.len();
    }
    Ok(if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdentityPreprocessor;
    use oasis_data::{cifar_like_with, Batch};
    use oasis_nn::{Linear, Relu, Sgd};

    #[test]
    fn identity_preprocessor_is_identity() {
        let ds = cifar_like_with(2, 2, 8, 0);
        let batch = Batch::from_items(ds.items().to_vec());
        let mut rng = StdRng::seed_from_u64(0);
        let out = IdentityPreprocessor.process(&batch, &mut rng);
        assert_eq!(out, batch);
    }

    #[test]
    fn partition_covers_all_samples() {
        let ds = cifar_like_with(4, 5, 8, 0);
        let clients = partition_iid(
            &ds,
            3,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(clients.len(), 3);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn dirichlet_partition_covers_all_samples() {
        let ds = cifar_like_with(5, 12, 8, 1);
        let clients = partition_dirichlet(
            &ds,
            4,
            0.5,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(clients.len(), 4);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn small_alpha_skews_labels_more_than_large_alpha() {
        // Measure label skew as the mean (over clients) of the max
        // class share within each client's shard.
        let ds = cifar_like_with(4, 24, 8, 2);
        let skew = |alpha: f64| -> f64 {
            let clients = partition_dirichlet(
                &ds,
                4,
                alpha,
                Arc::new(DefenseStack::identity()),
                &mut StdRng::seed_from_u64(7),
            );
            let mut total = 0.0;
            let mut counted = 0usize;
            for c in clients {
                if c.data().is_empty() {
                    continue;
                }
                let mut counts = vec![0usize; ds.num_classes()];
                for it in c.data().items() {
                    counts[it.label] += 1;
                }
                let max = *counts.iter().max().unwrap() as f64;
                total += max / c.data().len() as f64;
                counted += 1;
            }
            total / counted.max(1) as f64
        };
        let skew_low_alpha = skew(0.05);
        let skew_high_alpha = skew(50.0);
        assert!(
            skew_low_alpha > skew_high_alpha,
            "alpha 0.05 skew {skew_low_alpha:.2} should exceed alpha 50 skew {skew_high_alpha:.2}"
        );
    }

    #[test]
    fn tiny_alpha_concentrates_each_class_on_one_client() {
        // As α → 0 the Dirichlet concentrates each class's mass on
        // one client: per class, a single winner should hold (nearly)
        // all of it, and no sample may be lost.
        let ds = cifar_like_with(4, 24, 8, 5);
        let clients = partition_dirichlet(
            &ds,
            4,
            0.05,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(13),
        );
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len(), "extreme skew must still conserve samples");
        let mut per_class = vec![vec![0usize; clients.len()]; ds.num_classes()];
        for (ci, c) in clients.iter().enumerate() {
            for it in c.data().items() {
                per_class[it.label][ci] += 1;
            }
        }
        let concentrated = per_class
            .iter()
            .filter(|counts| *counts.iter().max().unwrap() * 4 >= 24 * 3)
            .count();
        assert!(
            concentrated >= 3,
            "α=0.05 should hand ≥75% of most classes to a single client, \
             got {concentrated}/4 concentrated classes ({per_class:?})"
        );
    }

    #[test]
    fn underflowing_alpha_is_numerically_safe() {
        // Below α ≈ 1/n·ln(1/u) the Gamma draws underflow `f64` and
        // hit the 1e-12 floor; the partition must stay well-defined —
        // all samples placed, no NaN shares, every count finite —
        // rather than collapsing or crashing.
        let ds = cifar_like_with(3, 12, 8, 4);
        let clients = partition_dirichlet(
            &ds,
            3,
            1e-4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(29),
        );
        assert_eq!(clients.len(), 3);
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(
            total,
            ds.len(),
            "underflowed weights must still place every sample"
        );
        for c in &clients {
            assert!(c.data().len() <= ds.len());
        }
    }

    #[test]
    fn large_alpha_approaches_iid_shares() {
        // At α = 100 the Dirichlet is nearly uniform: every client
        // holds data, and every client's share of every class stays
        // near 1/n.
        let ds = cifar_like_with(4, 40, 8, 6);
        let n = 4;
        let clients = partition_dirichlet(
            &ds,
            n,
            100.0,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(13),
        );
        let total: usize = clients.iter().map(|c| c.data().len()).sum();
        assert_eq!(total, ds.len());
        let per_class = 40.0;
        for c in &clients {
            assert!(
                !c.data().is_empty(),
                "α=100 should leave no client empty-handed"
            );
            let mut counts = vec![0usize; ds.num_classes()];
            for it in c.data().items() {
                counts[it.label] += 1;
            }
            for (class, &count) in counts.iter().enumerate() {
                let share = count as f64 / per_class;
                assert!(
                    (share - 1.0 / n as f64).abs() < 0.15,
                    "client {} share of class {class} is {share:.2}, \
                     expected ~{:.2} at α=100",
                    c.id(),
                    1.0 / n as f64
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "concentration must be positive")]
    fn dirichlet_rejects_nonpositive_alpha() {
        let ds = cifar_like_with(2, 4, 8, 0);
        partition_dirichlet(
            &ds,
            2,
            0.0,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn centralized_training_learns_separable_classes() {
        let ds = cifar_like_with(3, 20, 8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = ds.split(0.8, &mut rng);
        let d = train.feature_dim();
        let mut model = Sequential::new();
        model.push(Linear::new(d, 32, &mut rng));
        model.push(Relu::new());
        model.push(Linear::new(32, 3, &mut rng));
        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        let report = train_centralized(
            &mut model,
            &mut opt,
            &train,
            &test,
            &IdentityPreprocessor,
            20,
            8,
            7,
        )
        .unwrap();
        assert!(
            report.test_accuracy > 0.5,
            "accuracy {} too low",
            report.test_accuracy
        );
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
    }

    #[test]
    fn evaluate_accuracy_on_empty_dataset_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 2, &mut rng));
        let empty = Dataset::new("empty", 2, vec![]);
        assert_eq!(evaluate_accuracy(&mut model, &empty, 4).unwrap(), 0.0);
    }
}
