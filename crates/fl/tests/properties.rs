//! Property tests for the FedAvg algebra of the one weighted fold,
//! [`StreamingAggregator`].

use oasis_fl::StreamingAggregator;
use oasis_wire::CodecSpec;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Sample-weighted FedAvg of `(grads, samples)` updates: each update
/// folds over the lossless wire with weight `samples / total`, the
/// weights the round engine uses.
fn fedavg(updates: &[(Vec<f32>, usize)]) -> Vec<f32> {
    let codec = CodecSpec::Raw.build();
    let total: usize = updates.iter().map(|(_, s)| s).sum();
    let mut agg = StreamingAggregator::new(updates[0].0.len());
    for (grads, samples) in updates {
        let frame = codec.encode(grads).expect("encode");
        agg.fold(&*codec, &frame, *samples as f32 / total as f32)
            .expect("fold");
    }
    agg.as_slice().to_vec()
}

fn random_grads(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-5.0f32..5.0)).collect()
}

proptest! {
    /// FedAvg of identical updates is the identity.
    #[test]
    fn fedavg_identity(
        g in proptest::collection::vec(-10.0f32..10.0, 1..64),
        k in 1usize..8,
    ) {
        let updates: Vec<(Vec<f32>, usize)> = (0..k).map(|_| (g.clone(), 1)).collect();
        let avg = fedavg(&updates);
        for (a, b) in avg.iter().zip(&g) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// FedAvg is permutation invariant.
    #[test]
    fn fedavg_is_permutation_invariant(
        seed in 0u64..1000,
        n in 1usize..32,
        k in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<(Vec<f32>, usize)> =
            (0..k).map(|_| (random_grads(&mut rng, n), 1)).collect();
        let mut reversed = updates.clone();
        reversed.reverse();
        let a = fedavg(&updates);
        let b = fedavg(&reversed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// FedAvg is linear: avg(α·G) = α·avg(G).
    #[test]
    fn fedavg_is_homogeneous(
        seed in 0u64..1000,
        n in 1usize..32,
        alpha in -3.0f32..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<(Vec<f32>, usize)> =
            (0..3).map(|_| (random_grads(&mut rng, n), 1)).collect();
        let scaled: Vec<(Vec<f32>, usize)> = updates
            .iter()
            .map(|(g, s)| (g.iter().map(|v| v * alpha).collect(), *s))
            .collect();
        let base = fedavg(&updates);
        let scaled_avg = fedavg(&scaled);
        for (x, y) in scaled_avg.iter().zip(&base) {
            prop_assert!((x - alpha * y).abs() < 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    /// With equal sample counts the weighted fold is the plain
    /// arithmetic mean.
    #[test]
    fn weighted_equals_plain_for_equal_samples(
        seed in 0u64..1000,
        n in 1usize..32,
        samples in 1usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let updates: Vec<(Vec<f32>, usize)> =
            (0..4).map(|_| (random_grads(&mut rng, n), samples)).collect();
        let weighted = fedavg(&updates);
        for (i, w) in weighted.iter().enumerate() {
            let plain = updates.iter().map(|(g, _)| g[i]).sum::<f32>() / 4.0;
            prop_assert!((plain - w).abs() < 1e-4);
        }
    }

    /// Weighted FedAvg returns a convex combination: bounded by the
    /// per-coordinate min/max of the inputs.
    #[test]
    fn weighted_fedavg_is_convex(
        seed in 0u64..1000,
        n in 1usize..16,
        s1 in 1usize..50,
        s2 in 1usize..50,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = random_grads(&mut rng, n);
        let g2 = random_grads(&mut rng, n);
        let w = fedavg(&[(g1.clone(), s1), (g2.clone(), s2)]);
        for i in 0..n {
            let lo = g1[i].min(g2[i]) - 1e-4;
            let hi = g1[i].max(g2[i]) + 1e-4;
            prop_assert!(w[i] >= lo && w[i] <= hi, "{} not in [{lo}, {hi}]", w[i]);
        }
    }
}
