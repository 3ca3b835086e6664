//! Federated clients.

use std::sync::Arc;

use oasis_data::Dataset;
use oasis_nn::{flatten_grads, load_params, softmax_cross_entropy, Layer, Mode, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{DefenseStack, Result};

/// Builds a fresh instance of the model architecture. Every
/// participant constructs the same architecture and loads the
/// broadcast weights into it — the FL analogue of agreeing on a model
/// definition file.
pub type ModelFactory = Arc<dyn Fn() -> Sequential + Send + Sync>;

/// The gradients a client uploads after local training
/// (`G_j` in paper Eq. 1).
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// The uploading client.
    pub client_id: usize,
    /// Flattened gradient vector in [`oasis_nn::flatten_grads`] order.
    pub grads: Vec<f32>,
    /// The client's local loss (diagnostic).
    pub loss: f32,
    /// How many samples contributed (after preprocessing — OASIS
    /// expands this).
    pub samples: usize,
}

/// A federated client owning a local data shard.
///
/// The client's defense hook is its [`DefenseStack`]: batch stages
/// (e.g. the OASIS defense from crate `oasis`, which replaces the
/// local batch `D` with the augmented `D′` of Eq. 7) run before
/// gradient computation, and update stages (DP-SGD clip + noise)
/// perturb the flattened update before it is uploaded. The empty
/// stack is the undefended baseline.
pub struct FlClient {
    id: usize,
    data: Dataset,
    defense: Arc<DefenseStack>,
}

impl FlClient {
    /// Creates a client with a local shard and a defense stack.
    pub fn new(id: usize, data: Dataset, defense: Arc<DefenseStack>) -> Self {
        FlClient { id, data, defense }
    }

    /// The client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The client's local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The client's defense stack.
    pub fn defense(&self) -> &DefenseStack {
        &self.defense
    }

    /// The client's deterministic per-round rng stream: the batch
    /// draw, the defense's batch stages and any update-stage noise of
    /// [`FlClient::compute_update_in`] all consume it, so an update
    /// depends only on `(round_seed, client id)`.
    fn round_rng(&self, round_seed: u64) -> StdRng {
        StdRng::seed_from_u64(round_seed ^ (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// How many samples [`FlClient::compute_update`] reports for this
    /// `batch_size` — without drawing a batch, running the defense,
    /// building a model or computing gradients.
    ///
    /// The count is a closed form, the defense stack's
    /// [`DefenseStack::output_len`] of the drawn batch size
    /// `min(batch_size, shard)`, so it is the same for every
    /// `round_seed` and touches neither the rng nor the shard.
    /// Streaming aggregation needs every delivered client's sample
    /// count up front to form FedAvg weights before the first update
    /// is folded.
    pub fn round_samples(&self, batch_size: usize, _round_seed: u64) -> usize {
        self.defense.output_len(batch_size.min(self.data.len()))
    }

    /// Executes one round of local computation on a fresh model from
    /// `factory`: [`FlClient::compute_update_in`] on `factory()`.
    ///
    /// # Errors
    ///
    /// Propagates model-execution failures.
    pub fn compute_update(
        &self,
        factory: &ModelFactory,
        global_params: &[f32],
        batch_size: usize,
        round_seed: u64,
    ) -> Result<ClientUpdate> {
        self.compute_update_in(&mut factory(), global_params, batch_size, round_seed)
    }

    /// Executes one round of local computation on `model`: loads the
    /// broadcast weights into it, runs the defense stack's batch
    /// stages on a sampled batch, computes the full-batch gradient,
    /// and runs the stack's update stages on it — the result is
    /// precisely what a dishonest server gets to inspect.
    ///
    /// `model` may be a resident slot that already ran other clients:
    /// every parameter is overwritten and every gradient zeroed, and
    /// no layer carries other state into a `Mode::Train` step, so the
    /// update is bit-identical to one computed on a fresh model of the
    /// same architecture.
    ///
    /// Update stages apply at client granularity here: the whole
    /// averaged update is clipped to [`DefenseStack::clip_norm`] and
    /// then perturbed (client-level DP). The per-sample record-level
    /// variant lives in the attack harness, which can afford
    /// per-sample gradients.
    ///
    /// Determinism: the drawn batch and any update-stage noise depend
    /// only on `(round_seed, client id)`.
    ///
    /// # Errors
    ///
    /// Propagates model-execution failures, including a `model` whose
    /// parameter count differs from `global_params`.
    pub fn compute_update_in(
        &self,
        model: &mut Sequential,
        global_params: &[f32],
        batch_size: usize,
        round_seed: u64,
    ) -> Result<ClientUpdate> {
        let mut rng = self.round_rng(round_seed);
        let defense_span = oasis_telemetry::span("fl.client.defense");
        let batch = self
            .data
            .sample_batch(batch_size.min(self.data.len()), &mut rng);
        let processed = self.defense.process_batch(&batch, &mut rng);
        drop(defense_span);
        load_params(model, global_params)?;
        model.zero_grad();
        let forward_span = oasis_telemetry::span("fl.client.forward");
        let x = processed.to_matrix();
        let logits = model.forward(&x, Mode::Train)?;
        let loss = softmax_cross_entropy(&logits, &processed.labels)?;
        drop(forward_span);
        // The client uploads parameter gradients only: ∂L/∂x of the
        // first layer is never formed.
        let backward_span = oasis_telemetry::span("fl.client.backward");
        model.backward_params(&loss.grad)?;
        drop(backward_span);
        let flatten_span = oasis_telemetry::span("fl.client.flatten");
        let mut grads = flatten_grads(model);
        drop(flatten_span);
        // The update stages are defense work too, and share its span.
        let defense_span = oasis_telemetry::span("fl.client.defense");
        self.defense.clip_update(&mut grads);
        self.defense
            .perturb_update(&mut grads, processed.len(), &mut rng);
        drop(defense_span);
        Ok(ClientUpdate {
            client_id: self.id,
            grads,
            loss: loss.loss,
            samples: processed.len(),
        })
    }
}

impl std::fmt::Debug for FlClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlClient(id={}, samples={})", self.id, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefenseStack, DpStage};
    use oasis_data::cifar_like_with;
    use oasis_nn::{
        flatten_params, resnet_lite, AvgPoolAll, BatchNorm, Conv2d, Linear, MaxPool2, Relu,
    };

    fn factory(d: usize, classes: usize) -> ModelFactory {
        Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(7);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 16, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(16, classes, &mut rng));
            m
        })
    }

    #[test]
    fn update_has_model_parameter_count() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let mut template = f();
        let global = flatten_params(&mut template);
        let client = FlClient::new(0, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 4, 99).unwrap();
        assert_eq!(update.grads.len(), global.len());
        assert_eq!(update.samples, 4);
        assert!(update.loss.is_finite());
    }

    #[test]
    fn updates_are_deterministic_per_round_seed() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&mut f());
        let client = FlClient::new(1, data, Arc::new(DefenseStack::identity()));
        let a = client.compute_update(&f, &global, 4, 5).unwrap();
        let b = client.compute_update(&f, &global, 4, 5).unwrap();
        let c = client.compute_update(&f, &global, 4, 6).unwrap();
        assert_eq!(a.grads, b.grads);
        assert_ne!(a.grads, c.grads);
    }

    #[test]
    fn update_stage_clips_and_perturbs_the_upload() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&mut f());
        let exact = FlClient::new(0, data.clone(), Arc::new(DefenseStack::identity()))
            .compute_update(&f, &global, 4, 5)
            .unwrap();
        let clip = 0.05f32;
        let defended = FlClient::new(
            0,
            data.clone(),
            Arc::new(DefenseStack::of(DpStage::new(clip, 0.1))),
        )
        .compute_update(&f, &global, 4, 5)
        .unwrap();
        assert_ne!(exact.grads, defended.grads, "DP stage must move the update");
        // Client-level clipping alone bounds the uploaded norm exactly.
        let clipped = FlClient::new(
            0,
            data,
            Arc::new(DefenseStack::of(crate::ClipStage::new(clip))),
        )
        .compute_update(&f, &global, 4, 5)
        .unwrap();
        let norm: f32 = clipped.grads.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm <= clip * 1.0001,
            "update norm {norm} above clip {clip}"
        );
    }

    #[test]
    fn round_samples_predicts_compute_update() {
        let data = cifar_like_with(3, 4, 8, 0);
        let d = data.feature_dim();
        let f = factory(d, 3);
        let global = flatten_params(&mut f());
        // An expanding batch defense: duplicates every sample, so the
        // reported count differs from the drawn batch size.
        struct Doubler;
        impl crate::BatchStage for Doubler {
            fn process(&self, batch: &oasis_data::Batch, _rng: &mut StdRng) -> oasis_data::Batch {
                let mut doubled = batch.clone();
                doubled.images.extend(batch.images.iter().cloned());
                doubled.labels.extend(batch.labels.iter().cloned());
                doubled
            }
            fn output_len(&self, n: usize) -> usize {
                2 * n
            }
        }
        impl crate::Defense for Doubler {
            fn name(&self) -> &str {
                "doubler"
            }
            fn batch_stage(&self) -> Option<&dyn crate::BatchStage> {
                Some(self)
            }
        }
        for (defense, seed) in [
            (Arc::new(DefenseStack::identity()), 5u64),
            (Arc::new(DefenseStack::of(Doubler)), 11u64),
        ] {
            let client = FlClient::new(3, data.clone(), defense);
            let update = client.compute_update(&f, &global, 4, seed).unwrap();
            assert_eq!(client.round_samples(4, seed), update.samples);
        }
    }

    /// Runs one resident model through three clients with batch sizes
    /// 2, 5 and 3, each under different global weights, and checks
    /// every update bit for bit against one computed on a fresh
    /// `factory()` model.
    fn assert_slot_reuse_matches_fresh(f: ModelFactory) {
        let data = cifar_like_with(3, 4, 8, 0);
        let base = flatten_params(&mut f());
        let mut slot = f();
        for (id, batch) in [(0usize, 2usize), (1, 5), (2, 3)] {
            let global: Vec<f32> = base.iter().map(|w| w * (1.0 + 0.25 * id as f32)).collect();
            let client = FlClient::new(id, data.clone(), Arc::new(DefenseStack::identity()));
            let reused = client
                .compute_update_in(&mut slot, &global, batch, 41)
                .unwrap();
            let fresh = client.compute_update(&f, &global, batch, 41).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.grads), bits(&fresh.grads), "client {id}");
            assert_eq!(reused.loss.to_bits(), fresh.loss.to_bits(), "client {id}");
            assert_eq!(reused.samples, fresh.samples);
        }
    }

    fn model_factory(build: fn(&mut StdRng) -> Sequential) -> ModelFactory {
        Arc::new(move || build(&mut StdRng::seed_from_u64(7)))
    }

    #[test]
    fn reused_mlp_slot_matches_a_fresh_model() {
        assert_slot_reuse_matches_fresh(factory(8 * 8 * 3, 3));
    }

    #[test]
    fn reused_conv_slot_matches_a_fresh_model() {
        // The im2col scratch and its validity flag are sized by the
        // batch, so they change between the three clients.
        assert_slot_reuse_matches_fresh(model_factory(|rng| {
            let mut m = Sequential::new();
            m.push(Conv2d::new(3, 4, 3, 1, 1, (8, 8), rng));
            m.push(Relu::new());
            m.push(Linear::new(4 * 8 * 8, 3, rng));
            m
        }));
    }

    #[test]
    fn reused_batchnorm_slot_matches_a_fresh_model() {
        // Running statistics drift with every client, but Train-mode
        // gradients use batch statistics only.
        assert_slot_reuse_matches_fresh(model_factory(|rng| {
            let mut m = Sequential::new();
            m.push(Conv2d::new(3, 4, 3, 1, 1, (8, 8), rng));
            m.push(BatchNorm::new(4));
            m.push(Relu::new());
            m.push(Linear::new(4 * 8 * 8, 3, rng));
            m
        }));
    }

    #[test]
    fn reused_pooling_slot_matches_a_fresh_model() {
        assert_slot_reuse_matches_fresh(model_factory(|rng| {
            let mut m = Sequential::new();
            m.push(Conv2d::new(3, 4, 3, 1, 1, (8, 8), rng));
            m.push(MaxPool2::new(4, 8, 8));
            m.push(Relu::new());
            m.push(AvgPoolAll::new(4));
            m.push(Linear::new(4, 3, rng));
            m
        }));
    }

    #[test]
    fn reused_resnet_slot_matches_a_fresh_model() {
        assert_slot_reuse_matches_fresh(model_factory(|rng| resnet_lite((3, 8, 8), 4, 3, rng)));
    }

    #[test]
    fn gradient_is_nonzero_for_untrained_model() {
        let data = cifar_like_with(2, 2, 8, 1);
        let d = data.feature_dim();
        let f = factory(d, 2);
        let global = flatten_params(&mut f());
        let client = FlClient::new(2, data, Arc::new(DefenseStack::identity()));
        let update = client.compute_update(&f, &global, 2, 0).unwrap();
        assert!(update.grads.iter().any(|&g| g.abs() > 1e-9));
    }
}
