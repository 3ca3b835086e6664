//! Library ops broken into their public calls, one timed step at a
//! time — the traced run's instruments.
//!
//! Each function here redoes, call for call, what one library op
//! does, so that it can time every layer from outside the program.
//! Where the library keys a stream with a private constant, the
//! constant is repeated below; the equivalence checks (every traced
//! op, and `tests/equivalence.rs`) compare each stepped op's outputs
//! bit for bit with the library op it breaks down, so a drift in any
//! of them fails the run instead of skewing it.

use std::time::Instant;

use oasis_attacks::ActiveAttack;
use oasis_data::Batch;
use oasis_fl::{DefenseStack, FlClient, FlServer, ModelFactory};
use oasis_image::Image;
use oasis_metrics::{best_psnr_per_original, match_greedy_coarse, Summary};
use oasis_nn::{
    flatten_grads, load_grads, load_params, softmax_cross_entropy, Layer, Linear, Mode, Sequential,
};
use oasis_population::{CohortScheduler, Population, StreamingAggregator};
use oasis_tensor::parallel;
use oasis_wire::{DeliveryStatus, FrameBuf, Submission, UpdateCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{measure, Record};

/// Salt of the attacked client's rng in `oasis_attacks::run_attack`.
const ATTACK_CLIENT_SALT: u64 = 0x00DE_F317;
/// Downsampled side the attack harness matches reconstructions at.
const COARSE_MATCH_SIDE: usize = 8;
/// Multiplier keying a client's per-round rng by its id
/// (`FlClient::compute_update`).
const CLIENT_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// What a stepped attacked round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSteps {
    /// PSNR of each matched reconstruction, best first.
    pub matched_psnrs: Vec<f64>,
    /// For every original, the best PSNR any reconstruction reached.
    pub per_original_best: Vec<f64>,
    /// The clamped reconstruction pool that was scored.
    pub reconstructions: Vec<Image>,
}

impl AttackSteps {
    /// Mean matched PSNR (the library's `AttackOutcome::mean_psnr`).
    pub fn mean_psnr(&self) -> f64 {
        Summary::from_values(&self.matched_psnrs).mean
    }

    /// Share of originals leaked above `threshold_db`.
    pub fn leak_rate(&self, threshold_db: f64) -> f64 {
        if self.per_original_best.is_empty() {
            return 0.0;
        }
        let leaked = self
            .per_original_best
            .iter()
            .filter(|&&p| p > threshold_db)
            .count();
        leaked as f64 / self.per_original_best.len() as f64
    }
}

/// Multiply-adds of every `Linear` layer's forward and backward GEMMs
/// for `rows` input rows, as flops: `x·Wᵀ`, `δᵀ·x` and `δ·W`, each
/// `2·rows·in·out`.
pub fn gemm_flop(model: &Sequential, rows: usize) -> f64 {
    (0..model.len())
        .filter_map(|i| model.layer_as::<Linear>(i))
        .map(|l| 6.0 * rows as f64 * l.in_features() as f64 * l.out_features() as f64)
        .sum()
}

/// One attacked round, step by step: `oasis_attacks::run_attack`
/// (`codec == None`) or `run_attack_over_wire`, for stacks without
/// per-sample clipping.
///
/// # Errors
///
/// A message naming the step that failed.
pub fn stepped_attack(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
    codec: Option<&dyn UpdateCodec>,
    rec: &mut Record,
) -> Result<AttackSteps, String> {
    if defense.clip_norm().is_some() {
        return Err("stepped attack covers stacks without per-sample clipping".into());
    }
    let geometry = batch.images.first().ok_or("empty batch")?.dims();
    let mut model = rec
        .time("attacks.build_model_ms", || {
            attack.build_model(geometry, classes, seed)
        })
        .map_err(|e| format!("build_model: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ ATTACK_CLIENT_SALT);
    let processed = rec.time("augment.process_batch_ms", || {
        defense.process_batch(batch, &mut rng)
    });
    rec.add("augment.images_in", batch.len() as f64);
    rec.add("augment.images_out", processed.len() as f64);

    let (mut update, _loss) = forward_backward(&mut model, &processed, rec)?;
    defense.perturb_update(&mut update, processed.len(), &mut rng);
    let received = match codec {
        None => update,
        Some(codec) => round_trip(codec, update, rec)?,
    };

    let recons = rec.time(
        "attacks.reconstruct_ms",
        || -> Result<Vec<Image>, String> {
            load_grads(&mut model, &received).map_err(|e| format!("load_grads: {e}"))?;
            let lin = model
                .layer_as::<Linear>(0)
                .ok_or("malicious layer missing")?;
            Ok(attack.reconstruct(lin.grad_weight(), lin.grad_bias(), geometry))
        },
    )?;
    rec.add("attacks.recons", recons.len() as f64);
    rec.add("attacks.neurons", attack.attacked_neurons() as f64);

    Ok(rec.time("metrics.score_ms", || {
        let recons: Vec<Image> = recons.into_iter().map(|r| r.clamp01()).collect();
        let matches = match_greedy_coarse(&recons, &batch.images, COARSE_MATCH_SIDE);
        AttackSteps {
            matched_psnrs: matches.iter().map(|m| m.psnr).collect(),
            per_original_best: best_psnr_per_original(&recons, &batch.images),
            reconstructions: recons,
        }
    }))
}

/// Zeroes the gradients, runs forward, loss and backward on `batch`,
/// and returns the flat gradient and the loss. Charges
/// `nn.forward_ms` (input assembly, forward, loss), `nn.backward_ms`
/// (zeroing, backward, flattening) and the GEMM flop count.
fn forward_backward(
    model: &mut Sequential,
    batch: &Batch,
    rec: &mut Record,
) -> Result<(Vec<f32>, f32), String> {
    rec.time("nn.backward_ms", || model.zero_grad());
    let out = rec.time("nn.forward_ms", || {
        let x = batch.to_matrix();
        let logits = model.forward(&x, Mode::Train)?;
        softmax_cross_entropy(&logits, &batch.labels)
    });
    let out = out.map_err(|e| format!("forward: {e}"))?;
    let grads = rec.time("nn.backward_ms", || -> Result<Vec<f32>, String> {
        model
            .backward(&out.grad)
            .map_err(|e| format!("backward: {e}"))?;
        Ok(flatten_grads(model))
    })?;
    rec.add("tensor.gemm_flop", gemm_flop(model, batch.len()));
    Ok((grads, out.loss))
}

/// Encodes `update` and decodes it back into the same buffer, as the
/// attack harness does.
fn round_trip(
    codec: &dyn UpdateCodec,
    update: Vec<f32>,
    rec: &mut Record,
) -> Result<Vec<f32>, String> {
    let (encoded, cost) = measure(|| codec.encode(&update));
    rec.charge("wire.encode_ms", cost);
    rec.add("wire.encode_allocs", cost.allocs as f64);
    let encoded = encoded.map_err(|e| format!("encode: {e}"))?;
    rec.add("wire.encode_bytes", encoded.byte_size() as f64);
    rec.add("wire.raw_bytes", encoded.raw_byte_size() as f64);
    let mut received = update;
    rec.time("wire.decode_ms", || {
        codec.decode_to(&encoded, &mut received)
    })
    .map_err(|e| format!("decode: {e}"))?;
    Ok(received)
}

/// One cohort round on `server`, step by step:
/// `oasis_population::CohortRunner::run_round` with the cohort drawn
/// from `population` by `scheduler` off `rng`. On return the server
/// holds the stepped weights and its round counter has advanced.
///
/// Besides the per-layer times it records the pool's busy and
/// capacity time over each parallel front (`tensor.pool_busy_ms`,
/// `tensor.pool_capacity_ms`). Returns `(cohort, delivered)`.
///
/// # Errors
///
/// A message naming the step that failed.
pub fn stepped_round(
    server: &mut FlServer,
    population: &Population,
    scheduler: &mut CohortScheduler,
    rng: &mut StdRng,
    rec: &mut Record,
) -> Result<(usize, usize), String> {
    let m = scheduler.cohort_size(server.config().clients_per_round);
    let (cohort, round_seed) = rec.time("population.sample_ms", || {
        let (cohort, seed) = scheduler.sample(m, rng);
        (cohort.to_vec(), seed)
    });

    let (global, codec, bytes_up_each, net, round) = rec.time("fl.broadcast_ms", || {
        let global = server.broadcast_weights();
        let codec = server.wire().codec().build();
        let bytes_up_each = codec.encoded_len(global.len());
        (
            global,
            codec,
            bytes_up_each,
            server.wire().net,
            server.round(),
        )
    });
    let n = global.len();

    let delivered: Vec<u32> = rec.time("wire.deliver_ms", || {
        cohort
            .iter()
            .copied()
            .filter(|&id| {
                let sub = Submission {
                    client_id: id as usize,
                    bytes_up: bytes_up_each,
                    bytes_down: n * 4,
                };
                net.delivery(round_seed, round as u64, &sub).status == DeliveryStatus::Delivered
            })
            .collect()
    });
    let counts = (cohort.len(), delivered.len());
    if delivered.is_empty() {
        server.set_round(round + 1);
        return Ok(counts);
    }

    let batch_size = server.config().local_batch_size;
    // Meta pre-pass: every delivered client's sample count, for the
    // FedAvg weights.
    let samples: Vec<(usize, Record)> = front(rec, &delivered, |_, &id, lane| {
        let client = lane.time("population.hydrate_ms", || {
            population.hydrate(population.descriptor(id as usize))
        });
        lane.time("fl.round_samples_ms", || {
            client.round_samples(batch_size, round_seed)
        })
    });
    let mut total = 0usize;
    for (s, lane) in &samples {
        total += s;
        rec.merge(lane);
    }
    if total == 0 {
        return Err("weighted FedAvg over zero samples".into());
    }

    let factory = server.factory().clone();
    let wave_width = parallel::effective_parallelism()
        .min(delivered.len())
        .max(1);
    let mut agg = StreamingAggregator::new(n);
    let mut scratch = FrameBuf::new();
    for wave in delivered.chunks(wave_width) {
        let frames = front(rec, wave, |_, &id, lane| -> Result<_, String> {
            let (client, cost) = measure(|| population.hydrate(population.descriptor(id as usize)));
            lane.charge("population.hydrate_ms", cost);
            lane.add("population.hydrate_bytes", cost.bytes as f64);
            let (grads, _loss, samples) =
                stepped_client_update(&client, &factory, &global, batch_size, round_seed, lane)?;
            let (encoded, cost) = measure(|| codec.encode(&grads));
            lane.charge("wire.encode_ms", cost);
            lane.add("wire.encode_allocs", cost.allocs as f64);
            let encoded = encoded.map_err(|e| format!("encode: {e}"))?;
            lane.add("wire.encode_bytes", encoded.byte_size() as f64);
            lane.add("wire.raw_bytes", encoded.raw_byte_size() as f64);
            Ok((samples, encoded))
        });
        for (frame, lane) in frames {
            rec.merge(&lane);
            let (samples, encoded) = frame?;
            // The fold decodes internally (`population.fold_ms` includes
            // it); the decode is also timed on its own, into a scratch
            // slot the fold never sees.
            rec.time("wire.decode_ms", || {
                codec.decode_view(&encoded, &mut scratch).map(|_| ())
            })
            .map_err(|e| format!("decode: {e}"))?;
            rec.time("population.fold_ms", || {
                agg.fold(&*codec, &encoded, samples as f32 / total as f32)
            })
            .map_err(|e| format!("fold: {e}"))?;
        }
    }
    rec.time("fl.apply_update_ms", || server.apply_update(agg.as_slice()))
        .map_err(|e| format!("apply_update: {e}"))?;
    server.set_round(round + 1);
    Ok(counts)
}

/// One client's local step, call by call:
/// `oasis_fl::FlClient::compute_update`. Returns the flat update, the
/// loss and the sample count.
///
/// # Errors
///
/// A message naming the step that failed.
pub fn stepped_client_update(
    client: &FlClient,
    factory: &ModelFactory,
    global: &[f32],
    batch_size: usize,
    round_seed: u64,
    rec: &mut Record,
) -> Result<(Vec<f32>, f32, usize), String> {
    let start = Instant::now();
    let mut rng =
        StdRng::seed_from_u64(round_seed ^ (client.id() as u64).wrapping_mul(CLIENT_GOLDEN));
    let data = client.data();
    let batch = rec.time("data.sample_batch_ms", || {
        data.sample_batch(batch_size.min(data.len()), &mut rng)
    });
    let processed = rec.time("augment.process_batch_ms", || {
        client.defense().process_batch(&batch, &mut rng)
    });
    rec.add("augment.images_in", batch.len() as f64);
    rec.add("augment.images_out", processed.len() as f64);
    let (model, cost) = measure(|| factory());
    rec.charge("nn.factory_ms", cost);
    rec.add("nn.factory_allocs", cost.allocs as f64);
    let mut model = model;
    rec.time("nn.load_params_ms", || load_params(&mut model, global))
        .map_err(|e| format!("load_params: {e}"))?;
    let (mut grads, loss) = forward_backward(&mut model, &processed, rec)?;
    client.defense().clip_update(&mut grads);
    client
        .defense()
        .perturb_update(&mut grads, processed.len(), &mut rng);
    rec.add("fl.client_step_ms", start.elapsed().as_secs_f64() * 1e3);
    Ok((grads, loss, processed.len()))
}

/// One parallel front over `items` on the worker pool, each item
/// recording into its own lane [`Record`]. Charges the front's idle
/// share to `rec`: busy is the summed item time, capacity the front's
/// wall time times the lanes it could use.
pub fn front<T, R, F>(rec: &mut Record, items: &[T], f: F) -> Vec<(R, Record)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &mut Record) -> R + Sync,
{
    let lanes = parallel::effective_parallelism().min(items.len()).max(1);
    let start = Instant::now();
    let out = parallel::map_indexed(items, |i, item| {
        let mut lane = Record::default();
        let t = Instant::now();
        let r = f(i, item, &mut lane);
        lane.add("tensor.pool_busy_ms", t.elapsed().as_secs_f64() * 1e3);
        (r, lane)
    });
    rec.add(
        "tensor.pool_capacity_ms",
        start.elapsed().as_secs_f64() * 1e3 * lanes as f64,
    );
    out
}
