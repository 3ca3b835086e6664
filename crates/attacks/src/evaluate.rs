//! The attack-evaluation harness: run an attack against a (possibly
//! defended) client batch, reconstruct, match, and summarize — the
//! code path behind every PSNR number in the paper's figures.

use oasis_data::Batch;
use oasis_fl::DefenseStack;
use oasis_image::Image;
use oasis_metrics::{best_psnr_per_original, match_greedy_coarse, ReconstructionMatch, Summary};
use oasis_nn::{flatten_grads, load_grads, param_count, train_step, Sequential};
use oasis_tensor::Tensor;
use oasis_wire::UpdateCodec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dpsgd::{clipped_grad_sum, first_linear};
use crate::{AttackError, Result};

/// An active reconstruction attack by a dishonest server.
///
/// Implementations build the malicious global model the server
/// dispatches in place of the honest one (the threat model's
/// capability to modify `w` before broadcast) and invert the
/// gradients the victim uploads.
pub trait ActiveAttack: Send + Sync {
    /// Display name ("RTF", "CAH", …).
    fn name(&self) -> &'static str;

    /// Number of attacked neurons `n`.
    fn attacked_neurons(&self) -> usize;

    /// Builds the malicious model for inputs of the given image
    /// geometry and `classes` output classes.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration cannot produce a model.
    fn build_model(
        &self,
        geometry: (usize, usize, usize),
        classes: usize,
        seed: u64,
    ) -> Result<Sequential>;

    /// Inverts the gradients of the malicious layer into candidate
    /// image reconstructions.
    fn reconstruct(
        &self,
        grad_weight: &Tensor,
        grad_bias: &Tensor,
        geometry: (usize, usize, usize),
    ) -> Vec<Image>;
}

/// What the client's update looked like on the wire during an
/// attacked round (present when the round ran over a codec).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTrace {
    /// Spec string of the codec the update crossed.
    pub codec: String,
    /// Uncompressed update size (`4·n` for the full model update).
    pub raw_bytes: usize,
    /// Encoded update size actually on the wire.
    pub encoded_bytes: usize,
    /// Malicious-model broadcast size (downlink).
    pub broadcast_bytes: usize,
}

impl WireTrace {
    /// `raw / encoded` — > 1 means the codec compresses.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.encoded_bytes as f64
    }
}

/// Everything the figures need from one attack execution.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// One-to-one reconstruction↔original matches, best first.
    pub matches: Vec<ReconstructionMatch>,
    /// PSNR of each match (the values behind the paper's boxplots).
    pub matched_psnrs: Vec<f64>,
    /// Summary statistics of `matched_psnrs` (the reported averages).
    pub summary: Summary,
    /// For every original sample, the best PSNR any reconstruction
    /// achieved against it (per-sample leakage).
    pub per_original_best: Vec<f64>,
    /// The deduplicated reconstruction pool (for the visual figures).
    pub reconstructions: Vec<Image>,
    /// The batch the client actually trained on (`D` or `D′`).
    pub processed_images: Vec<Image>,
    /// The client's loss during the attacked round (diagnostic).
    pub client_loss: f32,
    /// Wire provenance of the attacked update (None when the round
    /// ran in-process, without a codec).
    pub wire: Option<WireTrace>,
}

impl AttackOutcome {
    /// Mean matched PSNR — the single number in the paper's grid
    /// figures (Figures 3 and 4).
    pub fn mean_psnr(&self) -> f64 {
        self.summary.mean
    }

    /// Fraction of originals whose best reconstruction exceeds
    /// `threshold_db` — a leak-rate view used by the Proposition 1
    /// ablation.
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

/// Side of coarse downsampling used for match *selection* (matched
/// pairs are re-scored at full resolution).
const COARSE_MATCH_SIDE: usize = 8;

/// Runs one attacked FL round: the server dispatches the malicious
/// model, the client runs its [`DefenseStack`] (batch stages on the
/// sampled batch, update stages on the uploaded update), the attacker
/// inverts what it receives.
///
/// Stacks without an update stage upload the exact full-batch
/// gradient. Stacks that clip ([`DefenseStack::clip_norm`]) switch
/// the client onto the per-sample gradient path: each sample's
/// malicious-layer gradient is clipped to the bound before averaging
/// (record-level DP-SGD), and only the malicious layer's update is
/// uploaded — then every update stage's perturbation applies.
///
/// PSNRs are always computed against the **original** batch `D` — the
/// private data the defense is protecting — regardless of what the
/// client trained on.
///
/// # Errors
///
/// Propagates model-construction and execution failures.
pub fn run_attack(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
) -> Result<AttackOutcome> {
    run_attack_inner(attack, batch, defense, classes, seed, None)
}

/// Like [`run_attack`], but the client's update crosses the wire: the
/// flat update is encoded with `codec`, decoded server-side, and the
/// attacker inverts what the *decoded* gradients say — lossy codecs
/// therefore degrade reconstruction, a new result surface. The
/// outcome's [`AttackOutcome::wire`] records codec provenance and
/// exact bytes on the wire. With the lossless `raw` codec this
/// reproduces the in-process numbers bit-exactly.
///
/// # Errors
///
/// Propagates model-construction, execution, and codec failures.
pub fn run_attack_over_wire(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
    codec: &dyn UpdateCodec,
) -> Result<AttackOutcome> {
    run_attack_inner(attack, batch, defense, classes, seed, Some(codec))
}

/// The shared attacked-round harness behind [`run_attack`] and
/// [`run_attack_over_wire`]: build the malicious model, run the
/// stack's batch stages, compute the uploaded gradients (exact, or
/// per-sample-clipped when the stack clips), run the stack's update
/// stages, optionally round-trip the update through a wire codec,
/// invert, and score.
fn run_attack_inner(
    attack: &dyn ActiveAttack,
    batch: &Batch,
    defense: &DefenseStack,
    classes: usize,
    seed: u64,
    codec: Option<&dyn UpdateCodec>,
) -> Result<AttackOutcome> {
    let setup_span = oasis_telemetry::span("attack.setup");
    let geometry = batch
        .images
        .first()
        .ok_or_else(|| AttackError::BadConfig("empty batch".into()))?
        .dims();
    let mut model = attack.build_model(geometry, classes, seed)?;
    let broadcast_bytes = param_count(&mut model) * 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00DE_F317);
    let processed = defense.process_batch(batch, &mut rng);
    drop(setup_span);
    let mut wire: Option<WireTrace> = None;
    // The server reconstructs from what it *receives*: when a codec
    // is installed, the client's full flat update crosses the wire
    // (encode → decode) before the attacker reads the malicious
    // layer's gradients out of it.
    let mut transmit = |update: Vec<f32>| -> Result<Vec<f32>> {
        match codec {
            None => Ok(update),
            Some(codec) => {
                let encoded = codec.encode(&update)?;
                wire = Some(WireTrace {
                    codec: encoded.codec.clone(),
                    raw_bytes: encoded.raw_byte_size(),
                    encoded_bytes: encoded.byte_size(),
                    broadcast_bytes,
                });
                // Decode lands back in the buffer the update left in
                // — the frame's element count is the update length by
                // construction, so no fresh allocation is needed.
                let mut received = update;
                codec.decode_to(&encoded, &mut received)?;
                Ok(received)
            }
        }
    };

    let (recons, loss) = match defense.clip_norm() {
        None => {
            // The exact-gradient path: one full-batch backward pass.
            let client_span = oasis_telemetry::span("attack.client_step");
            let loss = train_step(&mut model, &processed.to_matrix(), &processed.labels)?;
            let mut update = flatten_grads(&mut model);
            defense.perturb_update(&mut update, processed.len(), &mut rng);
            let received = transmit(update)?;
            load_grads(&mut model, &received)?;
            let lin = first_linear(&model)?;
            drop(client_span);
            let recon_span = oasis_telemetry::span("attack.reconstruct");
            let recons = attack.reconstruct(lin.grad_weight(), lin.grad_bias(), geometry);
            drop(recon_span);
            (recons, loss)
        }
        Some(clip_norm) => {
            // The per-sample path (record-level DP-SGD): per-sample
            // gradients, clipped then averaged, then the stack's
            // update stages (e.g. Gaussian noise of std
            // `σ · C / B` from the DP stage).
            let client_span = oasis_telemetry::span("attack.client_step");
            let b = processed.len();
            let d = geometry.0 * geometry.1 * geometry.2;
            let n = attack.attacked_neurons();
            let (mut sum_gw, mut sum_gb, total_loss) =
                clipped_grad_sum(&mut model, &processed, clip_norm)?;
            let inv_b = 1.0 / b as f32;
            sum_gw.scale_in_place(inv_b);
            sum_gb.scale_in_place(inv_b);
            // Only the (perturbed) malicious-layer update is uploaded;
            // that is what crosses the wire.
            let mut update = sum_gw.into_vec();
            update.extend_from_slice(sum_gb.data());
            defense.perturb_update(&mut update, b, &mut rng);
            let received = transmit(update)?;
            let gw = Tensor::from_vec(received[..n * d].to_vec(), &[n, d])?;
            let gb = Tensor::from_vec(received[n * d..].to_vec(), &[n])?;
            drop(client_span);
            let recon_span = oasis_telemetry::span("attack.reconstruct");
            let recons = attack.reconstruct(&gw, &gb, geometry);
            drop(recon_span);
            (recons, total_loss * inv_b)
        }
    };

    Ok(score(recons, batch, &processed, loss, wire))
}

fn score(
    recons: Vec<Image>,
    batch: &Batch,
    processed: &Batch,
    client_loss: f32,
    wire: Option<WireTrace>,
) -> AttackOutcome {
    let _span = oasis_telemetry::span("attack.score");
    // Clamp reconstructions into the displayable range before scoring,
    // mirroring how reconstructed images are rendered and compared.
    let recons: Vec<Image> = recons.into_iter().map(|r| r.clamp01()).collect();
    let matches = match_greedy_coarse(&recons, &batch.images, COARSE_MATCH_SIDE);
    let matched_psnrs: Vec<f64> = matches.iter().map(|m| m.psnr).collect();
    let summary = Summary::from_values(&matched_psnrs);
    let per_original_best = best_psnr_per_original(&recons, &batch.images);
    AttackOutcome {
        matches,
        matched_psnrs,
        summary,
        per_original_best,
        reconstructions: recons,
        processed_images: processed.images.clone(),
        client_loss,
        wire,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RtfAttack;
    use oasis_data::cifar_like_with;
    use oasis_fl::DpStage;

    fn batch_of(n: usize, side: usize, seed: u64) -> Batch {
        let ds = cifar_like_with(n, 1, side, seed);
        Batch::from_items(ds.items().to_vec())
    }

    #[test]
    fn undefended_rtf_outcome_is_near_perfect() {
        let calib = batch_of(64, 12, 1);
        let attack = RtfAttack::calibrated(128, &calib.images).unwrap();
        let batch = batch_of(6, 12, 2);
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 6, 3).unwrap();
        assert_eq!(outcome.matches.len(), 6);
        assert!(
            outcome.mean_psnr() > 80.0,
            "undefended mean PSNR {:.1} dB too low",
            outcome.mean_psnr()
        );
        assert!(outcome.leak_rate(60.0) > 0.5);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let calib = batch_of(8, 8, 1);
        let attack = RtfAttack::calibrated(16, &calib.images).unwrap();
        let empty = Batch::new(vec![], vec![]);
        assert!(run_attack(&attack, &empty, &DefenseStack::identity(), 4, 0).is_err());
    }

    #[test]
    fn dp_noise_degrades_reconstruction() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let clean = run_attack(&attack, &batch, &DefenseStack::identity(), 4, 3).unwrap();
        let dp = DefenseStack::of(DpStage::new(1.0, 10.0));
        let noisy = run_attack(&attack, &batch, &dp, 4, 3).unwrap();
        assert!(
            noisy.mean_psnr() < clean.mean_psnr(),
            "DP noise did not reduce PSNR: {:.1} vs {:.1}",
            noisy.mean_psnr(),
            clean.mean_psnr()
        );
    }

    #[test]
    fn raw_wire_reproduces_in_process_numbers_exactly() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let in_process = run_attack(&attack, &batch, &DefenseStack::identity(), 4, 3).unwrap();
        let codec = oasis_wire::CodecSpec::Raw.build();
        let over_wire = run_attack_over_wire(
            &attack,
            &batch,
            &DefenseStack::identity(),
            4,
            3,
            codec.as_ref(),
        )
        .unwrap();
        assert_eq!(over_wire.matched_psnrs, in_process.matched_psnrs);
        let trace = over_wire.wire.expect("wire trace recorded");
        assert_eq!(trace.codec, "raw");
        assert!(trace.encoded_bytes > trace.raw_bytes, "header overhead");
        assert!(trace.broadcast_bytes > 0);
        assert!(in_process.wire.is_none());
    }

    #[test]
    fn lossy_wire_degrades_reconstruction() {
        let calib = batch_of(64, 10, 1);
        let attack = RtfAttack::calibrated(64, &calib.images).unwrap();
        let batch = batch_of(4, 10, 2);
        let clean = run_attack(&attack, &batch, &DefenseStack::identity(), 4, 3).unwrap();
        let sign = oasis_wire::CodecSpec::Sign.build();
        let noisy = run_attack_over_wire(
            &attack,
            &batch,
            &DefenseStack::identity(),
            4,
            3,
            sign.as_ref(),
        )
        .unwrap();
        assert!(
            noisy.mean_psnr() < clean.mean_psnr(),
            "1-bit updates should not reconstruct verbatim: {:.1} vs {:.1}",
            noisy.mean_psnr(),
            clean.mean_psnr()
        );
        assert!(noisy.wire.unwrap().compression_ratio() > 10.0);
    }

    #[test]
    fn leak_rate_bounds() {
        let calib = batch_of(16, 8, 1);
        let attack = RtfAttack::calibrated(32, &calib.images).unwrap();
        let batch = batch_of(3, 8, 2);
        let outcome = run_attack(&attack, &batch, &DefenseStack::identity(), 3, 0).unwrap();
        let rate = outcome.leak_rate(100.0);
        assert!((0.0..=1.0).contains(&rate));
    }
}
