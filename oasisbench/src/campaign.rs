//! `campaign_adaptive`: a 200-round campaign of 24 clients on
//! `cifar100` under `oasis:MR` over the `q8` codec, probed every fifth
//! round by an adversary that switches from RTF to QBI. One op is one
//! campaign round.

use std::sync::Arc;

use oasis_attacks::ActiveAttack;
use oasis_campaign::{
    adversary_seed, linear_relu_factory, validate_trajectory, CampaignRunner, CampaignSetup,
    CampaignSpec, TrajectoryRecord,
};
use oasis_data::{Batch, Dataset};
use oasis_fl::{DefenseStack, FlServer, ModelFactory, WireConfig};
use oasis_image::Image;
use oasis_population::{CohortScheduler, Population};
use oasis_scenario::{DefenseSpec, Scale, WorkloadSpec};
use oasis_wire::{CodecSpec, NetSpec};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cohort::weights_digest;
use crate::record::{digest_bytes, Record};
use crate::steps::{stepped_attack, stepped_round};

/// Plain rounds probed by RTF; then churn, a lossy network and a
/// two-candidate adversary; then Dirichlet drift probed by QBI.
pub const SPEC: &str = "campaign:60+attack=rtf:128;\
70+leave=0.2+join=0.3+net=sim:10,16,0.1+attack=rtf:128|qbi:128;\
70+alpha=0.5+attack=qbi:128";
/// Population size.
pub const CLIENTS: usize = 24;
/// The adversary probes every this many rounds.
pub const EVAL_EVERY: usize = 5;
/// Defense label written into trajectories.
const DEFENSE: &str = "oasis:MR";

/// Salt of the adversary's probe-batch stream in the campaign engine.
const PROBE_SALT: u64 = 0x0B5E_55ED_71A2_D4C3;
/// Salt of the adversary's calibration stream in the campaign engine.
const CAL_SALT: u64 = 0xCA1B_0A8E_6F3D_1257;

/// How a round is classed by its trajectory record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundClass {
    /// The first round of a later phase (network swap, drift).
    PhaseEntry,
    /// A round with an adversary probe.
    Probe,
    /// A training-only round.
    Train,
}

impl RoundClass {
    /// The per-layer metric this class's round times feed.
    pub fn metric(self) -> &'static str {
        match self {
            RoundClass::PhaseEntry => "campaign.phase_entry_ms",
            RoundClass::Probe => "campaign.probe_round_ms",
            RoundClass::Train => "campaign.train_round_ms",
        }
    }
}

/// The workload's fixed inputs for one seed.
pub struct CampaignBench {
    seed: u64,
    spec: CampaignSpec,
    dataset: Dataset,
    factory: ModelFactory,
}

impl CampaignBench {
    /// Synthesizes the dataset (what `scenario --campaign` builds for
    /// `cifar100`), charging `data.synthesize_ms` to `rec`.
    pub fn new(seed: u64, rec: &mut Record) -> Self {
        let dataset = rec.time("data.synthesize_ms", || {
            WorkloadSpec::Cifar100.dataset(Scale::Default, 64, seed ^ 0xDA7A)
        });
        let factory = linear_relu_factory(dataset.feature_dim(), 64, dataset.num_classes(), 11);
        CampaignBench {
            seed,
            spec: SPEC.parse().expect("campaign spec parses"),
            dataset,
            factory,
        }
    }

    fn partition_seed(&self) -> u64 {
        self.seed ^ 0x5EED
    }

    /// A campaign at round 0, charging `campaign.build_ms` (partition
    /// and server build) to `rec`.
    ///
    /// # Errors
    ///
    /// A message when the campaign cannot be built.
    pub fn campaign(&self, rec: &mut Record) -> Result<CampaignRunner, String> {
        let mut setup =
            CampaignSetup::new(self.dataset.clone(), CLIENTS, Arc::clone(&self.factory));
        setup.defense = defense_spec();
        setup.codec = CodecSpec::Q8;
        setup.seed = self.seed;
        setup.partition_seed = self.partition_seed();
        setup.eval_every = EVAL_EVERY;
        rec.time("campaign.build_ms", || {
            CampaignRunner::new(self.spec.clone(), setup)
        })
        .map_err(|e| format!("campaign: {e}"))
    }

    /// Total rounds of the campaign.
    pub fn rounds(&self) -> usize {
        self.spec.total_rounds()
    }

    /// The trajectory JSONL of a campaign run to its end by
    /// `CampaignRunner::run`, after `validate_trajectory` accepted it.
    ///
    /// # Errors
    ///
    /// A message when the campaign fails or its trajectory is invalid.
    pub fn reference(&self) -> Result<String, String> {
        let mut campaign = self.campaign(&mut Record::default())?;
        campaign.run().map_err(|e| format!("reference: {e}"))?;
        let text = trajectory_jsonl(&campaign);
        validate_trajectory(&text).map_err(|e| format!("reference trajectory: {e}"))?;
        Ok(text)
    }

    /// The class of round `r`, given its record.
    pub fn class(&self, record: &TrajectoryRecord) -> RoundClass {
        let entry = (1..self.spec.phases().len()).any(|i| self.spec.phase_start(i) == record.round);
        if entry {
            RoundClass::PhaseEntry
        } else if record.attack.is_some() {
            RoundClass::Probe
        } else {
            RoundClass::Train
        }
    }

    /// The step-by-step replica of `campaign`'s adversary probes and
    /// phase-0 training rounds.
    ///
    /// # Errors
    ///
    /// A message when the defense cannot be built.
    pub fn shadow(&self) -> Result<Shadow<'_>, String> {
        let defense = Arc::new(
            defense_spec()
                .build()
                .map_err(|e| format!("defense: {e}"))?,
        );
        // The engine's defaults for what this workload leaves unset.
        let defaults = CampaignSetup::new(self.dataset.clone(), 1, Arc::clone(&self.factory));
        let probe_size = defaults.probe_batch.clamp(1, self.dataset.len());
        let probe = self.dataset.sample_batch(
            probe_size,
            &mut StdRng::seed_from_u64(self.seed ^ PROBE_SALT),
        );
        let need = self
            .spec
            .phases()
            .iter()
            .flat_map(|p| p.attack.iter().map(|a| a.default_calibration()))
            .max()
            .unwrap_or(0);
        let mut idx: Vec<usize> = (0..self.dataset.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(self.seed ^ CAL_SALT));
        let calibration = (0..need)
            .map(|i| self.dataset.items()[idx[i % idx.len()]].image.clone())
            .collect();
        let population = Population::iid(
            &self.dataset,
            CLIENTS,
            Arc::clone(&defense),
            &mut StdRng::seed_from_u64(self.partition_seed()),
        );
        let mut server = FlServer::new(Arc::clone(&self.factory), Default::default())
            .map_err(|e| format!("shadow server: {e}"))?;
        let net = self.spec.phases()[0].net.unwrap_or(NetSpec::Ideal);
        server.set_wire(WireConfig::new(CodecSpec::Q8, net));
        Ok(Shadow {
            bench: self,
            threshold: defaults.leak_threshold_db,
            defense,
            probe,
            calibration,
            attacks: Vec::new(),
            scheduler: CohortScheduler::new(population.len()),
            population,
            server,
        })
    }
}

fn defense_spec() -> DefenseSpec {
    DEFENSE.parse().expect("oasis:MR parses")
}

/// The campaign's trajectory so far as JSONL.
pub fn trajectory_jsonl(campaign: &CampaignRunner) -> String {
    campaign.trajectory(DEFENSE).to_jsonl()
}

/// Digest of a trajectory's JSONL text.
pub fn trajectory_digest(text: &str) -> u64 {
    digest_bytes(text.as_bytes())
}

/// Replays a campaign's work step by step from outside: each
/// adversary probe, and each training round of phase 0 (whose
/// population the replica can rebuild exactly; later phases churn and
/// re-partition it out of reach, so their rounds are timed whole).
pub struct Shadow<'a> {
    bench: &'a CampaignBench,
    threshold: f64,
    defense: Arc<DefenseStack>,
    probe: Batch,
    calibration: Vec<Image>,
    attacks: Vec<(String, Box<dyn ActiveAttack>)>,
    population: Population,
    scheduler: CohortScheduler,
    server: FlServer,
}

impl Shadow<'_> {
    /// Whether round `r` is a phase-0 training round the replica
    /// steps.
    pub fn steps_training(&self, r: u64) -> bool {
        self.bench.spec.phases().len() < 2 || r < self.bench.spec.phase_start(1)
    }

    /// Steps the training of round `r` on the shadow server, starting
    /// from `campaign`'s weights before the round. Call before
    /// `campaign` runs round `r`; [`Shadow::weights_match`] checks it
    /// after.
    ///
    /// # Errors
    ///
    /// A message naming the step that failed.
    pub fn step_training(
        &mut self,
        campaign: &mut CampaignRunner,
        rec: &mut Record,
    ) -> Result<(), String> {
        let r = campaign.round();
        let weights = campaign.server_mut().broadcast_weights();
        self.server
            .load_weights(&weights)
            .map_err(|e| format!("shadow weights: {e}"))?;
        self.server.set_round(r as usize);
        let mut rng = CohortScheduler::round_rng(self.bench.seed, r);
        stepped_round(
            &mut self.server,
            &self.population,
            &mut self.scheduler,
            &mut rng,
            rec,
        )
        .map(|_| ())
    }

    /// Whether the shadow server's stepped weights equal `campaign`'s.
    pub fn weights_match(&mut self, campaign: &mut CampaignRunner) -> bool {
        weights_digest(&mut self.server) == weights_digest(campaign.server_mut())
    }

    /// Steps round `record.round`'s adversary probe — every
    /// candidate of its phase, against the probe batch under the
    /// campaign's defense — and checks the winner against the record.
    /// A candidate's first build is charged to `attacks.calibrate_ms`,
    /// as the campaign calibrates lazily.
    ///
    /// # Errors
    ///
    /// A message when a step fails or the winner differs from the
    /// record.
    pub fn step_probe(
        &mut self,
        record: &TrajectoryRecord,
        rec: &mut Record,
    ) -> Result<(), String> {
        let (_, phase) = self
            .bench
            .spec
            .phase_at(record.round)
            .ok_or("probe past the campaign end")?;
        let classes = self.bench.dataset.num_classes();
        let probe_seed = adversary_seed(self.bench.seed, record.round);
        let mut evals = Vec::new();
        for spec in &phase.attack {
            let key = spec.to_string();
            if !self.attacks.iter().any(|(k, _)| *k == key) {
                let need = spec.default_calibration().min(self.calibration.len());
                let attack = rec
                    .time("attacks.calibrate_ms", || {
                        spec.build(&self.calibration[..need], classes)
                    })
                    .map_err(|e| format!("calibrate {key}: {e}"))?;
                self.attacks.push((key.clone(), attack));
            }
            let attack = &self
                .attacks
                .iter()
                .find(|(k, _)| *k == key)
                .expect("built above")
                .1;
            let steps = stepped_attack(
                attack.as_ref(),
                &self.probe,
                &self.defense,
                classes,
                probe_seed,
                None,
                rec,
            )?;
            evals.push((key, steps.leak_rate(self.threshold), steps.mean_psnr()));
        }
        let winner = evals
            .iter()
            .max_by(|a, b| {
                (a.1, a.2)
                    .partial_cmp(&(b.1, b.2))
                    .expect("probe metrics are finite")
            })
            .ok_or("probe round without candidates")?;
        let same = record.attack.as_deref() == Some(winner.0.as_str())
            && record.leak_rate.map(f64::to_bits) == Some(winner.1.to_bits())
            && record.mean_psnr.map(f64::to_bits) == Some(winner.2.to_bits());
        if same {
            Ok(())
        } else {
            Err(format!(
                "round {}: stepped probe picked {} ({:.3} dB) but the campaign recorded {:?} ({:?} dB)",
                record.round, winner.0, winner.2, record.attack, record.mean_psnr
            ))
        }
    }
}
