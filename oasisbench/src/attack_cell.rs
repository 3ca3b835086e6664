//! `attack_cell`: the paper's experiment — `rtf:512` against
//! `oasis:MR` on `imagenette` at the default 32×32 scale, B = 8, over
//! the `raw` codec and the `ideal` network. One op is one attacked
//! trial.

use oasis_attacks::{run_attack_over_wire, ActiveAttack, AttackOutcome};
use oasis_data::{Batch, Dataset};
use oasis_fl::DefenseStack;
use oasis_scenario::{AttackSpec, DefenseSpec, Scale, Scenario, WorkloadSpec};
use oasis_wire::{DeliveryStatus, Submission, UpdateCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::Record;
use crate::steps::{stepped_attack, AttackSteps};

/// Distinct trial batches per setup. The timed loop runs them as
/// fronts of this many trials, the way `Scenario::run` fans its trials
/// out over the pool, and repeats the set.
pub const TRIALS: usize = 16;

/// Mean PSNR (dB) above which a reconstruction counts as leaked.
pub const LEAK_THRESHOLD_DB: f64 = 60.0;

/// The scenario every op of this workload is a trial of.
fn scenario(seed: u64) -> Scenario {
    Scenario::builder()
        .attack(AttackSpec::rtf(512))
        .defense("oasis:MR".parse::<DefenseSpec>().expect("oasis:MR parses"))
        .workload(WorkloadSpec::ImageNette)
        .batch_size(8)
        .trials(TRIALS)
        .scale(Scale::Default)
        .seed(seed)
        .build()
        .expect("attack_cell scenario builds")
}

/// Everything a trial needs, built before timing starts.
pub struct AttackCell {
    scenario: Scenario,
    classes: usize,
    attack: Box<dyn ActiveAttack>,
    defense: DefenseStack,
    codec: Box<dyn UpdateCodec>,
    batches: Vec<Batch>,
}

impl AttackCell {
    /// Synthesizes the dataset and the calibration images, calibrates
    /// the attack and draws the trial batches, charging
    /// `data.synthesize_ms` and `attacks.calibrate_ms` to `rec`.
    ///
    /// # Errors
    ///
    /// A message when the attack or the defense cannot be built.
    pub fn setup(seed: u64, rec: &mut Record) -> Result<Self, String> {
        let scenario = scenario(seed);
        let (dataset, calibration) = rec.time("data.synthesize_ms", || {
            (scenario.dataset(), scenario.calibration_images())
        });
        let classes = dataset.num_classes();
        let attack = rec
            .time("attacks.calibrate_ms", || {
                scenario.attack.build(&calibration, classes)
            })
            .map_err(|e| format!("attack: {e}"))?;
        let defense = scenario
            .defense
            .build()
            .map_err(|e| format!("defense: {e}"))?;
        let codec = scenario.codec.build();
        let batches = trial_batches(&scenario, &dataset);
        Ok(AttackCell {
            scenario,
            classes,
            attack,
            defense,
            codec,
            batches,
        })
    }

    /// The attack seed of trial `i` (`Scenario::run`'s `seed ^ i`).
    fn trial_seed(&self, i: usize) -> u64 {
        self.scenario.seed ^ i as u64
    }

    /// Trial `i` through the library: the attacked round over the
    /// wire, then the network's verdict. Returns the pooled PSNRs the
    /// trial contributes.
    ///
    /// # Errors
    ///
    /// A message when the attacked round fails.
    pub fn run_trial(&self, i: usize) -> Result<Vec<f64>, String> {
        let outcome = self.outcome(i)?;
        let wire = outcome.wire.as_ref().ok_or("trial crossed no wire")?;
        let traffic = self.scenario.net.deliver(
            self.scenario.seed,
            i as u64,
            &[Submission {
                client_id: i,
                bytes_up: wire.encoded_bytes,
                bytes_down: wire.broadcast_bytes,
            }],
        );
        Ok(match traffic.deliveries[0].status {
            DeliveryStatus::Delivered => outcome.matched_psnrs,
            _ => Vec::new(),
        })
    }

    /// Trial `i`'s attacked round over the wire
    /// (`run_attack_over_wire`).
    ///
    /// # Errors
    ///
    /// A message when the attacked round fails.
    pub fn outcome(&self, i: usize) -> Result<AttackOutcome, String> {
        run_attack_over_wire(
            self.attack.as_ref(),
            &self.batches[i],
            &self.defense,
            self.classes,
            self.trial_seed(i),
            self.codec.as_ref(),
        )
        .map_err(|e| format!("trial {i}: {e}"))
    }

    /// Trial `i` step by step (see [`stepped_attack`]).
    ///
    /// # Errors
    ///
    /// A message naming the step that failed.
    pub fn stepped_trial(&self, i: usize, rec: &mut Record) -> Result<AttackSteps, String> {
        stepped_attack(
            self.attack.as_ref(),
            &self.batches[i],
            &self.defense,
            self.classes,
            self.trial_seed(i),
            Some(self.codec.as_ref()),
            rec,
        )
    }

    /// Every trial's pooled PSNRs from `Scenario::run` itself — the
    /// reference each op is checked against.
    ///
    /// # Errors
    ///
    /// A message when the scenario fails.
    pub fn reference(&self) -> Result<Vec<Vec<f64>>, String> {
        let report = self.scenario.run().map_err(|e| format!("scenario: {e}"))?;
        Ok(report.trials.into_iter().map(|t| t.matched_psnrs).collect())
    }
}

/// `Scenario::run`'s trial batches: uniform draws off one rng seeded
/// with the scenario seed, trial by trial.
fn trial_batches(scenario: &Scenario, dataset: &Dataset) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let size = scenario.batch_size.min(dataset.len());
    (0..scenario.trials)
        .map(|_| dataset.sample_batch(size, &mut rng))
        .collect()
}

/// Whether two PSNR lists are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Mean of all pooled PSNRs.
pub fn pooled_mean(trials: &[Vec<f64>]) -> f64 {
    let all: Vec<f64> = trials.iter().flatten().copied().collect();
    if all.is_empty() {
        return 0.0;
    }
    all.iter().sum::<f64>() / all.len() as f64
}
