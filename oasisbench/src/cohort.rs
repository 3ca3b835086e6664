//! `cohort_train`: streaming cohort rounds on one persistent server
//! over 10,000 single-sample descriptor clients — a 768→64→10 MLP,
//! cohort 64, `raw` codec, `ideal` network, no defense. One op is one
//! cohort round.

use std::sync::Arc;

use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, CohortScheduler, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{digest_f32, Record};
use crate::steps::stepped_round;

/// Descriptor clients in the population.
pub const POPULATION: usize = 10_000;
/// Clients sampled per round.
pub const COHORT: usize = 64;

/// The population and model, built before timing starts.
pub struct CohortTrain {
    seed: u64,
    factory: ModelFactory,
    population: Population,
}

impl CohortTrain {
    /// Synthesizes the 80-image pool (10 classes × 8, 16×16 RGB) and
    /// partitions it over [`POPULATION`] clients, charging
    /// `data.synthesize_ms` to `rec`.
    pub fn setup(seed: u64, rec: &mut Record) -> Self {
        let data = rec.time("data.synthesize_ms", || cifar_like_with(10, 8, 16, seed));
        let d = data.feature_dim();
        let model_seed = seed ^ 0x5EED;
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(model_seed);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 64, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(64, 10, &mut rng));
            m
        });
        let population = Population::iid(
            &data,
            POPULATION,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(seed ^ 0x9091),
        );
        CohortTrain {
            seed,
            factory,
            population,
        }
    }

    /// A fresh server at round 0.
    pub fn server(&self) -> FlServer {
        FlServer::new(
            Arc::clone(&self.factory),
            FlConfig {
                clients_per_round: COHORT,
                ..FlConfig::default()
            },
        )
        .expect("cohort server config is valid")
    }

    /// A fresh library runner at round 0.
    pub fn runner(&self) -> CohortRunner {
        CohortRunner::new(self.server(), self.population.clone())
    }

    /// One round through the library (`CohortRunner::run`'s keyed
    /// stream), checked for a full, finite round.
    ///
    /// # Errors
    ///
    /// A message when the round fails or comes back incomplete.
    pub fn run_round(&self, runner: &mut CohortRunner) -> Result<(), String> {
        let reports = runner
            .run(1, self.seed)
            .map_err(|e| format!("round: {e}"))?;
        let report = &reports[0].round_report;
        if report.participants != COHORT || !report.mean_loss.is_finite() {
            return Err(format!(
                "round {}: {} of {COHORT} clients, loss {}",
                report.round, report.participants, report.mean_loss
            ));
        }
        Ok(())
    }

    /// The same round step by step on `server`, whose round counter
    /// keys the stream exactly as `CohortRunner::run` does.
    /// Returns `(cohort, delivered)`.
    ///
    /// # Errors
    ///
    /// A message naming the step that failed.
    pub fn stepped_round(
        &self,
        server: &mut FlServer,
        scheduler: &mut CohortScheduler,
        rec: &mut Record,
    ) -> Result<(usize, usize), String> {
        let mut rng = CohortScheduler::round_rng(self.seed, server.round() as u64);
        stepped_round(server, &self.population, scheduler, &mut rng, rec)
    }

    /// The descriptor population rounds sample from.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// A scheduler over this population.
    pub fn scheduler(&self) -> CohortScheduler {
        CohortScheduler::new(self.population.len())
    }

    /// Digest of the weights after `rounds` rounds of
    /// `CohortRunner::run` on a fresh runner — the reference a timed
    /// run's final weights must match.
    ///
    /// # Errors
    ///
    /// A message when a round fails.
    pub fn reference_digest(&self, rounds: usize) -> Result<u64, String> {
        let mut runner = self.runner();
        runner
            .run(rounds, self.seed)
            .map_err(|e| format!("reference: {e}"))?;
        Ok(weights_digest(runner.server_mut()))
    }
}

/// Digest of a server's current weights.
pub fn weights_digest(server: &mut FlServer) -> u64 {
    digest_f32(&flatten_params(server.model_mut()))
}
