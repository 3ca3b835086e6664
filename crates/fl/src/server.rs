//! The central server.

use rand::rngs::StdRng;
use rand::SeedableRng;

use oasis_nn::{flatten_params, load_params, param_count, Sequential};
use oasis_wire::{CodecSpec, NetSpec, UpdateCodec};

use crate::{CohortScheduler, FlClient, FlConfig, FlError, ModelFactory, Result};

/// How updates travel between clients and the server: the update
/// codec plus the simulated network condition.
///
/// The default — lossless [`CodecSpec::Raw`] over [`NetSpec::Ideal`]
/// — reproduces the in-process protocol bit-exactly while still
/// exercising the full encode → transport → decode path, so bytes on
/// the wire are always measured.
pub struct WireConfig {
    codec_spec: CodecSpec,
    codec: Box<dyn UpdateCodec>,
    /// The simulated network the round runs over.
    pub net: NetSpec,
}

impl WireConfig {
    /// Builds the wire from a codec and a network spec.
    pub fn new(codec: CodecSpec, net: NetSpec) -> Self {
        WireConfig {
            codec_spec: codec,
            codec: codec.build(),
            net,
        }
    }

    /// The codec spec in use.
    pub fn codec(&self) -> CodecSpec {
        self.codec_spec
    }

    /// The codec built from [`WireConfig::codec`].
    pub(crate) fn update_codec(&self) -> &dyn UpdateCodec {
        &*self.codec
    }
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::new(CodecSpec::Raw, NetSpec::Ideal)
    }
}

impl std::fmt::Debug for WireConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WireConfig(codec={}, net={})", self.codec_spec, self.net)
    }
}

/// Outcome of one protocol round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// How many clients' updates were aggregated (delivered in time).
    pub participants: usize,
    /// Cohort size after sampling — the number of clients the
    /// [`CohortScheduler`] drew for this round from the round's
    /// [`ClientSource`](crate::ClientSource), resident or descriptor.
    pub cohort: usize,
    /// How many selected clients' updates were lost or cut off.
    pub dropped: usize,
    /// Mean loss over the delivered clients (0 when none arrived).
    pub mean_loss: f32,
    /// L2 norm of the aggregated update (0 when none arrived).
    pub update_norm: f32,
    /// Encoded update bytes sent uplink (including lost updates).
    pub bytes_up: u64,
    /// Broadcast model bytes sent downlink.
    pub bytes_down: u64,
    /// Simulated wall-clock of the round in milliseconds (0 on the
    /// ideal network).
    pub sim_ms: f64,
    /// Wall-clock phase breakdown, populated only while telemetry is
    /// enabled (`None` otherwise). Measurement, not protocol outcome:
    /// ignored by `PartialEq` so traced and untraced runs compare
    /// equal.
    pub timings: Option<crate::RoundTimings>,
}

/// Equality over protocol outcomes only: `timings` is wall-clock
/// measurement and varies run to run, so it is deliberately excluded
/// — determinism tests compare traced vs untraced reports directly.
impl PartialEq for RoundReport {
    fn eq(&self, other: &Self) -> bool {
        self.round == other.round
            && self.participants == other.participants
            && self.cohort == other.cohort
            && self.dropped == other.dropped
            && self.mean_loss == other.mean_loss
            && self.update_norm == other.update_norm
            && self.bytes_up == other.bytes_up
            && self.bytes_down == other.bytes_down
            && self.sim_ms == other.sim_ms
    }
}

/// The FL coordinator of paper Eq. 1. Updates travel through a
/// [`WireConfig`]: encoded by an [`UpdateCodec`], moved by a simulated
/// [`NetSpec`] transport, and only the updates that actually arrive
/// are aggregated — weighted by the examples each client contributed.
pub struct FlServer {
    factory: ModelFactory,
    model: Sequential,
    config: FlConfig,
    wire: WireConfig,
    round: usize,
    // Resident client models, one per wave lane, built lazily by the
    // round engine and refreshed by `load_params` for every client.
    slots: Vec<Sequential>,
}

impl FlServer {
    /// Creates a server with a freshly initialized global model on the
    /// default wire (raw codec, ideal network).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadConfig`] if the factory produces an empty
    /// model.
    pub fn new(factory: ModelFactory, config: FlConfig) -> Result<Self> {
        let mut model = factory();
        if param_count(&mut model) == 0 {
            return Err(FlError::BadConfig("model has no parameters".into()));
        }
        Ok(FlServer {
            factory,
            model,
            config,
            wire: WireConfig::default(),
            round: 0,
            slots: Vec::new(),
        })
    }

    /// Replaces the wire (codec + simulated network) the rounds run
    /// over.
    pub fn set_wire(&mut self, wire: WireConfig) {
        self.wire = wire;
    }

    /// The wire currently in use.
    pub fn wire(&self) -> &WireConfig {
        &self.wire
    }

    /// The training configuration the rounds run under.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The model factory clients instantiate their local copy from.
    pub fn factory(&self) -> &ModelFactory {
        &self.factory
    }

    /// The round engine's split borrow: the update codec and `lanes`
    /// resident client models, the missing ones built by the factory
    /// now. Slots are kept across rounds, so the factory runs at most
    /// once per lane over the server's lifetime.
    pub(crate) fn codec_and_slots(
        &mut self,
        lanes: usize,
    ) -> (&dyn UpdateCodec, &mut [Sequential]) {
        while self.slots.len() < lanes {
            self.slots.push((self.factory)());
        }
        (self.wire.update_codec(), &mut self.slots[..lanes])
    }

    /// The global model (e.g. for evaluation).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Current round counter.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Overrides the round counter — used when resuming from a
    /// checkpoint.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Loads flat global weights (e.g. from a reloaded checkpoint).
    ///
    /// # Errors
    ///
    /// Returns a model error when the length disagrees with the
    /// architecture.
    pub fn load_weights(&mut self, params: &[f32]) -> Result<()> {
        load_params(&mut self.model, params)?;
        Ok(())
    }

    /// Writes the global model as a wire-format checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        oasis_wire::checkpoint::save_model(path, &self.model)?;
        Ok(())
    }

    /// Restores the global model from a wire-format checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and architecture mismatches.
    pub fn restore_checkpoint(&mut self, path: impl AsRef<std::path::Path>) -> Result<()> {
        oasis_wire::checkpoint::load_model(path, &mut self.model)?;
        Ok(())
    }

    /// The flattened global weights `w_t` as broadcast this round.
    pub fn broadcast_weights(&mut self) -> Vec<f32> {
        flatten_params(&mut self.model)
    }

    /// Runs one round over resident clients: the round engine
    /// ([`FlServer::run_cohort_round`]) with the slice as its
    /// [`ClientSource`](crate::ClientSource) and a fresh
    /// [`CohortScheduler`] over it. Wire fates are keyed by
    /// [`FlClient::id`].
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoClients`] when `clients` is empty, any
    /// client-side model error, or a wire encode/decode failure.
    pub fn run_round(&mut self, clients: &[FlClient], rng: &mut StdRng) -> Result<RoundReport> {
        let mut scheduler = CohortScheduler::new(clients.len());
        Ok(self
            .run_cohort_round(clients, &mut scheduler, rng)?
            .round_report)
    }

    /// Applies an aggregated mean update as one server SGD step:
    /// `w_{t+1} = w_t − η Ḡ` (paper Eq. 1's server side), where `Ḡ`
    /// is the round engine's [`StreamingAggregator`](crate::StreamingAggregator)
    /// sum.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::UpdateLength`] when `agg` disagrees with
    /// the model's parameter count, or a model error from reloading
    /// the stepped weights.
    pub fn apply_update(&mut self, agg: &[f32]) -> Result<()> {
        let lr = self.config.learning_rate;
        let mut new_params = flatten_params(&mut self.model);
        if agg.len() != new_params.len() {
            return Err(FlError::UpdateLength {
                len: agg.len(),
                expected: new_params.len(),
            });
        }
        for (w, &g) in new_params.iter_mut().zip(agg) {
            *w -= lr * g;
        }
        load_params(&mut self.model, &new_params)?;
        Ok(())
    }

    /// Runs `rounds` rounds, returning per-round reports.
    ///
    /// # Errors
    ///
    /// Stops at the first failing round.
    pub fn run(
        &mut self,
        clients: &[FlClient],
        rounds: usize,
        seed: u64,
    ) -> Result<Vec<RoundReport>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rounds)
            .map(|_| self.run_round(clients, &mut rng))
            .collect()
    }
}

impl std::fmt::Debug for FlServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FlServer(round={}, wire={:?})", self.round, self.wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_iid, DefenseStack};
    use oasis_data::cifar_like_with;
    use oasis_nn::{Linear, Relu};
    use std::sync::Arc;

    fn setup(classes: usize) -> (ModelFactory, Vec<FlClient>) {
        let data = cifar_like_with(classes, 8, 8, 3);
        let d = data.feature_dim();
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(11);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 24, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(24, classes, &mut rng));
            m
        });
        let clients = partition_iid(
            &data,
            4,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(5),
        );
        (factory, clients)
    }

    #[test]
    fn round_reports_participants() {
        let (factory, clients) = setup(3);
        let mut server = FlServer::new(factory, FlConfig::default()).unwrap();
        let report = server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert_eq!(report.participants, 4);
        assert_eq!(report.cohort, 4);
        assert_eq!(report.dropped, 0);
        assert!(report.update_norm > 0.0);
    }

    #[test]
    fn ideal_wire_reports_traffic() {
        let (factory, clients) = setup(3);
        let mut server = FlServer::new(factory, FlConfig::default()).unwrap();
        let report = server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        // Raw codec: every update is slightly larger than 4·n bytes
        // (wire header), broadcast is exactly 4·n per client.
        let n = 8 * 8 * 3 * 24 + 24 + 24 * 3 + 3;
        assert_eq!(report.bytes_down, 4 * (4 * n as u64));
        assert!(report.bytes_up > 4 * (4 * n as u64));
        assert_eq!(report.sim_ms, 0.0);
    }

    #[test]
    fn client_subset_selection_respects_config() {
        let (factory, clients) = setup(3);
        let cfg = FlConfig {
            clients_per_round: 2,
            ..FlConfig::default()
        };
        let mut server = FlServer::new(factory, cfg).unwrap();
        let report = server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert_eq!(report.participants, 2);
    }

    #[test]
    fn training_reduces_loss_over_rounds() {
        let (factory, clients) = setup(3);
        let cfg = FlConfig {
            learning_rate: 0.5,
            local_batch_size: 8,
            clients_per_round: 0,
        };
        let mut server = FlServer::new(factory, cfg).unwrap();
        let reports = server.run(&clients, 30, 42).unwrap();
        let first: f32 = reports[..3].iter().map(|r| r.mean_loss).sum::<f32>() / 3.0;
        let last: f32 = reports[reports.len() - 3..]
            .iter()
            .map(|r| r.mean_loss)
            .sum::<f32>()
            / 3.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_survives_a_lossy_wire() {
        let (factory, clients) = setup(3);
        let cfg = FlConfig {
            learning_rate: 0.5,
            local_batch_size: 8,
            clients_per_round: 0,
        };
        let mut server = FlServer::new(factory, cfg).unwrap();
        server.set_wire(WireConfig::new(
            CodecSpec::Q8,
            "sim:5,10,0.2".parse().unwrap(),
        ));
        let reports = server.run(&clients, 30, 42).unwrap();
        let delivered: usize = reports.iter().map(|r| r.participants).sum();
        let dropped: usize = reports.iter().map(|r| r.dropped).sum();
        assert!(dropped > 0, "20% loss should drop something over 30 rounds");
        assert!(delivered > dropped, "most updates should still arrive");
        assert!(reports.iter().all(|r| r.sim_ms > 0.0));
        let first: f32 = reports[..3].iter().map(|r| r.mean_loss).sum::<f32>() / 3.0;
        let last: f32 = reports[reports.len() - 3..]
            .iter()
            .map(|r| r.mean_loss)
            .sum::<f32>()
            / 3.0;
        assert!(
            last < first,
            "lossy-wire FL did not learn: {first} -> {last}"
        );
    }

    #[test]
    fn q8_wire_compresses_uplink() {
        let (factory, clients) = setup(3);
        let mut raw = FlServer::new(Arc::clone(&factory), FlConfig::default()).unwrap();
        let raw_report = raw
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let mut q8 = FlServer::new(factory, FlConfig::default()).unwrap();
        q8.set_wire(WireConfig::new(CodecSpec::Q8, NetSpec::Ideal));
        let q8_report = q8
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert!(
            q8_report.bytes_up * 3 < raw_report.bytes_up,
            "q8 uplink {} should be well under raw {}",
            q8_report.bytes_up,
            raw_report.bytes_up
        );
    }

    #[test]
    fn round_with_nothing_delivered_is_a_noop() {
        let (factory, clients) = setup(2);
        let mut server = FlServer::new(factory, FlConfig::default()).unwrap();
        // A deadline no update can meet: everything is a straggler.
        server.set_wire(WireConfig::new(
            CodecSpec::Raw,
            "sim:1000,1,0,1".parse().unwrap(),
        ));
        let before = flatten_params(server.model_mut());
        let report = server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert_eq!(report.participants, 0);
        assert_eq!(report.dropped, report.cohort);
        assert_eq!(report.update_norm, 0.0);
        assert_eq!(flatten_params(server.model_mut()), before);
        // The round still advances — the protocol does not wedge.
        assert_eq!(server.round(), 1);
    }

    #[test]
    fn empty_client_set_errors() {
        let (factory, _) = setup(2);
        let mut server = FlServer::new(factory, FlConfig::default()).unwrap();
        assert!(matches!(
            server.run_round(&[], &mut StdRng::seed_from_u64(0)),
            Err(FlError::NoClients)
        ));
    }

    #[test]
    fn round_counter_advances() {
        let (factory, clients) = setup(2);
        let mut server = FlServer::new(factory, FlConfig::default()).unwrap();
        assert_eq!(server.round(), 0);
        server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap();
        assert_eq!(server.round(), 1);
    }

    #[test]
    fn checkpoint_restores_weights() {
        let (factory, clients) = setup(2);
        let mut server = FlServer::new(Arc::clone(&factory), FlConfig::default()).unwrap();
        server.run(&clients, 2, 9).unwrap();
        let trained = flatten_params(server.model_mut());
        let dir = std::env::temp_dir().join(format!("oasis_fl_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("global.oasis");
        server.save_checkpoint(&path).unwrap();

        let mut fresh = FlServer::new(factory, FlConfig::default()).unwrap();
        assert_ne!(flatten_params(fresh.model_mut()), trained);
        fresh.restore_checkpoint(&path).unwrap();
        fresh.set_round(server.round());
        assert_eq!(flatten_params(fresh.model_mut()), trained);
        assert_eq!(fresh.round(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
