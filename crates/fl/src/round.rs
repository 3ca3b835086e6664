//! The round engine: paper Eq. 1 as one streaming loop over any
//! [`ClientSource`].

use oasis_tensor::parallel;
use oasis_wire::{DeliveryStatus, EncodedUpdate, Submission};
use rand::rngs::StdRng;

use crate::{
    CohortScheduler, FlClient, FlError, FlServer, Result, RoundReport, RoundTimings,
    StreamingAggregator,
};

/// Where a round's clients come from: `N` clients addressed by
/// position `0..N`, which is what [`CohortScheduler`] samples.
///
/// Two sources exist. A resident `[FlClient]` slice lends its clients
/// and keys wire fates by [`FlClient::id`]. A descriptor population
/// (`oasis_population::Population`) hydrates a client per call and
/// keys wire fates by position, which after churn differs from the
/// descriptor id.
pub trait ClientSource: Sync {
    /// How many clients the source holds.
    fn population(&self) -> usize;

    /// The client id the simulated network keys the delivery fate of
    /// the client at `pos` by.
    fn wire_id(&self, pos: usize) -> usize;

    /// Runs `f` on the client at `pos`, materializing it for the
    /// call if the source does not hold it resident.
    fn with_client<R>(&self, pos: usize, f: impl FnOnce(&FlClient) -> R) -> R;
}

impl ClientSource for [FlClient] {
    fn population(&self) -> usize {
        self.len()
    }

    fn wire_id(&self, pos: usize) -> usize {
        self[pos].id()
    }

    fn with_client<R>(&self, pos: usize, f: impl FnOnce(&FlClient) -> R) -> R {
        f(&self[pos])
    }
}

/// A [`RoundReport`] plus the resource facts of the round that the
/// protocol report has no room for.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortReport {
    /// The protocol-level outcome.
    pub round_report: RoundReport,
    /// How many clients the cohort was sampled from.
    pub population: usize,
    /// How many clients computed an update. A cohort member's
    /// delivery fate is known from the wire plan before any compute,
    /// so dropped members never compute and this equals
    /// `round_report.participants`, not the cohort.
    pub computed: usize,
    /// Peak accumulator + decode-scratch bytes held by the streaming
    /// fold, independent of population and cohort: `4·n` for an
    /// `n`-parameter model on the raw zero-copy wire (frames fold as
    /// borrowed views), `2 × 4·n` when a lossy codec needs a decode
    /// slot.
    pub peak_accum_bytes: usize,
    /// Peak encoded-frame bytes alive at once: one wire frame per
    /// concurrent compute slot, `O(threads · frame)`, never
    /// `O(cohort · frame)`.
    pub peak_frame_bytes: usize,
}

impl FlServer {
    /// Runs one round over `source`, sampling the cohort with
    /// `scheduler` off `rng`. The scheduler is only a reused index
    /// buffer; one sized for a different population is rebuilt.
    /// [`FlServer::run_round`] and `oasis_population::CohortRunner`
    /// are thin callers of this loop.
    ///
    /// The round proceeds: sample cohort → tamper (if dishonest) and
    /// broadcast → **delivery plan** (every codec's wire size is
    /// value-independent, so each cohort member's fate is decided
    /// before any gradient exists) → pre-pass summing the delivered
    /// clients' sample counts → wave-parallel hydrate/compute/encode
    /// of **delivered clients only** → serial
    /// [`StreamingAggregator::fold`] in delivery order → server SGD
    /// step. The rng draws the selection shuffle first and the round
    /// seed second; the fold order makes the result bit-identical at
    /// any thread count.
    ///
    /// Partial participation is expected, not an error: lost or
    /// straggling updates are excluded from aggregation, and a round
    /// where nothing arrives computes nothing and leaves the model
    /// untouched (the round counter still advances).
    ///
    /// # Errors
    ///
    /// [`FlError::NoClients`] on an empty source, client model
    /// errors, wire codec failures, or a delivered set whose sample
    /// counts sum to zero.
    pub fn run_cohort_round<S: ClientSource + ?Sized>(
        &mut self,
        source: &S,
        scheduler: &mut CohortScheduler,
        rng: &mut StdRng,
    ) -> Result<CohortReport> {
        if source.population() == 0 {
            return Err(FlError::NoClients);
        }
        if scheduler.population() != source.population() {
            *scheduler = CohortScheduler::new(source.population());
        }
        let round_span = oasis_telemetry::span("fl.round");
        let traced = oasis_telemetry::enabled();

        // Random client selection (paper: "a subset of M < N users is
        // randomly selected").
        let select_span = oasis_telemetry::span("fl.round.select");
        let m = scheduler.cohort_size(self.config().clients_per_round);
        let (cohort, round_seed) = scheduler.sample(m, rng);
        let select_ns = select_span.finish_ns();

        let broadcast_span = oasis_telemetry::span("fl.round.broadcast");
        let global = self.broadcast_weights();
        let n = global.len();
        let round = self.round();
        let broadcast_ns = broadcast_span.finish_ns();

        // Delivery plan: per-submission fates are pure in
        // (seed, round, client, bytes), and bytes are value-
        // independent, so the whole wire outcome is known before a
        // single gradient is computed. Dropped clients cost nothing.
        let deliver_span = oasis_telemetry::span("fl.round.deliver");
        let codec = self.wire().update_codec();
        let bytes_up_each = codec.encoded_len(n);
        let submissions: Vec<Submission> = cohort
            .iter()
            .map(|&pos| Submission {
                client_id: source.wire_id(pos as usize),
                bytes_up: bytes_up_each,
                bytes_down: n * 4,
            })
            .collect();
        let traffic = self
            .wire()
            .net
            .deliver(round_seed, round as u64, &submissions);
        let delivered: Vec<usize> = cohort
            .iter()
            .zip(&traffic.deliveries)
            .filter(|(_, d)| d.status == DeliveryStatus::Delivered)
            .map(|(&pos, _)| pos as usize)
            .collect();
        let deliver_ns = deliver_span.finish_ns();

        let batch = self.config().local_batch_size;
        let mut agg = StreamingAggregator::new(n);
        let mut peak_frame_bytes = 0usize;
        let mut hydrate_ns = 0u64;
        let mut compute_ns = 0u64;
        let mut fold_ns = 0u64;
        let mut step_ns = 0u64;
        let (mean_loss, update_norm) = if delivered.is_empty() {
            (0.0, 0.0)
        } else {
            // Pre-pass: FedAvg weights need the delivered total
            // before the first fold. `round_samples` replays only the
            // rng-consuming batch prefix — no model, no gradients.
            let hydrate_span = oasis_telemetry::span("fl.round.hydrate");
            let samples: Vec<usize> = parallel::map_indexed(&delivered, |_, &pos| {
                source.with_client(pos, |c| c.round_samples(batch, round_seed))
            });
            hydrate_ns = hydrate_span.finish_ns();
            let total: usize = samples.iter().sum();
            if total == 0 {
                return Err(FlError::BadConfig(
                    "weighted FedAvg over zero samples".into(),
                ));
            }
            // Waves of clients: hydrate → compute → encode, then drop
            // client and gradients; only the wire frame survives into
            // the serial fold, which runs in delivery order so the FP
            // sequence is the same at any thread count.
            let wave_width = parallel::effective_parallelism()
                .min(delivered.len())
                .max(1);
            peak_frame_bytes = wave_width * bytes_up_each;
            let factory = self.factory();
            let mut loss_sum = 0.0f32;
            for wave in delivered.chunks(wave_width) {
                let compute_span = oasis_telemetry::span("fl.round.compute");
                let frames: Vec<Result<(f32, usize, EncodedUpdate)>> =
                    parallel::map_indexed(wave, |_, &pos| {
                        source.with_client(pos, |client| {
                            let update =
                                client.compute_update(factory, &global, batch, round_seed)?;
                            let encoded = codec.encode(&update.grads)?;
                            Ok((update.loss, update.samples, encoded))
                        })
                    });
                compute_ns += compute_span.finish_ns();
                let fold_span = oasis_telemetry::span("fl.round.fold");
                for frame in frames {
                    let (loss, samples, encoded) = frame?;
                    agg.fold(codec, &encoded, samples as f32 / total as f32)?;
                    loss_sum += loss;
                }
                fold_ns += fold_span.finish_ns();
            }
            oasis_telemetry::counter!("fl.clients_computed").add(delivered.len() as u64);
            oasis_telemetry::gauge!("agg.peak_accum_bytes").set_max(agg.peak_bytes() as i64);
            let mean_loss = loss_sum / delivered.len() as f32;
            let update_norm = agg.norm();
            let step_span = oasis_telemetry::span("fl.round.step");
            self.apply_update(agg.as_slice())?;
            step_ns = step_span.finish_ns();
            (mean_loss, update_norm)
        };

        oasis_telemetry::counter!("fl.rounds").add(1);
        let total_ns = round_span.finish_ns();
        let timings = traced.then_some(RoundTimings {
            select_ns,
            broadcast_ns,
            deliver_ns,
            hydrate_ns,
            compute_ns,
            fold_ns,
            step_ns,
            total_ns,
        });
        let round_report = RoundReport {
            round,
            participants: delivered.len(),
            cohort: m,
            dropped: traffic.dropped,
            mean_loss,
            update_norm,
            bytes_up: traffic.bytes_up,
            bytes_down: traffic.bytes_down,
            sim_ms: traffic.round_ms,
            timings,
        };
        self.set_round(round + 1);
        Ok(CohortReport {
            round_report,
            population: source.population(),
            computed: agg.folded(),
            peak_accum_bytes: agg.peak_bytes(),
            peak_frame_bytes,
        })
    }
}
