//! The round engine: paper Eq. 1 as one streaming loop over any
//! [`ClientSource`].

use oasis_nn::Sequential;
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

    /// How many samples the client at `pos` trains on for a round of
    /// `batch_size`: [`FlClient::round_samples`], which is seed-free.
    /// A source that can read the shard length without materializing
    /// the client should override this.
    fn round_samples(&self, pos: usize, batch_size: usize) -> usize {
        self.with_client(pos, |c| c.round_samples(batch_size, 0))
    }
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

/// One wave lane: a resident model slot, the delivered client it
/// computes this wave, and that client's wire frame once computed.
struct Lane<'a> {
    model: &'a mut Sequential,
    pos: usize,
    frame: Option<Result<(f32, usize, EncodedUpdate)>>,
}

impl FlServer {
    /// Runs one round over `source`, sampling the cohort with
    /// `scheduler` off `rng`. The scheduler is only a reused index
    /// buffer; one sized for a different population is rebuilt.
    /// [`FlServer::run_round`] and `oasis_population::CohortRunner`
    /// are thin callers of this loop.
    ///
    /// The round proceeds: sample cohort → broadcast → **delivery
    /// plan** (every codec's wire size is value-independent, so each
    /// cohort member's fate is decided before any gradient exists) →
    /// closed-form pre-pass summing the delivered clients' sample counts
    /// ([`ClientSource::round_samples`]) → wave-parallel
    /// hydrate/train/encode of **delivered clients only**, each lane
    /// training on its own resident model slot → serial
    /// [`StreamingAggregator::fold`] in delivery order → server SGD
    /// step. The rng draws the selection shuffle first and the round
    /// seed second; the fold order makes the result bit-identical at
    /// any thread count.
    ///
    /// The slots are built by the server's factory the first time a
    /// round needs them, one per wave lane, and kept across rounds:
    /// over a server's lifetime the factory runs at most once per
    /// lane, never once per client.
    ///
    /// Partial participation is expected, not an error: lost or
    /// straggling updates are excluded from aggregation, and a round
    /// where nothing arrives computes nothing and leaves the model
    /// untouched (the round counter still advances).
    ///
    /// # Errors
    ///
    /// [`FlError::NoClients`] on an empty source, client model
    /// errors, wire codec failures, a delivered set whose sample
    /// counts sum to zero, or [`FlError::SampleCount`] when a client
    /// trained on a different count than its predicted one.
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
            // before the first fold. Each count is a closed form in
            // the shard length and the defense's `output_len`; nothing
            // hydrates, trains or draws from an rng.
            let hydrate_span = oasis_telemetry::span("fl.round.hydrate");
            let samples: Vec<usize> = delivered
                .iter()
                .map(|&pos| source.round_samples(pos, batch))
                .collect();
            hydrate_ns = hydrate_span.finish_ns();
            let total: usize = samples.iter().sum();
            if total == 0 {
                return Err(FlError::BadConfig(
                    "weighted FedAvg over zero samples".into(),
                ));
            }
            // Waves of clients, one resident model slot per lane:
            // hydrate → train on the slot → encode, then drop client
            // and gradients; only the wire frame survives into the
            // serial fold, which runs in delivery order so the FP
            // sequence is the same at any thread count.
            let wave_width = parallel::effective_parallelism()
                .min(delivered.len())
                .max(1);
            peak_frame_bytes = wave_width * bytes_up_each;
            let mut loss_sum = 0.0f32;
            for (wave, predicted) in delivered.chunks(wave_width).zip(samples.chunks(wave_width)) {
                let compute_span = oasis_telemetry::span("fl.round.compute");
                // The first wave builds the slots, inside its span.
                let (codec, slots) = self.codec_and_slots(wave.len());
                let mut lanes: Vec<Lane<'_>> = slots
                    .iter_mut()
                    .zip(wave)
                    .map(|(model, &pos)| Lane {
                        model,
                        pos,
                        frame: None,
                    })
                    .collect();
                parallel::for_each_mut(&mut lanes, |_, lane| {
                    let frame = source.with_client(lane.pos, |client| {
                        let update =
                            client.compute_update_in(lane.model, &global, batch, round_seed)?;
                        let encoded = codec.encode(&update.grads)?;
                        Ok((update.loss, update.samples, encoded))
                    });
                    lane.frame = Some(frame);
                });
                compute_ns += compute_span.finish_ns();
                let fold_span = oasis_telemetry::span("fl.round.fold");
                for (lane, &predicted) in lanes.into_iter().zip(predicted) {
                    let (loss, samples, encoded) = lane.frame.expect("every lane computed")?;
                    if samples != predicted {
                        return Err(FlError::SampleCount {
                            client: source.wire_id(lane.pos),
                            stage: source
                                .with_client(lane.pos, |c| c.defense().batch_stage_names()),
                            predicted,
                            computed: samples,
                        });
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition_iid, BatchStage, Defense, DefenseStack, FlConfig, ModelFactory};
    use oasis_data::{cifar_like_with, Batch};
    use oasis_nn::{flatten_params, Linear, Relu};
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A server over a 24-client federation whose factory counts its
    /// calls into `builds`.
    fn counted_federation(
        builds: &Arc<AtomicUsize>,
        defense: DefenseStack,
    ) -> (FlServer, Vec<FlClient>) {
        let data = cifar_like_with(3, 16, 8, 2);
        let d = data.feature_dim();
        let counter = Arc::clone(builds);
        let factory: ModelFactory = Arc::new(move || {
            counter.fetch_add(1, Ordering::Relaxed);
            let mut rng = StdRng::seed_from_u64(5);
            let mut m = Sequential::new();
            m.push(Linear::new(d, 8, &mut rng));
            m.push(Relu::new());
            m.push(Linear::new(8, 3, &mut rng));
            m
        });
        let clients = partition_iid(&data, 24, Arc::new(defense), &mut StdRng::seed_from_u64(9));
        let config = FlConfig {
            local_batch_size: 2,
            ..FlConfig::default()
        };
        (FlServer::new(factory, config).unwrap(), clients)
    }

    #[test]
    fn factory_builds_one_model_per_lane_not_per_client() {
        for threads in [1usize, 2] {
            let builds = Arc::new(AtomicUsize::new(0));
            let (mut server, clients) = counted_federation(&builds, DefenseStack::identity());
            let reports = parallel::with_threads(threads, || server.run(&clients, 10, 3)).unwrap();
            assert!(reports.iter().all(|r| r.participants == 24));
            // One global model, then at most one slot per wave lane.
            let calls = builds.load(Ordering::Relaxed);
            assert!(
                calls <= 1 + threads,
                "{calls} factory calls over 240 client steps at {threads} threads"
            );
        }
    }

    /// Duplicates every sample but claims to keep the batch size.
    struct LyingDoubler;

    impl BatchStage for LyingDoubler {
        fn process(&self, batch: &Batch, _rng: &mut StdRng) -> Batch {
            let mut doubled = batch.clone();
            doubled.images.extend(batch.images.iter().cloned());
            doubled.labels.extend(batch.labels.iter().cloned());
            doubled
        }

        fn output_len(&self, n: usize) -> usize {
            n
        }

        fn name(&self) -> &str {
            "liar"
        }
    }

    impl Defense for LyingDoubler {
        fn name(&self) -> &str {
            "liar"
        }

        fn batch_stage(&self) -> Option<&dyn BatchStage> {
            Some(self)
        }
    }

    #[test]
    fn a_stage_with_a_wrong_output_len_fails_the_round() {
        let builds = Arc::new(AtomicUsize::new(0));
        let (mut server, clients) = counted_federation(&builds, DefenseStack::of(LyingDoubler));
        let before = flatten_params(server.model_mut());
        let err = server
            .run_round(&clients, &mut StdRng::seed_from_u64(0))
            .unwrap_err();
        match err {
            FlError::SampleCount {
                stage,
                predicted,
                computed,
                ..
            } => {
                assert_eq!(stage, "liar");
                assert_eq!((predicted, computed), (2, 4));
            }
            other => panic!("expected a sample-count error, got {other}"),
        }
        // Nothing was folded into the global model.
        assert_eq!(flatten_params(server.model_mut()), before);
    }
}
