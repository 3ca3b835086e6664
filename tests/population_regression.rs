//! The two client sources of the one round engine: at matched scale
//! (population == resident client count, same seed, same wire) a
//! descriptor `Population` driven by the cohort runner must reproduce
//! `FlServer::run` over resident clients **bit-exactly** — reports
//! and final weights — and stay bit-identical at 1, 2, and 4 threads.
//! Both sources run the same loop, so this pins the source plumbing
//! (selection, wire keys, hydration); `round_engine_golden.rs` pins
//! the loop itself to recorded numbers. Plus the scale-side
//! guarantees only descriptors can express: bounded aggregation
//! memory at 100k clients and split-resumable keyed runs.

use std::sync::Arc;

use oasis_data::cifar_like_with;
use oasis_fl::{
    partition_iid, DefenseStack, FlConfig, FlServer, ModelFactory, RoundReport, WireConfig,
};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use oasis_tensor::parallel;
use oasis_wire::CodecSpec;
use rand::{rngs::StdRng, SeedableRng};

const CLASSES: usize = 3;
const SIDE: usize = 8;
const HIDDEN: usize = 12;

fn factory() -> ModelFactory {
    let d = SIDE * SIDE * 3;
    Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Sequential::new();
        m.push(Linear::new(d, HIDDEN, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(HIDDEN, CLASSES, &mut rng));
        m
    })
}

fn model_params() -> usize {
    SIDE * SIDE * 3 * HIDDEN + HIDDEN + HIDDEN * CLASSES + CLASSES
}

/// Runs both client sources over the same protocol inputs and
/// returns (resident reports, resident weights, cohort reports,
/// cohort weights).
fn both_paths(
    clients: usize,
    config: FlConfig,
    wire: fn() -> WireConfig,
    rounds: usize,
    seed: u64,
) -> (Vec<RoundReport>, Vec<f32>, Vec<RoundReport>, Vec<f32>) {
    let data = cifar_like_with(CLASSES, 8, SIDE, 3);
    let defense = Arc::new(DefenseStack::identity());

    let legacy_clients = partition_iid(
        &data,
        clients,
        Arc::clone(&defense),
        &mut StdRng::seed_from_u64(5),
    );
    let mut legacy = FlServer::new(factory(), config.clone()).unwrap();
    legacy.set_wire(wire());
    let legacy_reports = legacy.run(&legacy_clients, rounds, seed).unwrap();
    let legacy_weights = flatten_params(legacy.model_mut());

    let population = Population::iid(&data, clients, defense, &mut StdRng::seed_from_u64(5));
    let mut server = FlServer::new(factory(), config).unwrap();
    server.set_wire(wire());
    let mut runner = CohortRunner::new(server, population);
    // The bridge drives the runner with the exact rng stream
    // `FlServer::run` uses: one sequential rng across rounds.
    let mut rng = StdRng::seed_from_u64(seed);
    let cohort_reports: Vec<RoundReport> = (0..rounds)
        .map(|_| runner.run_round(&mut rng).unwrap().round_report)
        .collect();
    let cohort_weights = flatten_params(runner.server_mut().model_mut());
    (
        legacy_reports,
        legacy_weights,
        cohort_reports,
        cohort_weights,
    )
}

#[test]
fn streaming_rounds_match_legacy_bit_exactly() {
    let (legacy_reports, legacy_weights, cohort_reports, cohort_weights) =
        both_paths(4, FlConfig::default(), WireConfig::default, 3, 42);
    assert_eq!(legacy_reports, cohort_reports);
    assert_eq!(legacy_weights, cohort_weights);
}

#[test]
fn subset_selection_matches_legacy_bit_exactly() {
    let config = FlConfig {
        clients_per_round: 2,
        ..FlConfig::default()
    };
    let (legacy_reports, legacy_weights, cohort_reports, cohort_weights) =
        both_paths(6, config, WireConfig::default, 4, 7);
    assert_eq!(legacy_reports, cohort_reports);
    assert_eq!(legacy_weights, cohort_weights);
    assert!(cohort_reports.iter().all(|r| r.cohort == 2));
}

#[test]
fn lossy_compressed_wire_matches_legacy_bit_exactly() {
    fn lossy() -> WireConfig {
        WireConfig::new(CodecSpec::Q8, "sim:5,10,0.25".parse().unwrap())
    }
    let (legacy_reports, legacy_weights, cohort_reports, cohort_weights) =
        both_paths(6, FlConfig::default(), lossy, 5, 99);
    assert_eq!(legacy_reports, cohort_reports);
    assert_eq!(legacy_weights, cohort_weights);
    assert!(
        cohort_reports.iter().any(|r| r.dropped > 0),
        "a 25% drop rate should lose something over 5 rounds"
    );
}

#[test]
fn bridge_is_thread_count_invariant() {
    let run = || both_paths(5, FlConfig::default(), WireConfig::default, 2, 3);
    let (_, w1, r1, c1) = parallel::with_threads(1, run);
    let (_, w2, r2, c2) = parallel::with_threads(2, run);
    let (_, w4, r4, c4) = parallel::with_threads(4, run);
    assert_eq!(r1, r2);
    assert_eq!(r1, r4);
    assert_eq!(c1, c2);
    assert_eq!(c1, c4);
    assert_eq!(w1, w2);
    assert_eq!(w1, w4);
}

#[test]
fn zero_delivered_cohort_round_is_a_noop() {
    let data = cifar_like_with(CLASSES, 4, SIDE, 0);
    let pop = Population::iid(
        &data,
        32,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(1),
    );
    let mut server = FlServer::new(
        factory(),
        FlConfig {
            clients_per_round: 8,
            ..FlConfig::default()
        },
    )
    .unwrap();
    // A deadline no update can meet: everything is a straggler.
    server.set_wire(WireConfig::new(
        CodecSpec::Raw,
        "sim:1000,1,0,1".parse().unwrap(),
    ));
    let before = flatten_params(server.model_mut());
    let mut runner = CohortRunner::new(server, pop);
    let report = runner.run_round(&mut StdRng::seed_from_u64(0)).unwrap();
    assert_eq!(report.round_report.participants, 0);
    assert_eq!(report.round_report.dropped, 8);
    assert_eq!(report.computed, 0, "no-op rounds must not hydrate anyone");
    assert_eq!(report.round_report.update_norm, 0.0);
    assert_eq!(flatten_params(runner.server_mut().model_mut()), before);
    assert_eq!(runner.server().round(), 1, "the protocol must not wedge");
}

#[test]
fn hundred_k_population_round_has_bounded_memory() {
    let data = cifar_like_with(CLASSES, 8, SIDE, 2);
    let pop = Population::iid(
        &data,
        100_000,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(5),
    );
    let mut server = FlServer::new(
        factory(),
        FlConfig {
            clients_per_round: 64,
            ..FlConfig::default()
        },
    )
    .unwrap();
    server.set_wire(WireConfig::new(
        CodecSpec::Q8,
        "sim:10,20,0.1".parse().unwrap(),
    ));
    let mut runner = CohortRunner::new(server, pop);
    let report = runner.run_round(&mut StdRng::seed_from_u64(8)).unwrap();
    assert_eq!(report.population, 100_000);
    assert_eq!(report.round_report.cohort, 64);
    assert!(report.round_report.participants > 0);
    // The ISSUE's memory bound, asserted: decode + accumulator
    // scratch stays within 2× the model's own bytes no matter the
    // population.
    let model_bytes = 4 * model_params();
    assert!(
        report.peak_accum_bytes <= 2 * model_bytes,
        "aggregation scratch {} exceeds 2x model bytes {}",
        report.peak_accum_bytes,
        2 * model_bytes
    );
    // Frame scratch is O(threads), never O(cohort): even at the
    // maximum wave width the frames alive at once stay under the
    // cohort total.
    assert!(report.peak_frame_bytes <= parallel::num_threads().max(1) * (model_bytes + 64));
}

#[test]
fn keyed_runs_split_and_replay() {
    let data = cifar_like_with(CLASSES, 6, SIDE, 4);
    let make = || {
        let pop = Population::iid(
            &data,
            40,
            Arc::new(DefenseStack::identity()),
            &mut StdRng::seed_from_u64(2),
        );
        let server = FlServer::new(
            factory(),
            FlConfig {
                clients_per_round: 8,
                ..FlConfig::default()
            },
        )
        .unwrap();
        CohortRunner::new(server, pop)
    };
    let mut whole = make();
    let all = whole.run(4, 1234).unwrap();
    let mut split = make();
    let head = split.run(2, 1234).unwrap();
    let tail = split.run(2, 1234).unwrap();
    let rejoined: Vec<_> = head.into_iter().chain(tail).collect();
    assert_eq!(all, rejoined);
    assert_eq!(
        flatten_params(whole.server_mut().model_mut()),
        flatten_params(split.server_mut().model_mut()),
    );
}
