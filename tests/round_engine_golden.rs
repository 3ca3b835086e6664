//! The round engine against recorded numbers.
//!
//! `round_engine_golden.json` pins the output of `FlServer::run` for
//! three protocol shapes, captured from the resident-client round
//! loop that computed every selected client and decoded lossy frames
//! in parallel waves, before it was folded into the one streaming
//! round engine:
//!
//! * `full_participation` — 4 clients, everyone every round, raw
//!   codec over the ideal network, 3 rounds, seed 42;
//! * `subset_2_of_6` — 6 clients, `clients_per_round: 2`, raw over
//!   ideal, 4 rounds, seed 7;
//! * `q8_sim_lossy` — 6 clients, everyone, the q8 codec over
//!   `sim:5,10,0.25` (drops happen), 5 rounds, seed 99.
//!
//! Every `RoundReport` field is recorded exactly (f32/f64 fields as
//! their bit patterns, `timings` excluded as wall-clock measurement)
//! together with an FNV-1a digest of the final weights' bits. Both
//! client sources — the resident `&[FlClient]` slice and a matched
//! descriptor `Population` driven with the same sequential rng — must
//! reproduce the fixture bit for bit, at any thread count and under
//! every `OASIS_SIMD` backend.

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
use serde::Value;

const GOLDEN: &str = include_str!("round_engine_golden.json");

const CLASSES: usize = 3;
const SIDE: usize = 8;
const HIDDEN: usize = 12;

/// One recorded protocol shape.
struct Case {
    name: &'static str,
    clients: usize,
    clients_per_round: usize,
    wire: fn() -> WireConfig,
    rounds: usize,
    seed: u64,
}

fn lossy_wire() -> WireConfig {
    WireConfig::new(CodecSpec::Q8, "sim:5,10,0.25".parse().unwrap())
}

const CASES: [Case; 3] = [
    Case {
        name: "full_participation",
        clients: 4,
        clients_per_round: 0,
        wire: WireConfig::default,
        rounds: 3,
        seed: 42,
    },
    Case {
        name: "subset_2_of_6",
        clients: 6,
        clients_per_round: 2,
        wire: WireConfig::default,
        rounds: 4,
        seed: 7,
    },
    Case {
        name: "q8_sim_lossy",
        clients: 6,
        clients_per_round: 0,
        wire: lossy_wire,
        rounds: 5,
        seed: 99,
    },
];

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

fn server(case: &Case) -> FlServer {
    let config = FlConfig {
        clients_per_round: case.clients_per_round,
        ..FlConfig::default()
    };
    let mut server = FlServer::new(factory(), config).unwrap();
    server.set_wire((case.wire)());
    server
}

/// `FlServer::run` over resident clients.
fn run_resident(case: &Case) -> (Vec<RoundReport>, Vec<f32>) {
    let data = cifar_like_with(CLASSES, 8, SIDE, 3);
    let clients = partition_iid(
        &data,
        case.clients,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(5),
    );
    let mut server = server(case);
    let reports = server.run(&clients, case.rounds, case.seed).unwrap();
    (reports, flatten_params(server.model_mut()))
}

/// The same deployment as descriptors, driven with `FlServer::run`'s
/// sequential rng.
fn run_population(case: &Case) -> (Vec<RoundReport>, Vec<f32>) {
    let data = cifar_like_with(CLASSES, 8, SIDE, 3);
    let population = Population::iid(
        &data,
        case.clients,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(5),
    );
    let mut runner = CohortRunner::new(server(case), population);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let reports = (0..case.rounds)
        .map(|_| runner.run_round(&mut rng).unwrap().round_report)
        .collect();
    (reports, flatten_params(runner.server_mut().model_mut()))
}

/// FNV-1a over the little-endian bit patterns of `values`.
fn digest(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A report's protocol fields, each as an exact integer.
fn fields(r: &RoundReport) -> [(&'static str, u64); 9] {
    [
        ("round", r.round as u64),
        ("participants", r.participants as u64),
        ("cohort", r.cohort as u64),
        ("dropped", r.dropped as u64),
        ("mean_loss_bits", r.mean_loss.to_bits() as u64),
        ("update_norm_bits", r.update_norm.to_bits() as u64),
        ("bytes_up", r.bytes_up),
        ("bytes_down", r.bytes_down),
        ("sim_ms_bits", r.sim_ms.to_bits()),
    ]
}

fn check(case: &Case, source: &str, (reports, weights): (Vec<RoundReport>, Vec<f32>)) {
    let fixture: Value = serde_json::from_str::<Value>(GOLDEN).expect("fixture parses");
    let golden = fixture
        .get(case.name)
        .unwrap_or_else(|| panic!("fixture has no case {}", case.name));
    let Some(Value::Array(rounds)) = golden.get("rounds") else {
        panic!("case {} has no rounds array", case.name)
    };
    assert_eq!(
        reports.len(),
        rounds.len(),
        "{}/{source}: round count",
        case.name
    );
    for (report, want) in reports.iter().zip(rounds) {
        for (field, got) in fields(report) {
            let want = want.get(field).and_then(Value::as_u64);
            assert_eq!(
                Some(got),
                want,
                "{}/{source}: round {} field {field}",
                case.name,
                report.round
            );
        }
    }
    let want = golden.get("weights_digest").and_then(Value::as_u64);
    assert_eq!(
        Some(digest(&weights)),
        want,
        "{}/{source}: final weights",
        case.name
    );
}

#[test]
fn resident_rounds_reproduce_the_recorded_engine() {
    for case in &CASES {
        check(case, "resident", run_resident(case));
    }
}

#[test]
fn population_rounds_reproduce_the_recorded_engine() {
    for case in &CASES {
        check(case, "population", run_population(case));
    }
}

#[test]
fn recorded_rounds_hold_at_every_thread_count() {
    for threads in [1, 2, 4] {
        parallel::with_threads(threads, || {
            for case in &CASES {
                check(case, &format!("resident@{threads}"), run_resident(case));
            }
        });
    }
}

#[test]
fn lossy_case_actually_drops_updates() {
    let (reports, _) = run_resident(&CASES[2]);
    assert!(
        reports.iter().any(|r| r.dropped > 0),
        "the q8 case must exercise partial participation"
    );
}
