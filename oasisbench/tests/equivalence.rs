//! The traced run's stepped ops against the library ops they break
//! down, bit for bit; every workload at a second seed; and the
//! metric names `BENCHMARK.json` declares.

use oasisbench::alloc::CountingAlloc;
use oasisbench::attack_cell::{same_bits, AttackCell};
use oasisbench::campaign::CampaignBench;
use oasisbench::cohort::{weights_digest, CohortTrain};
use oasisbench::record::Record;
use oasisbench::report::{END_TO_END, PER_LAYER};
use oasisbench::run::{timed, traced, Workload};
use oasisbench::steps::stepped_client_update;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 3;

fn image_bits(images: &[oasis_image::Image]) -> Vec<u32> {
    images
        .iter()
        .flat_map(|im| {
            im.to_tensor()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn stepped_trial_matches_the_attack_harness() {
    let cell = AttackCell::setup(SEED, &mut Record::default()).unwrap();
    let reference = cell.reference().unwrap();
    for (i, want) in reference.iter().enumerate().take(2) {
        let outcome = cell.outcome(i).unwrap();
        let steps = cell.stepped_trial(i, &mut Record::default()).unwrap();
        assert!(same_bits(&steps.matched_psnrs, &outcome.matched_psnrs));
        assert!(same_bits(
            &steps.per_original_best,
            &outcome.per_original_best
        ));
        assert_eq!(
            image_bits(&steps.reconstructions),
            image_bits(&outcome.reconstructions)
        );
        assert!(same_bits(&steps.matched_psnrs, want));
    }
}

#[test]
fn stepped_client_update_matches_compute_update() {
    let cell = CohortTrain::setup(SEED, &mut Record::default());
    let mut server = cell.server();
    let global = server.broadcast_weights();
    let population = cell.population();
    for id in [0usize, 17, 9_999] {
        let client = population.hydrate(population.descriptor(id));
        let round_seed = 0xABCD ^ id as u64;
        let lib = client
            .compute_update(server.factory(), &global, 8, round_seed)
            .unwrap();
        let (grads, loss, samples) = stepped_client_update(
            &client,
            server.factory(),
            &global,
            8,
            round_seed,
            &mut Record::default(),
        )
        .unwrap();
        assert_eq!(samples, lib.samples);
        assert_eq!(loss.to_bits(), lib.loss.to_bits());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&grads), bits(&lib.grads));
    }
}

#[test]
fn stepped_rounds_match_the_cohort_runner() {
    let cell = CohortTrain::setup(SEED, &mut Record::default());
    let mut server = cell.server();
    let mut scheduler = cell.scheduler();
    let mut runner = cell.runner();
    for _ in 0..3 {
        let (cohort, delivered) = cell
            .stepped_round(&mut server, &mut scheduler, &mut Record::default())
            .unwrap();
        assert_eq!((cohort, delivered), (64, 64));
        cell.run_round(&mut runner).unwrap();
        assert_eq!(
            weights_digest(&mut server),
            weights_digest(runner.server_mut())
        );
    }
    assert_eq!(
        weights_digest(&mut server),
        cell.reference_digest(3).unwrap()
    );
    assert_eq!(
        cell.reference_digest(3).unwrap(),
        cell.reference_digest(3).unwrap()
    );
}

#[test]
fn allocation_counts_repeat_exactly() {
    let cell = CohortTrain::setup(SEED, &mut Record::default());
    let counts = || {
        let mut rec = Record::default();
        let mut server = cell.server();
        cell.stepped_round(&mut server, &mut cell.scheduler(), &mut rec)
            .unwrap();
        (
            rec.get("nn.factory_allocs"),
            rec.get("wire.encode_allocs"),
            rec.get("bench.allocs"),
            rec.get("population.hydrate_bytes"),
        )
    };
    // The first round pays one-time lazy initialisation; after it every
    // round allocates alike.
    counts();
    let first = counts();
    assert!(
        first.0 > 0.0 && first.2 > 0.0,
        "the counting allocator is installed"
    );
    assert_eq!(first, counts());
}

#[test]
fn campaign_replays_match_the_campaign() {
    let bench = CampaignBench::new(SEED, &mut Record::default());
    let mut campaign = bench.campaign(&mut Record::default()).unwrap();
    let mut shadow = bench.shadow().unwrap();
    let mut probes = 0;
    for _ in 0..11 {
        assert!(shadow.steps_training(campaign.round()));
        shadow
            .step_training(&mut campaign, &mut Record::default())
            .unwrap();
        campaign.run_rounds(1).unwrap();
        assert!(shadow.weights_match(&mut campaign));
        let record = campaign.records().last().unwrap().clone();
        if record.attack.is_some() {
            shadow.step_probe(&record, &mut Record::default()).unwrap();
            probes += 1;
        }
    }
    assert_eq!(probes, 3, "rounds 0, 5 and 10 are probed");
}

#[test]
fn every_workload_runs_clean_at_a_second_seed() {
    for w in Workload::ALL {
        let t = timed(w, 7, 0.3).unwrap();
        assert!(t.attempted > 0, "{w:?} ran no ops");
        assert_eq!(t.failed, 0, "{w:?}: {:?}", t.notes);
        assert!(t.correct, "{w:?}: {:?}", t.notes);
        let metrics = t.metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(
            metrics.iter().all(|(_, v, _)| *v > 0.0),
            "{w:?}: {metrics:?}"
        );
    }
}

#[test]
fn traced_runs_step_every_op_identically() {
    for w in [Workload::AttackCell, Workload::CohortTrain] {
        let t = traced(w, 7, 1.2).unwrap();
        assert!(!t.ops.is_empty(), "{w:?} traced no ops");
        assert_eq!(t.failed, 0, "{w:?}: {:?}", t.notes);
        assert_eq!(t.metrics().len(), PER_LAYER.len());
    }
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let declared = text.matches("\"name\":").count();
    let workloads = text.matches("\"why\":").count();
    assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Every workload BENCHMARK.json lists is one the binary runs.
    for entry in text.split("\"name\": \"").skip(1) {
        let (name, rest) = entry.split_once('"').unwrap();
        if rest.starts_with(", \"why\"") {
            name.parse::<Workload>().unwrap();
        }
    }
}
