//! The workload drivers: an untraced closed loop that yields the
//! end-to-end metrics, and a traced run that steps ops layer by layer.

use std::str::FromStr;
use std::time::Instant;

use oasis_tensor::parallel;

use crate::alloc;
use crate::attack_cell::{self, pooled_mean, same_bits, AttackCell, TRIALS};
use crate::campaign::{trajectory_digest, trajectory_jsonl, CampaignBench};
use crate::cohort::{weights_digest, CohortTrain};
use crate::record::{measure, peak_rss_mb, Record};
use crate::report::{Timed, Traced};
use crate::steps::front;

/// Setups made before an untraced run times its ops; `setup_s` is
/// their median.
pub const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One attacked trial per op (the paper's experiment).
    AttackCell,
    /// One streaming cohort round per op.
    CohortTrain,
    /// One campaign round per op.
    CampaignAdaptive,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AttackCell,
        Workload::CohortTrain,
        Workload::CampaignAdaptive,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackCell => "attack_cell",
            Workload::CohortTrain => "cohort_train",
            Workload::CampaignAdaptive => "campaign_adaptive",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or(format!(
            "unknown workload `{s}` (expected attack_cell, cohort_train, campaign_adaptive or all)"
        ))
    }
}

fn since_ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `workload` untraced for `seconds` of timed wall clock.
///
/// # Errors
///
/// A message when setup or a reference computation fails; op failures
/// are counted, not returned.
pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Result<Timed, String> {
    match workload {
        Workload::AttackCell => timed_attack_cell(seed, seconds),
        Workload::CohortTrain => timed_cohort(seed, seconds),
        Workload::CampaignAdaptive => timed_campaign(seed, seconds),
    }
}

/// Runs `workload` traced: a short untraced window for the overhead
/// baseline, then ops stepped layer by layer until `seconds` have
/// passed (at least one full campaign for `campaign_adaptive`).
///
/// # Errors
///
/// A message when setup or a reference computation fails.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    match workload {
        Workload::AttackCell => traced_attack_cell(seed, seconds),
        Workload::CohortTrain => traced_cohort(seed, seconds),
        Workload::CampaignAdaptive => traced_campaign(seed, seconds),
    }
}

/// The untraced share of a traced run.
fn baseline_seconds(seconds: f64) -> f64 {
    (seconds * 0.25).max(1.0)
}

fn timed_attack_cell(seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut t = Timed::default();
    let mut cell = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        cell = Some(AttackCell::setup(seed, &mut Record::default())?);
        t.setup_s.push(start.elapsed().as_secs_f64());
    }
    let cell = cell.expect("SETUPS > 0");
    let reference = cell.reference()?;
    let trials: Vec<usize> = (0..TRIALS).collect();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let results = parallel::map_indexed(&trials, |_, &i| {
            let op = Instant::now();
            let psnrs = cell.run_trial(i);
            (psnrs, since_ms(op))
        });
        for (i, (psnrs, ms)) in results.into_iter().enumerate() {
            t.attempted += 1;
            t.op_ms.push(ms);
            match psnrs {
                Ok(p) if same_bits(&p, &reference[i]) => {}
                Ok(_) => {
                    t.failed += 1;
                    t.notes
                        .push(format!("trial {i}: PSNRs differ from Scenario::run"));
                }
                Err(e) => {
                    t.failed += 1;
                    t.notes.push(e);
                }
            }
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let mean = pooled_mean(&reference);
    if mean >= attack_cell::LEAK_THRESHOLD_DB {
        t.notes.push(format!(
            "defended mean PSNR {mean:.2} dB is not below the {} dB leak threshold",
            attack_cell::LEAK_THRESHOLD_DB
        ));
    }
    t.correct = t.failed == 0 && mean < attack_cell::LEAK_THRESHOLD_DB;
    Ok(t)
}

fn timed_cohort(seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut t = Timed::default();
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let cell = CohortTrain::setup(seed, &mut Record::default());
        let runner = cell.runner();
        t.setup_s.push(start.elapsed().as_secs_f64());
        built = Some((cell, runner));
    }
    let (cell, mut runner) = built.expect("SETUPS > 0");
    // Warm the pool and the allocator on a throwaway runner.
    let mut warm = cell.runner();
    for _ in 0..2 {
        cell.run_round(&mut warm)?;
    }
    drop(warm);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let op = Instant::now();
        let result = cell.run_round(&mut runner);
        t.op_ms.push(since_ms(op));
        t.attempted += 1;
        if let Err(e) = result {
            t.failed += 1;
            t.notes.push(e);
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let got = weights_digest(runner.server_mut());
    let want = cell.reference_digest(t.attempted as usize)?;
    if got != want {
        t.notes.push(format!(
            "weights after {} rounds: digest {got:016x}, CohortRunner::run gives {want:016x}",
            t.attempted
        ));
        t.failed = t.attempted;
    }
    t.correct = t.failed == 0;
    Ok(t)
}

fn timed_campaign(seed: u64, seconds: f64) -> Result<Timed, String> {
    let mut t = Timed::default();
    let setup = |t: &mut Timed| -> Result<_, String> {
        let start = Instant::now();
        let bench = CampaignBench::new(seed, &mut Record::default());
        let campaign = bench.campaign(&mut Record::default())?;
        t.setup_s.push(start.elapsed().as_secs_f64());
        Ok((bench, campaign))
    };
    let mut current = None;
    for _ in 0..SETUPS {
        current = Some(setup(&mut t)?);
    }
    let (bench, mut campaign) = current.expect("SETUPS > 0");
    let reference = bench.reference()?;
    let mut ops_in_campaign = 0u64;
    let check = |t: &mut Timed, text: &str, ops: u64, complete: bool| {
        let ok = if complete {
            text == reference
        } else {
            reference.starts_with(text)
        };
        if !ok {
            t.failed += ops;
            t.notes.push(format!(
                "trajectory digest {:016x} differs from CampaignRunner::run's {:016x}",
                trajectory_digest(text),
                trajectory_digest(&reference)
            ));
        }
    };
    while t.wall_s < seconds {
        if campaign.is_complete() {
            check(&mut t, &trajectory_jsonl(&campaign), ops_in_campaign, true);
            campaign = setup(&mut t)?.1;
            ops_in_campaign = 0;
        }
        let op = Instant::now();
        let result = campaign.run_rounds(1);
        let ms = since_ms(op);
        t.wall_s += ms / 1e3;
        t.op_ms.push(ms);
        t.attempted += 1;
        ops_in_campaign += 1;
        if let Err(e) = result {
            t.failed += 1;
            t.notes.push(format!("round {}: {e}", campaign.round()));
        }
    }
    t.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let complete = campaign.is_complete();
    check(
        &mut t,
        &trajectory_jsonl(&campaign),
        ops_in_campaign,
        complete,
    );
    t.correct = t.failed == 0;
    Ok(t)
}

fn traced_attack_cell(seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut t = Traced::default();
    let mut cell = None;
    for _ in 0..3 {
        cell = Some(AttackCell::setup(seed, &mut t.setup)?);
        t.setups += 1;
    }
    let cell = cell.expect("three setups");
    let reference = cell.reference()?;
    let trials: Vec<usize> = (0..TRIALS).collect();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < baseline_seconds(seconds) {
        t.untraced_ms
            .extend(parallel::map_indexed(&trials, |_, &i| {
                let op = Instant::now();
                let _ = cell.run_trial(i);
                since_ms(op)
            }));
    }
    while start.elapsed().as_secs_f64() < seconds || t.ops.is_empty() {
        let results = front(&mut t.fronts, &trials, |_, &i, lane| {
            cell.stepped_trial(i, lane)
        });
        for (i, (steps, lane)) in results.into_iter().enumerate() {
            t.attempted += 1;
            t.traced_ms.push(lane.get("tensor.pool_busy_ms"));
            match steps {
                Ok(s) if same_bits(&s.matched_psnrs, &reference[i]) => {}
                Ok(_) => {
                    t.failed += 1;
                    t.notes.push(format!(
                        "trial {i}: stepped PSNRs differ from Scenario::run"
                    ));
                }
                Err(e) => {
                    t.failed += 1;
                    t.notes.push(e);
                }
            }
            t.ops.push(lane);
        }
    }
    Ok(t)
}

fn traced_cohort(seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut t = Traced::default();
    let mut cell = None;
    for _ in 0..3 {
        cell = Some(CohortTrain::setup(seed, &mut t.setup));
        t.setups += 1;
    }
    let cell = cell.expect("three setups");
    let start = Instant::now();
    let mut baseline = cell.runner();
    while start.elapsed().as_secs_f64() < baseline_seconds(seconds) {
        let op = Instant::now();
        cell.run_round(&mut baseline)?;
        t.untraced_ms.push(since_ms(op));
    }
    drop(baseline);
    let mut server = cell.server();
    let mut scheduler = cell.scheduler();
    let mut library = cell.runner();
    while start.elapsed().as_secs_f64() < seconds || t.ops.is_empty() {
        let mut rec = Record::default();
        let op = Instant::now();
        let stepped = cell.stepped_round(&mut server, &mut scheduler, &mut rec);
        t.traced_ms.push(since_ms(op));
        t.attempted += 1;
        let lib = cell.run_round(&mut library);
        match (stepped, lib) {
            (Ok((cohort, delivered)), Ok(())) => {
                rec.add("wire.cohort", cohort as f64);
                rec.add("wire.dropped", (cohort - delivered) as f64);
                if weights_digest(&mut server) != weights_digest(library.server_mut()) {
                    t.failed += 1;
                    t.notes.push(format!(
                        "round {}: stepped weights differ from CohortRunner's",
                        server.round() - 1
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                t.failed += 1;
                t.notes.push(e);
            }
        }
        t.ops.push(rec);
    }
    Ok(t)
}

fn traced_campaign(seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut t = Traced::default();
    let start = Instant::now();
    // The untraced baseline is one whole campaign, whose trajectory is
    // also the reference the traced campaigns must reproduce.
    let bench = CampaignBench::new(seed, &mut Record::default());
    let mut campaign = bench.campaign(&mut Record::default())?;
    while !campaign.is_complete() {
        let op = Instant::now();
        campaign
            .run_rounds(1)
            .map_err(|e| format!("baseline: {e}"))?;
        t.untraced_ms.push(since_ms(op));
    }
    let reference = trajectory_jsonl(&campaign);
    drop(campaign);
    while start.elapsed().as_secs_f64() < seconds || t.setups == 0 {
        let bench = CampaignBench::new(seed, &mut t.setup);
        let mut campaign = bench.campaign(&mut t.setup)?;
        t.setups += 1;
        let mut shadow = bench.shadow()?;
        while !campaign.is_complete() {
            let mut rec = Record::default();
            let op = Instant::now();
            // Replays are charged to their layers but not to the op's
            // allocation totals, which count the campaign round alone.
            let mut replay = Record::default();
            let steps_training = shadow.steps_training(campaign.round());
            let mut failure = None;
            if steps_training {
                if let Err(e) = shadow.step_training(&mut campaign, &mut replay) {
                    failure = Some(e);
                }
            }
            let (a0, b0) = alloc::global_counts();
            let (ran, cost) = measure(|| campaign.run_rounds(1));
            let (a1, b1) = alloc::global_counts();
            t.attempted += 1;
            rec.add("bench.allocs", (a1 - a0) as f64);
            rec.add("bench.alloc_bytes", (b1 - b0) as f64);
            let record = campaign
                .records()
                .last()
                .cloned()
                .ok_or("campaign recorded no round")?;
            rec.add(bench.class(&record).metric(), cost.ms);
            rec.add("wire.cohort", record.cohort as f64);
            rec.add("wire.dropped", record.dropped as f64);
            rec.add(
                "campaign.churned",
                (record.churn_left + record.churn_joined) as f64,
            );
            if let Err(e) = ran {
                failure.get_or_insert(format!("round {}: {e}", record.round));
            }
            if steps_training && failure.is_none() && !shadow.weights_match(&mut campaign) {
                failure = Some(format!(
                    "round {}: stepped weights differ from the campaign's",
                    record.round
                ));
            }
            if record.attack.is_some() {
                if let Err(e) = shadow.step_probe(&record, &mut replay) {
                    failure.get_or_insert(e);
                }
            }
            replay.0.remove("bench.allocs");
            replay.0.remove("bench.alloc_bytes");
            rec.merge(&replay);
            t.traced_ms.push(since_ms(op));
            if let Some(e) = failure {
                t.failed += 1;
                t.notes.push(e);
            }
            t.ops.push(rec);
        }
        let text = trajectory_jsonl(&campaign);
        if text != reference {
            t.failed += bench.rounds() as u64;
            t.notes
                .push("traced campaign's trajectory differs from the untraced one".into());
        }
    }
    Ok(t)
}
