//! `scenario` — run any attack × defense × workload experiment, or a
//! sweep over comma-separated spec lists, from the command line.
//!
//! ```text
//! cargo run --release -p oasis-bench --bin scenario -- \
//!     --attack rtf:512 --defense oasis:MR --workload imagenette --quick
//!
//! # sweep: 2 attacks × 3 defenses × 2 batch sizes = 12 scenarios
//! cargo run --release -p oasis-bench --bin scenario -- \
//!     --attack rtf:512,cah:400 --defense none,oasis:MR,oasis:MR+SH \
//!     --batch 8,64 --quick
//! ```
//!
//! Every run prints its report and writes the serialized
//! [`ScenarioReport`] JSON under `out/` (or `$OASIS_OUT_DIR`).
//! Unknown flags are errors, not silently ignored.

use oasis_bench::{
    out_path, run_campaign, spec_catalog, AttackSpec, CampaignSpec, CodecSpec, DefenseSpec,
    NetSpec, PopulationSpec, SampleSpec, Sampling, Scale, Scenario, ScenarioError, ScenarioReport,
    WorkloadSpec,
};
use std::process::ExitCode;

const USAGE: &str = "\
scenario — declarative OASIS experiment runner

USAGE:
    scenario [FLAGS]

FLAGS (comma-separated lists sweep the grid):
    --attack SPECS      rtf:N | cah:N[,G] | qbi:N[,B] |
                        linear                            [default: rtf:512]
    --defense SPECS     none | oasis:P | ats | dp:C,S | clip:C,
                        or a `+`-stack, e.g. oasis:MR+dp:1,0.01
                        (P ∈ WO, MR, mR, SH, HFlip, VFlip, MR+SH)
                                                          [default: none]
    --workload SPECS    imagenette | cifar100 |
                        imagenette100c | cifar100c        [default: imagenette]
    --codec SPECS       raw | q8 | topk:K | sign          [default: raw]
    --net SPECS         ideal | sim:LAT,BW,DROP[,DL]      [default: ideal]
                        (latency ms, bandwidth Mbit/s, drop
                        probability, straggler deadline ms)
    --population NS     deployment size(s) cohorts are
                        sampled from (population:N or N)   [default: legacy wire]
    --sample KS         cohort size(s) per attacked round
                        (sample:K or K; needs --population)
                                                          [default: min(N, 64)]
    --batch SIZES       client batch size(s) B            [default: 8]
    --trials N          attacked rounds pooled per cell   [default: per scale]
    --seed N            master seed                       [default: 0]
    --dataset-seed N    decouple the dataset build seed from --seed
    --calibration N     calibration images for the attacker
    --sampling MODE     uniform | unique-labels           [default: per attack]
    --leak-db DB        leak-rate PSNR threshold          [default: 60]
    --scale S           quick | default | full            [default: default]
    --quick / --full    shorthand for --scale
    --campaign SPEC     run a multi-phase campaign instead of
                        single-shot trials: campaign:PHASE[;PHASE...],
                        each phase ROUNDS[+join=F][+leave=F][+alpha=A]
                        [+net=SPEC][+attack=S[|S...]]; one campaign
                        per --defense, trajectory JSONL under out/.
                        Reads one --workload, one --codec, one
                        --population (client count), --seed, --scale
                        and --eval-every; any other experiment flag
                        is an error (the spec sets nets and attacks)
    --eval-every N      campaign adversary probe period (0 = never);
                        an error without --campaign       [default: 5]
    --no-save           print reports without writing out/*.json
    --trace PATH        enable telemetry: write a schema-v1 JSONL span
                        trace to PATH and print a self-time summary
                        table on exit (env: OASIS_TRACE=PATH)
    --list-specs        list every registered spec family and exit
    --help              this text

Artifacts go to out/ by default; set OASIS_OUT_DIR to redirect.
Tracing never changes results: reports are bit-identical with
--trace on or off (see README `Observability`).";

struct Args {
    attacks: Vec<AttackSpec>,
    defenses: Vec<DefenseSpec>,
    workloads: Vec<WorkloadSpec>,
    codecs: Vec<CodecSpec>,
    nets: Vec<NetSpec>,
    populations: Vec<usize>,
    samples: Vec<usize>,
    batches: Vec<usize>,
    trials: Option<usize>,
    seed: u64,
    dataset_seed: Option<u64>,
    calibration: Option<usize>,
    sampling: Option<Sampling>,
    leak_db: Option<f64>,
    scale: Scale,
    save: bool,
    trace: Option<std::path::PathBuf>,
    campaign: Option<CampaignSpec>,
    eval_every: usize,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if raw.iter().any(|a| a == "--list-specs") {
        print!("{}", spec_catalog());
        println!(
            "telemetry:\n    --trace PATH (or OASIS_TRACE=PATH) writes a schema-v1 JSONL \
             span trace\n    and prints a per-span self-time table; results are unchanged."
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace.is_some() {
        oasis_telemetry::enable();
    }

    let failures = match args.campaign.clone() {
        Some(spec) => run_campaign_mode(&args, spec),
        None => run_sweep(&args),
    } + finish_trace(&args);
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One point of the sweep grid.
struct Cell<'a> {
    workload: WorkloadSpec,
    attack: &'a AttackSpec,
    defense: &'a DefenseSpec,
    codec: CodecSpec,
    net: NetSpec,
    population: usize,
    sample: usize,
    batch: usize,
}

impl std::fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attack={} defense={} workload={} codec={} net={} population={} sample={} batch={}",
            self.attack,
            self.defense,
            self.workload,
            self.codec,
            self.net,
            self.population,
            self.sample,
            self.batch
        )
    }
}

impl Args {
    /// The sweep grid as one cartesian product, in run order:
    /// workload outermost, then attack, defense, codec, net,
    /// population, sample, and batch innermost.
    fn cells(&self) -> impl Iterator<Item = Cell<'_>> {
        let dims = [
            self.workloads.len(),
            self.attacks.len(),
            self.defenses.len(),
            self.codecs.len(),
            self.nets.len(),
            self.populations.len(),
            self.samples.len(),
            self.batches.len(),
        ];
        (0..dims.iter().product()).map(move |flat: usize| {
            // Mixed-radix digits of `flat`, the last axis fastest.
            let mut at = [0usize; 8];
            let mut rest = flat;
            for (digit, &len) in at.iter_mut().zip(&dims).rev() {
                *digit = rest % len;
                rest /= len;
            }
            Cell {
                workload: self.workloads[at[0]],
                attack: &self.attacks[at[1]],
                defense: &self.defenses[at[2]],
                codec: self.codecs[at[3]],
                net: self.nets[at[4]],
                population: self.populations[at[5]],
                sample: self.samples[at[6]],
                batch: self.batches[at[7]],
            }
        })
    }
}

/// The sweep mode: every cell of the grid, each printing its report
/// and (unless `--no-save`) writing it under `out/`. Returns how many
/// cells failed.
fn run_sweep(args: &Args) -> u32 {
    let cells = args.cells().count();
    if cells > 1 {
        println!("sweep: {cells} scenarios");
    }
    let mut failures = 0u32;
    for cell in args.cells() {
        match run_cell(args, &cell) {
            Ok(report) => {
                println!("{report}");
                if args.save {
                    match report.save() {
                        Ok(path) => println!("  report -> {}", path.display()),
                        Err(e) => {
                            eprintln!("error: saving report failed: {e}");
                            failures += 1;
                        }
                    }
                }
                println!();
            }
            Err(e) => {
                eprintln!("error: scenario {cell} failed: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} scenario(s) failed");
    }
    failures
}

/// Writes the `--trace` file, if one was asked for, and prints its
/// self-time summary. Both modes end here whether or not their runs
/// failed, so a failing run still leaves its trace. Returns 1 when
/// the trace could not be written, else 0.
fn finish_trace(args: &Args) -> u32 {
    let Some(path) = &args.trace else {
        return 0;
    };
    let spans = oasis_telemetry::take_spans();
    let metrics = oasis_telemetry::metrics_snapshot();
    match oasis_telemetry::write_trace(path, &spans, &metrics) {
        Ok(()) => {
            println!("trace -> {} ({} spans)", path.display(), spans.len());
            print!(
                "{}",
                oasis_telemetry::self_time_table(&oasis_telemetry::summarize(&spans))
            );
            0
        }
        Err(e) => {
            eprintln!("error: writing trace {} failed: {e}", path.display());
            1
        }
    }
}

/// The `--campaign` mode: one campaign per `--defense` over the
/// `--workload` and `--codec`, each printing a per-phase summary and
/// writing its trajectory JSONL under `out/`. Returns how many
/// campaigns failed.
fn run_campaign_mode(args: &Args, spec: CampaignSpec) -> u32 {
    let (workload, codec) = (args.workloads[0], args.codecs[0]);
    let clients = match args.populations.first() {
        Some(&n) if n > 0 => n,
        _ => 24,
    };
    println!(
        "campaign {spec} — {} clients on {workload} over {codec}, probe every {} round(s)",
        clients, args.eval_every
    );
    let mut failures = 0u32;
    for defense in &args.defenses {
        let runner = match run_campaign(
            spec.clone(),
            defense.clone(),
            workload,
            codec,
            args.scale,
            clients,
            args.seed,
            args.eval_every,
        ) {
            Ok(runner) => runner,
            Err(e) => {
                eprintln!("error: campaign defense={defense} failed: {e}");
                failures += 1;
                continue;
            }
        };
        println!("\ndefense {defense}:");
        print_campaign_summary(&runner);
        if args.save {
            let label = defense.to_string();
            let file = format!("trajectory_{}.jsonl", label.replace([':', '+', ','], "-"));
            let path = out_path(&file);
            match runner.trajectory(&label).write(&path) {
                Ok(()) => println!("  trajectory -> {}", path.display()),
                Err(e) => {
                    eprintln!("error: writing {} failed: {e}", path.display());
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} campaign(s) failed");
    }
    failures
}

/// Per-phase aggregates of a finished campaign: delivery, churn,
/// utility proxy, and the adversary's worst probe.
fn print_campaign_summary(runner: &oasis_bench::CampaignRunner) {
    println!(
        "  {:>5} {:>7} {:>10} {:>8} {:>10} {:>12} {:>10}",
        "phase", "rounds", "delivered", "churned", "acc proxy", "peak PSNR", "leak max"
    );
    let phases = runner.spec().phases().len();
    for phase in 0..phases {
        let records: Vec<_> = runner
            .records()
            .iter()
            .filter(|r| r.phase == phase)
            .collect();
        if records.is_empty() {
            continue;
        }
        let rounds = records.len();
        let delivered: usize = records.iter().map(|r| r.delivered).sum();
        let cohort: usize = records.iter().map(|r| r.cohort).sum();
        let churned: usize = records.iter().map(|r| r.churn_left + r.churn_joined).sum();
        let acc = records.iter().map(|r| r.accuracy_proxy).sum::<f64>() / rounds as f64;
        let psnr = records
            .iter()
            .filter_map(|r| r.mean_psnr)
            .fold(f64::NEG_INFINITY, f64::max);
        let leak = records
            .iter()
            .filter_map(|r| r.leak_rate)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {:>5} {:>7} {:>9}% {:>8} {:>10.3} {:>12} {:>10}",
            phase,
            rounds,
            (delivered * 100).checked_div(cohort).unwrap_or(0),
            churned,
            acc,
            if psnr.is_finite() {
                format!("{psnr:.1} dB")
            } else {
                "-".into()
            },
            if leak.is_finite() {
                format!("{:.0}%", leak * 100.0)
            } else {
                "-".into()
            },
        );
    }
}

fn run_cell(args: &Args, cell: &Cell<'_>) -> Result<ScenarioReport, ScenarioError> {
    let mut builder = Scenario::builder()
        .workload(cell.workload)
        .attack(cell.attack.clone())
        .defense(cell.defense.clone())
        .codec(cell.codec)
        .net(cell.net)
        .population(cell.population)
        .sample(cell.sample)
        .batch_size(cell.batch)
        .scale(args.scale)
        .seed(args.seed);
    if let Some(trials) = args.trials {
        builder = builder.trials(trials);
    }
    if let Some(ds) = args.dataset_seed {
        builder = builder.dataset_seed(ds);
    }
    if let Some(cal) = args.calibration {
        builder = builder.calibration(cal);
    }
    if let Some(sampling) = args.sampling {
        builder = builder.sampling(sampling);
    }
    if let Some(db) = args.leak_db {
        builder = builder.leak_threshold_db(db);
    }
    builder.build()?.run()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        attacks: vec![AttackSpec::rtf(512)],
        defenses: vec![DefenseSpec::none()],
        workloads: vec![WorkloadSpec::ImageNette],
        codecs: vec![CodecSpec::Raw],
        nets: vec![NetSpec::Ideal],
        populations: vec![0],
        samples: vec![0],
        batches: vec![8],
        trials: None,
        seed: 0,
        dataset_seed: None,
        calibration: None,
        sampling: None,
        leak_db: None,
        scale: Scale::Default,
        save: true,
        trace: oasis_telemetry::trace_path_from_env(),
        campaign: None,
        eval_every: 5,
    };
    let mut given = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        given.push(flag.as_str());
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--attack" => args.attacks = parse_list(value("--attack")?, "attack")?,
            "--defense" => args.defenses = parse_list(value("--defense")?, "defense")?,
            "--workload" => args.workloads = parse_list(value("--workload")?, "workload")?,
            "--codec" => args.codecs = parse_list(value("--codec")?, "codec")?,
            "--net" => args.nets = parse_list(value("--net")?, "net")?,
            "--population" => {
                args.populations =
                    parse_list::<PopulationSpec>(value("--population")?, "population")?
                        .into_iter()
                        .map(|p| p.clients)
                        .collect();
            }
            "--sample" => {
                args.samples = parse_list::<SampleSpec>(value("--sample")?, "sample")?
                    .into_iter()
                    .map(|k| k.cohort)
                    .collect();
            }
            "--batch" => {
                args.batches = parse_list(value("--batch")?, "batch size")?;
            }
            "--trials" => args.trials = Some(parse_one(value("--trials")?, "trial count")?),
            "--seed" => args.seed = parse_one(value("--seed")?, "seed")?,
            "--dataset-seed" => {
                args.dataset_seed = Some(parse_one(value("--dataset-seed")?, "dataset seed")?);
            }
            "--calibration" => {
                args.calibration = Some(parse_one(value("--calibration")?, "calibration count")?);
            }
            "--sampling" => args.sampling = Some(parse_one(value("--sampling")?, "sampling")?),
            "--leak-db" => args.leak_db = Some(parse_one(value("--leak-db")?, "leak threshold")?),
            "--scale" => args.scale = parse_one(value("--scale")?, "scale")?,
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--no-save" => args.save = false,
            "--campaign" => {
                args.campaign = Some(parse_one(value("--campaign")?, "campaign spec")?);
            }
            "--eval-every" => {
                args.eval_every = parse_one(value("--eval-every")?, "probe period")?;
            }
            "--trace" => args.trace = Some(value("--trace")?.into()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.campaign.is_some() {
        check_campaign_flags(&args, &given)?;
    } else if let Some(flag) = given.iter().find(|f| CAMPAIGN_ONLY_FLAGS.contains(f)) {
        return Err(format!("{flag} is only read by --campaign; remove it"));
    }
    Ok(args)
}

/// Flags of the trial sweep that a `--campaign` run never reads: the
/// spec's phases choose nets and attacks, and the campaign engine
/// fixes batch, cohort and probe settings.
const SWEEP_ONLY_FLAGS: [&str; 9] = [
    "--attack",
    "--net",
    "--batch",
    "--sample",
    "--trials",
    "--dataset-seed",
    "--calibration",
    "--sampling",
    "--leak-db",
];

/// Flags only a `--campaign` run reads; the trial sweep rejects them.
const CAMPAIGN_ONLY_FLAGS: [&str; 1] = ["--eval-every"];

/// Rejects what `--campaign` mode would otherwise silently ignore: a
/// sweep-only flag, or a second value for a flag it reads once.
fn check_campaign_flags(args: &Args, given: &[&str]) -> Result<(), String> {
    if let Some(flag) = given.iter().find(|f| SWEEP_ONLY_FLAGS.contains(f)) {
        return Err(format!("{flag} is not read by --campaign; remove it"));
    }
    for (flag, values) in [
        ("--workload", args.workloads.len()),
        ("--codec", args.codecs.len()),
        ("--population", args.populations.len()),
    ] {
        if values > 1 {
            return Err(format!(
                "{flag} takes one value with --campaign, got {values}"
            ));
        }
    }
    Ok(())
}

/// Parses one value, mapping the error to a CLI message.
fn parse_one<T>(value: &str, what: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad {what} `{value}`: {e}"))
}

/// Parses a comma-separated sweep list.
///
/// Some specs contain commas themselves (`cah:N,G`, `dp:C,S`), so
/// list items are matched greedily: each item consumes as many
/// comma-separated segments as still parse as one spec. An item that
/// does not parse runs up to the next segment that starts one that
/// does, and the error names that whole item (`dp:1,-1`, not `dp:1`).
fn parse_list<T>(value: &str, what: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let segments: Vec<&str> = value.split(',').filter(|s| !s.is_empty()).collect();
    // The longest item starting at segment `i`: its last segment and
    // the parsed spec.
    let longest_from = |i: usize| -> Option<(usize, T)> {
        let mut candidate = String::new();
        let mut matched = None;
        for (j, segment) in segments.iter().enumerate().skip(i) {
            if j > i {
                candidate.push(',');
            }
            candidate.push_str(segment);
            if let Ok(item) = candidate.parse::<T>() {
                matched = Some((j, item));
            }
        }
        matched
    };
    let mut items = Vec::new();
    let mut i = 0;
    while i < segments.len() {
        let Some((j, item)) = longest_from(i) else {
            let end = (i + 1..segments.len())
                .find(|&k| longest_from(k).is_some())
                .unwrap_or(segments.len());
            return parse_one::<T>(&segments[i..end].join(","), what)
                .map(|_| unreachable!("an item that parses would have matched greedily"));
        };
        items.push(item);
        i = j + 1;
    }
    if items.is_empty() {
        return Err(format!("empty {what} list"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &str) -> Args {
        let raw: Vec<String> = flags.split_whitespace().map(String::from).collect();
        parse_args(&raw).expect("flags parse")
    }

    #[test]
    fn list_errors_name_the_whole_failing_item() {
        for (flag, value, item) in [
            ("--defense", "dp:1,-1", "dp:1,-1"),
            ("--defense", "none,dp:1,-1,oasis:MR", "dp:1,-1"),
            ("--net", "sim:10,16,NaN,5", "sim:10,16,NaN,5"),
            ("--net", "ideal,sim:10,16,NaN,5", "sim:10,16,NaN,5"),
            ("--batch", "8,x,16", "x"),
            ("--attack", "rtf:64,cah:0", "cah:0"),
        ] {
            let raw = [flag.to_string(), value.to_string()];
            let err = match parse_args(&raw) {
                Ok(_) => panic!("{flag} {value} should not parse"),
                Err(e) => e,
            };
            assert!(err.contains(&format!("`{item}`")), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn comma_specs_and_lists_still_parse() {
        let a = args("--defense none,dp:1,0.5,oasis:MR --attack cah:16,0.2,rtf:8 --batch 4,8");
        assert_eq!(a.defenses.len(), 3);
        assert_eq!(a.attacks.len(), 2);
        assert_eq!(a.batches, vec![4, 8]);
    }

    #[test]
    fn campaign_mode_reads_one_codec() {
        let a = args("--campaign campaign:3 --codec q8 --workload cifar100 --population 12");
        assert_eq!(a.codecs, vec![CodecSpec::Q8]);
        assert_eq!(a.workloads, vec![WorkloadSpec::Cifar100]);
        assert_eq!(a.populations, vec![12]);
    }

    #[test]
    fn campaign_mode_rejects_flags_it_would_ignore() {
        for (flag, value) in [
            ("--attack", "rtf:8"),
            ("--net", "ideal"),
            ("--batch", "4"),
            ("--sample", "8"),
            ("--trials", "2"),
            ("--dataset-seed", "1"),
            ("--calibration", "16"),
            ("--sampling", "uniform"),
            ("--leak-db", "50"),
            ("--workload", "imagenette,cifar100"),
            ("--codec", "raw,q8"),
            ("--population", "8,16"),
        ] {
            // The flag is caught whether it comes before or after
            // `--campaign`.
            for raw in [
                ["--campaign", "campaign:3", flag, value],
                [flag, value, "--campaign", "campaign:3"],
            ] {
                let raw: Vec<String> = raw.map(String::from).to_vec();
                let err = match parse_args(&raw) {
                    Ok(_) => panic!("{raw:?} should not parse"),
                    Err(e) => e,
                };
                assert!(err.contains(flag), "{raw:?}: {err}");
            }
            // The same flag is fine in sweep mode.
            args(&format!("{flag} {value}"));
        }
    }

    #[test]
    fn sweep_mode_rejects_campaign_only_flags() {
        for (flag, value) in [("--eval-every", "2")] {
            for raw in [
                [flag, value, "--attack", "rtf:8"],
                ["--attack", "rtf:8", flag, value],
            ] {
                let raw: Vec<String> = raw.map(String::from).to_vec();
                let err = match parse_args(&raw) {
                    Ok(_) => panic!("{raw:?} should not parse"),
                    Err(e) => e,
                };
                assert!(err.contains(flag), "{raw:?}: {err}");
            }
            // The same flag is fine in campaign mode.
            args(&format!("--campaign campaign:3 {flag} {value}"));
        }
    }

    #[test]
    fn cells_run_workload_outermost_and_batch_innermost() {
        let a = args("--workload imagenette,cifar100 --attack rtf:8,rtf:16 --batch 2,4,8");
        let cells: Vec<String> = a
            .cells()
            .map(|c| format!("{}|{}|{}", c.workload, c.attack, c.batch))
            .collect();
        let mut nested = Vec::new();
        for w in &a.workloads {
            for at in &a.attacks {
                for b in &a.batches {
                    nested.push(format!("{w}|{at}|{b}"));
                }
            }
        }
        assert_eq!(cells, nested);
        assert_eq!(cells.len(), 12);
    }
}
