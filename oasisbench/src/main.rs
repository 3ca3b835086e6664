//! The benchmark binary: runs one workload untraced (end-to-end
//! metrics) or traced (per-layer metrics) and prints a report whose
//! last line is the JSON result.
//!
//! ```text
//! oasisbench --workload attack_cell --seed 1 --seconds 10 --trace 0
//! ```

use std::process::ExitCode;

use oasis_tensor::{parallel, simd};
use oasisbench::alloc::CountingAlloc;
use oasisbench::record::{median, quartiles};
use oasisbench::run::{timed, traced, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value()?.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    one => vec![one.parse::<Workload>()?],
                })
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One workload's result: `(correct, attempted, failed, metrics)`.
type Outcome = (bool, u64, u64, Vec<(&'static str, f64, &'static str)>);

fn result_line(outcomes: &[(Workload, Outcome)]) -> String {
    let prefix = outcomes.len() > 1;
    let body: Vec<String> = outcomes
        .iter()
        .flat_map(|(w, (_, _, _, metrics))| {
            metrics.iter().map(move |(name, v, unit)| {
                let name = if prefix {
                    format!("{}.{name}", w.name())
                } else {
                    name.to_string()
                };
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                    json_string(&name),
                    json_string(unit)
                )
            })
        })
        .collect();
    let correct = outcomes.iter().all(|(_, o)| o.0);
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.1).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.2).sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(metrics: &[(&str, f64, &str)]) {
    for (m, v, unit) in metrics {
        println!("{m:<32} {v:>16.6} {unit}");
    }
}

/// Runs one workload and prints its human-readable report.
fn run_workload(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let name = workload.name();
    println!("## {name}");
    if args.trace {
        let t = traced(workload, args.seed, args.seconds)?;
        for note in &t.notes {
            println!("# check failed: {note}");
        }
        println!(
            "# {name} traced: {} ops over {} setup(s); untraced baseline {} ops",
            t.ops.len(),
            t.setups,
            t.untraced_ms.len()
        );
        let metrics = t.metrics();
        print_metrics(&metrics);
        Ok((t.failed == 0, t.attempted, t.failed, metrics))
    } else {
        let t = timed(workload, args.seed, args.seconds)?;
        for note in &t.notes {
            println!("# check failed: {note}");
        }
        let metrics = t.metrics();
        print_metrics(&metrics);
        println!(
            "{:<32} {:>16.6} frac",
            "failed_frac",
            t.failed as f64 / t.attempted.max(1) as f64
        );
        println!(
            "# {name}: {} ops in {:.3} s; {} ops above p90; {} setups",
            t.attempted,
            t.wall_s,
            t.above_p90(),
            t.setup_s.len()
        );
        // Dispersion inside the run: the op latency median of each
        // fifth of the run, in order.
        let fifths: Vec<f64> = t
            .op_ms
            .chunks(t.op_ms.len().div_ceil(5).max(1))
            .map(median)
            .collect();
        let (q1, q2, q3) = quartiles(&fifths);
        println!(
            "# {name} op_ms_p50 by fifth of the run: {fifths:.3?} (q1 {q1:.3}, median {q2:.3}, q3 {q3:.3})"
        );
        Ok((t.correct, t.attempted, t.failed, metrics))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The pool runs at the machine's core count, never wider.
    let threads = parallel::num_threads().min(nproc);
    println!(
        "# stamp: nproc={nproc} OASIS_THREADS={} threads={threads} simd={} cpu={} commit={}",
        std::env::var("OASIS_THREADS").unwrap_or_else(|_| "unset".into()),
        simd::resolved().label(),
        json_string(&cpu_model()),
        std::env::var("OASISBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    let result = parallel::with_threads(threads, || {
        args.workloads
            .iter()
            .map(|&w| run_workload(w, &args).map(|o| (w, o)))
            .collect::<Result<Vec<_>, String>>()
    });
    match result {
        Ok(outcomes) => {
            println!("{}", result_line(&outcomes));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
