//! `xarch-bench`: the repository's benchmark.
//!
//! ```text
//! xarch-bench run <workload> [--seed N] [--seconds S] [--dir D] [--trace]
//! xarch-bench repeat <workload> [--sets 2] [--runs 5] [--seconds S] [--dir D]
//! xarch-bench list
//! xarch-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! ```
//!
//! See `README.md` beside this file for the workloads, the noise rules
//! and how the per-layer numbers are derived.

mod catalog;
mod cold;
mod curate;
mod data;
mod fixture;
mod harness;
mod mixed;
mod ops;
mod query_hot;
mod repeat;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use catalog::Native;
use harness::{Ctx, Outcome, Pair};
use stats::{num, nums, quote};
use trace::Tracer;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 0x1A6E57;
/// Segment files live here, under the working directory, unless `--dir`
/// says otherwise.
const DEFAULT_DIR: &str = ".bench_data";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
    pub sets: usize,
    pub runs: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: xarch-bench run <workload> [--seed N] [--seconds S] [--dir D] [--trace]\n       \
         xarch-bench repeat <workload> [--sets 2] [--runs 5] [--seconds S] [--dir D]\n       \
         xarch-bench list\n       \
         xarch-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         workloads: write, read"
    );
    ExitCode::from(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the options after the subcommand. `positional` is the workload
/// of `run`/`repeat`; the driver's form passes it as `--workload`.
fn parse_options(mut rest: std::slice::Iter<'_, String>, positional: bool) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        dir: PathBuf::from(DEFAULT_DIR),
        sets: 2,
        runs: 5,
    };
    if positional {
        args.workload = rest.next()?.clone();
    }
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            // `run --trace` is a bare switch; the driver passes `--trace 0|1`
            "--trace" if positional => args.trace = true,
            "--trace" => args.trace = rest.next()? != "0",
            "--workload" => args.workload = rest.next()?.clone(),
            "--seed" => args.seed = parse_seed(rest.next()?)?,
            "--seconds" => args.seconds = rest.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--dir" => args.dir = PathBuf::from(rest.next()?),
            "--sets" => args.sets = rest.next()?.parse().ok().filter(|n| *n >= 2)?,
            "--runs" => args.runs = rest.next()?.parse().ok().filter(|n| *n >= 1)?,
            _ => return None,
        }
    }
    catalog::workload(&args.workload).map(|_| args)
}

/// Runs one workload in this process.
fn run(args: &Args, started: Instant) -> std::io::Result<Outcome> {
    let dir = args.dir.join(format!("xarch-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let ctx = Ctx::new(
        args.seed,
        args.seconds,
        dir.clone(),
        Tracer::new(started, false),
    );
    let trace_path = args
        .trace
        .then(|| PathBuf::from(format!("trace-{}.jsonl", args.workload)));
    let outcome = match args.workload.as_str() {
        "write" => harness::measure::<Pair<curate::Curate, mixed::Mixed>>(started, ctx, trace_path),
        _ => harness::measure::<Pair<query_hot::QueryHot, cold::Cold>>(started, ctx, trace_path),
    };
    std::fs::remove_dir_all(&dir)?;
    // leave nothing behind when the parent directory was ours alone
    let _ = std::fs::remove_dir(&args.dir);
    Ok(outcome)
}

/// One metric of a report line: `"name":{"value":…,"unit":…}`.
fn entry(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(name),
        num(value),
        quote(unit)
    )
}

/// The end-to-end values of an outcome, in catalogue order.
fn end_to_end(outcome: &Outcome) -> Vec<f64> {
    let mut values = vec![
        outcome.setup_s,
        outcome.peak_rss_mb,
        outcome.stored_bytes_per_user_byte,
    ];
    values.extend(outcome.phases.iter().map(|phase| phase.value()));
    values
}

/// The one-line result the driver reads: the end-to-end metrics of an
/// untraced run, the per-layer metrics of a traced one.
fn driver_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = match &outcome.layers {
        None => catalog::END_TO_END
            .iter()
            .zip(end_to_end(outcome))
            .map(|(m, v)| entry(m.name, v, m.unit))
            .collect(),
        Some(layers) => catalog::PER_LAYER
            .iter()
            .zip(layers.iter())
            .map(|(m, (name, v))| entry(name, v, m.unit))
            .collect(),
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// The full report of `run`: every end-to-end metric by name with unit,
/// sample count, quartiles and the kept per-round values; the phases
/// again under their own names and units; and, for a traced run, the
/// per-layer metrics.
fn report(args: &Args, outcome: &Outcome) -> String {
    let workload = catalog::workload(&args.workload).expect("validated at parse time");
    let sampled = |name: &str, unit: &str, value: f64, rounds: &[f64], what: &str| {
        let (q1, q3) = stats::quartiles(rounds);
        format!(
            "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"median\":{},\"q1\":{},\"q3\":{},\
             \"what\":{},\"rounds\":{}}}",
            quote(name),
            num(value),
            quote(unit),
            rounds.len(),
            num(stats::median(rounds)),
            num(q1),
            num(q3),
            quote(what),
            nums(rounds)
        )
    };
    let values = end_to_end(outcome);
    let mut metrics: Vec<String> = catalog::END_TO_END[..3]
        .iter()
        .zip(&values)
        .map(|(m, &v)| entry(m.name, v, m.unit))
        .collect();
    let mut phases = Vec::new();
    for (((metric, phase), samples), &ms) in catalog::END_TO_END[3..]
        .iter()
        .zip(&workload.phases)
        .zip(&outcome.phases)
        .zip(&values[3..])
    {
        let rounds = &samples.per_round();
        metrics.push(sampled(metric.name, metric.unit, ms, rounds, phase.name));
        phases.push(match phase.native {
            Native::Millis => sampled(phase.name, phase.unit, ms, rounds, phase.what),
            Native::Rate => {
                let rates: Vec<f64> = rounds.iter().map(|ms| 1e3 / ms).collect();
                sampled(phase.name, phase.unit, 1e3 / ms, &rates, phase.what)
            }
        });
    }
    let layers = outcome.layers.as_ref().map_or(String::new(), |layers| {
        let rows: Vec<String> = catalog::PER_LAYER
            .iter()
            .zip(layers.iter())
            .map(|(m, (name, v))| entry(name, v, m.unit))
            .collect();
        format!(",\"per_layer\":{{{}}}", rows.join(","))
    });
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"connections\":{},\"traced\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"phases\":{{{}}}{}}}",
        quote(&args.workload),
        args.seed,
        num(args.seconds),
        data::parallelism(),
        outcome.layers.is_some(),
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(","),
        phases.join(","),
        layers
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = argv.first() else {
        return usage();
    };
    let (detailed, parsed) = match first.as_str() {
        "list" if argv.len() == 1 => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        "repeat" => match parse_options(argv[1..].iter(), true) {
            Some(args) => return repeat::repeat(&args),
            None => return usage(),
        },
        "run" => (true, parse_options(argv[1..].iter(), true)),
        _ => (false, parse_options(argv.iter(), false)),
    };
    let Some(args) = parsed else {
        return usage();
    };
    match run(&args, started) {
        Ok(outcome) => {
            if detailed {
                println!("{}", report(&args, &outcome));
            } else {
                println!("{}", driver_line(&outcome));
            }
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xarch-bench: {}: {e}", args.dir.display());
            ExitCode::FAILURE
        }
    }
}
