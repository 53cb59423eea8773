//! `xarch-bench repeat`: runs sets of runs of one workload back to back —
//! each run its own process with its own seed — and prints, per
//! end-to-end metric, each set's median and spread and how far the set
//! medians disagree, against the metric's bound.

use std::process::{Command, ExitCode};

use crate::catalog::{self, Better};
use crate::stats;
use crate::Args;

/// The value of end-to-end metric `name` in a driver-form result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One run in a child process; the end-to-end values in catalogue order.
fn run_once(args: &Args, seed: u64) -> Option<Vec<f64>> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--dir")
        .arg(&args.dir)
        .output()
        .ok()?;
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return None;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?;
    catalog::END_TO_END
        .iter()
        .map(|m| value_of(line, m.name))
        .collect()
}

pub fn repeat(args: &Args) -> ExitCode {
    // sets[s][m] = the values of metric m over the runs of set s
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut seed = args.seed;
    for set in 0..args.sets {
        let mut values = vec![Vec::new(); catalog::END_TO_END.len()];
        for run in 0..args.runs {
            eprintln!("set {} run {} seed {seed}", set + 1, run + 1);
            let Some(row) = run_once(args, seed) else {
                eprintln!("xarch-bench: run failed");
                return ExitCode::FAILURE;
            };
            for (column, v) in values.iter_mut().zip(row) {
                column.push(v);
            }
            seed += 1;
        }
        sets.push(values);
    }

    println!(
        "{:<28} {:>8} {}  {:>9} {:>7} {:>6}",
        "metric",
        "unit",
        (1..=args.sets)
            .map(|s| format!("{:>13} {:>7}", format!("median[{s}]"), "iqr%"))
            .collect::<Vec<_>>()
            .join(" "),
        "worst-gap%",
        "bound%",
        "ok"
    );
    let mut all_ok = true;
    for (m, metric) in catalog::END_TO_END.iter().enumerate() {
        let medians: Vec<f64> = sets.iter().map(|s| stats::median(&s[m])).collect();
        let columns: Vec<String> = sets
            .iter()
            .zip(&medians)
            .map(|(s, median)| {
                let (q1, q3) = stats::quartiles(&s[m]);
                format!("{median:>13.5} {:>7.2}", (q3 - q1) / median * 100.0)
            })
            .collect();
        // how much worse a later set's median is than an earlier one's
        let mut gap: f64 = 0.0;
        for (i, earlier) in medians.iter().enumerate() {
            for later in &medians[i + 1..] {
                let worse = match metric.better {
                    Better::Lower => later / earlier - 1.0,
                    Better::Higher => earlier / later - 1.0,
                };
                gap = gap.max(worse.abs());
            }
        }
        let ok = gap <= metric.bound / 2.0;
        all_ok &= ok;
        println!(
            "{:<28} {:>8} {}  {:>9.2} {:>7.1} {:>6}",
            metric.name,
            metric.unit,
            columns.join(" "),
            gap * 100.0,
            metric.bound * 100.0,
            if ok { "yes" } else { "NO" }
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("xarch-bench: a set-to-set difference exceeds half its bound");
        ExitCode::FAILURE
    }
}
