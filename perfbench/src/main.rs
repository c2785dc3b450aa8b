//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON result line. Exits
//! non-zero on a bad argument, a failed set-up, or a correctness-gate
//! mismatch (after printing the result line).

use perfbench::catalog::Report;
use perfbench::{cold, serve, whatif, Args, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {WORKLOADS:?})"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok((
        workload,
        Args {
            seed,
            window: Duration::from_secs(seconds),
            trace,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let ran = match workload.as_str() {
        "cold-iscas" => {
            cold::run(&args, &mut report);
            Ok(())
        }
        "whatif-sizing" => {
            whatif::run(&args, &mut report);
            Ok(())
        }
        _ => serve::run(&args, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    report.zero_fill_if(args.trace);
    println!(
        "workload {workload}, seed {}, window {} s, {} analysis threads",
        args.seed,
        args.window.as_secs(),
        perfbench::nproc()
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.mismatches {
        println!("  MISMATCH: {m}");
    }
    match report.render(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
