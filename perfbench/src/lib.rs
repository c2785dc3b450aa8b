//! End-to-end and per-layer benchmark of the psta stack.
//!
//! Three seeded workloads drive the public APIs and the real `psta`
//! binaries:
//!
//! * [`cold`] — `.bench` text → committed groups on the six ISCAS89
//!   profiles (parse, annotate, arc pmfs, levelize, propagate);
//! * [`whatif`] — a retained `IncrementalAnalyzer` on s38584 answering
//!   seeded sizing sessions (deltas, reads, reverts);
//! * [`serve`] — HTTP requests through `psta router` → `psta serve`.
//!
//! Each prints the end-to-end metrics of [`catalog::END_TO_END`], or with
//! `--trace 1` the per-layer metrics of [`catalog::per_layer`], as one
//! JSON line, after checking that every answer is correct.

pub mod catalog;
pub mod cold;
pub mod gen;
pub mod http;
pub mod procs;
pub mod serve;
pub mod stats;
pub mod whatif;

use pep_celllib::{DelayModel, Timing};
use pep_core::{analyze, compare, AnalysisConfig};
use pep_netlist::generate::{iscas_profile, IscasProfile};
use pep_netlist::{parse_bench, Netlist};
use pep_sta::monte_carlo::{run_monte_carlo, McConfig, McResult};
use std::time::{Duration, Instant};

/// The workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["cold-iscas", "whatif-sizing", "serve-mixed"];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Delay-annotation seed of the accuracy reference. Fixed, so the
/// accuracy metrics are a deterministic regression gate: across
/// annotation seeds they vary by 8–13%, more than a bound can absorb.
pub const ACCURACY_SEED: u64 = 1;

/// Monte Carlo runs of the accuracy reference (the paper's 5 000).
pub const MC_RUNS: usize = 5_000;

/// Command-line arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Analysis threads: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration every workload analyzes with: the paper's
/// defaults, threads pinned to [`nproc`].
pub fn config(threads: usize) -> AnalysisConfig {
    AnalysisConfig {
        threads,
        ..AnalysisConfig::default()
    }
}

/// The `.bench` text of the ISCAS89 profile circuit with this name.
pub fn profile_text(name: &str) -> String {
    let profile = IscasProfile::all()
        .into_iter()
        .find(|p| p.name() == name)
        .expect("catalog circuits are ISCAS89 profiles");
    pep_netlist::to_bench(&iscas_profile(profile))
}

/// The workload's delay annotation of a circuit.
pub fn annotate(nl: &Netlist, seed: u64) -> Timing {
    Timing::annotate(nl, &DelayModel::dac2001(seed))
}

/// Parses generated text and annotates it with the workload's delays.
pub fn load(name: &str, text: &str, seed: u64) -> (Netlist, Timing) {
    let nl = parse_bench(name, text).expect("generated .bench text parses");
    let timing = annotate(&nl, seed);
    (nl, timing)
}

/// Runs `f` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median wall time in seconds. Earlier results are dropped
/// before the next repetition starts, so peak memory holds one copy.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS is positive"), stats::median(&times))
}

/// One circuit's Monte Carlo reference.
pub struct McReference {
    /// Circuit name.
    pub name: &'static str,
    /// The parsed circuit.
    pub netlist: Netlist,
    /// Its delay annotation.
    pub timing: Timing,
    /// The 5 000-run Monte Carlo result.
    pub mc: McResult,
    /// Seconds the Monte Carlo took.
    pub mc_s: f64,
}

/// Builds the Monte Carlo references for the accuracy circuits,
/// annotated with [`ACCURACY_SEED`].
pub fn mc_references() -> Vec<McReference> {
    catalog::ACCURACY_CIRCUITS
        .iter()
        .map(|&name| {
            let (netlist, timing) = load(name, &profile_text(name), ACCURACY_SEED);
            let t0 = Instant::now();
            let mc = run_monte_carlo(
                &netlist,
                &timing,
                &McConfig {
                    runs: MC_RUNS,
                    threads: nproc(),
                    ..McConfig::default()
                },
            );
            McReference {
                name,
                netlist,
                timing,
                mc,
                mc_s: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// The paper's `M_e + 3σ_e` errors of PEP against the references:
/// sets `mean_err_pct`/`sigma_err_pct` (worst circuit) in end-to-end
/// mode, the per-circuit values and `sta.mc_s` in traced mode.
pub fn report_accuracy(refs: &[McReference], trace: bool, report: &mut catalog::Report) {
    let (mut worst_mean, mut worst_sigma) = (0.0f64, 0.0f64);
    for r in refs {
        let pep = analyze(&r.netlist, &r.timing, &config(nproc()));
        let (mean, sigma) = compare::against_monte_carlo(&r.netlist, &pep, &r.mc).report();
        worst_mean = worst_mean.max(mean);
        worst_sigma = worst_sigma.max(sigma);
        report.notes.push(format!(
            "accuracy {}: mean {mean:.3}%, sigma {sigma:.3}% vs {MC_RUNS}-run MC ({:.2} s)",
            r.name, r.mc_s
        ));
        if trace {
            report.set(&format!("accuracy.{}.mean_err_pct", r.name), mean);
            report.set(&format!("accuracy.{}.sigma_err_pct", r.name), sigma);
        }
    }
    if trace {
        report.set("sta.mc_s", refs.iter().map(|r| r.mc_s).sum());
    } else {
        report.set("mean_err_pct", worst_mean);
        report.set("sigma_err_pct", worst_sigma);
    }
}

/// Sets `ok_ratio` from the report's operation counts.
pub fn set_ok_ratio(report: &mut catalog::Report) {
    let attempted = report.attempted.max(1);
    report.set(
        "ok_ratio",
        (attempted - report.failed.min(attempted)) as f64 / attempted as f64,
    );
}
