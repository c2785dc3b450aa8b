//! `cold-iscas`: `.bench` text → committed groups on the six ISCAS89
//! profiles, round-robin, one closed-loop caller.
//!
//! One operation is one circuit: `parse_bench` → `Timing::annotate` →
//! `analyze` at [`nproc`] threads. Set-up builds the six texts and the
//! 5 000-run Monte Carlo references of the accuracy circuits.

use crate::catalog::{Report, CIRCUITS, KERNELS};
use crate::procs::peak_rss_mb;
use crate::stats::{block_rate, median, rescale_groups, Summary, TailSpec};
use crate::{annotate, config, nproc, profile_text, repeat_setup, Args};
use pep_core::{analyze_observed, try_analyze, AnalysisConfig, PepAnalysis};
use pep_netlist::{parse_bench, Netlist};
use pep_obs::{Session, Trace, TraceLevel};
use pep_serve::api::groups_digest;
use std::time::Instant;

/// 78 to 108 circuits (13 to 18 whole rounds) fit the fixed run length
/// on the reference host, outside host stalls. The tail is chosen for
/// 85% of the slowest run seen, so a host 15% slower still leaves ten
/// samples beyond it.
pub const TAIL: TailSpec = TailSpec {
    pct: 80.0,
    expected_n: 66,
};

struct Circuit {
    name: &'static str,
    text: String,
    gates: usize,
}

fn circuits() -> Vec<Circuit> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let text = profile_text(name);
            let gates = parse_bench(name, &text)
                .expect("generated text parses")
                .gate_count();
            Circuit { name, text, gates }
        })
        .collect()
}

/// One operation: text → committed groups.
fn analyze_text(
    c: &Circuit,
    seed: u64,
    cfg: &AnalysisConfig,
) -> Result<(Netlist, PepAnalysis), String> {
    let nl = parse_bench(c.name, &c.text).map_err(|e| e.to_string())?;
    let timing = annotate(&nl, seed);
    let a = try_analyze(&nl, &timing, cfg).map_err(|e| e.to_string())?;
    Ok((nl, a))
}

/// The groups digest of one analysis, for the correctness gate.
fn digest_text(c: &Circuit, seed: u64, cfg: &AnalysisConfig) -> Result<u64, String> {
    analyze_text(c, seed, cfg).map(|(nl, a)| groups_digest(&nl, &a))
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let ((circuits, refs), setup_s) = repeat_setup(|| (circuits(), crate::mc_references()));
    if args.trace {
        traced(args, &circuits, report);
    } else {
        measure(args, &circuits, report);
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss_mb("self"));
    }
    check_thread_determinism(args.seed, &circuits, report);
    crate::report_accuracy(&refs, args.trace, report);
}

/// Measures whole suite rounds until the window ends. The circuits
/// differ in cost by 7x, so their times are not pooled as they are:
/// `op_ms_p50` is the mean of the six per-circuit medians (the suite's
/// average circuit), and `op_ms_tail` the tail of every time rescaled
/// by that mean over its own circuit's median (see [`rescale_groups`]).
fn measure(args: &Args, circuits: &[Circuit], report: &mut Report) {
    let cfg = config(nproc());
    let mut per_circuit: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    let (mut gates, mut busy_s) = (0usize, 0.0);
    // Complete suite rounds, each the same work: the blocks of `block_rate`.
    let mut rounds = Vec::new();
    let start = Instant::now();
    while start.elapsed() < args.window {
        let (mut round_s, mut round_ok) = (0.0, true);
        for (c, times) in circuits.iter().zip(&mut per_circuit) {
            let t0 = Instant::now();
            let out = std::hint::black_box(analyze_text(c, args.seed, &cfg));
            let dt = t0.elapsed().as_secs_f64();
            report.attempted += 1;
            match out {
                Ok(_) => {
                    times.push(dt * 1e3);
                    gates += c.gates;
                    busy_s += dt;
                }
                Err(e) => {
                    round_ok = false;
                    report.failed += 1;
                    report.mismatch(format!("{}: analysis failed: {e}", c.name));
                }
            }
            round_s += dt;
        }
        if round_ok {
            rounds.push(round_s);
        }
    }
    let (typical, scaled) = rescale_groups(&per_circuit);
    let s = Summary::of(&scaled, TAIL);
    report
        .notes
        .push(s.describe("circuit analysis, rescaled to the average circuit", TAIL));
    report.set("op_ms_p50", typical);
    report.set("op_ms_tail", s.tail);
    let suite_gates: usize = circuits.iter().map(|c| c.gates).sum();
    report.set(
        "work_per_s",
        block_rate(suite_gates as f64, &rounds, gates as f64, busy_s),
    );
    crate::set_ok_ratio(report);
}

/// Correctness gate: groups at [`nproc`] threads equal a 1-thread run
/// bit for bit, on every circuit.
fn check_thread_determinism(seed: u64, circuits: &[Circuit], report: &mut Report) {
    for c in circuits {
        let multi = digest_text(c, seed, &config(nproc()));
        let single = digest_text(c, seed, &config(1));
        match (multi, single) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(a), Ok(b)) => report.mismatch(format!(
                "{}: {}-thread digest {a:016x} != 1-thread {b:016x}",
                c.name,
                nproc()
            )),
            (a, b) => report.mismatch(format!("{}: analysis failed: {a:?} / {b:?}", c.name)),
        }
    }
}

/// Per-round layer totals of one pass.
#[derive(Default)]
struct Round {
    op_ms: Vec<f64>,
    parse_ms: f64,
    annotate_ms: f64,
    obs: Vec<Session>,
}

/// One suite round with each layer timed: parse and annotate around
/// their public calls, the engine phases from an observing session.
fn round(circuits: &[Circuit], seed: u64, threads: usize, trace: Option<TraceLevel>) -> Round {
    let cfg = config(threads);
    let mut r = Round::default();
    for c in circuits {
        let t0 = Instant::now();
        let nl = parse_bench(c.name, &c.text).expect("generated text parses");
        let t1 = Instant::now();
        let timing = annotate(&nl, seed);
        let t2 = Instant::now();
        let obs = Session::new();
        if let Some(level) = trace {
            obs.set_trace(Trace::new(level));
        }
        std::hint::black_box(analyze_observed(&nl, &timing, &cfg, &obs));
        r.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r.parse_ms += (t1 - t0).as_secs_f64() * 1e3;
        r.annotate_ms += (t2 - t1).as_secs_f64() * 1e3;
        r.obs.push(obs);
    }
    r
}

fn phase_ms(r: &Round, name: &str) -> f64 {
    r.obs
        .iter()
        .filter_map(|o| o.total_of(name))
        .map(|d| d.as_secs_f64() * 1e3)
        .sum()
}

fn counter(r: &Round, name: &str) -> f64 {
    r.obs.iter().map(|o| o.counter(name).get() as f64).sum()
}

/// The traced run: suite rounds at [`nproc`] threads (phases only), at
/// 1 thread (phases only; per-node phases exist only there), and at 1
/// thread with a kernel-level trace, interleaved until the window ends.
fn traced(args: &Args, circuits: &[Circuit], report: &mut Report) {
    let (mut multi, mut single, mut kernels) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while multi.is_empty() || start.elapsed() < args.window {
        multi.push(round(circuits, args.seed, nproc(), None));
        single.push(round(circuits, args.seed, 1, None));
        kernels.push(round(circuits, args.seed, 1, Some(TraceLevel::Kernels)));
    }
    report.attempted = (3 * multi.len() * circuits.len()) as u64;
    let med = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let suite = |r: &Round| r.op_ms.iter().sum::<f64>();
    report.set("cold.suite_ms_p50", med(&multi, &suite));
    for (i, c) in circuits.iter().enumerate() {
        report.set(
            &format!("cold.{}.ms_p50", c.name),
            med(&multi, &|r: &Round| r.op_ms[i]),
        );
    }
    report.set("netlist.parse_ms", med(&multi, &|r: &Round| r.parse_ms));
    report.set(
        "celllib.annotate_ms",
        med(&multi, &|r: &Round| r.annotate_ms),
    );
    report.set(
        "core.arc_pmf_ms",
        med(&multi, &|r: &Round| phase_ms(r, "arc-pmf-build")),
    );
    report.set(
        "netlist.levelize_ms",
        med(&multi, &|r: &Round| phase_ms(r, "levelize")),
    );
    let t1 = med(&single, &|r: &Round| phase_ms(r, "propagate"));
    let t2 = med(&multi, &|r: &Round| phase_ms(r, "propagate"));
    report.set("core.propagate_ms_t1", t1);
    report.set("core.propagate_ms_t2", t2);
    set_scaling(report, t1, t2);
    report.set(
        "netlist.supergate_extract_ms",
        med(&single, &|r: &Round| phase_ms(r, "supergate-extract")),
    );
    report.set(
        "core.sampling_eval_ms",
        med(&single, &|r: &Round| phase_ms(r, "sampling-eval")),
    );
    report.set(
        "core.node_eval_ms",
        med(&kernels, &|r: &Round| {
            r.obs
                .iter()
                .flat_map(|o| o.trace().spans())
                .filter(|s| s.name == "node-eval")
                .map(|s| s.dur_ns as f64 * 1e-6)
                .sum()
        }),
    );

    // Counts are deterministic: read them from the first round.
    let first = &multi[0];
    report.set("core.waves", counter(first, "pep.waves"));
    let mut widths: Vec<f64> = Vec::new();
    for o in &first.obs {
        if let Some(h) = o.report("cold").histograms.get("pep.wave_width") {
            widths.push(h.p50);
        }
    }
    report.set("core.wave_width_p50", median(&widths));
    set_engine_counts(report, &|name| counter(first, name));
    report.set(
        "core.dropped_mass",
        first
            .obs
            .iter()
            .map(|o| o.float_counter("pep.dropped_mass").get())
            .sum(),
    );

    let k = &kernels[0];
    let mut kernel_ns = 0.0;
    for (i, name) in KERNELS.iter().enumerate() {
        let (calls, ns) = k.obs.iter().fold((0u64, 0u64), |(c, n), o| {
            let agg = &o.trace().kernel_aggregates()[i];
            (c + agg.calls, n + agg.total_ns)
        });
        kernel_ns += ns as f64;
        report.set(&format!("dist.{name}.calls"), calls as f64);
        report.set(
            &format!("dist.{name}.ns_per_call"),
            ns as f64 / calls.max(1) as f64,
        );
    }
    report.set(
        "dist.kernel_share",
        kernel_ns * 1e-6 / phase_ms(k, "propagate").max(1e-9),
    );
    let plain = med(&single, &suite);
    let traced = med(&kernels, &suite);
    report.set("obs.trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    report.notes.push(format!(
        "traced run: {} rounds per pass; propagate {t1:.1} ms at 1 thread, {t2:.1} ms at {}",
        multi.len(),
        nproc()
    ));
}

/// `core.speedup_t2` and the Karp–Flatt serial fraction
/// `(1/S − 1/p) / (1 − 1/p)` for `p` = [`nproc`] threads.
pub fn set_scaling(report: &mut Report, t1: f64, tp: f64) {
    let s = t1 / tp.max(1e-9);
    let p = nproc() as f64;
    report.set("core.speedup_t2", s);
    report.set(
        "core.serial_fraction",
        if p > 1.0 {
            (1.0 / s - 1.0 / p) / (1.0 - 1.0 / p)
        } else {
            1.0
        },
    );
}

/// The engine's `pep.*` counters of one suite round.
pub fn set_engine_counts(report: &mut Report, get: &dyn Fn(&str) -> f64) {
    let conditioned = get("pep.stems_conditioned");
    let filtered = get("pep.stems_filtered");
    report.set("core.supergates", get("pep.supergates"));
    report.set("core.stems_conditioned", conditioned);
    report.set("core.stems_filtered", filtered);
    report.set(
        "core.stem_keep_ratio",
        conditioned / (conditioned + filtered).max(1.0),
    );
    report.set("core.events_propagated", get("pep.events_propagated"));
    report.set("core.events_dropped", get("pep.events_dropped"));
}
