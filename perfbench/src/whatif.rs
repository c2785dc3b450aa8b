//! `whatif-sizing`: seeded sizing sessions against a retained
//! `IncrementalAnalyzer` on s38584, one closed-loop caller.
//!
//! One operation is one `apply_delta` followed by a `circuit_delay()`
//! read. A session follows `psta size`'s rounds (see
//! [`crate::gen::Session`]) and ends in `revert()`. Parse, annotate, the
//! full arc-pmf build, levelize and extraction all happen in set-up, so
//! a front-end change must leave this workload unchanged.

use crate::catalog::{Report, KERNELS};
use crate::gen::{
    chain_class, sample_positions, sizing_sessions, strata, DeltaSpace, DeltaSpec, CLASSES,
    ROUND_DELTAS,
};
use crate::procs::peak_rss_mb;
use crate::stats::{block_rate, median, percentile, rescale_groups, Summary, TailSpec};
use crate::{config, load, nproc, profile_text, repeat_setup, Args};
use pep_celllib::Timing;
use pep_core::{analyze_with_inputs, Delta, IncrementalAnalyzer};
use pep_dist::{ContinuousDist, DiscreteDist};
use pep_netlist::cone::fanout_cone;
use pep_netlist::{GateKind, Netlist, NodeId};
use pep_obs::{Session, Trace, TraceLevel};
use pep_serve::api::groups_digest;
use std::time::Instant;

/// The base circuit.
pub const CIRCUIT: &str = "s38584";

/// Sessions generated per run; far more than a window consumes.
const SESSIONS: usize = 200;

/// 256 to 840 deltas fit the fixed run length on the reference host,
/// depending on its load. The tail is chosen for 85% of the slowest run
/// seen, so a host 15% slower still leaves ten samples beyond it. It is
/// taken over the raw times, not rescaled per class: a sub-millisecond
/// probe rescaled to the average delta would turn every scheduler delay
/// it meets into a tail sample.
pub const TAIL: TailSpec = TailSpec {
    pct: 95.0,
    expected_n: 217,
};

/// The base circuit with its gate and input lists.
pub struct Base {
    /// The parsed circuit.
    pub netlist: Netlist,
    /// Its base delay annotation.
    pub timing: Timing,
    /// Every non-input node, in node order.
    pub gates: Vec<NodeId>,
    /// The primary inputs.
    pub inputs: Vec<NodeId>,
    /// Base mean cell delay per entry of `gates`.
    pub means: Vec<f64>,
    /// `gates` indices grouped by static fanout-cone size.
    pub strata: Vec<Vec<usize>>,
}

impl Base {
    /// Parses and annotates the s38584 profile text.
    pub fn new(text: &str, seed: u64) -> Base {
        let (netlist, timing) = load(CIRCUIT, text, seed);
        let gates: Vec<NodeId> = netlist
            .node_ids()
            .filter(|&id| netlist.kind(id) != GateKind::Input)
            .collect();
        let means = gates
            .iter()
            .map(|&g| timing.cell_delay(g).map_or(1.0, ContinuousDist::mean))
            .collect();
        let inputs = netlist.primary_inputs().to_vec();
        Base {
            netlist,
            timing,
            gates,
            inputs,
            means,
            strata: Vec::new(),
        }
    }

    /// What the delta generators draw from. The cone-size strata are
    /// computed on first use, outside any timed set-up.
    pub fn space(&mut self) -> DeltaSpace<'_> {
        if self.strata.is_empty() {
            let sizes: Vec<usize> = self
                .gates
                .iter()
                .map(|&g| fanout_cone(&self.netlist, g).len())
                .collect();
            self.strata = strata(&sizes);
        }
        DeltaSpace {
            gate_means: &self.means,
            strata: &self.strata,
            inputs: self.inputs.len(),
        }
    }

    /// The engine delta of a generated spec.
    pub fn delta(&self, spec: &DeltaSpec) -> Delta {
        match *spec {
            DeltaSpec::Scale { gate, factor } => Delta::ScaleCell {
                gate: self.gates[gate],
                factor,
            },
            DeltaSpec::Rebind { gate, mean, sigma } => Delta::RebindCell {
                gate: self.gates[gate],
                delay: ContinuousDist::normal(mean, sigma).expect("generated sigma is positive"),
            },
            DeltaSpec::Arrival { input, ticks } => Delta::PiArrival {
                input: self.inputs[input],
                arrival: DiscreteDist::point(ticks),
            },
        }
    }
}

struct Setup {
    base: Base,
    incr: IncrementalAnalyzer,
    build_s: f64,
}

fn setup(seed: u64, threads: usize) -> Setup {
    let base = Base::new(&profile_text(CIRCUIT), seed);
    let t0 = Instant::now();
    let incr = IncrementalAnalyzer::new(&base.netlist, &base.timing, &config(threads))
        .expect("no fail-fast budget is configured");
    Setup {
        build_s: t0.elapsed().as_secs_f64(),
        base,
        incr,
    }
}

/// Deltas per throughput block: one sizing round, a probe and undo in
/// every gate stratum plus the commit, so every block has the same mix.
const BLOCK: usize = ROUND_DELTAS;

/// One delta's measurements.
struct Step {
    /// Operation class (see [`chain_class`]).
    class: usize,
    apply_ms: f64,
    read_ms: f64,
    /// The revert that ended this delta's chain, if it was the last.
    revert_ms: f64,
    dirty: usize,
    replayed: usize,
}

/// A spot check: the circuit delay after delta `pos` of chain `chain`.
struct Sample {
    chain: usize,
    pos: usize,
    bits: Vec<(i64, u64)>,
}

/// Sessions measured by one pass over the chains.
#[derive(Default)]
struct Pass {
    steps: Vec<Step>,
    revert_ms: Vec<f64>,
    samples: Vec<Sample>,
    chains_done: usize,
    errors: Vec<String>,
    revert_mismatches: usize,
}

impl Pass {
    fn op_ms(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.apply_ms + s.read_ms).collect()
    }

    fn op_ms_by_class(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); CLASSES];
        for s in &self.steps {
            out[s.class].push(s.apply_ms + s.read_ms);
        }
        out
    }

    fn apply_ms_total(&self) -> f64 {
        self.steps.iter().map(|s| s.apply_ms).sum()
    }

    /// Seconds per complete block of [`BLOCK`] deltas, reverts included.
    fn block_s(&self) -> Vec<f64> {
        self.steps
            .chunks_exact(BLOCK)
            .map(|b| {
                b.iter()
                    .map(|s| s.apply_ms + s.read_ms + s.revert_ms)
                    .sum::<f64>()
                    / 1e3
            })
            .collect()
    }
}

/// Runs chains in order until `until` says stop (checked before every
/// delta; a cut chain is still reverted) or `limit` chains are done.
/// Records the spot-check samples `want` (chain, position) and checks
/// every revert against the base.
fn run_chains(
    base: &Base,
    incr: &mut IncrementalAnalyzer,
    chains: &[Vec<DeltaSpec>],
    limit: usize,
    want: &[(usize, usize)],
    obs: &Session,
    until: &dyn Fn(&Pass) -> bool,
) -> Pass {
    let base_bits = incr.circuit_delay().to_bits();
    let mut pass = Pass::default();
    for (ci, chain) in chains.iter().enumerate().take(limit) {
        if until(&pass) {
            break;
        }
        for (pos, spec) in chain.iter().enumerate() {
            if pos > 0 && until(&pass) {
                break;
            }
            let delta = base.delta(spec);
            let t0 = Instant::now();
            let applied = incr.apply_delta_observed(&delta, obs);
            let t1 = Instant::now();
            let delay = std::hint::black_box(incr.circuit_delay());
            let t2 = Instant::now();
            match applied {
                Ok(r) => pass.steps.push(Step {
                    class: chain_class(pos),
                    apply_ms: (t1 - t0).as_secs_f64() * 1e3,
                    read_ms: (t2 - t1).as_secs_f64() * 1e3,
                    revert_ms: 0.0,
                    dirty: r.dirty_nodes,
                    replayed: r.replayed_nodes,
                }),
                Err(e) => pass.errors.push(format!("chain {ci} delta {pos}: {e}")),
            }
            if want.contains(&(ci, pos)) {
                pass.samples.push(Sample {
                    chain: ci,
                    pos,
                    bits: delay.to_bits(),
                });
            }
        }
        let t0 = Instant::now();
        incr.revert();
        let revert_ms = t0.elapsed().as_secs_f64() * 1e3;
        pass.revert_ms.push(revert_ms);
        if let Some(last) = pass.steps.last_mut() {
            last.revert_ms += revert_ms;
        }
        if incr.circuit_delay().to_bits() != base_bits {
            pass.revert_mismatches += 1;
        }
        pass.chains_done += 1;
    }
    pass
}

/// The spot checks: the first delta, the end of the first long session
/// (past the 64-plane compaction), and a seeded delta of one of the two
/// short sessions before it.
fn spot_checks(seed: u64, chains: &[Vec<DeltaSpec>]) -> Vec<(usize, usize)> {
    let c = sample_positions(seed, 2, 1)[0];
    let pos = sample_positions(seed ^ 1, chains[c].len(), 1)[0];
    vec![(0, 0), (c, pos), (2, chains[2].len() - 1)]
}

/// Correctness gate: each spot check equals a cold analysis of the
/// edited timing bit for bit, and the final revert restores every
/// group of the base.
fn verify(
    base: &Base,
    incr: &IncrementalAnalyzer,
    chains: &[Vec<DeltaSpec>],
    pass: &Pass,
    base_digest: u64,
    report: &mut Report,
) {
    for e in &pass.errors {
        report.mismatch(format!("delta failed: {e}"));
    }
    if pass.revert_mismatches > 0 {
        report.mismatch(format!(
            "{} reverts did not restore the base circuit delay",
            pass.revert_mismatches
        ));
    }
    for s in &pass.samples {
        let mut timing = base.timing.clone();
        let mut arrivals: Vec<Option<DiscreteDist>> = vec![None; base.netlist.node_count()];
        for spec in &chains[s.chain][..=s.pos] {
            match base.delta(spec) {
                Delta::ScaleCell { gate, factor } => timing
                    .scale_cell(gate, factor)
                    .expect("generated factor is positive"),
                Delta::RebindCell { gate, delay } => timing.set_cell_delay(gate, delay),
                Delta::PiArrival { input, arrival } => arrivals[input.index()] = Some(arrival),
            }
        }
        let cold = analyze_with_inputs(&base.netlist, &timing, incr.config(), |pi| {
            arrivals[pi.index()]
                .clone()
                .unwrap_or_else(|| DiscreteDist::point(0))
        });
        if cold.circuit_delay(&base.netlist).to_bits() != s.bits {
            report.mismatch(format!(
                "chain {} delta {}: incremental circuit delay differs from a cold analysis",
                s.chain, s.pos
            ));
        }
    }
    report.notes.push(format!(
        "{} spot checks against cold analyses, {} reverts checked",
        pass.samples.len(),
        pass.chains_done
    ));
    if groups_digest(&base.netlist, &incr.analysis()) != base_digest {
        report.mismatch("after the final revert the groups differ from the base");
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let (mut s, setup_s) = repeat_setup(|| setup(args.seed, nproc()));
    let base_digest = groups_digest(&s.base.netlist, &s.incr.analysis());
    let t0 = Instant::now();
    let space = s.base.space();
    let chains: Vec<Vec<DeltaSpec>> = sizing_sessions(args.seed, &space, SESSIONS, true)
        .iter()
        .map(|session| session.chain(&space))
        .collect();
    report.notes.push(format!(
        "delta inputs generated in {:.2} s",
        t0.elapsed().as_secs_f64()
    ));
    let want = spot_checks(args.seed, &chains);
    let start = Instant::now();
    let window = args.window;
    if args.trace {
        report.set("incremental.build_s", s.build_s);
        report.set(
            "incremental.resident_mb",
            s.incr.resident_bytes() as f64 / (1024.0 * 1024.0),
        );
        traced(args, &mut s, &chains, &want, base_digest, report);
    } else {
        let pass = run_chains(
            &s.base,
            &mut s.incr,
            &chains,
            SESSIONS,
            &want,
            &Session::disabled(),
            &|_| start.elapsed() >= window,
        );
        let op_ms = pass.op_ms();
        let typical = rescale_groups(&pass.op_ms_by_class()).0;
        let summary = Summary::of(&op_ms, TAIL);
        report
            .notes
            .push(summary.describe("delta + read, raw times", TAIL));
        report.attempted = (pass.steps.len() + pass.errors.len()) as u64;
        report.failed = pass.errors.len() as u64;
        report.set("setup_s", setup_s);
        report.set("peak_rss_mb", peak_rss_mb("self"));
        report.set("op_ms_p50", typical);
        report.set("op_ms_tail", summary.tail);
        let busy_s = (op_ms.iter().sum::<f64>() + pass.revert_ms.iter().sum::<f64>()) / 1e3;
        report.set(
            "work_per_s",
            block_rate(
                BLOCK as f64,
                &pass.block_s(),
                pass.steps.len() as f64,
                busy_s,
            ),
        );
        crate::set_ok_ratio(report);
        verify(&s.base, &s.incr, &chains, &pass, base_digest, report);
    }
    crate::report_accuracy(&crate::mc_references(), args.trace, report);
}

/// The traced run: the same chains at [`nproc`] threads untraced, at 1
/// thread untraced, and at 1 thread with a kernel-level trace.
fn traced(
    args: &Args,
    s: &mut Setup,
    chains: &[Vec<DeltaSpec>],
    want: &[(usize, usize)],
    base_digest: u64,
    report: &mut Report,
) {
    let third = args.window / 3;
    let t0 = Instant::now();
    let multi = run_chains(
        &s.base,
        &mut s.incr,
        chains,
        SESSIONS,
        want,
        &Session::disabled(),
        &|_| t0.elapsed() >= third,
    );
    verify(&s.base, &s.incr, chains, &multi, base_digest, report);
    let n = multi.chains_done;
    // The other passes replay exactly the deltas the first one measured.
    let total = multi.steps.len();
    let same = |p: &Pass| p.steps.len() >= total;
    let mut single_incr = IncrementalAnalyzer::new(&s.base.netlist, &s.base.timing, &config(1))
        .expect("no fail-fast budget is configured");
    let single = run_chains(
        &s.base,
        &mut single_incr,
        chains,
        n,
        &[],
        &Session::disabled(),
        &same,
    );
    let obs = Session::new();
    obs.set_trace(Trace::new(TraceLevel::Kernels));
    let kernels = run_chains(&s.base, &mut single_incr, chains, n, &[], &obs, &same);

    let col = |f: &dyn Fn(&Step) -> f64| multi.steps.iter().map(f).collect::<Vec<f64>>();
    report.set("incremental.apply_ms_p50", median(&col(&|s| s.apply_ms)));
    report.set("incremental.read_ms_p50", median(&col(&|s| s.read_ms)));
    report.set("incremental.revert_ms_p50", median(&multi.revert_ms));
    let mut dirty = col(&|s| s.dirty as f64);
    report.set("incremental.dirty_nodes_p50", median(&dirty));
    report.set(
        "incremental.dirty_nodes_tail",
        percentile(&mut dirty, TAIL.pct),
    );
    let dirty_total: f64 = dirty.iter().sum();
    let replayed_total: f64 = col(&|s| s.replayed as f64).iter().sum();
    report.set(
        "incremental.dirty_ratio",
        dirty_total / (dirty_total + replayed_total).max(1.0),
    );
    report.set(
        "incremental.us_per_dirty_node",
        multi.apply_ms_total() * 1e3 / dirty_total.max(1.0),
    );
    let steps = total.max(1) as f64;
    let t1 = single.apply_ms_total() / steps;
    let t2 = multi.apply_ms_total() / steps;
    report.set("core.propagate_ms_t1", t1);
    report.set("core.propagate_ms_t2", t2);
    crate::cold::set_scaling(report, t1, t2);
    let aggs = obs.trace().kernel_aggregates();
    let mut kernel_ns = 0.0;
    for (i, name) in KERNELS.iter().enumerate() {
        kernel_ns += aggs[i].total_ns as f64;
        report.set(&format!("dist.{name}.calls"), aggs[i].calls as f64);
        report.set(
            &format!("dist.{name}.ns_per_call"),
            aggs[i].total_ns as f64 / aggs[i].calls.max(1) as f64,
        );
    }
    report.set(
        "dist.kernel_share",
        kernel_ns * 1e-6 / kernels.apply_ms_total().max(1e-9),
    );
    report.set(
        "obs.trace_overhead_pct",
        (rescale_groups(&kernels.op_ms_by_class()).0
            / rescale_groups(&single.op_ms_by_class()).0.max(1e-9)
            - 1.0)
            * 100.0,
    );
    report.attempted = (multi.steps.len() + single.steps.len() + kernels.steps.len()) as u64;
    report.failed = (multi.errors.len() + single.errors.len() + kernels.errors.len()) as u64;
    report.notes.push(format!(
        "traced run: {n} chains ({} deltas) per pass",
        multi.steps.len()
    ));
}
