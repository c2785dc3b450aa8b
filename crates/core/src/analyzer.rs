use crate::arcs::ArcPmfs;
use crate::budget::BudgetTracker;
use crate::faults;
use crate::group_store::GroupStore;
use crate::incremental::{NodeRecord, Prune};
use crate::node_eval::{with_refs, NodeEval, StaticEval};
use crate::region::{CachedRegion, EvalScratch, RegionEval, RegionOutcome, RegionScaffold};
use crate::AnalysisConfig;
use pep_celllib::Timing;
use pep_dist::{DiscreteDist, TimeStep};
use pep_netlist::cone::SupportSets;
use pep_netlist::supergate::{Supergate, SupergateExtractor};
use pep_netlist::{GateKind, Netlist, NodeId};
use pep_obs::{Session, SpanArgs, TraceLevel, Warning};
use pep_sta::error::panic_detail;
use pep_sta::{AnalysisError, BudgetExceeded, CancelState, CancelToken, Cancelled, PepError};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Counters describing how an analysis ran.
///
/// These are a per-run view over the `pep.*` metrics in the
/// [`pep_obs::Session`] registry — the registry is the single source of
/// truth, and each analysis reports the registry *delta* it produced,
/// so a session shared across several analyses still yields exact
/// per-run stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Reconvergent gates handled through supergate evaluation
    /// (`pep.supergates`).
    pub supergates: usize,
    /// Total stems conditioned on by sampling-evaluation
    /// (`pep.stems_conditioned`).
    pub stems_conditioned: usize,
    /// Stems removed by the filtering/effective-stem heuristics
    /// (`pep.stems_filtered`).
    pub stems_filtered: usize,
    /// Supergates evaluated by the hybrid Monte Carlo path
    /// (`pep.hybrid_evaluations`).
    pub hybrid_evaluations: usize,
    /// Probability mass dropped by the `P_m` filter
    /// (`pep.dropped_mass`): the unitless sum, over every evaluated
    /// node, of the mass its *final* event group lost to
    /// `truncate_below(P_m)` before renormalization (diagnostic for
    /// Fig. 7-style accuracy studies). Transient truncations *inside*
    /// supergate conditioning are deliberately excluded — interior
    /// groups are recomputed per stem value and would double-count.
    pub dropped_mass: f64,
}

/// The result of a probabilistic-event-propagation analysis: one
/// arrival-time event group per node (the full distribution, not just
/// moments — the representational advantage the paper points out over
/// Monte Carlo in §4).
#[derive(Debug, Clone)]
pub struct PepAnalysis {
    step: TimeStep,
    groups: Vec<DiscreteDist>,
    stats: AnalysisStats,
    warnings: Vec<Warning>,
}

impl PepAnalysis {
    /// Assembles an analysis from parts — the incremental engine's
    /// materialization path.
    pub(crate) fn from_parts(
        step: TimeStep,
        groups: Vec<DiscreteDist>,
        stats: AnalysisStats,
        warnings: Vec<Warning>,
    ) -> Self {
        PepAnalysis {
            step,
            groups,
            stats,
            warnings,
        }
    }

    /// The sampling step all groups are expressed on.
    pub fn step(&self) -> TimeStep {
        self.step
    }

    /// The arrival-time event group at a node.
    pub fn group(&self, node: NodeId) -> &DiscreteDist {
        &self.groups[node.index()]
    }

    /// Mean arrival time at a node, in physical time units.
    pub fn mean_time(&self, node: NodeId) -> f64 {
        self.groups[node.index()].mean_time(self.step)
    }

    /// Arrival-time standard deviation at a node, in physical time units.
    pub fn std_time(&self, node: NodeId) -> f64 {
        self.groups[node.index()].std_time(self.step)
    }

    /// The `q`-quantile of a node's arrival time, in physical time units.
    pub fn quantile_time(&self, node: NodeId, q: f64) -> Option<f64> {
        self.groups[node.index()]
            .quantile(q)
            .map(|t| self.step.time_of(t))
    }

    /// Run counters.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Structured warnings recorded during the run (budget
    /// degradations, degenerate-group recoveries), in the
    /// deterministic wave order they were committed.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Content digest of every node's group, in node order (see
    /// [`pep_dist::hash::group_hash`]): two analyses digest equal iff
    /// their groups are bit-identical, up to hash collisions.
    pub fn groups_digest(&self) -> u64 {
        pep_dist::hash::fold_hashes(
            self.groups
                .iter()
                .map(|g| pep_dist::hash::group_hash(g.as_view())),
        )
    }

    /// The circuit-delay distribution: the max-combine of all primary
    /// output groups.
    ///
    /// Output groups may share stems, so this combine treats them as
    /// independent — an approximation consistent with how the paper's
    /// applications (e.g. yield estimation) consume per-output
    /// distributions. For a pessimism-free answer on a specific output,
    /// use [`group`](PepAnalysis::group) directly.
    pub fn circuit_delay(&self, netlist: &Netlist) -> DiscreteDist {
        crate::cell_eval::combine_latest(netlist.primary_outputs().iter().map(|&po| self.group(po)))
    }
}

/// Analyzes a circuit with every primary input arriving deterministically
/// at time zero (the usual vectorless setup).
///
/// See [`AnalysisConfig`] for the approximation knobs; the defaults are
/// the paper's tuned operating point.
///
/// # Example
///
/// ```
/// use pep_celllib::{DelayModel, Timing};
/// use pep_core::{analyze, AnalysisConfig};
/// use pep_netlist::samples;
///
/// let nl = samples::fig6();
/// let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
/// let a = analyze(&nl, &timing, &AnalysisConfig::default());
/// assert!(a.stats().supergates > 0, "fig6 has reconvergent gates");
/// ```
pub fn analyze(netlist: &Netlist, timing: &Timing, config: &AnalysisConfig) -> PepAnalysis {
    // invariant: without a fail-fast budget or injected fault, the
    // engine degrades instead of erroring; any Err here is a real bug.
    try_analyze(netlist, timing, config).unwrap_or_else(|e| panic!("{e}"))
}

/// [`analyze`], returning a typed [`PepError`] instead of panicking
/// (worker panics are caught; `fail_fast` budgets surface as
/// [`PepError::Budget`]).
pub fn try_analyze(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
) -> Result<PepAnalysis, PepError> {
    try_analyze_observed(netlist, timing, config, &Session::disabled())
}

/// [`analyze`], recording phases and metrics into `obs`.
pub fn analyze_observed(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    obs: &Session,
) -> PepAnalysis {
    // invariant: see `analyze` — errors only arise from fail-fast
    // budgets, injected faults, or genuine engine bugs.
    try_analyze_observed(netlist, timing, config, obs).unwrap_or_else(|e| panic!("{e}"))
}

/// [`try_analyze`], recording phases and metrics into `obs`.
pub fn try_analyze_observed(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    obs: &Session,
) -> Result<PepAnalysis, PepError> {
    try_analyze_cancellable(netlist, timing, config, obs, &CancelToken::new())
}

/// [`try_analyze_observed`] honoring a cooperative [`CancelToken`],
/// polled at wave boundaries and inside the conditioning recursion.
///
/// A [degrade](CancelToken::cancel_degrade) cancellation finishes the
/// run fast: remaining supergates fall back to plain topological
/// propagation (each recorded as a `cancel.requested` warning) and the
/// partial-but-usable analysis is returned. An
/// [abort](CancelToken::cancel_abort) returns
/// [`PepError::Cancelled`] at the next wave boundary and discards
/// partial state.
pub fn try_analyze_cancellable(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    obs: &Session,
    cancel: &CancelToken,
) -> Result<PepAnalysis, PepError> {
    try_analyze_with_inputs_cancellable(
        netlist,
        timing,
        config,
        |_| DiscreteDist::point(0),
        obs,
        cancel,
    )
}

/// Analyzes a circuit with caller-supplied arrival groups at the primary
/// inputs (e.g. clock-skewed or staggered inputs).
pub fn analyze_with_inputs<F>(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    pi_group: F,
) -> PepAnalysis
where
    F: Fn(NodeId) -> DiscreteDist,
{
    // invariant: see `analyze`.
    try_analyze_with_inputs_cancellable(
        netlist,
        timing,
        config,
        pi_group,
        &Session::disabled(),
        &CancelToken::new(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`analyze_with_inputs`], returning a typed [`PepError`], recording
/// phases and metrics into `obs`, and honoring a cooperative
/// [`CancelToken`] (see [`try_analyze_cancellable`] for the degrade /
/// abort semantics).
pub fn try_analyze_with_inputs_cancellable<F>(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    pi_group: F,
    obs: &Session,
    cancel: &CancelToken,
) -> Result<PepAnalysis, PepError>
where
    F: Fn(NodeId) -> DiscreteDist,
{
    let (prep, groups, out) = cold_pass(
        netlist,
        timing,
        config,
        &pi_group,
        None,
        &mut Vec::new(),
        obs,
        cancel,
    )?;
    Ok(PepAnalysis {
        step: prep.step,
        groups: groups.into_groups(),
        stats: out.stats,
        warnings: out.warnings,
    })
}

/// The per-run metric handles `run` drives, resolved once up front.
struct RunMetrics {
    nodes_evaluated: pep_obs::Counter,
    events_propagated: pep_obs::Counter,
    events_dropped: pep_obs::Counter,
    dropped_mass: pep_obs::FloatCounter,
    supergates: pep_obs::Counter,
    stems_conditioned: pep_obs::Counter,
    stems_filtered: pep_obs::Counter,
    hybrid_evaluations: pep_obs::Counter,
    group_size: pep_obs::Histogram,
    supergate_inputs: pep_obs::Histogram,
}

impl RunMetrics {
    fn resolve(obs: &Session) -> Self {
        RunMetrics {
            nodes_evaluated: obs.counter("pep.nodes_evaluated"),
            events_propagated: obs.counter("pep.events_propagated"),
            events_dropped: obs.counter("pep.events_dropped"),
            dropped_mass: obs.float_counter("pep.dropped_mass"),
            supergates: obs.counter("pep.supergates"),
            stems_conditioned: obs.counter("pep.stems_conditioned"),
            stems_filtered: obs.counter("pep.stems_filtered"),
            hybrid_evaluations: obs.counter("pep.hybrid_evaluations"),
            group_size: obs.histogram("pep.group_size"),
            supergate_inputs: obs.histogram("pep.supergate_inputs"),
        }
    }

    /// The counter values this run starts from; [`stats_since`]
    /// subtracts them so a session shared across analyses still yields
    /// exact per-run stats.
    fn baseline(&self) -> AnalysisStats {
        AnalysisStats {
            supergates: self.supergates.get() as usize,
            stems_conditioned: self.stems_conditioned.get() as usize,
            stems_filtered: self.stems_filtered.get() as usize,
            hybrid_evaluations: self.hybrid_evaluations.get() as usize,
            dropped_mass: self.dropped_mass.get(),
        }
    }

    /// The registry delta since `base`, as this run's [`AnalysisStats`].
    fn stats_since(&self, base: &AnalysisStats) -> AnalysisStats {
        AnalysisStats {
            supergates: self.supergates.get() as usize - base.supergates,
            stems_conditioned: self.stems_conditioned.get() as usize - base.stems_conditioned,
            stems_filtered: self.stems_filtered.get() as usize - base.stems_filtered,
            hybrid_evaluations: self.hybrid_evaluations.get() as usize - base.hybrid_evaluations,
            dropped_mass: self.dropped_mass.get() - base.dropped_mass,
        }
    }
}

/// One node's evaluation outcome: produced on whichever thread ran it,
/// committed (group write-back plus metric recording) on the
/// orchestration thread in wave order, so the metrics registry — float
/// accumulation order included — is identical for every thread count.
struct NodeResult {
    group: DiscreteDist,
    /// Mass removed by the `P_m` filter at this node's final group.
    dropped_mass: f64,
    /// Events removed by the `P_m` filter at this node's final group.
    events_dropped: u64,
    /// `(input count, outcome)` when the node was evaluated as a
    /// supergate output.
    supergate: Option<(usize, RegionOutcome)>,
    /// Whether a degenerate sampling-evaluation result was recovered by
    /// plain re-evaluation (surfaced as a warning at commit time).
    recovered: bool,
}

impl NodeResult {
    /// This node's share of the run's [`AnalysisStats`].
    fn stats(&self) -> AnalysisStats {
        let mut s = AnalysisStats {
            dropped_mass: self.dropped_mass,
            ..AnalysisStats::default()
        };
        if let Some((_, outcome)) = &self.supergate {
            s.supergates = 1;
            s.stems_conditioned = outcome.stems_conditioned;
            s.stems_filtered = outcome.stems_filtered;
            s.hybrid_evaluations = outcome.used_hybrid as usize;
        }
        s
    }
}

/// Evaluates one non-input node against already-resolved fanin groups.
///
/// `obs` carries the session only on the orchestration thread (the
/// per-node `supergate-extract`/`sampling-eval` phases live on a single
/// logical stack); worker threads pass `None` and record nothing.
#[allow(clippy::too_many_arguments)]
fn eval_one<E: NodeEval>(
    netlist: &Netlist,
    prep: &Prepared,
    eval: &E,
    config: &AnalysisConfig,
    tracker: &BudgetTracker,
    extractor: &mut SupergateExtractor,
    scratch: &mut EvalScratch,
    groups: &GroupStore,
    node: NodeId,
    cached: Option<&CachedRegion>,
    obs: Option<&Session>,
) -> Result<NodeResult, AnalysisError> {
    if faults::fires(faults::WAVE_WORKER_PANIC) {
        panic!("injected fault: wave worker panic");
    }
    let span = scratch.dist.trace.begin(TraceLevel::Nodes);
    let mut supergate = None;
    let mut g = if prep.supports.is_reconvergent(netlist, node) {
        if faults::fires(faults::SUPERGATE_ALLOC) {
            panic!("injected fault: supergate allocation failure");
        }
        // The incremental engine hands in its per-node cached extraction
        // (topology-only, so delta-invariant); the one-shot path pays for
        // extraction and scaffold here.
        let owned_sg;
        let owned_scaffold;
        let (sg, scaffold): (&Supergate, &RegionScaffold) = match cached {
            Some(c) => (&c.sg, &c.scaffold),
            None => {
                let _phase = obs.map(|o| o.phase("supergate-extract"));
                owned_sg = extractor.extract(node);
                owned_scaffold = RegionScaffold::build(netlist, &owned_sg);
                (&owned_sg, &owned_scaffold)
            }
        };
        let _phase = obs.map(|o| o.phase("sampling-eval"));
        // Interior nodes already carry (supergate-corrected) global
        // groups; only the output itself is re-derived locally.
        let mut region = RegionEval::with_scaffold(
            netlist,
            &prep.arcs,
            eval,
            sg,
            scaffold,
            |n| (n != node).then(|| groups.view(n.index())),
            config.min_event_prob,
        );
        region.set_resolution(config.conditioning_resolution);
        let (g, outcome) = region.evaluate_budgeted(config, tracker, scratch);
        supergate = Some((sg.inputs.len(), outcome));
        g
    } else {
        let fanins = netlist.fanins(node);
        let mut g = DiscreteDist::empty();
        with_refs(
            fanins.len(),
            |pin| groups.view(fanins[pin].index()),
            |refs| eval.eval_node_into(node, refs, &mut g, &mut scratch.dist),
        );
        g
    };
    if supergate.is_some() && faults::fires(faults::DEGENERATE_PDF) {
        g = DiscreteDist::empty();
    }
    // Degenerate-group sanitizer: a sampling-evaluation that collapsed
    // to an empty or non-finite group is recovered by plain independent
    // combining of the fanins (the topological answer) — and reported.
    let mut recovered = false;
    if supergate.is_some() && (g.is_empty() || !g.total_mass().is_finite()) {
        let fanins = netlist.fanins(node);
        let mut plain = DiscreteDist::empty();
        with_refs(
            fanins.len(),
            |pin| groups.view(fanins[pin].index()),
            |refs| eval.eval_node_into(node, refs, &mut plain, &mut scratch.dist),
        );
        if plain.is_empty() || !plain.total_mass().is_finite() {
            return Err(AnalysisError::DegenerateGroup {
                node: netlist.node_name(node).to_owned(),
            });
        }
        g = plain;
        recovered = true;
    }
    let mut dropped_mass = 0.0;
    let mut events_dropped = 0;
    if config.min_event_prob > 0.0 {
        // Track the dropped mass for Fig. 7-style studies, then
        // renormalize so event groups keep their unit-mass invariant
        // (§2.1) instead of decaying multiplicatively with depth.
        let events_before = g.support_len();
        dropped_mass = g.truncate_below(config.min_event_prob);
        events_dropped = (events_before - g.support_len()) as u64;
        g.normalize();
    }
    if span.is_live() {
        let mut args = SpanArgs::new()
            .with("node", node.index() as u64)
            .with("events", g.support_len() as u64);
        let (name, cat) = match &supergate {
            Some((_, outcome)) => {
                args = args
                    .with("stems", outcome.stems_conditioned as u64)
                    .with("combinations", outcome.combinations);
                ("supergate-eval", "supergate")
            }
            None => ("node-eval", "node"),
        };
        scratch.dist.trace.end(span, name, cat, args);
    }
    Ok(NodeResult {
        group: g,
        dropped_mass,
        events_dropped,
        supergate,
        recovered,
    })
}

/// Runs one node's evaluation with its panics caught, as a typed
/// [`AnalysisError::WorkerPanic`] naming the node.
fn caught(
    netlist: &Netlist,
    node: NodeId,
    eval: impl FnOnce() -> Result<NodeResult, AnalysisError>,
) -> Result<NodeResult, AnalysisError> {
    catch_unwind(AssertUnwindSafe(eval)).unwrap_or_else(|p| {
        Err(AnalysisError::WorkerPanic {
            node: netlist.node_name(node).to_owned(),
            detail: panic_detail(p.as_ref()),
        })
    })
}

/// The single commit path, on the orchestration thread in wave order:
/// metrics first (the only order-sensitive accumulation is the
/// `dropped_mass` float sum), then warnings (same deterministic order),
/// the node's retained record, and finally the group itself — appended
/// to the wave's plane on a cold pass, recommitted on a delta pass only
/// when it changed bit for bit (change pruning). With a fail-fast
/// budget, the first degradation aborts the run instead.
#[allow(clippy::too_many_arguments)]
fn commit(
    metrics: &RunMetrics,
    netlist: &Netlist,
    tracker: &BudgetTracker,
    obs: &Session,
    warnings: &mut Vec<Warning>,
    pass: &mut Pass<'_>,
    groups: &mut GroupStore,
    node: NodeId,
    r: NodeResult,
) -> Result<(), PepError> {
    let first = warnings.len();
    if let Some((inputs, outcome)) = &r.supergate {
        metrics.supergate_inputs.record(*inputs as f64);
        metrics.supergates.inc();
        metrics
            .stems_conditioned
            .add(outcome.stems_conditioned as u64);
        metrics.stems_filtered.add(outcome.stems_filtered as u64);
        metrics.hybrid_evaluations.add(outcome.used_hybrid as u64);
        for d in &outcome.degradations {
            // Cancellation fallbacks are exempt from fail-fast: the
            // caller asked the run to wrap up, so the partial result is
            // exactly what they want.
            if tracker.fail_fast() && !d.is_cancellation() {
                return Err(d.budget_error(tracker).into());
            }
            let w = d.warning(netlist.node_name(node));
            obs.warn(w.clone());
            warnings.push(w);
        }
    }
    if r.recovered {
        let w = Warning::new(
            "degenerate.group",
            format!("sg:{}", netlist.node_name(node)),
            "plain_reeval",
            "sampling-evaluation produced a degenerate (empty or non-finite) \
             group; re-evaluated with independent combining",
            "branch correlation at this node is ignored",
        );
        obs.warn(w.clone());
        warnings.push(w);
    }
    metrics.dropped_mass.add(r.dropped_mass);
    metrics.events_dropped.add(r.events_dropped);
    metrics.nodes_evaluated.inc();
    metrics.events_propagated.add(r.group.support_len() as u64);
    metrics.group_size.record(r.group.support_len() as f64);
    if let Some(records) = pass.records.as_deref_mut() {
        let rec = &mut records[node.index()];
        // A memory-ladder warning belongs to its wave, not to the node
        // it is filed under, so re-evaluating the node keeps it.
        let ladder = std::mem::take(&mut rec.warnings)
            .into_iter()
            .filter(|w| w.code == MEMORY_WARNING);
        rec.warnings = warnings[first..].iter().cloned().chain(ladder).collect();
        rec.stats = r.stats();
    }
    match pass.delta.as_mut() {
        None => groups.commit(node.index(), r.group.as_view()),
        Some(prune) => {
            if prune.differs(groups.view(node.index()), node, r.group.as_view()) {
                groups.recommit(node.index(), r.group.as_view());
            }
        }
    }
    Ok(())
}

/// Wave construction: the dependency-count fixpoint over fanin edges
/// (wave index = 1 + deepest fanin's wave; primary inputs and other
/// fanin-free nodes form wave 0). Within a wave, topological order is
/// preserved so the sequential path visits nodes exactly as the
/// original levelized loop did.
pub(crate) fn build_waves(netlist: &Netlist) -> Vec<Vec<NodeId>> {
    let mut waves: Vec<Vec<NodeId>> = Vec::new();
    let mut depth = vec![0u32; netlist.node_count()];
    for &node in netlist.topo_order() {
        let d = netlist
            .fanins(node)
            .iter()
            .map(|f| depth[f.index()] + 1)
            .max()
            .unwrap_or(0);
        depth[node.index()] = d;
        let d = d as usize;
        if waves.len() <= d {
            waves.resize_with(d + 1, Vec::new);
        }
        waves[d].push(node);
    }
    waves
}

/// What a pass reads that depends only on the circuit, the timing model
/// and the config — built once per cold analysis, and kept by the
/// incremental engine for its delta passes.
pub(crate) struct Prepared {
    /// The validated config, its time step pinned (`step_override`) so
    /// a retained analysis keeps its grid across deltas.
    pub(crate) config: AnalysisConfig,
    pub(crate) step: TimeStep,
    pub(crate) arcs: ArcPmfs,
    pub(crate) supports: SupportSets,
    pub(crate) waves: Vec<Vec<NodeId>>,
}

impl Prepared {
    pub(crate) fn new(
        netlist: &Netlist,
        timing: &Timing,
        config: &AnalysisConfig,
        obs: &Session,
    ) -> Self {
        let mut config = config.validated();
        let step = config
            .step_override
            .unwrap_or_else(|| timing.step_for_samples(config.samples));
        config.step_override = Some(step);
        obs.gauge("pep.time_step").set(step.size());
        let arcs = {
            let _phase = obs.phase("arc-pmf-build");
            ArcPmfs::discretize_all(netlist, timing, step)
        };
        let _phase = obs.phase("levelize");
        Prepared {
            config,
            step,
            arcs,
            supports: SupportSets::compute(netlist),
            waves: build_waves(netlist),
        }
    }
}

/// What varies between [`run`] passes; the default is a cold pass over
/// every node.
#[derive(Default)]
pub(crate) struct Pass<'p> {
    /// Nodes to visit, indexed by node (`None` = every node). The store
    /// keeps whatever it already holds for the rest.
    pub(crate) active: Option<&'p [bool]>,
    /// Cached supergate extractions, indexed by node (`None` = extract
    /// while evaluating).
    pub(crate) regions: Option<&'p [Option<CachedRegion>]>,
    /// Per-node stats and warnings to retain, indexed by node.
    pub(crate) records: Option<&'p mut [NodeRecord]>,
    /// `Some` makes this a delta pass: groups are recommitted into the
    /// one plane the caller opened, pruned where the change stopped
    /// being visible, and the memory ladder stays off (its escalation
    /// depends on whole-run history). `None` is a cold pass: a fresh
    /// plane per wave, with the ladder.
    pub(crate) delta: Option<Prune<'p>>,
}

/// What a [`run`] pass reports besides the groups it committed.
pub(crate) struct RunOutcome {
    /// The pass's registry delta.
    pub(crate) stats: AnalysisStats,
    /// Warnings, in commit order.
    pub(crate) warnings: Vec<Warning>,
    /// Nodes visited: evaluated gates plus committed primary inputs.
    pub(crate) evaluated: usize,
}

/// The code the memory ladder files its warnings under.
const MEMORY_WARNING: &str = "budget.memory";

/// The cold static pass behind [`try_analyze`] and the incremental
/// engine's cold build: prepare, then evaluate every node into fresh
/// per-wave planes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cold_pass(
    netlist: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    pi_group: &dyn Fn(NodeId) -> DiscreteDist,
    records: Option<&mut [NodeRecord]>,
    scratches: &mut Vec<EvalScratch>,
    obs: &Session,
    cancel: &CancelToken,
) -> Result<(Prepared, GroupStore, RunOutcome), PepError> {
    let prep = Prepared::new(netlist, timing, config, obs);
    let eval = StaticEval {
        arcs: &prep.arcs,
        mode: prep.config.mode,
    };
    let mut groups = GroupStore::new(netlist.node_count());
    let pass = Pass {
        records,
        ..Pass::default()
    };
    let out = run(
        netlist,
        &prep,
        &eval,
        pi_group,
        pass,
        &mut groups,
        scratches,
        obs,
        cancel,
    )?;
    Ok((prep, groups, out))
}

/// The wave driver — the one scheduler behind cold analysis, the
/// dynamic (transition) mode, and the incremental engine's cold build
/// and delta replays, which differ only in their [`Pass`]. Plain cell
/// evaluation on independent fanins, supergate sampling-evaluation on
/// reconvergent gates.
///
/// Nodes are scheduled in dependency-counted waves: a node joins the
/// wave right after its deepest fanin's, so when a wave runs every
/// fanin — and every interior node of any supergate rooted in the wave,
/// all of which are strict predecessors — is already resolved. Within a
/// wave the evaluations are independent and fan out across
/// `config.threads` scoped workers; results are committed back on the
/// orchestration thread in wave order, which makes the output groups
/// *and* the metrics registry bit-identical for every thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<E: NodeEval>(
    netlist: &Netlist,
    prep: &Prepared,
    eval: &E,
    pi_group: &dyn Fn(NodeId) -> DiscreteDist,
    mut pass: Pass<'_>,
    groups: &mut GroupStore,
    scratches: &mut Vec<EvalScratch>,
    obs: &Session,
    cancel: &CancelToken,
) -> Result<RunOutcome, PepError> {
    let cold = pass.delta.is_none();
    // A delta pass runs inside its caller's `incremental-propagate`.
    let _propagate = cold.then(|| obs.phase("propagate"));
    let config = &prep.config;
    let metrics = RunMetrics::resolve(obs);
    let base = metrics.baseline();
    let threads = config.effective_threads();
    let tracker = BudgetTracker::with_cancel(config.budget.as_ref(), cancel.clone());
    let mut warnings: Vec<Warning> = Vec::new();
    // The memory ladder escalates `P_m` mid-run, so the working config
    // is mutable; with no budget it never changes.
    let mut cfg = config.clone();
    let mut mem_escalations = 0u32;
    /// Give up tightening `P_m` after this many ×10 escalations — the
    /// remaining mass is structural, not tail events.
    const MAX_MEM_ESCALATIONS: u32 = 3;
    obs.gauge("pep.threads").set(threads as f64);
    let waves_counter = obs.counter("pep.waves");
    let wave_width = obs.histogram("pep.wave_width");
    let wave_seconds_hist = obs.log_histogram("pep.wave.seconds");
    let wave_width_hist = obs.log_histogram("pep.wave.width");
    // Tracing: lane 0 is this orchestration thread (wave spans; phase
    // spans from the session land there too), lanes 1..N are workers,
    // wired through their scratch arenas below. With tracing off every
    // buffer is inert and a span site costs one byte compare.
    let trace = obs.trace();
    let mut orch = trace.buffer(0);

    // One extractor per worker: extraction needs scratch buffers
    // (`&mut self`) but leaves no state behind, so pooled extractors
    // produce the same supergates as a single shared one.
    let mut extractors: Vec<SupergateExtractor> = (0..threads)
        .map(|_| SupergateExtractor::new(netlist, &prep.supports, config.supergate_depth))
        .collect();
    // One evaluation scratch (kernel arena + conditioning state) per
    // worker, reused across every node that worker evaluates — and, for
    // a caller that keeps them, across passes.
    if scratches.len() < threads {
        scratches.resize_with(threads, EvalScratch::new);
    }
    let scratches = &mut scratches[..threads];
    for (i, s) in scratches.iter_mut().enumerate() {
        // A single-threaded run shares lane 0 so node spans nest under
        // their wave spans; parallel workers get lanes of their own.
        let lane = if threads <= 1 { 0 } else { i as u32 + 1 };
        s.dist.trace = trace.buffer(lane);
    }
    let checkouts_start: u64 = scratches.iter().map(|s| s.dist.checkouts()).sum();
    // Workers evaluate supergates with the intra-region fan-out
    // (sensitivity ranking) pinned to one thread: the wave is already
    // saturating the cores, and the region result does not depend on its
    // internal thread count.
    let mut worker_cfg = AnalysisConfig {
        threads: 1,
        ..cfg.clone()
    };
    let regions = pass.regions;
    let cached = |node: NodeId| regions.and_then(|r| r[node.index()].as_ref());

    let mut evaluated = 0;
    let mut work: Vec<NodeId> = Vec::new();
    for (wi, wave) in prep.waves.iter().enumerate() {
        if faults::fires(faults::DEADLINE) {
            tracker.force_expire();
        }
        // Abort-strength cancellation stops the run at the wave
        // boundary with partial state discarded; degrade-strength keeps
        // evaluating (cheap topological fallbacks, see `stop_reason`)
        // so the caller still gets a complete, if coarse, analysis.
        if tracker.cancel_state() == CancelState::Abort {
            return Err(Cancelled {
                phase: if cold { "propagate" } else { "incremental" },
                elapsed_ms: tracker.elapsed_ms(),
            }
            .into());
        }
        work.clear();
        if cold {
            groups.begin_wave();
        }
        for &node in wave {
            if pass.active.is_some_and(|a| !a[node.index()]) {
                continue;
            }
            if netlist.kind(node) == GateKind::Input {
                let g = pi_group(node);
                if cold {
                    groups.commit(node.index(), g.as_view());
                } else {
                    groups.recommit(node.index(), g.as_view());
                }
                if let Some(records) = pass.records.as_deref_mut() {
                    records[node.index()] = NodeRecord::default();
                }
                evaluated += 1;
            } else if pass.delta.as_ref().is_none_or(|p| p.must_eval(node)) {
                work.push(node);
            }
        }
        evaluated += work.len();
        waves_counter.inc();
        wave_width.record(work.len() as f64);
        if work.is_empty() {
            continue;
        }
        let wave_started = Instant::now();
        let wave_span = orch.begin(TraceLevel::Phases);
        let checkouts_before: u64 = if wave_span.is_live() {
            scratches.iter().map(|s| s.dist.checkouts()).sum()
        } else {
            0
        };
        if threads <= 1 || work.len() == 1 {
            // Inline path: keeps per-node phases, and a lone wide
            // supergate still gets the intra-region fan-out via the full
            // config.
            for &node in &work {
                let extractor = &mut extractors[0];
                let scratch = &mut scratches[0];
                let r = caught(netlist, node, || {
                    eval_one(
                        netlist,
                        prep,
                        eval,
                        &cfg,
                        &tracker,
                        extractor,
                        scratch,
                        groups,
                        node,
                        cached(node),
                        Some(obs),
                    )
                })
                .map_err(PepError::Analysis)?;
                commit(
                    &metrics,
                    netlist,
                    &tracker,
                    obs,
                    &mut warnings,
                    &mut pass,
                    groups,
                    node,
                    r,
                )?;
            }
        } else {
            let workers = threads.min(work.len());
            let mut results: Vec<Option<NodeResult>> = Vec::with_capacity(work.len());
            results.resize_with(work.len(), || None);
            // The first failure by wave index wins — deterministic for
            // any thread count (each node's evaluation, and thus its
            // panic, is deterministic; each worker reports its first).
            let mut first_err: Option<(usize, AnalysisError)> = None;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                // Strided assignment (worker t takes items t, t+workers,
                // ...) balances clustered supergates across workers;
                // results are keyed by wave index, so the assignment has
                // no effect on the committed order.
                for (t, (extractor, scratch)) in extractors
                    .iter_mut()
                    .zip(scratches.iter_mut())
                    .take(workers)
                    .enumerate()
                {
                    let work = &work;
                    let groups = &*groups;
                    let worker_cfg = &worker_cfg;
                    let tracker = &tracker;
                    let cached = &cached;
                    handles.push(scope.spawn(move || {
                        let mut out: Vec<(usize, Result<NodeResult, AnalysisError>)> = Vec::new();
                        let mut i = t;
                        while i < work.len() {
                            let r = caught(netlist, work[i], || {
                                eval_one(
                                    netlist,
                                    prep,
                                    eval,
                                    worker_cfg,
                                    tracker,
                                    &mut *extractor,
                                    &mut *scratch,
                                    groups,
                                    work[i],
                                    cached(work[i]),
                                    None,
                                )
                            });
                            let failed = r.is_err();
                            out.push((i, r));
                            if failed {
                                // The scratch may be mid-mutation after a
                                // caught panic; stop this worker — the run
                                // is aborting anyway.
                                break;
                            }
                            i += workers;
                        }
                        out
                    }));
                }
                for h in handles {
                    for (i, r) in h.join().expect("wave worker panicked") {
                        match r {
                            Ok(r) => results[i] = Some(r),
                            Err(e) => {
                                if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                                    first_err = Some((i, e));
                                }
                            }
                        }
                    }
                }
            });
            if let Some((_, e)) = first_err {
                return Err(PepError::Analysis(e));
            }
            for (i, &node) in work.iter().enumerate() {
                let r = results[i].take().expect("every wave item evaluated");
                commit(
                    &metrics,
                    netlist,
                    &tracker,
                    obs,
                    &mut warnings,
                    &mut pass,
                    groups,
                    node,
                    r,
                )?;
            }
        }
        wave_width_hist.record(work.len() as f64);
        wave_seconds_hist.record(wave_started.elapsed().as_secs_f64());
        if wave_span.is_live() {
            let checkouts: u64 = scratches.iter().map(|s| s.dist.checkouts()).sum();
            orch.end(
                wave_span,
                "wave",
                "wave",
                SpanArgs::new()
                    .with("wave", wi as u64)
                    .with("width", work.len() as u64)
                    .with("checkouts", checkouts - checkouts_before),
            );
        }
        // Memory ladder: when resident event mass exceeds the budget,
        // tighten the paper's `P_m` drop threshold (×10) and
        // re-truncate every committed group. Group sizes are
        // bit-identical across thread counts, so this trips — and
        // degrades — identically for any thread layout.
        if let Some(byte_cap) = tracker.max_event_bytes().filter(|_| cold) {
            if mem_escalations < MAX_MEM_ESCALATIONS {
                let bytes = groups.live_bytes();
                if bytes > byte_cap {
                    if tracker.fail_fast() {
                        return Err(BudgetExceeded {
                            resource: "max_event_bytes",
                            limit: byte_cap as u64,
                            observed: bytes as u64,
                        }
                        .into());
                    }
                    let old = cfg.min_event_prob;
                    let new = if old > 0.0 { old * 10.0 } else { 1e-6 };
                    cfg.min_event_prob = new;
                    worker_cfg.min_event_prob = new;
                    groups.truncate_below_all(new);
                    let after = groups.live_bytes();
                    mem_escalations += 1;
                    let w = Warning::new(
                        MEMORY_WARNING,
                        format!("wave:{wi}"),
                        "min_event_prob",
                        format!(
                            "event mass {bytes} B exceeded cap {byte_cap} B; \
                             P_m {old:e} -> {new:e} (now {after} B)"
                        ),
                        "events below the tightened threshold are dropped; \
                         groups renormalized",
                    );
                    obs.warn(w.clone());
                    // Filed under the wave's last committed node, a
                    // retained analysis replays it in commit order.
                    if let (Some(records), Some(last)) = (pass.records.as_deref_mut(), work.last())
                    {
                        records[last.index()].warnings.push(w.clone());
                    }
                    warnings.push(w);
                }
            }
        }
    }
    // Arena accounting: `pep.alloc.checkouts` is the number of
    // scratch-distribution checkouts this pass made (summed over
    // workers — each node's kernel sequence is deterministic, so the sum
    // does not depend on the thread count for the pinned worker configs
    // the driver uses). `pep.alloc.slab_high_water` is the deepest any
    // single worker's arena got; like `pep.threads` it reflects the
    // thread layout.
    //
    // Before reading the arenas, flush every lane's buffered spans and
    // per-kernel aggregates into the trace collector, then fold the
    // kernel aggregates into the session's `pep.kernel.<name>.seconds`
    // histograms so a plain metrics scrape sees kernel attribution
    // without a trace export.
    if trace.is_enabled() {
        orch.flush();
        for s in scratches.iter_mut() {
            s.dist.trace.flush();
        }
        let aggs = trace.kernel_aggregates();
        for kind in pep_obs::KernelKind::ALL {
            let agg = &aggs[kind as usize];
            if agg.calls == 0 {
                continue;
            }
            let snap = agg.to_seconds_snapshot();
            obs.log_histogram(&format!("pep.kernel.{}.seconds", kind.name()))
                .merge_buckets(&snap.buckets, snap.sum, snap.count);
        }
    }
    let checkouts: u64 = scratches.iter().map(|s| s.dist.checkouts()).sum();
    let high_water = scratches
        .iter()
        .map(|s| s.dist.slab_high_water())
        .max()
        .unwrap_or(0);
    obs.counter("pep.alloc.checkouts")
        .add(checkouts - checkouts_start);
    obs.gauge("pep.alloc.slab_high_water")
        .set(high_water as f64);
    // Columnar-store accounting: live vs occupied separates resident
    // event mass from the dead slots descriptor-narrowing truncation
    // leaves behind; high-water is the largest single wave plane.
    obs.gauge("pep.slab.occupied_slots")
        .set(groups.occupied() as f64);
    obs.gauge("pep.slab.live_slots").set(groups.live() as f64);
    obs.gauge("pep.slab.wave_high_water")
        .set(groups.high_water() as f64);
    Ok(RunOutcome {
        stats: metrics.stats_since(&base),
        warnings,
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CombineMode;
    use pep_celllib::DelayModel;
    use pep_netlist::{generate, samples, GateKind};

    #[test]
    fn unit_delay_tree_is_levelized() {
        let nl = generate::comb_tree(GateKind::And, 8);
        let t = Timing::uniform(&nl, 1.0);
        let a = analyze(
            &nl,
            &t,
            &AnalysisConfig::exact_with_step(TimeStep::new(1.0).expect("valid")),
        );
        for id in nl.node_ids() {
            assert_eq!(a.group(id), &DiscreteDist::point(nl.level(id) as i64));
        }
        assert_eq!(a.stats().supergates, 0);
    }

    #[test]
    fn deterministic_repeatability() {
        // The paper's headline property: same inputs, same outputs.
        let nl = samples::fig6();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(9));
        let a = analyze(&nl, &t, &AnalysisConfig::default());
        let b = analyze(&nl, &t, &AnalysisConfig::default());
        for id in nl.node_ids() {
            assert_eq!(a.group(id), b.group(id));
        }
    }

    #[test]
    fn reconvergent_gates_use_supergates() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let a = analyze(&nl, &t, &AnalysisConfig::default());
        assert!(a.stats().supergates >= 2, "c17 reconverges at 22 and 23");
        assert!(a.stats().stems_conditioned > 0);
    }

    #[test]
    fn zero_conditioning_resolution_is_clamped() {
        // Regression: `Some(0)` used to reach `coarsened(0)` inside
        // `RegionEval::propagate_affected` and panic; the config boundary
        // now clamps it to the coarsest valid resolution.
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let zero = analyze(
            &nl,
            &t,
            &AnalysisConfig {
                conditioning_resolution: Some(0),
                ..AnalysisConfig::default()
            },
        );
        let one = analyze(
            &nl,
            &t,
            &AnalysisConfig {
                conditioning_resolution: Some(1),
                ..AnalysisConfig::default()
            },
        );
        assert!(zero.stats().supergates > 0, "the panic path was exercised");
        for id in nl.node_ids() {
            assert_eq!(zero.group(id), one.group(id));
        }
    }

    #[test]
    fn dropped_mass_accounted() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let none = analyze(
            &nl,
            &t,
            &AnalysisConfig {
                min_event_prob: 0.0,
                ..AnalysisConfig::default()
            },
        );
        assert_eq!(none.stats().dropped_mass, 0.0);
        let strict = analyze(
            &nl,
            &t,
            &AnalysisConfig {
                min_event_prob: 1e-2,
                ..AnalysisConfig::default()
            },
        );
        assert!(strict.stats().dropped_mass > 0.0);
        // Groups stay unit-mass: dropping renormalizes (DESIGN.md §4).
        let po = nl.primary_outputs()[0];
        assert!((strict.group(po).total_mass() - 1.0).abs() < 1e-9);
        assert!(strict.mean_time(po) > 0.0);
        // And the aggressive filter visibly coarsens the distribution.
        assert!(strict.group(po).support_len() < none.group(po).support_len());
    }

    #[test]
    fn earliest_mode_lower_than_latest() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let late = analyze(&nl, &t, &AnalysisConfig::default());
        let early = analyze(
            &nl,
            &t,
            &AnalysisConfig {
                mode: CombineMode::Earliest,
                ..AnalysisConfig::default()
            },
        );
        for &po in nl.primary_outputs() {
            assert!(early.mean_time(po) <= late.mean_time(po) + 1e-9);
        }
    }

    #[test]
    fn custom_input_arrivals() {
        let nl = samples::c17();
        let t = Timing::uniform(&nl, 1.0);
        let cfg = AnalysisConfig::exact_with_step(TimeStep::new(1.0).expect("valid"));
        let base = analyze(&nl, &t, &cfg);
        // Delay every input by 5 ticks: all arrivals shift by 5.
        let shifted = analyze_with_inputs(&nl, &t, &cfg, |_| DiscreteDist::point(5));
        for &po in nl.primary_outputs() {
            assert_eq!(
                shifted.group(po),
                &base.group(po).shifted(5),
                "uniform input delay shifts outputs"
            );
        }
    }

    #[test]
    fn circuit_delay_covers_outputs() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let a = analyze(&nl, &t, &AnalysisConfig::default());
        let cd = a.circuit_delay(&nl);
        for &po in nl.primary_outputs() {
            assert!(
                cd.mean_ticks() + 1e-9 >= a.group(po).mean_ticks(),
                "circuit delay dominates every output"
            );
        }
    }

    #[test]
    fn quantiles_exposed() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let a = analyze(&nl, &t, &AnalysisConfig::default());
        let po = nl.primary_outputs()[0];
        let q50 = a.quantile_time(po, 0.5).expect("non-empty");
        let q99 = a.quantile_time(po, 0.99).expect("non-empty");
        assert!(q99 >= q50);
    }
}
