//! The incremental what-if engine: retained analysis state plus
//! dirty-cone re-evaluation.
//!
//! A cold analysis pays for every node. A what-if query — "what if this
//! gate were rebound to a faster cell?" — changes one timing arc, and
//! only the *fanout cone* of the changed node can see different arrival
//! groups: supergate interiors and conditioning stems of any clean node
//! are strict predecessors of that node, so a node outside the cone has
//! every input to its evaluation (fanin groups, region-interior groups,
//! stem groups, its own arcs) unchanged. [`IncrementalAnalyzer`]
//! exploits this by keeping the cold run's committed groups in the
//! columnar [`GroupStore`](crate::group_store::GroupStore) slab,
//! re-running the wave schedule restricted to the dirty cone, and
//! replaying every clean node's group zero-copy from the retained base
//! plane.
//!
//! Determinism contract: the groups after [`apply_delta`]
//! (and the stats and ordered warnings of [`analysis`]) are
//! bit-identical to a cold [`analyze`](crate::analyze) of the mutated
//! netlist at the same pinned time step, for every thread count. The
//! pieces that make this hold:
//!
//! - the cold build and every delta replay run `analyze`'s own wave
//!   driver ([`run`]) — a delta pass is the same wave schedule over the
//!   dirty subset — and commits happen in wave order on the
//!   orchestration thread;
//! - the discretization step is pinned at construction
//!   (`step_override`), so a delta cannot shift the grid;
//! - hybrid Monte Carlo seeds are derived per node
//!   (`seed ^ node index`), not from a shared stream;
//! - per-supergate budget degradation (`max_stems_per_supergate`) is a
//!   pure function of the node and its inputs.
//!
//! Cumulative budgets (`deadline_ms`, `max_combinations`, the
//! `max_event_bytes` memory ladder) depend on *global* run history, so
//! a delta run neither replays the ladder nor pretends to: configs that
//! rely on them get best-effort incremental answers, and the ladder is
//! simply not applied mid-delta. The base groups already reflect any
//! escalation, because the cold build is the one-shot cold pass, ladder
//! included; each `budget.memory` warning is kept on the record of the
//! last node its wave committed and survives that node's
//! re-evaluation.

use crate::analyzer::{cold_pass, run, AnalysisStats, Pass, PepAnalysis, Prepared};
use crate::cell_eval::combine_latest;
use crate::group_store::GroupStore;
use crate::node_eval::StaticEval;
use crate::region::{CachedRegion, EvalScratch, RegionScaffold};
use crate::AnalysisConfig;
use pep_celllib::Timing;
use pep_dist::hash::{fold_hashes, group_hash};
use pep_dist::{ContinuousDist, DiscreteDist, DistView, SlabDesc, TimeStep};
use pep_netlist::cone::{fanout_cone, SupportSets};
use pep_netlist::supergate::SupergateExtractor;
use pep_netlist::{GateKind, Netlist, NodeId};
use pep_obs::{Session, Warning};
use pep_sta::{AnalysisError, CancelToken, PepError};
use std::time::Instant;

/// Compact the delta planes once this many have stacked up without a
/// revert (each [`IncrementalAnalyzer::apply_delta`] opens one).
const MAX_DELTA_PLANES: usize = 64;

/// Don't bother compacting until at least this much recommit-superseded
/// plane memory is reclaimable.
const COMPACT_MIN_DEAD_BYTES: usize = 64 * 1024;

/// One what-if change to the timing model.
///
/// Deltas compose: applying several without a revert analyzes their
/// cumulative effect (each one re-evaluates only its own fanout cone,
/// since earlier deltas are already committed).
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Re-bind a gate to a different cell: replace its cell-delay
    /// distribution outright (every pin shares it, as in
    /// [`Timing::annotate`]).
    RebindCell {
        /// The gate whose cell delay changes.
        gate: NodeId,
        /// The new cell-delay distribution.
        delay: ContinuousDist,
    },
    /// Scale a gate's cell delay by a positive factor — the gate-sizing
    /// transform (mean and σ scale together; upsizing a gate to speed it
    /// up is a factor below 1).
    ScaleCell {
        /// The gate whose cell delay is scaled.
        gate: NodeId,
        /// The (finite, positive) scale factor.
        factor: f64,
    },
    /// Replace a primary input's arrival-time event group (default: a
    /// point mass at tick 0).
    PiArrival {
        /// The primary input.
        input: NodeId,
        /// The new arrival group (finite positive mass).
        arrival: DiscreteDist,
    },
}

impl Delta {
    /// A short human-readable label (`rebind` / `scale` / `arrival`).
    pub fn kind(&self) -> &'static str {
        match self {
            Delta::RebindCell { .. } => "rebind",
            Delta::ScaleCell { .. } => "scale",
            Delta::PiArrival { .. } => "arrival",
        }
    }
}

/// What one [`IncrementalAnalyzer::apply_delta`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Nodes actually re-evaluated this run: the delta's fanout cone,
    /// dynamically pruned where the change stopped being visible (a
    /// recomputed group bit-identical to the committed one stops
    /// propagation into its downstream).
    pub dirty_nodes: usize,
    /// Nodes replayed zero-copy from their cached committed groups.
    pub replayed_nodes: usize,
}

/// Per-node slice of the run counters, retained so a delta run can
/// rebuild exact whole-run [`AnalysisStats`] and ordered warnings
/// without touching clean nodes. The retained form is its own portable
/// export.
pub(crate) type NodeRecord = NodeRecordExport;

/// Portable per-node slice of a retained base: the node's share of the
/// whole-run [`AnalysisStats`] and its ordered warnings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeRecordExport {
    /// The node's contribution to the run stats.
    pub stats: AnalysisStats,
    /// The node's warnings, in emission order.
    pub warnings: Vec<Warning>,
}

/// An [`IncrementalAnalyzer`]'s retained base in a portable form: what
/// the serve layer persists on eviction and rehydrates on a cache miss
/// after a restart (see
/// [`export_base`](IncrementalAnalyzer::export_base) /
/// [`from_retained_base`](IncrementalAnalyzer::from_retained_base)).
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedBase {
    /// Per-node committed base groups (`None` = never committed).
    pub groups: Vec<Option<DiscreteDist>>,
    /// Per-node records, indexed like `groups`.
    pub records: Vec<NodeRecordExport>,
}

fn invalid(detail: String) -> PepError {
    PepError::Analysis(AnalysisError::InvalidDelta { detail })
}

/// A retained statistical-timing analysis that answers what-if queries
/// by re-evaluating only the dirty cone of each change.
///
/// # Example
///
/// ```
/// use pep_celllib::{DelayModel, Timing};
/// use pep_core::{analyze, AnalysisConfig, Delta, IncrementalAnalyzer};
/// use pep_netlist::samples;
///
/// let nl = samples::fig6();
/// let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
/// let mut incr = IncrementalAnalyzer::new(&nl, &timing, &AnalysisConfig::default())
///     .expect("no fail-fast budget configured");
/// let g = nl.node_id("s3").expect("fig6 gate");
/// let report = incr
///     .apply_delta(&Delta::ScaleCell { gate: g, factor: 0.5 })
///     .expect("valid delta");
/// assert!(report.dirty_nodes >= 1);
/// // Bit-identical to a cold analysis of the mutated timing:
/// let mut fast = timing.clone();
/// fast.scale_cell(g, 0.5).expect("positive factor");
/// let cold = analyze(&nl, &fast, &incr.config().clone());
/// for id in nl.node_ids() {
///     assert_eq!(incr.group(id).to_bits(), cold.group(id).to_bits());
/// }
/// incr.revert(); // O(dirty) descriptor restore
/// ```
pub struct IncrementalAnalyzer {
    netlist: Netlist,
    base_timing: Timing,
    timing: Timing,
    /// The pinned config, the arcs (re-discretized per delta), the
    /// support sets and the wave schedule.
    prep: Prepared,
    store: GroupStore,
    base_wave_of: Vec<u32>,
    base_descs: Vec<SlabDesc>,
    records: Vec<NodeRecord>,
    base_records: Vec<NodeRecord>,
    /// Per-node evaluation read set: every node whose committed group
    /// the evaluation of this node consults — direct fanins for plain
    /// gates, the whole supergate region (frontier inputs + interior)
    /// for reconvergent ones. Topology-only, so stable across deltas.
    read_sets: Vec<Vec<NodeId>>,
    /// Per-node cached supergate extraction and evaluation scaffold for
    /// reconvergent nodes (`None` elsewhere). Topology-only, so a delta
    /// run skips re-extraction entirely.
    regions: Vec<Option<CachedRegion>>,
    /// Scratch dirty mask for the current delta run.
    active: Vec<bool>,
    /// Scratch changed mask for the current delta run: cone nodes whose
    /// recomputed group actually differs bit-for-bit (plus the delta
    /// root, whose arc or arrival changed by definition).
    changed: Vec<bool>,
    /// Nodes whose committed group may differ from the base snapshot.
    dirty_since_base: Vec<bool>,
    dirty_list: Vec<NodeId>,
    /// Gates whose `timing` entry differs from `base_timing`.
    touched_gates: Vec<NodeId>,
    pi_overrides: Vec<Option<DiscreteDist>>,
    touched_pis: Vec<NodeId>,
    /// Worker evaluation scratches, retained across queries so the
    /// kernel arenas stay warm.
    scratches: Vec<EvalScratch>,
    /// [`group_hash`] of every base group, filled by the first
    /// [`groups_digest`](Self::groups_digest) (empty until then).
    base_hashes: Vec<u64>,
    deltas_applied: u64,
}

impl IncrementalAnalyzer {
    /// Runs the cold analysis and retains its state for what-if queries.
    ///
    /// The discretization step is derived from `timing` once and pinned
    /// (as `step_override`), so later deltas stay on the same grid.
    ///
    /// # Errors
    ///
    /// Whatever the cold [`try_analyze`](crate::try_analyze) would
    /// return — fail-fast budget trips, worker panics, degenerate
    /// groups.
    pub fn new(
        netlist: &Netlist,
        timing: &Timing,
        config: &AnalysisConfig,
    ) -> Result<Self, PepError> {
        Self::new_observed(netlist, timing, config, &Session::disabled())
    }

    /// [`new`](Self::new), recording phases and metrics into `obs`.
    pub fn new_observed(
        netlist: &Netlist,
        timing: &Timing,
        config: &AnalysisConfig,
        obs: &Session,
    ) -> Result<Self, PepError> {
        let mut records = vec![NodeRecord::default(); netlist.node_count()];
        let mut scratches = Vec::new();
        let (prep, mut store, _) = cold_pass(
            netlist,
            timing,
            config,
            &|_| DiscreteDist::point(0),
            Some(&mut records),
            &mut scratches,
            obs,
            &CancelToken::new(),
        )?;
        store.retain_for_incremental();
        Ok(Self::assemble(
            netlist, timing, prep, store, records, scratches, obs,
        ))
    }

    /// The one constructor body: snapshots the base and builds the
    /// region index around already-committed groups and records.
    fn assemble(
        netlist: &Netlist,
        timing: &Timing,
        prep: Prepared,
        store: GroupStore,
        records: Vec<NodeRecord>,
        scratches: Vec<EvalScratch>,
        obs: &Session,
    ) -> Self {
        let n = netlist.node_count();
        let (base_wave_of, base_descs) = store.snapshot();
        let (read_sets, regions) = {
            let _phase = obs.phase("region-index");
            build_region_index(netlist, &prep.supports, &prep.config)
        };
        IncrementalAnalyzer {
            netlist: netlist.clone(),
            base_timing: timing.clone(),
            timing: timing.clone(),
            prep,
            store,
            base_wave_of,
            base_descs,
            base_records: records.clone(),
            records,
            read_sets,
            regions,
            active: vec![false; n],
            changed: vec![false; n],
            dirty_since_base: vec![false; n],
            dirty_list: Vec::new(),
            touched_gates: Vec::new(),
            pi_overrides: vec![None; n],
            touched_pis: Vec::new(),
            scratches,
            base_hashes: Vec::new(),
            deltas_applied: 0,
        }
    }

    /// Exports the retained base — per-node committed groups and
    /// stats/warning records — in a portable form the serve layer can
    /// persist and later feed to
    /// [`from_retained_base`](Self::from_retained_base).
    ///
    /// Reads the *base* snapshot, so the export is well-defined even
    /// while deltas are stacked on top (base planes are append-only).
    pub fn export_base(&self) -> RetainedBase {
        RetainedBase {
            groups: self.store.export_with(&self.base_wave_of, &self.base_descs),
            records: self.base_records.clone(),
        }
    }

    /// Rebuilds a retained analyzer from an exported base without
    /// re-running the cold analysis: topology-only structures (arc
    /// PMFs, support sets, waves, the region index) are recomputed
    /// from `netlist`/`timing`, while committed groups and per-node
    /// records come from `base`. Given the same netlist, timing, and
    /// config that produced the export (including the pinned
    /// `step_override`), the rebuilt analyzer is bit-identical to the
    /// exporter: same groups, same [`analysis`](Self::analysis), same
    /// delta answers at every thread count.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidDelta`] when the export's shape does not
    /// match the netlist's node count — the snapshot belongs to a
    /// different circuit.
    pub fn from_retained_base(
        netlist: &Netlist,
        timing: &Timing,
        config: &AnalysisConfig,
        base: &RetainedBase,
    ) -> Result<Self, PepError> {
        let n = netlist.node_count();
        if base.groups.len() != n || base.records.len() != n {
            return Err(invalid(format!(
                "retained-base shape mismatch: {} groups / {} records for a {} node netlist",
                base.groups.len(),
                base.records.len(),
                n
            )));
        }
        let obs = Session::disabled();
        Ok(Self::assemble(
            netlist,
            timing,
            Prepared::new(netlist, timing, config, &obs),
            GroupStore::import_base(&base.groups),
            base.records.clone(),
            Vec::new(),
            &obs,
        ))
    }

    /// Applies one what-if delta: mutates the timing model, marks the
    /// delta root's fanout cone dirty, and re-runs the wave schedule
    /// restricted to dirty nodes (clean nodes replay their cached
    /// groups zero-copy).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidDelta`] for an unknown node, the wrong
    /// node kind, or out-of-domain parameters — the model is untouched.
    /// Run-time failures (fail-fast budget trips, worker panics)
    /// propagate after an automatic [`revert`](Self::revert).
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaReport, PepError> {
        self.apply_delta_cancellable(delta, &Session::disabled(), &CancelToken::new())
    }

    /// [`apply_delta`](Self::apply_delta), recording metrics into `obs`.
    pub fn apply_delta_observed(
        &mut self,
        delta: &Delta,
        obs: &Session,
    ) -> Result<DeltaReport, PepError> {
        self.apply_delta_cancellable(delta, obs, &CancelToken::new())
    }

    /// [`apply_delta`](Self::apply_delta) honoring a cooperative
    /// [`CancelToken`]. An abort-strength cancellation returns
    /// [`PepError::Cancelled`] and reverts to the base state.
    pub fn apply_delta_cancellable(
        &mut self,
        delta: &Delta,
        obs: &Session,
        cancel: &CancelToken,
    ) -> Result<DeltaReport, PepError> {
        let root = self.apply_to_model(delta)?;
        match self.run_dirty(root, obs, cancel) {
            Ok(report) => {
                self.deltas_applied += 1;
                Ok(report)
            }
            Err(e) => {
                // A half-finished delta run leaves committed groups from
                // both worlds; drop back to the base rather than serve a
                // frankenstate.
                self.revert();
                Err(e)
            }
        }
    }

    /// Undoes every applied delta in O(changed state): restores the
    /// timing entries and arc PMFs of touched gates, drops PI arrival
    /// overrides, restores the base group snapshot (delta planes are
    /// recycled, not freed), and resets the per-node records of dirty
    /// nodes.
    pub fn revert(&mut self) {
        for g in std::mem::take(&mut self.touched_gates) {
            if let Some(d) = self.base_timing.cell_delay(g) {
                let d = *d;
                self.timing.set_cell_delay(g, d);
            }
            self.prep
                .arcs
                .rediscretize_gate(&self.netlist, &self.base_timing, g);
        }
        for p in std::mem::take(&mut self.touched_pis) {
            self.pi_overrides[p.index()] = None;
        }
        self.store.restore(&self.base_wave_of, &self.base_descs, 1);
        for v in self.dirty_list.drain(..) {
            self.records[v.index()] = self.base_records[v.index()].clone();
            self.dirty_since_base[v.index()] = false;
        }
    }

    fn apply_to_model(&mut self, delta: &Delta) -> Result<NodeId, PepError> {
        match delta {
            Delta::RebindCell { gate, delay } => {
                let g = *gate;
                self.check_gate(g)?;
                self.timing.set_cell_delay(g, *delay);
                self.prep
                    .arcs
                    .rediscretize_gate(&self.netlist, &self.timing, g);
                self.note_touched_gate(g);
                Ok(g)
            }
            Delta::ScaleCell { gate, factor } => {
                let g = *gate;
                self.check_gate(g)?;
                self.timing
                    .scale_cell(g, *factor)
                    .map_err(|e| invalid(format!("scale factor {factor} rejected: {e}")))?;
                self.prep
                    .arcs
                    .rediscretize_gate(&self.netlist, &self.timing, g);
                self.note_touched_gate(g);
                Ok(g)
            }
            Delta::PiArrival { input, arrival } => {
                let p = *input;
                self.check_node(p)?;
                if self.netlist.kind(p) != GateKind::Input {
                    return Err(invalid(format!(
                        "`{}` is not a primary input",
                        self.netlist.node_name(p)
                    )));
                }
                let mass = arrival.total_mass();
                if arrival.is_empty() || !mass.is_finite() || mass <= 0.0 {
                    return Err(invalid(
                        "arrival group must carry finite positive mass".to_owned(),
                    ));
                }
                if self.pi_overrides[p.index()].is_none() {
                    self.touched_pis.push(p);
                }
                self.pi_overrides[p.index()] = Some(arrival.clone());
                Ok(p)
            }
        }
    }

    fn check_node(&self, n: NodeId) -> Result<(), PepError> {
        if n.index() >= self.netlist.node_count() {
            return Err(invalid(format!(
                "node index {} out of range for `{}`",
                n.index(),
                self.netlist.name()
            )));
        }
        Ok(())
    }

    fn check_gate(&self, g: NodeId) -> Result<(), PepError> {
        self.check_node(g)?;
        if self.netlist.kind(g) == GateKind::Input {
            return Err(invalid(format!(
                "`{}` is a primary input and carries no cell arc; use Delta::PiArrival",
                self.netlist.node_name(g)
            )));
        }
        Ok(())
    }

    fn note_touched_gate(&mut self, g: NodeId) {
        if !self.touched_gates.contains(&g) {
            self.touched_gates.push(g);
        }
    }

    fn run_dirty(
        &mut self,
        root: NodeId,
        obs: &Session,
        cancel: &CancelToken,
    ) -> Result<DeltaReport, PepError> {
        let _phase = obs.phase("incremental-propagate");
        let started = Instant::now();
        // Only the *new* delta's cone needs re-evaluation: earlier
        // deltas are already committed, so their effects are part of
        // the retained groups this run reads.
        let cone = fanout_cone(&self.netlist, root);
        self.active.fill(false);
        for &v in &cone {
            self.active[v.index()] = true;
            if !self.dirty_since_base[v.index()] {
                self.dirty_since_base[v.index()] = true;
                self.dirty_list.push(v);
            }
        }
        // The static cone bounds what *may* re-evaluate; the prune
        // state shrinks it dynamically — once a recomputed group comes
        // out bit-identical to the committed one, its downstream is no
        // longer visited (a cold run would recompute the cached values
        // verbatim).
        self.changed.fill(false);
        self.changed[root.index()] = true;
        let prune = Prune {
            read_sets: &self.read_sets,
            changed: &mut self.changed,
            root,
        };
        // One delta plane for the whole run; recommits land there in
        // wave order. Views handed to workers point into strictly
        // earlier commits, so appends never invalidate a live view.
        self.store.begin_wave();
        let pi_overrides = &self.pi_overrides;
        let pi = |node: NodeId| {
            pi_overrides[node.index()]
                .clone()
                .unwrap_or_else(|| DiscreteDist::point(0))
        };
        let eval = StaticEval {
            arcs: &self.prep.arcs,
            mode: self.prep.config.mode,
        };
        let pass = Pass {
            active: Some(&self.active),
            regions: Some(&self.regions),
            records: Some(&mut self.records),
            delta: Some(prune),
        };
        let out = run(
            &self.netlist,
            &self.prep,
            &eval,
            &pi,
            pass,
            &mut self.store,
            &mut self.scratches,
            obs,
            cancel,
        )?;
        let dirty_nodes = out.evaluated;
        let replayed_nodes = self.netlist.node_count() - dirty_nodes;
        obs.counter("pep.incr.deltas").inc();
        obs.counter("pep.incr.dirty_nodes").add(dirty_nodes as u64);
        obs.counter("pep.incr.replayed_nodes")
            .add(replayed_nodes as u64);
        obs.log_histogram("pep.incr.seconds")
            .record(started.elapsed().as_secs_f64());
        // Bound the slab footprint when deltas stack up: squeeze
        // superseded slots out of the delta planes (the base plane is
        // never compacted — its snapshot must stay valid for revert).
        if self.store.plane_count() > MAX_DELTA_PLANES
            || (self.store.dead_bytes() > COMPACT_MIN_DEAD_BYTES
                && self.store.dead_bytes() * 2 > self.store.live_bytes())
        {
            self.store.compact_deltas(1);
        }
        obs.gauge("pep.incr.planes")
            .set(self.store.plane_count() as f64);
        obs.gauge("pep.incr.resident_bytes")
            .set(self.store.resident_bytes() as f64);
        Ok(DeltaReport {
            dirty_nodes,
            replayed_nodes,
        })
    }

    /// Materializes the current state as a [`PepAnalysis`] —
    /// bit-identical (groups, stats, ordered warnings) to a cold
    /// analysis of the mutated timing at the pinned step.
    pub fn analysis(&self) -> PepAnalysis {
        let groups = (0..self.netlist.node_count())
            .map(|i| self.store.view(i).to_dist())
            .collect();
        let (stats, warnings) = self.stats_and_warnings();
        PepAnalysis::from_parts(self.prep.step, groups, stats, warnings)
    }

    /// The whole-run stats and ordered warnings of the current state —
    /// what [`analysis`](Self::analysis) reports, without copying any
    /// group.
    pub fn stats_and_warnings(&self) -> (AnalysisStats, Vec<Warning>) {
        let mut stats = AnalysisStats::default();
        let mut warnings = Vec::new();
        // Wave order is commit order, so the float accumulation below
        // replays the cold run's `dropped_mass` sum term for term.
        for wave in &self.prep.waves {
            for &node in wave {
                let rec = &self.records[node.index()];
                stats.supergates += rec.stats.supergates;
                stats.stems_conditioned += rec.stats.stems_conditioned;
                stats.stems_filtered += rec.stats.stems_filtered;
                stats.hybrid_evaluations += rec.stats.hybrid_evaluations;
                stats.dropped_mass += rec.stats.dropped_mass;
                warnings.extend(rec.warnings.iter().cloned());
            }
        }
        (stats, warnings)
    }

    /// [`PepAnalysis::groups_digest`] of the current state, equal to
    /// `self.analysis().groups_digest()` by construction: both fold the
    /// same per-node [`group_hash`]es in node order. The base groups'
    /// hashes are computed once, on the first call; after that a call
    /// rehashes only the nodes dirtied since the base and allocates
    /// nothing.
    pub fn groups_digest(&mut self) -> u64 {
        let n = self.netlist.node_count();
        if self.base_hashes.len() != n {
            let (store, wave_of, descs) = (&self.store, &self.base_wave_of, &self.base_descs);
            self.base_hashes = (0..n)
                .map(|i| group_hash(store.view_with(wave_of, descs, i)))
                .collect();
        }
        fold_hashes((0..n).map(|i| {
            if self.dirty_since_base[i] {
                group_hash(self.store.view(i))
            } else {
                self.base_hashes[i]
            }
        }))
    }

    /// The committed arrival-time event group at a node (owned copy of
    /// the cached columnar view).
    pub fn group(&self, node: NodeId) -> DiscreteDist {
        self.store.view(node.index()).to_dist()
    }

    /// The circuit-delay distribution under the current deltas — the
    /// max-combine of all primary-output groups (see
    /// [`PepAnalysis::circuit_delay`] for the independence caveat).
    pub fn circuit_delay(&self) -> DiscreteDist {
        let pos: Vec<DiscreteDist> = self
            .netlist
            .primary_outputs()
            .iter()
            .map(|&po| self.group(po))
            .collect();
        combine_latest(pos.iter())
    }

    /// The probability that the circuit meets a deadline of
    /// `deadline_ticks` — the timing yield the sizing loop drives.
    pub fn yield_at(&self, deadline_ticks: i64) -> f64 {
        self.circuit_delay().cdf_at(deadline_ticks)
    }

    /// The analyzed netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The timing model with every applied delta folded in.
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// The validated configuration, with the step pinned.
    pub fn config(&self) -> &AnalysisConfig {
        &self.prep.config
    }

    /// The pinned discretization step.
    pub fn step(&self) -> TimeStep {
        self.prep.step
    }

    /// Nodes whose committed group may differ from the base snapshot
    /// (the cumulative dirty set across applied deltas).
    pub fn dirty_count(&self) -> usize {
        self.dirty_list.len()
    }

    /// Deltas applied since construction (reverts do not reset this).
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Approximate resident heap footprint: the columnar group planes
    /// plus the base snapshot and per-node records — the accounting a
    /// byte-budgeted state cache evicts on. Excludes the netlist and
    /// timing model, which the caller typically also caches.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
            + self
                .regions
                .iter()
                .flatten()
                .map(CachedRegion::resident_bytes)
                .sum::<usize>()
            + self.regions.capacity() * std::mem::size_of::<Option<CachedRegion>>()
            + self
                .read_sets
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
            + self.base_descs.capacity() * std::mem::size_of::<SlabDesc>()
            + self.base_wave_of.capacity() * 4
            + (self.records.capacity() + self.base_records.capacity())
                * std::mem::size_of::<NodeRecord>()
            + self.pi_overrides.capacity() * std::mem::size_of::<Option<DiscreteDist>>()
            + self.base_hashes.capacity() * 8
    }
}

/// Per-node read sets for change pruning: the nodes whose committed
/// groups `eval_one` consults when evaluating each node. Reconvergent
/// nodes read their whole supergate region (frontier inputs, and the
/// interior both for its groups and for its cell arcs, which the
/// conditioning re-simulates); plain nodes read their direct fanins.
/// Extraction depends only on topology and `supergate_depth`, so the
/// sets — and the cached extractions themselves — are computed once and
/// reused for every delta.
fn build_region_index(
    netlist: &Netlist,
    supports: &SupportSets,
    config: &AnalysisConfig,
) -> (Vec<Vec<NodeId>>, Vec<Option<CachedRegion>>) {
    let mut extractor = SupergateExtractor::new(netlist, supports, config.supergate_depth);
    let n = netlist.node_count();
    let mut read_sets = Vec::with_capacity(n);
    let mut regions = Vec::with_capacity(n);
    for node in netlist.node_ids() {
        if netlist.kind(node) == GateKind::Input {
            read_sets.push(Vec::new());
            regions.push(None);
        } else if supports.is_reconvergent(netlist, node) {
            let sg = extractor.extract(node);
            let mut deps: Vec<NodeId> = sg
                .inputs
                .iter()
                .chain(sg.interior.iter())
                .copied()
                .filter(|&d| d != node)
                .collect();
            deps.sort_unstable_by_key(|d| d.index());
            deps.dedup();
            read_sets.push(deps);
            let scaffold = RegionScaffold::build(netlist, &sg);
            regions.push(Some(CachedRegion { sg, scaffold }));
        } else {
            read_sets.push(netlist.fanins(node).to_vec());
            regions.push(None);
        }
    }
    (read_sets, regions)
}

/// Bitwise group equality — the only comparison compatible with the
/// engine's bit-identity contract (an epsilon here would let unequal
/// states masquerade as converged and diverge from a cold run).
fn views_bits_equal(a: DistView<'_>, b: DistView<'_>) -> bool {
    if a.is_empty() || b.is_empty() {
        return a.is_empty() && b.is_empty();
    }
    a.origin() == b.origin()
        && a.probs().len() == b.probs().len()
        && a.probs()
            .iter()
            .zip(b.probs())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Change-propagation state for one delta run: a cone node is
/// re-evaluated only while the change is still *visible* to it — i.e.
/// some node in its read set committed a different group this run. Once
/// a recomputed group comes out bit-identical (a dominating side input
/// masked the shifted arc), its whole downstream stops re-evaluating
/// and the cached state stands, which is exactly what a cold run would
/// have recomputed.
pub(crate) struct Prune<'a> {
    read_sets: &'a [Vec<NodeId>],
    changed: &'a mut [bool],
    /// The delta root: always re-evaluated (its arc or arrival changed,
    /// which no group comparison can see).
    root: NodeId,
}

impl Prune<'_> {
    pub(crate) fn must_eval(&self, node: NodeId) -> bool {
        node == self.root
            || self.read_sets[node.index()]
                .iter()
                .any(|&d| self.changed[d.index()])
    }

    /// Whether `node`'s recomputed group differs bit for bit from the
    /// committed one, marking the node changed if so. An unchanged group
    /// needs no new slot and (unless this is the delta root, pre-marked
    /// changed for its arc) stops the change from propagating further
    /// downstream.
    pub(crate) fn differs(
        &mut self,
        committed: DistView<'_>,
        node: NodeId,
        group: DistView<'_>,
    ) -> bool {
        if views_bits_equal(committed, group) {
            return false;
        }
        self.changed[node.index()] = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use pep_celllib::DelayModel;
    use pep_netlist::samples;

    fn setup() -> (Netlist, Timing) {
        let nl = samples::fig6();
        let timing = Timing::annotate(&nl, &DelayModel::dac2001(7));
        (nl, timing)
    }

    #[test]
    fn cold_build_matches_one_shot_analyze() {
        let (nl, timing) = setup();
        let config = AnalysisConfig::default();
        let incr = IncrementalAnalyzer::new(&nl, &timing, &config).expect("no fail-fast budget");
        let cold = analyze(&nl, &timing, &config);
        for id in nl.node_ids() {
            assert_eq!(
                incr.group(id).to_bits(),
                cold.group(id).to_bits(),
                "node {}",
                nl.node_name(id)
            );
        }
        let a = incr.analysis();
        assert_eq!(a.stats(), cold.stats());
        assert_eq!(a.warnings().len(), cold.warnings().len());
    }

    #[test]
    fn scale_delta_matches_cold_and_reverts() {
        let (nl, timing) = setup();
        let config = AnalysisConfig::default();
        let mut incr =
            IncrementalAnalyzer::new(&nl, &timing, &config).expect("no fail-fast budget");
        let base: Vec<(i64, u64)> = nl
            .node_ids()
            .flat_map(|id| incr.group(id).to_bits())
            .collect();
        let g = nl.node_id("s3").expect("fig6 gate");
        let report = incr
            .apply_delta(&Delta::ScaleCell {
                gate: g,
                factor: 0.5,
            })
            .expect("valid delta");
        assert!(report.dirty_nodes >= 1);
        assert_eq!(report.dirty_nodes + report.replayed_nodes, nl.node_count());
        let mut fast = timing.clone();
        fast.scale_cell(g, 0.5).expect("positive factor");
        let cold = analyze(&nl, &fast, incr.config());
        for id in nl.node_ids() {
            assert_eq!(
                incr.group(id).to_bits(),
                cold.group(id).to_bits(),
                "node {}",
                nl.node_name(id)
            );
        }
        incr.revert();
        let back: Vec<(i64, u64)> = nl
            .node_ids()
            .flat_map(|id| incr.group(id).to_bits())
            .collect();
        assert_eq!(base, back, "revert must restore the base bit-for-bit");
        assert_eq!(incr.dirty_count(), 0);
    }

    #[test]
    fn pi_arrival_delta_shifts_outputs() {
        let (nl, timing) = setup();
        let mut incr = IncrementalAnalyzer::new(&nl, &timing, &AnalysisConfig::default())
            .expect("no fail-fast budget");
        let before = incr.circuit_delay().mean_ticks();
        let pi = nl.primary_inputs()[0];
        incr.apply_delta(&Delta::PiArrival {
            input: pi,
            arrival: DiscreteDist::point(50),
        })
        .expect("valid delta");
        let after = incr.circuit_delay().mean_ticks();
        assert!(
            after > before,
            "late arrival must push the circuit delay out ({before} -> {after})"
        );
        // Cold cross-check with the same pinned step.
        let cold = crate::analyze_with_inputs(&nl, &timing, incr.config(), |n| {
            if n == pi {
                DiscreteDist::point(50)
            } else {
                DiscreteDist::point(0)
            }
        });
        for id in nl.node_ids() {
            assert_eq!(incr.group(id).to_bits(), cold.group(id).to_bits());
        }
    }

    #[test]
    fn invalid_deltas_are_rejected_without_mutation() {
        let (nl, timing) = setup();
        let mut incr = IncrementalAnalyzer::new(&nl, &timing, &AnalysisConfig::default())
            .expect("no fail-fast budget");
        let pi = nl.primary_inputs()[0];
        let err = incr
            .apply_delta(&Delta::ScaleCell {
                gate: pi,
                factor: 0.5,
            })
            .expect_err("scaling a primary input is invalid");
        assert!(matches!(
            err,
            PepError::Analysis(AnalysisError::InvalidDelta { .. })
        ));
        let g = nl.node_id("s3").expect("fig6 gate");
        let err = incr
            .apply_delta(&Delta::ScaleCell {
                gate: g,
                factor: -1.0,
            })
            .expect_err("negative factor is invalid");
        assert!(matches!(
            err,
            PepError::Analysis(AnalysisError::InvalidDelta { .. })
        ));
        let err = incr
            .apply_delta(&Delta::PiArrival {
                input: g,
                arrival: DiscreteDist::point(3),
            })
            .expect_err("arrival on a gate is invalid");
        assert!(matches!(
            err,
            PepError::Analysis(AnalysisError::InvalidDelta { .. })
        ));
        assert_eq!(incr.dirty_count(), 0, "rejected deltas leave no dirt");
    }

    #[test]
    fn stacked_deltas_compose_and_planes_stay_bounded() {
        let (nl, timing) = setup();
        let mut incr = IncrementalAnalyzer::new(&nl, &timing, &AnalysisConfig::default())
            .expect("no fail-fast budget");
        let g1 = nl.node_id("s3").expect("fig6 gate");
        let g3 = nl.node_id("m2").expect("fig6 gate");
        for _ in 0..(MAX_DELTA_PLANES + 8) {
            incr.apply_delta(&Delta::ScaleCell {
                gate: g1,
                factor: 0.99,
            })
            .expect("valid delta");
            incr.apply_delta(&Delta::ScaleCell {
                gate: g3,
                factor: 1.01,
            })
            .expect("valid delta");
        }
        // Cumulative effect equals a cold run of the composed timing.
        let mut t = timing.clone();
        for _ in 0..(MAX_DELTA_PLANES + 8) {
            t.scale_cell(g1, 0.99).expect("positive");
            t.scale_cell(g3, 1.01).expect("positive");
        }
        let cold = analyze(&nl, &t, incr.config());
        for id in nl.node_ids() {
            assert_eq!(incr.group(id).to_bits(), cold.group(id).to_bits());
        }
        incr.revert();
        let cold_base = analyze(&nl, &timing, incr.config());
        for id in nl.node_ids() {
            assert_eq!(incr.group(id).to_bits(), cold_base.group(id).to_bits());
        }
    }
}
