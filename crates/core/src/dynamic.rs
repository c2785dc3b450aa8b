//! Dynamic (two-vector) probabilistic event propagation.
//!
//! The paper's algorithm "can be applied for vectorless static analysis
//! as well as for dynamic simulation with given input vectors" (§1). This
//! module is the dynamic mode: given a vector pair `v1 → v2`, every
//! switching node receives a full transition-time *distribution*, with
//! min/max selection per gate following the controlling-value rules of
//! §2.3 (a falling AND output is decided by the earliest falling input —
//! Fig. 5) and reconvergent fanout handled by the same supergate
//! sampling-evaluation as the static mode.

use crate::analyzer::{run, AnalysisStats, Pass, Prepared};
use crate::group_store::GroupStore;
use crate::node_eval::DynamicEval;
use crate::AnalysisConfig;
use pep_celllib::Timing;
use pep_dist::{DiscreteDist, TimeStep};
use pep_netlist::{Netlist, NodeId};
use pep_obs::{Session, Warning};
use pep_sta::transition::{simulate_transition, TransitionSim};
use pep_sta::{CancelToken, PepError};

/// Result of a dynamic probabilistic analysis.
#[derive(Debug, Clone)]
pub struct DynamicAnalysis {
    step: TimeStep,
    groups: Vec<DiscreteDist>,
    sim: TransitionSim,
    stats: AnalysisStats,
    warnings: Vec<Warning>,
}

impl DynamicAnalysis {
    /// The sampling step all groups live on.
    pub fn step(&self) -> TimeStep {
        self.step
    }

    /// Whether the node switches between the two vectors.
    pub fn transitions(&self, node: NodeId) -> bool {
        self.sim.transitions(node)
    }

    /// Whether the node's transition (if any) is rising.
    pub fn is_rising(&self, node: NodeId) -> bool {
        self.sim.is_rising(node)
    }

    /// The transition-time event group at a node (empty when the node
    /// does not switch).
    pub fn group(&self, node: NodeId) -> &DiscreteDist {
        &self.groups[node.index()]
    }

    /// Mean transition time in physical units, if the node switches.
    pub fn mean_time(&self, node: NodeId) -> Option<f64> {
        let g = &self.groups[node.index()];
        if g.is_empty() {
            None
        } else {
            Some(g.mean_time(self.step))
        }
    }

    /// Transition-time standard deviation, if the node switches.
    pub fn std_time(&self, node: NodeId) -> Option<f64> {
        let g = &self.groups[node.index()];
        if g.is_empty() {
            None
        } else {
            Some(g.std_time(self.step))
        }
    }

    /// The zero-variance transition pattern (which nodes switch, and
    /// which way).
    pub fn pattern(&self) -> &TransitionSim {
        &self.sim
    }

    /// Run counters.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// Structured warnings recorded during the run (budget
    /// degradations, degenerate-group recoveries), in deterministic
    /// wave order.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }
}

/// Analyzes the transition caused by applying `v1`, letting the circuit
/// settle, then applying `v2`.
///
/// # Panics
///
/// Panics if the vectors' lengths differ from the primary input count.
///
/// # Example
///
/// ```
/// use pep_celllib::{DelayModel, Timing};
/// use pep_core::{dynamic, AnalysisConfig};
/// use pep_netlist::samples;
///
/// let nl = samples::mux2();
/// let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
/// // Inputs ordered a, b, s: flip the select with a=1, b=0.
/// let d = dynamic::analyze_transition(
///     &nl,
///     &timing,
///     &[true, false, false],
///     &[true, false, true],
///     &AnalysisConfig::default(),
/// );
/// let y = nl.node_id("y").expect("present");
/// assert!(d.transitions(y));
/// assert!(d.is_rising(y));
/// assert!(d.mean_time(y).expect("switches") > 0.0);
/// ```
pub fn analyze_transition(
    netlist: &Netlist,
    timing: &Timing,
    v1: &[bool],
    v2: &[bool],
    config: &AnalysisConfig,
) -> DynamicAnalysis {
    // invariant: without a fail-fast budget or injected fault the
    // engine degrades instead of erroring; any Err here is a real bug.
    try_analyze_transition_cancellable(
        netlist,
        timing,
        v1,
        v2,
        config,
        &Session::disabled(),
        &CancelToken::new(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`analyze_transition`], returning a typed [`PepError`] instead of
/// panicking on engine failures (worker panics are caught; `fail_fast`
/// budgets surface as [`PepError::Budget`]) and recording phases and
/// metrics into `obs`.
///
/// # Panics
///
/// Panics if the vectors' lengths differ from the primary input count
/// (a caller contract, not a runtime failure).
pub fn try_analyze_transition_observed(
    netlist: &Netlist,
    timing: &Timing,
    v1: &[bool],
    v2: &[bool],
    config: &AnalysisConfig,
    obs: &Session,
) -> Result<DynamicAnalysis, PepError> {
    try_analyze_transition_cancellable(netlist, timing, v1, v2, config, obs, &CancelToken::new())
}

/// [`try_analyze_transition_observed`] honoring a cooperative
/// [`CancelToken`] (see
/// [`try_analyze_cancellable`](crate::try_analyze_cancellable) for the
/// degrade / abort semantics).
///
/// # Panics
///
/// Panics if the vectors' lengths differ from the primary input count.
#[allow(clippy::too_many_arguments)]
pub fn try_analyze_transition_cancellable(
    netlist: &Netlist,
    timing: &Timing,
    v1: &[bool],
    v2: &[bool],
    config: &AnalysisConfig,
    obs: &Session,
    cancel: &CancelToken,
) -> Result<DynamicAnalysis, PepError> {
    let prep = Prepared::new(netlist, timing, config, obs);
    // The transition pattern (who switches, which way) is delay-free;
    // nominal delays are only used to satisfy the simulator's interface.
    let sim = {
        let _phase = obs.phase("transition-sim");
        simulate_transition(netlist, v1, v2, |g, p| timing.arc_mean(g, p))
    };
    let eval = DynamicEval {
        netlist,
        arcs: &prep.arcs,
        sim: &sim,
    };
    // Only switching nodes carry events; the rest keep an empty group.
    let active: Vec<bool> = netlist.node_ids().map(|n| sim.transitions(n)).collect();
    let mut groups = GroupStore::new(netlist.node_count());
    let pass = Pass {
        active: Some(&active),
        ..Pass::default()
    };
    let out = run(
        netlist,
        &prep,
        &eval,
        &|_| DiscreteDist::point(0),
        pass,
        &mut groups,
        &mut Vec::new(),
        obs,
        cancel,
    )?;
    Ok(DynamicAnalysis {
        step: prep.step,
        groups: groups.into_groups(),
        sim,
        stats: out.stats,
        warnings: out.warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pep_celllib::DelayModel;
    use pep_dist::stats::Running;
    use pep_netlist::{samples, GateKind, NetlistBuilder};
    use pep_sta::monte_carlo::McConfig;
    use pep_sta::transition::monte_carlo_transition;
    use rand::SeedableRng;

    #[test]
    fn non_switching_nodes_have_empty_groups() {
        let nl = samples::mux2();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let d = analyze_transition(
            &nl,
            &t,
            &[true, false, false],
            &[true, false, true],
            &AnalysisConfig::default(),
        );
        let b = nl.node_id("b").expect("input b");
        assert!(!d.transitions(b));
        assert!(d.group(b).is_empty());
        assert_eq!(d.mean_time(b), None);
    }

    #[test]
    fn matches_dynamic_monte_carlo() {
        let nl = samples::mux2();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(6));
        let v1 = [true, false, false];
        let v2 = [true, false, true];
        let pep = analyze_transition(&nl, &t, &v1, &v2, &AnalysisConfig::default());
        let mc = monte_carlo_transition(
            &nl,
            &t,
            &v1,
            &v2,
            &McConfig {
                runs: 4_000,
                ..McConfig::default()
            },
        );
        let y = nl.node_id("y").expect("present");
        let pm = pep.mean_time(y).expect("switches");
        let mm = mc.mean(y).expect("switches");
        assert!(
            (pm - mm).abs() / mm < 0.05,
            "dynamic PEP mean {pm} vs MC {mm}"
        );
        let ps = pep.std_time(y).expect("switches");
        let ms = mc.std(y).expect("switches");
        assert!((ps - ms).abs() / ms < 0.25, "dynamic PEP σ {ps} vs MC {ms}");
    }

    #[test]
    fn falling_and_earliest_semantics_statistical() {
        // Statistical version of the paper's Fig. 5: both AND inputs
        // fall through different-depth paths; the output's mean must sit
        // below the slower path's mean (min-combining pulls it early).
        let mut b = NetlistBuilder::new("fall");
        b.input("a").unwrap();
        b.input("c").unwrap();
        b.gate("slow1", GateKind::Buf, &["c"]).unwrap();
        b.gate("slow2", GateKind::Buf, &["slow1"]).unwrap();
        b.gate("y", GateKind::And, &["a", "slow2"]).unwrap();
        b.output("y").unwrap();
        let nl = b.build().unwrap();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(2));
        let d = analyze_transition(
            &nl,
            &t,
            &[true, true],
            &[false, false],
            &AnalysisConfig::default(),
        );
        let y = nl.node_id("y").unwrap();
        let slow2 = nl.node_id("slow2").unwrap();
        let y_mean = d.mean_time(y).expect("switches");
        let slow_in = d.mean_time(slow2).expect("switches");
        // min(a-path, slow-path) + y's delay; a-path is much faster, so y's
        // mean tracks a's arrival, well before slow2 + delay.
        assert!(y_mean < slow_in + 2.0 * 4.0, "earliest input dominates");
        assert!(!d.is_rising(y));
    }

    #[test]
    fn deterministic_repeatability() {
        let nl = samples::mux2();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(3));
        let v1 = [false, true, false];
        let v2 = [false, true, true];
        let a = analyze_transition(&nl, &t, &v1, &v2, &AnalysisConfig::default());
        let b = analyze_transition(&nl, &t, &v1, &v2, &AnalysisConfig::default());
        for id in nl.node_ids() {
            assert_eq!(a.group(id), b.group(id));
        }
    }

    #[test]
    fn group_mass_is_full_when_not_dropping() {
        let nl = samples::mux2();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(3));
        let d = analyze_transition(
            &nl,
            &t,
            &[true, false, false],
            &[true, false, true],
            &AnalysisConfig {
                min_event_prob: 0.0,
                ..AnalysisConfig::default()
            },
        );
        let y = nl.node_id("y").unwrap();
        assert!((d.group(y).total_mass() - 1.0).abs() < 1e-9);
        // Helper: a Running over samples drawn from the group should give
        // ~ the analytical mean (sanity-check the group is well-formed).
        let step = d.step();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut r = Running::new();
        for _ in 0..2_000 {
            let s = d.group(y).sample(&mut rng).expect("non-empty");
            r.push(step.time_of(s));
        }
        let analytical = d.mean_time(y).expect("switches");
        assert!((r.mean() - analytical).abs() / analytical < 0.05);
    }
}
