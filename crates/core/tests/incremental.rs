//! Determinism contract of the incremental what-if engine: for random
//! netlists and random delta sequences, the incremental groups are
//! bit-identical (`to_bits`) to a cold analysis of the mutated timing
//! model — at thread counts 1, 2 and 4, and including deltas that trip
//! the per-supergate stem-budget degradation ladder (same ordered
//! warnings). The cached groups digest agrees with the materialized and
//! the cold one along delta chains, past plane compaction, after
//! `revert` and across a retained-base round trip.

use pep_celllib::{DelayModel, Timing};
use pep_core::{
    analyze, analyze_with_inputs, AnalysisConfig, Budget, Delta, IncrementalAnalyzer, PepAnalysis,
};
use pep_dist::{ContinuousDist, DiscreteDist};
use pep_netlist::generate::{random_circuit, RandomCircuitSpec};
use pep_netlist::{GateKind, Netlist, NodeId};
use proptest::prelude::*;

fn small_spec() -> impl Strategy<Value = RandomCircuitSpec> {
    (2usize..5, 4usize..=16, 2usize..6, 0.0f64..0.5, any::<u64>()).prop_map(
        |(inputs, gates, depth, inv, seed)| RandomCircuitSpec {
            name: "whatif".into(),
            inputs,
            gates,
            depth: depth.min(gates),
            max_fanin: 3,
            level_reach: 2,
            window: 1.0,
            inverter_fraction: inv,
            seed,
        },
    )
}

/// One randomized delta, described by draws that get mapped onto the
/// circuit's actual gates/inputs (so every generated delta is valid).
#[derive(Debug, Clone)]
enum DeltaDraw {
    Scale {
        pick: usize,
        factor: f64,
    },
    Rebind {
        pick: usize,
        mean: f64,
        sigma_frac: f64,
    },
    Arrival {
        pick: usize,
        ticks: i64,
    },
}

fn delta_draw() -> impl Strategy<Value = DeltaDraw> {
    // The vendored proptest has no alternation combinator; draw every
    // parameter and let `kind` select which ones a case uses.
    (
        0usize..3,
        0usize..4096,
        0.4f64..2.5,
        5.0f64..40.0,
        0.02f64..0.2,
        1i64..40,
    )
        .prop_map(|(kind, pick, factor, mean, sigma_frac, ticks)| match kind {
            0 => DeltaDraw::Scale { pick, factor },
            1 => DeltaDraw::Rebind {
                pick,
                mean,
                sigma_frac,
            },
            _ => DeltaDraw::Arrival { pick, ticks },
        })
}

/// Maps a draw onto the netlist and mirrors its effect into the
/// cold-reference model (`timing` clone + per-PI arrival overrides).
fn realize(
    nl: &Netlist,
    gates: &[NodeId],
    pis: &[NodeId],
    draw: &DeltaDraw,
    cold_timing: &mut Timing,
    cold_arrivals: &mut [Option<DiscreteDist>],
) -> Delta {
    match draw {
        DeltaDraw::Scale { pick, factor } => {
            let gate = gates[pick % gates.len()];
            cold_timing
                .scale_cell(gate, *factor)
                .expect("factor is in (0.4, 2.5)");
            Delta::ScaleCell {
                gate,
                factor: *factor,
            }
        }
        DeltaDraw::Rebind {
            pick,
            mean,
            sigma_frac,
        } => {
            let gate = gates[pick % gates.len()];
            let delay = ContinuousDist::normal(*mean, *mean * *sigma_frac)
                .expect("mean and sigma are finite and positive");
            cold_timing.set_cell_delay(gate, delay);
            Delta::RebindCell { gate, delay }
        }
        DeltaDraw::Arrival { pick, ticks } => {
            let input = pis[pick % pis.len()];
            let arrival = DiscreteDist::point(*ticks);
            cold_arrivals[input.index()] = Some(arrival.clone());
            let _ = nl;
            Delta::PiArrival { input, arrival }
        }
    }
}

fn cold_reference(
    nl: &Netlist,
    timing: &Timing,
    config: &AnalysisConfig,
    arrivals: &[Option<DiscreteDist>],
) -> PepAnalysis {
    analyze_with_inputs(nl, timing, config, |pi| {
        arrivals[pi.index()]
            .clone()
            .unwrap_or_else(|| DiscreteDist::point(0))
    })
}

fn assert_bit_identical(nl: &Netlist, incr: &IncrementalAnalyzer, cold: &PepAnalysis, tag: &str) {
    for id in nl.node_ids() {
        assert_eq!(
            incr.group(id).to_bits(),
            cold.group(id).to_bits(),
            "{tag}: node {} differs",
            nl.node_name(id)
        );
    }
    let a = incr.analysis();
    assert_eq!(a.stats(), cold.stats(), "{tag}: stats differ");
    assert_eq!(a.warnings(), cold.warnings(), "{tag}: warnings differ");
}

fn run_case(
    nl: &Netlist,
    timing: &Timing,
    base_config: &AnalysisConfig,
    draws: &[DeltaDraw],
) -> Result<(), TestCaseError> {
    let gates: Vec<NodeId> = nl
        .node_ids()
        .filter(|&n| nl.kind(n) != GateKind::Input)
        .collect();
    let pis: Vec<NodeId> = nl.primary_inputs().to_vec();
    prop_assume!(!gates.is_empty() && !pis.is_empty());
    for threads in [1usize, 2, 4] {
        let config = AnalysisConfig {
            threads,
            ..base_config.clone()
        };
        let mut incr =
            IncrementalAnalyzer::new(nl, timing, &config).expect("budgets here are not fail-fast");
        let base_bits: Vec<(i64, u64)> = nl
            .node_ids()
            .flat_map(|id| incr.group(id).to_bits())
            .collect();
        // The pinned config (step_override set) is what cold runs must
        // share so both sides discretize on the same grid.
        let pinned = incr.config().clone();
        let mut cold_timing = timing.clone();
        let mut cold_arrivals: Vec<Option<DiscreteDist>> = vec![None; nl.node_count()];
        for (di, draw) in draws.iter().enumerate() {
            let delta = realize(nl, &gates, &pis, draw, &mut cold_timing, &mut cold_arrivals);
            let report = incr.apply_delta(&delta).expect("realized deltas are valid");
            prop_assert_eq!(
                report.dirty_nodes + report.replayed_nodes,
                nl.node_count(),
                "cone partition must cover the netlist"
            );
            let cold = cold_reference(nl, &cold_timing, &pinned, &cold_arrivals);
            assert_bit_identical(nl, &incr, &cold, &format!("threads={threads} delta={di}"));
        }
        incr.revert();
        let back: Vec<(i64, u64)> = nl
            .node_ids()
            .flat_map(|id| incr.group(id).to_bits())
            .collect();
        prop_assert_eq!(
            &base_bits,
            &back,
            "threads={}: revert must restore the base bit-for-bit",
            threads
        );
    }
    Ok(())
}

/// Deltas in a chain long enough to overflow the 64 delta planes the
/// engine keeps before it compacts them.
const LONG_CHAIN: usize = 70;

/// `draws` cycled to `len` deltas; every other cycle inverts the scale
/// factors, so a long chain keeps its delays in range.
fn chain(draws: &[DeltaDraw], len: usize) -> Vec<DeltaDraw> {
    (0..len)
        .map(|i| match &draws[i % draws.len()] {
            DeltaDraw::Scale { pick, factor } if (i / draws.len()) % 2 == 1 => DeltaDraw::Scale {
                pick: *pick,
                factor: 1.0 / factor,
            },
            d => d.clone(),
        })
        .collect()
}

/// `IncrementalAnalyzer::groups_digest` against the materialized and the
/// cold digest at every step of `draws`, in lockstep with an analyzer
/// rebuilt from the exported base (whose cache is first primed after a
/// delta, not before), then after `revert` and one delta more.
fn run_digest_case(
    nl: &Netlist,
    timing: &Timing,
    draws: &[DeltaDraw],
) -> Result<(), TestCaseError> {
    let gates: Vec<NodeId> = nl
        .node_ids()
        .filter(|&n| nl.kind(n) != GateKind::Input)
        .collect();
    let pis: Vec<NodeId> = nl.primary_inputs().to_vec();
    prop_assume!(!gates.is_empty() && !pis.is_empty());
    for threads in [1usize, 2, 4] {
        let config = AnalysisConfig {
            threads,
            ..AnalysisConfig::default()
        };
        let mut incr = IncrementalAnalyzer::new(nl, timing, &config).expect("no fail-fast budget");
        let pinned = incr.config().clone();
        let mut rebuilt =
            IncrementalAnalyzer::from_retained_base(nl, timing, &pinned, &incr.export_base())
                .expect("export matches its own netlist");
        let base_digest = analyze(nl, timing, &pinned).groups_digest();
        prop_assert_eq!(
            incr.groups_digest(),
            base_digest,
            "threads={} base",
            threads
        );
        let mut cold_timing = timing.clone();
        let mut cold_arrivals: Vec<Option<DiscreteDist>> = vec![None; nl.node_count()];
        for (di, draw) in draws.iter().enumerate() {
            let delta = realize(nl, &gates, &pis, draw, &mut cold_timing, &mut cold_arrivals);
            incr.apply_delta(&delta).expect("realized deltas are valid");
            rebuilt
                .apply_delta(&delta)
                .expect("realized deltas are valid");
            let digest = incr.groups_digest();
            let cold = cold_reference(nl, &cold_timing, &pinned, &cold_arrivals);
            prop_assert_eq!(
                digest,
                incr.analysis().groups_digest(),
                "threads={} delta={}",
                threads,
                di
            );
            prop_assert_eq!(
                digest,
                cold.groups_digest(),
                "threads={} delta={}",
                threads,
                di
            );
            prop_assert_eq!(
                rebuilt.groups_digest(),
                digest,
                "threads={} delta={}",
                threads,
                di
            );
        }
        incr.revert();
        rebuilt.revert();
        prop_assert_eq!(
            incr.groups_digest(),
            base_digest,
            "threads={} revert",
            threads
        );
        prop_assert_eq!(
            rebuilt.groups_digest(),
            base_digest,
            "threads={} revert",
            threads
        );
        let mut cold_timing = timing.clone();
        let mut cold_arrivals: Vec<Option<DiscreteDist>> = vec![None; nl.node_count()];
        let delta = realize(
            nl,
            &gates,
            &pis,
            &draws[0],
            &mut cold_timing,
            &mut cold_arrivals,
        );
        incr.apply_delta(&delta).expect("realized deltas are valid");
        let cold = cold_reference(nl, &cold_timing, &pinned, &cold_arrivals);
        prop_assert_eq!(
            incr.groups_digest(),
            cold.groups_digest(),
            "threads={} after revert",
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random delta sequences, thread counts 1/2/4:
    /// every intermediate incremental state is bit-identical to a cold
    /// analysis of the mutated model.
    #[test]
    fn incremental_matches_cold_analysis(
        spec in small_spec(),
        model_seed in any::<u64>(),
        draws in prop::collection::vec(delta_draw(), 1..4),
    ) {
        let nl = random_circuit(&spec);
        let timing = Timing::annotate(&nl, &DelayModel::dac2001(model_seed));
        run_case(&nl, &timing, &AnalysisConfig::default(), &draws)?;
    }

    /// Same contract under a per-supergate stem budget that trips the
    /// degradation ladder: dirty supergates degrade exactly as a cold
    /// run would, producing the same ordered `budget.stems` warnings.
    #[test]
    fn incremental_matches_cold_under_stem_budget(
        spec in small_spec(),
        model_seed in any::<u64>(),
        draws in prop::collection::vec(delta_draw(), 1..3),
    ) {
        let nl = random_circuit(&spec);
        let timing = Timing::annotate(&nl, &DelayModel::dac2001(model_seed));
        let config = AnalysisConfig {
            budget: Some(Budget {
                max_stems_per_supergate: Some(1),
                ..Budget::default()
            }),
            ..AnalysisConfig::default()
        };
        run_case(&nl, &timing, &config, &draws)?;
    }

    /// Random circuits, random delta chains (half of them past the
    /// delta-plane compaction), thread counts 1/2/4: the cached digest
    /// equals the materialized one, the cold one and a rebuilt
    /// analyzer's at every step, and again after `revert`.
    #[test]
    fn cached_groups_digest_matches_materialized_and_cold(
        spec in small_spec(),
        model_seed in any::<u64>(),
        draws in prop::collection::vec(delta_draw(), 1..4),
        long in any::<bool>(),
    ) {
        let nl = random_circuit(&spec);
        let timing = Timing::annotate(&nl, &DelayModel::dac2001(model_seed));
        let len = if long { LONG_CHAIN } else { draws.len() };
        run_digest_case(&nl, &timing, &chain(&draws, len))?;
    }
}
