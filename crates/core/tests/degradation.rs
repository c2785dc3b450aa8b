//! Budgeted runs: graceful degradation, determinism, and inertness.
//!
//! Count-based budget trips (combinations, stems, memory) degrade
//! *deterministically*: the same groups and the same ordered warning
//! list for every thread count, because degradations are decided from
//! thread-invariant quantities and committed on the orchestration
//! thread in wave order. Deadline trips are inherently wall-clock
//! dependent and only promise completion-with-warnings.

use pep_celllib::{DelayModel, Timing};
use pep_core::{
    analyze, try_analyze, AnalysisConfig, Budget, Delta, IncrementalAnalyzer, PepAnalysis, PepError,
};
use pep_netlist::generate::{iscas_profile, random_circuit, IscasProfile, RandomCircuitSpec};
use pep_netlist::{GateKind, Netlist};

/// Same reduced ISCAS-like generator as the determinism suite: hundreds
/// of supergates across many waves, test-suite fast.
fn iscas_like() -> Netlist {
    random_circuit(&RandomCircuitSpec {
        name: "iscas-like".to_owned(),
        inputs: 40,
        gates: 420,
        depth: 12,
        max_fanin: 3,
        level_reach: 2,
        window: 0.15,
        inverter_fraction: 0.55,
        seed: 0xD0C5,
    })
}

/// Conditioning-heavy configuration: no effective-stem limit, so the
/// combination estimates are large enough for a tight cap to trip.
fn heavy_config() -> AnalysisConfig {
    AnalysisConfig {
        max_effective_stems: None,
        ..AnalysisConfig::default()
    }
}

#[test]
fn combination_cap_degrades_identically_across_threads() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(3));
    let budget = Budget {
        max_combinations: Some(64),
        ..Budget::default()
    };
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            analyze(
                &nl,
                &timing,
                &AnalysisConfig {
                    threads,
                    budget: Some(budget.clone()),
                    ..heavy_config()
                },
            )
        })
        .collect();
    assert!(
        !runs[0].warnings().is_empty(),
        "a 64-combination cap must trip on this circuit"
    );
    let base = &runs[0];
    for (i, run) in runs.iter().enumerate().skip(1) {
        for id in nl.node_ids() {
            assert_eq!(
                base.group(id),
                run.group(id),
                "budgeted group mismatch at {id:?} (run {i})"
            );
        }
        assert_eq!(
            base.warnings(),
            run.warnings(),
            "warning list differs between threads=1 and run {i}"
        );
        assert_eq!(base.stats(), run.stats(), "stats differ (run {i})");
    }
    // Every degradation names the supergate and the knob it changed.
    for w in base.warnings() {
        assert!(w.code.starts_with("budget."), "budget code: {w}");
        assert!(w.subject.starts_with("sg:"), "names the supergate: {w}");
        assert!(!w.knob.is_empty(), "names the knob: {w}");
        assert!(!w.impact.is_empty(), "states the accuracy impact: {w}");
    }
}

#[test]
fn stem_budget_caps_conditioning_with_warning() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(3));
    let a = analyze(
        &nl,
        &timing,
        &AnalysisConfig {
            budget: Some(Budget {
                max_stems_per_supergate: Some(1),
                ..Budget::default()
            }),
            ..heavy_config()
        },
    );
    assert!(
        a.warnings().iter().any(|w| w.code == "budget.stems"),
        "stem cap must trip with no effective-stem limit: {:?}",
        a.warnings()
    );
}

#[test]
fn memory_budget_tightens_pm_and_completes() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(3));
    let a = analyze(
        &nl,
        &timing,
        &AnalysisConfig {
            budget: Some(Budget {
                max_event_bytes: Some(16 << 10),
                ..Budget::default()
            }),
            ..AnalysisConfig::default()
        },
    );
    assert!(
        a.warnings()
            .iter()
            .any(|w| w.code == "budget.memory" && w.knob == "min_event_prob"),
        "a 16 KiB event budget must trip: {:?}",
        a.warnings()
    );
    // The degraded groups are still normalized event groups.
    for po in nl.primary_outputs() {
        let g = a.group(*po);
        assert!(!g.is_empty());
        assert!((g.total_mass() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn memory_budget_is_thread_invariant() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(7));
    let budget = Budget {
        max_event_bytes: Some(16 << 10),
        ..Budget::default()
    };
    let config = |threads: usize, fail_fast: bool| AnalysisConfig {
        threads,
        budget: Some(Budget {
            fail_fast,
            ..budget.clone()
        }),
        ..AnalysisConfig::default()
    };
    let one = analyze(&nl, &timing, &config(1, false));
    assert!(
        one.warnings().iter().any(|w| w.code == "budget.memory"),
        "a 16 KiB event budget must trip: {:?}",
        one.warnings()
    );
    for threads in [1usize, 2, 4] {
        let cold = analyze(&nl, &timing, &config(threads, false));
        // The incremental engine's cold build runs the same memory
        // ladder, so its retained analysis matches the one-shot run.
        let retained = IncrementalAnalyzer::new(&nl, &timing, &config(threads, false))
            .expect("no fail-fast budget")
            .analysis();
        for id in nl.node_ids() {
            assert_eq!(one.group(id), cold.group(id));
            assert_eq!(
                cold.group(id).to_bits(),
                retained.group(id).to_bits(),
                "incremental cold build differs at {id:?} (threads={threads})"
            );
        }
        assert_eq!(one.warnings(), cold.warnings());
        assert_eq!(cold.warnings(), retained.warnings(), "threads={threads}");
        assert_eq!(cold.stats(), retained.stats(), "threads={threads}");
        // And a fail-fast ladder trip fails both the same way.
        let strict = config(threads, true);
        assert!(matches!(
            try_analyze(&nl, &timing, &strict),
            Err(PepError::Budget(_))
        ));
        assert!(matches!(
            IncrementalAnalyzer::new(&nl, &timing, &strict),
            Err(PepError::Budget(_))
        ));
    }
    // A retained ladder warning rides on the last gate its wave
    // committed but describes the whole wave: a delta that re-evaluates
    // that gate must not drop it.
    let ladder = |a: &PepAnalysis| {
        a.warnings()
            .iter()
            .filter(|w| w.code == "budget.memory")
            .count()
    };
    let mut incr =
        IncrementalAnalyzer::new(&nl, &timing, &config(1, false)).expect("no fail-fast budget");
    for w in one.warnings().iter().filter(|w| w.code == "budget.memory") {
        let wave: u32 = w.subject["wave:".len()..].parse().expect("wave subject");
        let gate = *nl
            .topo_order()
            .iter()
            .rev()
            .find(|&&g| nl.level(g) == wave && nl.kind(g) != GateKind::Input)
            .expect("a ladder wave commits gates");
        incr.apply_delta(&Delta::ScaleCell { gate, factor: 1.0 })
            .expect("valid delta");
        assert_eq!(ladder(&incr.analysis()), ladder(&one), "{w}");
        incr.revert();
    }
}

#[test]
fn roomy_budget_is_bit_identical_to_no_budget() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(5));
    let plain = analyze(&nl, &timing, &AnalysisConfig::default());
    let budgeted = analyze(
        &nl,
        &timing,
        &AnalysisConfig {
            budget: Some(Budget {
                deadline_ms: Some(600_000),
                max_combinations: Some(u64::MAX / 2),
                max_event_bytes: Some(usize::MAX / 2),
                max_stems_per_supergate: Some(200),
                fail_fast: false,
            }),
            ..AnalysisConfig::default()
        },
    );
    assert!(budgeted.warnings().is_empty(), "{:?}", budgeted.warnings());
    for id in nl.node_ids() {
        assert_eq!(plain.group(id), budgeted.group(id));
    }
    assert_eq!(plain.stats(), budgeted.stats());
}

#[test]
fn fail_fast_surfaces_a_typed_budget_error() {
    let nl = iscas_like();
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(3));
    let err = try_analyze(
        &nl,
        &timing,
        &AnalysisConfig {
            budget: Some(Budget {
                max_combinations: Some(1),
                fail_fast: true,
                ..Budget::default()
            }),
            ..heavy_config()
        },
    )
    .unwrap_err();
    match err {
        PepError::Budget(b) => {
            assert_eq!(b.resource, "max_combinations");
            assert_eq!(b.limit, 1);
            assert!(b.observed > 1);
        }
        other => panic!("expected PepError::Budget, got {other}"),
    }
}

/// The full s5378 profile under a tight combination cap: the budgeted
/// groups AND the ordered warning list must be identical at 1, 2 and 4
/// threads.
#[test]
fn s5378_combination_cap_is_thread_invariant() {
    let nl = iscas_profile(IscasProfile::S5378);
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
    let budget = Budget {
        max_combinations: Some(64),
        ..Budget::default()
    };
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            analyze(
                &nl,
                &timing,
                &AnalysisConfig {
                    threads,
                    budget: Some(budget.clone()),
                    ..heavy_config()
                },
            )
        })
        .collect();
    assert!(!runs[0].warnings().is_empty(), "cap must trip on s5378");
    for run in &runs[1..] {
        for id in nl.node_ids() {
            assert_eq!(runs[0].group(id), run.group(id));
        }
        assert_eq!(runs[0].warnings(), run.warnings());
        assert_eq!(runs[0].stats(), run.stats());
    }
}

/// The issue's hostile run: the full s5378 profile with *no*
/// effective-stem limit (exponential conditioning if left alone) under
/// a 2-second wall-clock deadline. The run must complete — degraded,
/// not dead — with warnings naming the supergates that fell back.
#[test]
fn hostile_s5378_deadline_run_completes_with_warnings() {
    let nl = iscas_profile(IscasProfile::S5378);
    let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
    let a = try_analyze(
        &nl,
        &timing,
        &AnalysisConfig {
            budget: Some(Budget {
                deadline_ms: Some(2_000),
                ..Budget::default()
            }),
            ..heavy_config()
        },
    )
    .expect("a deadline run degrades instead of failing");
    assert!(
        !a.warnings().is_empty(),
        "2s is not enough for exact conditioning of s5378"
    );
    assert!(a
        .warnings()
        .iter()
        .any(|w| w.code == "budget.deadline" && w.subject.starts_with("sg:")));
    // Every output still carries a usable arrival-time group.
    for po in nl.primary_outputs() {
        assert!(!a.group(*po).is_empty());
    }
}
