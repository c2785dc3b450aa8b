//! Probabilistic event propagation — the DAC 2001 statistical timing
//! analyzer.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * [`cell_eval`] — evaluation of a single cell on probabilistic events:
//!   single-event propagation (Fig. 3), event-group propagation via
//!   *shift-with-scaling* + *group* (Fig. 4), and min/max combining of
//!   multiple groups (Fig. 5),
//! * [`AnalysisConfig`] — the four approximation knobs of §3.3 (`P_m`
//!   event dropping, stem filtering, effective-stem selection, supergate
//!   depth `D`) plus the hybrid Monte-Carlo-inside-a-supergate escape
//!   hatch of §4,
//! * [`analyze`] — vectorless statistical static analysis: plain levelized
//!   propagation on independent fanins, supergate *sampling-evaluation*
//!   (cross-product + recursive, §3.2) wherever signals reconverge,
//! * [`IncrementalAnalyzer`] — the incremental what-if engine: a retained
//!   analysis whose deltas (gate re-bind / re-size, PI arrival change)
//!   re-evaluate only the dirty fanout cone, bit-identical to a cold run,
//! * [`dynamic`] — the "dynamic simulation with given input vectors" mode
//!   (§1), with transition-aware min/max selection per gate,
//! * [`validate`] — brute-force joint-delay enumeration used to prove the
//!   exact algorithm exact on small circuits,
//! * [`compare`] — the paper's `M_e + 3σ_e` error metric against the Monte
//!   Carlo baseline.
//!
//! # Quick start
//!
//! ```
//! use pep_celllib::{DelayModel, Timing};
//! use pep_core::{analyze, AnalysisConfig};
//! use pep_netlist::samples;
//!
//! let nl = samples::c17();
//! let timing = Timing::annotate(&nl, &DelayModel::dac2001(1));
//! let analysis = analyze(&nl, &timing, &AnalysisConfig::default());
//! let po = nl.primary_outputs()[0];
//! let mean = analysis.mean_time(po);
//! let std = analysis.std_time(po);
//! assert!(mean > 0.0 && std > 0.0);
//! // The whole arrival-time *distribution* is available, not just moments:
//! assert!(analysis.group(po).total_mass() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod arcs;
mod budget;
pub mod cell_eval;
pub mod compare;
mod config;
pub mod criticality;
pub mod dynamic;
pub mod faults;
mod group_store;
mod incremental;
mod node_eval;
#[doc(hidden)]
pub mod probe;
mod region;
pub mod validate;

pub use analyzer::{
    analyze, analyze_observed, analyze_with_inputs, try_analyze, try_analyze_cancellable,
    try_analyze_observed, try_analyze_with_inputs_cancellable, AnalysisStats, PepAnalysis,
};
pub use arcs::ArcPmfs;
pub use budget::Budget;
pub use config::{AnalysisConfig, CombineMode, HybridMcConfig, StemRanking};
pub use incremental::{Delta, DeltaReport, IncrementalAnalyzer, NodeRecordExport, RetainedBase};
pub use pep_sta::{AnalysisError, BudgetExceeded, CancelState, CancelToken, Cancelled, PepError};
