//! Probability substrate for statistical timing analysis by probabilistic
//! event propagation.
//!
//! This crate provides the mathematical foundation used by the rest of the
//! `psta` workspace (a reproduction of Liou, Cheng, Kundu and Krstić,
//! *"Fast Statistical Timing Analysis By Probabilistic Event Propagation"*,
//! DAC 2001):
//!
//! * [`ContinuousDist`] — the continuous delay models (normal, uniform,
//!   triangular) that cell libraries attach to timing arcs,
//! * [`TimeStep`] — the fixed *sampling step* that places every delay and
//!   arrival time on a shared integer tick grid (paper §2.2),
//! * [`DiscreteDist`] — a discrete (sub-)probability distribution over ticks;
//!   arrival-time *event groups* are exactly these,
//! * the propagation primitives on [`DiscreteDist`]: shift-with-scaling,
//!   grouping, convolution and the statistical [`DiscreteDist::min`] /
//!   [`DiscreteDist::max`] combining operators (paper §2.3),
//! * [`discretize`](fn@discretize) — pdf discretization (paper Fig. 2),
//! * [`stats`] — running statistics, Student-t confidence bounds and the
//!   paper's `M_e + 3σ_e` error metric (paper §4),
//! * [`hash`] — the workspace's FNV-1a and the event-group content hash.
//!
//! # Example
//!
//! Discretize a triangular cell delay and push one deterministic input event
//! through it (the paper's Fig. 3):
//!
//! ```
//! use pep_dist::{ContinuousDist, DiscreteDist, TimeStep, discretize};
//!
//! let delay = ContinuousDist::triangular(1.0, 2.0, 3.0)?;
//! let step = TimeStep::new(0.5)?;
//! let delay_pmf = discretize(&delay, step);
//! // A deterministic event at t = 10 ticks propagates by convolution.
//! let out = DiscreteDist::point(10).convolve(&delay_pmf);
//! assert!((out.total_mass() - 1.0).abs() < 1e-12);
//! assert!((out.mean_ticks() - (10.0 + delay.mean() / 0.5)).abs() < 0.3);
//! # Ok::<(), pep_dist::DistError>(())
//! ```

// `deny` rather than `forbid`: the SIMD kernel module opts back in with
// a scoped `allow` for the intrinsics (see `kernels.rs` for the safety
// story); everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod continuous;
mod discrete;
mod discretize;
mod error;
pub mod hash;
pub mod kernels;
pub mod naive;
mod scratch;
mod slab;
mod step;

pub mod stats;

pub use continuous::ContinuousDist;
pub use discrete::{DiscreteDist, TickSampler};
pub use discretize::{discretize, discretize_with_samples, step_for_samples, try_discretize};
pub use error::DistError;
pub use kernels::{active_isa, KernelIsa};
pub use scratch::DistScratch;
pub use slab::{DistView, EventSlab, SlabDesc};
pub use step::TimeStep;
