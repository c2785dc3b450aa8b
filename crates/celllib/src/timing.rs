use crate::{DelayModel, DelayShape};
use pep_dist::hash::sigma_key;
use pep_dist::{ContinuousDist, TimeStep};
use pep_netlist::{GateKind, Netlist, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A netlist's complete statistical timing annotation: one pin-to-pin cell
/// delay per timing arc and one wire delay per arc (a point mass at zero
/// when the model's wire fraction is zero).
///
/// Arcs are addressed as `(gate, fanin pin index)`; pin ordering follows
/// [`Netlist::fanins`].
///
/// # Example
///
/// ```
/// use pep_celllib::{DelayModel, Timing};
/// use pep_netlist::samples;
///
/// let nl = samples::mux2();
/// let t = Timing::annotate(&nl, &DelayModel::dac2001(3));
/// let y = nl.node_id("y").expect("present");
/// // Arcs from both fanins of the OR gate exist and share the cell's σ.
/// let a0 = t.cell_arc(y, 0);
/// let a1 = t.cell_arc(y, 1);
/// assert_eq!(a0.std_dev(), a1.std_dev());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timing {
    /// `cell[n][pin]`: pin-to-pin delay of gate `n` from fanin `pin`.
    cell: Vec<Vec<ContinuousDist>>,
    /// `wire[n][pin]`: delay of the wire feeding gate `n`'s fanin `pin`.
    wire: Vec<Vec<ContinuousDist>>,
    has_wire_delays: bool,
}

impl Timing {
    /// Annotates `netlist` according to `model`.
    ///
    /// Per cell: mean from the model's pin-count rule, σ a per-cell
    /// fraction of the mean drawn (seeded, deterministic) from the model's
    /// range; every input pin of the same cell shares the cell's
    /// distribution, matching the paper's per-cell σ statement. Wire
    /// delays, when enabled, get the same relative σ as their driver.
    ///
    /// The per-cell draw is keyed on the model seed and the *node name*,
    /// so the annotation is independent of declaration order: a netlist
    /// that round-trips through `.bench` text gets identical timing.
    pub fn annotate(netlist: &Netlist, model: &DelayModel) -> Self {
        let (slo, shi) = model.sigma_range();
        let n = netlist.node_count();
        let mut cell = Vec::with_capacity(n);
        let mut wire = Vec::with_capacity(n);
        let zero = ContinuousDist::point(0.0).expect("0.0 is finite");
        // Per-driver wire parameters must be drawn deterministically even
        // though arcs are stored per-sink, so precompute them first.
        let mut wire_dist: Vec<ContinuousDist> = Vec::with_capacity(n);
        for id in netlist.node_ids() {
            let fanins = netlist.fanins(id).len();
            let fanouts = netlist.fanout_count(id);
            let mut rng = StdRng::seed_from_u64(model.seed() ^ sigma_key(netlist.node_name(id)));
            let (cell_dist, sigma_frac) = if netlist.kind(id) == GateKind::Input {
                (zero, rng.random_range(slo..=shi))
            } else {
                let mean = model.mean_delay(fanins, fanouts.max(1));
                let frac = rng.random_range(slo..=shi);
                (make_dist(model.shape(), mean, mean * frac), frac)
            };
            cell.push(vec![cell_dist; fanins]);
            let w = if model.wire_fraction() > 0.0 {
                let wmean = model.wire_fraction() * model.mean_delay(fanins.max(1), fanouts.max(1));
                make_dist(model.shape(), wmean, wmean * sigma_frac)
            } else {
                zero
            };
            wire_dist.push(w);
            wire.push(Vec::new());
        }
        for id in netlist.node_ids() {
            let arcs: Vec<ContinuousDist> = netlist
                .fanins(id)
                .iter()
                .map(|&f| wire_dist[f.index()])
                .collect();
            wire[id.index()] = arcs;
        }
        Timing {
            cell,
            wire,
            has_wire_delays: model.wire_fraction() > 0.0,
        }
    }

    /// Annotates `netlist` with a caller-supplied delay rule — the
    /// lowering path for custom [`Library`](crate::library::Library)
    /// rules.
    ///
    /// `rule(kind, fanins, fanouts)` returns `(mean, sigma_lo, sigma_hi)`
    /// for a cell; the per-cell σ fraction is drawn from that range,
    /// keyed on `(seed, node name)` exactly like
    /// [`annotate`](Timing::annotate). No wire delays are produced.
    pub fn annotate_with<F>(netlist: &Netlist, seed: u64, shape: DelayShape, rule: F) -> Self
    where
        F: Fn(GateKind, usize, usize) -> (f64, f64, f64),
    {
        let n = netlist.node_count();
        let mut cell = Vec::with_capacity(n);
        let mut wire = Vec::with_capacity(n);
        let zero = ContinuousDist::point(0.0).expect("0.0 is finite");
        for id in netlist.node_ids() {
            let fanins = netlist.fanins(id).len();
            let fanouts = netlist.fanout_count(id);
            let mut rng = StdRng::seed_from_u64(seed ^ sigma_key(netlist.node_name(id)));
            let dist = if netlist.kind(id) == GateKind::Input {
                // Keep the RNG stream aligned with `annotate`.
                let _ = rng.random_range(0.0f64..=1.0);
                zero
            } else {
                let (mean, slo, shi) = rule(netlist.kind(id), fanins, fanouts.max(1));
                assert!(
                    mean > 0.0 && 0.0 < slo && slo <= shi && shi < 1.0,
                    "delay rule returned invalid parameters for {}",
                    netlist.node_name(id)
                );
                let frac = rng.random_range(slo..=shi);
                make_dist(shape, mean, mean * frac)
            };
            cell.push(vec![dist; fanins]);
            wire.push(vec![zero; fanins]);
        }
        Timing {
            cell,
            wire,
            has_wire_delays: false,
        }
    }

    /// A unit-delay annotation (every gate delay is a point mass at
    /// `delay`, no wires) — handy for tests with exactly known answers.
    pub fn uniform(netlist: &Netlist, delay: f64) -> Self {
        let d = ContinuousDist::point(delay).expect("caller supplies finite delay");
        let zero = ContinuousDist::point(0.0).expect("0.0 is finite");
        let mut cell = Vec::with_capacity(netlist.node_count());
        let mut wire = Vec::with_capacity(netlist.node_count());
        for id in netlist.node_ids() {
            let fanins = netlist.fanins(id).len();
            let arc = if netlist.kind(id) == GateKind::Input {
                zero
            } else {
                d
            };
            cell.push(vec![arc; fanins]);
            wire.push(vec![zero; fanins]);
        }
        Timing {
            cell,
            wire,
            has_wire_delays: false,
        }
    }

    /// The pin-to-pin delay of `gate` from its `pin`-th fanin.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate.
    #[inline]
    pub fn cell_arc(&self, gate: NodeId, pin: usize) -> &ContinuousDist {
        &self.cell[gate.index()][pin]
    }

    /// The wire delay feeding `gate`'s `pin`-th fanin (a zero point mass
    /// when wire delays are disabled).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate.
    #[inline]
    pub fn wire_arc(&self, gate: NodeId, pin: usize) -> &ContinuousDist {
        &self.wire[gate.index()][pin]
    }

    /// Whether the annotation carries non-trivial wire delays.
    pub fn has_wire_delays(&self) -> bool {
        self.has_wire_delays
    }

    /// The cell delay shared by every pin of `gate`, when the gate has
    /// timing arcs (`None` for primary inputs).
    pub fn cell_delay(&self, gate: NodeId) -> Option<&ContinuousDist> {
        self.cell[gate.index()].first()
    }

    /// Re-binds `gate`'s cell delay: every input pin takes `dist` (a
    /// cell's delay is one random variable shared across its pins, as in
    /// [`annotate`](Timing::annotate)). Wire arcs are untouched. No-op
    /// for primary inputs, which carry no arcs.
    pub fn set_cell_delay(&mut self, gate: NodeId, dist: ContinuousDist) {
        for arc in &mut self.cell[gate.index()] {
            *arc = dist;
        }
    }

    /// Scales `gate`'s cell delay by `factor` — the gate-sizing
    /// transform (mean and σ scale together).
    ///
    /// # Errors
    ///
    /// Propagates [`ContinuousDist::scaled`]'s rejection of non-finite
    /// or non-positive factors.
    pub fn scale_cell(&mut self, gate: NodeId, factor: f64) -> Result<(), pep_dist::DistError> {
        if let Some(arc) = self.cell[gate.index()].first() {
            let scaled = arc.scaled(factor)?;
            self.set_cell_delay(gate, scaled);
        }
        Ok(())
    }

    /// The mean total delay through an arc (cell + wire).
    pub fn arc_mean(&self, gate: NodeId, pin: usize) -> f64 {
        self.cell_arc(gate, pin).mean() + self.wire_arc(gate, pin).mean()
    }

    /// A discretization step sized so the *average* cell-delay
    /// distribution spans about `n_samples` grid points — the paper's
    /// `N_s` knob (§4, Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if `n_samples` is zero or the netlist has no gates with
    /// positive-width delay distributions.
    pub fn step_for_samples(&self, n_samples: usize) -> TimeStep {
        assert!(n_samples > 0, "need at least one sample");
        let mut total_width = 0.0;
        let mut count = 0usize;
        for arcs in &self.cell {
            for arc in arcs {
                let (lo, hi) = arc.discretization_range();
                if hi > lo {
                    total_width += hi - lo;
                    count += 1;
                }
            }
        }
        assert!(count > 0, "no statistical delays to discretize");
        TimeStep::new(total_width / count as f64 / n_samples as f64)
            .expect("positive width yields a positive step")
    }
}

fn make_dist(shape: DelayShape, mean: f64, sigma: f64) -> ContinuousDist {
    if sigma <= 0.0 {
        return ContinuousDist::point(mean).expect("finite mean");
    }
    match shape {
        DelayShape::Normal => ContinuousDist::normal(mean, sigma).expect("positive sigma"),
        DelayShape::Triangular => {
            // A symmetric triangle with std σ spans mean ± √6·σ.
            let half = 6.0f64.sqrt() * sigma;
            ContinuousDist::triangular(mean - half, mean, mean + half).expect("ordered bounds")
        }
        DelayShape::Uniform => {
            // A uniform with std σ spans mean ± √3·σ.
            let half = 3.0f64.sqrt() * sigma;
            ContinuousDist::uniform(mean - half, mean + half).expect("ordered bounds")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pep_netlist::samples;

    #[test]
    fn annotation_is_deterministic() {
        let nl = samples::c17();
        let m = DelayModel::dac2001(11);
        let a = Timing::annotate(&nl, &m);
        let b = Timing::annotate(&nl, &m);
        for id in nl.node_ids() {
            for pin in 0..nl.fanins(id).len() {
                assert_eq!(a.cell_arc(id, pin), b.cell_arc(id, pin));
            }
        }
        let c = Timing::annotate(&nl, &m.with_seed(12));
        let g = nl.node_id("22").expect("c17 gate");
        assert_ne!(a.cell_arc(g, 0).std_dev(), c.cell_arc(g, 0).std_dev());
    }

    #[test]
    fn sigma_fraction_in_range() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(5));
        for id in nl.node_ids() {
            for pin in 0..nl.fanins(id).len() {
                let arc = t.cell_arc(id, pin);
                let frac = arc.std_dev() / arc.mean();
                assert!((0.04..=0.10).contains(&frac), "σ/mean {frac}");
            }
        }
    }

    #[test]
    fn mean_respects_pin_count_rule() {
        let nl = samples::c17();
        let m = DelayModel::dac2001(5);
        let t = Timing::annotate(&nl, &m);
        let g16 = nl.node_id("16").expect("c17 stem gate"); // 2 fanins, 2 fanouts
        let g22 = nl.node_id("22").expect("c17 output gate"); // 2 fanins, 0 fanouts (PO)
        assert_eq!(t.cell_arc(g16, 0).mean(), m.mean_delay(2, 2));
        assert_eq!(t.cell_arc(g22, 0).mean(), m.mean_delay(2, 1)); // fanout floor 1
        assert!(t.cell_arc(g16, 0).mean() > t.cell_arc(g22, 0).mean());
    }

    #[test]
    fn inputs_have_zero_delay() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(5));
        for &pi in nl.primary_inputs() {
            assert!(t.cell[pi.index()].is_empty(), "PIs have no arcs");
        }
    }

    #[test]
    fn wire_delays_disabled_by_default() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(5));
        assert!(!t.has_wire_delays());
        let g = nl.node_id("22").expect("c17 gate");
        assert_eq!(t.wire_arc(g, 0).mean(), 0.0);
        assert_eq!(t.wire_arc(g, 0).variance(), 0.0);
    }

    #[test]
    fn wire_delays_enabled() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(5).with_wire_fraction(0.2));
        assert!(t.has_wire_delays());
        let g22 = nl.node_id("22").expect("c17 gate");
        assert!(t.wire_arc(g22, 0).mean() > 0.0);
        assert!(t.arc_mean(g22, 0) > t.cell_arc(g22, 0).mean());
    }

    #[test]
    fn uniform_annotation() {
        let nl = samples::c17();
        let t = Timing::uniform(&nl, 3.0);
        let g = nl.node_id("10").expect("c17 gate");
        assert_eq!(t.cell_arc(g, 0).mean(), 3.0);
        assert_eq!(t.cell_arc(g, 0).variance(), 0.0);
    }

    #[test]
    fn shapes_match_requested_moments() {
        let nl = samples::c17();
        for shape in [
            DelayShape::Normal,
            DelayShape::Triangular,
            DelayShape::Uniform,
        ] {
            let t = Timing::annotate(&nl, &DelayModel::dac2001(5).with_shape(shape));
            let g = nl.node_id("16").expect("c17 gate");
            let arc = t.cell_arc(g, 0);
            let frac = arc.std_dev() / arc.mean();
            assert!(
                (0.04..=0.10).contains(&frac),
                "{shape:?} σ/mean out of range: {frac}"
            );
        }
    }

    #[test]
    fn rebind_and_scale_cell_delay() {
        let nl = samples::c17();
        let mut t = Timing::annotate(&nl, &DelayModel::dac2001(5));
        let g = nl.node_id("16").expect("c17 gate");
        let before = *t.cell_delay(g).expect("gate has arcs");
        t.scale_cell(g, 0.5).expect("valid factor");
        for pin in 0..nl.fanins(g).len() {
            assert!((t.cell_arc(g, pin).mean() - 0.5 * before.mean()).abs() < 1e-12);
            assert!((t.cell_arc(g, pin).std_dev() - 0.5 * before.std_dev()).abs() < 1e-12);
        }
        t.set_cell_delay(g, before);
        assert_eq!(t.cell_delay(g), Some(&before));
        assert!(t.scale_cell(g, 0.0).is_err());
        // Primary inputs have no arcs: both operations are inert.
        let pi = nl.primary_inputs()[0];
        assert_eq!(t.cell_delay(pi), None);
        t.scale_cell(pi, 0.5).expect("no-op on inputs");
    }

    #[test]
    fn step_for_samples_scales() {
        let nl = samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(5));
        let s10 = t.step_for_samples(10);
        let s20 = t.step_for_samples(20);
        assert!((s10.size() / s20.size() - 2.0).abs() < 1e-9);
    }
}
