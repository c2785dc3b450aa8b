//! The metric catalog: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` declares the same lists; `tests/contract.rs` checks
//! that the two agree, and [`Report::render`] refuses to print a result
//! whose metric set differs from the catalog, so nothing undeclared is
//! ever printed and nothing declared is ever missing.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("work_per_s", "1/s"),
    ("mean_err_pct", "%"),
    ("sigma_err_pct", "%"),
];

/// The dist kernels whose aggregates the traced run reports.
pub const KERNELS: [&str; 5] = ["convolve", "max", "min", "accumulate", "coarsen"];

/// The cold-iscas circuits, in round-robin order.
pub const CIRCUITS: [&str; 6] = ["s5378", "s9234", "s13207", "s15850", "s35932", "s38584"];

/// The circuits the accuracy reference runs Monte Carlo on.
pub const ACCURACY_CIRCUITS: [&str; 2] = ["s5378", "s15850"];

/// Per-layer metrics: printed by every workload with `--trace 1`; a
/// layer the workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_owned(), unit));
    for name in [
        "netlist.parse_ms",
        "celllib.annotate_ms",
        "core.arc_pmf_ms",
        "netlist.levelize_ms",
        "netlist.supergate_extract_ms",
        "core.sampling_eval_ms",
        "core.node_eval_ms",
        "core.propagate_ms_t1",
        "core.propagate_ms_t2",
    ] {
        add(name, "ms");
    }
    add("core.speedup_t2", "x");
    add("core.serial_fraction", "ratio");
    for name in [
        "core.waves",
        "core.wave_width_p50",
        "core.supergates",
        "core.stems_conditioned",
        "core.stems_filtered",
    ] {
        add(name, "count");
    }
    add("core.stem_keep_ratio", "ratio");
    add("core.events_propagated", "count");
    add("core.events_dropped", "count");
    add("core.dropped_mass", "prob");
    for k in KERNELS {
        add(&format!("dist.{k}.calls"), "count");
        add(&format!("dist.{k}.ns_per_call"), "ns");
    }
    add("dist.kernel_share", "ratio");
    add("cold.suite_ms_p50", "ms");
    for c in CIRCUITS {
        add(&format!("cold.{c}.ms_p50"), "ms");
    }
    for c in ACCURACY_CIRCUITS {
        add(&format!("accuracy.{c}.mean_err_pct"), "%");
        add(&format!("accuracy.{c}.sigma_err_pct"), "%");
    }
    add("sta.mc_s", "s");
    add("incremental.build_s", "s");
    add("incremental.resident_mb", "MB");
    add("incremental.apply_ms_p50", "ms");
    add("incremental.read_ms_p50", "ms");
    add("incremental.revert_ms_p50", "ms");
    add("incremental.dirty_nodes_p50", "count");
    add("incremental.dirty_nodes_tail", "count");
    add("incremental.dirty_ratio", "ratio");
    add("incremental.us_per_dirty_node", "us");
    for kind in ["analyze", "delta"] {
        add(&format!("serve.{kind}_ms_p50"), "ms");
        add(&format!("serve.{kind}_job_ms_p50"), "ms");
        add(&format!("serve.{kind}_overhead_ms_p50"), "ms");
        add(&format!("serve.{kind}_response_kb"), "KB");
    }
    add("serve.router_hop_ms_p50", "ms");
    add("serve.circuit_cache_hit_ratio", "ratio");
    add("serve.state_hit_ratio", "ratio");
    for phase in ["arc-pmf-build", "levelize", "propagate"] {
        add(&format!("serve.phase.{phase}_ms"), "ms");
    }
    for proc_name in ["shard", "router"] {
        add(&format!("serve.{proc_name}_cpu_ms_per_req"), "ms");
        add(&format!("serve.{proc_name}_rss_mb"), "MB");
    }
    for name in [
        "serve.shed",
        "serve.http_errors",
        "serve.transport_errors",
        "serve.retries",
    ] {
        add(name, "count");
    }
    add("obs.trace_overhead_pct", "%");
    m
}

/// The metric list for one mode, as `(name, unit)` pairs.
pub fn catalog(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    }
}

/// One run's outcome: the correctness verdict, operation counts and
/// metric values.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (typed errors, non-2xx, transport
    /// errors, timeouts, wrong answers).
    pub failed: u64,
    /// Correctness-gate mismatches, one line each.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric value (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Records a correctness-gate mismatch.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// In a traced run, sets every per-layer metric that is still
    /// unset to 0: the layers this workload leaves idle. End-to-end
    /// metrics are never filled in; a missing one fails [`render`].
    ///
    /// [`render`]: Report::render
    pub fn zero_fill_if(&mut self, trace: bool) {
        if trace {
            for (name, _) in per_layer() {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    /// Renders the result line. Fails when the metric set differs from
    /// the catalog or a value is not finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let cat = catalog(trace);
        let declared: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        for name in self.values.keys() {
            if !declared.contains(&name.as_str()) {
                return Err(format!("metric {name:?} is not declared"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in cat.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name:?} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name:?} is not finite ({v})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_requires_exactly_the_catalog() {
        let mut r = Report::default();
        assert!(r.render(false).is_err(), "missing metrics are refused");
        for (name, _) in catalog(false) {
            r.set(&name, 1.5);
        }
        let line = r.render(false).expect("complete report");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        r.set("undeclared", 1.0);
        assert!(r.render(false).is_err(), "undeclared metrics are refused");
    }

    #[test]
    fn zero_fill_never_invents_end_to_end_metrics() {
        let mut r = Report::default();
        r.zero_fill_if(false);
        assert!(r.render(false).is_err());
    }

    #[test]
    fn zero_fill_covers_idle_layers() {
        let mut r = Report::default();
        r.set("sta.mc_s", 2.0);
        r.zero_fill_if(true);
        let line = r.render(true).expect("zero-filled report");
        assert!(line.contains("\"sta.mc_s\": {\"value\": 2.0"));
        assert!(line.contains("\"serve.retries\": {\"value\": 0.0"));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        for trace in [false, true] {
            let cat = catalog(trace);
            let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
            for n in &names {
                assert!(n.len() <= 64, "{n}");
                assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
                assert!(n
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            }
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate metric names");
        }
        assert!(per_layer().len() <= 128);
    }
}
