//! The service's request/response vocabulary.
//!
//! Request bodies are parsed *manually* through the vendored
//! [`serde::Value`] tree rather than the derive, for two reasons: the
//! derived `Deserialize` requires every struct field present (clients
//! should be able to send just `{"circuit": "sample:c17"}`), and a
//! service must reject unknown fields with a helpful 400 instead of
//! silently ignoring a typo'd knob. Responses use the derive — the
//! server always populates every field.

use pep_core::{
    AnalysisConfig, AnalysisStats, Budget, CombineMode, IncrementalAnalyzer, PepAnalysis,
};
use pep_dist::{DiscreteDist, TimeStep};
use pep_netlist::{Netlist, NodeId};
use pep_obs::{TraceLevel, Warning, WarningGroup};
use serde::{Deserialize, Serialize, Value};

/// A client-facing request-shape error (always a 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ApiError {}

/// Which circuit to analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSpec {
    /// An embedded sample (`c17`, `mux2`, `fig6`).
    Sample(String),
    /// An ISCAS89 profile generator (`s5378`, …).
    Profile(String),
    /// Inline ISCAS `.bench` text.
    Bench {
        /// Circuit name used in reports.
        name: String,
        /// The `.bench` source.
        text: String,
    },
}

impl CircuitSpec {
    /// A stable cache-key string covering everything that determines
    /// the parsed netlist.
    pub fn cache_text(&self) -> String {
        match self {
            CircuitSpec::Sample(name) => format!("sample:{name}"),
            CircuitSpec::Profile(name) => format!("profile:{name}"),
            CircuitSpec::Bench { name, text } => format!("bench:{name}\n{text}"),
        }
    }

    /// Parses a [`cache_text`](Self::cache_text) string back into the
    /// spec it came from — how a state snapshot records which circuit
    /// to re-parse at rehydration time. Returns `None` for text that no
    /// `cache_text` ever produced.
    pub fn from_cache_text(text: &str) -> Option<CircuitSpec> {
        if let Some(name) = text.strip_prefix("sample:") {
            if !name.contains('\n') {
                return Some(CircuitSpec::Sample(name.to_owned()));
            }
        }
        if let Some(name) = text.strip_prefix("profile:") {
            if !name.contains('\n') {
                return Some(CircuitSpec::Profile(name.to_owned()));
            }
        }
        let rest = text.strip_prefix("bench:")?;
        let (name, body) = rest.split_once('\n')?;
        Some(CircuitSpec::Bench {
            name: name.to_owned(),
            text: body.to_owned(),
        })
    }

    /// Display name for reports.
    pub fn display_name(&self) -> &str {
        match self {
            CircuitSpec::Sample(name) | CircuitSpec::Profile(name) => name,
            CircuitSpec::Bench { name, .. } => name,
        }
    }
}

/// One gate-timing or PI-arrival override in a delta request.
#[derive(Debug, Clone, PartialEq)]
pub enum OverrideSpec {
    /// `{"gate": "g", "scale": 0.8}` — scale the gate's delay.
    Scale {
        /// Gate name in the base circuit.
        gate: String,
        /// Multiplicative delay factor (finite, positive).
        factor: f64,
    },
    /// `{"gate": "g", "mean": 12.0, "sigma": 1.5}` — re-bind the gate
    /// to a normal delay (sigma defaults to `mean / 10`).
    Rebind {
        /// Gate name in the base circuit.
        gate: String,
        /// Mean delay in physical time units.
        mean: f64,
        /// Standard deviation (default `mean / 10`).
        sigma: Option<f64>,
    },
    /// `{"input": "a", "arrival_ticks": 5}` — move a primary input's
    /// arrival time.
    Arrival {
        /// Primary-input name in the base circuit.
        input: String,
        /// Arrival tick on the base analysis's grid.
        ticks: i64,
    },
}

/// What a `POST /analyze` request asks the service to do.
#[derive(Debug, Clone)]
pub enum Work {
    /// A cold analysis of a named or inline circuit.
    Full {
        /// What to analyze.
        circuit: CircuitSpec,
        /// `true` → retain the analysis state for later delta
        /// requests; the response then carries the `base` key.
        retain: bool,
    },
    /// A what-if query against a retained base analysis.
    Delta {
        /// The `base` key a previous `retain` response returned.
        base: u64,
        /// The overrides to apply, in order.
        overrides: Vec<OverrideSpec>,
    },
}

/// One parsed `POST /analyze` body.
#[derive(Debug, Clone)]
pub struct AnalyzeRequest {
    /// The work item: a cold analysis or a delta query.
    pub work: Work,
    /// Delay-annotation seed (default 1; full analyses only).
    pub seed: u64,
    /// Engine configuration, overlaid on the defaults (full analyses
    /// only — a delta inherits its base's configuration).
    pub config: AnalysisConfig,
    /// `true` → enqueue and return 202 with the job id immediately;
    /// `false` (default) → wait for the result in the response.
    pub detach: bool,
    /// When set, the job runs with span tracing at this level and
    /// `GET /jobs/:id/trace` serves the Chrome trace-event JSON.
    pub trace: Option<TraceLevel>,
}

/// Parses and validates a `POST /analyze` JSON body.
///
/// # Errors
///
/// [`ApiError`] (→ 400) on bad JSON, unknown fields, bad types, or a
/// missing circuit.
pub fn parse_analyze_request(body: &str) -> Result<AnalyzeRequest, ApiError> {
    let value = serde::json::from_str(body).map_err(|e| ApiError(format!("bad JSON: {e}")))?;
    let map = value
        .as_map()
        .ok_or_else(|| ApiError("request body must be a JSON object".into()))?;

    const KNOWN: &[&str] = &[
        "circuit",
        "bench",
        "name",
        "seed",
        "config",
        "detach",
        "trace",
        "retain",
        "base",
        "overrides",
    ];
    for (key, _) in map {
        if !KNOWN.contains(&key.as_str()) {
            return Err(ApiError(format!(
                "unknown field {key:?} (known: {})",
                KNOWN.join(", ")
            )));
        }
    }

    let work = if let Some(base) = value.get("base") {
        // Delta mode: the base key names a retained analysis, which
        // already fixes the circuit, seed and engine configuration.
        for incompatible in ["circuit", "bench", "name", "seed", "config", "retain"] {
            if value.get(incompatible).is_some() {
                return Err(ApiError(format!(
                    "\"{incompatible}\" cannot be combined with \"base\" \
                     (a delta inherits everything from its base analysis)"
                )));
            }
        }
        let base = base
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                ApiError("\"base\" must be the hex key string a retained analysis returned".into())
            })?;
        let overrides = match value.get("overrides") {
            None => {
                return Err(ApiError(
                    "\"base\" needs a non-empty \"overrides\" array".into(),
                ))
            }
            Some(v) => parse_overrides(v)?,
        };
        Work::Delta { base, overrides }
    } else {
        if value.get("overrides").is_some() {
            return Err(ApiError(
                "\"overrides\" needs \"base\" (run a full analysis with \
                 \"retain\": true first)"
                    .into(),
            ));
        }
        let circuit =
            match (value.get("circuit"), value.get("bench")) {
                (Some(_), Some(_)) => {
                    return Err(ApiError(
                        "give either \"circuit\" or \"bench\", not both".into(),
                    ))
                }
                (Some(spec), None) => {
                    let spec = spec
                        .as_str()
                        .ok_or_else(|| ApiError("\"circuit\" must be a string".into()))?;
                    parse_circuit_spec(spec)?
                }
                (None, Some(bench)) => {
                    let text = bench
                        .as_str()
                        .ok_or_else(|| ApiError("\"bench\" must be a string".into()))?;
                    let name = match value.get("name") {
                        None => "inline".to_owned(),
                        Some(v) => v
                            .as_str()
                            .ok_or_else(|| ApiError("\"name\" must be a string".into()))?
                            .to_owned(),
                    };
                    CircuitSpec::Bench {
                        name,
                        text: text.to_owned(),
                    }
                }
                (None, None) => return Err(ApiError(
                    "missing circuit: give \"circuit\": \"sample:c17\" or inline \"bench\" text"
                        .into(),
                )),
            };
        let retain = match value.get("retain") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ApiError("\"retain\" must be a boolean".into()))?,
        };
        Work::Full { circuit, retain }
    };

    let seed = match value.get("seed") {
        None => 1,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ApiError("\"seed\" must be a non-negative integer".into()))?,
    };
    let detach = match value.get("detach") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ApiError("\"detach\" must be a boolean".into()))?,
    };
    let config = match value.get("config") {
        None => AnalysisConfig::default(),
        Some(v) => parse_config(v)?,
    };
    let trace = match value.get("trace") {
        None | Some(Value::Null) => None,
        Some(v) => {
            let s = v.as_str().ok_or_else(|| {
                ApiError("\"trace\" must be \"phases\", \"nodes\" or \"kernels\"".into())
            })?;
            Some(parse_trace_level(s)?)
        }
    };

    Ok(AnalyzeRequest {
        work,
        seed,
        config,
        detach,
        trace,
    })
}

/// Parses the `"overrides"` array of a delta request.
fn parse_overrides(value: &Value) -> Result<Vec<OverrideSpec>, ApiError> {
    let items = value
        .as_seq()
        .ok_or_else(|| ApiError("\"overrides\" must be a JSON array".into()))?;
    if items.is_empty() {
        return Err(ApiError("\"overrides\" must not be empty".into()));
    }
    items.iter().map(parse_override).collect()
}

fn parse_override(value: &Value) -> Result<OverrideSpec, ApiError> {
    let map = value
        .as_map()
        .ok_or_else(|| ApiError("each override must be a JSON object".into()))?;
    const KNOWN: &[&str] = &["gate", "scale", "mean", "sigma", "input", "arrival_ticks"];
    for (key, _) in map {
        if !KNOWN.contains(&key.as_str()) {
            return Err(ApiError(format!(
                "unknown override field {key:?} (known: {})",
                KNOWN.join(", ")
            )));
        }
    }
    let f64_field = |name: &str| -> Result<Option<f64>, ApiError> {
        match value.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| ApiError(format!("override {name:?} must be a number"))),
        }
    };
    match (value.get("gate"), value.get("input")) {
        (Some(_), Some(_)) => Err(ApiError(
            "an override targets either a \"gate\" or an \"input\", not both".into(),
        )),
        (Some(gate), None) => {
            let gate = gate
                .as_str()
                .ok_or_else(|| ApiError("override \"gate\" must be a string".into()))?
                .to_owned();
            match (f64_field("scale")?, f64_field("mean")?) {
                (Some(_), Some(_)) => Err(ApiError(
                    "a gate override takes either \"scale\" or \"mean\", not both".into(),
                )),
                (Some(factor), None) => Ok(OverrideSpec::Scale { gate, factor }),
                (None, Some(mean)) => Ok(OverrideSpec::Rebind {
                    gate,
                    mean,
                    sigma: f64_field("sigma")?,
                }),
                (None, None) => Err(ApiError(format!(
                    "gate override {gate:?} needs \"scale\" or \"mean\""
                ))),
            }
        }
        (None, Some(input)) => {
            let input = input
                .as_str()
                .ok_or_else(|| ApiError("override \"input\" must be a string".into()))?
                .to_owned();
            let ticks = value
                .get("arrival_ticks")
                .and_then(Value::as_i64)
                .ok_or_else(|| {
                    ApiError(format!(
                        "input override {input:?} needs an integer \"arrival_ticks\""
                    ))
                })?;
            Ok(OverrideSpec::Arrival { input, ticks })
        }
        (None, None) => Err(ApiError(
            "each override needs a \"gate\" or \"input\" target".into(),
        )),
    }
}

/// Parses a span-trace detail level name.
///
/// # Errors
///
/// [`ApiError`] on an unknown level name.
pub fn parse_trace_level(s: &str) -> Result<TraceLevel, ApiError> {
    match s {
        "phases" => Ok(TraceLevel::Phases),
        "nodes" => Ok(TraceLevel::Nodes),
        "kernels" => Ok(TraceLevel::Kernels),
        other => Err(ApiError(format!(
            "unknown trace level {other:?} (have: phases, nodes, kernels)"
        ))),
    }
}

/// Parses a `prefix:name` circuit spec string.
///
/// # Errors
///
/// [`ApiError`] on an unknown prefix or unknown sample/profile name.
pub fn parse_circuit_spec(spec: &str) -> Result<CircuitSpec, ApiError> {
    if let Some(name) = spec.strip_prefix("sample:") {
        if !matches!(name, "c17" | "mux2" | "fig6") {
            return Err(ApiError(format!(
                "unknown sample {name:?} (have: c17, mux2, fig6)"
            )));
        }
        return Ok(CircuitSpec::Sample(name.to_owned()));
    }
    if let Some(name) = spec.strip_prefix("profile:") {
        if profile_by_name(name).is_none() {
            let names: Vec<&str> = pep_netlist::generate::IscasProfile::all()
                .iter()
                .map(|p| p.name())
                .collect();
            return Err(ApiError(format!(
                "unknown profile {name:?} (have: {})",
                names.join(", ")
            )));
        }
        return Ok(CircuitSpec::Profile(name.to_owned()));
    }
    Err(ApiError(format!(
        "bad circuit spec {spec:?}: expected \"sample:<name>\" or \"profile:<name>\" \
         (file paths are not served; send inline \"bench\" text instead)"
    )))
}

/// Looks up an ISCAS profile by its canonical name.
pub fn profile_by_name(name: &str) -> Option<pep_netlist::generate::IscasProfile> {
    pep_netlist::generate::IscasProfile::all()
        .into_iter()
        .find(|p| p.name() == name)
}

/// Materializes the netlist a spec describes.
///
/// # Errors
///
/// [`ApiError`] when inline `.bench` text fails to parse. Sample and
/// profile names were validated at request-parse time.
pub fn build_netlist(spec: &CircuitSpec) -> Result<Netlist, ApiError> {
    match spec {
        CircuitSpec::Sample(name) => Ok(match name.as_str() {
            "c17" => pep_netlist::samples::c17(),
            "mux2" => pep_netlist::samples::mux2(),
            _ => pep_netlist::samples::fig6(),
        }),
        CircuitSpec::Profile(name) => {
            let profile = profile_by_name(name)
                .ok_or_else(|| ApiError(format!("unknown profile {name:?}")))?;
            Ok(pep_netlist::generate::iscas_profile(profile))
        }
        CircuitSpec::Bench { name, text } => pep_netlist::parse_bench(name, text)
            .map_err(|e| ApiError(format!("bad .bench text: {e}"))),
    }
}

/// Overlays a (partial) JSON config object onto
/// [`AnalysisConfig::default`], rejecting unknown fields.
fn parse_config(value: &Value) -> Result<AnalysisConfig, ApiError> {
    let map = value
        .as_map()
        .ok_or_else(|| ApiError("\"config\" must be a JSON object".into()))?;
    const KNOWN: &[&str] = &[
        "samples",
        "min_event_prob",
        "supergate_depth",
        "max_effective_stems",
        "max_conditioning_events",
        "conditioning_resolution",
        "filter_stems",
        "threads",
        "mode",
        "budget",
    ];
    for (key, _) in map {
        if !KNOWN.contains(&key.as_str()) {
            return Err(ApiError(format!(
                "unknown config field {key:?} (known: {})",
                KNOWN.join(", ")
            )));
        }
    }
    let mut config = AnalysisConfig::default();
    if let Some(v) = value.get("samples") {
        config.samples = usize_field(v, "config.samples")?;
    }
    if let Some(v) = value.get("min_event_prob") {
        let p = v
            .as_f64()
            .ok_or_else(|| ApiError("config.min_event_prob must be a number".into()))?;
        if !(0.0..1.0).contains(&p) {
            return Err(ApiError(format!(
                "config.min_event_prob must be in [0, 1), got {p}"
            )));
        }
        config.min_event_prob = p;
    }
    if let Some(v) = value.get("supergate_depth") {
        config.supergate_depth = opt_field(v, "config.supergate_depth")?
            .map(|d: u64| u32::try_from(d).unwrap_or(u32::MAX));
    }
    if let Some(v) = value.get("max_effective_stems") {
        config.max_effective_stems = opt_usize_field(v, "config.max_effective_stems")?;
    }
    if let Some(v) = value.get("max_conditioning_events") {
        config.max_conditioning_events = opt_usize_field(v, "config.max_conditioning_events")?;
    }
    if let Some(v) = value.get("conditioning_resolution") {
        config.conditioning_resolution = opt_usize_field(v, "config.conditioning_resolution")?;
    }
    if let Some(v) = value.get("filter_stems") {
        config.filter_stems = v
            .as_bool()
            .ok_or_else(|| ApiError("config.filter_stems must be a boolean".into()))?;
    }
    if let Some(v) = value.get("threads") {
        config.threads = usize_field(v, "config.threads")?;
    }
    if let Some(v) = value.get("mode") {
        let mode = v
            .as_str()
            .ok_or_else(|| ApiError("config.mode must be a string".into()))?;
        config.mode = match mode {
            "latest" | "Latest" => CombineMode::Latest,
            "earliest" | "Earliest" => CombineMode::Earliest,
            other => {
                return Err(ApiError(format!(
                    "config.mode must be \"latest\" or \"earliest\", got {other:?}"
                )))
            }
        };
    }
    if let Some(v) = value.get("budget") {
        config.budget = parse_budget(v)?;
    }
    Ok(config)
}

fn parse_budget(value: &Value) -> Result<Option<Budget>, ApiError> {
    if matches!(value, Value::Null) {
        return Ok(None);
    }
    let map = value
        .as_map()
        .ok_or_else(|| ApiError("config.budget must be a JSON object or null".into()))?;
    const KNOWN: &[&str] = &[
        "deadline_ms",
        "max_combinations",
        "max_event_bytes",
        "max_stems_per_supergate",
        "fail_fast",
    ];
    for (key, _) in map {
        if !KNOWN.contains(&key.as_str()) {
            return Err(ApiError(format!(
                "unknown budget field {key:?} (known: {})",
                KNOWN.join(", ")
            )));
        }
    }
    let mut budget = Budget::default();
    if let Some(v) = value.get("deadline_ms") {
        budget.deadline_ms = opt_field(v, "budget.deadline_ms")?;
    }
    if let Some(v) = value.get("max_combinations") {
        budget.max_combinations = opt_field(v, "budget.max_combinations")?;
    }
    if let Some(v) = value.get("max_event_bytes") {
        budget.max_event_bytes = opt_usize_field(v, "budget.max_event_bytes")?;
    }
    if let Some(v) = value.get("max_stems_per_supergate") {
        budget.max_stems_per_supergate = opt_usize_field(v, "budget.max_stems_per_supergate")?;
    }
    if let Some(v) = value.get("fail_fast") {
        budget.fail_fast = v
            .as_bool()
            .ok_or_else(|| ApiError("budget.fail_fast must be a boolean".into()))?;
    }
    Ok(Some(budget))
}

fn usize_field(v: &Value, what: &str) -> Result<usize, ApiError> {
    let n = v
        .as_u64()
        .ok_or_else(|| ApiError(format!("{what} must be a non-negative integer")))?;
    usize::try_from(n).map_err(|_| ApiError(format!("{what} is out of range")))
}

fn opt_usize_field(v: &Value, what: &str) -> Result<Option<usize>, ApiError> {
    match v {
        Value::Null => Ok(None),
        _ => usize_field(v, what).map(Some),
    }
}

fn opt_field(v: &Value, what: &str) -> Result<Option<u64>, ApiError> {
    match v {
        Value::Null => Ok(None),
        _ => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ApiError(format!("{what} must be a non-negative integer or null"))),
    }
}

/// Arrival-time summary of one primary output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputStat {
    /// Output node name.
    pub name: String,
    /// Mean arrival time.
    pub mean: f64,
    /// Standard deviation of the arrival time.
    pub std: f64,
    /// 99th-percentile arrival time (0 when the distribution is empty).
    pub q99: f64,
}

/// The completed-job payload returned by `POST /analyze` and
/// `GET /jobs/:id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Circuit display name.
    pub circuit: String,
    /// Node count of the analyzed netlist.
    pub nodes: u64,
    /// Supergates the analysis extracted.
    pub supergates: u64,
    /// Stems actually conditioned on.
    pub stems_conditioned: u64,
    /// Per-primary-output arrival statistics.
    pub outputs: Vec<OutputStat>,
    /// Content digest over every node's full arrival distribution
    /// ([`PepAnalysis::groups_digest`]) — bit-identical runs produce
    /// identical digests, so determinism is checkable without shipping
    /// every group over the wire.
    pub groups_digest: String,
    /// Structured degradation warnings, in emission order.
    pub warnings: Vec<Warning>,
    /// The warnings aggregated by (code, knob).
    pub warning_groups: Vec<WarningGroup>,
    /// Wall-clock job time in milliseconds.
    pub elapsed_ms: u64,
    /// `true` when this result came from an incremental delta replay
    /// rather than a cold analysis.
    pub incremental: bool,
    /// The retained-state key, as a hex string: present on a retained
    /// full analysis (use it as `"base"` in delta requests) and echoed
    /// on every delta response.
    pub base: Option<String>,
    /// Delta responses only: nodes the overrides dirtied (re-evaluated
    /// rather than replayed from the retained base).
    pub dirty_nodes: Option<u64>,
}

/// Builds the response payload from a finished analysis.
pub fn job_result(
    circuit: &str,
    netlist: &Netlist,
    analysis: &PepAnalysis,
    elapsed_ms: u64,
) -> JobResult {
    let outputs = netlist
        .primary_outputs()
        .iter()
        .map(|&po| output_stat(netlist, po, analysis.group(po), analysis.step()))
        .collect();
    assemble(
        circuit,
        netlist,
        outputs,
        analysis.stats(),
        analysis.warnings().to_vec(),
        analysis.groups_digest(),
        elapsed_ms,
    )
}

/// [`job_result`] of a retained analyzer's current state, without
/// materializing the analysis: only the primary-output groups are
/// copied, and the digest rehashes only the nodes dirtied since the
/// base ([`IncrementalAnalyzer::groups_digest`]). Equal to
/// `job_result(circuit, analyzer.netlist(), &analyzer.analysis(), 0)`;
/// the caller stamps `elapsed_ms` once the reply is assembled.
pub fn retained_result(circuit: &str, analyzer: &mut IncrementalAnalyzer) -> JobResult {
    let digest = analyzer.groups_digest();
    let netlist = analyzer.netlist();
    let outputs = netlist
        .primary_outputs()
        .iter()
        .map(|&po| output_stat(netlist, po, &analyzer.group(po), analyzer.step()))
        .collect();
    let (stats, warnings) = analyzer.stats_and_warnings();
    assemble(circuit, netlist, outputs, &stats, warnings, digest, 0)
}

fn output_stat(netlist: &Netlist, po: NodeId, group: &DiscreteDist, step: TimeStep) -> OutputStat {
    OutputStat {
        name: netlist.node_name(po).to_owned(),
        mean: group.mean_time(step),
        std: group.std_time(step),
        q99: group.quantile(0.99).map_or(0.0, |t| step.time_of(t)),
    }
}

fn assemble(
    circuit: &str,
    netlist: &Netlist,
    outputs: Vec<OutputStat>,
    stats: &AnalysisStats,
    warnings: Vec<Warning>,
    digest: u64,
    elapsed_ms: u64,
) -> JobResult {
    let warning_groups = pep_obs::aggregate_warnings(&warnings);
    JobResult {
        circuit: circuit.to_owned(),
        nodes: netlist.node_count() as u64,
        supergates: stats.supergates as u64,
        stems_conditioned: stats.stems_conditioned as u64,
        outputs,
        groups_digest: format!("{digest:016x}"),
        warnings,
        warning_groups,
        elapsed_ms,
        incremental: false,
        base: None,
        dirty_nodes: None,
    }
}

/// [`PepAnalysis::groups_digest`]; the netlist argument is unused (the
/// analysis holds one group per node) and kept for existing callers.
pub fn groups_digest(_netlist: &Netlist, analysis: &PepAnalysis) -> u64 {
    analysis.groups_digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit_of(req: &AnalyzeRequest) -> &CircuitSpec {
        match &req.work {
            Work::Full { circuit, .. } => circuit,
            Work::Delta { .. } => panic!("expected a full request"),
        }
    }

    #[test]
    fn minimal_request_gets_defaults() {
        let req = parse_analyze_request(r#"{"circuit": "sample:c17"}"#).unwrap();
        assert_eq!(*circuit_of(&req), CircuitSpec::Sample("c17".into()));
        assert!(matches!(req.work, Work::Full { retain: false, .. }));
        assert_eq!(req.seed, 1);
        assert!(!req.detach);
        assert_eq!(req.config.samples, AnalysisConfig::default().samples);
    }

    #[test]
    fn delta_requests_parse_and_validate() {
        let req = parse_analyze_request(
            r#"{"base": "00ab12", "overrides": [
                {"gate": "s3", "scale": 0.8},
                {"gate": "m2", "mean": 12.5, "sigma": 1.0},
                {"input": "a", "arrival_ticks": 5}]}"#,
        )
        .unwrap();
        match &req.work {
            Work::Delta { base, overrides } => {
                assert_eq!(*base, 0xab12);
                assert_eq!(overrides.len(), 3);
                assert_eq!(
                    overrides[0],
                    OverrideSpec::Scale {
                        gate: "s3".into(),
                        factor: 0.8
                    }
                );
                assert_eq!(
                    overrides[2],
                    OverrideSpec::Arrival {
                        input: "a".into(),
                        ticks: 5
                    }
                );
            }
            other => panic!("expected delta work, got {other:?}"),
        }
        // Retained full analyses opt in with "retain".
        let req = parse_analyze_request(r#"{"circuit": "sample:fig6", "retain": true}"#).unwrap();
        assert!(matches!(req.work, Work::Full { retain: true, .. }));
    }

    #[test]
    fn bad_delta_requests_are_rejected() {
        for body in [
            // base excludes circuit/seed/config/retain.
            r#"{"base": "ab", "circuit": "sample:c17", "overrides": [{"gate": "g", "scale": 2}]}"#,
            r#"{"base": "ab", "seed": 3, "overrides": [{"gate": "g", "scale": 2}]}"#,
            r#"{"base": "ab", "retain": true, "overrides": [{"gate": "g", "scale": 2}]}"#,
            // base must be a hex string with overrides.
            r#"{"base": 12, "overrides": [{"gate": "g", "scale": 2}]}"#,
            r#"{"base": "xyz", "overrides": [{"gate": "g", "scale": 2}]}"#,
            r#"{"base": "ab"}"#,
            r#"{"base": "ab", "overrides": []}"#,
            // overrides without base are meaningless.
            r#"{"circuit": "sample:c17", "overrides": [{"gate": "g", "scale": 2}]}"#,
            // malformed override objects.
            r#"{"base": "ab", "overrides": [{"gate": "g"}]}"#,
            r#"{"base": "ab", "overrides": [{"gate": "g", "scale": 2, "mean": 3}]}"#,
            r#"{"base": "ab", "overrides": [{"gate": "g", "input": "a", "scale": 2}]}"#,
            r#"{"base": "ab", "overrides": [{"input": "a"}]}"#,
            r#"{"base": "ab", "overrides": [{"scale": 2}]}"#,
            r#"{"base": "ab", "overrides": [{"gate": "g", "size": 2}]}"#,
            r#"{"base": "ab", "overrides": [7]}"#,
            r#"{"base": "ab", "overrides": {"gate": "g"}}"#,
        ] {
            assert!(parse_analyze_request(body).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn partial_config_overlays_defaults() {
        let req = parse_analyze_request(
            r#"{"circuit": "sample:fig6", "seed": 9,
                "config": {"threads": 4, "mode": "earliest",
                           "budget": {"deadline_ms": 250, "fail_fast": true}}}"#,
        )
        .unwrap();
        assert_eq!(req.seed, 9);
        assert_eq!(req.config.threads, 4);
        assert_eq!(req.config.mode, CombineMode::Earliest);
        let b = req.config.budget.expect("budget set");
        assert_eq!(b.deadline_ms, Some(250));
        assert!(b.fail_fast);
        // Untouched knobs keep their defaults.
        assert_eq!(
            req.config.supergate_depth,
            AnalysisConfig::default().supergate_depth
        );
    }

    #[test]
    fn trace_field_selects_a_level_or_rejects() {
        let req = parse_analyze_request(r#"{"circuit": "sample:c17"}"#).unwrap();
        assert_eq!(req.trace, None);
        for (name, level) in [
            ("phases", TraceLevel::Phases),
            ("nodes", TraceLevel::Nodes),
            ("kernels", TraceLevel::Kernels),
        ] {
            let body = format!(r#"{{"circuit": "sample:c17", "trace": "{name}"}}"#);
            assert_eq!(parse_analyze_request(&body).unwrap().trace, Some(level));
        }
        for body in [
            r#"{"circuit": "sample:c17", "trace": "everything"}"#,
            r#"{"circuit": "sample:c17", "trace": true}"#,
        ] {
            assert!(parse_analyze_request(body).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        for body in [
            r#"{"circuit": "sample:c17", "tweaks": 1}"#,
            r#"{"circuit": "sample:c17", "config": {"smples": 10}}"#,
            r#"{"circuit": "sample:c17", "config": {"budget": {"deadlin": 5}}}"#,
        ] {
            let err = parse_analyze_request(body).unwrap_err();
            assert!(err.0.contains("unknown"), "{body} → {err}");
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for body in [
            r#"{}"#,
            r#"{"circuit": "sample:c99"}"#,
            r#"{"circuit": "profile:s1"}"#,
            r#"{"circuit": "/etc/passwd"}"#,
            r#"{"circuit": "sample:c17", "bench": "x"}"#,
            r#"{"circuit": 7}"#,
            r#"not json"#,
            r#"[1,2,3]"#,
            r#"{"circuit": "sample:c17", "config": {"min_event_prob": 2.0}}"#,
        ] {
            assert!(parse_analyze_request(body).is_err(), "accepted: {body}");
        }
    }

    #[test]
    fn inline_bench_is_parsed() {
        let req = parse_analyze_request(
            r#"{"bench": "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "name": "tiny"}"#,
        )
        .unwrap();
        let nl = build_netlist(circuit_of(&req)).unwrap();
        assert_eq!(nl.name(), "tiny");
        assert_eq!(nl.gate_count(), 1);
        // Malformed text is a typed error, not a panic.
        assert!(build_netlist(&CircuitSpec::Bench {
            name: "bad".into(),
            text: "y = AND(a,".into()
        })
        .is_err());
    }

    #[test]
    fn job_result_round_trips_and_digests_deterministically() {
        use pep_celllib::{DelayModel, Timing};
        let nl = pep_netlist::samples::c17();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(1));
        let a = pep_core::analyze(&nl, &t, &AnalysisConfig::default());
        let b = pep_core::analyze(&nl, &t, &AnalysisConfig::default());
        let ra = job_result("c17", &nl, &a, 12);
        let rb = job_result("c17", &nl, &b, 12);
        assert_eq!(ra.groups_digest, rb.groups_digest);
        assert_eq!(ra.groups_digest.len(), 16);
        assert!(!ra.outputs.is_empty());
        let text = serde::json::to_string(&ra);
        let back: JobResult = serde::json::from_str_as(&text).unwrap();
        assert_eq!(back, ra);
        // A different seed digests differently.
        let t2 = Timing::annotate(&nl, &DelayModel::dac2001(2));
        let c = pep_core::analyze(&nl, &t2, &AnalysisConfig::default());
        assert_ne!(
            job_result("c17", &nl, &c, 0).groups_digest,
            ra.groups_digest
        );
    }

    #[test]
    fn retained_result_equals_the_materialized_one() {
        use pep_celllib::{DelayModel, Timing};
        let nl = pep_netlist::samples::fig6();
        let t = Timing::annotate(&nl, &DelayModel::dac2001(3));
        let mut incr = IncrementalAnalyzer::new(&nl, &t, &AnalysisConfig::default()).unwrap();
        let gate = nl.node_id("s3").unwrap();
        for factor in [None, Some(1.7), Some(0.6)] {
            if let Some(factor) = factor {
                incr.apply_delta(&pep_core::Delta::ScaleCell { gate, factor })
                    .unwrap();
            }
            let full = job_result("fig6", &nl, &incr.analysis(), 0);
            assert_eq!(retained_result("fig6", &mut incr), full, "{factor:?}");
        }
    }
}
