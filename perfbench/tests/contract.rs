//! The benchmark's contract with `BENCHMARK.json`: every metric the
//! command prints is declared there (with the same unit) and vice versa,
//! the workloads match, and each workload's tail percentile leaves at
//! least ten samples beyond it at the run length it was chosen for.

use perfbench::catalog::{catalog, END_TO_END};
use perfbench::stats::{beyond, tail_percentile_for, TailSpec, MIN_BEYOND};
use perfbench::{cold, serve, whatif, WORKLOADS};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde::json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key:?} list"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry {v:?} has a string {key:?}"))
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_owned(),
                str_field(m, "unit").to_owned(),
            )
        })
        .collect()
}

fn printed(trace: bool) -> Vec<(String, String)> {
    catalog(trace)
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect()
}

#[test]
fn printed_metrics_are_exactly_the_declared_ones() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), printed(false));
    assert_eq!(declared(&doc, "per_layer"), printed(true));
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn bounds_are_at_most_a_quarter_and_setup_has_the_largest() {
    let doc = benchmark_json();
    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    let setup = e2e
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(str_field(setup, "better"), "lower");
    for m in e2e {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{m:?}");
        assert!(bound(m) <= bound(setup), "{m:?} exceeds setup_s's bound");
    }
}

#[test]
fn each_tail_leaves_ten_samples_beyond() {
    let specs: [(&str, TailSpec); 3] = [
        ("cold-iscas", cold::TAIL),
        ("whatif-sizing", whatif::TAIL),
        ("serve-mixed", serve::TAIL),
    ];
    for (name, spec) in specs {
        assert!(
            beyond(spec.expected_n, spec.pct) >= MIN_BEYOND,
            "{name}: p{} of {} leaves too few samples beyond",
            spec.pct,
            spec.expected_n
        );
        assert_eq!(
            tail_percentile_for(spec.expected_n),
            Some(spec.pct),
            "{name}: p{} is not the highest ladder step for n = {}",
            spec.pct,
            spec.expected_n
        );
    }
}
