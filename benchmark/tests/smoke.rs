//! Runs the benchmark in `--smoke` mode, one process per (workload,
//! pass) as the driver does, and validates what it prints against the
//! root `BENCHMARK.json`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use json::Json;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {value}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_within_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = doc.get("paths").and_then(Json::as_arr).unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        assert!(valid_name(text(w, "name")));
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let end_to_end = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
    let per_layer = doc.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!(!end_to_end.is_empty() && end_to_end.len() <= 16);
    assert!(!per_layer.is_empty() && per_layer.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for m in end_to_end.iter().chain(per_layer) {
        let name = text(m, "name");
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(name.to_string()), "{name} is declared twice");
        let unit = text(m, "unit");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
        assert!(["higher", "lower"].contains(&text(m, "better")));
    }
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    for m in end_to_end {
        assert!(
            bound(m) > 0.0 && bound(m) <= 0.25,
            "{}: bound {}",
            text(m, "name"),
            bound(m)
        );
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    assert!(
        end_to_end.iter().all(|m| bound(m) <= bound(setup)),
        "setup_s has the largest bound"
    );
}

/// Runs one smoke pass; returns (unit, direction) per printed metric
/// line and the parsed last line.
fn smoke_pass(workload: &str, trace: u8) -> (BTreeMap<String, (String, String)>, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_qosc-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.05",
        ])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} trace {trace} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines = BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", w, name, _value, unit, better] = fields.as_slice() {
            assert_eq!(*w, workload);
            lines.insert(name.to_string(), (unit.to_string(), better.to_string()));
        }
    }
    let last = Json::parse(stdout.lines().last().expect("some output")).expect("last line is JSON");
    (lines, last)
}

#[test]
fn smoke_run_prints_every_declared_metric() {
    let doc = benchmark_json();
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
        let workload = text(w, "name");
        for (trace, section) in [(0u8, "end_to_end"), (1u8, "per_layer")] {
            let (lines, last) = smoke_pass(workload, trace);
            let keys: Vec<&str> = last
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                last.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} trace {trace}"
            );
            let attempted = last.get("attempted").and_then(Json::as_f64).unwrap();
            let failed = last.get("failed").and_then(Json::as_f64).unwrap();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(failed, 0.0, "{workload} trace {trace}");
            let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
            let declared = doc.get(section).and_then(Json::as_arr).unwrap();
            assert_eq!(
                metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                declared.iter().map(|m| text(m, "name")).collect::<Vec<_>>(),
                "{workload} trace {trace}: the metrics printed are not the metrics declared"
            );
            for m in declared {
                let name = text(m, "name");
                let printed = last.get("metrics").and_then(|ms| ms.get(name)).unwrap();
                assert_eq!(text(printed, "unit"), text(m, "unit"), "{name}");
                let value = printed.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {printed}"
                );
                if trace == 0 {
                    assert!(value.unwrap() > 0.0, "{workload} {name} must never be 0");
                }
                let (unit, better) = lines
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no `metric` line names {name}"));
                assert_eq!(
                    (unit.as_str(), better.as_str()),
                    (text(m, "unit"), text(m, "better"))
                );
            }
        }
    }
}
