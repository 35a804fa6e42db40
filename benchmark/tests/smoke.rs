//! Runs every workload at smoke size in both modes and checks the result
//! line against BENCHMARK.json: every metric it names is present, with
//! its unit and a finite value, and nothing else is; then checks the
//! `--compare` mode on a report of its own.

use std::process::Command;

use cg_campaign::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {j:?}"))
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Runs the benchmark at smoke size and returns its exit success and the
/// parsed last line of standard output.
fn run(args: &[&str]) -> (bool, Json) {
    let out = Command::new(BIN)
        .args(["--smoke", "--seconds", "0.3", "--seed", "7"])
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("result line {last}: {e}"));
    (out.status.success(), result)
}

fn check_workload(workload: &str) {
    let spec = spec();
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, result) = run(&["--workload", workload, "--trace", trace]);
        let what = format!("{workload} --trace {trace}");
        assert!(ok, "{what} exited nonzero: {result:?}");
        let Json::Object(keys) = &result else {
            panic!("{what}: result is not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["correct", "attempted", "failed", "metrics"],
            "{what}"
        );
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Object(metrics)) = result.get("metrics") else {
            panic!("{what}: no metrics object")
        };
        let expected = list(&spec, table);
        assert_eq!(metrics.len(), expected.len(), "{what}: metric count");
        for m in expected {
            let name = str_of(m, "name");
            let got = result
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
            assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{what}: {name}");
            let value = got.get("value").and_then(number);
            assert!(
                value.is_some_and(f64::is_finite),
                "{what}: {name} = {value:?}"
            );
        }
    }
}

#[test]
fn transport_smoke() {
    check_workload("transport");
}

#[test]
fn jpeg_smoke() {
    check_workload("jpeg");
}

#[test]
fn vocoder_faulted_smoke() {
    check_workload("vocoder-faulted");
}

#[test]
fn paced_smoke() {
    check_workload("paced");
}

#[test]
fn compare_passes_a_report_against_itself_and_rejects_garbage() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("a.json");
    let report = report.to_str().expect("utf-8 path");
    let (ok, _) = run(&["--workload", "transport", "--out", report]);
    assert!(ok);
    let status = Command::new(BIN)
        .args(["--compare", report, report])
        .status()
        .expect("compare runs");
    assert!(status.success(), "a report must pass against itself");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{").expect("write");
    let status = Command::new(BIN)
        .args(["--compare", report, garbage.to_str().expect("utf-8 path")])
        .status()
        .expect("compare runs");
    assert_eq!(status.code(), Some(2), "an unreadable report is an error");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
