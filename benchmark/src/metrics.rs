//! The metric table, the per-run outcome, and its two output forms: the
//! one-line result and the detailed JSON that `--compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cg_campaign::json::Json;

use crate::stats::{regressed, Better, Summary};
use crate::workload::Workload;

/// A named metric. End-to-end metrics carry the bound, a share of the
/// base value, by which they may worsen before a change counts as a
/// regression; per-layer metrics have none.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("det_frames_per_s", "1/s", Higher, 0.2),
    e2e("threaded_frames_per_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.15),
    e2e("latency_p99_us", "us", Lower, 0.2),
    e2e("frames_ok_share", "share", Higher, 0.005),
];

/// One line per layer quantity, measured in the separate traced pass.
pub const PER_LAYER: [Metric; 37] = [
    layer("exec.base_ms_per_frame", "ms", Lower),
    layer("exec.modelled_speedup", "x", Higher),
    layer("exec.bottleneck_busy_pct", "%", Lower),
    layer("exec.wait_pct", "%", Lower),
    layer("qm.items_per_frame", "count", Lower),
    layer("qm.shared_ptr_ops_per_frame", "count", Lower),
    layer("qm.blocked_ops_per_frame", "count", Lower),
    layer("qm.ns_per_item", "ns", Lower),
    layer("qm.ecc_ptr_ms_per_frame", "ms", Lower),
    layer("ecc.checks_per_frame", "count", Lower),
    layer("ecc.ns_per_header", "ns", Lower),
    layer("hi.headers_per_frame", "count", Lower),
    layer("hi.ns_per_header", "ns", Lower),
    layer("am.fsm_ops_per_frame", "count", Lower),
    layer("am.realign_episodes", "count", Lower),
    layer("am.accept_ratio", "share", Higher),
    layer("am.ns_per_item", "ns", Lower),
    layer("am.ns_per_episode", "ns", Lower),
    layer("guard.ms_per_frame", "ms", Lower),
    layer("guard.share_pct", "%", Lower),
    layer("guard.subop_ratio", "share", Lower),
    layer("transport.ns_per_item", "ns", Lower),
    layer("transport.wake_us", "us", Lower),
    layer("transport.blocked_ops_per_frame", "count", Lower),
    layer("fault.injected_per_frame", "count", Lower),
    layer("recovery.watchdog_escalations", "count", Lower),
    layer("recovery.ms_per_frame", "ms", Lower),
    layer("recovery.frame_retries", "count", Lower),
    layer("recovery.frames_degraded_max", "count", Lower),
    layer("recovery.degraded_runs", "count", Lower),
    layer("pacing.overrun_ms", "ms", Lower),
    layer("pacing.slack_p50_us", "us", Higher),
    layer("pacing.latency_p999_us", "us", Lower),
    layer("pacing.latency_samples", "count", Higher),
    layer("quality.snr_db", "dB", Higher),
    layer("harness.coverage_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The table a mode reports: end-to-end with tracing off, per-layer with
/// it on.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Correctness bookkeeping over every program run a measurement made.
#[derive(Debug, Default)]
pub struct Checks {
    /// Program runs made.
    pub attempted: u64,
    /// One line per run that broke a correctness check.
    pub violations: Vec<String>,
}

impl Checks {
    /// Records one run; `violation` names what it got wrong, if anything.
    pub fn record(&mut self, what: &str, violation: Option<String>) {
        self.attempted += 1;
        if let Some(v) = violation {
            self.violations.push(format!("{what}: {v}"));
        }
    }
}

/// Everything one workload measured in one mode.
#[derive(Debug)]
pub struct Outcome {
    workload: Workload,
    trace: bool,
    pub checks: Checks,
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Outcome {
    pub fn new(workload: Workload, trace: bool) -> Outcome {
        Outcome {
            workload,
            trace,
            checks: Checks::default(),
            values: BTreeMap::new(),
        }
    }

    /// Sets metric `name`, which must be in this mode's table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with(name, value, None);
    }

    /// Sets metric `name` with the dispersion of the samples behind it.
    pub fn set_with(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        assert!(
            table(self.trace).iter().any(|m| m.name == name),
            "metric {name} is not in the {} table",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        let fresh = self.values.insert(name, (value, summary)).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    /// Checks that every metric of the mode's table was measured and is
    /// finite; a non-finite value counts as a failed check.
    pub fn finish(mut self) -> Outcome {
        for m in table(self.trace) {
            let (v, _) = self
                .values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was never measured", m.name));
            if !v.is_finite() {
                self.checks
                    .violations
                    .push(format!("metric {} is not finite ({v})", m.name));
            }
        }
        self
    }

    pub fn correct(&self) -> bool {
        self.checks.violations.is_empty()
    }

    fn failed(&self) -> u64 {
        self.checks.violations.len() as u64
    }

    fn value(&self, name: &str) -> f64 {
        let v = self.values[name].0;
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and every
    /// metric of the mode with its unit.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in table(self.trace).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                self.value(m.name),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.checks.attempted,
            self.failed()
        )
    }

    /// The detailed record: the result plus min/q1/median/q3/K of the
    /// samples behind each value, and the violations.
    pub fn detail(&self) -> Json {
        let mut metrics = Json::object();
        for m in table(self.trace) {
            let (_, summary) = self.values[m.name];
            let mut j = Json::object();
            j.set("value", self.value(m.name)).set("unit", m.unit);
            if let Some(s) = summary {
                j.set("min", s.min)
                    .set("q1", s.q1)
                    .set("median", s.median)
                    .set("q3", s.q3)
                    .set("max", s.max)
                    .set("k", s.k);
            }
            metrics.set(m.name, j);
        }
        let mut doc = Json::object();
        doc.set("workload", self.workload.name())
            .set("trace", u32::from(self.trace))
            .set("correct", self.correct())
            .set("attempted", self.checks.attempted)
            .set("failed", self.failed())
            .set(
                "violations",
                Json::Array(
                    self.checks
                        .violations
                        .iter()
                        .map(|v| Json::from(v.as_str()))
                        .collect(),
                ),
            )
            .set("metrics", metrics);
        doc
    }

    /// A human-readable table for standard error.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} ({}): {} runs, {} failed\n",
            self.workload.name(),
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            },
            self.checks.attempted,
            self.failed()
        );
        for m in table(self.trace) {
            let (v, summary) = self.values[m.name];
            let _ = write!(out, "  {:<34} {:>18.6} {:<6}", m.name, v, m.unit);
            if let Some(s) = summary {
                let _ = write!(
                    out,
                    "  samples: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4} K={}",
                    s.min, s.q1, s.median, s.q3, s.max, s.k
                );
            }
            out.push('\n');
        }
        const SHOWN: usize = 10;
        for v in self.checks.violations.iter().take(SHOWN) {
            let _ = writeln!(out, "  VIOLATION {v}");
        }
        if self.failed() > SHOWN as u64 {
            let _ = writeln!(out, "  ... {} more", self.failed() - SHOWN as u64);
        }
        out
    }
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Float(f) => Some(*f),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Compares two `--out` reports: for every end-to-end metric of every
/// workload both measured, prints both values and the bound, and passes
/// when `b` is no worse than `a` by more than the bound. Returns whether
/// every comparison passed.
///
/// # Errors
///
/// A message when a report cannot be read or has no comparable values.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a_doc, b_doc) = (load(a)?, load(b)?);
    let runs = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (a_runs, b_runs) = (runs(&a_doc), runs(&b_doc));
    let mut all_pass = true;
    let mut compared = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for ra in a_runs
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_u64) == Some(0))
    {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(rb) = b_runs.iter().find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(name)
                && r.get("trace").and_then(Json::as_u64) == Some(0)
        }) else {
            continue;
        };
        for m in &END_TO_END {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(number)
            };
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let pass = !regressed(m.better, bound, va, vb);
            all_pass &= pass;
            compared += 1;
            let change = if va == 0.0 { 0.0 } else { vb / va - 1.0 };
            println!(
                "{name:<16} {:<22} {va:>14.4} {vb:>14.4} {:>+6.1}% {:>6.1}%  {}",
                m.name,
                100.0 * change,
                100.0 * bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if compared == 0 {
        return Err("the two reports share no end-to-end values".into());
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        j.get(key)
            .unwrap_or_else(|| panic!("{key} missing in {j:?}"))
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_code_tables() {
        let spec = spec();
        let Json::Object(pairs) = &spec else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
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
        let workloads: Vec<&str> = field(&spec, "workloads")
            .as_array()
            .expect("a workload list")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = field(&spec, key).as_array().expect("a metric list");
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name").as_str(), Some(m.name));
                assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
                let better = match m.better {
                    Higher => "higher",
                    Lower => "lower",
                };
                assert_eq!(field(j, "better").as_str(), Some(better), "{}", m.name);
                assert_eq!(j.get("bound").and_then(number), m.bound, "{}", m.name);
            }
        }
        let run_seconds = field(&spec, "run_seconds").as_u64().expect("whole seconds");
        assert_eq!(run_seconds as f64, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn metric_names_and_bounds_follow_the_rules() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        let bounds: Vec<f64> = END_TO_END.iter().filter_map(|m| m.bound).collect();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        let largest = bounds.iter().copied().fold(0.0, f64::max);
        assert_eq!(setup.and_then(|m| m.bound), Some(largest));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_mode() {
        let mut out = Outcome::new(Workload::Transport, false);
        for m in &END_TO_END {
            out.set(m.name, 1.5);
        }
        out.checks.record("run", None);
        let out = out.finish();
        let line = Json::parse(&out.result_line()).expect("valid JSON");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = field(&line, "metrics");
        for m in &END_TO_END {
            let v = field(metrics, m.name);
            assert_eq!(v.get("value").and_then(number), Some(1.5));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
        }
    }

    #[test]
    fn a_non_finite_value_fails_the_run() {
        let mut out = Outcome::new(Workload::Paced, false);
        for m in &END_TO_END {
            out.set(
                m.name,
                if m.name == "latency_p99_us" {
                    f64::NAN
                } else {
                    1.0
                },
            );
        }
        let out = out.finish();
        assert!(!out.correct());
        assert!(out
            .result_line()
            .contains("\"latency_p99_us\": {\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "not in the end-to-end table")]
    fn per_layer_metrics_are_refused_in_the_timed_pass() {
        Outcome::new(Workload::Jpeg, false).set("qm.ns_per_item", 1.0);
    }
}
