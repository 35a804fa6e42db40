//! Campaign execution: builds a deterministic rate-converting pipeline
//! per seed, runs every sweep cell in parallel, checks hard invariants,
//! and classifies every run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cg_runtime::{run, run_parallel, PacingReport, Program, RunReport, SimConfig, WatchdogStats};
use cg_telemetry::{to_jsonl, to_prometheus, TelemetryConfig, TelemetryReport};
use cg_trace::{analyze, text, to_chrome_json, TraceConfig};
use commguard::graph::{GraphBuilder, NodeId, NodeKind, StreamGraph};
use commguard::Protection;

use crate::spec::{CampaignSpec, ExecutorKind, RunCell};

/// Stall timeout for threaded cells: long enough that healthy peers
/// always beat it, short enough that a genuinely wedged port escalates
/// within a campaign-friendly wall-clock budget.
const PAR_STALL: Duration = Duration::from_millis(150);

/// Frame retry budget for threaded cells; beyond it a frame degrades.
const PAR_RETRY_BUDGET: u32 = 3;

/// How one run ended, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Bit-exact against the error-free golden output.
    Ok,
    /// Structurally exact (right sink length) but data differs.
    DataDegraded,
    /// Wrong sink length: stream structure was lost.
    StructuralMismatch,
    /// Hit the round cap without completing.
    Hang,
}

impl Outcome {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::DataDegraded => "degraded",
            Outcome::StructuralMismatch => "mismatch",
            Outcome::Hang => "hang",
        }
    }
}

/// The result of one run of the sweep.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The sweep cell this run belongs to.
    pub cell: RunCell,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Whether the run finished before the round cap.
    pub completed: bool,
    /// Items collected at the sink.
    pub sink_len: usize,
    /// Items the schedule says the sink must collect.
    pub expected_len: usize,
    /// Faults injected across all cores.
    pub faults: u64,
    /// QM timeouts fired across all cores.
    pub timeouts: u64,
    /// Watchdog escalations (all rungs).
    pub watchdog_escalations: u64,
    /// Full per-rung watchdog counters, including the threaded executor's
    /// frame retries and degradations.
    pub watchdog: WatchdogStats,
    /// AM pad + discard events across all cores.
    pub realign_events: u64,
    /// Deepest any queue got (units), consumer-side attribution. Queue
    /// stats are always on, so this is filled whether or not the
    /// telemetry plane is enabled.
    pub max_queue_occupancy: u64,
    /// Blocked queue operations (pushes + pops) across all edges.
    pub blocked_ops: u64,
    /// Frame-latency percentiles `(p50, p99)` from the telemetry plane,
    /// merged over all cores, in the run's clock unit (scheduler rounds
    /// for det cells, microseconds for threaded). `None` when the
    /// campaign ran without telemetry.
    pub frame_latency: Option<(u64, u64)>,
    /// Path of the dumped telemetry snapshot series (`.jsonl`; a `.prom`
    /// sibling sits next to it), when the campaign ran with telemetry.
    pub telemetry_file: Option<String>,
    /// Deadline accounting when the campaign ran paced
    /// ([`CampaignSpec::pacing`]): on-time/missed frame counts, deadline
    /// degradations, and the latency/slack histograms. `None` on
    /// self-timed sweeps.
    pub pacing: Option<PacingReport>,
    /// Hard-invariant violations (always empty for a passing campaign).
    pub violations: Vec<String>,
    /// Path of the dumped trace, when this run was bad enough to keep one
    /// (tracing enabled and the run violated, mismatched, or hung).
    pub trace_file: Option<String>,
    /// Fault-propagation chains from the post-mortem analyzer, one
    /// rendered line per chain (only filled alongside `trace_file`).
    pub propagation: Vec<String>,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The sweep that was run.
    pub spec: CampaignSpec,
    /// One record per run, in cell order.
    pub runs: Vec<RunRecord>,
    /// Worker threads the sweep actually ran on. `spec.threads == 0`
    /// means "auto", which resolves to `available_parallelism()` — or
    /// silently to 4 when that probe fails — so the resolved count is
    /// recorded here rather than left implicit.
    pub workers: usize,
}

impl CampaignReport {
    /// All invariant violations across the campaign.
    pub fn violations(&self) -> Vec<(&RunRecord, &str)> {
        self.runs
            .iter()
            .flat_map(|r| r.violations.iter().map(move |v| (r, v.as_str())))
            .collect()
    }

    /// Outcome counts as (ok, degraded, mismatch, hang).
    pub fn outcome_counts(&self, filter: impl Fn(&RunRecord) -> bool) -> [usize; 4] {
        let mut c = [0usize; 4];
        for r in self.runs.iter().filter(|r| filter(r)) {
            c[r.outcome as usize] += 1;
        }
        c
    }
}

/// A tiny deterministic generator for per-seed pipeline shapes
/// (split-mix style; no external RNG needed here).
struct ShapeRng(u64);

impl ShapeRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Per-seed pipeline shape: `src → f1 → … → fk → snk` with
/// rate-converting hops.
fn shape(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = ShapeRng(seed ^ 0xc0ff_ee00);
    let hops = rng.range(2, 4) as usize;
    (0..hops)
        .map(|_| (rng.range(1, 6) as u32, rng.range(1, 6) as u32))
        .collect()
}

fn build_graph(rates: &[(u32, u32)]) -> (StreamGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::new("campaign");
    let mut ids = vec![b.add_node("src", NodeKind::Source)];
    for i in 1..rates.len() {
        ids.push(b.add_node(format!("f{i}"), NodeKind::Filter));
    }
    ids.push(b.add_node("snk", NodeKind::Sink));
    for (i, &(push, pop)) in rates.iter().enumerate() {
        b.connect(ids[i], ids[i + 1], push, pop)
            .expect("pipeline edge");
    }
    (b.build().expect("valid pipeline"), ids)
}

/// Binds deterministic work: the source counts up; filters fold their
/// pops into their push rate with a stage salt.
fn program(rates: &[(u32, u32)]) -> (Program, NodeId) {
    let (graph, ids) = build_graph(rates);
    let mut p = Program::new(graph);
    let src_push = rates[0].0;
    let mut next = 0u32;
    p.set_source(ids[0], move |out| {
        for _ in 0..src_push {
            out.push(next);
            next = next.wrapping_add(1);
        }
    });
    for (i, id) in ids.iter().enumerate().skip(1).take(ids.len() - 2) {
        let (push, _pop) = rates[i];
        let salt = i as u32 * 1000;
        p.set_filter(*id, move |inp, out| {
            let sum: u32 = inp[0].iter().fold(0, |a, &b| a.wrapping_add(b));
            for k in 0..push {
                let v = inp[0].get(k as usize).copied().unwrap_or(sum);
                out[0].push(v.wrapping_add(salt));
            }
        });
    }
    (p, *ids.last().expect("sink"))
}

/// Error-free golden output for this seed's pipeline.
fn golden(spec: &CampaignSpec, seed: u64) -> Vec<u32> {
    let rates = shape(seed);
    let (p, snk) = program(&rates);
    let cfg = SimConfig::error_free(spec.frames)
        .seed(seed)
        .frames(spec.frames);
    let report = run(p, &cfg).expect("error-free golden run");
    assert!(report.completed, "golden run must complete");
    report.sink_output(snk).to_vec()
}

fn total_realign_events(report: &RunReport) -> u64 {
    let subops = report.total_subops();
    subops.pad_events + subops.discard_events
}

/// Classifies a finished run against the golden output.
fn classify(completed: bool, sink: &[u32], expected: &[u32]) -> Outcome {
    if !completed {
        Outcome::Hang
    } else if sink.len() != expected.len() {
        Outcome::StructuralMismatch
    } else if sink != expected {
        Outcome::DataDegraded
    } else {
        Outcome::Ok
    }
}

/// Paced-run invariant, shared by both executors: a guarded paced run
/// must carry a deadline report accounting for every scheduled frame —
/// a frame the degradation ladder loses track of is a silent stall.
fn check_pacing(spec: &CampaignSpec, report: &RunReport, violations: &mut Vec<String>) {
    if spec.pacing.is_none() {
        return;
    }
    match report.pacing.as_ref() {
        None => violations.push("paced run carries no pacing report".to_string()),
        Some(p) if p.frames_observed() != spec.frames => violations.push(format!(
            "pacing accounted {} of {} frames",
            p.frames_observed(),
            spec.frames
        )),
        Some(_) => {}
    }
}

/// The telemetry config a sweep cell runs under.
fn cell_telemetry(spec: &CampaignSpec) -> TelemetryConfig {
    if spec.telemetry_dir.is_some() {
        TelemetryConfig::enabled()
    } else {
        TelemetryConfig::Off
    }
}

/// Merged frame-latency percentiles `(p50, p99)` from a run's telemetry.
fn frame_latency(report: &RunReport) -> Option<(u64, u64)> {
    report.telemetry.as_ref().map(|t| {
        let h = t.merged_latency();
        (h.quantile(0.50), h.quantile(0.99))
    })
}

/// Dumps a run's telemetry as a Prometheus `.prom` + snapshot `.jsonl`
/// pair. Returns the `.jsonl` path, or `None` (with a stderr note) when
/// the directory is unwritable — a diagnostics failure must not abort
/// the campaign.
fn dump_telemetry(dir: &str, cell: RunCell, telemetry: &TelemetryReport) -> Option<String> {
    let stem = format!(
        "telemetry_{}_{}_{}_{}",
        slug(cell.class.label()),
        cell.mtbe.as_instructions(),
        slug(cell.protection.label()),
        cell.seed
    );
    let base = std::path::Path::new(dir).join(&stem);
    let jsonl_path = base.with_extension("jsonl");
    let write = |path: &std::path::Path, body: String| -> bool {
        std::fs::write(path, body).map_or_else(
            |e| {
                eprintln!("campaign: cannot write {}: {e}", path.display());
                false
            },
            |()| true,
        )
    };
    if !write(&jsonl_path, to_jsonl(telemetry)) {
        return None;
    }
    write(&base.with_extension("prom"), to_prometheus(telemetry));
    Some(jsonl_path.to_string_lossy().into_owned())
}

/// Keeps a post-mortem for a bad run (trace path + propagation chains),
/// when the campaign is traced. Bit-exact runs have nothing to dump.
fn postmortem(
    spec: &CampaignSpec,
    cell: RunCell,
    report: &RunReport,
    bad: bool,
) -> (Option<String>, Vec<String>) {
    let Some(dir) = &spec.trace_dir else {
        return (None, Vec::new());
    };
    if !bad {
        return (None, Vec::new());
    }
    let data = report.trace.as_ref().expect("tracing was enabled");
    let analysis = analyze(&data.records);
    let propagation = analysis.chains.iter().map(|c| c.to_string()).collect();
    (dump_trace(dir, cell, &data.records, &analysis), propagation)
}

/// Executes one sweep cell on the configured executor.
fn run_cell(spec: &CampaignSpec, cell: RunCell, expected: &[u32]) -> RunRecord {
    match spec.executor {
        ExecutorKind::Deterministic => run_cell_det(spec, cell, expected),
        ExecutorKind::Threaded => run_cell_threaded(spec, cell, expected),
    }
}

/// Executes one deterministic-executor cell and evaluates its invariants.
fn run_cell_det(spec: &CampaignSpec, cell: RunCell, expected: &[u32]) -> RunRecord {
    let rates = shape(cell.seed);
    let (p, snk) = program(&rates);
    let cfg = SimConfig {
        protection: cell.protection,
        inject: true,
        mtbe: cell.mtbe,
        fault_class: cell.class,
        queue_capacity: spec.queue_capacity,
        max_rounds: spec.max_rounds,
        trace: if spec.trace_dir.is_some() {
            TraceConfig::ring()
        } else {
            TraceConfig::Off
        },
        telemetry: cell_telemetry(spec),
        ..SimConfig::error_free(spec.frames)
    }
    .seed(cell.seed);
    let cfg = match spec.pacing {
        Some(p) => cfg.pacing(p),
        None => cfg,
    };
    // Invariant: every run terminates. `run` itself is bounded by
    // `max_rounds`, so returning at all proves termination; anything
    // else (a panic) aborts the campaign loudly.
    let report = run(p, &cfg).expect("runs never error at runtime");

    let sink = report.sink_output(snk);
    let outcome = classify(report.completed, sink, expected);

    let realign_events = total_realign_events(&report);
    // Structural bound on realignment work: each in-port decides pad vs
    // discard at most once per frame transition (plus start/finish), and
    // a discard episode can split across a frame's header+data. Edges ==
    // in-ports in a pipeline.
    let realign_bound = (spec.frames + 2) * rates.len() as u64 * 2;

    let mut violations = Vec::new();
    if cell.protection.guards_enabled() {
        if !report.completed {
            violations.push("commguard run hit the round cap".to_string());
        }
        if sink.len() != expected.len() {
            violations.push(format!(
                "commguard sink length {} != scheduled {}",
                sink.len(),
                expected.len()
            ));
        }
        if realign_events > realign_bound {
            violations.push(format!(
                "realignment events {realign_events} exceed structural bound {realign_bound}"
            ));
        }
        check_pacing(spec, &report, &mut violations);
    }

    let sink_len = sink.len();
    let bad = !violations.is_empty() || outcome != Outcome::Ok;
    let (trace_file, propagation) = postmortem(spec, cell, &report, bad);
    let telemetry_file = spec
        .telemetry_dir
        .as_ref()
        .zip(report.telemetry.as_ref())
        .and_then(|(dir, t)| dump_telemetry(dir, cell, t));

    RunRecord {
        cell,
        outcome,
        completed: report.completed,
        sink_len,
        expected_len: expected.len(),
        faults: report.total_faults().total(),
        timeouts: report.total_timeouts(),
        watchdog_escalations: report.watchdog.total_escalations(),
        watchdog: report.watchdog,
        realign_events,
        max_queue_occupancy: report.max_queue_occupancy(),
        blocked_ops: report.queues.blocked_pushes + report.queues.blocked_pops,
        frame_latency: frame_latency(&report),
        telemetry_file,
        pacing: report.pacing,
        violations,
        trace_file,
        propagation,
    }
}

/// Fault-free header traffic for this seed's pipeline under a given
/// protection mode, from the deterministic executor. The threaded
/// executor's frame retry/degrade ladder must conserve this exactly:
/// headers are pushed once per frame boundary, never per attempt.
fn golden_header_pushes(spec: &CampaignSpec, seed: u64, protection: Protection) -> u64 {
    let rates = shape(seed);
    let (p, _) = program(&rates);
    let cfg = SimConfig {
        protection,
        inject: false,
        queue_capacity: spec.queue_capacity,
        ..SimConfig::error_free(spec.frames)
    }
    .seed(seed);
    run(p, &cfg)
        .expect("fault-free golden run")
        .queues
        .header_pushes
}

/// Executes one threaded-executor cell and evaluates its invariants:
/// guarded runs must complete, keep a frame-exact sink, conserve the
/// fault-free header traffic, and stay inside the frame retry budget.
fn run_cell_threaded(spec: &CampaignSpec, cell: RunCell, expected: &[u32]) -> RunRecord {
    let rates = shape(cell.seed);
    let node_count = rates.len() as u64 + 1;
    let (p, snk) = program(&rates);
    let cfg = SimConfig {
        protection: cell.protection,
        inject: true,
        mtbe: cell.mtbe,
        fault_class: cell.class,
        queue_capacity: spec.queue_capacity,
        stall_timeout: PAR_STALL,
        par_retry_budget: PAR_RETRY_BUDGET,
        trace: if spec.trace_dir.is_some() {
            TraceConfig::ring()
        } else {
            TraceConfig::Off
        },
        telemetry: cell_telemetry(spec),
        ..SimConfig::error_free(spec.frames)
    }
    .seed(cell.seed);
    let cfg = match spec.pacing {
        Some(p) => cfg.pacing(p),
        None => cfg,
    };

    // Liveness is the threaded executor's own contract: every blocking
    // operation times out and every frame either retries within budget or
    // degrades, so `run_parallel` returning at all proves termination. An
    // `Err` (a worker died) is a liveness failure, classified as a hang.
    let report = match run_parallel(p, &cfg) {
        Ok(r) => r,
        Err(e) => {
            let mut violations = Vec::new();
            if cell.protection.guards_enabled() {
                violations.push(format!("threaded run errored: {e}"));
            }
            return RunRecord {
                cell,
                outcome: Outcome::Hang,
                completed: false,
                sink_len: 0,
                expected_len: expected.len(),
                faults: 0,
                timeouts: 0,
                watchdog_escalations: 0,
                watchdog: WatchdogStats::default(),
                realign_events: 0,
                max_queue_occupancy: 0,
                blocked_ops: 0,
                frame_latency: None,
                telemetry_file: None,
                pacing: None,
                violations,
                trace_file: None,
                propagation: Vec::new(),
            };
        }
    };

    let sink = report.sink_output(snk);
    let outcome = classify(report.completed, sink, expected);

    let mut violations = Vec::new();
    if cell.protection.guards_enabled() {
        if !report.completed {
            violations.push("threaded commguard run did not complete".to_string());
        }
        if sink.len() != expected.len() {
            violations.push(format!(
                "threaded commguard sink length {} != scheduled {}",
                sink.len(),
                expected.len()
            ));
        }
        let golden_headers = golden_header_pushes(spec, cell.seed, cell.protection);
        if report.queues.header_pushes != golden_headers {
            violations.push(format!(
                "header conservation violated: {} pushed, golden {}",
                report.queues.header_pushes, golden_headers
            ));
        }
        let retry_bound = u64::from(PAR_RETRY_BUDGET) * spec.frames * node_count;
        if report.watchdog.frame_retries > retry_bound {
            violations.push(format!(
                "frame retries {} exceed budget bound {retry_bound}",
                report.watchdog.frame_retries
            ));
        }
        check_pacing(spec, &report, &mut violations);
    }

    let sink_len = sink.len();
    let realign_events = total_realign_events(&report);
    let bad = !violations.is_empty() || outcome != Outcome::Ok;
    let (trace_file, propagation) = postmortem(spec, cell, &report, bad);
    let telemetry_file = spec
        .telemetry_dir
        .as_ref()
        .zip(report.telemetry.as_ref())
        .and_then(|(dir, t)| dump_telemetry(dir, cell, t));

    RunRecord {
        cell,
        outcome,
        completed: report.completed,
        sink_len,
        expected_len: expected.len(),
        faults: report.total_faults().total(),
        timeouts: report.total_timeouts(),
        watchdog_escalations: report.watchdog.total_escalations(),
        watchdog: report.watchdog,
        realign_events,
        max_queue_occupancy: report.max_queue_occupancy(),
        blocked_ops: report.queues.blocked_pushes + report.queues.blocked_pops,
        frame_latency: frame_latency(&report),
        telemetry_file,
        pacing: report.pacing,
        violations,
        trace_file,
        propagation,
    }
}

/// Writes a bad run's trace as text, Chrome JSON, and a propagation
/// summary. Returns the text-trace path, or `None` (with a stderr note)
/// when the directory is unwritable — a diagnostics failure must not
/// abort the campaign.
fn dump_trace(
    dir: &str,
    cell: RunCell,
    records: &[cg_trace::TraceRecord],
    analysis: &cg_trace::Analysis,
) -> Option<String> {
    let stem = format!(
        "trace_{}_{}_{}_{}",
        slug(cell.class.label()),
        cell.mtbe.as_instructions(),
        slug(cell.protection.label()),
        cell.seed
    );
    let base = std::path::Path::new(dir).join(&stem);
    let trace_path = base.with_extension("trace");
    let write = |path: &std::path::Path, body: String| -> bool {
        std::fs::write(path, body).map_or_else(
            |e| {
                eprintln!("campaign: cannot write {}: {e}", path.display());
                false
            },
            |()| true,
        )
    };
    if !write(&trace_path, text::to_text(records)) {
        return None;
    }
    write(
        &base.with_extension("chrome.json"),
        to_chrome_json(&stem, records),
    );
    write(
        &base.with_extension("propagation.txt"),
        analysis.to_string(),
    );
    Some(trace_path.to_string_lossy().into_owned())
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Runs the whole sweep on `spec.threads` workers.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    if let Some(dir) = &spec.trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("campaign: cannot create trace dir {dir}: {e}");
        }
    }
    if let Some(dir) = &spec.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("campaign: cannot create telemetry dir {dir}: {e}");
        }
    }
    let cells = spec.cells();
    // One golden run per distinct seed, shared by every cell.
    let goldens: Vec<Vec<u32>> = (1..=spec.seeds).map(|s| golden(spec, s)).collect();

    let threads = if spec.threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        spec.threads
    }
    .min(cells.len().max(1));

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; cells.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&cell) = cells.get(i) else { break };
                let expected = &goldens[(cell.seed - 1) as usize];
                let record = run_cell(spec, cell, expected);
                results.lock().expect("no poisoned workers")[i] = Some(record);
            });
        }
    });

    let runs = results
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    CampaignReport {
        spec: spec.clone(),
        runs,
        workers: threads,
    }
}

/// A tiny sweep usable from unit tests.
pub fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        seeds: 2,
        frames: 8,
        ..CampaignSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_fault::FaultClass;
    use commguard::Protection;

    #[test]
    fn shapes_are_deterministic_and_varied() {
        assert_eq!(shape(1), shape(1));
        assert_ne!(shape(1), shape(2));
        for seed in 1..=20 {
            for (push, pop) in shape(seed) {
                assert!((1..=6).contains(&push) && (1..=6).contains(&pop));
            }
        }
    }

    #[test]
    fn golden_is_reproducible() {
        let spec = smoke_spec();
        assert_eq!(golden(&spec, 1), golden(&spec, 1));
        assert!(!golden(&spec, 1).is_empty());
    }

    #[test]
    fn error_free_cell_is_bit_exact() {
        let spec = smoke_spec();
        let expected = golden(&spec, 1);
        let cell = RunCell {
            class: FaultClass::Baseline,
            mtbe: cg_fault::Mtbe::instructions(256),
            protection: Protection::ErrorFree,
            seed: 1,
        };
        let r = run_cell(&spec, cell, &expected);
        assert_eq!(r.outcome, Outcome::Ok);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn smoke_campaign_upholds_commguard_invariants() {
        let report = run_campaign(&smoke_spec());
        assert_eq!(report.runs.len(), report.spec.total_runs());
        let bad = report.violations();
        assert!(
            bad.is_empty(),
            "invariant violations: {:?}",
            bad.iter()
                .map(|(r, v)| format!(
                    "[{} mtbe={} {} seed={}] {v}",
                    r.cell.class,
                    r.cell.mtbe.as_instructions(),
                    r.cell.protection.label(),
                    r.cell.seed
                ))
                .collect::<Vec<_>>()
        );
        // Every run terminated (hang is a classification, not a panic).
        assert!(report.runs.iter().all(|r| r.sink_len <= 1_000_000));
        // Untraced campaigns never dump.
        assert!(report.runs.iter().all(|r| r.trace_file.is_none()));
        // The auto-resolved worker count is recorded, never left implicit.
        assert!(report.workers >= 1);
        assert!(report.workers <= report.spec.total_runs());
    }

    #[test]
    fn threaded_smoke_campaign_upholds_invariants() {
        let spec = CampaignSpec {
            executor: ExecutorKind::Threaded,
            classes: vec![
                FaultClass::Baseline,
                FaultClass::Burst,
                FaultClass::HeaderCorruption,
            ],
            mtbes: vec![cg_fault::Mtbe::instructions(256)],
            seeds: 2,
            frames: 8,
            ..CampaignSpec::default()
        };
        let report = run_campaign(&spec);
        assert_eq!(report.runs.len(), spec.total_runs());
        let bad = report.violations();
        assert!(
            bad.is_empty(),
            "threaded invariant violations: {:?}",
            bad.iter().map(|(_, v)| v).collect::<Vec<_>>()
        );
        // Guarded threaded cells never hang and stay frame-exact.
        for r in report
            .runs
            .iter()
            .filter(|r| r.cell.protection.guards_enabled())
        {
            assert!(r.completed, "{:?}", r.cell);
            assert_eq!(r.sink_len, r.expected_len, "{:?}", r.cell);
        }
        // The sweep genuinely injected faults somewhere.
        assert!(report.runs.iter().map(|r| r.faults).sum::<u64>() > 0);
    }

    #[test]
    fn paced_det_smoke_campaign_accounts_every_frame() {
        let spec = CampaignSpec {
            pacing: Some(ExecutorKind::Deterministic.default_pacing()),
            ..smoke_spec()
        };
        let report = run_campaign(&spec);
        let bad = report.violations();
        assert!(
            bad.is_empty(),
            "paced invariant violations: {:?}",
            bad.iter().map(|(_, v)| v).collect::<Vec<_>>()
        );
        for r in report
            .runs
            .iter()
            .filter(|r| r.cell.protection.guards_enabled())
        {
            let pace = r.pacing.as_ref().expect("paced record carries a report");
            assert_eq!(pace.frames_observed(), spec.frames, "{:?}", r.cell);
            assert_eq!(pace.unit, "rounds");
        }
        // Unpaced sweeps keep the field empty.
        let plain = run_campaign(&smoke_spec());
        assert!(plain.runs.iter().all(|r| r.pacing.is_none()));
    }

    #[test]
    fn paced_threaded_smoke_campaign_accounts_every_frame() {
        let spec = CampaignSpec {
            executor: ExecutorKind::Threaded,
            pacing: Some(ExecutorKind::Threaded.default_pacing()),
            classes: vec![FaultClass::Burst],
            mtbes: vec![cg_fault::Mtbe::instructions(256)],
            protections: vec![Protection::commguard()],
            seeds: 2,
            frames: 8,
            ..CampaignSpec::default()
        };
        let report = run_campaign(&spec);
        let bad = report.violations();
        assert!(
            bad.is_empty(),
            "paced threaded violations: {:?}",
            bad.iter().map(|(_, v)| v).collect::<Vec<_>>()
        );
        for r in &report.runs {
            let pace = r.pacing.as_ref().expect("paced record carries a report");
            assert_eq!(pace.frames_observed(), spec.frames, "{:?}", r.cell);
            assert_eq!(pace.unit, "us");
        }
    }

    #[test]
    fn explicit_thread_count_is_recorded_as_given() {
        let spec = CampaignSpec {
            threads: 2,
            ..smoke_spec()
        };
        let report = run_campaign(&spec);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn telemetry_campaign_dumps_every_run_and_fills_percentiles() {
        let dir =
            std::env::temp_dir().join(format!("cg-campaign-telem-test-{}", std::process::id()));
        let spec = CampaignSpec {
            classes: vec![FaultClass::Baseline],
            mtbes: vec![cg_fault::Mtbe::instructions(2048)],
            protections: vec![Protection::commguard()],
            seeds: 2,
            frames: 8,
            telemetry_dir: Some(dir.to_string_lossy().into_owned()),
            ..CampaignSpec::default()
        };
        let report = run_campaign(&spec);
        assert!(report.violations().is_empty());
        for r in &report.runs {
            let (p50, p99) = r.frame_latency.expect("telemetry percentiles filled");
            assert!(p50 <= p99);
            let jsonl = r.telemetry_file.as_ref().expect("telemetry dumped");
            let body = std::fs::read_to_string(jsonl).expect("jsonl readable");
            cg_telemetry::from_jsonl(&body).expect("jsonl parses back");
            let prom = jsonl.strip_suffix(".jsonl").expect("jsonl extension");
            let prom = std::fs::read_to_string(format!("{prom}.prom")).expect("prom sibling");
            cg_telemetry::parse_prometheus(&prom).expect("prom validates");
        }
        // Untelemetered campaigns keep the record fields cheap but filled.
        let plain = run_campaign(&CampaignSpec {
            telemetry_dir: None,
            ..spec
        });
        for r in &plain.runs {
            assert!(r.frame_latency.is_none());
            assert!(r.telemetry_file.is_none());
            assert!(r.max_queue_occupancy > 0, "queue stats are always on");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_campaign_dumps_bad_runs_only() {
        let dir =
            std::env::temp_dir().join(format!("cg-campaign-trace-test-{}", std::process::id()));
        let spec = CampaignSpec {
            classes: vec![FaultClass::PointerCorruption],
            mtbes: vec![cg_fault::Mtbe::instructions(256)],
            protections: vec![Protection::PpuUnprotectedQueue],
            seeds: 3,
            frames: 8,
            trace_dir: Some(dir.to_string_lossy().into_owned()),
            ..CampaignSpec::default()
        };
        let report = run_campaign(&spec);
        let mut dumped = 0;
        for r in &report.runs {
            let bad = !r.violations.is_empty() || r.outcome != Outcome::Ok;
            assert_eq!(r.trace_file.is_some(), bad, "dump iff the run went bad");
            if let Some(path) = &r.trace_file {
                dumped += 1;
                let body = std::fs::read_to_string(path).expect("dumped trace readable");
                assert!(!body.is_empty());
                let base = path.strip_suffix(".trace").expect("trace extension");
                assert!(std::path::Path::new(&format!("{base}.chrome.json")).exists());
                assert!(std::path::Path::new(&format!("{base}.propagation.txt")).exists());
            }
        }
        assert!(
            dumped > 0,
            "unprotected pointer corruption at MTBE 256 must break at least one of 3 seeds"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
