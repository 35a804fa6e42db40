//! Host-concurrency throughput bench: the deterministic executor vs. the
//! threaded executor on its lock-free SPSC rings.
//!
//! ```text
//! parallel_throughput [--quick] [--check] [--out PATH]
//! ```
//!
//! Runs synthetic pipelines at 2/4/8 stages (= threads) plus the full app
//! suite, measures wall time for both executors, cross-checks that they
//! produce identical sink output, and writes `BENCH_parallel.json`
//! (items/sec, wall times, speedups, per-run effective core counts).
//! `--check` exits nonzero when — on hosts with enough cores to actually
//! run the guarded 4-stage pipeline in parallel — the threaded executor
//! fails its ≥2×-deterministic gate or the paced SLO gate fails. On
//! narrower hosts both gates are skipped with a loud log (the numbers
//! would only measure context-switch overhead), and the skip is recorded
//! in the JSON so archived reports can't masquerade as passes.
//! `--quick` shrinks inputs for CI smoke runs.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cg_apps::beamformer::BeamformerApp;
use cg_apps::complex_fir::ComplexFirApp;
use cg_apps::fft_app::FftApp;
use cg_apps::jpeg::JpegApp;
use cg_apps::mp3::Mp3App;
use cg_apps::vocoder::VocoderApp;
use cg_campaign::json::Json;
use cg_fault::{FaultClass, Mtbe};
use cg_runtime::{run, run_parallel, Pacing, Program, RunReport, SimConfig, TelemetryConfig};
use commguard::graph::{GraphBuilder, NodeId, NodeKind};
use commguard::Protection;

/// Units per firing on every pipeline hop: large enough that the ring
/// moves real batches per call.
const PIPELINE_RATE: u32 = 64;

/// The acceptance case for the multicore gate: the guarded 4-stage
/// pipeline must beat the deterministic executor by this factor on the
/// lock-free transport — but only when the host can actually run its
/// threads in parallel.
const MULTICORE_GATE_CASE: &str = "pipeline-4-guarded";
const MULTICORE_GATE_FLOOR: f64 = 2.0;

/// The paced SLO gate: the guarded 4-stage pipeline under burst faults,
/// released every [`PACED_GATE_PERIOD_US`] µs, must commit every frame
/// inside [`PACED_GATE_DEADLINE_US`] µs — zero deadline misses and a p99
/// release-to-commit latency within the SLO. The cadence is tight enough
/// that a stalled recovery cannot hide behind the schedule, the budget
/// loose enough that an unloaded CI worker clears it; like the multicore
/// gate it is skipped (and recorded as skipped) on hosts too narrow to
/// run the pipeline's threads in parallel. Setting the `PACED_GATE_FORCE`
/// environment variable runs the gate even on a narrow host — useful for
/// exercising the pass path where the threads merely time-slice; the
/// recorded `host_parallelism` still identifies such runs.
const PACED_GATE_CASE: &str = "pipeline-4-guarded-paced";
const PACED_GATE_PERIOD_US: u64 = 300;
const PACED_GATE_DEADLINE_US: u64 = 10_000;
const PACED_GATE_MTBE: u64 = 2_048;

struct Args {
    quick: bool,
    check: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!("usage: parallel_throughput [--quick] [--check] [--out PATH]");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        check: false,
        out: "BENCH_parallel.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--out" => {
                i += 1;
                args.out = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
        i += 1;
    }
    args
}

/// One benchmark case: a program factory plus its run configuration.
struct Case {
    name: String,
    kind: &'static str,
    guarded: bool,
    frames: u64,
    build: Box<dyn Fn() -> (Program, NodeId)>,
}

impl Case {
    fn config(&self) -> SimConfig {
        if self.guarded {
            SimConfig {
                protection: Protection::commguard(),
                inject: false,
                ..SimConfig::error_free(self.frames)
            }
        } else {
            SimConfig::error_free(self.frames)
        }
    }
}

/// A transport-dominated pipeline: `stages` nodes moving
/// [`PIPELINE_RATE`] units per hop per firing with trivial compute.
fn pipeline_case(stages: usize, frames: u64, guarded: bool) -> Case {
    let build = move || -> (Program, NodeId) {
        let mut b = GraphBuilder::new("pipeline");
        let ids: Vec<NodeId> = (0..stages)
            .map(|i| {
                let kind = if i == 0 {
                    NodeKind::Source
                } else if i == stages - 1 {
                    NodeKind::Sink
                } else {
                    NodeKind::Filter
                };
                b.add_node(format!("n{i}"), kind)
            })
            .collect();
        b.pipeline(&ids, PIPELINE_RATE).unwrap();
        let mut p = Program::new(b.build().unwrap());
        let mut next = 0u32;
        p.set_source(ids[0], move |out| {
            for _ in 0..PIPELINE_RATE {
                out.push(next);
                next = next.wrapping_add(1);
            }
        });
        for &id in &ids[1..stages - 1] {
            p.set_filter(id, |inp, out| {
                out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(0x9E37_79B1)));
            });
        }
        (p, ids[stages - 1])
    };
    Case {
        name: format!("pipeline-{stages}{}", if guarded { "-guarded" } else { "" }),
        kind: "pipeline",
        guarded,
        frames,
        build: Box::new(build),
    }
}

fn app_cases(quick: bool) -> Vec<Case> {
    // Direct app constructors (not `Workload`) so input sizes — and with
    // them the bench duration — scale with `--quick`.
    let mut cases: Vec<Case> = Vec::new();
    let mut app = |name: &str, build: Box<dyn Fn() -> (Program, NodeId)>, frames: u64| {
        cases.push(Case {
            name: name.to_string(),
            kind: "app",
            guarded: true,
            frames,
            build,
        });
    };
    let beam = BeamformerApp::new(if quick { 512 } else { 4096 });
    let frames = beam.frames();
    app("audiobeamformer", Box::new(move || beam.build()), frames);
    let voc = VocoderApp::new(if quick { 512 } else { 4096 });
    let frames = voc.frames();
    app("channelvocoder", Box::new(move || voc.build()), frames);
    let cfir = ComplexFirApp::new(if quick { 512 } else { 4096 });
    let frames = cfir.frames();
    app("complex-fir", Box::new(move || cfir.build()), frames);
    let fft = FftApp::new(if quick { 16 } else { 128 });
    let frames = fft.frames();
    app("fft", Box::new(move || fft.build()), frames);
    let jpeg = if quick {
        JpegApp::new(64, 32, 75)
    } else {
        JpegApp::small()
    };
    let frames = jpeg.frames();
    app("jpeg", Box::new(move || jpeg.build()), frames);
    let mp3 = Mp3App::new(if quick { 1024 } else { 8192 });
    let frames = mp3.frames();
    app("mp3", Box::new(move || mp3.build()), frames);
    cases
}

/// Best-of-`repeats` wall time; returns the last report for accounting.
fn time_best(repeats: u32, mut f: impl FnMut() -> RunReport) -> (Duration, RunReport) {
    let mut best = Duration::MAX;
    let mut report = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed());
        report = Some(r);
    }
    (best, report.expect("repeats >= 1"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn items_per_sec(items: u64, d: Duration) -> f64 {
    items as f64 / d.as_secs_f64().max(1e-9)
}

fn main() -> ExitCode {
    let args = parse_args();
    let repeats: u32 = if args.quick { 2 } else { 3 };
    let (pipe_frames, pipe_frames_guarded) = if args.quick {
        (2_000, 1_000)
    } else {
        (20_000, 10_000)
    };

    let mut cases = vec![
        pipeline_case(2, pipe_frames, false),
        pipeline_case(4, pipe_frames, false),
        pipeline_case(8, pipe_frames, false),
        pipeline_case(4, pipe_frames_guarded, true),
    ];
    cases.extend(app_cases(args.quick));

    let host_parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut runs: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut gate = Json::object();
    gate.set("case", MULTICORE_GATE_CASE)
        .set("floor", MULTICORE_GATE_FLOOR)
        .set("host_parallelism", host_parallelism)
        .set("status", "case-not-run");
    for case in &cases {
        let cfg = case.config();
        let threads = (case.build)().0.graph().node_count();
        let (sink, name) = ((case.build)().1, &case.name);
        // Cores this run can genuinely use: its thread count, clamped by
        // the host. Speedups only mean real parallelism when this equals
        // `threads`.
        let effective_cores = threads.min(host_parallelism.max(1));

        let (det_time, det) = time_best(repeats, || run((case.build)().0, &cfg).expect("run"));
        let (lf_time, lf) = time_best(repeats, || {
            run_parallel((case.build)().0, &cfg).expect("lock-free run")
        });

        // The numbers only mean something if both executors computed the
        // same stream.
        assert_eq!(
            lf.sink_output(sink),
            det.sink_output(sink),
            "{name}: lock-free output diverged from deterministic"
        );

        // Untimed telemetry pass on the threaded executor: frame-latency
        // percentiles for the bench trajectory. A separate run so the
        // probes can never skew the timed numbers above.
        let telem_cfg = SimConfig {
            telemetry: TelemetryConfig::enabled(),
            ..cfg.clone()
        };
        let latency = run_parallel((case.build)().0, &telem_cfg)
            .expect("telemetry run")
            .telemetry
            .expect("telemetry was enabled")
            .merged_latency();

        let items = lf.queues.item_pushes;
        let frames_f = (case.frames as f64).max(1.0);
        let lf_vs_det = ms(det_time) / ms(lf_time).max(1e-9);
        eprintln!(
            "{name:<22} threads={threads} cores={effective_cores} frames={} det={:.1}ms \
             lock-free={:.1}ms lock-free-vs-det={lf_vs_det:.2}x",
            case.frames,
            ms(det_time),
            ms(lf_time),
        );

        let mut j = Json::object();
        j.set("name", name.as_str())
            .set("kind", case.kind)
            .set("guarded", case.guarded)
            .set("threads", threads)
            .set("effective_cores", effective_cores)
            .set("frames", case.frames)
            .set("items_moved", items)
            .set("deterministic_ms", ms(det_time))
            .set("lock_free_ms", ms(lf_time))
            // Per-frame wall-clock: comparable across cases (apps and
            // pipelines run different frame counts), so the bench
            // trajectory gets app-level datapoints, not just totals.
            .set("deterministic_ms_per_frame", ms(det_time) / frames_f)
            .set("lock_free_ms_per_frame", ms(lf_time) / frames_f)
            .set("frame_latency_p50_us", latency.quantile(0.50))
            .set("frame_latency_p90_us", latency.quantile(0.90))
            .set("frame_latency_p99_us", latency.quantile(0.99))
            .set("frame_latency_max_us", latency.max())
            .set("lock_free_items_per_sec", items_per_sec(items, lf_time))
            .set("speedup_lock_free_vs_deterministic", lf_vs_det);
        runs.push(j);

        // The multicore acceptance gate: guarded pipeline-4 on the
        // threaded executor must beat the deterministic executor ≥2× —
        // but only where the host can schedule all its threads at once.
        if case.name == MULTICORE_GATE_CASE {
            gate = Json::object();
            gate.set("case", MULTICORE_GATE_CASE)
                .set("floor", MULTICORE_GATE_FLOOR)
                .set("threads", threads)
                .set("host_parallelism", host_parallelism);
            if host_parallelism >= threads {
                gate.set("speedup_lock_free_vs_deterministic", lf_vs_det);
                let pass = lf_vs_det >= MULTICORE_GATE_FLOOR;
                gate.set("status", if pass { "pass" } else { "fail" });
                if !pass {
                    failures.push(format!(
                        "{name}: lock-free-vs-deterministic speedup {lf_vs_det:.2}x < \
                         {MULTICORE_GATE_FLOOR:.1}x multicore gate \
                         ({host_parallelism} cores available for {threads} threads)"
                    ));
                }
            } else {
                // A sub-floor speedup measured on a narrow host reads as
                // a failure in archived reports, so the gate records null
                // instead of a time-slicing artifact; consumers must
                // check `status` before touching the number.
                gate.set("speedup_lock_free_vs_deterministic", Json::Null);
                gate.set("status", "skipped-single-core");
                eprintln!(
                    "{:<22} multicore gate: skipped ({host_parallelism} core(s), needs \
                     {threads})",
                    "gate"
                );
                eprintln!(
                    "==============================================================\n\
                     MULTICORE GATE SKIPPED: host has {host_parallelism} core(s) but \
                     '{name}' needs {threads} threads.\n\
                     The >= {MULTICORE_GATE_FLOOR:.1}x lock-free-vs-deterministic gate \
                     is NOT enforced on this host;\n\
                     the single-core speedup measures time-slicing, not \
                     parallelism, and is recorded as null.\n\
                     =============================================================="
                );
            }
        }
    }

    // The paced SLO gate runs once: it measures deadline discipline under
    // faults, not throughput, so the timed matrix above stays untouched.
    let paced_frames: u64 = if args.quick { 200 } else { 1_000 };
    let paced_case = pipeline_case(4, paced_frames, true);
    let paced_threads = (paced_case.build)().0.graph().node_count();
    let mut paced_gate = Json::object();
    paced_gate
        .set("case", PACED_GATE_CASE)
        .set("period_us", PACED_GATE_PERIOD_US)
        .set("deadline_us", PACED_GATE_DEADLINE_US)
        .set("mtbe_instructions", PACED_GATE_MTBE)
        .set("frames", paced_frames)
        .set("threads", paced_threads)
        .set("host_parallelism", host_parallelism);
    if host_parallelism >= paced_threads || std::env::var("PACED_GATE_FORCE").is_ok() {
        let cfg = SimConfig {
            fault_class: FaultClass::Burst,
            ..SimConfig::with_errors(
                paced_frames,
                Protection::commguard(),
                Mtbe::instructions(PACED_GATE_MTBE),
                1,
            )
        }
        .pacing(Pacing::Paced {
            period: PACED_GATE_PERIOD_US,
            deadline: PACED_GATE_DEADLINE_US,
            slo: PACED_GATE_DEADLINE_US,
        });
        let (paced_prog, paced_sink) = (paced_case.build)();
        let report = run_parallel(paced_prog, &cfg).expect("paced gate run");
        let pace = report.pacing.as_ref().expect("paced run reports pacing");
        let frame_exact =
            report.sink_output(paced_sink).len() as u64 == paced_frames * u64::from(PIPELINE_RATE);
        let pass = report.completed
            && frame_exact
            && pace.frames_observed() == paced_frames
            && pace.deadline_misses == 0
            && pace.slo_met();
        paced_gate
            .set("faults", report.total_faults().total())
            .set("frames_on_time", pace.frames_on_time)
            .set("deadline_misses", pace.deadline_misses)
            .set("degraded_for_deadline", pace.degraded_for_deadline)
            .set("p99_latency_us", pace.p99_latency())
            .set("slo_met", pace.slo_met())
            .set("status", if pass { "pass" } else { "fail" });
        eprintln!(
            "{:<22} paced gate: {} (misses={} on-time={}/{} p99={}us of {}us budget, \
             {} faults)",
            PACED_GATE_CASE,
            if pass { "pass" } else { "FAIL" },
            pace.deadline_misses,
            pace.frames_on_time,
            paced_frames,
            pace.p99_latency(),
            PACED_GATE_DEADLINE_US,
            report.total_faults().total(),
        );
        if !pass {
            failures.push(format!(
                "{PACED_GATE_CASE}: paced SLO gate failed (completed={} frame_exact={frame_exact} \
                 observed={} misses={} p99={}us, slo {}us)",
                report.completed,
                pace.frames_observed(),
                pace.deadline_misses,
                pace.p99_latency(),
                PACED_GATE_DEADLINE_US,
            ));
        }
    } else {
        paced_gate.set("status", "skipped-single-core");
        eprintln!(
            "{:<22} paced gate: skipped ({host_parallelism} core(s), needs {paced_threads})",
            PACED_GATE_CASE
        );
    }

    let mut doc = Json::object();
    doc.set("schema", "commguard-parallel-bench-v6")
        .set("mode", if args.quick { "quick" } else { "full" })
        // v4: ECC runs the table-driven batch codec and the queues move
        // slices through the zero-copy reserve/commit path; the multicore
        // gate's speedup is null when its status is a skip.
        // v5: adds the paced_slo_gate object (deadline discipline under
        // burst faults); its counters are absent when its status is a
        // skip.
        // v6: the mutex transports are gone, and with them the per-item
        // and batched columns; runs time the deterministic and lock-free
        // executors only.
        .set("ecc_mode", "batch-tabled")
        .set("transport_mode", "zero-copy-slices")
        .set("repeats", repeats)
        .set("host_parallelism", host_parallelism)
        .set("pipeline_rate", PIPELINE_RATE)
        .set("multicore_gate", gate)
        .set("paced_slo_gate", paced_gate)
        .set("runs", runs);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("parallel_throughput: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("parallel_throughput: report written to {}", args.out);

    if args.check && !failures.is_empty() {
        for f in &failures {
            eprintln!("SPEEDUP FLOOR VIOLATED: {f}");
        }
        return ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("warning (not enforced without --check): {f}");
        }
    }
    ExitCode::SUCCESS
}
