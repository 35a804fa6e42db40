//! The traced pass: per-layer metrics, from a run separate from the timed
//! one. It times the protection variants differentially on the
//! deterministic executor, runs the threaded executor with and without the
//! telemetry probe, replays the open loop, and times single layers in the
//! harness. Every program run is checked as in the timed pass.

use std::time::{Duration, Instant};

use cg_runtime::{RunReport, SimConfig, TelemetryConfig, TelemetryReport};
use cg_telemetry::Histogram;
use commguard::Protection;

use crate::harness;
use crate::metrics::Outcome;
use crate::reference::{Exec, Reference};
use crate::stats::{hist_quantile, median, min};
use crate::workload::{Setup, Workload};

/// Share of the budget spent on closed-loop runs; paced runs take the
/// rest up to [`CLOSED_SHARE`] + [`OPEN_SHARE`], and the layer harness,
/// which runs a fixed amount of work, follows.
const CLOSED_SHARE: f64 = 0.5;
const OPEN_SHARE: f64 = 0.25;

/// SNR reported for an output bit-equal to the error-free reference,
/// whose true SNR is infinite.
const EXACT_SNR_DB: f64 = 200.0;

/// One closed-loop configuration across rounds: wall times, the first
/// report, the recovery counters of every run, and the telemetry of the
/// fastest run. Whole reports are not kept: each holds its sink streams.
struct Timed {
    name: &'static str,
    exec: Exec,
    cfg: SimConfig,
    ms: Vec<f64>,
    first: Option<RunReport>,
    recovery: Vec<Recovery>,
    telemetry: Option<TelemetryReport>,
}

/// Per-run counters of the threaded recovery path.
struct Recovery {
    blocked: u64,
    retries: u64,
    degrades: u64,
}

impl Timed {
    fn new(name: &'static str, exec: Exec, cfg: SimConfig) -> Timed {
        Timed {
            name,
            exec,
            cfg,
            ms: Vec::new(),
            first: None,
            recovery: Vec::new(),
            telemetry: None,
        }
    }

    fn add(&mut self, ms: f64, mut report: RunReport) {
        let fastest = self.ms.iter().all(|&m| ms < m);
        self.ms.push(ms);
        self.recovery.push(Recovery {
            blocked: report.queues.blocked_pushes + report.queues.blocked_pops,
            retries: report.watchdog.frame_retries,
            degrades: report.watchdog.frame_degrades,
        });
        if fastest && report.telemetry.is_some() {
            self.telemetry = report.telemetry.take();
        }
        if self.first.is_none() {
            self.first = Some(report);
        }
    }

    fn min_ms(&self) -> f64 {
        if self.ms.is_empty() {
            f64::NAN
        } else {
            min(&self.ms)
        }
    }
}

pub fn measure(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(workload, true);
    let setup = Setup::new(workload, seed, smoke);
    let reference = Reference::new(&setup);
    let frames = setup.frames;
    let f = frames as f64;
    let variant = |p: Protection| setup.error_free(p, frames);
    let workload_cfg = setup.config(frames);

    // Differential variants on det: raw pointers, ECC pointers, CommGuard
    // (all error-free), and the workload's own faults when it has any;
    // then the threaded executor without and with the telemetry probe.
    let mut runs = vec![
        Timed::new("raw", Exec::Det, variant(Protection::PpuUnprotectedQueue)),
        Timed::new("reliable", Exec::Det, variant(Protection::PpuReliableQueue)),
        Timed::new("guarded", Exec::Det, variant(Protection::commguard())),
    ];
    if setup.faulted() {
        runs.push(Timed::new("faulted", Exec::Det, workload_cfg.clone()));
    }
    let telemetry_cfg = SimConfig {
        telemetry: TelemetryConfig::enabled(),
        ..workload_cfg.clone()
    };
    runs.push(Timed::new("threaded", Exec::Threaded, workload_cfg));
    runs.push(Timed::new("telemetry", Exec::Threaded, telemetry_cfg));

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        for t in &mut runs {
            if let Some(r) = reference.run(&setup, t.exec, &t.cfg, &mut out.checks, t.name) {
                t.add(r.wall.as_secs_f64() * 1e3, r.report);
            }
        }
        if start.elapsed() >= budget.mul_f64(CLOSED_SHARE) {
            break;
        }
    }

    let mut overrun_ms = Vec::new();
    let mut latency = Histogram::new();
    let mut slack = Histogram::new();
    // The last frame is released (frames - 1) periods after the first.
    let last_release_ms = ((setup.open.frames - 1) * setup.open.period_us) as f64 / 1e3;
    for run in 0.. {
        let paced = setup.paced(run);
        let r = reference.run(&setup, Exec::Threaded, &paced, &mut out.checks, "paced");
        if let Some(r) = r {
            let pace = r.report.pacing.as_ref().expect("paced runs report pacing");
            overrun_ms.push(r.wall.as_secs_f64() * 1e3 - last_release_ms);
            latency.merge(&pace.latency);
            slack.merge(&pace.slack);
        }
        if start.elapsed() >= budget.mul_f64(CLOSED_SHARE + OPEN_SHARE) {
            break;
        }
    }

    let by_name = |name: &str| runs.iter().find(|t| t.name == name);
    let ms = |name: &str| by_name(name).map_or(0.0, Timed::min_ms);
    let per_frame = |name: &str| ms(name) / f;
    // Counts come from the deterministic run of the workload's own
    // configuration, which repeats exactly.
    let counted = by_name(if setup.faulted() {
        "faulted"
    } else {
        "guarded"
    })
    .and_then(|t| t.first.as_ref());
    let threaded = by_name("threaded").map_or(&[][..], |t| &t.recovery[..]);
    let telemetry = by_name("telemetry").and_then(|t| t.telemetry.as_ref());

    // Layer harness, at the workload's batch size.
    let qm_ns = harness::qm_ns_per_item(setup.batch);
    let ecc_ns = harness::ecc_ns_per_header();
    let hi_ns = harness::hi_ns_per_header();
    let am_ns = harness::am_ns_per_item(setup.batch);
    let episode_ns = harness::am_ns_per_episode(setup.batch);
    let transport_ns = harness::transport_ns_per_item(setup.batch);
    let wake_us = harness::transport_wake_us();

    let Some(det) = counted else {
        out.checks
            .violations
            .push("no deterministic run of the workload completed".into());
        for m in crate::metrics::PER_LAYER.iter() {
            out.set(m.name, f64::NAN);
        }
        return out.finish();
    };
    let q = &det.queues;
    let subops = det.total_subops();
    let per = |count: u64| count as f64 / f;

    out.set("exec.base_ms_per_frame", per_frame("raw"));
    let max_instr = det.nodes.iter().map(|n| n.instructions).max().unwrap_or(0);
    out.set(
        "exec.modelled_speedup",
        det.total_instructions() as f64 / max_instr.max(1) as f64,
    );
    let (busy_max, wait_pct) = telemetry.map_or((f64::NAN, f64::NAN), |t| {
        let busy_max = t.nodes.iter().map(|n| n.busy_pct()).fold(0.0, f64::max);
        let wait: u64 = t.nodes.iter().map(|n| n.wait).sum();
        let total: u64 = t.nodes.iter().map(|n| n.total()).sum();
        (busy_max, 100.0 * wait as f64 / total.max(1) as f64)
    });
    out.set("exec.bottleneck_busy_pct", busy_max);
    out.set("exec.wait_pct", wait_pct);

    out.set("qm.items_per_frame", per(q.item_pushes));
    out.set(
        "qm.shared_ptr_ops_per_frame",
        per(q.shared_ptr_reads + q.shared_ptr_writes),
    );
    out.set(
        "qm.blocked_ops_per_frame",
        per(q.blocked_pushes + q.blocked_pops),
    );
    out.set("qm.ns_per_item", qm_ns);
    let ecc_ptr_ms = per_frame("reliable") - per_frame("raw");
    out.set("qm.ecc_ptr_ms_per_frame", ecc_ptr_ms);

    out.set("ecc.checks_per_frame", per(q.ecc.checks));
    out.set("ecc.ns_per_header", ecc_ns);

    out.set("hi.headers_per_frame", per(q.header_pushes));
    out.set("hi.ns_per_header", hi_ns);
    out.set("am.fsm_ops_per_frame", per(subops.fsm_ops));
    out.set("am.realign_episodes", det.realignment_episodes as f64);
    let attempts = subops.accepted_items + subops.padded_items + subops.discarded_items;
    out.set(
        "am.accept_ratio",
        subops.accepted_items as f64 / attempts.max(1) as f64,
    );
    out.set("am.ns_per_item", am_ns);
    out.set("am.ns_per_episode", episode_ns);

    let guard_ms = per_frame("guarded") - per_frame("reliable");
    out.set("guard.ms_per_frame", guard_ms);
    out.set("guard.share_pct", 100.0 * guard_ms / per_frame("reliable"));
    out.set("guard.subop_ratio", det.subop_ratio());

    out.set("transport.ns_per_item", transport_ns);
    out.set("transport.wake_us", wake_us);
    let blocked: Vec<f64> = threaded.iter().map(|r| per(r.blocked)).collect();
    out.set("transport.blocked_ops_per_frame", median_or_nan(&blocked));

    out.set("fault.injected_per_frame", per(det.total_faults().total()));
    out.set(
        "recovery.watchdog_escalations",
        det.watchdog.total_escalations() as f64,
    );
    let recovery_ms = if setup.faulted() {
        per_frame("faulted") - per_frame("guarded")
    } else {
        0.0
    };
    out.set("recovery.ms_per_frame", recovery_ms);
    let retries: Vec<f64> = threaded.iter().map(|r| r.retries as f64).collect();
    out.set("recovery.frame_retries", median_or_nan(&retries));
    let degraded = threaded.iter().map(|r| r.degrades);
    out.set(
        "recovery.frames_degraded_max",
        degraded.clone().max().unwrap_or(0) as f64,
    );
    out.set(
        "recovery.degraded_runs",
        degraded.filter(|&d| d > 0).count() as f64,
    );

    out.set("pacing.overrun_ms", median_or_nan(&overrun_ms));
    out.set("pacing.slack_p50_us", hist_quantile(&slack, 0.50));
    out.set("pacing.latency_p999_us", hist_quantile(&latency, 0.999));
    out.set("pacing.latency_samples", latency.count() as f64);

    let sink = setup.build().1;
    out.set(
        "quality.snr_db",
        snr_db(reference.golden_sink(), det.sink_output(sink)),
    );

    // How much of the measured guard + ECC-pointer cost the harness
    // accounts for, charging each harness cost at the run's counts. One
    // ECC pointer operation is half a codeword encode + decode.
    let explained_ns = hi_ns * per(q.header_pushes)
        + am_ns * per(q.item_pops)
        + ecc_ns / 2.0 * per(q.ecc.total_ops());
    let measured_ns = (guard_ms + ecc_ptr_ms) * 1e6;
    out.set(
        "harness.coverage_pct",
        if measured_ns > 0.0 {
            100.0 * explained_ns / measured_ns
        } else {
            0.0
        },
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (ms("telemetry") / ms("threaded") - 1.0),
    );
    out.finish()
}

fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// SNR of `got` against `reference`, both read as `f32` samples with
/// non-finite words zeroed; [`EXACT_SNR_DB`] for bit-equal streams.
fn snr_db(reference: &[u32], got: &[u32]) -> f64 {
    if reference == got {
        return EXACT_SNR_DB;
    }
    let as_f32 = |ws: &[u32]| -> Vec<f32> {
        ws.iter()
            .map(|&w| {
                let v = f32::from_bits(w);
                if v.is_finite() {
                    v.clamp(-256.0, 256.0)
                } else {
                    0.0
                }
            })
            .collect()
    };
    cg_metrics::snr_f32(&as_f32(reference), &as_f32(got)).min(EXACT_SNR_DB)
}
