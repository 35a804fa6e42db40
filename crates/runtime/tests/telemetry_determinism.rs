//! Determinism and acceptance guarantees of the metrics plane (ISSUE 8):
//! identical seed + config must yield byte-identical telemetry snapshots
//! on the deterministic executor, enabling telemetry must not perturb
//! execution at all, and the guarded threaded pipeline must deliver the
//! full observability contract (snapshots per frame, attribution summing
//! to 100%, valid Prometheus/JSONL exports).

use std::time::Duration;

use cg_fault::Mtbe;
use cg_runtime::{run, run_parallel, Program, SimConfig, TelemetryConfig};
use cg_telemetry::{from_jsonl, parse_prometheus, to_jsonl, to_prometheus};
use commguard::graph::{GraphBuilder, NodeId, NodeKind};
use commguard::Protection;

fn program() -> Program {
    let mut b = GraphBuilder::new("telem");
    let s = b.add_node("s", NodeKind::Source);
    let f = b.add_node("f", NodeKind::Filter);
    let k = b.add_node("k", NodeKind::Sink);
    b.pipeline(&[s, f, k], 8).unwrap();
    let graph = b.build().unwrap();
    let mut p = Program::new(graph);
    let mut next = 0u32;
    p.set_source(s, move |out| {
        for _ in 0..8 {
            out.push(next);
            next = next.wrapping_add(1);
        }
    });
    p.set_filter(f, |inp, out| {
        out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(3)));
    });
    p
}

fn faulty_config(seed: u64) -> SimConfig {
    SimConfig::with_errors(40, Protection::commguard(), Mtbe::instructions(700), seed)
}

/// A guarded 4-stage pipeline for the threaded acceptance run.
fn pipeline4() -> (Program, NodeId) {
    let mut b = GraphBuilder::new("pipeline-4");
    let ids: Vec<NodeId> = (0..4)
        .map(|i| {
            let kind = match i {
                0 => NodeKind::Source,
                3 => NodeKind::Sink,
                _ => NodeKind::Filter,
            };
            b.add_node(format!("n{i}"), kind)
        })
        .collect();
    b.pipeline(&ids, 16).unwrap();
    let mut p = Program::new(b.build().unwrap());
    let mut next = 0u32;
    p.set_source(ids[0], move |out| {
        for _ in 0..16 {
            out.push(next);
            next = next.wrapping_add(1);
        }
    });
    for &id in &ids[1..3] {
        p.set_filter(id, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(0x9E37_79B1)));
        });
    }
    (p, ids[3])
}

#[test]
fn ten_seeds_yield_byte_identical_snapshots() {
    for seed in 1..=10u64 {
        let snapshot = || {
            let cfg = faulty_config(seed).telemetry(TelemetryConfig::enabled());
            let report = run(program(), &cfg).unwrap();
            let t = report.telemetry.expect("telemetry was enabled");
            // Every core commits one frame snapshot per completed frame.
            for node in &t.nodes {
                let rows = t.frames.iter().filter(|f| f.core == node.core).count() as u64;
                assert_eq!(rows, node.frames, "seed {seed}: one snapshot per frame");
            }
            to_jsonl(&t)
        };
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a, b, "seed {seed}: same seed must snapshot identically");
        assert!(!a.is_empty());
    }
}

#[test]
fn different_seeds_yield_different_snapshots() {
    let snapshot = |seed| {
        let cfg = faulty_config(seed).telemetry(TelemetryConfig::enabled());
        to_jsonl(&run(program(), &cfg).unwrap().telemetry.expect("enabled"))
    };
    assert_ne!(snapshot(11), snapshot(12));
}

#[test]
fn telemetry_does_not_perturb_execution() {
    let run_with = |telemetry| run(program(), &faulty_config(11).telemetry(telemetry)).unwrap();
    let off = run_with(TelemetryConfig::Off);
    let on = run_with(TelemetryConfig::enabled());
    let dense = run_with(TelemetryConfig::Enabled { interval: 1 });

    assert!(off.telemetry.is_none());
    for probed in [&on, &dense] {
        assert!(probed.telemetry.is_some());
        assert_eq!(probed.rounds, off.rounds);
        assert_eq!(probed.completed, off.completed);
        assert_eq!(probed.sinks, off.sinks);
        assert_eq!(probed.queues, off.queues);
        assert_eq!(probed.realignment_episodes, off.realignment_episodes);
        for (a, b) in probed.nodes.iter().zip(&off.nodes) {
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.firings, b.firings);
            assert_eq!(a.subops, b.subops);
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.timeouts, b.timeouts);
            assert_eq!(a.max_queue_occupancy, b.max_queue_occupancy);
        }
    }
}

#[test]
fn det_snapshots_reconcile_with_the_report() {
    let cfg = faulty_config(7).telemetry(TelemetryConfig::enabled());
    let report = run(program(), &cfg).unwrap();
    let t = report.telemetry.as_ref().expect("enabled");
    assert_eq!(t.clock_unit, "rounds");
    assert_eq!(t.run.frames, cfg.frames);
    assert_eq!(t.run.faults_injected, report.total_faults().total());
    assert_eq!(t.run.ecc_detected, report.queues.ecc.detections);
    assert_eq!(t.run.realignment_episodes, report.realignment_episodes);
    // Per-node occupancy high-water agrees with the queue stats the
    // report derives it from (consumer-side attribution in both).
    for (node, telem) in report.nodes.iter().zip(&t.nodes) {
        assert_eq!(node.name, telem.name);
        assert!(telem.max_queue_occupancy <= node.max_queue_occupancy);
    }
}

#[test]
fn guarded_threaded_pipeline_meets_the_observability_contract() {
    let (p, _snk) = pipeline4();
    let frames = 24u64;
    let cfg = SimConfig {
        protection: Protection::commguard(),
        inject: false,
        stall_timeout: Duration::from_secs(10),
        ..SimConfig::error_free(frames)
    }
    .telemetry(TelemetryConfig::enabled());
    let report = run_parallel(p, &cfg).unwrap();
    assert!(report.completed);
    let t = report.telemetry.expect("telemetry was enabled");
    assert_eq!(t.clock_unit, "us");

    // At least one snapshot per frame, per core.
    assert_eq!(t.nodes.len(), 4);
    for node in &t.nodes {
        assert_eq!(node.frames, frames, "{}: every frame commits", node.name);
        let rows = t.frames.iter().filter(|f| f.core == node.core).count() as u64;
        assert!(rows >= frames, "{}: >=1 snapshot per frame", node.name);
        // Busy + wait attribution covers the core's whole accounted time.
        if node.total() > 0 {
            let pct = node.busy_pct() + node.wait_pct();
            assert!(
                (pct - 100.0).abs() < 1e-6,
                "{}: busy% + wait% = {pct}, expected 100",
                node.name
            );
        }
        // Percentiles come from a real histogram: ordered and bounded.
        let p50 = node.latency.quantile(0.50);
        let p99 = node.latency.quantile(0.99);
        assert!(p50 <= p99 && p99 <= node.latency.max());
    }

    // Both exports are machine-valid and the JSONL round-trips exactly.
    let prom = to_prometheus(&t);
    let samples = parse_prometheus(&prom).expect("prometheus output must scrape");
    assert!(samples
        .iter()
        .any(|s| s.name == "cg_frame_latency_ticks_bucket"));
    let jsonl = to_jsonl(&t);
    let back = from_jsonl(&jsonl).expect("jsonl parses back");
    assert_eq!(to_jsonl(&back), jsonl, "jsonl round-trip is byte-exact");
}

#[test]
fn threaded_faulty_run_reports_recovery_in_telemetry() {
    let (p, _snk) = pipeline4();
    let cfg = SimConfig {
        queue_capacity: 16,
        stall_timeout: Duration::from_millis(150),
        ..SimConfig::with_errors(16, Protection::commguard(), Mtbe::instructions(512), 3)
    }
    .telemetry(TelemetryConfig::enabled());
    let report = run_parallel(p, &cfg).unwrap();
    let t = report.telemetry.as_ref().expect("enabled");
    assert_eq!(t.run.faults_injected, report.total_faults().total());
    assert_eq!(t.run.frame_retries, report.watchdog.frame_retries);
    assert_eq!(t.run.wd_frame_degrades, report.watchdog.frame_degrades);
    // Per-frame retry counts in the snapshots sum to the run total.
    let snapshot_retries: u64 = t.frames.iter().map(|f| f.retries).sum();
    assert_eq!(snapshot_retries, report.watchdog.frame_retries);
}
