//! Run-level tests for the structured fault classes and the stall
//! watchdog: every class must terminate under every protection mode, and
//! CommGuard must keep sink lengths structural under all of them.

use cg_fault::{FaultClass, Mtbe};
use cg_runtime::{run, Program, RunReport, SimConfig, WatchdogConfig};
use commguard::config::GuardConfig;
use commguard::graph::{GraphBuilder, NodeId, NodeKind};
use commguard::{Protection, RealignKind};

const FRAMES: u64 = 40;

/// src → inc → dbl → snk, 4 items per firing.
fn pipeline() -> (Program, NodeId) {
    let mut b = GraphBuilder::new("fc-test");
    let src = b.add_node("src", NodeKind::Source);
    let inc = b.add_node("inc", NodeKind::Filter);
    let dbl = b.add_node("dbl", NodeKind::Filter);
    let snk = b.add_node("snk", NodeKind::Sink);
    b.connect(src, inc, 4, 4).unwrap();
    b.connect(inc, dbl, 4, 4).unwrap();
    b.connect(dbl, snk, 4, 4).unwrap();
    let g = b.build().unwrap();
    let mut p = Program::new(g);
    let mut next = 0u32;
    p.set_source(src, move |out| {
        for _ in 0..4 {
            out.push(next);
            next = next.wrapping_add(1);
        }
    });
    p.set_filter(inc, |inp, out| {
        out[0].extend(inp[0].iter().map(|&v| v.wrapping_add(7)));
    });
    p.set_filter(dbl, |inp, out| {
        out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(2)));
    });
    (p, snk)
}

fn config(protection: Protection, class: FaultClass, seed: u64) -> SimConfig {
    SimConfig {
        protection,
        inject: true,
        fault_class: class,
        mtbe: Mtbe::instructions(64), // brutal rate
        max_rounds: 2_000_000,
        ..SimConfig::error_free(FRAMES)
    }
    .seed(seed)
}

#[test]
fn every_class_terminates_under_every_protection() {
    for class in FaultClass::all() {
        for protection in [
            Protection::PpuUnprotectedQueue,
            Protection::PpuReliableQueue,
            Protection::commguard(),
        ] {
            for seed in 1..=3u64 {
                let (p, _snk) = pipeline();
                let report = run(p, &config(protection, class, seed)).unwrap();
                assert!(
                    report.completed,
                    "{class} under {protection:?} seed {seed} hit the round cap"
                );
            }
        }
    }
}

#[test]
fn commguard_keeps_sink_structural_under_every_class() {
    for class in FaultClass::all() {
        for seed in 1..=5u64 {
            let (p, snk) = pipeline();
            let report = run(p, &config(Protection::commguard(), class, seed)).unwrap();
            assert!(report.completed, "{class} seed {seed}");
            assert_eq!(
                report.sink_output(snk).len(),
                (FRAMES * 4) as usize,
                "{class} seed {seed}: CommGuard sink length must match the schedule"
            );
        }
    }
}

#[test]
fn structured_classes_actually_fire() {
    // Each structured class leaves its fingerprint in the statistics.
    let (p, _snk) = pipeline();
    let r = run(
        p,
        &config(
            Protection::PpuUnprotectedQueue,
            FaultClass::PointerCorruption,
            9,
        ),
    )
    .unwrap();
    assert!(
        r.queues.pointer_corruptions > 0,
        "pointer class must strike pointers"
    );

    let (p, _snk) = pipeline();
    let r = run(
        p,
        &config(Protection::commguard(), FaultClass::HeaderCorruption, 9),
    )
    .unwrap();
    assert!(
        r.queues.header_corruptions > 0,
        "header class must strike codewords"
    );

    let (p, snk) = pipeline();
    let r = run(p, &config(Protection::commguard(), FaultClass::StuckAt, 9)).unwrap();
    // A latched stuck-at bit distorts the output stream but not its shape.
    assert_eq!(r.sink_output(snk).len(), (FRAMES * 4) as usize);
    assert!(r.total_faults().total() > 0);
}

#[test]
fn watchdog_rescues_a_defeated_qm_layer() {
    // Raw (unprotected) shared pointers + concentrated pointer strikes can
    // wedge a queue in a full/empty lie. With QM timeouts effectively
    // disabled (huge threshold), only the watchdog can restore progress.
    let (p, _snk) = pipeline();
    let cfg = SimConfig {
        // Small queues force real cross-core blocking; corrupted raw
        // pointers then wedge full/empty views until the watchdog acts.
        queue_capacity: 8,
        timeout_rounds: u64::MAX / 2,
        watchdog: WatchdogConfig {
            enabled: true,
            stall_rounds: 64,
            escalation_rounds: 32,
        },
        max_rounds: 4_000_000,
        ..config(
            Protection::PpuUnprotectedQueue,
            FaultClass::PointerCorruption,
            3,
        )
    };
    let report = run(p, &cfg).unwrap();
    assert!(
        report.completed,
        "watchdog must drive the run to completion"
    );
    assert!(
        report.watchdog.total_escalations() > 0,
        "the QM layer was disabled; completion requires watchdog action"
    );
    assert!(report.watchdog.stall_events > 0);
    assert!(report.watchdog.max_stall_rounds >= 64);
}

#[test]
fn watchdog_timeouts_surface_in_node_reports() {
    // Rung 1 arms the per-port trackers; the forced operations then show
    // up as QM timeouts in the per-node reports.
    let (p, _snk) = pipeline();
    let cfg = SimConfig {
        // Small queues force real cross-core blocking; corrupted raw
        // pointers then wedge full/empty views until the watchdog acts.
        queue_capacity: 8,
        timeout_rounds: u64::MAX / 2,
        watchdog: WatchdogConfig {
            enabled: true,
            stall_rounds: 64,
            escalation_rounds: 32,
        },
        max_rounds: 4_000_000,
        ..config(
            Protection::PpuUnprotectedQueue,
            FaultClass::PointerCorruption,
            3,
        )
    };
    let report = run(p, &cfg).unwrap();
    if report.watchdog.timeout_escalations > 0 {
        assert!(
            report.total_timeouts() > 0,
            "armed trackers must fire and be reported"
        );
    }
}

#[test]
fn quiet_runs_never_wake_the_watchdog() {
    // Default watchdog thresholds sit far above the QM timeout: ordinary
    // error-free and guarded runs must never escalate.
    let (p, _snk) = pipeline();
    let r = run(p, &SimConfig::error_free(FRAMES)).unwrap();
    assert_eq!(r.watchdog.total_escalations(), 0);
    assert_eq!(r.watchdog.stall_events, 0);

    let (p, _snk) = pipeline();
    let r = run(
        p,
        &config(Protection::commguard(), FaultClass::Baseline, 11),
    )
    .unwrap();
    assert_eq!(r.watchdog.total_escalations(), 0);
}

/// FNV-1a over the little-endian bytes of a stream of `u64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes the report fields the fault path decides: sink streams, queue
/// traffic, per-node instructions, suboperations, faults and timeouts,
/// the watchdog ladder, scheduler rounds and realignment episodes.
fn report_hash(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for (&node, sink) in &r.sinks {
        h.put(node as u64);
        h.put(sink.len() as u64);
        for &v in sink {
            h.put(u64::from(v));
        }
    }
    let q = &r.queues;
    for v in [
        q.item_pushes,
        q.header_pushes,
        q.item_pops,
        q.header_pops,
        q.blocked_pushes,
        q.blocked_pops,
        q.timeout_pushes,
        q.timeout_pops,
        q.shared_ptr_reads,
        q.shared_ptr_writes,
        q.workset_publishes,
        q.pointer_corruptions,
        q.header_corruptions,
        q.max_occupancy,
        q.ecc.checks,
        q.ecc.computes,
        q.ecc.corrections,
        q.ecc.detections,
    ] {
        h.put(v);
    }
    for n in &r.nodes {
        let s = &n.subops;
        for v in [
            n.instructions,
            s.fsm_ops,
            s.counter_ops,
            s.ecc_ops,
            s.header_bit_ops,
            s.prepare_header_ops,
            s.accepted_items,
            s.padded_items,
            s.discarded_items,
            s.discarded_headers,
            s.pad_events,
            s.discard_events,
            s.guard_state_detected,
            s.guard_state_corrected,
            n.faults.data,
            n.faults.control,
            n.faults.addressing,
            n.faults.silent,
            n.timeouts,
        ] {
            h.put(v);
        }
        h.put(s.events.len() as u64);
        for e in &s.events {
            h.put(u64::from(e.frame));
            h.put(u64::from(e.kind == RealignKind::Pad));
        }
    }
    let w = &r.watchdog;
    for v in [
        w.stall_events,
        w.timeout_escalations,
        w.forced_progress,
        w.frame_aborts,
        w.frame_degrades,
        w.frame_retries,
        w.max_stall_rounds,
        r.rounds,
        r.realignment_episodes,
    ] {
        h.put(v);
    }
    h.0
}

/// Per-seed report hashes of the deterministic executor at MTBE 64, in
/// the loop order of `det_fault_goldens_are_pinned`: every fault class ×
/// {unprotected queue, CommGuard, CommGuard with unprotected headers} ×
/// seeds 1–3. Any change to the fault path's RNG draw order moves them.
#[rustfmt::skip]
const DET_FAULT_GOLDENS: [u64; 45] = [
    0x3cc9ed029913d544, 0x5fa77eb2c4ec10fa, 0x4909df99fcaeccfe, // baseline, unprotected queue
    0x88de4b05398ce32b, 0x41678450cdeb1691, 0x46d86404eba6dd2a, // baseline, CommGuard
    0x7896db64a1945252, 0xbb0df195fcc0cab6, 0x59dbfa0ed8a6e9de, // baseline, unprotected headers
    0x83fbf814ffe28759, 0x09b1c44ba73f26be, 0x9f96a5df23060b8a, // burst, unprotected queue
    0x225fbbbbe82a6590, 0x91d608e38a581fbd, 0x266e15d6ddfb5a72, // burst, CommGuard
    0x1f68942cba47c5f1, 0xef1c475906af14eb, 0x23d53383d854c803, // burst, unprotected headers
    0x05f21eafd965126a, 0x7c52168ca9c5f7ef, 0xbb99e405d4296965, // stuck-at, unprotected queue
    0xb239b442038a1bb2, 0x19bcdf68f85c6f07, 0xaff8de40959c449d, // stuck-at, CommGuard
    0xb239b442038a1bb2, 0x19bcdf68f85c6f07, 0xaff8de40959c449d, // stuck-at, unprotected headers
    0xed669483f8f44c2d, 0x65ee80a1b498084c, 0xda61fa2d74c25e07, // pointer, unprotected queue
    0x4b7434a2c9edca39, 0x58c2019cb1e881b8, 0x00941bc477194917, // pointer, CommGuard
    0x4b7434a2c9edca39, 0x58c2019cb1e881b8, 0x00941bc477194917, // pointer, unprotected headers
    0xf0d81aac14030e21, 0x9455a3752417c268, 0xb41e37680f1d620d, // header, unprotected queue
    0xa8a2d4ae345874e9, 0xaf50ae672c53afe7, 0x6a035f93c1652525, // header, CommGuard
    0xa8a2d4ae345874e9, 0xaf50ae672c53afe7, 0x6a035f93c1652525, // header, unprotected headers
];

#[test]
fn det_fault_goldens_are_pinned() {
    let unprotected_headers = Protection::CommGuard(GuardConfig {
        protect_headers: false,
        ..GuardConfig::default()
    });
    let mut got = Vec::new();
    for class in FaultClass::all() {
        for protection in [
            Protection::PpuUnprotectedQueue,
            Protection::commguard(),
            unprotected_headers,
        ] {
            for seed in 1..=3u64 {
                let (p, _snk) = pipeline();
                let report = run(p, &config(protection, class, seed)).unwrap();
                got.push(report_hash(&report));
            }
        }
    }
    assert_eq!(
        got, DET_FAULT_GOLDENS,
        "det fault goldens moved; actual: {got:#018x?}"
    );
}
