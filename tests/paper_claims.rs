//! The paper's headline quantitative claims, encoded as assertions at
//! reduced (test-friendly) scale. Each test cites the section it checks.

use cg_apps::jpeg::JpegApp;
use cg_apps::suite::{BenchApp, Size, Workload};
use cg_fault::Mtbe;
use cg_runtime::{estimate_overhead, run, MemModel, OverheadModel, Program, RunReport, SimConfig};
use commguard::graph::{GraphBuilder, NodeKind};
use commguard::Protection;

fn jpeg_run(protection: Protection, mtbe_k: u64, seed: u64) -> (cg_runtime::RunReport, JpegApp) {
    let app = JpegApp::new(128, 64, 75);
    let (p, _sink) = app.build();
    let cfg = SimConfig {
        protection,
        inject: true,
        mtbe: Mtbe::kilo_instructions(mtbe_k),
        seed,
        max_rounds: 10_000_000,
        ..SimConfig::error_free(app.frames())
    };
    (run(p, &cfg).expect("runs"), app)
}

/// §1/§10: "CommGuard allows important streaming applications like JPEG
/// ... to execute without crashing and to sustain good output quality,
/// even for errors as frequent as every 500µs" — at their clock, an MTBE
/// of ~512k instructions or less. We check it completes and realigns at
/// MTBE 64k.
#[test]
fn executes_without_crashing_at_extreme_rates() {
    let (report, _) = jpeg_run(Protection::commguard(), 64, 0);
    assert!(report.completed);
    let sub = report.total_subops();
    assert!(
        sub.pad_events + sub.discard_events > 0,
        "realignment active"
    );
}

/// §7.1 / Fig. 8: "Even at extreme error rates (MTBE of 64K
/// instructions) the loss is less than 0.2% for five benchmarks ... jpeg
/// ... still less than 0.2% at an MTBE of 512K instructions."
#[test]
fn data_loss_stays_small() {
    let (report, _) = jpeg_run(Protection::commguard(), 512, 1);
    assert!(
        report.loss_ratio() < 0.002,
        "jpeg loss at 512k = {:.2e}, paper bound 0.2%",
        report.loss_ratio()
    );
}

/// §5.1 footnote: "We did not observe any timeouts in any of our
/// experiments" — for guarded runs the timeout machinery must stay idle
/// even under errors (alignment, not timeouts, restores progress).
#[test]
fn guarded_runs_do_not_time_out() {
    for seed in 0..3 {
        let (report, _) = jpeg_run(Protection::commguard(), 128, seed);
        assert_eq!(report.total_timeouts(), 0, "seed {seed}");
    }
}

/// §2.3 / Fig. 3: the reliable queue alone is *not* enough — CommGuard
/// must deliver strictly better quality than both baselines at the
/// paper's 1M-instruction MTBE (averaged over seeds).
#[test]
fn figure3_ordering_holds() {
    let mean = |protection: Protection| -> f64 {
        (0..3)
            .map(|seed| {
                let (r, app) = jpeg_run(protection, 256, seed);
                app.psnr(r.sink_output(app_sink(&app)))
            })
            .sum::<f64>()
            / 3.0
    };
    let guarded = mean(Protection::commguard());
    let reliable = mean(Protection::PpuReliableQueue);
    let unprotected = mean(Protection::PpuUnprotectedQueue);
    assert!(
        guarded > reliable && guarded > unprotected,
        "guarded {guarded:.1} vs reliable {reliable:.1} vs unprotected {unprotected:.1}"
    );
}

fn app_sink(app: &JpegApp) -> commguard::graph::NodeId {
    app.graph().node_by_name("F7_sink").expect("sink exists")
}

/// §10: "only introduces mean overheads of 0.3% on the memory subsystem
/// events, 2% as additional hardware operations relative to the
/// committed instructions, and 1% on execution time" — we bound each at
/// the same order of magnitude on the test-size jpeg.
#[test]
fn overheads_are_low() {
    let (report, _) = jpeg_run(Protection::commguard(), 1_000_000, 0);
    // Memory events.
    let (lr, sr) = report.header_memory_ratios(&MemModel::default());
    assert!(
        lr < 0.02 && sr < 0.02,
        "header memory overhead {lr:.4}/{sr:.4}"
    );
    // Hardware suboperations.
    assert!(
        report.subop_ratio() < 0.10,
        "suboperation ratio {:.4}",
        report.subop_ratio()
    );
    // Execution time (analytic §5.3 model).
    let e = estimate_overhead(&report, &OverheadModel::default());
    assert!(e.total() < 0.05, "execution-time overhead {:.4}", e.total());
}

/// §5.5: the reliable storage budget is ~82 bytes for 4 queues per core.
#[test]
fn reliable_storage_budget() {
    assert_eq!(commguard::Qit::new(4).reliable_storage_bytes(), 82);
}

/// Fig. 2: the jpeg graph reproduces the paper's exact rates at 640-wide.
#[test]
fn figure2_rates() {
    let app = JpegApp::new(640, 8, 75);
    let g = app.graph();
    let sched = g.schedule().expect("consistent");
    let f7 = g.node_by_name("F7_sink").unwrap();
    let edge = g.node(f7).inputs()[0];
    assert_eq!(sched.items_per_iteration(edge), 15_360);
    assert_eq!(g.node_count(), 10);
}

/// Σ per-node committed instructions ÷ the busiest node's: the speedup the
/// paper's one-core-per-node machine can reach on this graph, independent
/// of the host running the test.
fn modelled_speedup(report: &RunReport) -> f64 {
    let busiest = report.nodes.iter().map(|n| n.instructions).max();
    report.total_instructions() as f64 / busiest.expect("graph has nodes") as f64
}

fn guarded_error_free(frames: u64) -> SimConfig {
    SimConfig {
        protection: Protection::commguard(),
        inject: false,
        ..SimConfig::error_free(frames)
    }
}

/// A 4-node pipeline moving 64 units per hop per firing with trivial
/// filter work.
fn pipeline4() -> Program {
    const STAGES: usize = 4;
    const RATE: u32 = 64;
    let mut b = GraphBuilder::new("pipeline");
    let ids: Vec<_> = (0..STAGES)
        .map(|i| {
            let kind = match i {
                0 => NodeKind::Source,
                i if i == STAGES - 1 => NodeKind::Sink,
                _ => NodeKind::Filter,
            };
            b.add_node(format!("n{i}"), kind)
        })
        .collect();
    b.pipeline(&ids, RATE).unwrap();
    let mut p = Program::new(b.build().unwrap());
    let mut next = 0u32;
    p.set_source(ids[0], move |out| {
        out.extend(next..next + RATE);
        next = next.wrapping_add(RATE);
    });
    for &id in &ids[1..STAGES - 1] {
        p.set_filter(id, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(0x9E37_79B1)));
        });
    }
    p
}

/// §6 maps one node per core, so a graph's parallelism is bounded by its
/// busiest node. Each floor is a measured modelled speedup truncated to
/// three decimals. Unlike a wall-clock speedup it does not depend on the
/// host's core count, so a change that shifts work onto the busiest node
/// fails here on any host.
#[test]
fn modelled_speedup_floors() {
    let floors = [
        (BenchApp::AudioBeamformer, 4.271),
        (BenchApp::ChannelVocoder, 9.195),
        (BenchApp::ComplexFir, 2.109),
        (BenchApp::Fft, 6.339),
        (BenchApp::Jpeg, 3.839),
        (BenchApp::Mp3, 2.766),
    ];
    assert_eq!(floors.map(|(app, _)| app), BenchApp::all());
    for (app, floor) in floors {
        let w = Workload::new(app, Size::Small);
        let report = run(w.build().0, &guarded_error_free(w.frames())).expect("runs");
        assert!(report.completed, "{app}");
        let speedup = modelled_speedup(&report);
        assert!(
            speedup >= floor,
            "{app}: modelled speedup {speedup:.4} < {floor}"
        );
    }
    let report = run(pipeline4(), &guarded_error_free(1_000)).expect("runs");
    let speedup = modelled_speedup(&report);
    assert!(
        speedup >= 3.015,
        "guarded pipeline-4: modelled speedup {speedup:.4} < 3.015"
    );
}
