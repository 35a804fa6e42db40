//! Threaded-executor parity across the whole benchmark suite: for every
//! app, guarded and unguarded, `run_parallel` must be bit-identical to
//! the deterministic executor at the sink and move exactly the same
//! header traffic — real threads change timing, never results. Workloads
//! are tiny so the suite stays fast in debug builds.

use cg_apps::beamformer::BeamformerApp;
use cg_apps::complex_fir::ComplexFirApp;
use cg_apps::fft_app::FftApp;
use cg_apps::jpeg::JpegApp;
use cg_apps::mp3::Mp3App;
use cg_apps::vocoder::VocoderApp;
use cg_runtime::{run, run_parallel, Program, SimConfig};
use commguard::graph::NodeId;
use commguard::Protection;

fn assert_parity(
    name: &str,
    build: impl Fn() -> (Program, NodeId),
    frames: u64,
    protection: Protection,
) {
    let cfg = SimConfig {
        protection,
        inject: false,
        ..SimConfig::error_free(frames)
    };
    let (p, sink) = build();
    let want = run(p, &cfg).expect("deterministic run");
    assert!(want.completed, "{name}: deterministic run incomplete");
    let (p, _) = build();
    let got = run_parallel(p, &cfg).expect("threaded run");
    assert!(got.completed, "{name}: threaded run incomplete");
    assert_eq!(
        got.sink_output(sink),
        want.sink_output(sink),
        "{name} [{}]: sink output diverged",
        protection.label()
    );
    assert_eq!(
        got.queues.header_pushes,
        want.queues.header_pushes,
        "{name} [{}]: header push traffic diverged",
        protection.label()
    );
    assert_eq!(
        got.queues.header_pops,
        want.queues.header_pops,
        "{name} [{}]: header pop traffic diverged",
        protection.label()
    );
    assert_eq!(
        got.queues.item_pushes, want.queues.item_pushes,
        "{name}: item push traffic diverged"
    );
}

fn suite_parity(protection: Protection) {
    let beam = BeamformerApp::new(256);
    assert_parity(
        "audiobeamformer",
        || beam.build(),
        beam.frames(),
        protection,
    );
    let voc = VocoderApp::new(256);
    assert_parity("channelvocoder", || voc.build(), voc.frames(), protection);
    let cfir = ComplexFirApp::new(256);
    assert_parity("complex-fir", || cfir.build(), cfir.frames(), protection);
    let fft = FftApp::new(8);
    assert_parity("fft", || fft.build(), fft.frames(), protection);
    let jpeg = JpegApp::new(64, 32, 75);
    assert_parity("jpeg", || jpeg.build(), jpeg.frames(), protection);
    let mp3 = Mp3App::new(512);
    assert_parity("mp3", || mp3.build(), mp3.frames(), protection);
}

#[test]
fn whole_suite_parity_unguarded() {
    suite_parity(Protection::ErrorFree);
}

#[test]
fn whole_suite_parity_guarded() {
    suite_parity(Protection::commguard());
}

/// Bit-parity regression for the lock-free ring: across the whole app
/// suite, guarded and unguarded, ten seeded repetitions of the threaded
/// executor must match the deterministic executor at the sink and in
/// header and item traffic. The runs are error-free,
/// so the seeds vary nothing *inside* the program — each repetition is a
/// fresh OS-level thread interleaving, which is exactly the variable the
/// lock-free cursors must be insensitive to.
#[test]
fn lock_free_bit_parity_across_seeds() {
    const SEEDS: u64 = 10;
    type AppCase = (&'static str, Box<dyn Fn() -> (Program, NodeId)>, u64);
    let apps: Vec<AppCase> = {
        let beam = BeamformerApp::new(128);
        let voc = VocoderApp::new(128);
        let cfir = ComplexFirApp::new(128);
        let fft = FftApp::new(8);
        let jpeg = JpegApp::new(64, 32, 75);
        let mp3 = Mp3App::new(256);
        let beam_frames = beam.frames();
        let voc_frames = voc.frames();
        let cfir_frames = cfir.frames();
        let fft_frames = fft.frames();
        let jpeg_frames = jpeg.frames();
        let mp3_frames = mp3.frames();
        vec![
            (
                "audiobeamformer",
                Box::new(move || beam.build()),
                beam_frames,
            ),
            ("channelvocoder", Box::new(move || voc.build()), voc_frames),
            ("complex-fir", Box::new(move || cfir.build()), cfir_frames),
            ("fft", Box::new(move || fft.build()), fft_frames),
            ("jpeg", Box::new(move || jpeg.build()), jpeg_frames),
            ("mp3", Box::new(move || mp3.build()), mp3_frames),
        ]
    };
    for protection in [Protection::ErrorFree, Protection::commguard()] {
        for (name, build, frames) in &apps {
            let base = SimConfig {
                protection,
                inject: false,
                ..SimConfig::error_free(*frames)
            };
            let (p, sink) = build();
            let want = run(p, &base).expect("deterministic run");
            for seed in 1..=SEEDS {
                let cfg = base.clone().seed(seed);
                let (p, _) = build();
                let lf = run_parallel(p, &cfg).expect("lock-free");
                let tag = format!("{name} [{}] seed {seed}", protection.label());
                assert_eq!(
                    lf.sink_output(sink),
                    want.sink_output(sink),
                    "{tag}: lock-free sink diverged from deterministic"
                );
                assert_eq!(
                    lf.queues.header_pushes, want.queues.header_pushes,
                    "{tag}: lock-free header pushes diverged"
                );
                assert_eq!(
                    lf.queues.header_pops, want.queues.header_pops,
                    "{tag}: lock-free header pops diverged"
                );
                assert_eq!(
                    lf.queues.item_pushes, want.queues.item_pushes,
                    "{tag}: lock-free item pushes diverged"
                );
            }
        }
    }
}
