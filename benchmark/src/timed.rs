//! The timed pass: end-to-end metrics, with tracing and telemetry off.
//!
//! Closed-loop repeats alternate between the two executors, and paced
//! (open-loop) runs and set-ups are interleaved with them, so a slow
//! phase of the host lands on every kind of sample alike. Every timing is
//! the best of its samples: the fastest set-up, the most frames per second
//! (frames over the minimum wall time), and the lowest per-run latency
//! quantile. A shared host switches between speed modes about 1.5x apart
//! that last tens of seconds, so a median follows whichever mode held
//! during the run, while the best sample stays put as long as the fast
//! mode showed up at all. The median and quartiles are recorded beside
//! each value.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::metrics::Outcome;
use crate::reference::{Exec, Reference};
use crate::stats::{hist_quantile, Summary};
use crate::workload::{Setup, Workload};

/// Set-ups per run, spread evenly over the measured time.
const SETUPS: usize = 9;

/// Generates the workload's inputs and builds one program, timed.
fn set_up(workload: Workload, seed: u64, smoke: bool) -> (Setup, f64) {
    let start = Instant::now();
    let setup = Setup::new(workload, seed, smoke);
    black_box(setup.build());
    (setup, start.elapsed().as_secs_f64())
}

pub fn measure(workload: Workload, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut out = Outcome::new(workload, false);
    let (setup, first) = set_up(workload, seed, smoke);
    let mut setup_s = vec![first];
    let reference = Reference::new(&setup);
    let closed = setup.config(setup.frames);

    let mut det_fps = Vec::new();
    let mut threaded_fps = Vec::new();
    let mut ok_shares = Vec::new();
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut open_time = Duration::ZERO;
    let (mut closed_rounds, mut paced_runs) = (0, 0);
    loop {
        let elapsed = start.elapsed();
        let setup_due = budget.mul_f64(setup_s.len() as f64 / SETUPS as f64);
        if setup_s.len() < SETUPS && elapsed >= setup_due {
            setup_s.push(set_up(workload, seed, smoke).1);
        } else if elapsed >= budget && closed_rounds > 0 && paced_runs > 0 {
            break;
        } else if open_time.as_secs_f64() < setup.open.share * elapsed.as_secs_f64() {
            let paced = setup.paced(paced_runs);
            paced_runs += 1;
            let t = Instant::now();
            if let Some(r) = reference.run(&setup, Exec::Threaded, &paced, &mut out.checks, "paced")
            {
                let pace = r.report.pacing.as_ref().expect("paced runs report pacing");
                p50s.push(hist_quantile(&pace.latency, 0.50));
                p99s.push(hist_quantile(&pace.latency, 0.99));
                ok_shares.push(r.ok_share());
            }
            open_time += t.elapsed();
        } else {
            closed_rounds += 1;
            for (exec, fps, what) in [
                (Exec::Det, &mut det_fps, "det"),
                (Exec::Threaded, &mut threaded_fps, "threaded"),
            ] {
                if let Some(r) = reference.run(&setup, exec, &closed, &mut out.checks, what) {
                    fps.push(setup.frames as f64 / r.wall.as_secs_f64());
                    ok_shares.push(r.ok_share());
                }
            }
        }
    }

    let summary = |xs: &[f64]| (!xs.is_empty()).then(|| Summary::of(xs));
    let or_nan = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(f64::NAN, f);
    let s = summary(&setup_s);
    out.set_with("setup_s", or_nan(s, |s| s.min), s);
    for (name, fps) in [
        ("det_frames_per_s", &det_fps),
        ("threaded_frames_per_s", &threaded_fps),
    ] {
        let s = summary(fps);
        out.set_with(name, or_nan(s, |s| s.max), s);
    }
    for (name, per_run) in [("latency_p50_us", &p50s), ("latency_p99_us", &p99s)] {
        let s = summary(per_run);
        out.set_with(name, or_nan(s, |s| s.min), s);
    }
    let s = summary(&ok_shares);
    out.set_with("frames_ok_share", or_nan(s, |s| s.median), s);
    out.finish()
}
