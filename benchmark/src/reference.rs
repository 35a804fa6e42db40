//! Reference outputs, and the checked execution of one program run.

use std::time::{Duration, Instant};

use cg_runtime::{run, run_parallel, RunReport, SimConfig};
use commguard::Protection;

use crate::metrics::Checks;
use crate::workload::Setup;

/// The executor a run goes through: [`cg_runtime::run`] or
/// [`cg_runtime::run_parallel`] on its default transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Det,
    Threaded,
}

/// An error-free deterministic run: its sink stream and header traffic.
struct Golden {
    frames: u64,
    sink: Vec<u32>,
    header_pushes: u64,
    header_pops: u64,
}

impl Golden {
    fn new(setup: &Setup, frames: u64) -> Golden {
        let cfg = setup.error_free(Protection::commguard(), frames);
        let (program, sink) = setup.build();
        let edges = program.graph().edge_count() as u64;
        let report = run(program, &cfg).expect("the error-free reference run succeeds");
        assert!(report.completed, "the error-free reference run completes");
        // Every edge carries one header per frame plus the end-of-stream
        // header, which stays queued once its consumer has finished.
        let q = &report.queues;
        assert_eq!(q.header_pushes, edges * (frames + 1), "headers pushed");
        assert_eq!(q.header_pops, edges * frames, "headers popped");
        Golden {
            frames,
            sink: report.sink_output(sink).to_vec(),
            header_pushes: q.header_pushes,
            header_pops: q.header_pops,
        }
    }

    fn words_per_frame(&self) -> usize {
        self.sink.len() / self.frames as usize
    }
}

/// Every reference a workload's runs are checked against.
pub struct Reference {
    /// Error-free output at the closed-loop frame count, and at the
    /// open-loop count when that differs.
    goldens: Vec<Golden>,
    /// The deterministic executor's faulted output: det runs of a faulted
    /// workload must reproduce it bit for bit.
    det_faulted: Option<Vec<u32>>,
}

/// One checked run.
pub struct Checked {
    pub wall: Duration,
    pub report: RunReport,
    /// Frames delivered correct and on time.
    ok_frames: u64,
    frames: u64,
}

impl Checked {
    pub fn ok_share(&self) -> f64 {
        self.ok_frames as f64 / self.frames.max(1) as f64
    }
}

impl Reference {
    pub fn new(setup: &Setup) -> Reference {
        let mut goldens = vec![Golden::new(setup, setup.frames)];
        if setup.open.frames != setup.frames {
            goldens.push(Golden::new(setup, setup.open.frames));
        }
        let det_faulted = setup.faulted().then(|| {
            let (program, sink) = setup.build();
            let report = run(program, &setup.config(setup.frames))
                .expect("the faulted reference run succeeds");
            report.sink_output(sink).to_vec()
        });
        Reference {
            goldens,
            det_faulted,
        }
    }

    /// The error-free sink stream at the closed-loop frame count.
    pub fn golden_sink(&self) -> &[u32] {
        &self.goldens[0].sink
    }

    /// Builds a fresh program, times one `exec` run of it under `cfg`,
    /// and checks the output; the run and any violation are recorded in
    /// `checks` under `what`. `None` when the executor returned an error.
    pub fn run(
        &self,
        setup: &Setup,
        exec: Exec,
        cfg: &SimConfig,
        checks: &mut Checks,
        what: &str,
    ) -> Option<Checked> {
        let (program, sink) = setup.build();
        let start = Instant::now();
        let result = match exec {
            Exec::Det => run(program, cfg),
            Exec::Threaded => run_parallel(program, cfg),
        };
        let wall = start.elapsed();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                checks.record(what, Some(format!("run failed: {e}")));
                return None;
            }
        };
        let (ok_frames, violation) = self.verify(&report, report.sink_output(sink), exec, cfg);
        checks.record(what, violation);
        Some(Checked {
            wall,
            report,
            ok_frames,
            frames: cfg.frames,
        })
    }

    /// Frames delivered correct and on time, and the first broken check:
    /// completion, a frame-exact sink, conserved headers, and — without
    /// injected faults — a sink bit-equal to the error-free reference.
    fn verify(
        &self,
        report: &RunReport,
        sink: &[u32],
        exec: Exec,
        cfg: &SimConfig,
    ) -> (u64, Option<String>) {
        let golden = self
            .goldens
            .iter()
            .find(|g| g.frames == cfg.frames)
            .expect("every run uses a frame count with a reference");
        let per_frame = golden.words_per_frame();
        let late = report.pacing.as_ref().map_or(0, |p| p.deadline_misses);
        let bad = late + report.watchdog.frame_degrades;
        let faulted = cfg.faults_enabled();
        let matched = if faulted {
            cfg.frames
        } else {
            sink.chunks(per_frame)
                .zip(golden.sink.chunks(per_frame))
                .filter(|(got, want)| got == want)
                .count() as u64
        };
        let ok = matched.saturating_sub(bad);
        let q = &report.queues;
        // Headers exist only where the guards insert them.
        let guarded = cfg.protection.guards_enabled();
        let (pushes, pops) = if guarded {
            (golden.header_pushes, golden.header_pops)
        } else {
            (0, 0)
        };
        let violation = if !report.completed {
            Some("did not complete".to_string())
        } else if sink.len() != golden.sink.len() {
            Some(format!(
                "sink holds {} words, the schedule {}",
                sink.len(),
                golden.sink.len()
            ))
        } else if q.header_pushes != pushes {
            Some(format!(
                "{} headers pushed, expected {pushes}",
                q.header_pushes
            ))
        } else if !faulted && q.header_pops != pops {
            Some(format!("{} headers popped, expected {pops}", q.header_pops))
        } else if !faulted && matched < cfg.frames {
            Some(format!(
                "{} of {} frames differ from the error-free reference",
                cfg.frames - matched,
                cfg.frames
            ))
        } else if faulted && exec == Exec::Det && self.det_faulted.as_deref() != Some(sink) {
            Some("deterministic faulted output changed between runs".to_string())
        } else {
            None
        };
        (ok, violation)
    }
}
