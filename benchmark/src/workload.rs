//! The four benchmark workloads: what each runs, on which inputs, and
//! under which protection and fault settings. Inputs are made from the
//! seed; the program only ever sees the generated inputs.

use std::sync::Arc;

use cg_apps::jpeg::JpegApp;
use cg_apps::vocoder::VocoderApp;
use cg_fault::Mtbe;
use cg_runtime::{Pacing, Program, SimConfig};
use commguard::graph::{GraphBuilder, NodeId, NodeKind};
use commguard::Protection;

/// Items per firing on the synthetic pipeline: one frame is one firing.
const PIPELINE_RATE: usize = 64;

/// Baseline-fault MTBE of `vocoder-faulted`: the lowest value of the
/// paper figures' quick sweep, dense enough that every run realigns,
/// retries and injects thousands of times.
const VOCODER_MTBE_KILO: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Guarded 2-node pipeline moving 64 items per frame with no filter
    /// work: HI, AM, QM, ECC pointers and the SPSC ring dominate.
    Transport,
    /// Guarded 10-node jpeg decoder at 640x480: compute-bound, one header
    /// per 12.5k items, 10 threads on a narrow host.
    Jpeg,
    /// Guarded 13-node channel vocoder under baseline faults: the only
    /// workload where realignment, injection and recovery do work.
    VocoderFaulted,
    /// The transport pipeline released every 100 µs (open loop): one
    /// frame in flight, near-empty queues, park/unpark wake-ups.
    Paced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Transport,
        Workload::Jpeg,
        Workload::VocoderFaulted,
        Workload::Paced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Transport => "transport",
            Workload::Jpeg => "jpeg",
            Workload::VocoderFaulted => "vocoder-faulted",
            Workload::Paced => "paced",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The open-loop phase of a workload: frames released every `period_us`
/// on the threaded executor, each due `deadline_us` after its release.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub period_us: u64,
    deadline_us: u64,
    /// Frames per paced run.
    pub frames: u64,
    /// Share of the measured time spent in paced runs; the rest goes to
    /// closed-loop repeats on both executors.
    pub share: f64,
}

enum Inputs {
    /// The pipeline source's whole stream, generated up front.
    Pipeline(Arc<Vec<u32>>),
    Jpeg(Box<JpegApp>),
    Vocoder(VocoderApp),
}

/// One workload with its inputs generated from a seed: builds a fresh
/// program per run and names the configurations to run it under.
pub struct Setup {
    workload: Workload,
    /// Frames per closed-loop run.
    pub frames: u64,
    pub open: OpenLoop,
    /// Items a hot edge moves per firing, the batch the layer harness
    /// replays.
    pub batch: usize,
    seed: u64,
    inputs: Inputs,
}

impl Setup {
    /// Generates the inputs of `workload` from `seed`. `smoke` shrinks
    /// every size to about 1% for tests.
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Setup {
        let scale = |full: u64, small: u64| if smoke { small } else { full };
        let (frames, open, batch, inputs) = match workload {
            Workload::Transport | Workload::Paced => {
                let (frames, open) = if workload == Workload::Transport {
                    let open = OpenLoop {
                        period_us: 200,
                        deadline_us: 10_000,
                        frames: scale(2_500, 50),
                        share: 0.4,
                    };
                    (scale(75_000, 750), open)
                } else {
                    let open = OpenLoop {
                        period_us: 100,
                        deadline_us: 10_000,
                        frames: scale(10_000, 200),
                        share: 0.7,
                    };
                    // Closed-loop repeats long enough (about 20 ms) that
                    // thread start-up and first-touch page faults do not
                    // dominate them.
                    (scale(40_000, 400), open)
                };
                let words = frames.max(open.frames) as usize * PIPELINE_RATE;
                let stream = Inputs::Pipeline(Arc::new(seeded_words(seed, words)));
                (frames, open, PIPELINE_RATE, stream)
            }
            Workload::Jpeg => {
                // The seed picks the quality, and with it the coefficient
                // stream; the decode work per block is the same at every
                // quality.
                let quality = 70 + (seed % 11) as u8;
                let app = if smoke {
                    JpegApp::new(64, 32, quality)
                } else {
                    JpegApp::new(640, 480, quality)
                };
                let open = OpenLoop {
                    period_us: 4_000,
                    deadline_us: 40_000,
                    frames: app.frames(),
                    share: 0.25,
                };
                let batch = cg_apps::jpeg::BLOCK_WORDS as usize;
                (app.frames(), open, batch, Inputs::Jpeg(Box::new(app)))
            }
            Workload::VocoderFaulted => {
                let app = VocoderApp::new(scale(32_768, 328) as usize);
                let open = OpenLoop {
                    period_us: 400,
                    deadline_us: 20_000,
                    frames: app.frames() / 4,
                    share: 0.3,
                };
                let batch = cg_apps::vocoder::HOP as usize;
                (app.frames(), open, batch, Inputs::Vocoder(app))
            }
        };
        Setup {
            workload,
            frames,
            open,
            batch,
            seed,
            inputs,
        }
    }

    /// A fresh program (each run consumes one) and its sink.
    pub fn build(&self) -> (Program, NodeId) {
        match &self.inputs {
            Inputs::Pipeline(stream) => pipeline(Arc::clone(stream)),
            Inputs::Jpeg(app) => app.build(),
            Inputs::Vocoder(app) => app.build(),
        }
    }

    pub fn faulted(&self) -> bool {
        self.workload == Workload::VocoderFaulted
    }

    /// The workload's own configuration: guarded, with its faults.
    pub fn config(&self, frames: u64) -> SimConfig {
        if self.faulted() {
            SimConfig::with_errors(
                frames,
                Protection::commguard(),
                Mtbe::kilo_instructions(VOCODER_MTBE_KILO),
                self.seed,
            )
        } else {
            self.error_free(Protection::commguard(), frames)
        }
    }

    /// `protection` with injection off: the reference runs and the
    /// differential protection variants.
    pub fn error_free(&self, protection: Protection, frames: u64) -> SimConfig {
        SimConfig {
            protection,
            inject: false,
            ..SimConfig::error_free(frames)
        }
        .seed(self.seed)
    }

    /// The open-loop configuration of paced run number `run`. Each run of
    /// a faulted workload draws its faults from its own seed, derived from
    /// the workload's, so latency quantiles cover many fault patterns
    /// instead of replaying one.
    pub fn paced(&self, run: u64) -> SimConfig {
        let seed = self.seed ^ run.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.config(self.open.frames)
            .seed(seed)
            .pacing(Pacing::Paced {
                period: self.open.period_us,
                deadline: self.open.deadline_us,
                slo: self.open.deadline_us,
            })
    }
}

/// A 2-node source→sink pipeline moving [`PIPELINE_RATE`] items per
/// firing from `stream`, with no filter work.
fn pipeline(stream: Arc<Vec<u32>>) -> (Program, NodeId) {
    let mut b = GraphBuilder::new("pipeline");
    let src = b.add_node("source", NodeKind::Source);
    let snk = b.add_node("sink", NodeKind::Sink);
    b.pipeline(&[src, snk], PIPELINE_RATE as u32)
        .expect("a 2-node chain is a valid pipeline");
    let graph = b.build().expect("a 2-node chain is a valid graph");
    let mut p = Program::new(graph);
    let mut pos = 0usize;
    p.set_source(src, move |out| {
        let end = (pos + PIPELINE_RATE).min(stream.len());
        out.extend_from_slice(&stream[pos..end]);
        pos = end;
    });
    (p, snk)
}

/// `n` words of a xorshift64* stream seeded by `seed`.
fn seeded_words(seed: u64, n: usize) -> Vec<u32> {
    let mut x = (seed ^ 0x9E37_79B9_7F4A_7C15).max(1);
    (0..n)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
        })
        .collect()
}
