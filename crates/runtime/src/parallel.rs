//! A threaded executor: one OS thread per node, edges carried by
//! lock-free SPSC rings, and a frame-level checkpoint/re-execute recovery
//! ladder for error-prone runs.
//!
//! The deterministic executor ([`crate::run`]) is the measurement
//! instrument — bit-reproducible, with scheduler-round-accurate fault
//! timing. This executor shows the same guarded programs running with
//! *real* parallelism, and it is fault-tolerant in its own right: each
//! worker owns a per-core deterministic fault injector (streams seeded
//! from the run seed and the core id, so a seed reproduces the same
//! per-core fault *sequence* even though thread interleaving varies) and
//! a recovery path that guarantees the run completes — degraded, maybe,
//! but never hung and never aborted.
//!
//! ## Recovery ladder
//!
//! Error-free configurations keep strict semantics: any stall or dead
//! peer is a [`RunError::Parallel`]. With faults enabled, workers instead
//! recover:
//!
//! 1. **Blocked queue operations** are bounded by
//!    [`SimConfig::stall_timeout`]; a stalled header drain or output push
//!    is *forced* with timeout semantics (stale-data transfer — the PPU
//!    guarantee) rather than erroring.
//! 2. **Frame re-execution**: at every frame boundary the worker
//!    checkpoints its core-local state (sink high-water mark, per-port
//!    commit counts, an input replay log). If an attempt fails — an
//!    input-starved pop times out, or a firing's output violates its
//!    static rate (a control perturbation caught by the guard) — the
//!    frame rolls back and re-executes, replaying already-popped inputs
//!    from the log so queue and AM state stay consistent, up to
//!    [`SimConfig::par_retry_budget`] attempts.
//! 3. **Degradation**: when the budget is exhausted (or a peer died),
//!    the frame is discharged instead: the balance of its output rate is
//!    force-pushed as zeros, sinks pad their collected output, and the
//!    worker advances to the next boundary. Downstream consumers see a
//!    complete (if degraded) frame; alignment recovers via the HI/AM
//!    machinery at the next header.
//!
//! Guard soft state (AM/HI/frame counters) is *never* rolled back — it
//! is hardened by checked triplication (see `commguard::harden`) and
//! always reflects the units actually moved through the queues.
//! Retries and degradations are reported through
//! [`crate::WatchdogStats`] as `frame_retries` / `frame_degrades`, and
//! traced as `frame-retry` / `frame-degraded` events.
//!
//! ## Transport
//!
//! Every edge is a lock-free SPSC ring ([`cg_queue::spsc_pair`]): the
//! producer and consumer each own an independent queue view, synchronise
//! only through cache-line-padded atomic shared pointers (published once
//! per working set, re-read on apparent-full/empty), and block with a
//! spin-then-park slow path. No mutex or condvar is touched on the
//! steady-state push/pop path, and each call moves a whole firing's worth
//! of units through [`CoreGuard::pop_batch`]/[`CoreGuard::push_batch`].
//! Each worker publishes its out-ports (partial working sets included) at
//! every frame's commit, so a committed frame is visible downstream at
//! once even when the next paced release is a period away. The views run
//! the same [`SimQueue`] protocol as the deterministic executor, so
//! guarded behaviour is bit-identical. Each worker's endpoints close when
//! dropped — including panic unwinds — so a dead neighbour surfaces
//! promptly instead of hanging the run; the stall timeout backstops
//! everything else.

use cg_fault::{CoreInjector, StuckAtState};
use cg_graph::schedule::Schedule;
use cg_graph::{CostModel, EdgeId, NodeId, NodeKind, StreamGraph};
use cg_queue::{spsc_pair, QueueStats, SimQueue, SpscConsumer, SpscProducer, SpscStats, WaitError};
use cg_telemetry::{Clock, ClockMode, CoreProbe, Telemetry};
use cg_trace::{Event, Tracer, MACHINE_CORE};
use commguard::CoreGuard;

use crate::config::SimConfig;
use crate::exec::edge_label;
use crate::faults::{firing_faults, AttachedQueues, Firing, Strike};
use crate::pacing::{PacedSource, PacingReport};
use crate::program::Program;
use crate::report::{NodeReport, RunReport};
use crate::watchdog::WatchdogStats;
use crate::work::WorkFn;
use crate::RunError;

/// Why a frame attempt could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFail {
    /// Transient (pop stall, rate violation): worth re-executing.
    Retryable,
    /// The peer is gone; retrying cannot help — degrade immediately.
    Terminal,
}

/// A worker's ring endpoints: consumers on its in-edges, producers on its
/// out-edges. Dropping them (normal exit and panic unwind alike) closes
/// them, so blocked neighbours observe a dead peer instead of waiting out
/// the stall timeout.
struct Ports {
    inputs: Vec<SpscConsumer>,
    outputs: Vec<SpscProducer>,
}

impl AttachedQueues for Ports {
    fn count(&self) -> usize {
        self.inputs.len() + self.outputs.len()
    }

    fn with_queue<R>(&mut self, idx: usize, f: impl FnOnce(&mut SimQueue) -> R) -> R {
        match idx.checked_sub(self.inputs.len()) {
            None => self.inputs[idx].with(f),
            Some(out) => self.outputs[out].with(f),
        }
    }
}

/// Read-only run context shared by every worker.
struct RunCtx<'a> {
    config: &'a SimConfig,
    graph: &'a StreamGraph,
    /// Faults are injected, so workers recover instead of erroring; the
    /// error-free executor keeps strict stall/peer-death semantics.
    recovery: bool,
    tracer: Tracer,
    /// Pacing runs on one wall clock shared by every worker, so all cores
    /// agree on "now", frame release ticks, and deadlines (all in µs).
    pace: PacedSource,
}

/// What a joined worker hands back for report assembly.
struct ThreadResult {
    node: NodeId,
    report: NodeReport,
    sink: Option<Vec<u32>>,
    retries: u64,
    degrades: u64,
    probe: CoreProbe,
    pace: Option<PacingReport>,
}

/// One node's worker thread: its endpoints, guard, injector, and the
/// frame-local state the recovery ladder checkpoints.
struct Worker<'a> {
    ctx: &'a RunCtx<'a>,
    id: NodeId,
    kind: NodeKind,
    cost: CostModel,
    reps: u64,
    pop_rates: Vec<u32>,
    push_rates: Vec<u32>,
    ports: Ports,
    work: Option<Box<dyn WorkFn>>,
    guard: CoreGuard,
    injector: CoreInjector,
    stuck: Option<StuckAtState>,
    // The worker owns its probe outright (lock-free by ownership); it
    // travels back in the ThreadResult.
    probe: CoreProbe,
    staged_in: Vec<Vec<u32>>,
    staged_out: Vec<Vec<u32>>,
    // Frame-local recovery state: post-AM values popped this frame (for
    // replay), the replay cursor, and how much of each port's frame output
    // is already on the wire.
    input_log: Vec<Vec<u32>>,
    replayed: Vec<usize>,
    committed: Vec<usize>,
    sink_buf: Vec<u32>,
    instructions: u64,
    timeouts: u64,
    retries: u64,
    degrades: u64,
    deadline_degrades: u64,
    pace_acc: Option<PacingReport>,
}

/// Runs `program` with one thread per node over lock-free SPSC rings.
///
/// # Errors
///
/// Returns [`RunError`] for unbound nodes or inconsistent schedules, and
/// [`RunError::Parallel`] when an *error-free* run stalls past the
/// transport timeout or a worker dies. Error-prone runs never error from
/// faults: they retry and then degrade (worker panics remain fatal).
pub fn run_parallel(program: Program, config: &SimConfig) -> Result<RunReport, RunError> {
    let errors_on = config.faults_enabled();
    program.validate_bound().map_err(RunError::UnboundNode)?;
    if errors_on {
        config
            .effect_model
            .validate()
            .map_err(RunError::BadEffectModel)?;
    }
    let (graph, mut works) = program.into_parts();
    let schedule = graph
        .schedule()
        .map_err(|e| RunError::Schedule(e.to_string()))?;
    crate::exec::check_queue_capacity(&graph, &schedule, config.queue_capacity)?;
    let ctx = RunCtx {
        config,
        graph: &graph,
        recovery: errors_on,
        tracer: config.trace.tracer(),
        pace: PacedSource::new(config.pacing, Clock::new(ClockMode::Wall)),
    };
    // Wall clock: threaded frame latency is real microseconds. (The
    // determinism contract only covers the deterministic executor.)
    let telem = config.telemetry.telemetry(ClockMode::Wall);

    // Each endpoint moves out of its slot into the one worker that owns
    // it; the stats handles stay behind for post-join collection.
    let mut producers: Vec<Option<SpscProducer>> = Vec::new();
    let mut consumers: Vec<Option<SpscConsumer>> = Vec::new();
    let mut edge_stats: Vec<SpscStats> = Vec::new();
    for _ in graph.edges() {
        let (p, c, s) = spsc_pair(config.queue_spec(), config.stall_timeout);
        producers.push(Some(p));
        consumers.push(Some(c));
        edge_stats.push(s);
    }

    let mut results: Vec<ThreadResult> = Vec::with_capacity(graph.node_count());
    let mut errors: Vec<RunError> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (id, node) in graph.nodes() {
            let ports = Ports {
                inputs: node
                    .inputs()
                    .iter()
                    .map(|e| consumers[e.index()].take().expect("one consumer per edge"))
                    .collect(),
                outputs: node
                    .outputs()
                    .iter()
                    .map(|e| producers[e.index()].take().expect("one producer per edge"))
                    .collect(),
            };
            let probe = telem.probe(id.index() as u32, node.name());
            let work = works[id.index()].take();
            let (ctx, schedule) = (&ctx, &schedule);
            // Built on its own thread, so the worker's frame buffers come
            // from that thread's allocator arena rather than sitting next
            // to its neighbours' on the spawning thread's heap.
            let worker = move || Worker::new(ctx, schedule, id, ports, work, probe).run();
            handles.push((node.name().to_string(), scope.spawn(worker)));
        }
        for (name, h) in handles {
            match h.join() {
                Ok(Ok(r)) => results.push(r),
                Ok(Err(e)) => errors.push(e),
                Err(_) => errors.push(RunError::Parallel(format!(
                    "worker thread for node '{name}' panicked"
                ))),
            }
        }
    });
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    // All workers have joined, so endpoint drops have merged their view
    // stats into the per-edge handles.
    let edge_stats: Vec<QueueStats> = edge_stats.iter().map(SpscStats::read).collect();
    Ok(assemble_report(&ctx, &telem, &edge_stats, results))
}

/// Folds the joined workers' results and the per-edge traffic into the
/// run report.
fn assemble_report(
    ctx: &RunCtx<'_>,
    telem: &Telemetry,
    edge_stats: &[QueueStats],
    mut results: Vec<ThreadResult>,
) -> RunReport {
    let (config, tracer) = (ctx.config, &ctx.tracer);
    tracer.set_context(MACHINE_CORE, config.frames, 0);
    tracer.emit(Event::RunEnd { completed: true });

    results.sort_by_key(|r| r.node.index());
    let mut report = RunReport {
        app: ctx.graph.name().to_string(),
        // No scheduler rounds exist on real threads; the closest
        // equivalent unit of progress is the steady-state frame.
        rounds: config.frames,
        completed: true,
        trace: tracer.finish(),
        ..Default::default()
    };
    let mut wd = WatchdogStats::default();
    for s in edge_stats {
        report.queues += *s;
    }
    let mut probes = Vec::with_capacity(results.len());
    let mut pacing_report = PacingReport::for_pacing(config.pacing, "us");
    for mut r in results {
        if let (Some(acc), Some(p)) = (pacing_report.as_mut(), r.pace.as_ref()) {
            acc.merge(p);
        }
        // Consumer-side attribution, matching the deterministic executor.
        r.report.max_queue_occupancy = ctx
            .graph
            .node(r.node)
            .inputs()
            .iter()
            .map(|&e| edge_stats[e.index()].max_occupancy)
            .max()
            .unwrap_or(0);
        report.realignment_episodes += r.report.subops.pad_events + r.report.subops.discard_events;
        wd.frame_retries += r.retries;
        wd.frame_degrades += r.degrades;
        if let Some(buf) = r.sink {
            report.sinks.insert(r.node.index(), buf);
        }
        report.nodes.push(r.report);
        probes.push(r.probe);
    }
    report.watchdog = wd;
    report.telemetry = telem.finish(probes, crate::exec::run_counters(config.frames, &report));
    report.pacing = pacing_report;
    report
}

impl<'a> Worker<'a> {
    fn new(
        ctx: &'a RunCtx<'a>,
        schedule: &Schedule,
        id: NodeId,
        ports: Ports,
        work: Option<Box<dyn WorkFn>>,
        probe: CoreProbe,
    ) -> Self {
        let (config, graph) = (ctx.config, ctx.graph);
        let node = graph.node(id);
        let (ins, outs) = (node.inputs().len(), node.outputs().len());
        Worker {
            ctx,
            id,
            kind: node.kind(),
            cost: *node.cost(),
            reps: schedule.repetitions(id),
            pop_rates: node
                .inputs()
                .iter()
                .map(|&e| graph.edge(e).pop_rate())
                .collect(),
            push_rates: node
                .outputs()
                .iter()
                .map(|&e| graph.edge(e).push_rate())
                .collect(),
            ports,
            work,
            guard: config.core_guard(ins, outs),
            injector: config.core_injector(id.index() as u64),
            stuck: None,
            probe,
            staged_in: vec![Vec::new(); ins],
            staged_out: vec![Vec::new(); outs],
            input_log: vec![Vec::new(); ins],
            replayed: vec![0; ins],
            committed: vec![0; outs],
            sink_buf: Vec::new(),
            instructions: 0,
            timeouts: 0,
            retries: 0,
            degrades: 0,
            deadline_degrades: 0,
            pace_acc: PacingReport::for_pacing(config.pacing, "us"),
        }
    }

    /// The worker's whole life: every frame through the recovery ladder,
    /// then the end-of-computation header.
    fn run(mut self) -> Result<ThreadResult, RunError> {
        self.guard.start();
        for frame in 0..self.ctx.config.frames {
            // Paced sources release frames on the period schedule
            // (sleeping *before* the telemetry frame opens, so pacing
            // idle never counts as frame latency); every other node paces
            // naturally on data arrival.
            if self.kind == NodeKind::Source {
                self.ctx.pace.wait_release(frame);
            }
            self.probe.frame_start();
            let (retries0, degrades0) = (self.retries, self.degrades);
            if frame > 0 {
                self.guard.scope_boundary();
            }
            self.drain_headers("draining headers")?;
            self.run_frame(frame)?;
            // Publish before the commit: a paced source starts its next
            // frame a period later, and downstream must not wait for it.
            self.publish();
            self.commit_frame(frame, retries0, degrades0);
        }
        self.guard.finish();
        // With the consumer gone and the queue full this drain used to
        // spin forever; the wait is bounded, a dead peer is an error
        // naming the stuck edge, and under recovery the header is forced.
        self.drain_headers("draining the end header")?;
        self.publish();
        Ok(self.into_result())
    }

    /// Publishes every out-port's pending units (flushing the working set
    /// also wakes the consumer).
    fn publish(&mut self) {
        for p in &mut self.ports.outputs {
            p.with(SimQueue::flush);
        }
    }

    /// Drains every out-port's pending header, blocking on full queues;
    /// under recovery a stalled drain is forced so the next boundary finds
    /// the port clear.
    fn drain_headers(&mut self, action: &str) -> Result<(), RunError> {
        for port in 0..self.push_rates.len() {
            let out = &mut self.ports.outputs[port];
            let guard = &mut self.guard;
            let w0 = self.probe.wait_begin();
            let drained = out.produce(|q| guard.hi_tick(port, q).then_some(()));
            self.probe.wait_end(w0);
            if let Err(w) = drained {
                if !self.ctx.recovery {
                    return Err(self.stall_error(action, self.out_edge(port), w));
                }
                if matches!(w, WaitError::TimedOut) {
                    self.timeouts += 1;
                }
                out.with(|q| {
                    if !guard.hi_tick(port, q) {
                        guard.hi_force(port, q);
                    }
                });
            }
        }
        Ok(())
    }

    /// Runs `frame` to its commit: checkpoint, attempts, and — once the
    /// retry budget or the deadline rules retries out — the degrade rung.
    fn run_frame(&mut self, frame: u64) -> Result<(), RunError> {
        let ctx = self.ctx;
        let paced_on = ctx.config.pacing.is_paced();
        // Frame checkpoint: everything a retry must restore.
        let sink_mark = self.sink_buf.len();
        for log in &mut self.input_log {
            log.clear();
        }
        self.committed.fill(0);
        let mut attempt: u32 = 0;
        let mut deadline_cut = false;
        loop {
            let attempt_start = if paced_on { ctx.pace.now() } else { 0 };
            self.sink_buf.truncate(sink_mark);
            self.replayed.fill(0);
            self.clear_staged();
            // Overload shedding: a frame already past its deadline cannot
            // land on time no matter what — discharge it through the
            // degrade rung below without executing (or blocking on)
            // anything, so the source is never back-pressured into
            // stalling.
            let fail = if ctx.recovery && ctx.pace.hopeless(frame) {
                deadline_cut = true;
                Some(FrameFail::Terminal)
            } else {
                // How much of each port's output this attempt produced.
                let mut produced = vec![0; self.push_rates.len()];
                self.attempt_frame(&mut produced)?
            };
            let Some(why) = fail else {
                return Ok(()); // frame committed
            };
            // Deadline-aware re-budgeting: a retry is only worth its time
            // when the frame's remaining slack can still cover a
            // re-execution, estimated by the cost of the attempt that just
            // failed. Pacing off means infinite slack, reducing this to
            // the pure attempt budget.
            let retry_fits = !paced_on || {
                let attempt_cost = ctx.pace.now().saturating_sub(attempt_start).max(1);
                ctx.pace.slack(frame) > attempt_cost
            };
            if why == FrameFail::Retryable && attempt < ctx.config.par_retry_budget {
                if retry_fits {
                    attempt += 1;
                    self.retries += 1;
                    if ctx.tracer.is_enabled() {
                        ctx.tracer
                            .set_context(self.core(), frame, self.guard.active_fc());
                        ctx.tracer.emit(Event::FrameRetry {
                            frame: self.guard.active_fc(),
                            attempt,
                        });
                    }
                    continue;
                }
                // Slack can no longer cover a re-execution: skip the rest
                // of the retry budget and take the degrade rung now,
                // making the deadline instead of blowing it on doomed
                // retries.
                deadline_cut = true;
            }
            // Budget exhausted (or the peer is gone, or the deadline
            // ladder cut in): discharge the frame's remaining obligations
            // and advance.
            self.degrade(frame, sink_mark, deadline_cut);
            return Ok(());
        }
    }

    /// One attempt at the frame's firings: pop, fire, rate check, push.
    /// `Ok(None)` when every firing committed.
    fn attempt_frame(&mut self, produced: &mut [usize]) -> Result<Option<FrameFail>, RunError> {
        for _ in 0..self.reps {
            if let Some(fail) = self.pop_inputs()? {
                return Ok(Some(fail));
            }
            self.fire();
            // Guarded runs enforce the static rate before anything reaches
            // the wire; a violated firing (control perturbation)
            // re-executes the frame.
            if self.ctx.recovery && self.guard.is_enabled() {
                let rate_ok = self
                    .staged_out
                    .iter()
                    .zip(&self.push_rates)
                    .all(|(b, &r)| b.len() == r as usize);
                if !rate_ok {
                    return Ok(Some(FrameFail::Retryable));
                }
            }
            self.push_outputs(produced)?;
            self.clear_staged();
        }
        Ok(None)
    }

    /// Stages one firing's inputs: the frame's replay log first, then live
    /// pops. Live pops are logged even when a pop fails part-way, so a
    /// retry replays them without touching the queue (or AM).
    fn pop_inputs(&mut self) -> Result<Option<FrameFail>, RunError> {
        let recovery = self.ctx.recovery;
        for port in 0..self.pop_rates.len() {
            let need = self.pop_rates[port] as usize;
            let (stage, log) = (&mut self.staged_in[port], &mut self.input_log[port]);
            if recovery {
                let from = self.replayed[port];
                let take = (log.len() - from).min(need);
                stage.extend_from_slice(&log[from..from + take]);
                self.replayed[port] += take;
            }
            let live_from = stage.len();
            let mut fail = None;
            while stage.len() < need {
                let max = need - stage.len();
                let guard = &mut self.guard;
                let w0 = self.probe.wait_begin();
                let popped = self.ports.inputs[port].consume(|q| {
                    let got = guard.pop_batch(port, q, stage, max);
                    (got > 0).then_some(())
                });
                self.probe.wait_end(w0);
                if let Err(w) = popped {
                    if !recovery {
                        let edge = self.ctx.graph.node(self.id).inputs()[port];
                        return Err(self.stall_error("popping items", edge, w));
                    }
                    fail = Some(match w {
                        WaitError::TimedOut => {
                            self.timeouts += 1;
                            FrameFail::Retryable
                        }
                        WaitError::PeerClosed => FrameFail::Terminal,
                    });
                    break;
                }
            }
            if recovery {
                log.extend_from_slice(&stage[live_from..]);
                self.replayed[port] = log.len();
            }
            if fail.is_some() {
                return Ok(fail);
            }
        }
        Ok(None)
    }

    /// Charges the firing's instructions, collects its fault events (same
    /// pacing as the deterministic executor) and runs the firing body.
    fn fire(&mut self) {
        let items_moved: u64 = self.pop_rates.iter().map(|&r| u64::from(r)).sum::<u64>()
            + self.push_rates.iter().map(|&r| u64::from(r)).sum::<u64>();
        let instr = self.cost.firing_cost(items_moved);
        self.instructions += instr;
        let config = self.ctx.config;
        let faults = firing_faults(
            config.fault_class,
            &mut self.injector,
            &mut self.stuck,
            instr,
        );
        let mut firing = Firing {
            kind: self.kind,
            push_rates: &self.push_rates,
            work: &mut self.work,
            staged_in: &mut self.staged_in,
            staged_out: &mut self.staged_out,
            sink_buf: &mut self.sink_buf,
        };
        match faults {
            None => firing.compute(),
            Some(faults) => firing.run_faulted(
                faults,
                Strike {
                    injector: &mut self.injector,
                    stuck: self.stuck,
                    queues: &mut self.ports,
                    protection: config.protection,
                    guard: Some(&mut self.guard),
                },
            ),
        }
    }

    /// Pushes the firing's outputs, skipping whatever an earlier attempt
    /// of this frame already committed. Under recovery a stalled push
    /// forces the rest of the firing's output out: never hang.
    fn push_outputs(&mut self, produced: &mut [usize]) -> Result<(), RunError> {
        for (port, produced) in produced.iter_mut().enumerate() {
            let buf = &self.staged_out[port];
            let before = *produced;
            *produced += buf.len();
            let mut pos = self.committed[port].saturating_sub(before).min(buf.len());
            while pos < buf.len() {
                let out = &mut self.ports.outputs[port];
                let guard = &mut self.guard;
                let w0 = self.probe.wait_begin();
                let pushed = out.produce(|q| {
                    let got = guard.push_batch(port, q, &buf[pos..]);
                    (got > 0).then_some(got)
                });
                self.probe.wait_end(w0);
                match pushed {
                    Ok(got) => {
                        pos += got;
                        self.committed[port] += got;
                    }
                    Err(w) => {
                        if !self.ctx.recovery {
                            return Err(self.stall_error("pushing items", self.out_edge(port), w));
                        }
                        if matches!(w, WaitError::TimedOut) {
                            self.timeouts += 1;
                        }
                        out.with(|q| {
                            for &v in &buf[pos..] {
                                guard.timeout_push(port, q, v);
                            }
                        });
                        self.committed[port] += buf.len() - pos;
                        pos = buf.len();
                    }
                }
            }
        }
        Ok(())
    }

    /// The degrade rung: force-pushes the balance of the frame's output
    /// rate as zeros, pads a sink's collected output to the frame, and
    /// leaves the worker at the next boundary.
    fn degrade(&mut self, frame: u64, sink_mark: usize, deadline_cut: bool) {
        self.degrades += 1;
        if deadline_cut {
            self.deadline_degrades += 1;
        }
        let tracer = &self.ctx.tracer;
        if tracer.is_enabled() {
            tracer.set_context(self.core(), frame, self.guard.active_fc());
            tracer.emit(Event::FrameDegraded {
                frame: self.guard.active_fc(),
            });
        }
        let reps = self.reps as usize;
        for port in 0..self.push_rates.len() {
            let owed = (reps * self.push_rates[port] as usize).saturating_sub(self.committed[port]);
            if owed > 0 {
                let guard = &mut self.guard;
                self.ports.outputs[port].with(|q| {
                    for _ in 0..owed {
                        guard.timeout_push(port, q, 0);
                    }
                });
                self.committed[port] += owed;
            }
        }
        if self.kind == NodeKind::Sink {
            let per_frame = self.pop_rates.iter().map(|&r| r as usize).sum::<usize>() * reps;
            self.sink_buf.truncate(sink_mark);
            self.sink_buf.resize(sink_mark + per_frame, 0);
        }
        self.clear_staged();
    }

    /// Frame commit: deadline accounting and the telemetry sample.
    fn commit_frame(&mut self, frame: u64, retries0: u64, degrades0: u64) {
        // Deadline accounting happens where the frame becomes externally
        // visible: the sink's commit. Degraded frames count too — a pad
        // that lands on time is an on-time (if lossy) frame, which is the
        // entire point of the degrade-don't-stall ladder.
        if self.kind == NodeKind::Sink {
            if let Some(acc) = self.pace_acc.as_mut() {
                let pacing = self.ctx.config.pacing;
                acc.record_commit(
                    pacing.release(frame),
                    pacing.deadline_for(frame),
                    self.ctx.pace.now(),
                );
            }
        }
        if self.probe.is_enabled() {
            // Consumer-side sample: occupancy high-water and cumulative ECC
            // activity over this node's in-edges.
            let mut occ = 0u64;
            let (mut det, mut corr) = (0u64, 0u64);
            for p in &mut self.ports.inputs {
                p.with(|q| {
                    occ = occ.max(u64::from(q.occupancy()));
                    let e = q.stats().ecc;
                    det += e.detections;
                    corr += e.corrections;
                });
            }
            self.probe.ecc_sample(det, corr);
            self.probe
                .frame_commit(occ, self.retries - retries0, self.degrades - degrades0);
        }
    }

    fn clear_staged(&mut self) {
        for b in self.staged_in.iter_mut().chain(&mut self.staged_out) {
            b.clear();
        }
    }

    fn core(&self) -> u32 {
        self.id.index() as u32
    }

    fn out_edge(&self, port: usize) -> EdgeId {
        self.ctx.graph.node(self.id).outputs()[port]
    }

    /// The hard error of an error-free run whose blocking operation on
    /// `edge` gave up.
    fn stall_error(&self, action: &str, edge: EdgeId, err: WaitError) -> RunError {
        let node = self.ctx.graph.node(self.id).name();
        let edge = edge_label(self.ctx.graph, edge);
        RunError::Parallel(format!("node '{node}' {action} on edge {edge}: {err}"))
    }

    fn into_result(self) -> ThreadResult {
        let frames = self.ctx.config.frames;
        ThreadResult {
            node: self.id,
            report: NodeReport {
                name: self.ctx.graph.node(self.id).name().to_string(),
                instructions: self.instructions,
                firings: self.reps * frames,
                frames,
                instructions_per_frame: if frames > 0 {
                    self.instructions as f64 / frames as f64
                } else {
                    0.0
                },
                subops: self.guard.into_subops(),
                faults: *self.injector.stats(),
                timeouts: self.timeouts,
                max_queue_occupancy: 0,
            },
            sink: (self.kind == NodeKind::Sink).then_some(self.sink_buf),
            retries: self.retries,
            degrades: self.degrades,
            probe: self.probe,
            pace: self.pace_acc.map(|mut acc| {
                acc.degraded_for_deadline = self.deadline_degrades;
                acc
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run;
    use cg_fault::{FaultClass, Mtbe};
    use cg_graph::GraphBuilder;
    use commguard::Protection;
    use std::time::Duration;

    fn program() -> (Program, NodeId) {
        let mut b = GraphBuilder::new("par");
        let s = b.add_node("s", NodeKind::Source);
        let f = b.add_node("f", NodeKind::Filter);
        let g2 = b.add_node("g", NodeKind::Filter);
        let k = b.add_node("k", NodeKind::Sink);
        b.pipeline(&[s, f, g2, k], 8).unwrap();
        let graph = b.build().unwrap();
        let mut p = Program::new(graph);
        let mut next = 0u32;
        p.set_source(s, move |out| {
            for _ in 0..8 {
                out.push(next);
                next += 1;
            }
        });
        p.set_filter(f, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v.wrapping_mul(7)));
        });
        p.set_filter(g2, |inp, out| {
            out[0].extend(inp[0].iter().map(|&v| v ^ 0xFF));
        });
        (p, k)
    }

    #[test]
    fn parallel_matches_deterministic_output() {
        let (p, sink) = program();
        let want = run(p, &SimConfig::error_free(200)).unwrap();
        let (p, _) = program();
        let got = run_parallel(p, &SimConfig::error_free(200)).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        assert!(got.completed);
        assert_eq!(got.rounds, 200, "rounds reports the frame count");
    }

    #[test]
    fn parallel_guarded_matches_too() {
        let cfg = SimConfig {
            protection: Protection::commguard(),
            inject: false,
            ..SimConfig::error_free(100)
        };
        let (p, sink) = program();
        let want = run(p, &cfg).unwrap();
        let (p, _) = program();
        let got = run_parallel(p, &cfg).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        assert_eq!(got.queues.item_pushes, want.queues.item_pushes);
        assert_eq!(
            got.queues.header_pushes, want.queues.header_pushes,
            "same header traffic either way"
        );
        assert_eq!(got.queues.header_pops, want.queues.header_pops);
    }

    #[test]
    fn paced_run_matches_batch_output_and_reports_deadlines() {
        use crate::config::Pacing;
        let (p, sink) = program();
        let want = run(p, &SimConfig::error_free(40)).unwrap();
        let (p, _) = program();
        // 300 µs period, roomy deadline: every frame lands on time and
        // the data is identical to the unpaced run.
        let cfg = SimConfig::error_free(40).pacing(Pacing::Paced {
            period: 300,
            deadline: 200_000,
            slo: 200_000,
        });
        let got = run_parallel(p, &cfg).unwrap();
        assert_eq!(got.sink_output(sink), want.sink_output(sink));
        let pr = got.pacing.expect("paced run reports pacing");
        assert_eq!(pr.unit, "us");
        assert_eq!(pr.frames_observed(), 40, "one observation per sink frame");
        assert_eq!(pr.deadline_misses, 0);
        assert_eq!(pr.degraded_for_deadline, 0);
        assert!(pr.slo_met());
        assert_eq!(pr.latency.count(), 40);
        // Batch runs must not grow a pacing report.
        let (p, _) = program();
        let unpaced = run_parallel(p, &SimConfig::error_free(10)).unwrap();
        assert!(unpaced.pacing.is_none());
    }

    #[test]
    fn paced_frames_publish_at_commit() {
        use crate::config::Pacing;
        const PERIOD: u64 = 10_000;
        // A frame the source published only when it started the next one
        // would reach the sink at least a period after its release, however
        // idle the host. Published at its commit, it needs only its
        // pipeline time and a few wake-ups, which stay far below a 10 ms
        // period even on a loaded host.
        let cfg = SimConfig::error_free(20).pacing(Pacing::Paced {
            period: PERIOD,
            deadline: 100_000,
            slo: 100_000,
        });
        let (p, _) = program();
        let got = run_parallel(p, &cfg).unwrap();
        let pr = got.pacing.expect("paced run reports pacing");
        let p50 = pr.latency.quantile(0.5);
        assert!(p50 < PERIOD, "p50 release-to-commit latency {p50} µs");
    }

    #[test]
    fn paced_faulty_run_degrades_rather_than_stalls() {
        use crate::config::Pacing;
        const FRAMES: u64 = 30;
        // Tight budget under burst faults: the run must finish with
        // frame-exact sink length (pads allowed), never hang, and report
        // deadline accounting for every frame.
        let cfg = SimConfig {
            fault_class: FaultClass::Burst,
            ..SimConfig::with_errors(FRAMES, Protection::commguard(), Mtbe::instructions(256), 11)
        }
        .pacing(Pacing::Paced {
            period: 200,
            deadline: 2_000,
            slo: 2_000,
        });
        let (p, sink) = program();
        let got = run_parallel(p, &cfg).unwrap();
        assert!(got.completed);
        assert_eq!(
            got.sink_output(sink).len(),
            (FRAMES * 8) as usize,
            "degraded frames still land frame-exact"
        );
        let pr = got.pacing.expect("paced run reports pacing");
        assert_eq!(pr.frames_observed(), FRAMES);
        assert_eq!(pr.latency.count(), FRAMES);
    }

    /// Ten-seed bit-parity sweep for the zero-copy bulk paths: seeded
    /// pseudo-random data streams over per-seed queue geometries (firing
    /// rate, frame count, ring capacity — hence workset size and wrap
    /// cadence) must produce byte-identical sinks and conserved
    /// item/header traffic on the threaded executor against the
    /// deterministic golden run.
    #[test]
    fn lock_free_bit_parity_across_seeds() {
        for seed in 1..=10u64 {
            let rate = 4 + (seed as u32 % 5) * 7; // 4..=32 units/firing
            let frames = 30 + (seed % 4) * 10;
            let capacity = 2 * rate as usize; // small rings: wrap + block
            let build = || {
                let mut b = GraphBuilder::new("parity");
                let s = b.add_node("s", NodeKind::Source);
                let f = b.add_node("f", NodeKind::Filter);
                let k = b.add_node("k", NodeKind::Sink);
                b.pipeline(&[s, f, k], rate).unwrap();
                let mut p = Program::new(b.build().unwrap());
                let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                p.set_source(s, move |out| {
                    for _ in 0..rate {
                        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut x = z;
                        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        out.push((x ^ (x >> 27)) as u32);
                    }
                });
                p.set_filter(f, |inp, out| {
                    out[0].extend(inp[0].iter().map(|&v| v.rotate_left(5)));
                });
                (p, k)
            };
            let cfg = SimConfig {
                protection: Protection::commguard(),
                inject: false,
                queue_capacity: capacity,
                ..SimConfig::error_free(frames)
            };
            let (p, sink) = build();
            let det = run(p, &cfg).unwrap();
            let (p, _) = build();
            let got = run_parallel(p, &cfg).unwrap();
            assert_eq!(
                got.sink_output(sink),
                det.sink_output(sink),
                "seed {seed}: sink diverged from deterministic"
            );
            assert_eq!(
                got.queues.item_pushes, det.queues.item_pushes,
                "seed {seed}: item traffic"
            );
            assert_eq!(
                got.queues.header_pushes, det.queues.header_pushes,
                "seed {seed}: header pushes"
            );
            assert_eq!(
                got.queues.header_pops, det.queues.header_pops,
                "seed {seed}: header pops"
            );
        }
    }

    /// The headline capability: faults injected inside worker threads, the
    /// run completing with a frame-exact sink rather than an error.
    #[test]
    fn parallel_injects_and_recovers() {
        let (p, sink) = program();
        let cfg = SimConfig {
            fault_class: FaultClass::Burst,
            stall_timeout: Duration::from_millis(250),
            par_retry_budget: 3,
            ..SimConfig::with_errors(60, Protection::commguard(), Mtbe::instructions(256), 7)
        };
        let report = run_parallel(p, &cfg).unwrap();
        assert!(report.completed);
        let total_faults: u64 = report.nodes.iter().map(|n| n.faults.total()).sum();
        assert!(total_faults > 0, "injectors must actually fire");
        assert_eq!(
            report.sink_output(sink).len(),
            60 * 8,
            "recovery keeps the sink frame-exact"
        );
        // Every retry respects the per-frame budget on each of the 4 cores.
        assert!(report.watchdog.frame_retries <= u64::from(cfg.par_retry_budget) * cfg.frames * 4);
    }

    /// A worker that dies mid-stream (panicking filter) must surface as a
    /// `RunError` on some thread — never a hang. The dying worker's drop
    /// guard closes its endpoints, so neighbours fail fast with
    /// peer-closed rather than waiting out the stall timeout.
    #[test]
    fn killed_worker_is_an_error_not_a_hang() {
        let mut b = GraphBuilder::new("killed");
        let s = b.add_node("s", NodeKind::Source);
        let f = b.add_node("f", NodeKind::Filter);
        let k = b.add_node("k", NodeKind::Sink);
        b.pipeline(&[s, f, k], 8).unwrap();
        let mut p = Program::new(b.build().unwrap());
        p.set_source(s, |out| out.extend(0..8u32));
        let mut firings = 0u32;
        p.set_filter(f, move |inp, out| {
            firings += 1;
            assert!(firings < 5, "injected worker death");
            out[0].extend_from_slice(&inp[0]);
        });
        let _ = k;
        let cfg = SimConfig::error_free(1000);
        let start = std::time::Instant::now();
        let err = run_parallel(p, &cfg).unwrap_err();
        assert!(
            start.elapsed() < cfg.stall_timeout,
            "peer-closed must beat the stall timeout"
        );
        assert!(matches!(err, RunError::Parallel(_)), "got: {err}");
    }
}
