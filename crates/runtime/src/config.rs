//! Simulation configuration.

use std::time::Duration;

use cg_fault::{CoreInjector, EffectModel, FaultClass, Mtbe};
use cg_queue::QueueSpec;
use cg_telemetry::TelemetryConfig;
use cg_trace::TraceConfig;
use commguard::{CoreGuard, Protection};

use crate::watchdog::WatchdogConfig;

/// Real-time pacing of a run's sources.
///
/// Ticks are in the executor's *clock unit*: microseconds of wall time on
/// the threaded executor, scheduler rounds on the deterministic executor
/// (whose virtual clock keeps paced runs byte-reproducible). A frame `f`
/// (0-based) is released at `f × period` and must be committed at every
/// sink by `f × period + deadline`; `slo` is the p99 end-to-end latency
/// target judged in [`crate::report::PacingReport::slo_met`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Batch mode (the default): frames run back to back, no deadlines,
    /// and the executors behave bit-identically to pre-pacing builds.
    #[default]
    Off,
    /// Paced live-source mode with per-frame deadlines.
    Paced {
        /// Release period between consecutive frames, in clock ticks.
        period: u64,
        /// Per-frame latency budget from release to sink commit, in
        /// clock ticks. Usually ≥ `period`; smaller values leave no
        /// pipelining slack at all.
        deadline: u64,
        /// p99 end-to-end latency objective, in clock ticks.
        slo: u64,
    },
}

impl Pacing {
    /// Whether pacing is on.
    pub fn is_paced(&self) -> bool {
        matches!(self, Pacing::Paced { .. })
    }

    /// The release period in clock ticks (`None` when off).
    pub fn period(&self) -> Option<u64> {
        match self {
            Pacing::Off => None,
            Pacing::Paced { period, .. } => Some(*period),
        }
    }

    /// Release tick of 0-based frame `f` (`0` when off).
    pub fn release(&self, frame: u64) -> u64 {
        match self {
            Pacing::Off => 0,
            Pacing::Paced { period, .. } => frame.saturating_mul(*period),
        }
    }

    /// Absolute deadline tick of 0-based frame `f` (`u64::MAX` when off).
    pub fn deadline_for(&self, frame: u64) -> u64 {
        match self {
            Pacing::Off => u64::MAX,
            Pacing::Paced {
                period, deadline, ..
            } => frame.saturating_mul(*period).saturating_add(*deadline),
        }
    }
}

/// Memory-event model: the fraction of committed instructions that are
/// data loads/stores, used to estimate *all* processor memory events when
/// relating header traffic to total traffic (paper Fig. 12). Values are
/// typical x86 integer/FP mix ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemModel {
    /// Loads per committed instruction.
    pub loads_per_instr: f64,
    /// Stores per committed instruction.
    pub stores_per_instr: f64,
}

impl Default for MemModel {
    fn default() -> Self {
        MemModel {
            loads_per_instr: 0.25,
            stores_per_instr: 0.12,
        }
    }
}

/// Pipeline model for the frame-boundary serialisation overhead of §5.3 /
/// Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Effective cycles lost per frame-boundary serialisation (the
    /// `lfence`-style drain; small because frame boundaries rarely have
    /// many instructions in flight).
    pub serialize_cycles: f64,
    /// Instruction-equivalents per header push or pop.
    pub header_op_cost: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            serialize_cycles: 3.0,
            header_op_cost: 2.0,
        }
    }
}

/// Full configuration of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Protection mode (Fig. 3 configurations).
    pub protection: Protection,
    /// Master fault-injection switch: `false` runs the selected
    /// protection hardware error-free (used to measure pure overheads).
    pub inject: bool,
    /// Mean time between errors per core; ignored when the protection
    /// mode is [`Protection::ErrorFree`].
    pub mtbe: Mtbe,
    /// How faults manifest (defaults to the VM-calibrated rates).
    pub effect_model: EffectModel,
    /// Structured fault mode applied by the runtime (campaign sweeps).
    pub fault_class: FaultClass,
    /// Run seed; per-core RNGs derive from it.
    pub seed: u64,
    /// Steady-state iterations (frames at default scale) to execute.
    pub frames: u64,
    /// Capacity of every queue, in units.
    pub queue_capacity: usize,
    /// Consecutive blocked scheduler visits before a QM timeout fires.
    pub timeout_rounds: u64,
    /// Hard cap on scheduler rounds (safety net; reported as
    /// `completed = false` when hit).
    pub max_rounds: u64,
    /// Memory-event estimation model.
    pub mem_model: MemModel,
    /// Pipeline serialisation model.
    pub overhead_model: OverheadModel,
    /// Cross-core stall watchdog.
    pub watchdog: WatchdogConfig,
    /// Threaded executor: how many times a failing frame is re-executed
    /// before its outputs are degraded (padded) and the run advances.
    pub par_retry_budget: u32,
    /// Threaded executor: wall-clock bound on any single blocking queue
    /// wait. The backstop that turns a dead peer into an error (or a
    /// recovery) instead of a hang; scale it down in tests so failures
    /// surface in seconds.
    pub stall_timeout: Duration,
    /// Real-time pacing: `Off` (the default, batch semantics) or
    /// `Paced { period, deadline, slo }` in clock ticks (µs threaded,
    /// rounds deterministic).
    pub pacing: Pacing,
    /// Event tracing. `Off` (the default) takes the untraced fast path:
    /// no tracer is constructed and every emit site is one `None` check.
    pub trace: TraceConfig,
    /// Metrics plane. `Off` (the default) constructs no probes and every
    /// record site is one `None` check; enabled runs emit per-frame and
    /// per-interval snapshots into `RunReport.telemetry`.
    pub telemetry: TelemetryConfig,
}

impl SimConfig {
    /// An error-free run of `frames` steady iterations.
    ///
    /// `inject` is off, so overriding `protection` via struct update
    /// still yields a genuinely error-free run; use [`Self::with_errors`]
    /// (or set `inject: true`) when faults are wanted.
    pub fn error_free(frames: u64) -> Self {
        SimConfig {
            protection: Protection::ErrorFree,
            inject: false,
            mtbe: Mtbe::kilo_instructions(1024),
            effect_model: EffectModel::calibrated(),
            fault_class: FaultClass::Baseline,
            seed: 1,
            frames,
            queue_capacity: 65_536,
            timeout_rounds: 256,
            max_rounds: u64::MAX,
            mem_model: MemModel::default(),
            overhead_model: OverheadModel::default(),
            watchdog: WatchdogConfig::default(),
            par_retry_budget: 3,
            stall_timeout: Duration::from_secs(10),
            pacing: Pacing::Off,
            trace: TraceConfig::Off,
            telemetry: TelemetryConfig::Off,
        }
    }

    /// A run under `protection` with errors at `mtbe`.
    pub fn with_errors(frames: u64, protection: Protection, mtbe: Mtbe, seed: u64) -> Self {
        SimConfig {
            protection,
            inject: true,
            mtbe,
            seed,
            ..SimConfig::error_free(frames)
        }
    }

    /// Whether fault injectors will actually fire.
    pub fn faults_enabled(&self) -> bool {
        self.inject && self.protection.errors_enabled()
    }

    /// The shape of every queue: the configured capacity with the
    /// protection mode's shared-pointer storage.
    pub(crate) fn queue_spec(&self) -> QueueSpec {
        QueueSpec::with_capacity(self.queue_capacity).pointer_mode(self.protection.pointer_mode())
    }

    /// The CommGuard modules of one core with `ins` in-ports and `outs`
    /// out-ports; disabled unless the protection mode is CommGuard.
    pub(crate) fn core_guard(&self, ins: usize, outs: usize) -> CoreGuard {
        match self.protection.guard_config() {
            Some(cfg) => {
                // Promoted frames over the whole run (§5.4 scaling).
                let promoted = self.frames.div_ceil(u64::from(cfg.frame_scale));
                CoreGuard::new(ins, outs, &cfg, u32::try_from(promoted).ok())
            }
            None => CoreGuard::disabled(ins, outs),
        }
    }

    /// The fault injector of `core`, seeded from the run seed and the core
    /// id; it never fires unless faults are enabled.
    pub(crate) fn core_injector(&self, core: u64) -> CoreInjector {
        if self.faults_enabled() {
            CoreInjector::new(self.mtbe, self.effect_model, self.seed, core)
        } else {
            CoreInjector::disabled(self.seed, core)
        }
    }

    /// Sets the frame count (builder style).
    #[must_use]
    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// Sets the seed (builder style).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace mode (builder style).
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the telemetry mode (builder style).
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the threaded-executor frame retry budget (builder style).
    #[must_use]
    pub fn par_retry_budget(mut self, budget: u32) -> Self {
        self.par_retry_budget = budget;
        self
    }

    /// Sets the blocking-wait stall timeout (builder style).
    #[must_use]
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Sets the per-port QM timeout threshold, in fruitless visits
    /// (builder style).
    #[must_use]
    pub fn timeout_rounds(mut self, rounds: u64) -> Self {
        self.timeout_rounds = rounds;
        self
    }

    /// Enables pacing (builder style) and derives paced-appropriate
    /// blocking backstops when the caller left them at their batch
    /// defaults:
    ///
    /// * `stall_timeout` drops from the 10 s batch backstop to
    ///   `4 × period` (floored at 50 ms) — under pacing a blocked port
    ///   should turn into a recovery well inside a handful of frame
    ///   periods, not after ten wall seconds.
    /// * `timeout_rounds` is raised to at least `4 × period` (the
    ///   deterministic analogue): a paced consumer legitimately idles up
    ///   to a full period between released frames, and a QM timeout
    ///   shorter than that would force stale transfers on an error-free
    ///   paced run.
    ///
    /// Explicitly-set `stall_timeout` and `timeout_rounds` values are
    /// respected (the derivation only replaces untouched defaults).
    /// Periods are interpreted as µs on the threaded executor and as
    /// scheduler rounds on the deterministic one.
    #[must_use]
    pub fn pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        if let Pacing::Paced { period, .. } = pacing {
            if self.stall_timeout == Duration::from_secs(10) {
                self.stall_timeout =
                    Duration::from_micros(period.saturating_mul(4)).max(Duration::from_millis(50));
            }
            if self.timeout_rounds == 256 {
                self.timeout_rounds = self.timeout_rounds.max(period.saturating_mul(4));
            }
        }
        self
    }

    /// Sizes the occupancy-sensitive knobs for a graph whose hottest
    /// edge carries `demand` items per steady iteration (frame data plus
    /// in-band header slack — see
    /// `cg_graph::random::GraphProfile::queue_demand`). Used by the fuzz
    /// campaign so that legal-but-extreme generated graphs cannot
    /// false-positive a watchdog; the audit behind each bound:
    ///
    /// * `queue_capacity` is raised to at least `demand`, the sufficient
    ///   condition for the frame schedule to be admissible on fan-in/
    ///   fan-out graphs ([`crate::check_queue_capacity`]).
    /// * `timeout_rounds` is raised to at least `4 × demand`: under the
    ///   deterministic round-robin scheduler a consumer may legally stay
    ///   blocked while the producer side moves a full frame one firing
    ///   per visit, so a QM timeout shorter than the frame turns legal
    ///   skew into forced (incorrect) transfers on an error-free run.
    /// * `stall_timeout` gains `2 ms` of budget per demanded item on top
    ///   of a 100 ms floor: the worst legal blocking wait in the
    ///   threaded executor is a peer producing or consuming one full
    ///   frame, which is linear in `demand`.
    /// * `par_retry_budget` is deliberately **not** scaled: frame
    ///   retries are charged per frame, not per item, so worst-case
    ///   occupancy does not change how many retries a run may legally
    ///   need (the bound stays `par_retry_budget × frames × nodes`).
    #[must_use]
    pub fn for_queue_demand(mut self, demand: u64) -> Self {
        // Rings need at least 8 units (one per working set).
        self.queue_capacity = self.queue_capacity.max(demand as usize).max(8);
        self.timeout_rounds = self.timeout_rounds.max(4 * demand);
        self.stall_timeout = self
            .stall_timeout
            .max(Duration::from_millis(100 + 2 * demand));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = SimConfig::error_free(10);
        assert_eq!(c.frames, 10);
        assert!(!c.protection.errors_enabled());
        let e = SimConfig::with_errors(5, Protection::commguard(), Mtbe::kilo_instructions(512), 7);
        assert_eq!(e.seed, 7);
        assert_eq!(e.frames, 5);
        assert!(e.protection.guards_enabled());
        let f = c.frames(3).seed(9);
        assert_eq!((f.frames, f.seed), (3, 9));
    }

    #[test]
    fn threaded_fault_policy_defaults() {
        let c = SimConfig::error_free(1);
        assert_eq!(c.par_retry_budget, 3);
        assert_eq!(c.stall_timeout, Duration::from_secs(10));
        let c = c
            .par_retry_budget(5)
            .stall_timeout(Duration::from_millis(50));
        assert_eq!(c.par_retry_budget, 5);
        assert_eq!(c.stall_timeout, Duration::from_millis(50));
    }

    #[test]
    fn queue_demand_sizing_floors() {
        // Tight settings are raised to the audited floors…
        let tight = SimConfig {
            queue_capacity: 8,
            timeout_rounds: 16,
            stall_timeout: Duration::from_millis(10),
            ..SimConfig::error_free(2)
        }
        .for_queue_demand(100);
        assert_eq!(tight.queue_capacity, 100);
        assert_eq!(tight.timeout_rounds, 400);
        assert_eq!(tight.stall_timeout, Duration::from_millis(300));
        // …generous settings are left alone…
        let generous = SimConfig::error_free(2).for_queue_demand(10);
        assert_eq!(generous.queue_capacity, 65_536);
        assert_eq!(generous.timeout_rounds, 256);
        assert_eq!(generous.stall_timeout, Duration::from_secs(10));
        // …and the ring's minimum capacity is always respected.
        let tiny = SimConfig {
            queue_capacity: 8,
            ..SimConfig::error_free(2)
        }
        .for_queue_demand(3);
        assert_eq!(tiny.queue_capacity, 8);
    }

    #[test]
    fn pacing_defaults_off_and_schedule_math() {
        let c = SimConfig::error_free(4);
        assert_eq!(c.pacing, Pacing::Off);
        assert!(!c.pacing.is_paced());
        assert_eq!(c.pacing.release(3), 0);
        assert_eq!(c.pacing.deadline_for(3), u64::MAX);

        let p = Pacing::Paced {
            period: 1000,
            deadline: 2500,
            slo: 2000,
        };
        assert!(p.is_paced());
        assert_eq!(p.period(), Some(1000));
        assert_eq!(p.release(3), 3000);
        assert_eq!(p.deadline_for(3), 5500);
    }

    #[test]
    fn pacing_builder_derives_backstops() {
        let p = Pacing::Paced {
            period: 20_000,
            deadline: 40_000,
            slo: 40_000,
        };
        // Untouched defaults are re-derived from the period…
        let c = SimConfig::error_free(4).pacing(p);
        assert_eq!(c.stall_timeout, Duration::from_millis(80));
        assert_eq!(c.timeout_rounds, 80_000, "QM timeout covers the idle gap");
        // …explicit settings win over the derivation…
        let c = SimConfig::error_free(4)
            .stall_timeout(Duration::from_millis(250))
            .timeout_rounds(512)
            .pacing(p);
        assert_eq!(c.stall_timeout, Duration::from_millis(250));
        assert_eq!(c.timeout_rounds, 512);
        // …and short periods floor the stall timeout.
        let tight = SimConfig::error_free(4).pacing(Pacing::Paced {
            period: 100,
            deadline: 300,
            slo: 300,
        });
        assert_eq!(tight.stall_timeout, Duration::from_millis(50));
    }

    #[test]
    fn tracing_defaults_off() {
        let c = SimConfig::error_free(1);
        assert_eq!(c.trace, TraceConfig::Off);
        let t = c.trace(TraceConfig::ring());
        assert!(t.trace.is_enabled());
    }

    #[test]
    fn telemetry_defaults_off() {
        let c = SimConfig::error_free(1);
        assert_eq!(c.telemetry, TelemetryConfig::Off);
        let t = c.telemetry(TelemetryConfig::enabled());
        assert!(t.telemetry.is_enabled());
    }
}
