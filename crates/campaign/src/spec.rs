//! Campaign specification: the sweep's axes and per-run parameters.

use cg_fault::{FaultClass, Mtbe};
use cg_runtime::Pacing;
use commguard::Protection;

/// Which executor runs the sweep's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The round-robin deterministic simulator (`cg_runtime::run`).
    #[default]
    Deterministic,
    /// The one-OS-thread-per-node executor (`cg_runtime::run_parallel`)
    /// with per-core fault injection and frame-level checkpoint /
    /// re-execute recovery.
    Threaded,
}

impl ExecutorKind {
    /// Short label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutorKind::Deterministic => "det",
            ExecutorKind::Threaded => "threaded",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "det" | "deterministic" => Ok(ExecutorKind::Deterministic),
            "threaded" | "par" | "parallel" => Ok(ExecutorKind::Threaded),
            other => Err(format!(
                "unknown executor '{other}' (expected det or threaded)"
            )),
        }
    }

    /// The default paced schedule for this executor's clock domain:
    /// scheduler rounds on the deterministic simulator, microseconds on
    /// the threaded executor. Both leave the deadline several periods
    /// past release so healthy runs meet it with room while a wedged
    /// recovery still trips the ladder inside the sweep's budget.
    pub fn default_pacing(&self) -> Pacing {
        match self {
            ExecutorKind::Deterministic => Pacing::Paced {
                period: 32,
                deadline: 128,
                slo: 128,
            },
            ExecutorKind::Threaded => Pacing::Paced {
                period: 300,
                deadline: 5_000,
                slo: 5_000,
            },
        }
    }
}

/// The full cross product swept by a campaign: every fault class ×
/// every MTBE × every protection mode × every seed.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Fault classes to inject.
    pub classes: Vec<FaultClass>,
    /// Error rates (mean instructions between errors).
    pub mtbes: Vec<Mtbe>,
    /// Protection modes under test.
    pub protections: Vec<Protection>,
    /// Seeds per cell; runs use seeds `1..=seeds`.
    pub seeds: u64,
    /// Steady-state frames per run.
    pub frames: u64,
    /// Queue capacity per run — small enough that cores genuinely block
    /// on each other, so pointer/stall classes have teeth.
    pub queue_capacity: usize,
    /// Hard scheduler-round cap; hitting it classifies the run as a hang.
    pub max_rounds: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Which executor runs each cell. The threaded executor layers the
    /// frame retry/degrade recovery ladder on top of the same fault
    /// classes, so its invariants additionally bound retries and require
    /// header conservation against a fault-free golden run.
    pub executor: ExecutorKind,
    /// When set, runs are traced (ring buffer) and violating, mismatching
    /// or hanging runs dump their trace + propagation summary into this
    /// directory. `None` (the default) keeps the zero-cost untraced path.
    pub trace_dir: Option<String>,
    /// When set, the metrics plane is enabled for every run: frame-latency
    /// percentiles land in each [`crate::RunRecord`], and each run dumps a
    /// Prometheus `.prom` + snapshot `.jsonl` pair into this directory.
    /// `None` (the default) keeps the zero-cost unprobed path.
    pub telemetry_dir: Option<String>,
    /// When set, every run executes under this paced real-time schedule:
    /// sources release frames on the period, overdue frames degrade at
    /// the deadline instead of stalling, and each [`crate::RunRecord`]
    /// carries the run's deadline accounting. Guarded paced runs must
    /// account for every scheduled frame. `None` (the default) keeps the
    /// self-timed executors.
    pub pacing: Option<Pacing>,
}

impl Default for CampaignSpec {
    /// The acceptance sweep: all five fault classes × three MTBEs ×
    /// three protection modes × ten seeds.
    fn default() -> Self {
        CampaignSpec {
            classes: FaultClass::all().to_vec(),
            // Instruction-level MTBEs: campaign pipelines run a few
            // thousand instructions per core, so these yield roughly
            // "storm", "frequent", and "occasional" fault regimes.
            mtbes: vec![
                Mtbe::instructions(256),
                Mtbe::instructions(2048),
                Mtbe::instructions(16_384),
            ],
            protections: vec![
                Protection::PpuUnprotectedQueue,
                Protection::PpuReliableQueue,
                Protection::commguard(),
            ],
            seeds: 10,
            frames: 40,
            queue_capacity: 16,
            max_rounds: 4_000_000,
            threads: 0,
            executor: ExecutorKind::default(),
            trace_dir: None,
            telemetry_dir: None,
            pacing: None,
        }
    }
}

impl CampaignSpec {
    /// A fast smoke-test sweep (CI / `--quick`).
    pub fn quick() -> Self {
        CampaignSpec {
            seeds: 3,
            frames: 16,
            ..Default::default()
        }
    }

    /// Total number of runs in the sweep.
    pub fn total_runs(&self) -> usize {
        self.classes.len() * self.mtbes.len() * self.protections.len() * self.seeds as usize
    }

    /// Flattens the cross product into per-run cells.
    pub fn cells(&self) -> Vec<RunCell> {
        let mut out = Vec::with_capacity(self.total_runs());
        for &class in &self.classes {
            for &mtbe in &self.mtbes {
                for &protection in &self.protections {
                    for seed in 1..=self.seeds {
                        out.push(RunCell {
                            class,
                            mtbe,
                            protection,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunCell {
    /// Fault class injected.
    pub class: FaultClass,
    /// Error rate.
    pub mtbe: Mtbe,
    /// Protection mode.
    pub protection: Protection,
    /// Run seed.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_meets_acceptance_floor() {
        let s = CampaignSpec::default();
        assert!(s.classes.len() >= 3);
        assert!(s.mtbes.len() >= 3);
        assert_eq!(s.protections.len(), 3);
        assert!(s.seeds >= 10);
        assert_eq!(s.total_runs(), s.cells().len());
        assert_eq!(s.total_runs(), 5 * 3 * 3 * 10);
    }

    #[test]
    fn quick_sweep_is_smaller() {
        let q = CampaignSpec::quick();
        assert!(q.total_runs() < CampaignSpec::default().total_runs());
    }

    #[test]
    fn executor_kind_parses_and_labels() {
        assert_eq!(
            CampaignSpec::default().executor,
            ExecutorKind::Deterministic
        );
        assert_eq!(ExecutorKind::parse("det"), Ok(ExecutorKind::Deterministic));
        assert_eq!(ExecutorKind::parse("threaded"), Ok(ExecutorKind::Threaded));
        assert_eq!(ExecutorKind::parse("par"), Ok(ExecutorKind::Threaded));
        assert!(ExecutorKind::parse("gpu").is_err());
        assert_eq!(ExecutorKind::Threaded.label(), "threaded");
    }

    #[test]
    fn pacing_defaults_match_the_executor_clock_domain() {
        assert_eq!(CampaignSpec::default().pacing, None);
        let det = ExecutorKind::Deterministic.default_pacing();
        let thr = ExecutorKind::Threaded.default_pacing();
        assert!(det.is_paced() && thr.is_paced());
        // Rounds are coarser than microseconds; the det schedule must be
        // numerically tighter than the wall-clock one.
        assert!(det.period().unwrap() < thr.period().unwrap());
    }
}
