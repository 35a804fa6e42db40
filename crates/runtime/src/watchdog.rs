//! Runtime watchdog: cross-core stall detection with a bounded
//! escalation ladder.
//!
//! The per-port [`commguard::qm::TimeoutTracker`]s guarantee that a
//! *blocked queue operation* cannot stall a core forever — but only while
//! their thresholds are finite, and only for stalls that manifest as
//! blocked pushes/pops. The watchdog sits above them and watches the
//! whole machine: if **no core makes any progress** for a configurable
//! number of scheduler rounds, it escalates through four rungs, each
//! strictly stronger than the last:
//!
//! 1. **ArmTimeouts** — force every port's QM timeout to fire on its next
//!    blocked attempt, regardless of threshold (the QM rung).
//! 2. **ForceProgress** — directly complete the stalled phase of every
//!    live core with timeout semantics (forced transfers of stale data).
//! 3. **AbortFrame** — abandon the current frame computation of every
//!    live core: staged state is dropped and the core skips to its next
//!    frame boundary, where the HI/AM machinery realigns.
//! 4. **DegradeFrame** — the terminal rung: every live core's remaining
//!    obligations for the current frame are *discharged* rather than
//!    dropped — staged outputs are flushed and the balance of the frame's
//!    output rate is padded with zeros via forced pushes, so downstream
//!    consumers see a complete (if degraded) frame and the machine is
//!    guaranteed unwedged even when aborting alone could not restart it.
//!
//! The threaded executor reaches the same rung-4 semantics through its
//! frame retry/degrade path (see `crate::parallel`); its per-frame retry
//! and degradation counts are merged into [`WatchdogStats`] as
//! `frame_retries` / `frame_degrades`.
//!
//! Every escalation is counted in [`WatchdogStats`] and surfaced in the
//! run [`crate::RunReport`].

/// Watchdog configuration (part of [`crate::SimConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch.
    pub enabled: bool,
    /// Scheduler rounds without any cross-core progress before the first
    /// rung fires.
    pub stall_rounds: u64,
    /// Additional no-progress rounds between successive rungs.
    pub escalation_rounds: u64,
}

impl WatchdogConfig {
    /// A watchdog that never intervenes.
    pub fn disabled() -> Self {
        WatchdogConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

impl Default for WatchdogConfig {
    /// Enabled, with thresholds far beyond the default QM timeout
    /// (`SimConfig::timeout_rounds = 256`): in any ordinary run the QM
    /// restores progress long before the watchdog notices, so the ladder
    /// only fires when the QM layer itself is disabled or defeated.
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            stall_rounds: 4096,
            escalation_rounds: 1024,
        }
    }
}

/// The action the executor must take this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogAction {
    /// Nothing to do.
    None,
    /// Rung 1: arm every QM timeout tracker.
    ArmTimeouts,
    /// Rung 2: force the stalled phase of every live core to complete.
    ForceProgress,
    /// Rung 3: abort the current frame of every live core.
    AbortFrame,
    /// Rung 4: discharge the current frame of every live core — flush
    /// staged outputs, pad the rest of the frame's output rate with
    /// forced zero pushes, and advance to the next boundary.
    DegradeFrame,
}

/// Escalation counters, reported per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogStats {
    /// Distinct stall episodes detected (rung 1 entries).
    pub stall_events: u64,
    /// Rung-1 firings: QM timeouts armed machine-wide.
    pub timeout_escalations: u64,
    /// Rung-2 firings: phases forcibly completed.
    pub forced_progress: u64,
    /// Rung-3 firings: frames aborted.
    pub frame_aborts: u64,
    /// Rung-4 firings (deterministic executor) plus frames degraded after
    /// retry-budget exhaustion (threaded executor).
    pub frame_degrades: u64,
    /// Frames re-executed from their boundary snapshot (threaded
    /// executor's recovery rung; always 0 on the deterministic path).
    pub frame_retries: u64,
    /// Longest observed no-progress streak, in rounds.
    pub max_stall_rounds: u64,
}

impl WatchdogStats {
    /// Total escalations across all rungs.
    pub fn total_escalations(&self) -> u64 {
        self.timeout_escalations + self.forced_progress + self.frame_aborts + self.frame_degrades
    }
}

impl std::ops::AddAssign for WatchdogStats {
    fn add_assign(&mut self, rhs: Self) {
        self.stall_events += rhs.stall_events;
        self.timeout_escalations += rhs.timeout_escalations;
        self.forced_progress += rhs.forced_progress;
        self.frame_aborts += rhs.frame_aborts;
        self.frame_degrades += rhs.frame_degrades;
        self.frame_retries += rhs.frame_retries;
        self.max_stall_rounds = self.max_stall_rounds.max(rhs.max_stall_rounds);
    }
}

/// The stall detector itself. Owned by the executor loop; fed one
/// observation per scheduler round.
#[derive(Debug, Clone)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    /// Consecutive rounds without progress.
    stalled_for: u64,
    /// Rungs already fired in the current stall episode (0–4).
    rung: u32,
    stats: WatchdogStats,
}

impl Watchdog {
    /// Creates a watchdog with the given configuration.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            stalled_for: 0,
            rung: 0,
            stats: WatchdogStats::default(),
        }
    }

    /// Records one scheduler round and returns the action to take.
    /// `progressed` is whether any core advanced observable state.
    pub fn on_round(&mut self, progressed: bool) -> WatchdogAction {
        if !self.cfg.enabled {
            return WatchdogAction::None;
        }
        if progressed {
            self.stalled_for = 0;
            self.rung = 0;
            return WatchdogAction::None;
        }
        self.stalled_for += 1;
        self.stats.max_stall_rounds = self.stats.max_stall_rounds.max(self.stalled_for);
        let due = self.cfg.stall_rounds + u64::from(self.rung) * self.cfg.escalation_rounds;
        if self.stalled_for < due || self.rung >= 4 {
            return WatchdogAction::None;
        }
        self.rung += 1;
        match self.rung {
            1 => {
                self.stats.stall_events += 1;
                self.stats.timeout_escalations += 1;
                WatchdogAction::ArmTimeouts
            }
            2 => {
                self.stats.forced_progress += 1;
                WatchdogAction::ForceProgress
            }
            3 => {
                self.stats.frame_aborts += 1;
                WatchdogAction::AbortFrame
            }
            _ => {
                self.stats.frame_degrades += 1;
                WatchdogAction::DegradeFrame
            }
        }
    }

    /// Notes that something *outside* the ladder just degraded a frame
    /// (the deadline ladder's forced `DegradeFrame`), which IS progress:
    /// the stalled frame was discharged and the machine is on a fresh
    /// frame. Resets the stall episode so a concurrently-armed ladder
    /// cannot go on to fire `AbortFrame`/`DegradeFrame` against the *new*
    /// frame — the terminal rung stays idempotent per frame.
    pub fn note_external_degrade(&mut self) {
        self.stalled_for = 0;
        self.rung = 0;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WatchdogStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Watchdog {
        Watchdog::new(WatchdogConfig {
            enabled: true,
            stall_rounds: 3,
            escalation_rounds: 2,
        })
    }

    #[test]
    fn quiet_while_progressing() {
        let mut w = tiny();
        for _ in 0..100 {
            assert_eq!(w.on_round(true), WatchdogAction::None);
        }
        assert_eq!(w.stats().total_escalations(), 0);
    }

    #[test]
    fn ladder_escalates_in_order() {
        let mut w = tiny();
        let mut actions = Vec::new();
        for _ in 0..12 {
            actions.push(w.on_round(false));
        }
        use WatchdogAction::*;
        assert_eq!(
            actions,
            vec![
                None,
                None,
                ArmTimeouts, // round 3 = stall_rounds
                None,
                ForceProgress, // +2 = escalation_rounds
                None,
                AbortFrame, // +2 more
                None,
                DegradeFrame, // +2 more: the terminal rung
                None,
                None,
                None, // ladder exhausted: no repeats within the episode
            ]
        );
        let s = w.stats();
        assert_eq!(s.stall_events, 1);
        assert_eq!(s.timeout_escalations, 1);
        assert_eq!(s.forced_progress, 1);
        assert_eq!(s.frame_aborts, 1);
        assert_eq!(s.frame_degrades, 1);
        assert_eq!(s.total_escalations(), 4);
        assert_eq!(s.max_stall_rounds, 12);
    }

    #[test]
    fn progress_resets_the_episode() {
        let mut w = tiny();
        for _ in 0..3 {
            w.on_round(false);
        }
        assert_eq!(w.stats().stall_events, 1);
        assert_eq!(w.on_round(true), WatchdogAction::None);
        // A second full episode runs the ladder again from rung 1.
        let mut seen_arm = false;
        for _ in 0..3 {
            seen_arm |= w.on_round(false) == WatchdogAction::ArmTimeouts;
        }
        assert!(seen_arm);
        assert_eq!(w.stats().stall_events, 2);
    }

    #[test]
    fn external_degrade_resets_a_racing_ladder() {
        let mut w = tiny();
        // Ladder runs to AbortFrame: rounds 3, 5, 7 fire rungs 1–3.
        for _ in 0..7 {
            w.on_round(false);
        }
        assert_eq!(w.stats().frame_aborts, 1);
        // A deadline degrade discharges the frame outside the ladder…
        w.note_external_degrade();
        // …so a continued stall must start a NEW episode from rung 1
        // rather than firing the terminal DegradeFrame on the next frame.
        let mut next_fire = WatchdogAction::None;
        for _ in 0..3 {
            let a = w.on_round(false);
            if a != WatchdogAction::None {
                next_fire = a;
            }
        }
        assert_eq!(next_fire, WatchdogAction::ArmTimeouts);
        assert_eq!(w.stats().stall_events, 2);
        assert_eq!(w.stats().frame_degrades, 0, "terminal rung not re-fired");
    }

    #[test]
    fn disabled_watchdog_never_acts() {
        let mut w = Watchdog::new(WatchdogConfig::disabled());
        for _ in 0..10_000 {
            assert_eq!(w.on_round(false), WatchdogAction::None);
        }
        assert_eq!(w.stats().total_escalations(), 0);
    }

    #[test]
    fn stats_merge() {
        let mut a = WatchdogStats {
            stall_events: 1,
            timeout_escalations: 1,
            max_stall_rounds: 5,
            ..Default::default()
        };
        a += WatchdogStats {
            stall_events: 2,
            frame_aborts: 1,
            frame_degrades: 2,
            frame_retries: 4,
            max_stall_rounds: 3,
            ..Default::default()
        };
        assert_eq!(a.stall_events, 3);
        assert_eq!(a.total_escalations(), 4);
        assert_eq!(a.frame_retries, 4);
        assert_eq!(a.max_stall_rounds, 5);
    }
}
