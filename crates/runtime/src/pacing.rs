//! Real-time pacing: frame release schedule, deadline/slack accounting,
//! and the run-level SLO verdict.
//!
//! Pacing turns the batch executors into a live media pipeline: a
//! [`PacedSource`] releases frame `f` no earlier than `f × period` on the
//! run's [`Clock`], every frame carries the absolute deadline
//! `f × period + deadline`, and recovery is re-budgeted in *time* — when
//! the remaining slack can no longer cover a checkpoint re-execution the
//! executor skips straight to the degrade rung rather than burning retry
//! budget and blowing the deadline.
//!
//! Ticks live in the clock's unit: microseconds under the threaded
//! executor's wall clock, scheduler rounds under the deterministic
//! executor's virtual clock (which is what keeps paced det runs
//! byte-reproducible — wall time never enters the schedule).

use std::time::Duration;

use cg_telemetry::{Clock, ClockMode, Histogram};

use crate::config::Pacing;

/// How long before a wall-clock release [`PacedSource::wait_release`]
/// stops sleeping and spins, in µs. A sleep overshoots by the kernel's
/// timer slack (50 µs by default on Linux), so a source that slept all
/// the way to the tick would release every frame about that late.
const SPIN_BEFORE_RELEASE_US: u64 = 60;

/// Drives a run's frame-release schedule against a [`Clock`].
///
/// One `PacedSource` is shared by every source node of a run (clones of a
/// wall [`Clock`] share their origin, so all workers agree on "now").
#[derive(Debug, Clone)]
pub struct PacedSource {
    pacing: Pacing,
    clock: Clock,
}

impl PacedSource {
    /// A driver for `pacing` reading time from `clock`.
    pub fn new(pacing: Pacing, clock: Clock) -> Self {
        PacedSource { pacing, clock }
    }

    /// The pacing policy being driven.
    pub fn pacing(&self) -> Pacing {
        self.pacing
    }

    /// Current tick of the underlying clock.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Whether 0-based frame `frame` may be released at the current tick.
    /// Always `true` when pacing is off.
    pub fn released(&self, frame: u64) -> bool {
        self.clock.now() >= self.pacing.release(frame)
    }

    /// Absolute deadline tick of frame `frame` (`u64::MAX` when off).
    pub fn deadline(&self, frame: u64) -> u64 {
        self.pacing.deadline_for(frame)
    }

    /// Remaining slack of frame `frame` at the current tick, saturating
    /// at zero once the deadline has passed. `u64::MAX` when pacing is
    /// off (infinite slack).
    pub fn slack(&self, frame: u64) -> u64 {
        let dl = self.pacing.deadline_for(frame);
        if dl == u64::MAX {
            return u64::MAX;
        }
        dl.saturating_sub(self.clock.now())
    }

    /// Whether frame `frame` is already past its deadline ("hopeless"):
    /// any work spent on it cannot land on time, so the overload ladder
    /// degrades it instead of executing it. Never `true` when off.
    pub fn hopeless(&self, frame: u64) -> bool {
        let dl = self.pacing.deadline_for(frame);
        dl != u64::MAX && self.clock.now() >= dl
    }

    /// Blocks (wall clock only) until frame `frame` is released: sleeps
    /// until just before the release tick, then spins to it, so the
    /// release is on time rather than a timer slack late. On the
    /// deterministic virtual clock this must never be called from inside
    /// the scheduler loop — the loop gates source steps on
    /// [`Self::released`] instead — so it returns immediately there.
    pub fn wait_release(&self, frame: u64) {
        if !self.pacing.is_paced() || self.clock.mode() == ClockMode::Deterministic {
            return;
        }
        let release = self.pacing.release(frame);
        loop {
            let now = self.clock.now();
            if now >= release {
                return;
            }
            // Wall ticks are microseconds. The OS may wake a sleeper early
            // (hence the loop) or late by its timer slack, so sleep only
            // while the gap exceeds the spin window.
            let gap = release - now;
            if gap > SPIN_BEFORE_RELEASE_US {
                std::thread::sleep(Duration::from_micros(gap - SPIN_BEFORE_RELEASE_US));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Per-run deadline accounting, accumulated at sink frame commits and
/// folded into [`crate::RunReport`] as `pacing`.
///
/// On multi-sink graphs each (sink, frame) commit is one observation, so
/// `frames_on_time + deadline_misses = sinks × frames`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PacingReport {
    /// Release period, in clock ticks.
    pub period: u64,
    /// Per-frame latency budget, in clock ticks.
    pub deadline: u64,
    /// p99 latency objective, in clock ticks.
    pub slo: u64,
    /// Clock unit label: `"us"` (threaded wall clock) or `"rounds"`
    /// (deterministic virtual clock).
    pub unit: &'static str,
    /// Sink frame commits that landed at or before their deadline.
    pub frames_on_time: u64,
    /// Sink frame commits that landed after their deadline.
    pub deadline_misses: u64,
    /// Frames degraded *because of the deadline ladder* (slack could no
    /// longer cover a re-execution, or the frame was already hopeless at
    /// entry), as opposed to degrades after an exhausted retry budget.
    pub degraded_for_deadline: u64,
    /// End-to-end latency (release → sink commit) per frame, in ticks.
    pub latency: Histogram,
    /// Remaining slack at sink commit per frame, in ticks; misses record
    /// zero slack.
    pub slack: Histogram,
}

impl PacingReport {
    /// An empty report carrying the schedule parameters of `pacing`.
    /// `None` when pacing is off.
    pub fn for_pacing(pacing: Pacing, unit: &'static str) -> Option<Self> {
        match pacing {
            Pacing::Off => None,
            Pacing::Paced {
                period,
                deadline,
                slo,
            } => Some(PacingReport {
                period,
                deadline,
                slo,
                unit,
                ..PacingReport::default()
            }),
        }
    }

    /// Records one sink frame commit: the frame was released at
    /// `release`, had absolute deadline `deadline`, and committed at
    /// `now`.
    pub fn record_commit(&mut self, release: u64, deadline: u64, now: u64) {
        let latency = now.saturating_sub(release);
        self.latency.record(latency);
        if now <= deadline {
            self.frames_on_time += 1;
            self.slack.record(deadline - now);
        } else {
            self.deadline_misses += 1;
            self.slack.record(0);
        }
    }

    /// Merges another report's observations (parallel sink workers).
    pub fn merge(&mut self, other: &PacingReport) {
        self.frames_on_time += other.frames_on_time;
        self.deadline_misses += other.deadline_misses;
        self.degraded_for_deadline += other.degraded_for_deadline;
        self.latency.merge(&other.latency);
        self.slack.merge(&other.slack);
    }

    /// Total sink frame commits observed.
    pub fn frames_observed(&self) -> u64 {
        self.frames_on_time + self.deadline_misses
    }

    /// Observed p99 end-to-end latency in ticks (0 when nothing was
    /// observed; upper bucket bound, ≤ 12.5% over the true value).
    pub fn p99_latency(&self) -> u64 {
        if self.latency.is_empty() {
            0
        } else {
            self.latency.quantile(0.99)
        }
    }

    /// The SLO verdict: observed p99 latency at or under the objective.
    /// Vacuously `true` when nothing was observed.
    pub fn slo_met(&self) -> bool {
        self.p99_latency() <= self.slo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paced(period: u64, deadline: u64, slo: u64) -> Pacing {
        Pacing::Paced {
            period,
            deadline,
            slo,
        }
    }

    #[test]
    fn det_clock_release_and_slack() {
        let clock = Clock::new(ClockMode::Deterministic);
        let src = PacedSource::new(paced(10, 25, 20), clock.clone());
        assert!(src.released(0));
        assert!(!src.released(1));
        clock.advance_to(10);
        assert!(src.released(1));
        assert!(!src.released(2));
        // Frame 1: release 10, deadline 35.
        assert_eq!(src.deadline(1), 35);
        assert_eq!(src.slack(1), 25);
        clock.advance_to(35);
        assert_eq!(src.slack(1), 0);
        assert!(src.hopeless(1));
        assert!(!src.hopeless(3));
        // wait_release is a no-op on the virtual clock.
        src.wait_release(4);
    }

    #[test]
    fn off_means_infinite_slack() {
        let src = PacedSource::new(Pacing::Off, Clock::new(ClockMode::Deterministic));
        assert!(src.released(u64::MAX));
        assert_eq!(src.slack(7), u64::MAX);
        assert!(!src.hopeless(7));
        assert_eq!(PacingReport::for_pacing(Pacing::Off, "rounds"), None);
    }

    #[test]
    fn report_accounting_and_verdict() {
        let mut r = PacingReport::for_pacing(paced(10, 25, 30), "rounds").unwrap();
        r.record_commit(0, 25, 20); // on time, latency 20, slack 5
        r.record_commit(10, 35, 40); // miss, latency 30, slack 0
        assert_eq!(r.frames_on_time, 1);
        assert_eq!(r.deadline_misses, 1);
        assert_eq!(r.frames_observed(), 2);
        assert_eq!(r.latency.count(), 2);
        assert_eq!(r.slack.min(), 0);
        assert!(r.p99_latency() >= 30);
        // p99 over {20, 30} lands in the 30 bucket; slo 30's bucket
        // upper bound still satisfies a generous objective…
        let generous = PacingReport {
            slo: 1000,
            ..r.clone()
        };
        assert!(generous.slo_met());
        // …and a 1-tick objective fails.
        let strict = PacingReport {
            slo: 1,
            ..r.clone()
        };
        assert!(!strict.slo_met());
    }

    #[test]
    fn report_merge_sums_everything() {
        let mut a = PacingReport::for_pacing(paced(10, 20, 20), "us").unwrap();
        a.record_commit(0, 20, 10);
        let mut b = PacingReport::for_pacing(paced(10, 20, 20), "us").unwrap();
        b.record_commit(10, 30, 40);
        b.degraded_for_deadline = 2;
        a.merge(&b);
        assert_eq!(a.frames_on_time, 1);
        assert_eq!(a.deadline_misses, 1);
        assert_eq!(a.degraded_for_deadline, 2);
        assert_eq!(a.latency.count(), 2);
    }

    #[test]
    fn wall_clock_wait_release_sleeps_to_schedule() {
        let clock = Clock::new(ClockMode::Wall);
        let src = PacedSource::new(paced(2000, 4000, 4000), clock.clone());
        src.wait_release(0); // immediate
        src.wait_release(1); // ~2 ms in
        assert!(clock.now() >= 2000);
        assert!(src.released(1));
    }

    #[test]
    fn wall_clock_release_is_never_early_and_rarely_late() {
        const PERIOD: u64 = 1000;
        let clock = Clock::new(ClockMode::Wall);
        let src = PacedSource::new(paced(PERIOD, 2 * PERIOD, 2 * PERIOD), clock.clone());
        let mut late: Vec<u64> = (0..50)
            .map(|f| {
                src.wait_release(f);
                let now = clock.now();
                assert!(now >= f * PERIOD, "frame {f} released early at {now} µs");
                now - f * PERIOD
            })
            .collect();
        late.sort_unstable();
        // A sleep that ran to the tick would be about one timer slack
        // (50 µs) late every time.
        assert!(late[25] < 40, "median lateness {} µs", late[25]);
    }
}
