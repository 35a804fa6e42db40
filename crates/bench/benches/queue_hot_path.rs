//! Queue hot-path micro-bench for the lock-free SPSC ring, with a
//! regression gate in the style of `trace_overhead`.
//!
//! Two single-thread scenarios over the `SimQueue` protocol:
//!
//! * `uncontended items` — one `produce`/`consume` call per unit (the
//!   per-item synchronization cost with nobody waiting);
//! * `uncontended slices` — one call per 64-unit batch through
//!   `push_slice`/`pop_slice` (the batched hot path).
//!
//! The gate: the zero-copy slice path exists to beat per-item calls, so
//! the slice scenario must run at least [`ZERO_COPY_FLOOR`]x faster than
//! the per-item scenario. The contended two-thread path is measured end
//! to end by the repository benchmark (`transport.ns_per_item` and
//! `transport.wake_us`).
//!
//! A plain harness (not Criterion) so the comparison can fail the build.

use std::time::{Duration, Instant};

use cg_queue::{spsc_pair, QueueSpec, Unit};

/// Queue capacity for every scenario: 8 worksets of 8 units, so per-item
/// scenarios exercise the shared-pointer publication cadence without any
/// explicit flushing.
const CAP: usize = 64;
/// Units moved per timed round in each scenario.
const TOTAL: usize = 32_768;
/// Timed rounds per scenario (medians are compared).
const ROUNDS: usize = 9;
/// Zero-copy gate: the 64-unit slice path must beat per-item calls by at
/// least this factor (the batch path is the whole point of the
/// reserve/commit ring segments).
const ZERO_COPY_FLOOR: f64 = 1.5;
/// Generous stall backstop — a wedged bench run should error, not hang.
const STALL: Duration = Duration::from_secs(10);

fn spec() -> QueueSpec {
    QueueSpec::with_capacity(CAP)
}

/// One blocking call per unit, single thread; `CAP`-unit bursts keep the
/// queue inside its capacity while crossing every workset boundary.
fn items() -> f64 {
    let (mut p, mut c, _stats) = spsc_pair(spec(), STALL);
    let start = Instant::now();
    let mut v = 0u32;
    for _ in 0..TOTAL / CAP {
        for _ in 0..CAP {
            p.produce(|qq| qq.try_push(Unit::Item(v)).ok())
                .expect("push");
            v = v.wrapping_add(1);
        }
        for _ in 0..CAP {
            c.consume(|qq| qq.try_pop().map(|_| ())).expect("pop");
        }
    }
    start.elapsed().as_secs_f64()
}

/// One blocking call per `CAP`-unit slice, single thread.
fn slices() -> f64 {
    let (mut p, mut c, _stats) = spsc_pair(spec(), STALL);
    let batch: Vec<Unit> = (0..CAP as u32).map(Unit::Item).collect();
    let mut out: Vec<Unit> = Vec::with_capacity(CAP);
    let start = Instant::now();
    for _ in 0..TOTAL / CAP {
        p.produce(|qq| (qq.push_slice(&batch) == CAP).then_some(()))
            .expect("push");
        c.consume(|qq| {
            out.clear();
            (qq.pop_slice(&mut out, CAP) == CAP).then_some(())
        })
        .expect("pop");
    }
    start.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

fn main() {
    type Round = Box<dyn FnMut() -> f64>;
    let mut scenarios: Vec<(&'static str, Round)> = vec![
        ("uncontended items", Box::new(items)),
        ("uncontended slices", Box::new(slices)),
    ];

    // Warm-up: touch every code path once before measuring.
    for (_, round) in &mut scenarios {
        let _ = round();
    }

    // Interleave scenarios so drift (thermal, cache) hits all alike.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); scenarios.len()];
    for _ in 0..ROUNDS {
        for ((_, round), s) in scenarios.iter_mut().zip(&mut samples) {
            s.push(round());
        }
    }
    let medians_ms: Vec<f64> = samples.iter_mut().map(|s| median(s) * 1e3).collect();

    println!("queue hot path ({TOTAL} units/round, cap {CAP}, {ROUNDS} rounds):");
    for ((name, _), ms) in scenarios.iter().zip(&medians_ms) {
        println!("  {name:<20} {ms:>8.3} ms");
    }
    // Zero-copy gate: both sides measured in the same interleaved rounds.
    let zero_copy_speedup = medians_ms[0] / medians_ms[1].max(1e-9);
    println!(
        "  {:<20} per-item / slice-64 speedup {zero_copy_speedup:.2}x (gate >= {ZERO_COPY_FLOOR:.1}x)",
        "zero-copy batch-64",
    );
    if zero_copy_speedup < ZERO_COPY_FLOOR {
        println!("\n================ QUEUE-HOT-PATH FAIL ================");
        println!(
            "zero-copy batch-64: slice path is only {zero_copy_speedup:.2}x faster than \
             per-item calls (floor {ZERO_COPY_FLOOR:.1}x)"
        );
        println!("=====================================================");
        std::process::exit(1);
    }
    println!("\nqueue hot path: OK (zero-copy slices above the floor)");
}
