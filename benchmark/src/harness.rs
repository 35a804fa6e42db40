//! Layer harness: times single layers through their public APIs, at the
//! batch size the workload's hot edge moves per firing. Each quantity is
//! the best of a few trials, so a preempted trial does not count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cg_queue::{spsc_pair, QueueSpec, SimQueue, Unit};
use commguard::config::GuardConfig;
use commguard::CoreGuard;

use crate::stats::{median, min};

const TRIALS: usize = 5;

/// Queue capacity of every harness queue: the executors' default.
const CAPACITY: usize = 65_536;

/// Best-of-[`TRIALS`] nanoseconds per operation; `trial` returns the time
/// it took and how many operations it timed.
fn best_ns(mut trial: impl FnMut() -> (Duration, u64)) -> f64 {
    let per_op: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let (t, ops) = trial();
            t.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    min(&per_op)
}

fn queue() -> SimQueue {
    SimQueue::new(QueueSpec::with_capacity(CAPACITY))
}

fn items(batch: usize) -> Vec<u32> {
    (0..batch as u32).collect()
}

/// Frames of `batch` items per trial: enough to fill most of a queue.
fn frames_per_fill(batch: usize) -> usize {
    CAPACITY / 2 / (batch + 1)
}

/// QM: one frame through an ECC-pointer queue — `push_items`, the
/// frame-boundary flush, `pop_items` — per item moved.
pub fn qm_ns_per_item(batch: usize) -> f64 {
    let mut q = queue();
    let src = items(batch);
    let mut out = Vec::with_capacity(batch);
    let frames = frames_per_fill(batch) * 8;
    best_ns(|| {
        let t = Instant::now();
        for _ in 0..frames {
            q.push_items(&src);
            q.flush();
            out.clear();
            q.pop_items(&mut out, batch);
            black_box(&out);
        }
        (t.elapsed(), (frames * batch) as u64)
    })
}

/// ECC: one header codeword encoded and decoded.
pub fn ecc_ns_per_header() -> f64 {
    const N: u32 = 1 << 20;
    best_ns(|| {
        let t = Instant::now();
        for i in 0..N {
            black_box(Unit::header(black_box(i)).header_id());
        }
        (t.elapsed(), u64::from(N))
    })
}

/// HI: a producer's frame boundary plus the insertion of its header.
pub fn hi_ns_per_header() -> f64 {
    let mut guard = CoreGuard::new(0, 1, &GuardConfig::default(), None);
    guard.start();
    let per_fill = CAPACITY / 2;
    best_ns(|| {
        let mut q = queue();
        let t = Instant::now();
        for _ in 0..per_fill {
            guard.scope_boundary();
            guard.hi_tick(0, &mut q);
        }
        (t.elapsed(), per_fill as u64)
    })
}

/// A consumer guard and the next frame id its producer would stamp.
struct Consumer {
    guard: CoreGuard,
    frame: u32,
}

impl Consumer {
    fn new() -> Consumer {
        let mut guard = CoreGuard::new(1, 0, &GuardConfig::default(), None);
        guard.start();
        Consumer { guard, frame: 0 }
    }

    /// Pops `frames` frames of `batch` items, crossing a frame boundary
    /// before each one but the very first.
    fn pop_frames(&mut self, q: &mut SimQueue, frames: usize, batch: usize, out: &mut Vec<u32>) {
        for _ in 0..frames {
            if self.frame > 0 {
                self.guard.scope_boundary();
            }
            out.clear();
            let n = self.guard.pop_batch(0, q, out, batch);
            assert_eq!(n, batch, "the harness queue holds whole frames");
            black_box(&out);
            self.frame += 1;
        }
    }

    /// Pad and discard episodes the AM has entered so far.
    fn episodes(&self) -> (u64, u64) {
        let sub = self.guard.subops();
        (sub.pad_events, sub.discard_events)
    }
}

/// Queues `frames` aligned frames (header then `batch` items) starting at
/// frame id `first`.
fn fill_aligned(q: &mut SimQueue, first: u32, frames: usize, batch: usize) {
    for f in 0..frames as u32 {
        q.try_push(Unit::header(first + f)).expect("sized to fit");
        q.push_items(&items(batch));
    }
    q.flush();
}

/// AM: the cost a guarded, aligned `pop_batch` adds per item over the bare
/// queue's `pop_items`, the frame's header pop and FSM updates included.
pub fn am_ns_per_item(batch: usize) -> f64 {
    let frames = frames_per_fill(batch);
    let mut out = Vec::with_capacity(batch);
    let raw = best_ns(|| {
        let mut q = queue();
        for _ in 0..frames {
            q.push_items(&items(batch));
        }
        q.flush();
        let t = Instant::now();
        for _ in 0..frames {
            out.clear();
            q.pop_items(&mut out, batch);
            black_box(&out);
        }
        (t.elapsed(), (frames * batch) as u64)
    });
    let mut consumer = Consumer::new();
    let guarded = best_ns(|| {
        let mut q = queue();
        fill_aligned(&mut q, consumer.frame, frames, batch);
        let t = Instant::now();
        consumer.pop_frames(&mut q, frames, batch, &mut out);
        (t.elapsed(), (frames * batch) as u64)
    });
    assert_eq!(consumer.episodes(), (0, 0), "aligned frames never realign");
    guarded - raw
}

/// AM: the extra cost of one realignment episode. A cycle of three frames
/// holds one pad episode (half a frame lost before the next header) and
/// one discard episode (half a frame of extra items before a header); it
/// is timed against three aligned frames, and the difference halved.
pub fn am_ns_per_episode(batch: usize) -> f64 {
    let half = (batch / 2).max(1);
    let cycles = CAPACITY / 2 / (3 * batch + half + 3);
    let mut out = Vec::with_capacity(batch);
    let mut aligned = Consumer::new();
    let t_aligned = best_ns(|| {
        let mut q = queue();
        fill_aligned(&mut q, aligned.frame, 3 * cycles, batch);
        let t = Instant::now();
        aligned.pop_frames(&mut q, 3 * cycles, batch, &mut out);
        (t.elapsed(), cycles as u64)
    });
    let mut realigning = Consumer::new();
    let t_episodes = best_ns(|| {
        let mut q = queue();
        let mut f = realigning.frame;
        for _ in 0..cycles {
            // Frame f loses its second half: the AM pads up to the header
            // of f + 1, which it holds until the boundary.
            q.try_push(Unit::header(f)).expect("sized to fit");
            q.push_items(&items(half));
            q.try_push(Unit::header(f + 1)).expect("sized to fit");
            // Frame f + 1 carries extra items, which the AM discards when
            // frame f + 2 expects its header.
            q.push_items(&items(batch + half));
            q.try_push(Unit::header(f + 2)).expect("sized to fit");
            q.push_items(&items(batch));
            f += 3;
        }
        q.flush();
        let t = Instant::now();
        realigning.pop_frames(&mut q, 3 * cycles, batch, &mut out);
        (t.elapsed(), cycles as u64)
    });
    assert_eq!(aligned.episodes(), (0, 0), "aligned frames never realign");
    let cycles_run = (cycles * TRIALS) as u64;
    assert_eq!(
        realigning.episodes(),
        (cycles_run, cycles_run),
        "each cycle enters one pad and one discard episode"
    );
    (t_episodes - t_aligned) / 2.0
}

/// SPSC transport: items moved from a producer thread to a consumer thread,
/// one frame of `batch` items and a boundary flush at a time.
pub fn transport_ns_per_item(batch: usize) -> f64 {
    const ITEMS: usize = 1 << 20;
    let frames = ITEMS / batch;
    best_ns(|| {
        let (mut tx, mut rx, _) =
            spsc_pair(QueueSpec::with_capacity(CAPACITY), Duration::from_secs(10));
        let src = items(batch);
        let t = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..frames {
                    let mut sent = 0;
                    while sent < batch {
                        sent += tx
                            .produce(|q| {
                                let n = q.push_items(&src[sent..]);
                                (n > 0).then_some(n)
                            })
                            .expect("consumer stays open");
                    }
                    tx.with(SimQueue::flush);
                }
            });
            let mut out = Vec::with_capacity(batch);
            let mut got = 0;
            while got < frames * batch {
                out.clear();
                got += rx
                    .consume(|q| {
                        let (n, _) = q.pop_items(&mut out, batch);
                        (n > 0).then_some(n)
                    })
                    .expect("producer flushes everything it pushes");
            }
        });
        (t.elapsed(), (frames * batch) as u64)
    })
}

/// SPSC transport: one-way wake-up latency, the median half round trip
/// of a one-item ping-pong between two threads.
pub fn transport_wake_us() -> f64 {
    const ROUNDS: usize = 2_000;
    let spec = QueueSpec::with_capacity(CAPACITY);
    let stall = Duration::from_secs(10);
    let (mut ping_tx, mut ping_rx, _) = spsc_pair(spec, stall);
    let (mut pong_tx, mut pong_rx, _) = spsc_pair(spec, stall);
    let send = |tx: &mut cg_queue::SpscProducer, v: u32| {
        tx.produce(|q| (q.push_items(&[v]) == 1).then_some(()))
            .expect("peer stays open");
        tx.with(SimQueue::flush);
    };
    let recv = |rx: &mut cg_queue::SpscConsumer| {
        let mut out = Vec::with_capacity(1);
        rx.consume(|q| (q.pop_items(&mut out, 1).0 == 1).then_some(()))
            .expect("peer stays open");
        out[0]
    };
    let mut half_trips = Vec::with_capacity(ROUNDS);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..ROUNDS {
                let v = recv(&mut ping_rx);
                send(&mut pong_tx, v);
            }
        });
        for i in 0..ROUNDS as u32 {
            let t = Instant::now();
            send(&mut ping_tx, i);
            let v = recv(&mut pong_rx);
            half_trips.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
            assert_eq!(v, i, "ping-pong reordered");
        }
    });
    median(&half_trips)
}
