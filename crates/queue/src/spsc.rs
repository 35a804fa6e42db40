//! Lock-free SPSC transport for [`SimQueue`]s shared between two threads.
//!
//! The ring slots and the shared head/tail pointers live in atomic
//! storage shared by **two independent [`SimQueue`] views** — one owned
//! by the producer endpoint, one by the consumer — so the steady-state
//! push/pop path is exactly the paper's §5.1 protocol with no lock
//! anywhere:
//!
//! * each side keeps its *exact* cursor in ordinary (reliable, on-core)
//!   fields of its own view;
//! * progress is published through the shared pointers once per working
//!   set (`Release` store) and re-read only on apparent-full/empty
//!   (`Acquire` load) — the cached-cursor discipline that keeps shared
//!   traffic off the hot path;
//! * ring slots are `AtomicU64` cells written/read with `Relaxed` ordering;
//!   the `Release`/`Acquire` pointer handoff provides the happens-before
//!   edge that makes a published working set's slot writes visible.
//!
//! Because the views run the same `SimQueue` code as the deterministic
//! executor, per-unit ECC, header, and statistics accounting are identical
//! by construction — the guarded behaviour is bit-for-bit the same.
//!
//! Blocking is spin-then-park: a bounded burst of `spin_loop` hints and
//! `yield_now` calls, then `thread::park_timeout` in short slices with
//! explicit unpark tokens. Endpoints close on drop (a dead peer is a
//! [`WaitError::PeerClosed`], not a hang), a finished producer leaves the
//! queue drainable, and a stall timeout bounds every wait
//! ([`WaitError::TimedOut`]). The park/unpark slow path is the *only*
//! place a `Mutex` appears (a registry of thread handles that is touched
//! strictly after spinning has failed); see `DESIGN.md` for the
//! memory-ordering and lost-wakeup argument.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use cg_ecc::{decode, encode, Codeword, Decoded, EccStats};

use crate::ptr::PointerMode;
use crate::ring::{QueueSpec, SimQueue};
use crate::stats::QueueStats;
use crate::unit::Unit;

/// Why a blocking operation gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The opposite endpoint was closed (peer finished or died) while this
    /// side could not make progress.
    PeerClosed,
    /// No progress within the stall timeout, with the peer still open —
    /// the backstop against silent deadlock.
    TimedOut,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::PeerClosed => write!(f, "peer endpoint closed"),
            WaitError::TimedOut => write!(f, "stalled past the timeout"),
        }
    }
}

impl std::error::Error for WaitError {}

/// Pads and aligns a value to a cache line so the producer's and
/// consumer's hot atomics never false-share.
///
/// 128 bytes covers the adjacent-line prefetcher pairs on modern x86 as
/// well as 128-byte-line ARM parts.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

/// Tag bit distinguishing header codewords from item payloads in a slot.
/// Items are 32-bit and codewords 39-bit, so bit 63 is always free.
const HEADER_TAG: u64 = 1 << 63;

fn encode_unit(unit: Unit) -> u64 {
    match unit {
        Unit::Item(v) => u64::from(v),
        Unit::Header(cw) => HEADER_TAG | cw.raw(),
    }
}

fn decode_unit(bits: u64) -> Unit {
    if bits & HEADER_TAG != 0 {
        Unit::Header(Codeword::from_raw(bits & !HEADER_TAG))
    } else {
        Unit::Item(bits as u32)
    }
}

/// The ring's slot storage when shared between two views: one `AtomicU64`
/// per unit. Slot accesses are `Relaxed` — the release/acquire handoff on
/// the shared pointers orders them — so they compile to plain moves.
pub(crate) struct SharedSlots {
    slots: Box<[AtomicU64]>,
}

impl SharedSlots {
    pub(crate) fn new(capacity: usize) -> Self {
        SharedSlots {
            slots: (0..capacity)
                .map(|_| AtomicU64::new(encode_unit(Unit::Item(0))))
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn get(&self, idx: usize) -> Unit {
        decode_unit(self.slots[idx].load(Ordering::Relaxed))
    }

    pub(crate) fn set(&self, idx: usize, unit: Unit) {
        self.slots[idx].store(encode_unit(unit), Ordering::Relaxed);
    }

    /// Writes a contiguous run of units starting at `idx` (no wrap): the
    /// bulk form of [`Self::set`], a tight loop of `Relaxed` stores that
    /// the release-publish of the shared tail pointer orders for the
    /// consumer exactly as it does single-slot stores.
    pub(crate) fn write_run(&self, idx: usize, units: &[Unit]) {
        for (slot, &unit) in self.slots[idx..idx + units.len()].iter().zip(units) {
            slot.store(encode_unit(unit), Ordering::Relaxed);
        }
    }

    /// Reads a contiguous run of `n` units starting at `idx` (no wrap)
    /// into `out`: the bulk form of [`Self::get`].
    pub(crate) fn read_run(&self, idx: usize, n: usize, out: &mut Vec<Unit>) {
        for slot in &self.slots[idx..idx + n] {
            out.push(decode_unit(slot.load(Ordering::Relaxed)));
        }
    }
}

/// A shared head/tail pointer cell in atomic storage, with the same
/// selectable protection as [`PtrCell`](crate::PtrCell): `Raw` cells hold
/// the bare 32-bit cursor, `Ecc` cells hold the SECDED codeword.
///
/// Stores are `Release` and loads `Acquire`: a pointer publish carries
/// visibility of every slot write before it. The ECC scrub uses a
/// `compare_exchange` so a loader repairing a single-bit flip can never
/// clobber a concurrent store by the owning side.
pub(crate) struct AtomicPtrCell {
    mode: PointerMode,
    bits: AtomicU64,
}

impl AtomicPtrCell {
    pub(crate) fn new(mode: PointerMode, value: u32) -> Self {
        let bits = match mode {
            PointerMode::Raw => u64::from(value),
            PointerMode::Ecc => encode(value).raw(),
        };
        AtomicPtrCell {
            mode,
            bits: AtomicU64::new(bits),
        }
    }

    /// Stores the cursor (one `compute-ECC` in `Ecc` mode), `Release`.
    pub(crate) fn store(&self, value: u32, stats: &mut EccStats) {
        let bits = match self.mode {
            PointerMode::Raw => u64::from(value),
            PointerMode::Ecc => {
                stats.computes += 1;
                encode(value).raw()
            }
        };
        self.bits.store(bits, Ordering::Release);
    }

    /// Loads the cursor (`Acquire`), scrubbing single-bit corruption in
    /// `Ecc` mode; uncorrectable corruption returns `None` (counted as a
    /// detection) exactly like [`EccCell::load_scrub`](cg_ecc::EccCell).
    pub(crate) fn load_scrub(&self, stats: &mut EccStats) -> Option<u32> {
        let raw = self.bits.load(Ordering::Acquire);
        match self.mode {
            PointerMode::Raw => Some(raw as u32),
            PointerMode::Ecc => {
                stats.checks += 1;
                match decode(Codeword::from_raw(raw)) {
                    Decoded::Clean(v) => Some(v),
                    Decoded::Corrected(v) => {
                        stats.corrections += 1;
                        stats.computes += 1;
                        // Scrub: write back the repaired codeword, but only
                        // if the cell still holds the corrupted value — the
                        // owning side may have stored a newer cursor since.
                        let _ = self.bits.compare_exchange(
                            raw,
                            encode(v).raw(),
                            Ordering::Release,
                            Ordering::Relaxed,
                        );
                        Some(v)
                    }
                    Decoded::Detected => {
                        stats.detections += 1;
                        None
                    }
                }
            }
        }
    }

    /// Fault-injection hook: flips a stored bit (payload bits for `Raw`
    /// cells, anywhere in the codeword for `Ecc`).
    pub(crate) fn inject_flip(&self, bit: u32) {
        let bit = match self.mode {
            PointerMode::Raw => bit % 32,
            PointerMode::Ecc => bit % cg_ecc::CODEWORD_BITS,
        };
        self.bits.fetch_xor(1 << bit, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for AtomicPtrCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AtomicPtrCell({:?}, {:#x})",
            self.mode,
            self.bits.load(Ordering::Relaxed)
        )
    }
}

/// Endpoint liveness and parking state shared by one producer/consumer
/// pair. Only the `parked` flags and the peer-liveness `open` flags are
/// touched on the fast path; the thread-handle registry and the final
/// stats accumulator sit behind `Mutex`es that are reached exclusively
/// from the park slow path and endpoint drop.
struct Ctrl {
    /// `open[side]`: the endpoint is alive. Cleared on close/drop.
    open: [AtomicBool; 2],
    /// `parked[side]`: the side has announced it is about to park (or is
    /// parked). A waker swaps it to `false` and delivers an unpark token.
    parked: [CachePadded<AtomicBool>; 2],
    /// Park-slow-path registry of each side's thread handle.
    threads: [Mutex<Option<Thread>>; 2],
    /// Per-view [`QueueStats`], merged in on endpoint drop so traffic
    /// accounting survives the worker threads that owned the endpoints.
    final_stats: Mutex<QueueStats>,
}

impl Ctrl {
    fn new() -> Self {
        Ctrl {
            open: [AtomicBool::new(true), AtomicBool::new(true)],
            parked: [
                CachePadded(AtomicBool::new(false)),
                CachePadded(AtomicBool::new(false)),
            ],
            threads: [Mutex::new(None), Mutex::new(None)],
            final_stats: Mutex::new(QueueStats::default()),
        }
    }

    /// Wakes `side` if it announced a park: consume its announcement and
    /// deliver an unpark token (which also makes a *not-yet-parked* peer's
    /// next `park_timeout` return immediately).
    ///
    /// The `SeqCst` swap orders this side's preceding slot/pointer stores
    /// against the parker's announcement in a single total order — the
    /// store-buffering (Dekker) pairing with [`Ctrl::announce_park`] that
    /// rules out the lost-wakeup interleaving.
    fn wake(&self, side: usize) {
        if self.parked[side].0.swap(false, Ordering::SeqCst) {
            let handle = self.threads[side]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            if let Some(t) = handle {
                t.unpark();
            }
        }
    }

    /// Registers the calling thread and announces the intent to park.
    /// The caller **must** re-check for progress (and peer liveness)
    /// after this call and before `park_timeout`: the announcement plus
    /// the `SeqCst` fence guarantee that either the re-check sees the
    /// peer's progress, or the peer's [`Ctrl::wake`] sees the
    /// announcement and delivers an unpark token.
    fn announce_park(&self, side: usize) {
        {
            let mut slot = self.threads[side].lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(thread::current());
            }
        }
        self.parked[side].0.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Withdraws a park announcement (after waking, or when the re-check
    /// made progress).
    fn retract_park(&self, side: usize) {
        self.parked[side].0.store(false, Ordering::SeqCst);
    }

    fn close(&self, side: usize) {
        self.open[side].store(false, Ordering::SeqCst);
        // Wake both: the peer must observe the death, and a concurrent
        // closer of the other side must not race the tokens.
        self.wake(PRODUCER);
        self.wake(CONSUMER);
    }
}

/// Bounded spin before parking: first pure pipeline hints, then scheduler
/// yields. Small on purpose — the threaded executor moves whole batches,
/// so a blocked side is usually blocked for a while.
const SPIN_HINTS: u32 = 32;
const SPIN_YIELDS: u32 = 4;
/// Parked waits happen in short slices: an unpark token ends one early,
/// and the bounded slice is the liveness backstop that makes even a
/// (theoretically) lost wakeup cost one slice, not a hang.
const PARK_SLICE: Duration = Duration::from_millis(1);

/// Retries `f` on `q` until it reports progress, spinning then parking
/// between attempts. Gives up with [`WaitError::PeerClosed`] once the
/// peer is closed and no progress is possible, or [`WaitError::TimedOut`]
/// after `stall`.
fn blocking_op<R>(
    q: &mut SimQueue,
    ctrl: &Ctrl,
    me: usize,
    stall: Duration,
    mut f: impl FnMut(&mut SimQueue) -> Option<R>,
) -> Result<R, WaitError> {
    let peer = 1 - me;
    let publishes = q.stats().shared_ptr_writes;
    let mut deadline: Option<Instant> = None;
    let mut spins = 0u32;
    loop {
        if let Some(r) = f(q) {
            wake_if_published(q, ctrl, peer, publishes);
            return Ok(r);
        }
        // Check liveness only after a no-progress attempt, so a finished
        // producer leaves the queue drainable; then try once more, because
        // a flush published between our attempt and the close observation
        // is sequenced before the close and must not be stranded.
        if !ctrl.open[peer].load(Ordering::SeqCst) {
            return match f(q) {
                Some(r) => Ok(r),
                None => Err(WaitError::PeerClosed),
            };
        }
        let dl = *deadline.get_or_insert_with(|| Instant::now() + stall);
        if spins < SPIN_HINTS {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        if spins < SPIN_HINTS + SPIN_YIELDS {
            spins += 1;
            thread::yield_now();
            continue;
        }
        let now = Instant::now();
        if now >= dl {
            return Err(WaitError::TimedOut);
        }
        // Park slow path: announce, re-check (progress and liveness),
        // then sleep at most one slice.
        ctrl.announce_park(me);
        if let Some(r) = f(q) {
            ctrl.retract_park(me);
            wake_if_published(q, ctrl, peer, publishes);
            return Ok(r);
        }
        if !ctrl.open[peer].load(Ordering::SeqCst) {
            ctrl.retract_park(me);
            return match f(q) {
                Some(r) => Ok(r),
                None => Err(WaitError::PeerClosed),
            };
        }
        thread::park_timeout(PARK_SLICE.min(dl - now));
        ctrl.retract_park(me);
    }
}

/// Wakes `peer` if `q` has published a shared pointer since its count
/// stood at `publishes`. A parked peer waits for a publish, so progress
/// that stayed inside this view's working set cannot unblock it, and
/// waking it anyway costs an unpark only for the peer to park again. No
/// wakeup is lost: every publish happens inside a blocking call, which
/// checks here, or inside `with`, which always wakes.
fn wake_if_published(q: &SimQueue, ctrl: &Ctrl, peer: usize, publishes: u64) {
    if q.stats().shared_ptr_writes != publishes {
        ctrl.wake(peer);
    }
}

/// Creates a lock-free SPSC pair over one logical [`SimQueue`]: the
/// producing endpoint, the consuming endpoint, and a stats handle that
/// stays valid after both endpoints (typically moved into worker threads)
/// are gone.
///
/// Every blocking wait on either endpoint is bounded by `stall_timeout`.
pub fn spsc_pair(
    spec: QueueSpec,
    stall_timeout: Duration,
) -> (SpscProducer, SpscConsumer, SpscStats) {
    let (pq, cq) = SimQueue::spsc_views(spec);
    let ctrl = Arc::new(Ctrl::new());
    (
        SpscProducer {
            q: pq,
            ctrl: Arc::clone(&ctrl),
            stall: stall_timeout,
        },
        SpscConsumer {
            q: cq,
            ctrl: Arc::clone(&ctrl),
            stall: stall_timeout,
        },
        SpscStats { ctrl },
    )
}

/// The pushing endpoint of a lock-free SPSC pair. Dropping it closes the
/// endpoint: a consumer blocked on empty drains whatever was published and
/// then sees [`WaitError::PeerClosed`] instead of hanging.
pub struct SpscProducer {
    q: SimQueue,
    ctrl: Arc<Ctrl>,
    stall: Duration,
}

impl SpscProducer {
    /// Runs `f` until it reports progress, spinning then parking between
    /// attempts.
    ///
    /// # Errors
    ///
    /// [`WaitError::PeerClosed`] if the consumer endpoint closed while no
    /// progress was possible; [`WaitError::TimedOut`] if the stall
    /// timeout elapsed first.
    pub fn produce<R>(
        &mut self,
        f: impl FnMut(&mut SimQueue) -> Option<R>,
    ) -> Result<R, WaitError> {
        blocking_op(&mut self.q, &self.ctrl, PRODUCER, self.stall, f)
    }

    /// Runs `f` once (no blocking) and wakes the consumer — for flushes
    /// and forced operations that change visibility.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut SimQueue) -> R) -> R {
        let r = f(&mut self.q);
        self.ctrl.wake(CONSUMER);
        r
    }
}

impl Drop for SpscProducer {
    fn drop(&mut self) {
        self.ctrl.close(PRODUCER);
        let mut st = self
            .ctrl
            .final_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *st += *self.q.stats();
    }
}

/// The popping endpoint of a lock-free SPSC pair. Dropping it closes the
/// endpoint: a producer blocked on full sees [`WaitError::PeerClosed`]
/// instead of hanging.
pub struct SpscConsumer {
    q: SimQueue,
    ctrl: Arc<Ctrl>,
    stall: Duration,
}

impl SpscConsumer {
    /// Runs `f` until it reports progress; the mirror of
    /// [`SpscProducer::produce`].
    ///
    /// # Errors
    ///
    /// [`WaitError::PeerClosed`] if the producer endpoint closed while no
    /// progress was possible; [`WaitError::TimedOut`] on stall.
    pub fn consume<R>(
        &mut self,
        f: impl FnMut(&mut SimQueue) -> Option<R>,
    ) -> Result<R, WaitError> {
        blocking_op(&mut self.q, &self.ctrl, CONSUMER, self.stall, f)
    }

    /// Runs `f` once (no blocking) and wakes the producer.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut SimQueue) -> R) -> R {
        let r = f(&mut self.q);
        self.ctrl.wake(PRODUCER);
        r
    }
}

impl Drop for SpscConsumer {
    fn drop(&mut self) {
        self.ctrl.close(CONSUMER);
        let mut st = self
            .ctrl
            .final_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *st += *self.q.stats();
    }
}

/// Handle to a pair's merged traffic statistics: each endpoint folds its
/// view's [`QueueStats`] in when dropped, so reading after both endpoints
/// are gone yields the pair's complete per-edge accounting.
pub struct SpscStats {
    ctrl: Arc<Ctrl>,
}

impl SpscStats {
    /// The statistics merged so far (complete once both endpoints have
    /// been dropped).
    pub fn read(&self) -> QueueStats {
        *self
            .ctrl
            .final_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test sizes shrink under miri: the interpreter runs the same
    /// interleavings, just slowly.
    const N_ROUNDTRIP: u32 = if cfg!(miri) { 200 } else { 10_000 };
    const N_BATCHED: usize = if cfg!(miri) { 256 } else { 4_096 };
    const N_STRESS: usize = if cfg!(miri) { 300 } else { 20_000 };

    fn pair(capacity: usize) -> (SpscProducer, SpscConsumer, SpscStats) {
        spsc_pair(
            QueueSpec {
                capacity,
                workset_size: (capacity / 8).max(1),
                pointer_mode: PointerMode::Ecc,
            },
            Duration::from_secs(10),
        )
    }

    #[test]
    fn unit_encoding_roundtrips() {
        for unit in [
            Unit::Item(0),
            Unit::Item(u32::MAX),
            Unit::Item(0xdead_beef),
            Unit::header(0),
            Unit::header(1234),
            Unit::end_header(),
        ] {
            assert_eq!(decode_unit(encode_unit(unit)), unit);
        }
        // A corrupted codeword (not a valid encoding of anything) must
        // survive the slot roundtrip bit-exactly for SECDED to see it.
        if let Unit::Header(cw) = Unit::header(42) {
            let bad = Unit::Header(cw.with_flipped_bit(3).with_flipped_bit(17));
            assert_eq!(decode_unit(encode_unit(bad)), bad);
        }
    }

    #[test]
    fn atomic_ptr_cell_matches_ptr_cell_semantics() {
        let mut stats = EccStats::default();
        let raw = AtomicPtrCell::new(PointerMode::Raw, 100);
        raw.inject_flip(3);
        assert_eq!(raw.load_scrub(&mut stats), Some(108));
        assert_eq!(stats.checks, 0, "raw cells perform no ECC work");

        let ecc = AtomicPtrCell::new(PointerMode::Ecc, 100);
        ecc.inject_flip(3);
        assert_eq!(ecc.load_scrub(&mut stats), Some(100));
        assert_eq!(stats.corrections, 1);
        // The scrub wrote the repaired codeword back.
        assert_eq!(ecc.load_scrub(&mut stats), Some(100));
        assert_eq!(stats.corrections, 1, "second load needs no correction");

        let ecc2 = AtomicPtrCell::new(PointerMode::Ecc, 100);
        ecc2.inject_flip(3);
        ecc2.inject_flip(17);
        assert_eq!(ecc2.load_scrub(&mut stats), None);
        assert_eq!(stats.detections, 1);
    }

    #[test]
    fn blocking_roundtrip_preserves_order() {
        let (mut tx, mut rx, _) = pair(64);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N_ROUNDTRIP {
                    tx.produce(|q| q.try_push(Unit::Item(i)).ok()).unwrap();
                }
                tx.with(|q| q.flush());
            });
            for i in 0..N_ROUNDTRIP {
                assert_eq!(rx.consume(|q| q.try_pop()), Ok(Unit::Item(i)));
            }
        });
    }

    #[test]
    fn batched_roundtrip_preserves_order() {
        const BATCH: usize = 17; // deliberately coprime to the workset size
        let (mut tx, mut rx, _) = pair(64);
        let items: Vec<Unit> = (0..N_BATCHED as u32).map(Unit::Item).collect();
        let sent = items.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut pos = 0;
                while pos < N_BATCHED {
                    let end = (pos + BATCH).min(N_BATCHED);
                    let n = tx
                        .produce(|q| {
                            let n = q.push_slice(&sent[pos..end]);
                            (n > 0).then_some(n)
                        })
                        .unwrap();
                    pos += n;
                }
                tx.with(|q| q.flush());
            });
            let mut got: Vec<Unit> = Vec::new();
            while got.len() < N_BATCHED {
                let max = N_BATCHED - got.len();
                rx.consume(|q| {
                    let n = q.pop_slice(&mut got, max);
                    (n > 0).then_some(n)
                })
                .unwrap();
            }
            assert_eq!(got, items);
        });
    }

    #[test]
    fn dead_producer_is_an_error_not_a_hang() {
        let (tx, mut rx, _) = pair(8);
        drop(tx);
        assert_eq!(rx.consume(|q| q.try_pop()), Err(WaitError::PeerClosed));
    }

    #[test]
    fn dead_consumer_on_full_queue_is_an_error_not_a_hang() {
        let (mut tx, rx, _) = pair(8);
        tx.with(|q| {
            for i in 0..8u32 {
                q.try_push(Unit::Item(i)).unwrap();
            }
        });
        drop(rx);
        assert_eq!(
            tx.produce(|q| q.try_push(Unit::Item(9)).ok()),
            Err(WaitError::PeerClosed)
        );
    }

    #[test]
    fn finished_producer_leaves_queue_drainable() {
        let (mut tx, mut rx, _) = pair(8);
        tx.with(|q| {
            q.try_push(Unit::Item(7)).unwrap();
            q.flush();
        });
        drop(tx);
        // Data first, then PeerClosed once truly dry.
        assert_eq!(rx.consume(|q| q.try_pop()), Ok(Unit::Item(7)));
        assert_eq!(rx.consume(|q| q.try_pop()), Err(WaitError::PeerClosed));
    }

    #[test]
    fn flush_racing_close_is_never_stranded() {
        // The close-observation protocol: data published immediately
        // before a close must be drained, not reported as PeerClosed.
        let rounds = if cfg!(miri) { 20 } else { 500 };
        for _ in 0..rounds {
            let (mut tx, mut rx, _) = pair(8);
            std::thread::scope(|s| {
                s.spawn(move || {
                    tx.with(|q| {
                        q.try_push(Unit::Item(1)).unwrap();
                        q.flush();
                    });
                    // Drop (= close) races the consumer's first attempt.
                });
                assert_eq!(
                    rx.consume(|q| q.try_pop()),
                    Ok(Unit::Item(1)),
                    "published unit lost to a racing close"
                );
            });
        }
    }

    #[test]
    fn stall_timeout_bounds_the_wait() {
        let (_tx, mut rx, _) = spsc_pair(QueueSpec::with_capacity(8), Duration::from_millis(40));
        let start = Instant::now();
        assert_eq!(rx.consume(|q| q.try_pop()), Err(WaitError::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn close_wakes_a_parked_consumer() {
        let (tx, mut rx, _) = pair(8);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(tx);
            });
            // Parks on empty, then the close wakes it into PeerClosed well
            // before the 10 s stall timeout.
            let start = Instant::now();
            assert_eq!(rx.consume(|q| q.try_pop()), Err(WaitError::PeerClosed));
            assert!(start.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn close_wakes_a_parked_producer() {
        let (mut tx, rx, _) = pair(8);
        tx.with(|q| {
            for i in 0..8u32 {
                q.try_push(Unit::Item(i)).unwrap();
            }
        });
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                drop(rx);
            });
            let start = Instant::now();
            assert_eq!(
                tx.produce(|q| q.try_push(Unit::Item(99)).ok()),
                Err(WaitError::PeerClosed)
            );
            assert!(start.elapsed() < Duration::from_secs(5));
        });
    }

    /// Ping-pong with batches exactly at capacity: every push cycle races
    /// the full boundary and every pop cycle the empty boundary.
    #[test]
    fn full_empty_boundary_races() {
        const CAP: usize = 16;
        let rounds = if cfg!(miri) { 30 } else { 2_000 };
        let (mut tx, mut rx, _) = pair(CAP);
        std::thread::scope(|s| {
            s.spawn(move || {
                let batch: Vec<Unit> = (0..CAP as u32).map(Unit::Item).collect();
                for _ in 0..rounds {
                    let mut pos = 0;
                    while pos < CAP {
                        pos += tx
                            .produce(|q| {
                                let n = q.push_slice(&batch[pos..]);
                                (n > 0).then_some(n)
                            })
                            .unwrap();
                    }
                    tx.with(|q| q.flush());
                }
            });
            let mut got = Vec::new();
            for round in 0..rounds {
                got.clear();
                while got.len() < CAP {
                    let max = CAP - got.len();
                    rx.consume(|q| {
                        let n = q.pop_slice(&mut got, max);
                        (n > 0).then_some(n)
                    })
                    .unwrap();
                }
                let want: Vec<Unit> = (0..CAP as u32).map(Unit::Item).collect();
                assert_eq!(got, want, "round {round}");
            }
        });
    }

    /// Seeded interleaving stress: random batch sizes on both sides, a
    /// tiny queue to force constant blocking, occasional flushes and
    /// forced reschedules. The stream must arrive intact for every seed.
    #[test]
    fn seeded_interleaving_stress() {
        let seeds: &[u64] = if cfg!(miri) {
            &[1, 42]
        } else {
            &[1, 7, 42, 1234]
        };
        for &seed in seeds {
            let (mut tx, mut rx, _) = pair(16);
            let items: Vec<Unit> = (0..N_STRESS as u32).map(Unit::Item).collect();
            let sent = items.clone();
            let mut prng = seed;
            let mut next = move |m: usize| {
                // xorshift64*; plenty for schedule jitter.
                prng ^= prng << 13;
                prng ^= prng >> 7;
                prng ^= prng << 17;
                (prng as usize) % m
            };
            let mut cons_rng = next(1 << 30) as u64 + 1;
            std::thread::scope(|s| {
                s.spawn(move || {
                    let mut pos = 0;
                    while pos < N_STRESS {
                        let end = (pos + 1 + next(31)).min(N_STRESS);
                        let n = tx
                            .produce(|q| {
                                let n = q.push_slice(&sent[pos..end]);
                                (n > 0).then_some(n)
                            })
                            .unwrap();
                        pos += n;
                        if next(8) == 0 {
                            tx.with(|q| q.flush());
                            thread::yield_now();
                        }
                    }
                    tx.with(|q| q.flush());
                });
                let mut got: Vec<Unit> = Vec::new();
                while got.len() < N_STRESS {
                    cons_rng ^= cons_rng << 13;
                    cons_rng ^= cons_rng >> 7;
                    cons_rng ^= cons_rng << 17;
                    let max = (1 + (cons_rng as usize) % 31).min(N_STRESS - got.len());
                    rx.consume(|q| {
                        let n = q.pop_slice(&mut got, max);
                        (n > 0).then_some(n)
                    })
                    .unwrap();
                    if cons_rng.is_multiple_of(16) {
                        thread::yield_now();
                    }
                }
                assert_eq!(got, items, "seed {seed} reordered or lost units");
            });
        }
    }

    #[test]
    fn stats_handle_merges_both_endpoints() {
        let (mut tx, mut rx, stats) = pair(8);
        tx.with(|q| {
            q.try_push(Unit::header(1)).unwrap();
            q.try_push(Unit::Item(2)).unwrap();
            q.flush();
        });
        rx.with(|q| {
            assert!(q.try_pop().is_some());
            assert!(q.try_pop().is_some());
        });
        drop(tx);
        drop(rx);
        let merged = stats.read();
        assert_eq!(merged.header_pushes, 1);
        assert_eq!(merged.item_pushes, 1);
        assert_eq!(merged.header_pops, 1);
        assert_eq!(merged.item_pops, 1);
        assert!(merged.shared_ptr_writes >= 1);
    }

    #[test]
    fn ecc_pointer_corruption_is_corrected_across_the_pair() {
        let (mut tx, mut rx, _) = pair(8);
        tx.with(|q| {
            q.try_push(Unit::Item(1)).unwrap();
            q.try_push(Unit::Item(2)).unwrap();
            q.flush();
        });
        // Strike the shared tail as the consumer would experience it.
        rx.with(|q| q.corrupt_shared_pointer(crate::Which::Tail, 31));
        assert_eq!(rx.consume(|q| q.try_pop()), Ok(Unit::Item(1)));
        assert_eq!(rx.consume(|q| q.try_pop()), Ok(Unit::Item(2)));
        rx.with(|q| assert!(q.stats().ecc.corrections >= 1));
    }
}
