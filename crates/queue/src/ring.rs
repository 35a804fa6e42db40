//! The bounded FIFO implementing one stream-graph edge.

use std::fmt;
use std::sync::Arc;

use cg_trace::{Event, PtrTag, Tracer};

use crate::ptr::{PointerMode, PtrCell, Which};
use crate::spsc::{AtomicPtrCell, CachePadded, SharedSlots};
use crate::stats::QueueStats;
use crate::unit::Unit;

/// Configuration of a [`SimQueue`].
///
/// Defaults mirror the paper's §5.1 queue: a memory region split into 8
/// working-set sub-regions so that shared head/tail pointers are touched
/// once per working set rather than once per item, with ECC-protected
/// shared pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSpec {
    /// Total buffer capacity in units.
    pub capacity: usize,
    /// Units per working set (shared-pointer publish granularity).
    pub workset_size: usize,
    /// Protection of the shared head/tail pointers.
    pub pointer_mode: PointerMode,
}

impl QueueSpec {
    /// A spec with the given capacity, 8 working sets, ECC pointers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 8`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 8, "capacity must be at least 8");
        QueueSpec {
            capacity,
            workset_size: capacity / 8,
            pointer_mode: PointerMode::Ecc,
        }
    }

    /// Returns the spec with a different pointer mode.
    #[must_use]
    pub fn pointer_mode(mut self, mode: PointerMode) -> Self {
        self.pointer_mode = mode;
        self
    }
}

impl Default for QueueSpec {
    fn default() -> Self {
        QueueSpec::with_capacity(4096)
    }
}

/// Error returned by [`SimQueue::try_push`] when the queue appears full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError(pub Unit);

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full")
    }
}

impl std::error::Error for PushError {}

/// Slot storage: a plain vector when one owner holds the whole queue (the
/// deterministic executor), or an atomic array shared by a lock-free
/// producer/consumer view pair.
#[derive(Clone)]
enum Slots {
    Local(Vec<Unit>),
    Shared(Arc<SharedSlots>),
}

impl Slots {
    fn get(&self, idx: usize) -> Unit {
        match self {
            Slots::Local(v) => v[idx],
            Slots::Shared(s) => s.get(idx),
        }
    }

    fn set(&mut self, idx: usize, unit: Unit) {
        match self {
            Slots::Local(v) => v[idx] = unit,
            Slots::Shared(s) => s.set(idx, unit),
        }
    }

    fn is_shared(&self) -> bool {
        matches!(self, Slots::Shared(_))
    }

    fn capacity(&self) -> usize {
        match self {
            Slots::Local(v) => v.len(),
            Slots::Shared(s) => s.len(),
        }
    }

    /// Writes `units` into consecutive ring slots starting at ring index
    /// `idx`, split into two windows when the run crosses the wrap point.
    /// Local storage takes a `copy_from_slice` per window; shared storage
    /// a tight run of `Relaxed` stores (ordered, as ever, by the release
    /// publish of the shared tail pointer).
    fn write_run(&mut self, idx: usize, units: &[Unit]) {
        let first = units.len().min(self.capacity() - idx);
        match self {
            Slots::Local(v) => {
                v[idx..idx + first].copy_from_slice(&units[..first]);
                v[..units.len() - first].copy_from_slice(&units[first..]);
            }
            Slots::Shared(s) => {
                s.write_run(idx, &units[..first]);
                s.write_run(0, &units[first..]);
            }
        }
    }

    /// Reads `n` consecutive ring slots starting at ring index `idx` into
    /// `out` (two windows across the wrap point; see [`Self::write_run`]).
    fn read_run(&self, idx: usize, n: usize, out: &mut Vec<Unit>) {
        let first = n.min(self.capacity() - idx);
        match self {
            Slots::Local(v) => {
                out.extend_from_slice(&v[idx..idx + first]);
                out.extend_from_slice(&v[..n - first]);
            }
            Slots::Shared(s) => {
                s.read_run(idx, first, out);
                s.read_run(0, n - first, out);
            }
        }
    }
}

impl fmt::Debug for Slots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slots::Local(v) => write!(f, "Slots::Local(len={})", v.len()),
            Slots::Shared(s) => write!(f, "Slots::Shared(len={})", s.len()),
        }
    }
}

/// A shared head/tail pointer: in-place cell for single-owner queues, or
/// a cache-line-padded atomic cell shared by a lock-free view pair.
#[derive(Clone)]
enum PtrSlot {
    Local(PtrCell),
    Shared(Arc<CachePadded<AtomicPtrCell>>),
}

impl PtrSlot {
    fn load(&mut self, stats: &mut cg_ecc::EccStats) -> Option<u32> {
        match self {
            PtrSlot::Local(c) => c.load(stats),
            PtrSlot::Shared(c) => c.0.load_scrub(stats),
        }
    }

    fn store(&mut self, value: u32, stats: &mut cg_ecc::EccStats) {
        match self {
            PtrSlot::Local(c) => c.store(value, stats),
            PtrSlot::Shared(c) => c.0.store(value, stats),
        }
    }

    fn inject_flip(&mut self, bit: u32) {
        match self {
            PtrSlot::Local(c) => c.inject_flip(bit),
            PtrSlot::Shared(c) => c.0.inject_flip(bit),
        }
    }
}

impl fmt::Debug for PtrSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtrSlot::Local(c) => write!(f, "PtrSlot::Local({c:?})"),
            PtrSlot::Shared(c) => write!(f, "PtrSlot::Shared({:?})", c.0),
        }
    }
}

/// Which cursors this [`SimQueue`] value is allowed to publish. A
/// single-owner queue publishes both; a lock-free view publishes only its
/// own side's cursor, so a misdirected `flush()` (or a cross-view call)
/// can never rewind the peer's published progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Both,
    Producer,
    Consumer,
}

/// A simulated inter-core queue.
///
/// Functionally a bounded FIFO of [`Unit`]s, but structured like the
/// paper's hardware queue: the producer and consumer keep exact *local*
/// pointers in reliable on-core storage (the QIT) and synchronise through
/// *shared* pointers in memory, published once per working set. The shared
/// pointers are the fault surface: in [`PointerMode::Raw`] a
/// [`SimQueue::corrupt_shared_pointer`] call silently and permanently
/// skews all subsequent transfers, reproducing the paper's QME failures.
#[derive(Debug, Clone)]
pub struct SimQueue {
    spec: QueueSpec,
    slots: Slots,
    /// Consumer-exact read counter (reliable, on-core).
    head: u32,
    /// Producer-exact write counter (reliable, on-core).
    tail: u32,
    /// Shared pointers (in-memory, corruptible per mode).
    shared_head: PtrSlot,
    shared_tail: PtrSlot,
    /// Producer's last-seen shared head / consumer's last-seen shared tail.
    seen_head: u32,
    seen_tail: u32,
    /// Publish permissions for this value (see [`Role`]).
    role: Role,
    stats: QueueStats,
    /// Trace stream (disabled by default) and the edge id stamped onto
    /// emitted queue events.
    tracer: Tracer,
    edge: u32,
}

impl SimQueue {
    /// Creates an empty queue.
    pub fn new(spec: QueueSpec) -> Self {
        SimQueue {
            spec,
            slots: Slots::Local(vec![Unit::Item(0); spec.capacity]),
            head: 0,
            tail: 0,
            shared_head: PtrSlot::Local(PtrCell::new(spec.pointer_mode, 0)),
            shared_tail: PtrSlot::Local(PtrCell::new(spec.pointer_mode, 0)),
            seen_head: 0,
            seen_tail: 0,
            role: Role::Both,
            stats: QueueStats::default(),
            tracer: Tracer::disabled(),
            edge: 0,
        }
    }

    /// Creates the two views of a lock-free SPSC pair: one queue's slot
    /// storage and shared pointers in atomic storage, seen through a
    /// producer-role view and a consumer-role view. Each view keeps its
    /// own exact cursor, cached peer cursor, statistics, and tracer —
    /// exactly the paper's per-core queue state — so every `SimQueue`
    /// method runs unchanged on a view; the atomics only change *where*
    /// the shared pointers and slots live.
    pub(crate) fn spsc_views(spec: QueueSpec) -> (SimQueue, SimQueue) {
        let slots = Arc::new(SharedSlots::new(spec.capacity));
        let head = Arc::new(CachePadded(AtomicPtrCell::new(spec.pointer_mode, 0)));
        let tail = Arc::new(CachePadded(AtomicPtrCell::new(spec.pointer_mode, 0)));
        let view = |role: Role| SimQueue {
            spec,
            slots: Slots::Shared(Arc::clone(&slots)),
            head: 0,
            tail: 0,
            shared_head: PtrSlot::Shared(Arc::clone(&head)),
            shared_tail: PtrSlot::Shared(Arc::clone(&tail)),
            seen_head: 0,
            seen_tail: 0,
            role,
            stats: QueueStats::default(),
            tracer: Tracer::disabled(),
            edge: 0,
        };
        (view(Role::Producer), view(Role::Consumer))
    }

    /// Connects this queue to a trace stream, stamping its events with
    /// `edge` (the stream-graph edge index).
    pub fn attach_tracer(&mut self, tracer: Tracer, edge: u32) {
        self.tracer = tracer;
        self.edge = edge;
    }

    /// The queue's configuration.
    pub fn spec(&self) -> &QueueSpec {
        &self.spec
    }

    /// Exact current occupancy, clamped to `[0, capacity]`: timeout pops
    /// can run the head past the tail, which would otherwise wrap the
    /// unsigned difference to a huge value.
    pub fn occupancy(&self) -> u32 {
        let d = self.tail.wrapping_sub(self.head);
        if d > self.spec.capacity as u32 {
            0
        } else {
            d
        }
    }

    /// Units currently buffered according to the exact local pointers.
    /// (The *visible* count at the consumer may be smaller until the
    /// producer publishes its working set.)
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// `true` when no units are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Attempts to push `unit`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] when the queue appears full (per the possibly
    /// corrupted shared head pointer).
    pub fn try_push(&mut self, unit: Unit) -> Result<(), PushError> {
        if self.apparent_used() >= self.spec.capacity as u32 {
            self.refresh_seen_head();
            if self.apparent_used() >= self.spec.capacity as u32 {
                self.stats.blocked_pushes += 1;
                return Err(PushError(unit));
            }
        }
        self.push_unchecked(unit);
        Ok(())
    }

    /// Pushes units from `slice` until the queue appears full, returning
    /// how many were accepted. The free ring segment is reserved once per
    /// refresh of the cached head cursor and filled with no further
    /// cursor synchronisation; per-unit statistics, ECC pointer handling,
    /// header accounting, and workset publication are identical to
    /// pushing one at a time.
    pub fn push_slice(&mut self, slice: &[Unit]) -> usize {
        let cap = self.spec.capacity as u32;
        let mut written = 0;
        while written < slice.len() {
            if self.apparent_used() >= cap {
                self.refresh_seen_head();
                if self.apparent_used() >= cap {
                    self.stats.blocked_pushes += 1;
                    return written;
                }
            }
            // Reserve the apparent free segment in one step.
            let free = (cap - self.apparent_used()) as usize;
            let n = free.min(slice.len() - written);
            if self.tracer.is_enabled() {
                // Traced runs keep the per-unit loop so the emitted event
                // stream is byte-identical to one-at-a-time pushing.
                for &unit in &slice[written..written + n] {
                    self.push_unchecked(unit);
                }
            } else {
                self.fill_run(&slice[written..written + n]);
            }
            written += n;
        }
        written
    }

    /// Bulk-appends a reserved run: zero-copy slot writes into the ring
    /// segment, chunked at workset boundaries (and the u32 cursor wrap) so
    /// every boundary publish — and its shared-pointer/ECC/stat activity —
    /// happens exactly where the per-unit path would perform it.
    fn fill_run(&mut self, units: &[Unit]) {
        let cap = self.spec.capacity;
        let ws = self.spec.workset_size as u32;
        let mut done = 0;
        while done < units.len() {
            let to_boundary = (ws - self.tail % ws) as usize;
            let to_wrap = (u32::MAX - self.tail) as usize + 1;
            let c = (units.len() - done).min(to_boundary).min(to_wrap);
            let chunk = &units[done..done + c];
            self.slots.write_run(self.tail as usize % cap, chunk);
            self.tail = self.tail.wrapping_add(c as u32);
            let headers = chunk.iter().filter(|u| u.is_header()).count() as u64;
            self.stats.record_pushes(c as u64 - headers, headers);
            // Occupancy grows monotonically over the run, so noting the
            // post-chunk depth reproduces the per-unit high-water mark.
            self.stats.note_occupancy(self.occupancy());
            if self.tail.is_multiple_of(ws) {
                self.publish_tail();
            }
            done += c;
        }
    }

    /// Pops up to `max` units into `out`, stopping early when the queue
    /// appears empty, and returns how many were delivered. The available
    /// segment is reserved once per refresh of the cached tail cursor
    /// (see [`Self::push_slice`]); per-unit semantics match
    /// [`Self::try_pop`] exactly.
    pub fn pop_slice(&mut self, out: &mut Vec<Unit>, max: usize) -> usize {
        let mut popped = 0;
        while popped < max {
            if self.apparent_available() == 0 {
                self.refresh_seen_tail();
                if self.apparent_available() == 0 {
                    self.stats.blocked_pops += 1;
                    return popped;
                }
            }
            let avail = self.apparent_available() as usize;
            let n = avail.min(max - popped);
            if self.tracer.is_enabled() {
                // Traced runs keep the per-unit loop (see `push_slice`).
                for _ in 0..n {
                    let unit = self.pop_unchecked();
                    out.push(unit);
                }
            } else {
                self.drain_run(out, n);
            }
            popped += n;
        }
        popped
    }

    /// Bulk-removes an available run: zero-copy slot reads out of the ring
    /// segment, head advanced per chunk with the same boundary publishes
    /// as per-unit popping (see [`Self::fill_run`] for the chunking
    /// contract).
    fn drain_run(&mut self, out: &mut Vec<Unit>, n: usize) {
        let cap = self.spec.capacity;
        let ws = self.spec.workset_size as u32;
        let mut done = 0;
        while done < n {
            let to_boundary = (ws - self.head % ws) as usize;
            let to_wrap = (u32::MAX - self.head) as usize + 1;
            let c = (n - done).min(to_boundary).min(to_wrap);
            let start = out.len();
            self.slots.read_run(self.head as usize % cap, c, out);
            let headers = out[start..].iter().filter(|u| u.is_header()).count() as u64;
            self.head = self.head.wrapping_add(c as u32);
            self.stats.record_pops(c as u64 - headers, headers);
            if self.head.is_multiple_of(ws) {
                self.publish_head();
            }
            done += c;
        }
    }

    /// Pushes plain item payloads without the caller materialising
    /// [`Unit`]s — the bulk entry point for executors staging raw `u32`
    /// frames. Blocking, statistics, and workset publication are identical
    /// to [`Self::push_slice`] over `Unit::Item`s.
    pub fn push_items(&mut self, items: &[u32]) -> usize {
        let mut buf = [Unit::Item(0); 64];
        let mut written = 0;
        while written < items.len() {
            let n = (items.len() - written).min(buf.len());
            for (slot, &v) in buf.iter_mut().zip(&items[written..written + n]) {
                *slot = Unit::Item(v);
            }
            let accepted = self.push_slice(&buf[..n]);
            written += accepted;
            if accepted < n {
                break;
            }
        }
        written
    }

    /// Pops up to `max` *item* payloads into `out`, stopping early at the
    /// visible end of the queue or just before the first in-flight header;
    /// the header is left queued so the alignment machinery can pop it
    /// through its FSM. Returns the delivered count and whether a header
    /// was hit. Statistics match popping each delivered item with
    /// [`Self::try_pop`]; stopping at a header costs nothing extra.
    pub fn pop_items(&mut self, out: &mut Vec<u32>, max: usize) -> (usize, bool) {
        let cap = self.spec.capacity;
        let mut popped = 0;
        while popped < max {
            if self.apparent_available() == 0 {
                self.refresh_seen_tail();
                if self.apparent_available() == 0 {
                    self.stats.blocked_pops += 1;
                    return (popped, false);
                }
            }
            let avail = (self.apparent_available() as usize).min(max - popped);
            // Peek the run and take only its item prefix; commit the head
            // afterwards so a header is never consumed here.
            let start = out.len();
            let mut hit_header = false;
            for i in 0..avail {
                match self.slots.get((self.head as usize + i) % cap) {
                    Unit::Item(v) => out.push(v),
                    Unit::Header(_) => {
                        hit_header = true;
                        break;
                    }
                }
            }
            let taken = out.len() - start;
            if self.tracer.is_enabled() {
                // Re-walk the prefix per-unit for a byte-identical event
                // stream (the peek above already decided where to stop).
                out.truncate(start);
                for _ in 0..taken {
                    match self.pop_unchecked() {
                        Unit::Item(v) => out.push(v),
                        Unit::Header(_) => unreachable!("peek found an item here"),
                    }
                }
            } else {
                self.commit_pops(taken);
            }
            popped += taken;
            if hit_header {
                return (popped, true);
            }
        }
        (popped, false)
    }

    /// Advances the head past `n` already-read item slots, with the same
    /// boundary publishes and pop accounting as per-unit popping.
    fn commit_pops(&mut self, n: usize) {
        let ws = self.spec.workset_size as u32;
        let mut done = 0;
        while done < n {
            let to_boundary = (ws - self.head % ws) as usize;
            let to_wrap = (u32::MAX - self.head) as usize + 1;
            let c = (n - done).min(to_boundary).min(to_wrap);
            self.head = self.head.wrapping_add(c as u32);
            self.stats.record_pops(c as u64, 0);
            if self.head.is_multiple_of(ws) {
                self.publish_head();
            }
            done += c;
        }
    }

    /// Forces a push past a full condition, overwriting (dropping) the
    /// oldest unconsumed unit. Models the queue-manager timeout of §5.1
    /// ("a timeout may cause incorrect data to be transmitted"): the
    /// consumer silently loses the overwritten unit.
    ///
    /// On a lock-free producer view the head cursor is consumer-owned and
    /// cannot be advanced from here; a genuinely full ring instead takes
    /// the overwrite in place at the oldest in-flight slot, without moving
    /// either cursor — the same drop-oldest data loss, expressed as a slot
    /// overwrite the racing consumer may or may not observe. Both shapes
    /// count one timeout push and one recorded push.
    pub fn timeout_push(&mut self, unit: Unit) {
        if self.slots.is_shared() {
            if self.apparent_used() >= self.spec.capacity as u32 {
                self.refresh_seen_head();
            }
            if self.apparent_used() >= self.spec.capacity as u32 {
                // Truly full: overwrite the oldest in-flight unit in place.
                let idx = self.seen_head as usize % self.spec.capacity;
                self.slots.set(idx, unit);
                self.stats.timeout_pushes += 1;
                self.stats.record_push(unit.is_header());
                self.tracer.emit(Event::TimeoutPush {
                    edge: self.edge,
                    header: unit.is_header(),
                    depth: self.occupancy(),
                });
                self.publish_tail();
                return;
            }
        } else if self.len() >= self.spec.capacity {
            // Ring overwrite: the oldest unit is gone.
            self.head = self.head.wrapping_add(1);
            self.publish_head();
        }
        let idx = self.tail as usize % self.spec.capacity;
        self.slots.set(idx, unit);
        self.tail = self.tail.wrapping_add(1);
        self.stats.timeout_pushes += 1;
        self.stats.record_push(unit.is_header());
        let depth = self.occupancy();
        self.stats.note_occupancy(depth);
        self.tracer.emit(Event::TimeoutPush {
            edge: self.edge,
            header: unit.is_header(),
            depth,
        });
        self.publish_tail();
    }

    /// Attempts to pop the next unit, returning `None` when the queue
    /// appears empty (per the possibly corrupted shared tail pointer).
    pub fn try_pop(&mut self) -> Option<Unit> {
        if self.apparent_available() == 0 {
            self.refresh_seen_tail();
            if self.apparent_available() == 0 {
                self.stats.blocked_pops += 1;
                return None;
            }
        }
        Some(self.pop_unchecked())
    }

    /// Forces a pop past an empty condition, returning whatever stale unit
    /// occupies the head slot (queue-manager timeout behaviour).
    pub fn timeout_pop(&mut self) -> Unit {
        let idx = self.head as usize % self.spec.capacity;
        let unit = self.slots.get(idx);
        self.head = self.head.wrapping_add(1);
        self.stats.timeout_pops += 1;
        self.stats.record_pop(unit.is_header());
        self.tracer.emit(Event::TimeoutPop {
            edge: self.edge,
            depth: self.occupancy(),
        });
        self.publish_head();
        unit
    }

    /// Publishes any partially filled producer working set so the consumer
    /// can see it. Called by the runtime at frame-computation boundaries
    /// and at end of stream.
    pub fn flush(&mut self) {
        self.publish_tail();
    }

    /// Fault hook: flips `bit` of a shared pointer.
    pub fn corrupt_shared_pointer(&mut self, which: Which, bit: u32) {
        match which {
            Which::Head => self.shared_head.inject_flip(bit),
            Which::Tail => self.shared_tail.inject_flip(bit),
        }
        self.stats.pointer_corruptions += 1;
        self.tracer.emit(Event::PointerCorrupt {
            edge: self.edge,
            which: match which {
                Which::Head => PtrTag::Head,
                Which::Tail => PtrTag::Tail,
            },
            bit,
        });
    }

    /// Fault hook: flips `bit` within the buffered unit at buffer slot
    /// `slot` (item payloads take the flip modulo 32; header codewords
    /// modulo the codeword width, where ECC will handle it).
    pub fn corrupt_buffer_slot(&mut self, slot: usize, bit: u32) {
        let idx = slot % self.spec.capacity;
        let corrupted = match self.slots.get(idx) {
            Unit::Item(v) => Unit::Item(v ^ (1 << (bit % 32))),
            Unit::Header(cw) => Unit::Header(cw.with_flipped_bit(bit % cg_ecc::CODEWORD_BITS)),
        };
        self.slots.set(idx, corrupted);
    }

    /// Fault hook for the *unprotected-header* ablation: picks one
    /// in-flight header (using `slot_seed` to select among them), flips
    /// `bit` of its frame id, and re-encodes — modelling a header whose
    /// payload is not end-to-end ECC protected, so the corruption is
    /// silent. Returns `false` when no header is in flight.
    pub fn corrupt_random_header_payload(&mut self, slot_seed: u32, bit: u32) -> bool {
        let cap = self.spec.capacity;
        // Bounded scan: corruption strikes the in-flight region near the
        // head (scanning the whole region per fault would be O(capacity)
        // per event for no modelling benefit).
        let len = self.len().min(cap).min(1024);
        let headers: Vec<usize> = (0..len)
            .map(|i| (self.head as usize + i) % cap)
            .filter(|&s| self.slots.get(s).is_header())
            .collect();
        if headers.is_empty() {
            return false;
        }
        let slot = headers[slot_seed as usize % headers.len()];
        if let Some(id) = self.slots.get(slot).header_id() {
            self.slots.set(slot, Unit::header(id ^ (1 << (bit % 32))));
        }
        true
    }

    /// Fault hook for the *header-corruption* fault class: picks one
    /// in-flight header (using `slot_seed` to select among them) and flips
    /// `bits` distinct bits of its stored **codeword**, exercising the
    /// HI/AM ECC path — one flipped bit is corrected, two are detected
    /// (SECDED) and the AM recovers conservatively. Returns `false` when
    /// no header is in flight.
    pub fn corrupt_random_header_codeword(&mut self, slot_seed: u32, bits: u32) -> bool {
        let cap = self.spec.capacity;
        // Same bounded scan as `corrupt_random_header_payload`: faults
        // strike the in-flight region near the head.
        let len = self.len().min(cap).min(1024);
        let headers: Vec<usize> = (0..len)
            .map(|i| (self.head as usize + i) % cap)
            .filter(|&s| self.slots.get(s).is_header())
            .collect();
        if headers.is_empty() {
            return false;
        }
        let slot = headers[slot_seed as usize % headers.len()];
        if let Unit::Header(mut cw) = self.slots.get(slot) {
            // Derive distinct bit positions from the seed: a stride
            // coprime to the width walks every position.
            let width = cg_ecc::CODEWORD_BITS;
            let start = slot_seed % width;
            for k in 0..bits.min(width) {
                cw = cw.with_flipped_bit((start + k * 7) % width);
            }
            self.slots.set(slot, Unit::Header(cw));
        }
        self.stats.header_corruptions += 1;
        self.tracer.emit(Event::HeaderCorrupt {
            edge: self.edge,
            bits,
        });
        true
    }

    /// Units the producer believes are in flight (tail − last-seen head).
    fn apparent_used(&self) -> u32 {
        self.tail.wrapping_sub(self.seen_head)
    }

    /// Units the consumer believes are available (last-seen tail − head).
    /// Timeout pops can run the exact head past every published tail; the
    /// reliable QM applies the same occupancy invariant as
    /// [`Self::refresh_seen_tail`] and reads such a view as empty rather
    /// than as a near-`2^32` flood of stale slots. Unprotected pointers
    /// keep the raw wrapped difference — a corrupted tail flooding the
    /// consumer with garbage is part of the modeled failure.
    fn apparent_available(&self) -> u32 {
        let d = self.seen_tail.wrapping_sub(self.head);
        if self.spec.pointer_mode == PointerMode::Ecc && d > self.spec.capacity as u32 {
            0
        } else {
            d
        }
    }

    /// Refreshes the cached head cursor from the shared pointer — the
    /// producer's only synchronisation with the consumer, taken on
    /// apparent-full. An uncorrectable corruption (ECC detection)
    /// recovers with the conservative assumption that nothing was
    /// consumed (full); the reliable QM also rejects values violating the
    /// queue invariant (a valid head is never ahead of the tail nor more
    /// than a capacity behind it), which catches the rare SECDED
    /// miscorrection of multi-bit corruption.
    fn refresh_seen_head(&mut self) {
        let fallback = self.tail.wrapping_sub(self.spec.capacity as u32);
        let loaded = self.shared_head.load(&mut self.stats.ecc);
        self.seen_head = match (self.spec.pointer_mode, loaded) {
            (PointerMode::Ecc, Some(h))
                if self.tail.wrapping_sub(h) > self.spec.capacity as u32 =>
            {
                fallback
            }
            (_, Some(h)) => h,
            (_, None) => fallback,
        };
        if self.slots.is_shared() {
            // A producer view has no exact head of its own; mirror the
            // freshest published value so occupancy/tracing stay sane.
            self.head = self.seen_head;
        }
        self.stats.shared_ptr_reads += 1;
    }

    /// Refreshes the cached tail cursor from the shared pointer — the
    /// consumer's only synchronisation with the producer, taken on
    /// apparent-empty. Uncorrectable corruption recovers with the
    /// conservative assumption that nothing new arrived (empty); the
    /// reliable QM also rejects tails violating the occupancy invariant
    /// (at most `capacity` ahead of the exact local head).
    fn refresh_seen_tail(&mut self) {
        let loaded = self.shared_tail.load(&mut self.stats.ecc);
        self.seen_tail = match (self.spec.pointer_mode, loaded) {
            (PointerMode::Ecc, Some(t))
                if t.wrapping_sub(self.head) > self.spec.capacity as u32 =>
            {
                self.head
            }
            (_, Some(t)) => t,
            (_, None) => self.head,
        };
        if self.slots.is_shared() {
            // Mirror for the consumer view (see `refresh_seen_head`).
            self.tail = self.seen_tail;
        }
        self.stats.shared_ptr_reads += 1;
    }

    /// Appends `unit` at the tail; the caller has already established
    /// space. Carries all per-unit accounting and the workset-boundary
    /// publish.
    fn push_unchecked(&mut self, unit: Unit) {
        let idx = self.tail as usize % self.spec.capacity;
        self.slots.set(idx, unit);
        self.tail = self.tail.wrapping_add(1);
        self.stats.record_push(unit.is_header());
        let depth = self.occupancy();
        self.stats.note_occupancy(depth);
        self.tracer.emit(Event::Push {
            edge: self.edge,
            header: unit.is_header(),
            depth,
        });
        if self.tail.is_multiple_of(self.spec.workset_size as u32) {
            self.publish_tail();
        }
    }

    /// Removes the unit at the head; the caller has already established
    /// availability. Carries all per-unit accounting and the
    /// workset-boundary publish.
    fn pop_unchecked(&mut self) -> Unit {
        let idx = self.head as usize % self.spec.capacity;
        let unit = self.slots.get(idx);
        self.head = self.head.wrapping_add(1);
        self.stats.record_pop(unit.is_header());
        self.tracer.emit(Event::Pop {
            edge: self.edge,
            header: unit.is_header(),
            depth: self.occupancy(),
        });
        if self.head.is_multiple_of(self.spec.workset_size as u32) {
            self.publish_head();
        }
        unit
    }

    fn publish_tail(&mut self) {
        if self.role == Role::Consumer {
            // A consumer view's tail is a stale mirror; publishing it
            // would rewind the producer's progress.
            return;
        }
        self.shared_tail.store(self.tail, &mut self.stats.ecc);
        self.stats.shared_ptr_writes += 1;
        self.stats.workset_publishes += 1;
    }

    fn publish_head(&mut self) {
        if self.role == Role::Producer {
            // Mirror of the consumer-view guard in `publish_tail`.
            return;
        }
        self.shared_head.store(self.head, &mut self.stats.ecc);
        self.stats.shared_ptr_writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimQueue {
        SimQueue::new(QueueSpec {
            capacity: 8,
            workset_size: 2,
            pointer_mode: PointerMode::Ecc,
        })
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = small();
        for i in 0..6u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        for i in 0..6u32 {
            assert_eq!(q.try_pop(), Some(Unit::Item(i)));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn visibility_is_workset_granular() {
        let mut q = small();
        // One item: below the workset boundary, not yet published.
        q.try_push(Unit::Item(1)).unwrap();
        assert_eq!(q.try_pop(), None, "unpublished item must be invisible");
        // Second item crosses the 2-unit workset boundary.
        q.try_push(Unit::Item(2)).unwrap();
        assert_eq!(q.try_pop(), Some(Unit::Item(1)));
    }

    #[test]
    fn flush_publishes_partial_workset() {
        let mut q = small();
        q.try_push(Unit::Item(9)).unwrap();
        q.flush();
        assert_eq!(q.try_pop(), Some(Unit::Item(9)));
    }

    #[test]
    fn push_blocks_when_full_and_resumes_after_pops() {
        let mut q = small();
        for i in 0..8u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        assert!(q.try_push(Unit::Item(99)).is_err());
        assert_eq!(q.stats().blocked_pushes, 1);
        // Drain two items (one full workset) so the head is published.
        assert_eq!(q.try_pop(), Some(Unit::Item(0)));
        assert_eq!(q.try_pop(), Some(Unit::Item(1)));
        q.try_push(Unit::Item(99)).unwrap();
    }

    #[test]
    fn headers_counted_separately() {
        let mut q = small();
        q.try_push(Unit::header(5)).unwrap();
        q.try_push(Unit::Item(1)).unwrap();
        let _ = q.try_pop();
        let _ = q.try_pop();
        assert_eq!(q.stats().header_pushes, 1);
        assert_eq!(q.stats().item_pushes, 1);
        assert_eq!(q.stats().header_pops, 1);
        assert_eq!(q.stats().item_pops, 1);
    }

    #[test]
    fn push_slice_stops_at_full_and_keeps_per_unit_stats() {
        let mut q = small();
        let units: Vec<Unit> = (0..10u32).map(Unit::Item).collect();
        assert_eq!(q.push_slice(&units), 8, "capacity 8 accepts 8");
        assert_eq!(q.stats().item_pushes, 8);
        assert_eq!(q.stats().blocked_pushes, 1, "the ninth unit blocked");
        // Identical counters to the one-at-a-time path.
        let mut per_item = small();
        for &u in &units {
            if per_item.try_push(u).is_err() {
                break;
            }
        }
        assert_eq!(q.stats(), per_item.stats());
    }

    #[test]
    fn pop_slice_stops_at_visible_empty() {
        let mut q = small();
        for i in 0..5u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        q.flush();
        let mut out = Vec::new();
        assert_eq!(q.pop_slice(&mut out, 3), 3);
        assert_eq!(q.pop_slice(&mut out, 10), 2, "only 5 were visible");
        assert_eq!(out, (0..5u32).map(Unit::Item).collect::<Vec<_>>());
        assert_eq!(q.stats().blocked_pops, 1);
    }

    #[test]
    fn slice_ops_respect_workset_visibility() {
        let mut q = small();
        // Three units: one full 2-unit workset published, one unit pending.
        assert_eq!(
            q.push_slice(&[Unit::Item(1), Unit::Item(2), Unit::Item(3)]),
            3
        );
        let mut out = Vec::new();
        assert_eq!(q.pop_slice(&mut out, 8), 2, "unpublished tail invisible");
    }

    /// The zero-copy bulk fill/drain must be stat-identical to per-unit
    /// push/pop across many ring wraps, including header traffic.
    #[test]
    fn bulk_slice_ops_match_per_unit_stats_across_wrap() {
        let mut bulk = small();
        let mut per_unit = small();
        for round in 0..50u32 {
            let mut units: Vec<Unit> = (0..5).map(|i| Unit::Item(round * 8 + i)).collect();
            units.push(Unit::header(round));
            assert_eq!(bulk.push_slice(&units), 6);
            for &u in &units {
                per_unit.try_push(u).unwrap();
            }
            per_unit.flush();
            bulk.flush();
            let mut got = Vec::new();
            assert_eq!(bulk.pop_slice(&mut got, 6), 6);
            let want: Vec<Unit> = (0..6).map(|_| per_unit.try_pop().unwrap()).collect();
            assert_eq!(got, want, "round {round}");
        }
        assert_eq!(bulk.stats(), per_unit.stats());
    }

    #[test]
    fn push_items_and_pop_items_roundtrip_with_per_unit_stats() {
        let mut q = small();
        let mut reference = small();
        let items: Vec<u32> = (0..7).collect();
        assert_eq!(q.push_items(&items), 7);
        for &v in &items {
            reference.try_push(Unit::Item(v)).unwrap();
        }
        q.flush();
        reference.flush();
        let mut out = Vec::new();
        assert_eq!(q.pop_items(&mut out, 16), (7, false));
        assert_eq!(out, items);
        let mut want = Vec::new();
        while let Some(u) = reference.try_pop() {
            want.push(u.item_value().unwrap());
        }
        assert_eq!(out, want);
        assert_eq!(q.stats(), reference.stats());
        assert_eq!(q.stats().blocked_pops, 1, "the visible-empty stop");
    }

    #[test]
    fn pop_items_stops_before_a_header_and_leaves_it_queued() {
        let mut q = small();
        q.push_slice(&[Unit::Item(1), Unit::Item(2), Unit::header(9), Unit::Item(3)]);
        q.flush();
        let mut out = Vec::new();
        assert_eq!(q.pop_items(&mut out, 8), (2, true));
        assert_eq!(out, [1, 2]);
        assert_eq!(q.stats().header_pops, 0, "header not consumed");
        assert_eq!(q.try_pop().unwrap().header_id(), Some(9));
        out.clear();
        assert_eq!(q.pop_items(&mut out, 8), (1, false));
        assert_eq!(out, [3]);
    }

    #[test]
    fn spsc_views_bulk_slices_roundtrip() {
        let (mut p, mut c) = small_views();
        let units: Vec<Unit> = (0..6u32).map(Unit::Item).collect();
        for round in 0..40u32 {
            assert_eq!(p.push_slice(&units), 6, "round {round}");
            p.flush();
            let mut got = Vec::new();
            assert_eq!(c.pop_slice(&mut got, 6), 6, "round {round}");
            assert_eq!(got, units);
        }
        assert_eq!(p.stats().item_pushes, 240);
        assert_eq!(c.stats().item_pops, 240);
    }

    /// Traced bulk calls fall back to the per-unit loop, so the event
    /// stream is byte-identical to one-at-a-time operation.
    #[test]
    fn traced_slice_ops_emit_per_unit_events() {
        use cg_trace::{EventKind, TraceConfig};
        let t = TraceConfig::ring().tracer();
        let mut q = small();
        q.attach_tracer(t.clone(), 3);
        q.push_slice(&[Unit::Item(1), Unit::Item(2), Unit::header(4)]);
        q.flush();
        let mut out = Vec::new();
        q.pop_slice(&mut out, 2);
        let mut items = Vec::new();
        assert_eq!(q.pop_items(&mut items, 4), (0, true), "header hit first");
        let data = t.finish().expect("enabled");
        assert_eq!(data.counts.count(EventKind::Push), 3);
        assert_eq!(data.counts.count(EventKind::Pop), 2, "header never popped");
        assert_eq!(items, Vec::<u32>::new());
    }

    #[test]
    fn corrupted_raw_tail_pointer_garbles_stream() {
        let mut q = SimQueue::new(QueueSpec {
            capacity: 8,
            workset_size: 2,
            pointer_mode: PointerMode::Raw,
        });
        q.try_push(Unit::Item(1)).unwrap();
        q.try_push(Unit::Item(2)).unwrap();
        // Corrupt the shared tail high bit: consumer now sees a huge
        // available count and will read stale slots indefinitely.
        q.corrupt_shared_pointer(Which::Tail, 31);
        let mut popped = 0;
        for _ in 0..100 {
            if q.try_pop().is_some() {
                popped += 1;
            }
        }
        assert_eq!(popped, 100, "corrupted tail makes garbage available");
    }

    #[test]
    fn corrupted_ecc_tail_pointer_is_corrected() {
        let mut q = small();
        q.try_push(Unit::Item(1)).unwrap();
        q.try_push(Unit::Item(2)).unwrap();
        q.corrupt_shared_pointer(Which::Tail, 31);
        assert_eq!(q.try_pop(), Some(Unit::Item(1)));
        assert_eq!(q.try_pop(), Some(Unit::Item(2)));
        assert_eq!(q.try_pop(), None);
        assert!(q.stats().ecc.corrections >= 1);
    }

    #[test]
    fn timeout_pop_returns_stale_data() {
        let mut q = small();
        let u = q.timeout_pop();
        assert_eq!(u, Unit::Item(0), "stale initial slot");
        assert_eq!(q.stats().timeout_pops, 1);
    }

    #[test]
    fn timeout_push_overwrites() {
        let mut q = small();
        for i in 0..8u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        q.timeout_push(Unit::Item(100));
        assert_eq!(q.stats().timeout_pushes, 1);
        // The oldest unit (item 0) was dropped; the rest arrive in order
        // with the forced unit at the end.
        for i in 1..8u32 {
            assert_eq!(q.try_pop(), Some(Unit::Item(i)));
        }
        assert_eq!(q.try_pop(), Some(Unit::Item(100)));
    }

    #[test]
    fn buffer_slot_corruption_flips_item_bit() {
        let mut q = small();
        q.try_push(Unit::Item(0)).unwrap();
        q.try_push(Unit::Item(0)).unwrap();
        q.corrupt_buffer_slot(0, 4);
        assert_eq!(q.try_pop(), Some(Unit::Item(16)));
    }

    #[test]
    fn buffer_slot_corruption_on_header_is_corrected() {
        let mut q = small();
        q.try_push(Unit::header(7)).unwrap();
        q.try_push(Unit::Item(0)).unwrap();
        q.corrupt_buffer_slot(0, 11);
        let h = q.try_pop().unwrap();
        assert_eq!(h.header_id(), Some(7));
    }

    #[test]
    fn single_bit_codeword_corruption_is_corrected() {
        let mut q = small();
        q.try_push(Unit::header(5)).unwrap();
        q.try_push(Unit::Item(1)).unwrap();
        assert!(q.corrupt_random_header_codeword(3, 1));
        assert_eq!(q.stats().header_corruptions, 1);
        assert_eq!(q.try_pop().unwrap().header_id(), Some(5));
    }

    #[test]
    fn double_bit_codeword_corruption_is_detected_not_miscorrected() {
        let mut q = small();
        q.try_push(Unit::header(5)).unwrap();
        q.try_push(Unit::Item(1)).unwrap();
        assert!(q.corrupt_random_header_codeword(3, 2));
        let h = q.try_pop().unwrap();
        assert!(h.is_header());
        assert_eq!(h.header_id(), None, "SECDED detects, id withheld");
    }

    #[test]
    fn codeword_corruption_without_headers_reports_false() {
        let mut q = small();
        q.try_push(Unit::Item(1)).unwrap();
        q.try_push(Unit::Item(2)).unwrap();
        assert!(!q.corrupt_random_header_codeword(0, 1));
        assert_eq!(q.stats().header_corruptions, 0);
    }

    #[test]
    fn len_tracks_exact_occupancy() {
        let mut q = small();
        assert!(q.is_empty());
        q.try_push(Unit::Item(1)).unwrap();
        assert_eq!(q.len(), 1);
        q.flush();
        let _ = q.try_pop();
        assert!(q.is_empty());
    }

    #[test]
    fn wraparound_many_times() {
        let mut q = small();
        for round in 0..100u32 {
            for i in 0..4 {
                q.try_push(Unit::Item(round * 4 + i)).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.try_pop(), Some(Unit::Item(round * 4 + i)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn tiny_capacity_panics() {
        let _ = QueueSpec::with_capacity(4);
    }

    #[test]
    fn max_occupancy_is_a_high_water_mark() {
        let mut q = small();
        for i in 0..5u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        q.flush();
        for _ in 0..4 {
            let _ = q.try_pop();
        }
        q.try_push(Unit::Item(9)).unwrap();
        assert_eq!(q.stats().max_occupancy, 5, "peak, not current, occupancy");
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn occupancy_clamps_when_head_passes_tail() {
        let mut q = small();
        let _ = q.timeout_pop();
        assert_eq!(q.occupancy(), 0, "overdrained queue reads as empty");
    }

    #[test]
    fn overdrained_ecc_queue_blocks_instead_of_flooding() {
        let mut q = small();
        let _ = q.timeout_pop();
        // Head is now one past every published tail; with protected
        // pointers the availability invariant must read this as empty,
        // not as a wrapped ~2^32 flood of stale slots.
        assert_eq!(q.try_pop(), None, "overdrained view must block");
        // Production catching back up past the head restores delivery.
        for i in 0..3u32 {
            q.try_push(Unit::Item(i)).unwrap();
        }
        q.flush();
        // The unit landing in the slot the head already skipped is lost
        // (timeout data loss); the ones past the head come through.
        assert_eq!(q.try_pop(), Some(Unit::Item(1)));
        assert_eq!(q.try_pop(), Some(Unit::Item(2)));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn overdrained_raw_queue_keeps_the_modeled_flood() {
        let mut q = SimQueue::new(QueueSpec {
            capacity: 8,
            workset_size: 2,
            pointer_mode: PointerMode::Raw,
        });
        let _ = q.timeout_pop();
        // Unprotected pointers take the raw wrapped difference: stale
        // garbage stays visible, which is the paper's Fig. 3b failure.
        assert!(q.try_pop().is_some(), "raw mode keeps the stale flood");
    }

    fn small_views() -> (SimQueue, SimQueue) {
        SimQueue::spsc_views(QueueSpec {
            capacity: 8,
            workset_size: 2,
            pointer_mode: PointerMode::Ecc,
        })
    }

    #[test]
    fn spsc_views_roundtrip_with_workset_visibility() {
        let (mut p, mut c) = small_views();
        p.try_push(Unit::Item(1)).unwrap();
        assert_eq!(c.try_pop(), None, "unpublished item must be invisible");
        p.try_push(Unit::Item(2)).unwrap();
        assert_eq!(c.try_pop(), Some(Unit::Item(1)));
        assert_eq!(c.try_pop(), Some(Unit::Item(2)));
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn spsc_views_survive_u32_cursor_wraparound() {
        // Park all four cursors just below u32::MAX (capacity divides
        // 2^32, so ring indices stay contiguous across the wrap) and
        // stream enough units through to wrap every cursor.
        let (mut p, mut c) = small_views();
        let start = u32::MAX - 5;
        for q in [&mut p, &mut c] {
            q.head = start;
            q.tail = start;
            q.seen_head = start;
            q.seen_tail = start;
        }
        p.publish_tail();
        c.publish_head();
        for i in 0..32u32 {
            p.try_push(Unit::Item(i)).unwrap();
            p.flush();
            assert_eq!(c.try_pop(), Some(Unit::Item(i)), "unit {i} across wrap");
        }
        assert_eq!(c.try_pop(), None);
        assert!(p.tail < start, "producer cursor must have wrapped");
    }

    #[test]
    fn consumer_view_flush_cannot_rewind_producer_progress() {
        let (mut p, mut c) = small_views();
        p.try_push(Unit::Item(1)).unwrap();
        p.try_push(Unit::Item(2)).unwrap(); // published at the boundary
        c.flush(); // consumer-side flush must not clobber the shared tail
        assert_eq!(c.try_pop(), Some(Unit::Item(1)));
        assert_eq!(c.try_pop(), Some(Unit::Item(2)));
    }

    #[test]
    fn spsc_timeout_push_with_space_appends_and_publishes() {
        let (mut p, mut c) = small_views();
        p.try_push(Unit::Item(1)).unwrap();
        p.timeout_push(Unit::Item(9));
        assert_eq!(p.stats().timeout_pushes, 1);
        assert_eq!(c.try_pop(), Some(Unit::Item(1)));
        assert_eq!(c.try_pop(), Some(Unit::Item(9)));
    }

    #[test]
    fn spsc_timeout_push_on_full_drops_oldest_without_cursor_motion() {
        let (mut p, mut c) = small_views();
        for i in 0..8u32 {
            p.try_push(Unit::Item(i)).unwrap();
        }
        p.timeout_push(Unit::Item(100));
        assert_eq!(p.stats().timeout_pushes, 1);
        // The forced unit replaced the oldest in-flight slot in place:
        // the consumer still sees exactly `capacity` units, with unit 0
        // dropped (overwritten) — the same data loss as the single-owner
        // drop-oldest shape, without touching the consumer-owned head.
        assert_eq!(c.try_pop(), Some(Unit::Item(100)));
        for i in 1..8u32 {
            assert_eq!(c.try_pop(), Some(Unit::Item(i)));
        }
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn tracer_records_queue_events_with_edge_id() {
        use cg_trace::{EventKind, TraceConfig};
        let t = TraceConfig::ring().tracer();
        let mut q = small();
        q.attach_tracer(t.clone(), 7);
        q.try_push(Unit::header(1)).unwrap();
        q.try_push(Unit::Item(2)).unwrap();
        let _ = q.try_pop();
        let _ = q.timeout_pop();
        q.corrupt_shared_pointer(Which::Tail, 3);
        let data = t.finish().expect("enabled");
        assert_eq!(data.counts.count(EventKind::Push), 2);
        assert_eq!(data.counts.count(EventKind::Pop), 1);
        assert_eq!(data.counts.count(EventKind::TimeoutPop), 1);
        assert_eq!(data.counts.count(EventKind::PointerCorrupt), 1);
        assert_eq!(
            data.records[0].event,
            Event::Push {
                edge: 7,
                header: true,
                depth: 1
            }
        );
        assert_eq!(data.counts.max_queue_depth, 2);
    }
}
