//! # cg-queue — StreamIt-style inter-core communication queues
//!
//! Models the paper's communication substrate (§5.1, Fig. 6): each edge of
//! the stream graph is implemented by a bounded FIFO living in a memory
//! region, accessed through **head/tail pointers** that are shared between
//! the producer and consumer cores. The pointers are the queue's Achilles
//! heel: if they live in unprotected storage, a single bit flip corrupts
//! every subsequent transfer (the paper's *queue-management errors*, QME,
//! and the collapse shown in Fig. 3b). The paper's reliable queue manager
//! instead protects them with single-word ECC and amortises shared-pointer
//! traffic through 8 *working-set* sub-regions.
//!
//! This crate provides:
//!
//! * [`Unit`] — the word-sized data units flowing through queues: regular
//!   items, or ECC-protected frame headers tagged by a header bit;
//! * [`SimQueue`] — a bounded FIFO with selectable pointer protection
//!   ([`PointerMode::Raw`] vs [`PointerMode::Ecc`]), working-set
//!   accounting, and fault-injection hooks for pointer corruption;
//! * [`QueueStats`] — the load/store/header/workset counters behind the
//!   paper's Fig. 12 memory-event overheads;
//! * [`spsc_pair`] / [`SpscProducer`] / [`SpscConsumer`] — the threaded
//!   executor's transport: the same queue protocol over atomic slot
//!   storage and cache-line-padded atomic shared pointers, with
//!   spin-then-park blocking, closable endpoints so a dead peer is an
//!   error ([`WaitError`]) instead of a hang, a stall-timeout backstop,
//!   and no lock anywhere on the steady-state push/pop path.
//!
//! ```
//! use cg_queue::{QueueSpec, SimQueue, Unit};
//!
//! let mut q = SimQueue::new(QueueSpec::default());
//! q.try_push(Unit::Item(7)).unwrap();
//! q.flush(); // publish the partial working set to the consumer
//! assert_eq!(q.try_pop(), Some(Unit::Item(7)));
//! assert_eq!(q.try_pop(), None);
//! ```

mod ptr;
mod ring;
mod spsc;
mod stats;
mod unit;

pub use ptr::{PointerMode, PtrCell, Which};
pub use ring::{PushError, QueueSpec, SimQueue};
pub use spsc::{spsc_pair, SpscConsumer, SpscProducer, SpscStats, WaitError};
pub use stats::QueueStats;
pub use unit::{FrameId, Unit, END_FRAME_ID};
