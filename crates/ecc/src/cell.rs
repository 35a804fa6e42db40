//! Protected and unprotected storage cells.
//!
//! The queue manager (paper §5.1, Fig. 6) keeps *shared* head/tail pointers
//! under ECC while the rest of the queue state may live in unreliable
//! storage. [`EccCell`] models an ECC-protected word; [`RawCell`] models an
//! unprotected word whose stored bits a fault injector may flip directly
//! (the failure surface behind queue-management errors, §3 "QME").

use crate::hamming::{decode, encode, Codeword, Decoded};
use crate::stats::EccStats;

/// An ECC-protected 32-bit storage cell.
///
/// Every store re-encodes (a `compute-ECC` suboperation) and every load
/// decodes (a `check-ECC` suboperation); the supplied [`EccStats`] is
/// incremented accordingly so that CommGuard's Table 3 accounting can be
/// derived from real call counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccCell {
    stored: Codeword,
}

impl EccCell {
    /// Creates a cell holding `value`.
    pub fn new(value: u32) -> Self {
        EccCell {
            stored: encode(value),
        }
    }

    /// Stores `value`, recording one `compute-ECC` operation.
    pub fn store(&mut self, value: u32, stats: &mut EccStats) {
        stats.computes += 1;
        self.stored = encode(value);
    }

    /// Loads the value, recording one `check-ECC` operation.
    ///
    /// Single-bit corruption is transparently corrected (and counted);
    /// uncorrectable corruption returns `None` and is counted as a
    /// detection.
    pub fn load(&self, stats: &mut EccStats) -> Option<u32> {
        stats.checks += 1;
        match decode(self.stored) {
            Decoded::Clean(v) => Some(v),
            Decoded::Corrected(v) => {
                stats.corrections += 1;
                Some(v)
            }
            Decoded::Detected => {
                stats.detections += 1;
                None
            }
        }
    }

    /// Loads and, if a single-bit error was present, rewrites the cell with
    /// the corrected encoding (scrubbing).
    pub fn load_scrub(&mut self, stats: &mut EccStats) -> Option<u32> {
        stats.checks += 1;
        match decode(self.stored) {
            Decoded::Clean(v) => Some(v),
            Decoded::Corrected(v) => {
                stats.corrections += 1;
                stats.computes += 1;
                self.stored = encode(v);
                Some(v)
            }
            Decoded::Detected => {
                stats.detections += 1;
                None
            }
        }
    }

    /// Flips a stored bit (fault-injection hook).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= cg_ecc::CODEWORD_BITS`.
    pub fn inject_flip(&mut self, bit: u32) {
        self.stored = self.stored.with_flipped_bit(bit);
    }

    /// Raw stored codeword (for inspection in tests).
    pub fn codeword(&self) -> Codeword {
        self.stored
    }
}

impl Default for EccCell {
    fn default() -> Self {
        EccCell::new(0)
    }
}

/// An unprotected 32-bit storage cell.
///
/// Loads return whatever bits are stored; fault injection silently corrupts
/// subsequent loads. Used for queue pointers in the "unprotected queue"
/// baseline configuration (paper Fig. 3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct RawCell {
    stored: u32,
}

impl RawCell {
    /// Creates a cell holding `value`.
    pub fn new(value: u32) -> Self {
        RawCell { stored: value }
    }

    /// Stores `value`.
    #[inline]
    pub fn store(&mut self, value: u32) {
        self.stored = value;
    }

    /// Loads the (possibly corrupted) value.
    #[inline]
    pub fn load(&self) -> u32 {
        self.stored
    }

    /// Flips a stored bit (fault-injection hook).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn inject_flip(&mut self, bit: u32) {
        assert!(bit < 32, "bit {bit} out of range");
        self.stored ^= 1 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_cell_store_load_counts_ops() {
        let mut stats = EccStats::default();
        let mut cell = EccCell::default();
        cell.store(42, &mut stats);
        assert_eq!(cell.load(&mut stats), Some(42));
        assert_eq!(stats.computes, 1);
        assert_eq!(stats.checks, 1);
        assert_eq!(stats.corrections, 0);
    }

    #[test]
    fn ecc_cell_corrects_single_flip() {
        let mut stats = EccStats::default();
        let mut cell = EccCell::new(0x1234_5678);
        cell.inject_flip(5);
        assert_eq!(cell.load(&mut stats), Some(0x1234_5678));
        assert_eq!(stats.corrections, 1);
    }

    #[test]
    fn ecc_cell_detects_double_flip() {
        let mut stats = EccStats::default();
        let mut cell = EccCell::new(7);
        cell.inject_flip(3);
        cell.inject_flip(21);
        assert_eq!(cell.load(&mut stats), None);
        assert_eq!(stats.detections, 1);
    }

    #[test]
    fn scrub_repairs_stored_bits() {
        let mut stats = EccStats::default();
        let mut cell = EccCell::new(99);
        cell.inject_flip(10);
        assert_eq!(cell.load_scrub(&mut stats), Some(99));
        // After scrubbing, a fresh load sees a clean word.
        let before = stats.corrections;
        assert_eq!(cell.load(&mut stats), Some(99));
        assert_eq!(stats.corrections, before);
    }

    #[test]
    fn raw_cell_is_silently_corruptible() {
        let mut cell = RawCell::new(0);
        cell.inject_flip(31);
        assert_eq!(cell.load(), 0x8000_0000);
    }
}
