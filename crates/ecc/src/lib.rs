//! # cg-ecc — single-word SECDED error correction
//!
//! CommGuard (ASPLOS'15, §4.1/§5.1) relies on *single-word ECC* in two
//! places: frame headers travelling through unreliable queues, and the
//! shared head/tail pointers of the queue manager. This crate implements
//! the classic Hamming SECDED code — **single error correction, double
//! error detection** — over 32-bit words, along with protected storage
//! cells and operation counters used by the paper's overhead accounting
//! (Table 3: `check/compute-ECC` suboperations).
//!
//! The code is a (39,32) extended Hamming code: 32 data bits, 6 Hamming
//! parity bits and one overall parity bit, packed into a [`Codeword`]
//! (a `u64` with 39 significant bits).
//!
//! ```
//! use cg_ecc::{encode, decode, Decoded};
//!
//! let cw = encode(0xDEAD_BEEF);
//! // a single bit flip anywhere in the codeword is corrected:
//! let corrupted = cg_ecc::Codeword::from_raw(cw.raw() ^ (1 << 17));
//! assert_eq!(decode(corrupted), Decoded::Corrected(0xDEAD_BEEF));
//! ```

mod cell;
mod hamming;
mod stats;

pub use cell::{EccCell, RawCell};
pub use hamming::{decode, encode, Codeword, Decoded, CODEWORD_BITS, DATA_BITS};
pub use stats::EccStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        for w in [0u32, 1, u32::MAX, 0x5555_5555, 0xAAAA_AAAA] {
            assert_eq!(decode(encode(w)), Decoded::Clean(w));
        }
    }
}
