//! Extended Hamming (39,32) SECDED code over 32-bit words.
//!
//! Layout: codeword bit positions are numbered 1..=38 in classic Hamming
//! fashion. Positions that are powers of two (1, 2, 4, 8, 16, 32) hold the
//! six Hamming parity bits; the remaining 32 positions hold data bits in
//! ascending order. Bit 0 of the `u64` holds the overall (even) parity bit
//! covering the whole 38-bit Hamming codeword, which upgrades the code from
//! SEC to SECDED.
//!
//! The codec runs on const byte-plane tables: [`encode`] XORs four
//! 256-entry planes (one per data byte) and [`decode`] XORs five syndrome
//! planes (one per codeword byte). The planes are built at compile time
//! from `encode_raw`, the popcount definition of the code, and the tests
//! check them against a popcount decoder on every codeword within distance
//! 3 of a set of words.

/// Number of data bits protected by one codeword.
pub const DATA_BITS: u32 = 32;

/// Total significant bits in a codeword (38 Hamming bits + overall parity).
pub const CODEWORD_BITS: u32 = 39;

/// Number of Hamming parity bits (excluding the overall parity bit).
const PARITY_BITS: u32 = 6;

/// Mask selecting the 39 significant codeword bits.
const CODEWORD_MASK: u64 = (1u64 << CODEWORD_BITS) - 1;

/// A SECDED-encoded 32-bit word.
///
/// The raw `u64` can be freely corrupted (e.g. by a fault injector flipping
/// bits) and later passed to [`decode`], which corrects any single-bit error
/// and detects any double-bit error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Codeword(u64);

impl Codeword {
    /// Wraps a raw 64-bit value as a codeword without validation.
    ///
    /// Bits above [`CODEWORD_BITS`] are ignored by [`decode`]. This is the
    /// entry point used by fault injectors that flip stored bits.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Codeword(raw)
    }

    /// Returns the raw stored bits.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Flips bit `bit` (0-based, `bit < CODEWORD_BITS`) of the codeword.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= CODEWORD_BITS`.
    #[inline]
    #[must_use]
    pub fn with_flipped_bit(self, bit: u32) -> Self {
        assert!(bit < CODEWORD_BITS, "bit {bit} out of range");
        Codeword(self.0 ^ (1u64 << bit))
    }
}

/// Outcome of decoding a [`Codeword`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decoded {
    /// No error was present; payload returned unchanged.
    Clean(u32),
    /// A single-bit error was corrected; corrected payload returned.
    Corrected(u32),
    /// An uncorrectable (two-bit or worse) error was detected.
    Detected,
}

impl Decoded {
    /// Returns the decoded payload if the word was clean or corrected.
    #[inline]
    pub fn value(self) -> Option<u32> {
        match self {
            Decoded::Clean(v) | Decoded::Corrected(v) => Some(v),
            Decoded::Detected => None,
        }
    }

    /// Returns `true` when decoding did not recover a payload.
    #[inline]
    pub fn is_detected(self) -> bool {
        matches!(self, Decoded::Detected)
    }
}

/// Maps data-bit index (0..32) to its Hamming position (1..=38, skipping
/// powers of two).
#[inline]
#[cfg_attr(not(test), allow(dead_code))]
fn data_position(data_idx: u32) -> u32 {
    // Positions 3,5,6,7,9,...: skip 1,2,4,8,16,32.
    debug_assert!(data_idx < DATA_BITS);
    let mut pos = data_idx + 3; // account for positions 1 and 2 up front
                                // Each power of two <= pos shifts data positions up by one.
    for p in [4u32, 8, 16, 32] {
        if pos >= p {
            pos += 1;
        }
    }
    pos
}

/// Coverage mask for Hamming parity bit `2^k`: positions 1..=38 whose
/// binary representation has bit `k` set.
const fn parity_mask(k: u32) -> u64 {
    let mut mask = 0u64;
    let mut pos = 1u32;
    while pos <= 38 {
        if pos & (1 << k) != 0 {
            mask |= 1u64 << pos;
        }
        pos += 1;
    }
    mask
}

const PARITY_MASKS: [u64; PARITY_BITS as usize] = [
    parity_mask(0),
    parity_mask(1),
    parity_mask(2),
    parity_mask(3),
    parity_mask(4),
    parity_mask(5),
];

/// Scatters the 32 data bits into their codeword positions.
///
/// Data bits occupy positions 3, 5-7, 9-15, 17-31, 33-38 (everything in
/// 1..=38 that is not a power of two), in ascending order, so the scatter
/// is five contiguous shifts.
#[inline]
const fn scatter(word: u32) -> u64 {
    let w = word as u64;
    ((w & 0x1) << 3)
        | ((w >> 1 & 0x7) << 5)
        | ((w >> 4 & 0x7F) << 9)
        | ((w >> 11 & 0x7FFF) << 17)
        | ((w >> 26 & 0x3F) << 33)
}

/// Encodes a 32-bit word into a SECDED codeword.
pub fn encode(word: u32) -> Codeword {
    let w = word as usize;
    Codeword(ENC[0][w & 0xFF] ^ ENC[1][w >> 8 & 0xFF] ^ ENC[2][w >> 16 & 0xFF] ^ ENC[3][w >> 24])
}

/// Const-evaluable encode body, the definition of the code. The lookup
/// planes [`ENC`] are built by folding it over single-byte words, so the
/// table codec cannot drift from it.
const fn encode_raw(word: u32) -> u64 {
    let mut cw = scatter(word);
    let mut k = 0;
    while k < PARITY_BITS as usize {
        // Each mask covers only data positions plus its own (still-unset)
        // parity position, so this parity is over data bits alone.
        let parity = (cw & PARITY_MASKS[k]).count_ones() as u64 & 1;
        cw |= parity << (1u32 << k);
        k += 1;
    }
    // Overall parity (bit 0) over positions 1..=38, even parity.
    let overall = ((cw >> 1).count_ones() as u64) & 1;
    cw | overall // bit 0
}

/// Per-byte encode planes: `ENC[j][b]` is the codeword of data byte `j`
/// holding value `b` with every other byte zero. Every codeword bit is a
/// GF(2)-linear function of the data bits, so a word's codeword is the
/// XOR of its four byte planes.
static ENC: [[u64; 256]; 4] = build_enc();

const fn build_enc() -> [[u64; 256]; 4] {
    let mut t = [[0u64; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            t[j][b] = encode_raw((b as u32) << (8 * j as u32));
            b += 1;
        }
        j += 1;
    }
    t
}

/// Per-byte syndrome planes over the five codeword bytes: `SYN[j][b]` packs
/// byte `j`'s contribution to the Hamming syndrome (low 6 bits) and to the
/// overall parity (bit 6).
static SYN: [[u8; 256]; 5] = build_syn();

const fn build_syn() -> [[u8; 256]; 5] {
    let mut t = [[0u8; 256]; 5];
    let mut j = 0;
    while j < 5 {
        let mut b = 0;
        while b < 256 {
            let mut acc = 0u8;
            let mut i = 0;
            while i < 8 {
                let pos = 8 * (j as u32) + i;
                if pos < CODEWORD_BITS && (b >> i) & 1 == 1 {
                    // Syndrome bit k is the parity over `PARITY_MASKS[k]`,
                    // which covers exactly the positions with bit k set, so
                    // XORing the position accumulates all six bits at once.
                    acc ^= pos as u8;
                    acc ^= 0x40; // overall parity counts every set bit
                }
                i += 1;
            }
            t[j][b] = acc;
            b += 1;
        }
        j += 1;
    }
    t
}

/// Decodes a codeword, correcting single-bit errors and detecting doubles.
///
/// Triple or worse errors may be miscorrected (inherent to SECDED codes).
pub fn decode(cw: Codeword) -> Decoded {
    let bits = cw.0 & CODEWORD_MASK;
    let b = bits as usize;
    let t = SYN[0][b & 0xFF]
        ^ SYN[1][b >> 8 & 0xFF]
        ^ SYN[2][b >> 16 & 0xFF]
        ^ SYN[3][b >> 24 & 0xFF]
        ^ SYN[4][b >> 32 & 0xFF];
    let syndrome = u32::from(t & 0x3F);
    let overall_ok = t & 0x40 == 0;
    match (syndrome, overall_ok) {
        (0, true) => Decoded::Clean(extract(bits)),
        // Overall parity flipped but Hamming syndrome clean: the error hit
        // the overall parity bit itself. Data is intact.
        (0, false) => Decoded::Corrected(extract(bits)),
        // Non-zero syndrome with consistent overall parity: two-bit error.
        (_, true) => Decoded::Detected,
        // Syndrome points outside the codeword: uncorrectable.
        (s, false) if s > 38 => Decoded::Detected,
        // Single-bit error at position `s`.
        (s, false) => Decoded::Corrected(extract(bits ^ (1u64 << s))),
    }
}

/// Extracts the 32 data bits from a (corrected) codeword bit pattern
/// (inverse of [`scatter`]).
#[inline]
fn extract(bits: u64) -> u32 {
    ((bits >> 3 & 0x1)
        | (bits >> 5 & 0x7) << 1
        | (bits >> 9 & 0x7F) << 4
        | (bits >> 17 & 0x7FFF) << 11
        | (bits >> 33 & 0x3F) << 26) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Popcount decoder over `PARITY_MASKS`: the reference the table
    /// [`decode`] is checked against.
    fn decode_reference(cw: Codeword) -> Decoded {
        let bits = cw.0 & CODEWORD_MASK;
        let mut syndrome: u32 = 0;
        for (k, mask) in PARITY_MASKS.iter().enumerate() {
            syndrome |= ((bits & mask).count_ones() & 1) << k;
        }
        match (syndrome, bits.count_ones().is_multiple_of(2)) {
            (0, true) => Decoded::Clean(extract(bits)),
            (0, false) => Decoded::Corrected(extract(bits)),
            (_, true) => Decoded::Detected,
            (s, false) if s > 38 => Decoded::Detected,
            (s, false) => Decoded::Corrected(extract(bits ^ (1u64 << s))),
        }
    }

    /// Every single-byte word must encode identically through the planes
    /// and `encode_raw`: exhaustive over the table domain, so together with
    /// linearity it covers all 2^32 words.
    #[test]
    fn encode_planes_match_scalar_exhaustively_per_byte() {
        for j in 0..4 {
            for b in 0..=255u32 {
                let w = b << (8 * j);
                assert_eq!(encode(w).raw(), encode_raw(w), "byte {j} value {b:#x}");
            }
        }
    }

    /// Every codeword within Hamming distance 3 of `encode(w)` (clean, all
    /// singles, all doubles, all triples: 9,920 patterns) decodes to the
    /// same verdict and payload as the popcount reference, three-flip
    /// mis-corrections included.
    #[test]
    fn decode_matches_reference_within_distance_3() {
        for w in [0u32, 1, u32::MAX, 0xDEAD_BEEF, 0x0F0F_0F0F] {
            let clean = encode(w).raw();
            assert_eq!(clean, encode_raw(w), "word {w:#x}");
            let mut patterns = 0;
            for a in 0..=CODEWORD_BITS {
                for b in a..=CODEWORD_BITS {
                    for c in b..=CODEWORD_BITS {
                        // Index CODEWORD_BITS stands for "no flip"; equal
                        // indices below it would cancel, so skip them.
                        let flips = [a, b, c];
                        let real: Vec<u32> =
                            flips.into_iter().filter(|&i| i < CODEWORD_BITS).collect();
                        if real.windows(2).any(|p| p[0] == p[1]) {
                            continue;
                        }
                        let cw = Codeword(real.iter().fold(clean, |acc, &i| acc ^ (1u64 << i)));
                        assert_eq!(
                            decode(cw),
                            decode_reference(cw),
                            "word {w:#x} flips {real:?}"
                        );
                        patterns += 1;
                    }
                }
            }
            assert_eq!(patterns, 9_920);
        }
    }

    /// Full 64-bit random patterns (bits above the codeword included) give
    /// the same encode and decode as the reference.
    #[test]
    fn codec_matches_reference_on_random_raw_patterns() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1 << 20 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let raw = z ^ (z >> 31);
            let cw = Codeword::from_raw(raw);
            assert_eq!(decode(cw), decode_reference(cw), "raw {raw:#x}");
            assert_eq!(
                encode(raw as u32).raw(),
                encode_raw(raw as u32),
                "word {raw:#x}"
            );
        }
    }

    #[test]
    fn decode_ignores_bits_above_codeword() {
        let cw = encode(0x1234_5678);
        let noisy = Codeword::from_raw(cw.raw() | 0xFFFF_FF80_0000_0000);
        assert_eq!(decode(noisy), Decoded::Clean(0x1234_5678));
    }

    #[test]
    fn scatter_matches_positional_reference() {
        for w in [0u32, 1, u32::MAX, 0xDEAD_BEEF, 0x8000_0001, 0x0F0F_0F0F] {
            let mut reference = 0u64;
            for i in 0..DATA_BITS {
                if w & (1 << i) != 0 {
                    reference |= 1u64 << data_position(i);
                }
            }
            assert_eq!(scatter(w), reference, "word {w:#x}");
            assert_eq!(extract(reference), w, "word {w:#x}");
        }
    }

    #[test]
    fn data_positions_skip_parity_positions() {
        let positions: Vec<u32> = (0..DATA_BITS).map(data_position).collect();
        for p in &positions {
            assert!(!p.is_power_of_two(), "data landed on parity position {p}");
            assert!((3..=38).contains(p));
        }
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "positions must be distinct");
    }

    #[test]
    fn clean_roundtrip_various_words() {
        for w in [0, 1, 2, 3, 0xFFFF_FFFF, 0x8000_0001, 0x1234_5678] {
            assert_eq!(decode(encode(w)), Decoded::Clean(w));
        }
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        for w in [0u32, 0xDEAD_BEEF, u32::MAX, 0x0F0F_0F0F] {
            let cw = encode(w);
            for bit in 0..CODEWORD_BITS {
                let got = decode(cw.with_flipped_bit(bit));
                assert_eq!(got, Decoded::Corrected(w), "word {w:#x} bit {bit}");
            }
        }
    }

    #[test]
    fn detects_every_double_bit_flip() {
        let w = 0xCAFE_F00D;
        let cw = encode(w);
        for b1 in 0..CODEWORD_BITS {
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let got = decode(cw.with_flipped_bit(b1).with_flipped_bit(b2));
                assert_eq!(got, Decoded::Detected, "bits {b1},{b2}");
            }
        }
    }

    #[test]
    fn decoded_value_accessor() {
        assert_eq!(Decoded::Clean(7).value(), Some(7));
        assert_eq!(Decoded::Corrected(8).value(), Some(8));
        assert_eq!(Decoded::Detected.value(), None);
        assert!(Decoded::Detected.is_detected());
        assert!(!Decoded::Clean(0).is_detected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_out_of_range_panics() {
        let _ = encode(0).with_flipped_bit(CODEWORD_BITS);
    }
}
