//! Property tests for the SECDED implementation.

use cg_ecc::{decode, encode, Decoded, CODEWORD_BITS};
use proptest::prelude::*;

proptest! {
    /// Every word round-trips cleanly.
    #[test]
    fn roundtrip(word: u32) {
        prop_assert_eq!(decode(encode(word)), Decoded::Clean(word));
    }

    /// Any single flip is corrected back to the original word.
    #[test]
    fn single_flip_corrected(word: u32, bit in 0..CODEWORD_BITS) {
        let cw = encode(word).with_flipped_bit(bit);
        prop_assert_eq!(decode(cw), Decoded::Corrected(word));
    }

    /// Any double flip is detected, never silently miscorrected.
    #[test]
    fn double_flip_detected(word: u32, b1 in 0..CODEWORD_BITS, b2 in 0..CODEWORD_BITS) {
        prop_assume!(b1 != b2);
        let cw = encode(word).with_flipped_bit(b1).with_flipped_bit(b2);
        prop_assert_eq!(decode(cw), Decoded::Detected);
    }

    /// Distinct words never encode to the same codeword (injectivity).
    #[test]
    fn encoding_injective(a: u32, b: u32) {
        prop_assume!(a != b);
        prop_assert_ne!(encode(a), encode(b));
    }

    /// `encode` is bit-exact against the textbook positional encoder below.
    #[test]
    fn encode_matches_reference(word: u32) {
        prop_assert_eq!(encode(word).raw(), reference_encode(word));
    }

    /// `decode` agrees with the textbook positional decoder below, verdict
    /// and payload, on a random word carrying 0, 1, 2 and 3 flips (`b1`,
    /// `b2`, then every third bit), so three-flip mis-corrections must
    /// match as well.
    #[test]
    fn decode_matches_reference(word: u32, b1 in 0..CODEWORD_BITS, b2 in 0..CODEWORD_BITS) {
        let one = encode(word).with_flipped_bit(b1);
        let two = one.with_flipped_bit(b2);
        let three = (0..CODEWORD_BITS).map(|b3| two.with_flipped_bit(b3));
        for cw in [encode(word), one, two].into_iter().chain(three) {
            prop_assert_eq!(decode(cw), reference_decode(cw.raw()));
        }
    }
}

/// Codeword positions 1..=38 that hold data bits, in data-bit order.
fn data_positions() -> impl Iterator<Item = u32> {
    (1..CODEWORD_BITS).filter(|p| !p.is_power_of_two())
}

/// Hamming's definition: parity bit `2^k` makes the XOR of the positions of
/// all set bits zero; bit 0 makes the total parity even.
fn reference_encode(word: u32) -> u64 {
    let mut cw = 0u64;
    let mut syndrome = 0;
    for (i, pos) in data_positions().enumerate() {
        if word >> i & 1 == 1 {
            cw |= 1 << pos;
            syndrome ^= pos;
        }
    }
    for k in 0..6 {
        cw |= u64::from(syndrome >> k & 1) << (1 << k);
    }
    cw | u64::from(cw.count_ones() & 1)
}

/// The syndrome is the XOR of the positions of all set bits; with odd total
/// parity it names the flipped position.
fn reference_decode(raw: u64) -> Decoded {
    let bits = raw & ((1 << CODEWORD_BITS) - 1);
    let syndrome = (1..CODEWORD_BITS)
        .filter(|&p| bits >> p & 1 == 1)
        .fold(0, |s, p| s ^ p);
    let data = |b: u64| {
        data_positions()
            .enumerate()
            .fold(0u32, |w, (i, pos)| w | ((b >> pos & 1) as u32) << i)
    };
    match (syndrome, bits.count_ones().is_multiple_of(2)) {
        (0, true) => Decoded::Clean(data(bits)),
        (0, false) => Decoded::Corrected(data(bits)),
        (_, true) => Decoded::Detected,
        (s, false) if s >= CODEWORD_BITS => Decoded::Detected,
        (s, false) => Decoded::Corrected(data(bits ^ 1 << s)),
    }
}
