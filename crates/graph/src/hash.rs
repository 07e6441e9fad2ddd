//! The one hasher behind every hashed table of the workspace's hot loops.
//!
//! [`FxHasher`] is a polynomial (multiply-add) hash over 64-bit words: after
//! the words `x_1 … x_n` its state is `SEED·K^n + Σ x_i·K^(n−i)` (mod 2⁶⁴)
//! for the odd multiplier `K`.  Two properties follow:
//!
//! * one multiply and one add per word, with no per-call setup — the cost
//!   profile of the small fixed-size keys it hashes (packed candidate
//!   descriptors, label sequences);
//! * **composition**: the state after `X ++ Y` is the state after `X` times
//!   `K^|Y|` plus the unseeded sum of `Y` ([`FxHasher::raw`] /
//!   [`FxHasher::with_state`] / [`pow`]).  Stage I's ladder join uses this to
//!   hash a product's label sequence from per-parent piece hashes in `O(1)`,
//!   never walking the labels.
//!
//! The raw state's low bits depend only on the inputs' low bits, so
//! [`Hasher::finish`] mixes the high half in ([`spread`]) before any table
//! takes bits from it.  A lone `u128` key (a `KeyMarks` mark) takes the
//! one-multiply [`hash_u128`] instead of a two-word polynomial.

use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of the polynomial (2⁶⁴ divided by the golden ratio).
const HASH_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial state of a seeded hasher: nonzero, so sequences that differ only
/// by leading zero words hash apart.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// A polynomial multiply-add hasher; see the module documentation.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    fn default() -> Self {
        FxHasher { hash: SEED }
    }
}

impl FxHasher {
    /// A hasher resuming from raw state `hash`: `0` starts the unseeded sum
    /// of a sequence piece, a value from [`FxHasher::raw`] continues it.
    #[inline]
    pub fn with_state(hash: u64) -> Self {
        FxHasher { hash }
    }

    /// Absorbs one word: `state = state·K + v`.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.hash = self.hash.wrapping_mul(HASH_K).wrapping_add(v);
    }

    /// The raw polynomial state (unmixed): what composes.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.hash
    }

    /// The seed term of a composed hash: the raw state of the seeded hasher
    /// after `len` words is this plus the words' unseeded sum.
    #[inline]
    pub fn seeded(len: usize) -> u64 {
        SEED.wrapping_mul(pow(len))
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(v));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        spread(self.hash)
    }
}

/// `BuildHasher` of [`FxHasher`] for `std` hash maps.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// `K^n` (mod 2⁶⁴) by square-and-multiply.
pub fn pow(mut n: usize) -> u64 {
    let (mut base, mut acc) = (HASH_K, 1u64);
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// The one-multiply table hash of a single `u128` key: its halves folded
/// by xor, then [`spread`] — for hot probes of composite keys, where the
/// two-word polynomial of [`FxHasher`] would cost three dependent multiplies.
#[inline]
pub fn hash_u128(k: u128) -> u64 {
    spread((k as u64) ^ (k >> 64) as u64)
}

/// Mixes a raw polynomial state into a table hash whose every bit depends
/// on every input bit (the finish of [`FxHasher`]).
#[inline]
pub fn spread(h: u64) -> u64 {
    let h = (h ^ (h >> 32)).wrapping_mul(HASH_K);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_of(words: &[u64], start: u64) -> u64 {
        let mut h = FxHasher::with_state(start);
        for &w in words {
            h.add(w);
        }
        h.raw()
    }

    #[test]
    fn hashes_compose_over_concatenation() {
        let (x, y) = ([3u64, 0, 7], [1u64, 9]);
        let whole = raw_of(&[3, 0, 7, 1, 9], FxHasher::default().raw());
        let head = raw_of(&x, FxHasher::default().raw());
        assert_eq!(head.wrapping_mul(pow(y.len())).wrapping_add(raw_of(&y, 0)), whole);
        assert_eq!(FxHasher::seeded(5).wrapping_add(raw_of(&[3, 0, 7, 1, 9], 0)), whole);
        assert_eq!(pow(0), 1);
        assert_eq!(pow(3), HASH_K.wrapping_mul(HASH_K).wrapping_mul(HASH_K));
    }

    #[test]
    fn leading_zeros_and_lengths_hash_apart() {
        let seeded = |w: &[u64]| raw_of(w, FxHasher::default().raw());
        assert_ne!(seeded(&[0, 5]), seeded(&[5]));
        assert_ne!(seeded(&[]), seeded(&[0]));
        assert_ne!(spread(1), spread(2));
    }
}
