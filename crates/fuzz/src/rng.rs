//! Deterministic pseudo-randomness for the fuzzer.
//!
//! The engine derives one [`FuzzRng`] per candidate from `(seed, round,
//! index)` through the campaign layer's SplitMix64 finalizer
//! ([`mix`], re-exported from `tta_sim::campaign`), so mutation
//! decisions never depend on thread scheduling or global RNG state — a
//! candidate's content is a pure function of its coordinates. No
//! external RNG crate is involved: determinism across platforms and
//! toolchains is the whole point.

// FNV-1a is the stable content hash behind corpus dedup keys and
// emitted scenario names; it is the campaign service's job/cache hash.
pub use tta_campaignd::hash::fnv1a64 as fnv1a;
pub use tta_sim::campaign::mix;

/// SplitMix64: tiny, fast, and statistically fine for fuzzing choices.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a generator whose entire stream is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform-ish value in `0..bound` (`bound` must be nonzero).
    /// Lemire's widening multiply without rejection: the bias is
    /// irrelevant for mutation choices and the cost is one multiply.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_range bound must be nonzero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `num / den`.
    pub fn gen_bool(&mut self, num: u64, den: u64) -> bool {
        self.gen_range(den) < num
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_yield_identical_streams() {
        let mut a = FuzzRng::new(7);
        let mut b = FuzzRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_the_bound() {
        let mut rng = FuzzRng::new(11);
        for _ in 0..1000 {
            assert!(rng.gen_range(13) < 13);
        }
    }

    #[test]
    fn fnv_is_content_stable() {
        assert_eq!(fnv1a(b"tta"), fnv1a(b"tta"));
        assert_ne!(fnv1a(b"tta"), fnv1a(b"ttb"));
    }
}
