//! # fpr-rng — a small deterministic PRNG
//!
//! The simulator needs seedable randomness in a few places (ASLR draws,
//! workload touch patterns, randomized schedules in tests) but must build
//! hermetically with no external crates. This is a SplitMix64 generator:
//! tiny, fast, well distributed for non-cryptographic use, and — the
//! property we actually care about — **bit-for-bit reproducible** from a
//! `u64` seed, so every experiment and every fault-injection schedule can
//! be replayed exactly.
//!
//! Not cryptographically secure; never use it for anything
//! security-sensitive beyond *modelling* entropy (as the ASLR audit does).

#![warn(missing_docs)]

/// Deterministic pseudo-random number generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn gen_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift reduction with rejection to avoid
    /// modulo bias.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        loop {
            let x = self.gen_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`. `lo < hi` required.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range({lo}, {hi})");
        lo + self.gen_below(hi - lo)
    }

    /// Uniform value in `[lo, hi)` as `usize`.
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_below(len as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of mantissa are plenty for simulation probabilities.
        let x = (self.gen_u64() >> 11) as f64 / (1u64 << 53) as f64;
        x < p
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Derives an independent generator (for splitting one seed into
    /// per-subsystem streams without correlation).
    pub fn fork_stream(&mut self) -> Rng {
        Rng::seed_from_u64(self.gen_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.gen_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.gen_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_below_respects_bound() {
        let mut r = Rng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.gen_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_interval() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..500 {
            let v = r.gen_range(10, 16);
            assert!((10..16).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(11);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_stream_decorrelates() {
        let mut root = Rng::seed_from_u64(5);
        let mut a = root.fork_stream();
        let mut b = root.fork_stream();
        assert_ne!(a.gen_u64(), b.gen_u64());
    }
}
