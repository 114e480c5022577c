//! Deterministic random numbers.
//!
//! The simulator carries its own xoshiro256** implementation so that results
//! are bit-reproducible across platforms with no external dependencies;
//! every distribution a workload needs is derived from [`SimRng`] directly.

/// SplitMix64, used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
///
/// Every source of randomness in a simulation is derived from one root seed
/// via [`SimRng::derive`], so adding a new consumer never perturbs the
/// streams of existing ones.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed from a single 64-bit value (expanded with SplitMix64).
    pub fn seed_from(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream for subsystem `label`.
    ///
    /// The child seed mixes this generator's *seed-derived identity* with the
    /// label, without consuming from this stream, so derivation order does
    /// not matter.
    pub fn derive(&self, label: u64) -> SimRng {
        // Mix state words with the label through SplitMix64.
        let mut sm =
            self.s[0] ^ self.s[1].rotate_left(17) ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    #[allow(clippy::should_implement_trait)] // not an iterator; RngCore wraps this
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> double in [0, 1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's method (no modulo bias).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Avoid ln(0): uniform() is in [0,1), so 1-u is in (0,1].
        -mean * (1.0 - self.uniform()).ln()
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Deterministic 64-bit hash for ECMP-style decisions: FNV-1a over the
/// little-endian bytes of `parts`.
///
/// Not a general-purpose hasher; just a stable, platform-independent mix of
/// a few integers. Ids, sequence numbers and timestamps are mostly high
/// zero bytes, and hashing a zero byte is a bare multiply, so each word's
/// run of them is folded into one multiply by a precomputed power.
pub fn stable_hash(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in parts {
        let zeros = (p.leading_zeros() / 8) as usize;
        for &b in &p.to_le_bytes()[..8 - zeros] {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        h = h.wrapping_mul(FNV_PRIME_POW[zeros]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(
            (0..8).map(|_| a.next()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derive_is_order_independent() {
        let root = SimRng::seed_from(7);
        let mut c1 = root.derive(1);
        let _ = root.derive(2); // deriving another child must not matter
        let mut c1b = root.derive(1);
        assert_eq!(c1.next(), c1b.next());
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = SimRng::seed_from(7);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        assert_ne!(a.next(), b.next());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = SimRng::seed_from(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = SimRng::seed_from(13);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.1,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned value: determinism across runs/platforms is the contract.
        assert_eq!(stable_hash(&[1, 2, 3]), 0xda2b_fb22_5e0d_1f05);
        assert_ne!(stable_hash(&[1, 2, 3]), stable_hash(&[3, 2, 1]));
    }

    #[test]
    fn stable_hash_equals_bytewise_fnv1a() {
        fn reference(parts: &[u64]) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in parts.iter().flat_map(|p| p.to_le_bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
        let edges = [0, 1, 0xFF, 0x100, 1 << 56, u64::MAX >> 8, u64::MAX];
        for a in edges {
            for b in edges {
                assert_eq!(stable_hash(&[a, b]), reference(&[a, b]), "{a:#x} {b:#x}");
            }
        }
        assert_eq!(stable_hash(&[]), reference(&[]));
        let mut rng = SimRng::seed_from(0xF17);
        for case in 0..100_000 {
            // Every byte width, so every zero-run length is exercised.
            let parts: Vec<u64> = (0..1 + case % 7)
                .map(|_| rng.next() >> (8 * rng.below(9)).min(63))
                .collect();
            assert_eq!(stable_hash(&parts), reference(&parts), "{parts:x?}");
        }
    }
}
