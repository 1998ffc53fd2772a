//! Seeded randomness for deterministic workloads.
//!
//! The generator is xoshiro256++ (Blackman and Vigna), its state seeded
//! with SplitMix64's first four outputs. The stream is this file's own:
//! every simulation, golden and figure is built on it, so no dependency
//! swap may change it, and `tests::known_answers` pins it.

/// SplitMix64's increment, the 64-bit golden ratio.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64` with `mix(0) = 0`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random-number generator used by every stochastic component.
///
/// All simulation randomness flows through `SimRng` so that a single `u64`
/// seed makes an entire experiment reproducible. `fork` derives independent
/// streams (one per session, per host, ...) so that adding a consumer does
/// not perturb the draws other consumers see.
///
/// # Example
///
/// ```
/// use notebookos_des::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed(seed: u64) -> Self {
        // SplitMix64's first four outputs. The four arguments of `mix` are
        // distinct and `mix` is a bijection that is 0 only at 0, so at most
        // one lane is 0: the all-zero state, xoshiro's fixed point, cannot
        // arise and needs no fallback.
        let lane = |i: u64| mix(seed.wrapping_add(i.wrapping_mul(GAMMA)));
        SimRng {
            s: [lane(1), lane(2), lane(3), lane(4)],
        }
    }

    /// Derives an independent child stream identified by `stream`.
    ///
    /// Forking mixes the stream id into fresh seed material drawn from this
    /// generator, so `fork(0)` and `fork(1)` are decorrelated, and two forks
    /// with the same id taken at different points differ as well.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed(mix(base ^ stream.wrapping_mul(GAMMA)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, 1)` that is never exactly zero (safe for `ln`).
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)`, by multiply-shift (Lemire) without
    /// rejection: each value's probability is off by a relative error
    /// below `bound / 2⁶⁴`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty collection");
        self.below(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = SimRng::seed(7);
        let mut x = root.fork(0);
        let mut y = root.fork(1);
        let same = (0..64).filter(|_| x.next_u64() == y.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_and_index_are_in_range() {
        let mut rng = SimRng::seed(1);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            assert!(rng.index(3) < 3);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    fn open_interval_never_zero() {
        let mut rng = SimRng::seed(9);
        for _ in 0..10_000 {
            assert!(rng.next_f64_open() > 0.0);
        }
    }

    #[test]
    fn range_f64_spans_interval() {
        let mut rng = SimRng::seed(2);
        for _ in 0..1000 {
            let v = rng.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_stays_in_the_unit_interval() {
        let mut rng = SimRng::seed(7);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
    }

    /// Seeds at the edges of the `u64` range and a few the tests and the
    /// ledger use.
    const KNOWN_SEEDS: [u64; 6] = [0, 1, 7, 42, 0x9E37_79B9_7F4A_7C15, u64::MAX];

    /// FNV-1a over every draw kind, `fork` included, for `rounds` rounds of
    /// each seed in [`KNOWN_SEEDS`].
    fn stream_digest(rounds: u64) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
        for seed in KNOWN_SEEDS {
            let mut rng = SimRng::seed(seed);
            for i in 0..rounds {
                eat(rng.next_u64());
                eat(rng.next_f64().to_bits());
                eat(rng.next_f64_open().to_bits());
                eat(rng.below(1 + i % 10_000));
                eat(rng.below(u64::MAX - i));
                eat(rng.index(1 + (i % 97) as usize) as u64);
                eat(u64::from(rng.chance(0.3)));
                eat(*rng.pick(&[3, 5, 8, 13]));
                eat(rng.range_f64(-2.0, 3.0).to_bits());
                eat(rng.fork(i).next_u64());
            }
        }
        h
    }

    /// A failure here moves every number the repository prints: it is never
    /// an incidental refactor. The first words are xoshiro256++'s published
    /// algorithm seeded with SplitMix64's first four outputs.
    #[test]
    fn known_answers() {
        let firsts: Vec<[u64; 2]> = KNOWN_SEEDS
            .iter()
            .map(|&s| {
                let mut rng = SimRng::seed(s);
                [rng.next_u64(), rng.next_u64()]
            })
            .collect();
        assert_eq!(
            firsts,
            [
                [0x5317_5D61_490B_23DF, 0x61DA_6F3D_C380_D507],
                [0xCFC5_D07F_6F03_C29B, 0xBF42_4132_963F_E08D],
                [0x0E2C_1A00_2AAE_913D, 0x2C0F_C8DD_FA4E_9E14],
                [0xD076_4D4F_4476_689F, 0x519E_4174_576F_3791],
                [0x58F2_4F57_E97E_3F07, 0x5F9A_9D6F_9A65_3406],
                [0x56CC_F8CE_948E_27B2, 0xE685_8843_2E5A_5B90],
            ]
        );
        assert_eq!(stream_digest(10_000), 0xB5D1_0FBA_7CC8_376B);
    }
}
