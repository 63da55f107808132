//! Seeded randomness for reproducible experiments.
//!
//! The generator is a self-contained xoshiro256++ seeded through
//! SplitMix64 — no external crates, so the workspace builds in fully
//! offline environments while keeping the statistical quality the
//! workloads rely on (jitter bands, tail fractions).

use crate::time::SimTime;

/// A deterministic random source used by workloads and cost jitter.
///
/// All experiments take an explicit seed so figure data is reproducible;
/// the harnesses fix seeds in their output metadata.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0
            .wrapping_add(s3)
            .rotate_left(23)
            .wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits, the standard uniform-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over an empty range");
        // Lemire's multiply-shift with rejection for unbiased sampling.
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= lo.wrapping_sub(n) % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Multiplicative jitter: returns `t` scaled by a factor uniform in
    /// `[1 - frac, 1 + frac]`. Used to add measurement-style noise to
    /// primitive costs without breaking determinism.
    pub fn jitter(&mut self, t: SimTime, frac: f64) -> SimTime {
        let f = self.uniform(1.0 - frac, 1.0 + frac);
        t.scale(f.max(0.0))
    }

    /// A right-skewed jitter mimicking occasional scheduling hiccups:
    /// usually `t` with ±`frac` noise, but with probability `p_tail`
    /// inflated by a factor in `[2, tail_factor]`. Reproduces e.g. the
    /// fork/exec 3.5 ms average vs 9 ms 90th percentile from the paper.
    pub fn tail_jitter(&mut self, t: SimTime, frac: f64, p_tail: f64, tail_factor: f64) -> SimTime {
        if self.chance(p_tail) {
            let f = self.uniform(2.0, tail_factor.max(2.0));
            t.scale(f)
        } else {
            self.jitter(t, frac)
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm),
    /// returned in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Derives an independent generator (e.g. per-subsystem streams).
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn index_is_unbiased_over_small_ranges() {
        let mut r = SimRng::new(23);
        let mut counts = [0usize; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.index(7)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 1.0 / 7.0).abs() < 0.01,
                "bucket {i} had fraction {frac}"
            );
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SimRng::new(7);
        let t = SimTime::from_millis(100);
        for _ in 0..1000 {
            let j = r.jitter(t, 0.1);
            assert!(j >= SimTime::from_millis(90) && j <= SimTime::from_millis(110));
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..50 {
            let s = r.sample_distinct(100, 10);
            assert_eq!(s.len(), 10);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(s.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut r = SimRng::new(3);
        let s = r.sample_distinct(5, 5);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tail_jitter_has_a_tail() {
        let mut r = SimRng::new(11);
        let t = SimTime::from_millis(3);
        let samples: Vec<SimTime> = (0..10_000).map(|_| r.tail_jitter(t, 0.2, 0.1, 3.0)).collect();
        let big = samples
            .iter()
            .filter(|&&s| s >= SimTime::from_millis(6))
            .count();
        let frac = big as f64 / samples.len() as f64;
        assert!((0.05..0.15).contains(&frac), "tail fraction {frac}");
    }
}
