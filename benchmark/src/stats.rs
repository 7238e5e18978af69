//! Order statistics and the seeded generators every workload draws from.

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// SplitMix64: derives independent sub-seeds (one per graph, per edge
/// choice, per query stream) from the single `--seed`.
pub fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query-pair generator: Knuth's 64-bit LCG, two draws per state from
/// disjoint high bit ranges (the low bits of an LCG are weak).
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> Lcg {
        Lcg(splitmix(seed, 0x51ed) | 1)
    }

    /// The next `(s, d)` pair with both ends in `0..n`.
    pub fn pair(&mut self, n: u32) -> (u32, u32) {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (
            ((self.0 >> 44) as u32) % n,
            ((self.0 >> 20) as u32 & 0xff_ffff) % n,
        )
    }

    /// The next value in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        self.pair(n).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(percentile(&v, 0.75), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn lcg_repeats_for_a_seed_and_stays_in_range() {
        let (mut a, mut b) = (Lcg::new(7), Lcg::new(7));
        for _ in 0..1000 {
            let p = a.pair(97);
            assert_eq!(p, b.pair(97));
            assert!(p.0 < 97 && p.1 < 97);
        }
        assert_ne!(Lcg::new(7).pair(1 << 20), Lcg::new(8).pair(1 << 20));
    }
}
