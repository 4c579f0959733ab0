//! Small numeric helpers: quantiles, a seeded RNG, and peak-RSS probes.

use std::time::Duration;

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values`, by linear interpolation between
/// closest ranks. Sorts in place; 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of a few values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// The `q`-quantile, over items, of each item's fastest time across
/// passes (every pass times the same items in the same order). Contention
/// from other tenants of the machine only adds time, in episodes that hit
/// different items in different passes, so an item's fastest pass
/// estimates its own cost, and the quantile over items is far steadier
/// than any single pass's.
pub fn quantile_of_minima(passes: &[Vec<f64>], q: f64) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let mut minima: Vec<f64> = (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    quantile(&mut minima, q)
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut v, 0.25), 2.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        let passes = vec![vec![5.0, 1.0, 9.0], vec![2.0, 4.0, 3.0]];
        assert_eq!(quantile_of_minima(&passes, 0.5), 2.0);
        assert_eq!(quantile_of_minima(&passes, 1.0), 3.0);
        assert_eq!(quantile_of_minima(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let x = r.range(3, 5);
            assert!((3..=5).contains(&x));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
