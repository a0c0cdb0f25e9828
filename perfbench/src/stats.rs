//! Sample sets, failure tallies and the output check every workload uses.

/// Wall-clock samples of one operation kind, in seconds, each tagged with
/// the time slice of the run it was taken in.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<(u32, f64)>);

impl Samples {
    pub fn push(&mut self, slice: u32, seconds: f64) {
        self.0.push((slice, seconds));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile (0–100), nearest-rank on the sorted samples;
    /// `NaN` when there are none.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted: Vec<f64> = self.0.iter().map(|(_, v)| *v).collect();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The samples taken in one of `slices`.
    pub fn within(&self, slices: &[u32]) -> Samples {
        Samples(self.0.iter().filter(|(s, _)| slices.contains(s)).copied().collect())
    }

    fn slices(&self) -> Vec<u32> {
        let mut slices: Vec<u32> = self.0.iter().map(|(s, _)| *s).collect();
        slices.sort_unstable();
        slices.dedup();
        slices
    }

    /// Number of distinct slices the samples were taken in.
    pub fn slice_count(&self) -> usize {
        self.slices().len()
    }

    /// The samples of the fastest fifth of the slices (at least one),
    /// ranked by the median of the samples taken in each.
    pub fn quiet(&self) -> Samples {
        self.within(&self.quiet_slices())
    }

    fn quiet_slices(&self) -> Vec<u32> {
        let mut ranked: Vec<(f64, u32)> =
            self.slices().into_iter().map(|s| (self.within(&[s]).median(), s)).collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.truncate(ranked.len().div_ceil(5));
        ranked.into_iter().map(|(_, s)| s).collect()
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it when `n` samples were taken.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Operations attempted and failed; a failed output check counts as a
/// failed operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record `n` operations that completed without an error.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Compare an operation's output against the expected bytes.  With
    /// `corrupt` set the observed output is altered first, which is how
    /// the benchmark's own tests prove a wrong output is caught.
    pub fn check(&mut self, observed: &[u8], expected: &[u8], corrupt: bool) {
        let matches = if corrupt && !observed.is_empty() {
            let mut altered = observed.to_vec();
            altered[0] ^= 0x5a;
            altered == expected
        } else {
            observed == expected
        };
        if !matches {
            self.failed += 1;
        }
    }
}

/// splitmix64: the seeded generator for every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(0, v as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
    }

    #[test]
    fn quiet_slices_are_the_fastest_fifth() {
        let mut s = Samples::default();
        for (slice, v) in [(0, 3.0), (0, 3.2), (1, 1.0), (1, 1.1), (2, 2.0), (3, 9.0), (4, 1.5)] {
            s.push(slice, v);
        }
        assert_eq!(s.quiet_slices(), vec![1]);
        assert_eq!(s.quiet().median(), 1.0);
        assert_eq!(s.within(&[1, 4]).len(), 3);
    }

    #[test]
    fn a_corrupted_output_is_a_failure() {
        let mut tally = Tally::default();
        tally.check(b"abc", b"abc", false);
        assert_eq!(tally.failed, 0);
        tally.check(b"abc", b"abc", true);
        assert_eq!(tally.failed, 1);
    }
}
