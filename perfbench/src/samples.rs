//! Exact latency samples and the percentile rule.
//!
//! Every sample is kept (nanoseconds, sorted once at the end): no
//! histogram, no bucketing error. A timing is reported as its median and
//! the highest percentile that still has at least [`MIN_BEYOND`] samples
//! beyond it, with the sample count beside it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// One op class's latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Take every sample of `other`.
    pub fn merge(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100) in nanoseconds, or
    /// `None` without samples.
    pub fn pct(&mut self, p: f64) -> Option<u64> {
        self.sort();
        let n = self.ns.len();
        (n > 0).then(|| self.ns[rank(n, p)])
    }

    /// Percentile `p` of each consecutive window of `window` samples, in
    /// recording order; an incomplete last window is left out.
    pub fn windows(&self, p: f64, window: usize) -> Vec<f64> {
        assert!(
            !self.sorted || self.ns.len() < window,
            "windows need recording order"
        );
        self.ns
            .chunks_exact(window)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                c[rank(window, p)] as f64
            })
            .collect()
    }

    /// The median over [`Samples::windows`], and the window count; `None`
    /// without a full window. A rare stall of the host lands in one window
    /// and moves this median far less than it moves the whole run's
    /// percentile.
    pub fn windowed(&self, p: f64, window: usize) -> Option<(f64, usize)> {
        let per = self.windows(p, window);
        (!per.is_empty()).then(|| (median(&per), per.len()))
    }

    /// The highest percentile of [`TAILS`] with at least [`MIN_BEYOND`]
    /// samples beyond it, and its value; `None` if even the median lacks
    /// them.
    pub fn tail(&mut self) -> Option<(f64, u64)> {
        let n = self.ns.len();
        let p = TAILS.into_iter().find(|&p| reportable(n, p))?;
        Some((p, self.pct(p)?))
    }
}

/// 0-based index of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles like 99.9 from landing one
    // rank high through binary rounding.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p) - 1
    }
}

/// Whether percentile `p` of `n` samples may be reported.
pub fn reportable(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile `p` of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Median of `xs` (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64) -> Samples {
        let mut s = Samples::default();
        // Pushed in reverse to prove sorting happens.
        for x in (1..=n).rev() {
            s.push(x);
        }
        s
    }

    #[test]
    fn median_is_the_middle_rank() {
        assert_eq!(filled(101).pct(50.0), Some(51));
        assert_eq!(filled(100).pct(50.0), Some(50));
        assert_eq!(filled(1).pct(50.0), Some(1));
        assert_eq!(Samples::default().pct(50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(reportable(1000, 99.0));
        assert_eq!(filled(1000).tail(), Some((99.0, 990)));
        // 999 samples: only 9 beyond p99, so p95 is the reported tail.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!reportable(999, 99.0));
        assert_eq!(filled(999).tail().map(|t| t.0), Some(95.0));
        // 10 000 samples unlock p99.9.
        assert_eq!(filled(10_000).tail(), Some((99.9, 9990)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        // 20 samples: the median has exactly 10 beyond it.
        assert_eq!(filled(20).tail(), Some((50.0, 10)));
        assert_eq!(filled(19).tail(), None);
        assert_eq!(Samples::default().tail(), None);
    }

    #[test]
    fn merge_keeps_every_sample() {
        let mut a = filled(10);
        a.merge(filled(10));
        assert_eq!(a.len(), 20);
        assert_eq!(a.pct(100.0), Some(10));
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        let mut s = Samples::default();
        // Three windows of 100; the middle one holds a stall.
        for w in 0..3u64 {
            for x in 1..=100u64 {
                s.push(if w == 1 { x * 1000 } else { x });
            }
        }
        s.push(5); // an incomplete fourth window is ignored
        assert_eq!(s.windowed(99.0, 100), Some((99.0, 3)));
        assert_eq!(s.windowed(50.0, 1000), None);
        // The whole run's p99 is the stalled window's.
        assert_eq!(s.pct(99.0), Some(97_000));
    }

    #[test]
    fn quiet_windows_skip_slow_spells() {
        let mut s = Samples::default();
        // Ten windows of 10: the host runs slow in the last seven.
        for w in 0..10u64 {
            for x in 1..=10u64 {
                s.push(if w < 3 { x } else { x * 10 });
            }
        }
        let p50s = s.windows(50.0, 10);
        assert_eq!(p50s.len(), 10);
        assert_eq!(percentile(&p50s, 10.0), 5.0);
        assert_eq!(percentile(&p50s, 30.0), 5.0);
        assert_eq!(percentile(&p50s, 40.0), 50.0);
        assert!(percentile(&[], 10.0).is_nan());
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
