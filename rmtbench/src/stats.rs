//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure accounting and metric-name validation.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency reported under the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole percentile actually reported (at most the one asked for).
    pub percentile: u32,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest whole percentile, no higher than `want`, that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond its nearest-rank value.
/// `None` when even the median leaves fewer (under 20 samples).
pub fn tail(xs: &[f64], want: u32) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    (50..=want.min(100)).rev().find_map(|p| {
        // Nearest rank: the smallest rank covering p% of the samples.
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n >= rank && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

/// Operations attempted and failed. A refused request, a transport
/// error and a failed correctness check all count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or failed a check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already-counted operation as failed (a check that ran
    /// after the operation itself succeeded).
    pub fn fail_counted(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!(t.percentile, 99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 999 samples: p99 leaves 9 beyond, so p98 is the highest.
        let t = tail(&xs[..999], 99).unwrap();
        assert_eq!(t.percentile, 98);
        assert_eq!(t.value, 980.0);
        assert_eq!(t.samples, 999);
    }

    #[test]
    fn tail_falls_back_and_gives_up() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 99).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // 20 samples: only the median leaves ten beyond.
        let t = tail(&xs[..20], 99).unwrap();
        assert_eq!((t.percentile, t.value), (50, 10.0));
        assert!(tail(&xs[..19], 99).is_none());
        assert!(tail(&[], 99).is_none());
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 99).unwrap().value, 190.0);
    }

    #[test]
    fn refused_requests_count_as_failed() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        // A refused submission is an attempt that failed.
        t.record(false);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.failed_frac(), 0.4);
        // A later failed check on a counted operation adds no attempt.
        t.fail_counted();
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn failed_never_exceeds_attempted() {
        let mut t = Tally::default();
        t.record(false);
        t.fail_counted();
        assert_eq!((t.attempted, t.failed), (1, 1));
        let mut u = Tally::default();
        u.merge(t);
        u.record(true);
        assert_eq!(u.failed_frac(), 0.5);
    }

    #[test]
    fn name_rule() {
        for ok in ["wall_s", "thermal.solve_ms_g50", "sweep-cold", "2d-a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
