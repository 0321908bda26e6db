//! Exact order statistics over every recorded sample.
//!
//! Quantiles here are nearest-rank order statistics: the value returned is
//! always one of the samples, never a histogram bucket edge or an
//! interpolation. Each result carries the sample count and how many samples
//! lie strictly beyond it, so a reader can tell a p99 resting on ten tail
//! samples from one resting on none.

/// One quantile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile level in `[0, 1]`.
    pub q: f64,
    /// The order statistic at that level.
    pub value: f64,
    /// Number of samples the statistic was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank quantile of an ascending slice: the sample of rank
/// `ceil(q * n)` (1-based, clamped to `1..=n`). `None` when `sorted` is
/// empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts a copy of `samples` ascending (NaNs are dropped).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The quantile `q` of `samples` with its sample and tail counts.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    let sorted = sorted(samples);
    let value = nearest_rank(&sorted, q)?;
    Some(Quantile {
        q,
        value,
        samples: sorted.len(),
        beyond: sorted.iter().filter(|&&x| x > value).count(),
    })
}

/// Median of `samples` (nearest rank, so the lower middle of an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// Median and quartiles of a metric across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of runs.
    pub runs: usize,
}

impl Spread {
    /// Quartiles of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let sorted = sorted(values);
        Some(Spread {
            q1: nearest_rank(&sorted, 0.25)?,
            median: nearest_rank(&sorted, 0.5)?,
            q3: nearest_rank(&sorted, 0.75)?,
            runs: sorted.len(),
        })
    }

    /// Inter-quartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}
