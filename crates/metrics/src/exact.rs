//! The exact sample CDF that [`crate::Cdf`]'s histogram is held to: every
//! sample kept in recording order, sorted per query. It exists only in
//! tests — the library's unit tests declare it `#[cfg(test)]`, and the
//! integration tests include this file by path.

/// Every finite sample recorded, in recording order.
#[derive(Debug, Clone, Default)]
pub struct Exact {
    samples: Vec<f64>,
}

impl Exact {
    /// Records one sample; non-finite samples are dropped, as `Cdf` does.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut out = self.samples.clone();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted()[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted().last().expect("max of empty reference")
    }

    /// The samples summed in recording order over their count.
    pub fn mean(&self) -> f64 {
        self.samples.iter().fold(0.0, |sum, &v| sum + v) / self.samples.len() as f64
    }

    /// The sorted samples at the floor and ceiling ranks of percentile `p`
    /// (rank = p/100·(n−1)) and the interpolation fraction between them.
    pub fn bracket(&self, p: f64) -> (f64, f64, f64) {
        let sorted = self.sorted();
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor();
        (sorted[lo as usize], sorted[rank.ceil() as usize], rank - lo)
    }

    /// The linearly interpolated percentile `p` of the exact samples.
    pub fn percentile(&self, p: f64) -> f64 {
        let (low, high, frac) = self.bracket(p);
        low + frac * (high - low)
    }

    /// Exact fraction of samples `<= value`.
    pub fn fraction_at_most(&self, value: f64) -> f64 {
        let at_most = self.samples.iter().filter(|&&s| s <= value).count();
        at_most as f64 / self.samples.len() as f64
    }
}
