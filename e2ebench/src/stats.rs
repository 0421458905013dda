//! Order statistics over measured samples.

/// A sorted sample of one measurement.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() / self.sorted.len() as f64
        }
    }

    /// The highest of p90/p99/p99.9 that leaves at least ten samples
    /// above it, as `(label, value)`; `None` below 100 samples.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let n = self.sorted.len();
        let (label, q) = if n >= 10_000 {
            ("p99.9", 0.999)
        } else if n >= 1_000 {
            ("p99", 0.99)
        } else if n >= 100 {
            ("p90", 0.9)
        } else {
            return None;
        };
        Some((label, self.quantile(q)))
    }

    /// `median, tail (n=count)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = self
            .tail()
            .map_or(String::new(), |(label, v)| format!(", {label} {v:.4} {unit}"));
        format!("median {:.4} {unit}{tail} (n={})", self.median(), self.len())
    }
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method), so spreads printed here match
/// the acceptance arithmetic.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.tail(), Some(("p90", 90.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    }
}
