//! Bandwidth selection for kernel density estimation.
//!
//! The paper (Section 5.2) notes that *"density estimators have
//! hyperparameters \[but\] default hyperparameters work in all cases we
//! tried"*. Our default is Silverman's rule of thumb — robust to mild
//! multimodality via the IQR term — with Scott's rule and fixed bandwidths
//! available for the ablation benchmarks.

use crate::summary::{iqr, iqr_sorted, Welford};
use serde::{Deserialize, Serialize};

/// How to choose the KDE bandwidth from a training sample.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum BandwidthRule {
    /// Silverman's rule of thumb:
    /// `h = 0.9 · min(σ̂, IQR/1.34) · n^(−1/5)`.
    #[default]
    Silverman,
    /// Scott's rule: `h = 1.06 · σ̂ · n^(−1/5)`.
    Scott,
    /// A user-fixed bandwidth (must be positive).
    Fixed(f64),
}

/// A resolved bandwidth (positive, finite).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Wrap an already-resolved bandwidth value. Non-finite or
    /// non-positive values fall back to a unit bandwidth so the result
    /// is always usable as a divisor.
    #[inline]
    pub fn new(value: f64) -> Self {
        if value.is_finite() && value > 0.0 {
            Bandwidth(value)
        } else {
            Bandwidth(1.0)
        }
    }

    /// The numeric bandwidth value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl BandwidthRule {
    /// Resolve the rule against a (validated, non-empty, finite) sample.
    ///
    /// Degenerate samples (all values identical → σ̂ = IQR = 0) get a small
    /// positive bandwidth proportional to the magnitude of the data, so the
    /// resulting KDE is a narrow spike rather than a division by zero.
    pub fn resolve(self, samples: &[f64]) -> Bandwidth {
        self.resolve_with(samples, || iqr(samples))
    }

    /// [`resolve`](Self::resolve) for a caller that already holds a
    /// sorted copy of `samples`: the IQR is read from `sorted` instead
    /// of sorting again. σ̂ still folds `samples` in input order, so the
    /// bandwidth is bit-identical to `resolve(samples)`.
    pub fn resolve_sorted(self, samples: &[f64], sorted: &[f64]) -> Bandwidth {
        self.resolve_with(samples, || iqr_sorted(sorted))
    }

    fn resolve_with(self, samples: &[f64], iqr: impl FnOnce() -> f64) -> Bandwidth {
        let h = match self {
            BandwidthRule::Fixed(h) => h,
            BandwidthRule::Scott => {
                let w = Welford::from_slice(samples);
                1.06 * w.std_dev() * (samples.len() as f64).powf(-0.2)
            }
            BandwidthRule::Silverman => {
                let w = Welford::from_slice(samples);
                let sigma = w.std_dev();
                let iqr_scaled = iqr() / 1.34;
                let spread = if iqr_scaled > 0.0 { sigma.min(iqr_scaled) } else { sigma };
                0.9 * spread * (samples.len() as f64).powf(-0.2)
            }
        };
        if h.is_finite() && h > 0.0 {
            Bandwidth(h)
        } else {
            // Degenerate sample: all points equal (or a bad Fixed value).
            // Scale a floor bandwidth to the data's magnitude.
            let scale = samples.iter().fold(0.0f64, |acc, x| acc.max(x.abs())).max(1.0);
            Bandwidth(1e-3 * scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_rule_passes_through() {
        let h = BandwidthRule::Fixed(0.25).resolve(&[1.0, 2.0, 3.0]);
        assert_eq!(h.value(), 0.25);
    }

    #[test]
    fn fixed_rule_rejects_nonpositive() {
        let h = BandwidthRule::Fixed(-1.0).resolve(&[1.0, 2.0, 3.0]);
        assert!(h.value() > 0.0);
    }

    #[test]
    fn scott_matches_formula() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let w = Welford::from_slice(&xs);
        let expected = 1.06 * w.std_dev() * 100f64.powf(-0.2);
        let h = BandwidthRule::Scott.resolve(&xs);
        assert!((h.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn silverman_uses_min_of_sigma_and_iqr() {
        // Heavy-tailed sample: IQR/1.34 < σ, so Silverman < Scott-style σ bw.
        let mut xs: Vec<f64> = (0..100).map(|i| (i % 10) as f64).collect();
        xs.push(1e3); // outlier inflates σ but not IQR
        let h_silverman = BandwidthRule::Silverman.resolve(&xs);
        let w = Welford::from_slice(&xs);
        let sigma_based = 0.9 * w.std_dev() * (xs.len() as f64).powf(-0.2);
        assert!(h_silverman.value() < sigma_based);
    }

    #[test]
    fn degenerate_constant_sample_gets_positive_bandwidth() {
        for rule in [BandwidthRule::Silverman, BandwidthRule::Scott] {
            let h = rule.resolve(&[5.0; 10]);
            assert!(h.value() > 0.0, "{:?}", rule);
            assert!(h.value().is_finite());
        }
    }

    #[test]
    fn bandwidth_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..20).map(|i| (i as f64 * 37.0) % 10.0).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i as f64 * 37.0) % 10.0).collect();
        let hs = BandwidthRule::Silverman.resolve(&small);
        let hl = BandwidthRule::Silverman.resolve(&large);
        assert!(hl.value() < hs.value());
    }

    proptest! {
        #[test]
        fn prop_resolved_bandwidth_positive(
            xs in proptest::collection::vec(-1e4f64..1e4, 1..200),
        ) {
            for rule in [BandwidthRule::Silverman, BandwidthRule::Scott] {
                let h = rule.resolve(&xs);
                prop_assert!(h.value() > 0.0);
                prop_assert!(h.value().is_finite());
            }
        }

        #[test]
        fn prop_presorted_resolve_is_bit_identical(
            xs in proptest::collection::vec(-1e4f64..1e4, 1..200),
        ) {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for rule in [BandwidthRule::Silverman, BandwidthRule::Scott, BandwidthRule::Fixed(0.5)] {
                let a = rule.resolve(&xs).value();
                let b = rule.resolve_sorted(&xs, &sorted).value();
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
