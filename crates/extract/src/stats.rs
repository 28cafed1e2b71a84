//! Scalar-field statistics: ranges, histograms and quantile-based level
//! selection.
//!
//! The explorative analysis loop of the paper (§1.1) starts from a
//! guessed iso value and iterates; these helpers give the guess a
//! principled starting point — e.g. "the level that ≈ 10 % of the
//! samples exceed" — across all blocks of a dataset without loading
//! more than one block at a time.

use vira_grid::field::ScalarField;

/// A fixed-bin histogram over a closed value range, mergeable across
/// blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo` / above `hi` (possible when merging with a
    /// pre-set range).
    pub underflow: u64,
    pub overflow: u64,
    /// Count of non-finite samples (excluded from the bins).
    pub non_finite: u64,
}

impl Histogram {
    /// Creates an empty histogram with `n_bins` over `[lo, hi]`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Histogram {
        assert!(n_bins >= 1 && hi > lo, "invalid histogram range");
        Histogram {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
            non_finite: 0,
        }
    }

    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Total binned samples (excluding under/overflow and non-finite).
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        if v < self.lo {
            self.underflow += 1;
        } else if v > self.hi {
            self.overflow += 1;
        } else {
            let t = (v - self.lo) / (self.hi - self.lo);
            let idx = ((t * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Accumulates every sample of a field.
    pub fn add_field(&mut self, field: &ScalarField) {
        for &v in &field.values {
            self.add(v);
        }
    }

    /// Merges a histogram with identical binning.
    pub fn merge(&mut self, o: &Histogram) {
        assert_eq!(self.lo, o.lo, "histogram ranges must match");
        assert_eq!(self.hi, o.hi);
        assert_eq!(self.bins.len(), o.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&o.bins) {
            *a += b;
        }
        self.underflow += o.underflow;
        self.overflow += o.overflow;
        self.non_finite += o.non_finite;
    }

    /// The value below which a fraction `q ∈ [0, 1]` of the binned
    /// samples falls (linear interpolation within the bin). `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * total as f64;
        let mut acc = 0.0;
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = acc + c as f64;
            if next >= target && c > 0 {
                let within = (target - acc) / c as f64;
                return Some(self.lo + (i as f64 + within) * width);
            }
            acc = next;
        }
        Some(self.hi)
    }

    /// The bin with the most samples: `(bin centre, count)`.
    pub fn mode(&self) -> Option<(f64, u64)> {
        let (i, &c) = self.bins.iter().enumerate().max_by_key(|&(_, &c)| c)?;
        if c == 0 {
            return None;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        Some((self.lo + (i as f64 + 0.5) * width, c))
    }
}

/// Streaming min/max/mean accumulator, mergeable across blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FieldSummary {
    pub min: f64,
    pub max: f64,
    pub sum: f64,
    pub count: u64,
    pub non_finite: u64,
}

impl FieldSummary {
    pub fn new() -> FieldSummary {
        FieldSummary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            count: 0,
            non_finite: 0,
        }
    }

    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
    }

    pub fn add_field(&mut self, field: &ScalarField) {
        for &v in &field.values {
            self.add(v);
        }
    }

    pub fn merge(&mut self, o: &FieldSummary) {
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
        self.sum += o.sum;
        self.count += o.count;
        self.non_finite += o.non_finite;
    }

    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Picks an iso level such that roughly `exceed_fraction` of the samples
/// lie above it — a robust starting guess for explorative isosurfacing.
/// Runs in two passes over the supplied fields (range, then histogram).
pub fn suggest_iso_level<'a>(
    fields: impl Iterator<Item = &'a ScalarField> + Clone,
    exceed_fraction: f64,
    n_bins: usize,
) -> Option<f64> {
    let mut summary = FieldSummary::new();
    for f in fields.clone() {
        summary.add_field(f);
    }
    if summary.is_empty() || summary.max <= summary.min {
        return None;
    }
    let mut hist = Histogram::new(summary.min, summary.max, n_bins);
    for f in fields {
        hist.add_field(f);
    }
    hist.quantile(1.0 - exceed_fraction.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vira_grid::block::BlockDims;

    fn linear_field(n: usize) -> ScalarField {
        // Values 0 .. n³-1, uniformly spread.
        let dims = BlockDims::new(n, n, n);
        let total = dims.n_points();
        let mut next = 0.0;
        ScalarField::from_fn(dims, move |_, _, _| {
            let v = next;
            next += 1.0 / (total as f64 - 1.0);
            v
        })
    }

    #[test]
    fn histogram_counts_and_range() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.add_field(&linear_field(5));
        assert_eq!(h.count(), 125);
        assert_eq!(h.underflow + h.overflow, 0);
        assert_eq!(h.non_finite, 0);
    }

    #[test]
    fn histogram_quantiles_of_uniform_data() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        h.add_field(&linear_field(9));
        for q in [0.1, 0.25, 0.5, 0.9] {
            let v = h.quantile(q).unwrap();
            assert!((v - q).abs() < 0.02, "q={q}: {v}");
        }
        assert_eq!(h.quantile(0.0).map(|v| v < 0.02), Some(true));
    }

    #[test]
    fn histogram_under_overflow_and_nan() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-1.0);
        h.add(2.0);
        h.add(f64::NAN);
        h.add(0.5);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.non_finite, 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_merge_equals_combined_fill() {
        let f = linear_field(6);
        let mut a = Histogram::new(0.0, 1.0, 16);
        let mut b = Histogram::new(0.0, 1.0, 16);
        a.add_field(&f);
        b.add_field(&f);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 2 * a.count());
        assert_eq!(merged.quantile(0.5), a.quantile(0.5));
    }

    #[test]
    fn histogram_mode_finds_the_peak() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for _ in 0..50 {
            h.add(0.35);
        }
        h.add(0.9);
        let (center, count) = h.mode().unwrap();
        assert_eq!(count, 50);
        assert!((center - 0.35).abs() < 0.06);
    }

    #[test]
    fn summary_accumulates() {
        let mut s = FieldSummary::new();
        s.add_field(&linear_field(5));
        assert_eq!(s.count, 125);
        assert!((s.min - 0.0).abs() < 1e-12);
        assert!((s.max - 1.0).abs() < 1e-12);
        assert!((s.mean().unwrap() - 0.5).abs() < 1e-9);
        s.add(f64::INFINITY);
        assert_eq!(s.non_finite, 1);
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let f = linear_field(5);
        let mut a = FieldSummary::new();
        a.add_field(&f);
        let mut b = FieldSummary::new();
        b.add_field(&f);
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.count, 250);
        assert_eq!(m.mean(), a.mean());
    }

    #[test]
    fn suggest_iso_hits_the_exceed_fraction() {
        let fields = [linear_field(9), linear_field(9)];
        let iso = suggest_iso_level(fields.iter(), 0.1, 200).unwrap();
        // 10 % of a uniform [0,1] sample exceeds 0.9.
        assert!((iso - 0.9).abs() < 0.02, "iso = {iso}");
        // Degenerate field: no suggestion.
        let flat = ScalarField::from_fn(BlockDims::new(3, 3, 3), |_, _, _| 1.0);
        assert_eq!(suggest_iso_level([&flat].into_iter(), 0.1, 10), None);
    }
}
