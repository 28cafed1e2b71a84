//! Lane-chunked scan primitives behind the vectorized kernels.
//!
//! The hot extraction loops (`vira-extract`) and the field range scans in
//! this crate process data in fixed-width chunks of [`LANES`] elements with
//! one independent accumulator per lane, a shape the autovectorizer lowers
//! to packed min/max instructions on stable Rust — no `std::simd` needed.
//! Comparison-select (`if v < lo { lo = v }`) is used instead of
//! `f64::min`/`f64::max` because it maps 1:1 onto `minpd`/`maxpd`; for
//! non-NaN data the two are equivalent, and none of the materialized
//! fields produce NaN (singular Jacobians yield `+inf`, see
//! `vira-extract::lambda2`).

/// Lane width of the chunked scans. Eight `f64` lanes span two AVX2
/// registers (or one AVX-512 register); narrower blocks simply fall
/// through to the remainder loop.
pub const LANES: usize = 8;

/// Minimum and maximum of `values` via a lane-parallel scan.
///
/// Returns `(+inf, -inf)` for an empty slice. NaN samples are skipped,
/// matching the scalar `f64::min`/`f64::max` fold this replaces.
#[inline]
pub fn min_max(values: &[f64]) -> (f64, f64) {
    min_max_seeded(f64::INFINITY, f64::NEG_INFINITY, values)
}

/// Lane-parallel min/max fold of `values` into existing accumulators,
/// used when a range is accumulated across several contiguous rows.
pub fn min_max_seeded(mut lo: f64, mut hi: f64, values: &[f64]) -> (f64, f64) {
    let mut chunks = values.chunks_exact(LANES);
    if chunks.len() > 0 {
        let mut lo_l = [f64::INFINITY; LANES];
        let mut hi_l = [f64::NEG_INFINITY; LANES];
        for c in chunks.by_ref() {
            for l in 0..LANES {
                let v = c[l];
                lo_l[l] = if v < lo_l[l] { v } else { lo_l[l] };
                hi_l[l] = if v > hi_l[l] { v } else { hi_l[l] };
            }
        }
        for l in 0..LANES {
            lo = if lo_l[l] < lo { lo_l[l] } else { lo };
            hi = if hi_l[l] > hi { hi_l[l] } else { hi };
        }
    }
    for &v in chunks.remainder() {
        lo = if v < lo { v } else { lo };
        hi = if v > hi { v } else { hi };
    }
    (lo, hi)
}

/// Per-cell min/max of a row of cells along `i`, given the four point
/// rows bounding the cells in `j`/`k`.
///
/// Each of the four input rows holds `n + 1` point samples for `n`
/// cells; output element `c` is the min/max over the eight cell corners
/// `rows[r][c]`, `rows[r][c + 1]`. This is the bulk cell-range primitive
/// behind the vectorized contour scan: instead of gathering eight
/// corners per cell through index arithmetic, adjacent-pair min/max over
/// contiguous rows lets one pass produce the ranges for a whole run.
///
/// `out_lo`/`out_hi` must each hold at least `n` elements.
pub fn cell_ranges_along_i(rows: [&[f64]; 4], n: usize, out_lo: &mut [f64], out_hi: &mut [f64]) {
    assert!(out_lo.len() >= n && out_hi.len() >= n);
    for r in rows {
        assert!(r.len() > n, "point row shorter than cell run");
    }
    let [r0, r1, r2, r3] = rows;
    for c in 0..n {
        let (a0, b0) = (r0[c], r0[c + 1]);
        let (a1, b1) = (r1[c], r1[c + 1]);
        let (a2, b2) = (r2[c], r2[c + 1]);
        let (a3, b3) = (r3[c], r3[c + 1]);
        let lo01 = pair_min(pair_min(a0, b0), pair_min(a1, b1));
        let lo23 = pair_min(pair_min(a2, b2), pair_min(a3, b3));
        let hi01 = pair_max(pair_max(a0, b0), pair_max(a1, b1));
        let hi23 = pair_max(pair_max(a2, b2), pair_max(a3, b3));
        out_lo[c] = pair_min(lo01, lo23);
        out_hi[c] = pair_max(hi01, hi23);
    }
}

#[inline(always)]
fn pair_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

#[inline(always)]
fn pair_max(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_min_max(values: &[f64]) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    #[test]
    fn matches_scalar_fold_across_lengths() {
        // Cover empty, sub-lane, exact-lane and ragged lengths.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 101] {
            let values: Vec<f64> = (0..len)
                .map(|n| ((n as f64 * 37.0 + 11.0) % 23.0) - 11.5)
                .collect();
            assert_eq!(min_max(&values), scalar_min_max(&values), "len {len}");
        }
    }

    #[test]
    fn seeded_fold_accumulates_across_rows() {
        let a = [3.0, -1.0, 4.0];
        let b = [1.0, 5.0, -9.0, 2.0, 6.0, -5.0, 3.0, 5.0, 8.0];
        let (lo, hi) = min_max_seeded(f64::INFINITY, f64::NEG_INFINITY, &a);
        let (lo, hi) = min_max_seeded(lo, hi, &b);
        let mut all = a.to_vec();
        all.extend_from_slice(&b);
        assert_eq!((lo, hi), scalar_min_max(&all));
    }

    #[test]
    fn empty_scan_yields_infinite_seed() {
        assert_eq!(min_max(&[]), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn nan_samples_are_skipped() {
        assert_eq!(min_max(&[1.0, f64::NAN, -2.0]), (-2.0, 1.0));
    }

    #[test]
    fn cell_ranges_match_per_cell_gather() {
        let n = 13;
        let row = |seed: usize| -> Vec<f64> {
            (0..=n)
                .map(|i| ((i * 7 + seed * 13) % 17) as f64 - 8.0)
                .collect()
        };
        let rows = [row(0), row(1), row(2), row(3)];
        let mut lo = vec![0.0; n];
        let mut hi = vec![0.0; n];
        cell_ranges_along_i(
            [&rows[0], &rows[1], &rows[2], &rows[3]],
            n,
            &mut lo,
            &mut hi,
        );
        for c in 0..n {
            let corners = [
                rows[0][c],
                rows[0][c + 1],
                rows[1][c],
                rows[1][c + 1],
                rows[2][c],
                rows[2][c + 1],
                rows[3][c],
                rows[3][c + 1],
            ];
            assert_eq!((lo[c], hi[c]), scalar_min_max(&corners), "cell {c}");
        }
    }
}
