//! Seeded case driver for the workspace's property tests.
//!
//! A property is a closure over a [`Gen`]; [`check`] runs it on `cases`
//! generators whose seeds are a fixed function of the case number, so a
//! run is reproducible everywhere. There is no shrinking: a failing case
//! prints its seed, and `property(&mut Gen::new(seed))` in a named
//! `#[test]` replays exactly that case.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use vira_comm::fault::splitmix64;

/// What the property-test framework these tests were written against
/// ran per property.
pub const DEFAULT_CASES: u32 = 256;

/// Deterministic value source: the splitmix64 stream of one seed.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    pub fn u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `range` (which must not be empty).
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.u64() % (range.end - range.start)
    }

    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// A probability: uniform in `[0, 1)`, with the two ends themselves
    /// (never / always) drawn once in eight cases each.
    pub fn probability(&mut self) -> f64 {
        match self.u64() % 8 {
            0 => 0.0,
            1 => 1.0,
            _ => self.f64_in(0.0, 1.0),
        }
    }

    /// `len` drawn from the range, then that many items.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }

    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        self.vec(len, |g| g.u64() as u8)
    }

    /// A string of `len` characters drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        self.vec(len, |g| chars[g.usize_in(0..chars.len())])
            .into_iter()
            .collect()
    }
}

/// Runs `property` on `cases` seeded generators. A panic inside it (a
/// failed `assert!`) fails the test after naming the case's seed.
pub fn check(cases: u32, property: impl Fn(&mut Gen)) {
    for case in 0..cases {
        let seed = splitmix64(case as u64);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed)))) {
            eprintln!(
                "property failed on case {case} of {cases}: replay with Gen::new({seed:#018x})"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_in_range() {
        let draw = |seed| {
            let mut g = Gen::new(seed);
            (
                g.u64(),
                g.usize_in(3..9),
                g.f64_in(-1.0, 1.0),
                g.bytes(0..16),
                g.string("ab", 1..5),
            )
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        check(DEFAULT_CASES, |g| {
            assert!((3..9).contains(&g.usize_in(3..9)));
            assert!((-1.0..1.0).contains(&g.f64_in(-1.0, 1.0)));
            assert!((0.0..=1.0).contains(&g.probability()));
            let v = g.vec(2..5, |g| g.u32_in(10..11));
            assert!((2..5).contains(&v.len()) && v.iter().all(|&x| x == 10));
            assert!(g.string("xyz", 1..4).chars().all(|c| "xyz".contains(c)));
        });
    }

    #[test]
    fn a_failing_case_fails_the_test() {
        let outcome = catch_unwind(|| check(DEFAULT_CASES, |g| assert!(g.u64() % 16 != 0)));
        assert!(outcome.is_err());
    }
}
