//! Seed pools for the scales whose flow can reject a seed.
//!
//! At reduced scale about 1% of seeds leave fewer than three analysed
//! Pareto points, and the flow rejects them by design ("at least 3 are
//! required"). A workload must not fail on its inputs, so reduced-scale
//! runs draw their seeds from `1..=REDUCED_POOL_END` minus the rejected
//! ones, found by running `ayb run --scale reduced --seed N` for every `N`
//! in the range.

use crate::schedule::{derive, Stream};

/// Upper end of the reduced-scale seed pool.
pub const REDUCED_POOL_END: u64 = 2048;

/// Seeds in `1..=REDUCED_POOL_END` whose reduced-scale flow is rejected.
pub const REDUCED_REJECTED: &[u64] = &[
    171, 209, 503, 642, 736, 811, 995, 1652, 1669, 1700, 1757, 1948, 2014,
];

/// An ordered pool of usable seeds, walked from a seed-derived offset.
#[derive(Debug, Clone)]
pub struct Pool {
    seeds: Vec<u64>,
    offset: usize,
}

impl Pool {
    /// The reduced-scale pool, entered at an offset derived from `seed`.
    pub fn reduced(seed: u64) -> Pool {
        let seeds: Vec<u64> = (1..=REDUCED_POOL_END)
            .filter(|s| !REDUCED_REJECTED.contains(s))
            .collect();
        let offset = (derive(seed, Stream::Pool, 0) % seeds.len() as u64) as usize;
        Pool { seeds, offset }
    }

    fn len(&self) -> usize {
        self.seeds.len()
    }

    /// The `index`-th seed walking forward from the offset.
    pub fn forward(&self, index: usize) -> u64 {
        self.seeds[(self.offset + index) % self.len()]
    }

    /// The `index`-th seed walking backward from just before the offset:
    /// distinct from every forward seed until the walks meet after
    /// `len()` seeds in total.
    pub fn backward(&self, index: usize) -> u64 {
        let len = self.len();
        self.seeds[(self.offset + len - 1 - index % len) % len]
    }
}
