//! An incremental-max structure over time steps.
//!
//! Permutation replay of the peak-demand game needs
//! `max_t Σ_p demand[p][t]` after every player insertion. Maintaining the
//! per-step sums and re-scanning the whole horizon
//! (`sums.iter().fold(0.0, f64::max)`) costs `O(steps)` per update even
//! when the player touches a handful of steps. [`MaxTree`] is
//! a flat segment tree holding the running sums in its leaves and the
//! pairwise maximum in its internal nodes: a point update costs
//! `O(log steps)` and the global maximum is read off the root in `O(1)`.
//!
//! Equality with the scan: internal nodes combine with [`f64::max`], the
//! same operator the fold used, and [`MaxTree::max`] clamps the root at
//! `0.0` — exactly the fold's initial accumulator — so the result equals
//! the old scan bit-for-bit on any leaf contents the scan could produce.

/// Segment tree over per-time-step demand sums with `O(log steps)` point
/// updates and an `O(1)` global maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxTree {
    /// Number of real leaves (time steps).
    leaves: usize,
    /// Leaf capacity: `leaves` rounded up to a power of two.
    cap: usize,
    /// 1-indexed heap layout: `tree[1]` is the root, leaf `t` lives at
    /// `tree[cap + t]`.
    tree: Vec<f64>,
}

impl MaxTree {
    /// An all-zero tree over `leaves` time steps.
    ///
    /// # Panics
    ///
    /// Panics if `leaves == 0` — a peak over no time steps is undefined.
    pub fn new(leaves: usize) -> Self {
        assert!(leaves > 0, "max tree needs at least one leaf");
        let cap = leaves.next_power_of_two();
        Self {
            leaves,
            cap,
            tree: vec![0.0; 2 * cap],
        }
    }

    /// Number of real leaves.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Resets every sum to zero without releasing the allocation.
    pub fn reset(&mut self) {
        self.tree.fill(0.0);
    }

    /// Current sum at time step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= leaves`.
    pub fn leaf(&self, t: usize) -> f64 {
        assert!(t < self.leaves, "time step out of range");
        self.tree[self.cap + t]
    }

    /// Adds `delta` to the sum at time step `t` and repairs the max path
    /// to the root.
    ///
    /// # Panics
    ///
    /// Panics if `t >= leaves`.
    pub fn add(&mut self, t: usize, delta: f64) {
        assert!(t < self.leaves, "time step out of range");
        let mut node = self.cap + t;
        self.tree[node] += delta;
        while node > 1 {
            node /= 2;
            let refreshed = f64::max(self.tree[2 * node], self.tree[2 * node + 1]);
            // A parent that is bit-identical after the refresh leaves all
            // its ancestors bit-identical too (they depend on the child
            // values only), so the climb can stop — this turns clustered
            // updates (a workload's contiguous slice window) into climbs
            // of one or two levels each.
            if refreshed.to_bits() == self.tree[node].to_bits() {
                return;
            }
            self.tree[node] = refreshed;
        }
    }

    /// The maximum sum over all time steps, clamped below at `0.0` —
    /// matching the `fold(0.0, f64::max)` scan it replaces (and the empty
    /// coalition's value contract `v(∅) = 0`).
    pub fn max(&self) -> f64 {
        f64::max(self.tree[1], 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_max(sums: &[f64]) -> f64 {
        sums.iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn tracks_point_updates() {
        let mut t = MaxTree::new(5);
        assert_eq!(t.max(), 0.0);
        t.add(3, 4.5);
        assert_eq!(t.max(), 4.5);
        t.add(0, 7.0);
        assert_eq!(t.max(), 7.0);
        t.add(0, -7.0);
        assert_eq!(t.max(), 4.5);
        assert_eq!(t.leaf(3), 4.5);
        assert_eq!(t.leaf(0), 0.0);
    }

    #[test]
    fn reset_restores_zero_without_realloc() {
        let mut t = MaxTree::new(3);
        t.add(1, 9.0);
        t.reset();
        assert_eq!(t.max(), 0.0);
        assert_eq!(t.leaf(1), 0.0);
    }

    #[test]
    fn matches_full_scan_on_random_updates() {
        // Deterministic pseudo-random update stream; the tree root must
        // equal the naive scan after every single update.
        let steps = 13; // non-power-of-two to exercise padding
        let mut tree = MaxTree::new(steps);
        let mut sums = vec![0.0f64; steps];
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (state >> 33) as usize % steps;
            let delta = ((state >> 11) as i32 % 1000) as f64 / 8.0;
            tree.add(t, delta);
            sums[t] += delta;
            assert_eq!(tree.max().to_bits(), scan_max(&sums).to_bits());
            assert_eq!(tree.leaf(t).to_bits(), sums[t].to_bits());
        }
    }

    #[test]
    fn negative_sums_clamp_at_zero_like_the_scan() {
        let mut t = MaxTree::new(2);
        t.add(0, -3.0);
        t.add(1, -1.0);
        assert_eq!(t.max(), 0.0);
        assert_eq!(t.max(), scan_max(&[-3.0, -1.0]));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn zero_leaves_panics() {
        let _ = MaxTree::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        let mut t = MaxTree::new(2);
        t.add(2, 1.0);
    }
}
