//! Two-level cache hierarchy: private L1 instruction caches backed by a
//! shared, unified L2.
//!
//! The paper evaluates "in a multi-core, multi-level memory hierarchy"
//! (§I, contribution 4): on its Xeon testbed each hyper-thread pair shares
//! the L1I, and all code misses land in a unified L2/L3 shared with data.
//! [`TwoLevelCache`] models the instruction-side view of that hierarchy:
//! an access can hit L1 (cheap), miss L1 but hit the shared L2 (the common
//! case the paper's optimization targets), or miss both (cold/capacity in
//! L2). The co-run variant gives each thread its own L1 while both share
//! the L2 — so a polite program also saves its peer's L2 space, the effect
//! behind the paper's remark that without L1 contention "there is no
//! further improvement in the unified cache in the lower levels."
//!
//! The N-tenant co-run is single-level: [`crate::corun::simulate_corun_nway`]
//! replays N tagged streams through one shared cache, and `exp_all
//! nway_validation` validates the N-peer defensiveness/politeness model
//! against it.

use crate::config::{CacheConfig, CacheStats};
use crate::corun::tag_line;
use crate::icache::SetAssocCache;

/// Where an access was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Hit in the private L1.
    L1,
    /// Missed L1, hit the shared L2.
    L2,
    /// Missed both (served from memory).
    Memory,
}

/// Per-level statistics of one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses issued by the thread.
    pub accesses: u64,
    /// L1 misses (= L2 accesses).
    pub l1_misses: u64,
    /// L2 misses (= memory accesses).
    pub l2_misses: u64,
}

impl LevelStats {
    /// L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// Local L2 miss ratio (misses per L2 access).
    pub fn l2_local_miss_ratio(&self) -> f64 {
        if self.l1_misses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l1_misses as f64
        }
    }

    /// The L1 view as plain [`CacheStats`].
    pub fn l1(&self) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            misses: self.l1_misses,
        }
    }
}

/// A private L1 in front of a (possibly shared) L2.
#[derive(Clone, Debug)]
pub struct TwoLevelCache {
    l1: SetAssocCache,
    l2: SetAssocCache,
    stats: LevelStats,
}

impl TwoLevelCache {
    /// Build with explicit geometries. The paper-shaped default is
    /// [`TwoLevelCache::paper`].
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        TwoLevelCache {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            stats: LevelStats::default(),
        }
    }

    /// The paper's testbed shape: 32 KB / 4-way L1I over a 256 KB / 8-way
    /// unified L2 (per-core, Nehalem-style).
    pub fn paper() -> Self {
        Self::new(
            CacheConfig::paper_l1i(),
            CacheConfig::new(256 * 1024, 8, 64),
        )
    }

    /// Access a line; returns the serving level. Inclusive fill: misses
    /// install into both levels.
    pub fn access(&mut self, line: u64) -> Level {
        self.stats.accesses += 1;
        if self.l1.access(line) {
            return Level::L1;
        }
        self.stats.l1_misses += 1;
        if self.l2.access(line) {
            return Level::L2;
        }
        self.stats.l2_misses += 1;
        Level::Memory
    }

    /// Per-level statistics so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }
}

/// Result of a two-level co-run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TwoLevelCorun {
    /// Per-thread statistics.
    pub per_thread: [LevelStats; 2],
}

/// Replay two fetch streams with private L1s and a shared unified L2,
/// round-robin interleaved.
pub fn simulate_two_level_corun(
    a: &[u64],
    b: &[u64],
    l1: CacheConfig,
    l2: CacheConfig,
) -> TwoLevelCorun {
    let mut l1s = [SetAssocCache::new(l1), SetAssocCache::new(l1)];
    let mut shared_l2 = SetAssocCache::new(l2);
    let mut out = TwoLevelCorun::default();
    for (thread, line) in crate::corun::interleave_round_robin(a, b) {
        let tagged = tag_line(line, thread);
        let st = &mut out.per_thread[thread];
        st.accesses += 1;
        if l1s[thread].access(tagged) {
            continue;
        }
        st.l1_misses += 1;
        if !shared_l2.access(tagged) {
            st.l2_misses += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (CacheConfig, CacheConfig) {
        (
            CacheConfig::new(512, 2, 64),  // 8-line L1
            CacheConfig::new(4096, 4, 64), // 64-line L2
        )
    }

    #[test]
    fn levels_served_in_order() {
        let (l1, l2) = small();
        let mut c = TwoLevelCache::new(l1, l2);
        assert_eq!(c.access(0), Level::Memory); // cold everywhere
        assert_eq!(c.access(0), Level::L1); // now resident
                                            // Evict from L1 (8 lines in same... fill 8+ lines), keep in L2.
        for l in 1..=8u64 {
            c.access(l * 2); // all map across sets, 8 lines evict line 0 eventually
        }
        // Line 0 may or may not be evicted from L1 depending on mapping;
        // force conflict: lines 0, 16, 32 share a set in an 8-set... use
        // direct check via stats instead.
        let st = c.stats();
        assert_eq!(st.accesses, 10);
        assert!(st.l1_misses >= 9);
        assert_eq!(st.l2_misses, 9); // every distinct line cold in L2 once
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        let (l1, l2) = small();
        let mut c = TwoLevelCache::new(l1, l2);
        // 16 lines: don't fit the 8-line L1, fit the 64-line L2.
        for _ in 0..20 {
            for line in 0..16u64 {
                c.access(line);
            }
        }
        let st = c.stats();
        assert!(
            st.l1_miss_ratio() > 0.5,
            "L1 thrashes: {}",
            st.l1_miss_ratio()
        );
        assert!(
            st.l2_local_miss_ratio() < 0.1,
            "L2 absorbs: {}",
            st.l2_local_miss_ratio()
        );
        assert_eq!(st.l2_misses, 16); // cold only
    }

    #[test]
    fn paper_geometry_constructs() {
        let mut c = TwoLevelCache::paper();
        assert_eq!(c.access(1), Level::Memory);
        assert_eq!(c.access(1), Level::L1);
    }

    #[test]
    fn corun_shares_l2_but_not_l1() {
        let (l1, l2) = small();
        // Each thread loops over 4 lines: fits its private L1 → no L1
        // contention regardless of the peer.
        let a: Vec<u64> = (0..200).map(|i| i % 4).collect();
        let b = a.clone();
        let r = simulate_two_level_corun(&a, &b, l1, l2);
        assert_eq!(r.per_thread[0].l1_misses, 4);
        assert_eq!(r.per_thread[1].l1_misses, 4);
    }

    #[test]
    fn shared_l2_contention_appears_when_combined_overflows() {
        let (l1, _) = small();
        let tiny_l2 = CacheConfig::new(1024, 2, 64); // 16 lines
                                                     // Each thread cycles 12 lines: alone fits L2 (12 < 16); together
                                                     // 24 tagged lines overflow it.
        let a: Vec<u64> = (0..600).map(|i| i % 12).collect();
        let solo = {
            let mut c = TwoLevelCache::new(l1, tiny_l2);
            for &l in &a {
                c.access(l);
            }
            c.stats()
        };
        let co = simulate_two_level_corun(&a, &a, l1, tiny_l2);
        assert!(
            co.per_thread[0].l2_misses > solo.l2_misses,
            "shared L2 contention: {} vs {}",
            co.per_thread[0].l2_misses,
            solo.l2_misses
        );
    }

    #[test]
    fn stats_ratios() {
        let st = LevelStats {
            accesses: 100,
            l1_misses: 20,
            l2_misses: 5,
        };
        assert!((st.l1_miss_ratio() - 0.2).abs() < 1e-12);
        assert!((st.l2_local_miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(st.l1().misses, 20);
        let empty = LevelStats::default();
        assert_eq!(empty.l1_miss_ratio(), 0.0);
        assert_eq!(empty.l2_local_miss_ratio(), 0.0);
    }
}
