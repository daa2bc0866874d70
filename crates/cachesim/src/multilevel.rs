//! Two-level cache hierarchy: private L1 instruction caches backed by a
//! shared, unified L2.
//!
//! The paper evaluates "in a multi-core, multi-level memory hierarchy"
//! (§I, contribution 4): on its Xeon testbed each hyper-thread pair shares
//! the L1I, and all code misses land in a unified L2/L3 shared with data.
//! [`simulate_two_level_corun`] models the instruction-side view of that
//! hierarchy: an access can hit L1 (cheap), miss L1 but hit the shared L2
//! (the common case the paper's optimization targets), or miss both
//! (cold/capacity in L2). Each thread gets its own L1 while both share
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
    l1_config: CacheConfig,
    l2_config: CacheConfig,
) -> TwoLevelCorun {
    let mut l1s = [SetAssocCache::new(l1_config), SetAssocCache::new(l1_config)];
    let mut shared_l2 = SetAssocCache::new(l2_config);
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
        let solo = simulate_two_level_corun(&a, &[], l1, tiny_l2).per_thread[0];
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
