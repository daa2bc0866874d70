//! Straight-line reference simulator for the N-way co-run path.
//!
//! Mirrors the `NaiveLruStack` pattern from the reuse-distance engine: the
//! fast path ([`crate::corun::simulate_corun_nway`]) is pinned against
//! this deliberately artless implementation by a randomized differential
//! suite (`tests/nway.rs`). Everything here is array-of-structs, one
//! linear scan per decision, no fused loops, no stamp-encoding tricks —
//! the behavior is meant to be auditable against the textbook definition
//! of a set-associative true-LRU cache, not fast.

use crate::config::{CacheConfig, CacheStats};
use crate::corun::{tag_line, tenant_of_line, EvictionMatrix, NwayCorunResult};

/// One way of one set: a valid bit, the full tagged line, and the LRU
/// timestamp of the last touch.
#[derive(Clone, Copy)]
struct Way {
    valid: bool,
    tag: u64,
    lru: u64,
}

/// The textbook set-associative LRU cache: a `Vec` of sets, each a `Vec`
/// of ways, with explicit linear scans for hit and victim.
struct NaiveCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    clock: u64,
}

/// What one access did: hit or miss, and the valid line it displaced.
struct NaiveOutcome {
    hit: bool,
    evicted: Option<u64>,
}

impl NaiveCache {
    fn new(config: CacheConfig) -> Self {
        let way = Way {
            valid: false,
            tag: 0,
            lru: 0,
        };
        NaiveCache {
            config,
            sets: vec![vec![way; config.associativity as usize]; config.num_sets() as usize],
            clock: 0,
        }
    }

    fn access(&mut self, line: u64) -> NaiveOutcome {
        self.clock += 1;
        let set = &mut self.sets[self.config.set_of_line(line) as usize];
        for way in set.iter_mut() {
            if way.valid && way.tag == line {
                way.lru = self.clock;
                return NaiveOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }
        // Victim: the first way in way order with the minimal key, where
        // an invalid way keys as 0 — the same order the fast path's
        // stamp-0-invalid encoding yields. Sets are built with at least
        // one way, so the fold always selects a victim.
        let mut victim_ix = 0usize;
        let mut victim_key = u64::MAX;
        for (i, w) in set.iter().enumerate() {
            let key = if w.valid { w.lru } else { 0 };
            if key < victim_key {
                victim_key = key;
                victim_ix = i;
            }
        }
        let victim = &mut set[victim_ix];
        let evicted = victim.valid.then_some(victim.tag);
        victim.valid = true;
        victim.tag = line;
        victim.lru = self.clock;
        NaiveOutcome {
            hit: false,
            evicted,
        }
    }
}

/// Round-robin interleave of N streams as an explicit position list —
/// the loop-until-nothing-progressed formulation, materialized.
fn naive_interleave(streams: &[&[u64]]) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut progressed = false;
        for (t, stream) in streams.iter().enumerate() {
            if cursors[t] < stream.len() {
                out.push((t, stream[cursors[t]]));
                cursors[t] += 1;
                progressed = true;
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// Reference single-level N-way co-run: one shared cache, round-robin
/// interleave, full eviction attribution.
pub fn simulate_corun_nway(streams: &[&[u64]], config: CacheConfig) -> NwayCorunResult {
    let tenants = streams.len();
    let mut cache = NaiveCache::new(config);
    let mut per_tenant = vec![CacheStats::default(); tenants];
    let mut evictions = EvictionMatrix::new(tenants);
    let mut evictions_by_set = vec![0u64; config.num_sets() as usize * tenants];
    for (t, line) in naive_interleave(streams) {
        let tagged = tag_line(line, t);
        let outcome = cache.access(tagged);
        per_tenant[t].record(outcome.hit);
        if let Some(victim_line) = outcome.evicted {
            let victim = tenant_of_line(victim_line);
            evictions.record(victim, t);
            evictions_by_set[config.set_of_line(tagged) as usize * tenants + victim] += 1;
        }
    }
    NwayCorunResult {
        per_tenant,
        evictions,
        evictions_by_set,
    }
}
