//! Property and differential tests for the N-way co-run paths.
//!
//! Three pinning layers:
//!
//! 1. **Legacy equivalence** — at N=2 the generalized simulator must be
//!    bit-identical (per-tenant stats) to the historical pair path
//!    `simulate_corun_lines`, over hundreds of random stream pairs.
//! 2. **Conservation** — eviction attribution must sum exactly to the
//!    combined statistics (per matrix, per set).
//! 3. **Differential oracle** — the fast flat-array path is pinned
//!    against the straight-line `corun::naive` reference simulator (the
//!    `NaiveLruStack` pattern), across random geometries and widths.

use clop_cachesim::corun::naive;
use clop_cachesim::{simulate_corun_lines, simulate_corun_nway, CacheConfig};
use clop_util::check::{check, check_n, vec_of};
use clop_util::Rng;

fn lines(rng: &mut Rng, span: u64, max_len: usize) -> Vec<u64> {
    vec_of(rng, max_len, |r| r.gen_below(span))
}

/// A random power-of-two geometry: 1–16 sets × 1–8 ways.
fn random_cfg(rng: &mut Rng) -> CacheConfig {
    let sets = 1u64 << rng.gen_below(5);
    let ways = 1u32 << rng.gen_below(4) as u32;
    CacheConfig::new(sets * ways as u64 * 64, ways, 64)
}

/// Random fleet of 1..=max_n streams.
fn random_streams(rng: &mut Rng, max_n: u64, span: u64, max_len: usize) -> Vec<Vec<u64>> {
    let n = rng.gen_below(max_n) as usize + 1;
    (0..n).map(|_| lines(rng, span, max_len)).collect()
}

fn as_slices(streams: &[Vec<u64>]) -> Vec<&[u64]> {
    streams.iter().map(|s| s.as_slice()).collect()
}

// ---- Satellite 1: N=2 is bit-identical to the legacy pair path ----

/// 500+ random stream pairs: the generalized simulator at N=2 reproduces
/// `simulate_corun_lines` exactly — same interleave order, same hit/miss
/// outcomes, same per-tenant counters.
#[test]
fn nway_at_two_matches_legacy_pair_path() {
    check_n("nway_at_two_matches_legacy_pair_path", 500, |rng| {
        let cfg = random_cfg(rng);
        let a = lines(rng, 96, 200);
        let b = lines(rng, 96, 200);
        let pair = simulate_corun_lines(&a, &b, cfg);
        let nway = simulate_corun_nway(&[&a, &b], cfg);
        assert_eq!(nway.per_tenant[0], pair.per_thread[0]);
        assert_eq!(nway.per_tenant[1], pair.per_thread[1]);
        assert_eq!(nway.combined(), pair.combined());
    });
}

// ---- Satellite 2: conservation of attribution ----

/// Single level: the eviction matrix and the per-set attribution are two
/// decompositions of the same events — their marginals must agree exactly,
/// and every eviction is a miss of someone.
#[test]
fn eviction_attribution_is_conserved() {
    check("eviction_attribution_is_conserved", |rng| {
        let cfg = random_cfg(rng);
        let streams = random_streams(rng, 6, 128, 250);
        let slices = as_slices(&streams);
        let r = simulate_corun_nway(&slices, cfg);
        let tenants = streams.len();
        let sets = cfg.num_sets() as usize;

        // Per-tenant accesses are exactly the stream lengths.
        for (t, s) in streams.iter().enumerate() {
            assert_eq!(r.per_tenant[t].accesses, s.len() as u64);
        }
        // Every eviction was caused by some miss; the cache starts empty,
        // so evictions never exceed total misses (cold fills don't evict).
        let combined = r.combined();
        assert!(r.evictions.total() <= combined.misses);
        // Matrix marginals: Σ_victim suffered == Σ_evictor caused == total.
        let suffered: u64 = (0..tenants).map(|v| r.evictions.suffered_by(v)).sum();
        let caused: u64 = (0..tenants).map(|e| r.evictions.caused_by(e)).sum();
        assert_eq!(suffered, r.evictions.total());
        assert_eq!(caused, r.evictions.total());
        // The per-set decomposition has the same per-victim marginals.
        for v in 0..tenants {
            let by_set: u64 = (0..sets).map(|s| r.evictions_in_set(s, v)).sum();
            assert_eq!(by_set, r.evictions.suffered_by(v));
        }
    });
}

// ---- Satellite 3: differential oracle against corun::naive ----

/// The flat-array single-level fast path agrees with the straight-line
/// reference on the complete result record — stats, eviction matrix, and
/// per-set attribution — across random geometries and widths.
#[test]
fn fast_single_level_matches_naive_reference() {
    check_n("fast_single_level_matches_naive_reference", 100, |rng| {
        let cfg = random_cfg(rng);
        let streams = random_streams(rng, 8, 160, 200);
        let slices = as_slices(&streams);
        let fast = simulate_corun_nway(&slices, cfg);
        let reference = naive::simulate_corun_nway(&slices, cfg);
        assert_eq!(fast, reference);
    });
}

/// Empty fleets and empty streams are handled identically by both paths.
#[test]
fn degenerate_inputs_agree() {
    let cfg = CacheConfig::new(1024, 2, 64);
    let empty: Vec<&[u64]> = Vec::new();
    assert_eq!(
        simulate_corun_nway(&empty, cfg),
        naive::simulate_corun_nway(&empty, cfg)
    );
    let streams: Vec<&[u64]> = vec![&[], &[1, 2, 3], &[]];
    assert_eq!(
        simulate_corun_nway(&streams, cfg),
        naive::simulate_corun_nway(&streams, cfg)
    );
}
