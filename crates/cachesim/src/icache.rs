//! Set-associative LRU instruction cache.
//!
//! The simulator works in *line indices* (byte address divided by line
//! size), which is what `clop_ir::fetch` produces. Tags are full line
//! indices, so distinct address spaces never alias: co-run simulation keeps
//! the two programs' lines distinct by offsetting one program's addresses
//! (a physically tagged cache shared by two processes behaves the same
//! way — pure capacity/conflict contention, no sharing).
//!
//! Storage is structure-of-arrays: one flat `tags` array and one flat
//! `stamps` array, each `num_sets × associativity`, with stamp `0` meaning
//! *invalid* (the clock is pre-incremented, so a resident line's stamp is
//! always `>= 1`). The encoding folds the validity test into LRU
//! selection: an invalid way's stamp 0 is below every valid stamp, so one
//! min-scan in way order picks the first invalid way if any, else the true
//! LRU way — exactly the AoS `min_by_key(if valid { lru } else { 0 })`
//! victim. A single fused loop per access resolves hit, victim, and
//! promotion with one set-index computation and ~half the memory traffic
//! of the array-of-structs layout (no padding, no `valid` byte lanes).
//!
//! Two execution paths share that storage. The scalar path
//! ([`SetAssocCache::access`] and friends) processes one access at a time
//! and is kept deliberately simple — it is the reference the differential
//! oracles compare against. The batched path
//! ([`SetAssocCache::access_batch`] and variants) replays a whole slice per
//! call in fixed-size chunks: set indices are extracted in a tight slice
//! pass the autovectorizer can chew on (one mask `&` per line on
//! power-of-two set counts, instead of the two hardware divides hiding in
//! `CacheConfig::set_of_line`), the per-access clock is computed as
//! `clock0 + i` so there is no loop-carried scalar dependency, the probe is
//! an unrolled branch-light hit-scan over the SoA tag array, and misses
//! fall into a scalar eviction fixup. Statistics are accumulated locally
//! and folded in once per chunk. The batched path is bit-identical to
//! calling `access` per element — same hits, same victims, same per-set
//! miss counts — which the oracle tests below pin on random streams.

use crate::config::{CacheConfig, CacheStats};

/// Chunk size of the batched replay path. Sized so one chunk's line slice
/// (16 KB), its extracted set indices (8 KB), and the paper-config tag +
/// stamp arrays (8 KB) sit together in a 32–48 KB L1D.
pub const BATCH_LINES: usize = 2048;

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Line tags, `associativity` consecutive entries per set.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`; `0` marks an invalid way.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    /// Demand misses per set (prefetch installs excluded). Indexed by set.
    misses_by_set: Vec<u64>,
}

impl SetAssocCache {
    /// An empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let slots = (config.num_sets() * config.associativity as u64) as usize;
        SetAssocCache {
            config,
            tags: vec![0; slots],
            stamps: vec![0; slots],
            clock: 0,
            stats: CacheStats::default(),
            misses_by_set: vec![0; config.num_sets() as usize],
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics over every access so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Demand-miss counts per set, indexed by set number. Used by the
    /// static conflict analyzer's cross-validation: the per-set ranking of
    /// simulated misses is compared against statically predicted pressure.
    pub fn misses_by_set(&self) -> &[u64] {
        &self.misses_by_set
    }

    /// Reset statistics (cache contents are kept). Useful for warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.misses_by_set.fill(0);
    }

    /// Empty the cache and reset statistics.
    pub fn flush(&mut self) {
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
        self.misses_by_set.fill(0);
    }

    /// Access a line; returns `true` on hit. Misses install the line,
    /// evicting the LRU way of its set.
    pub fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let set = self.config.set_of_line(line) as usize;
        let hit = self.touch_set(set, line);
        self.stats.record(hit);
        if !hit {
            self.misses_by_set[set] += 1;
        }
        hit
    }

    /// [`SetAssocCache::access`] that additionally reports the line a miss
    /// displaced, if any: `(hit, evicted)`. `evicted` is `Some(victim)`
    /// only when a *valid* resident line was evicted (cold fills into
    /// invalid ways report `None`). The shared-cache co-run simulators use
    /// this to attribute evictions to the tenant that caused them; the hit
    /// path, victim choice, and statistics are identical to `access` (the
    /// differential oracle in `corun::naive` pins this).
    pub fn access_reporting(&mut self, line: u64) -> (bool, Option<u64>) {
        self.clock += 1;
        let set = self.config.set_of_line(line) as usize;
        let assoc = self.config.associativity as usize;
        let start = set * assoc;
        let tags = &mut self.tags[start..start + assoc];
        let stamps = &mut self.stamps[start..start + assoc];
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for i in 0..assoc {
            let s = stamps[i];
            if s != 0 && tags[i] == line {
                stamps[i] = self.clock;
                self.stats.record(true);
                return (true, None);
            }
            if s < victim_stamp {
                victim_stamp = s;
                victim = i;
            }
        }
        let evicted = (victim_stamp != 0).then_some(tags[victim]);
        tags[victim] = line;
        stamps[victim] = self.clock;
        self.stats.record(false);
        self.misses_by_set[set] += 1;
        (false, evicted)
    }

    /// Install or refresh a line *without* recording statistics. Used by
    /// the prefetcher, whose speculative fills must not count as demand
    /// accesses.
    pub fn install(&mut self, line: u64) {
        self.clock += 1;
        let set = self.config.set_of_line(line) as usize;
        self.touch_set(set, line);
    }

    /// True if the line is currently resident (does not update LRU or
    /// statistics).
    pub fn probe(&self, line: u64) -> bool {
        let (start, assoc) = self.set_range(line);
        (start..start + assoc).any(|i| self.stamps[i] != 0 && self.tags[i] == line)
    }

    fn set_range(&self, line: u64) -> (usize, usize) {
        let set = self.config.set_of_line(line) as usize;
        let assoc = self.config.associativity as usize;
        (set * assoc, assoc)
    }

    /// Fused hit/victim scan over one set: promote on hit, else fill the
    /// first way with the minimal stamp (invalid ways stamp 0 sort first,
    /// then true LRU).
    fn touch_set(&mut self, set: usize, line: u64) -> bool {
        let assoc = self.config.associativity as usize;
        let start = set * assoc;
        let tags = &mut self.tags[start..start + assoc];
        let stamps = &mut self.stamps[start..start + assoc];
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for i in 0..assoc {
            let s = stamps[i];
            if s != 0 && tags[i] == line {
                stamps[i] = self.clock;
                return true;
            }
            if s < victim_stamp {
                victim_stamp = s;
                victim = i;
            }
        }
        tags[victim] = line;
        stamps[victim] = self.clock;
        false
    }

    /// Replay `lines` in order; returns the number of hits. Bit-identical
    /// to calling [`SetAssocCache::access`] per element (same hits, same
    /// victim choices, same statistics and per-set miss attribution), but
    /// restructured around fixed-size chunks for throughput — see the
    /// module docs for the batching argument.
    pub fn access_batch(&mut self, lines: &[u64]) -> u64 {
        self.batched::<false, false>(lines, &mut [], &mut [])
    }

    /// [`SetAssocCache::access_batch`] that additionally writes each
    /// access's hit/miss outcome into `hits_out` (same length as `lines`).
    /// Co-run replay uses this to attribute outcomes to tenants.
    pub fn access_batch_hits(&mut self, lines: &[u64], hits_out: &mut [bool]) -> u64 {
        assert_eq!(lines.len(), hits_out.len(), "hits_out length mismatch");
        self.batched::<true, false>(lines, hits_out, &mut [])
    }

    /// [`SetAssocCache::access_batch_hits`] that additionally writes the
    /// line each miss displaced into `evicted_out` (same length as
    /// `lines`), with `u64::MAX` meaning *no valid victim* — a hit or a
    /// cold fill into an invalid way. Mirrors
    /// [`SetAssocCache::access_reporting`]'s `Option<u64>` with a sentinel
    /// the batch kernel can store unconditionally; callers whose address
    /// space could contain line `u64::MAX` itself must use the scalar path
    /// (the tenant-tagged co-run streams never can — tags live below
    /// bit 63).
    pub fn access_batch_reporting(
        &mut self,
        lines: &[u64],
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        assert_eq!(lines.len(), hits_out.len(), "hits_out length mismatch");
        assert_eq!(
            lines.len(),
            evicted_out.len(),
            "evicted_out length mismatch"
        );
        self.batched::<true, true>(lines, hits_out, evicted_out)
    }

    /// Chunked driver shared by the three batched entry points. `HITS` and
    /// `EVICT` gate the per-element output stores at compile time.
    fn batched<const HITS: bool, const EVICT: bool>(
        &mut self,
        lines: &[u64],
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        let num_sets = self.config.num_sets();
        if num_sets > u32::MAX as u64 {
            // Set indices would not fit the u32 scratch; such a geometry is
            // not constructible in practice (the tag array alone would
            // exceed memory), but degrade gracefully rather than truncate.
            return self.batched_scalar_fallback::<HITS, EVICT>(lines, hits_out, evicted_out);
        }
        let mut sets = vec![0u32; lines.len().min(BATCH_LINES)];
        let mut hits = 0u64;
        let mut done = 0usize;
        for chunk in lines.chunks(BATCH_LINES) {
            let sets = &mut sets[..chunk.len()];
            extract_sets(num_sets, chunk, sets);
            let clock0 = self.clock;
            let (h_out, e_out) = if HITS {
                let h = &mut hits_out[done..done + chunk.len()];
                let e = if EVICT {
                    &mut evicted_out[done..done + chunk.len()]
                } else {
                    &mut [][..]
                };
                (h, e)
            } else {
                (&mut [][..], &mut [][..])
            };
            let chunk_hits = self.chunk_any::<HITS, EVICT>(chunk, sets, clock0, h_out, e_out);
            self.clock = clock0 + chunk.len() as u64;
            self.stats.accesses += chunk.len() as u64;
            self.stats.misses += chunk.len() as u64 - chunk_hits;
            hits += chunk_hits;
            done += chunk.len();
        }
        hits
    }

    /// Kernel dispatch for one chunk: the AVX2 probe when the host supports
    /// it and the geometry fits (4-way — the paper L1i — is one 256-bit
    /// vector per set side), else the portable scalar kernel monomorphised
    /// on the associativity. Both kernels are bit-identical by construction
    /// and the oracle tests drive each explicitly.
    fn chunk_any<const HITS: bool, const EVICT: bool>(
        &mut self,
        lines: &[u64],
        sets: &[u32],
        clock0: u64,
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.config.associativity == 4 {
            // SAFETY (both arms): the detection functions checked the CPU
            // supports every instruction the kernel's `target_feature`
            // attribute may emit.
            if x86::avx512_available() {
                return unsafe {
                    self.chunk_kernel_avx512::<HITS, EVICT>(
                        lines,
                        sets,
                        clock0,
                        hits_out,
                        evicted_out,
                    )
                };
            }
            if x86::avx2_available() {
                return unsafe {
                    self.chunk_kernel_avx2::<HITS, EVICT>(
                        lines,
                        sets,
                        clock0,
                        hits_out,
                        evicted_out,
                    )
                };
            }
        }
        self.chunk_portable::<HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out)
    }

    /// Scalar kernel entry, monomorphised on the associativity. Also the
    /// fallback when the SIMD path is unavailable.
    fn chunk_portable<const HITS: bool, const EVICT: bool>(
        &mut self,
        lines: &[u64],
        sets: &[u32],
        clock0: u64,
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        match self.config.associativity {
            1 => self.chunk_kernel::<1, HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out),
            2 => self.chunk_kernel::<2, HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out),
            4 => self.chunk_kernel::<4, HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out),
            8 => self.chunk_kernel::<8, HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out),
            _ => self.chunk_kernel::<0, HITS, EVICT>(lines, sets, clock0, hits_out, evicted_out),
        }
    }

    /// One chunk of the batched probe. `A` is the compile-time
    /// associativity (0 = use the runtime value; 1/2/4/8 fully unroll the
    /// way scans). The hit scan is branch-light: every way's
    /// valid-and-matching bit is computed unconditionally — at most one way
    /// can match, because a line is only ever installed when no way matched
    /// — and only the hit/miss decision itself branches. Misses take the
    /// scalar fixup: way-order min-stamp victim scan (invalid ways carry
    /// stamp 0 and lose to every valid stamp), install, per-set miss count.
    fn chunk_kernel<const A: usize, const HITS: bool, const EVICT: bool>(
        &mut self,
        lines: &[u64],
        sets: &[u32],
        clock0: u64,
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        let assoc = if A == 0 {
            self.config.associativity as usize
        } else {
            A
        };
        let tags = self.tags.as_mut_slice();
        let stamps = self.stamps.as_mut_slice();
        let misses_by_set = self.misses_by_set.as_mut_slice();
        let mut hits = 0u64;
        for (i, (&line, &set)) in lines.iter().zip(sets.iter()).enumerate() {
            let clock = clock0 + 1 + i as u64;
            let base = set as usize * assoc;
            let t = &mut tags[base..base + assoc];
            let s = &mut stamps[base..base + assoc];
            // Way-order min-stamp victim scan (invalid ways carry stamp 0
            // and lose to every valid stamp); compiles to a cmov chain for
            // const `A`.
            let mut way = 0usize;
            let mut victim_stamp = s[0];
            for (w, &sw) in s.iter().enumerate().skip(1) {
                if sw < victim_stamp {
                    victim_stamp = sw;
                    way = w;
                }
            }
            let victim_tag = t[way];
            // Branch-light hit scan: every way's valid-and-matching bit is
            // computed unconditionally (bitwise `&`, no short-circuit); at
            // most one way can match because a line is only installed when
            // no way matched.
            let mut hit = false;
            for (w, (&tw, &sw)) in t.iter().zip(s.iter()).enumerate() {
                let m = (sw != 0) & (tw == line);
                hit |= m;
                if m {
                    way = w;
                }
            }
            // Hit and miss share one unconditional install: on a hit,
            // `t[way]` already equals `line` (rewriting it is a no-op) and
            // the stamp store is exactly the LRU promotion; on a miss the
            // victim way takes the fill. No branch separates the paths.
            t[way] = line;
            s[way] = clock;
            hits += hit as u64;
            misses_by_set[set as usize] += !hit as u64;
            if HITS {
                hits_out[i] = hit;
            }
            if EVICT {
                evicted_out[i] = if !hit && victim_stamp != 0 {
                    victim_tag
                } else {
                    u64::MAX
                };
            }
        }
        hits
    }

    /// Per-element fallback for geometries whose set index overflows the
    /// u32 scratch. Semantics identical to the kernel path.
    fn batched_scalar_fallback<const HITS: bool, const EVICT: bool>(
        &mut self,
        lines: &[u64],
        hits_out: &mut [bool],
        evicted_out: &mut [u64],
    ) -> u64 {
        let mut hits = 0u64;
        for (i, &line) in lines.iter().enumerate() {
            let (hit, evicted) = self.access_reporting(line);
            hits += hit as u64;
            if HITS {
                hits_out[i] = hit;
            }
            if EVICT {
                evicted_out[i] = evicted.unwrap_or(u64::MAX);
            }
        }
        hits
    }
}

/// Set-extraction slice pass of the batched path: one `&` per line when the
/// set count is a power of two (the autovectorizable common case — the
/// paper L1i has 128 sets), one `%` otherwise. Hoisting this out of the
/// probe loop removes the per-access `size / (assoc × line)` and `line %
/// sets` divides `CacheConfig::set_of_line` performs.
fn extract_sets(num_sets: u64, lines: &[u64], out: &mut [u32]) {
    if num_sets.is_power_of_two() {
        let mask = num_sets - 1;
        for (o, &l) in out.iter_mut().zip(lines) {
            *o = (l & mask) as u32;
        }
    } else {
        for (o, &l) in out.iter_mut().zip(lines) {
            *o = (l % num_sets) as u32;
        }
    }
}

/// AVX2 probe kernel for 4-way caches. The only `unsafe` in the crate, and
/// it is confined to the vector loads/stores plus the feature-gated call
/// boundary; lane arithmetic uses the safe-in-`target_feature` intrinsics.
///
/// Why SIMD at all: the scalar kernel's victim/hit selection feeds the
/// *address* of the writeback stores (`s[way] = clock`), and a
/// data-dependent store address defeats the CPU's memory disambiguation —
/// successive accesses to the same set serialize on machine clears. Writing
/// the whole set back through a lane blend turns that into two fixed-address
/// 256-bit stores per access, which is also the minimum store-port traffic
/// (a full-set scalar writeback is 8 stores and saturates the store port).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SetAssocCache;
    use core::arch::x86_64::*;

    pub(super) fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    pub(super) fn avx512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }

    impl SetAssocCache {
        /// 4-way probe on AVX-512VL (256-bit encodings only, so no
        /// frequency-license concerns): same state transitions as the AVX2
        /// kernel, with two targeted AVX-512 substitutions — `vpminuq` for
        /// the compare/blend min emulation and `vpblendmq` (blend under a
        /// k-mask built from scalar bits) for the lane-index
        /// broadcast/compare/`vpblendvb` writeback select. Mask logic
        /// otherwise stays in general registers via `movmskpd`: an
        /// all-k-register formulation measured *slower* (k↔GPR bypass
        /// latency on the critical path), and so did k-masked stores (a
        /// masked store cannot store-forward to the next probe of the same
        /// set) — the writeback is a full 256-bit store at the set base,
        /// whose address does not depend on the probe outcome. The
        /// touched-lane mask is `hit ? hit_mask : lowest_bit(min_mask)` in
        /// scalar bit arithmetic; no lane index is materialised on the hot
        /// path.
        ///
        /// # Safety
        /// The CPU must support AVX-512F + AVX-512VL (callers gate on
        /// [`avx512_available`]).
        #[target_feature(enable = "avx512f,avx512vl")]
        pub(super) unsafe fn chunk_kernel_avx512<const HITS: bool, const EVICT: bool>(
            &mut self,
            lines: &[u64],
            sets: &[u32],
            clock0: u64,
            hits_out: &mut [bool],
            evicted_out: &mut [u64],
        ) -> u64 {
            debug_assert_eq!(self.config.associativity, 4);
            let n_slots = self.tags.len();
            let tags = self.tags.as_mut_ptr();
            let stamps = self.stamps.as_mut_ptr();
            let misses_by_set = self.misses_by_set.as_mut_slice();
            let zero = _mm256_setzero_si256();
            let mut hits = 0u64;
            for (i, (&line, &set)) in lines.iter().zip(sets.iter()).enumerate() {
                let clock = clock0 + 1 + i as u64;
                let base = set as usize * 4;
                debug_assert!(base + 4 <= n_slots);
                // SAFETY: `extract_sets` produced `set < num_sets`, so
                // `base + 4 <= num_sets * 4 = n_slots`; unaligned vector
                // loads/stores have no alignment requirement.
                let (tp, sp) = unsafe { (tags.add(base), stamps.add(base)) };
                let vt = unsafe { _mm256_loadu_si256(tp.cast()) };
                let vs = unsafe { _mm256_loadu_si256(sp.cast()) };
                let vline = _mm256_set1_epi64x(line as i64);
                // One-hot hit mask: tag matches and the way is valid.
                let invalid = _mm256_cmpeq_epi64(vs, zero);
                let vhit = _mm256_andnot_si256(invalid, _mm256_cmpeq_epi64(vt, vline));
                let hit_mask = _mm256_movemask_pd(_mm256_castsi256_pd(vhit)) as u32;
                // Unsigned min reduction; lowest lane equal to the minimum
                // is the victim (scalar way-order `<` scan tie-break).
                let m1 = _mm256_min_epu64(vs, _mm256_permute4x64_epi64::<0b1011_0001>(vs));
                let vmin = _mm256_min_epu64(m1, _mm256_permute4x64_epi64::<0b0100_1110>(m1));
                let min_mask =
                    _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(vs, vmin))) as u32;
                let hit = hit_mask != 0;
                let touched = if hit {
                    hit_mask
                } else {
                    min_mask & min_mask.wrapping_neg()
                } as __mmask8;
                // Writeback: blend the touched lane, store the whole set.
                let nt = _mm256_mask_blend_epi64(touched, vt, vline);
                let ns = _mm256_mask_blend_epi64(touched, vs, _mm256_set1_epi64x(clock as i64));
                // SAFETY: same in-bounds 4-lane destinations as the loads.
                // Inline asm rather than `_mm256_storeu_si256`: LLVM
                // strength-reduces `store(blend(load(p), x, k), p)` back
                // into a k-masked store, and masked stores cannot
                // store-forward to the next probe of the same set.
                unsafe {
                    core::arch::asm!(
                        "vmovdqu ymmword ptr [{tp}], {nt}",
                        "vmovdqu ymmword ptr [{sp}], {ns}",
                        tp = in(reg) tp,
                        sp = in(reg) sp,
                        nt = in(ymm_reg) nt,
                        ns = in(ymm_reg) ns,
                        options(nostack, preserves_flags),
                    );
                }
                hits += hit as u64;
                // SAFETY: `set < num_sets`, the length of `misses_by_set`.
                unsafe {
                    *misses_by_set.get_unchecked_mut(set as usize) += !hit as u64;
                }
                if HITS {
                    hits_out[i] = hit;
                }
                if EVICT {
                    let victim_stamp = _mm_cvtsi128_si64(_mm256_castsi256_si128(vmin)) as u64;
                    let victim = (min_mask & min_mask.wrapping_neg()).trailing_zeros() as usize;
                    let mut set_tags = [0u64; 4];
                    // SAFETY: 4-element stack array matches the vector width.
                    unsafe { _mm256_storeu_si256(set_tags.as_mut_ptr().cast(), vt) };
                    evicted_out[i] = if !hit && victim_stamp != 0 {
                        set_tags[victim]
                    } else {
                        u64::MAX
                    };
                }
            }
            hits
        }

        /// One chunk of the batched probe, 4-way geometry, plain AVX2 (the
        /// tier for x86-64 hosts without AVX-512VL). Bit-for-bit the same
        /// state transitions and outputs as the scalar
        /// `chunk_kernel::<4, _, _>`:
        ///
        /// - hit mask = `tag == line && stamp != 0` per lane; at most one
        ///   lane can be set (a line is only installed when no lane matched);
        /// - victim = lowest lane index holding the minimum stamp, which is
        ///   exactly the scalar way-order `<` min scan (invalid ways carry
        ///   stamp 0 and sort first); stamps are clock values `< 2^63`, so
        ///   the signed 64-bit compare AVX2 offers orders them correctly;
        /// - hit and miss share one unconditional writeback: blend
        ///   `line`/`clock` into the touched lane and store the whole set.
        ///
        /// # Safety
        /// The CPU must support AVX2 (callers gate on [`avx2_available`]).
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn chunk_kernel_avx2<const HITS: bool, const EVICT: bool>(
            &mut self,
            lines: &[u64],
            sets: &[u32],
            clock0: u64,
            hits_out: &mut [bool],
            evicted_out: &mut [u64],
        ) -> u64 {
            debug_assert_eq!(self.config.associativity, 4);
            let tags = self.tags.as_mut_slice();
            let stamps = self.stamps.as_mut_slice();
            let misses_by_set = self.misses_by_set.as_mut_slice();
            let lane_idx = _mm256_setr_epi64x(0, 1, 2, 3);
            let zero = _mm256_setzero_si256();
            let mut hits = 0u64;
            for (i, (&line, &set)) in lines.iter().zip(sets.iter()).enumerate() {
                let clock = clock0 + 1 + i as u64;
                let base = set as usize * 4;
                let t = &mut tags[base..base + 4];
                let s = &mut stamps[base..base + 4];
                // SAFETY: `t`/`s` are in-bounds 4-element u64 slices;
                // unaligned loads have no alignment requirement.
                let vt = unsafe { _mm256_loadu_si256(t.as_ptr().cast()) };
                let vs = unsafe { _mm256_loadu_si256(s.as_ptr().cast()) };
                let vline = _mm256_set1_epi64x(line as i64);
                // Hit lane: tag matches and the way is valid (stamp != 0).
                let invalid = _mm256_cmpeq_epi64(vs, zero);
                let vhit = _mm256_andnot_si256(invalid, _mm256_cmpeq_epi64(vt, vline));
                let hit_mask = _mm256_movemask_pd(_mm256_castsi256_pd(vhit)) as u32;
                // Min-stamp reduction: two swap/min rounds leave the global
                // minimum in every lane; the victim is the lowest lane that
                // equals it (ties resolve to the lowest way, like the scalar
                // `<` scan).
                let sw1 = _mm256_permute4x64_epi64::<0b1011_0001>(vs); // [1,0,3,2]
                let m1 = _mm256_blendv_epi8(sw1, vs, _mm256_cmpgt_epi64(sw1, vs));
                let sw2 = _mm256_permute4x64_epi64::<0b0100_1110>(m1); // [2,3,0,1]
                let vmin = _mm256_blendv_epi8(sw2, m1, _mm256_cmpgt_epi64(sw2, m1));
                let min_mask =
                    _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(vs, vmin))) as u32;
                let victim = min_mask.trailing_zeros() as i64;
                let hit = hit_mask != 0;
                let way = if hit {
                    hit_mask.trailing_zeros() as i64
                } else {
                    victim
                };
                // Unconditional shared writeback: blend the touched lane
                // (install on miss; tag-rewrite no-op plus LRU promotion on
                // hit) and store the whole set at a fixed address.
                let touched = _mm256_cmpeq_epi64(lane_idx, _mm256_set1_epi64x(way));
                let nt = _mm256_blendv_epi8(vt, vline, touched);
                let ns = _mm256_blendv_epi8(vs, _mm256_set1_epi64x(clock as i64), touched);
                // SAFETY: same in-bounds slices as the loads above.
                unsafe {
                    _mm256_storeu_si256(t.as_mut_ptr().cast(), nt);
                    _mm256_storeu_si256(s.as_mut_ptr().cast(), ns);
                }
                hits += hit as u64;
                misses_by_set[set as usize] += !hit as u64;
                if HITS {
                    hits_out[i] = hit;
                }
                if EVICT {
                    let victim_stamp = _mm_cvtsi128_si64(_mm256_castsi256_si128(vmin)) as u64;
                    let mut set_tags = [0u64; 4];
                    // SAFETY: 4-element stack array matches the vector width.
                    unsafe { _mm256_storeu_si256(set_tags.as_mut_ptr().cast(), vt) };
                    evicted_out[i] = if !hit && victim_stamp != 0 {
                        set_tags[victim as usize]
                    } else {
                        u64::MAX
                    };
                }
            }
            hits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        SetAssocCache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lines_map_to_alternating_sets() {
        let mut c = tiny();
        // Lines 0 and 2 share set 0; line 1 goes to set 1.
        c.access(0);
        c.access(1);
        c.access(2);
        assert!(c.probe(0));
        assert!(c.probe(1));
        assert!(c.probe(2));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set 0 has 2 ways; lines 0, 2, 4 all map to it.
        c.access(0);
        c.access(2);
        c.access(0); // 0 most recent; 2 is LRU
        c.access(4); // evicts 2
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert!(c.probe(4));
    }

    #[test]
    fn conflict_thrashing_detected() {
        // Three lines in a 2-way set accessed round-robin: every access
        // after warm-up misses (classic conflict pattern the TRG model
        // exists to avoid).
        let mut c = tiny();
        for _ in 0..10 {
            for line in [0u64, 2, 4] {
                c.access(line);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, s.accesses, "LRU thrashes on 3-way conflict");
    }

    #[test]
    fn fully_associative_behaviour_when_one_set() {
        let c = CacheConfig::new(256, 4, 64); // 1 set × 4 ways
        let mut cache = SetAssocCache::new(c);
        for line in 0..4u64 {
            cache.access(line);
        }
        for line in 0..4u64 {
            assert!(cache.access(line), "working set of 4 fits");
        }
    }

    #[test]
    fn install_does_not_count_stats() {
        let mut c = tiny();
        c.install(7);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(7), "installed line hits on demand access");
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0);
        c.access(2);
        // Probing 0 must not promote it.
        assert!(c.probe(0));
        c.access(4); // evicts LRU = 0
        assert!(!c.probe(0));
        assert!(c.probe(2));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn per_set_misses_attribute_to_the_conflicting_set() {
        let mut c = tiny();
        // Thrash set 0 (lines 0, 2, 4); touch set 1 once (line 1).
        for _ in 0..5 {
            for line in [0u64, 2, 4] {
                c.access(line);
            }
        }
        c.access(1);
        let per_set = c.misses_by_set();
        assert_eq!(per_set.len(), 2);
        assert_eq!(per_set[0], 15, "every set-0 access misses");
        assert_eq!(per_set[1], 1, "set 1 sees only its cold miss");
        assert_eq!(per_set.iter().sum::<u64>(), c.stats().misses);
        c.flush();
        assert!(c.misses_by_set().iter().all(|&m| m == 0));
    }

    #[test]
    fn install_does_not_count_per_set_misses() {
        let mut c = tiny();
        c.install(0);
        assert_eq!(c.misses_by_set().iter().sum::<u64>(), 0);
    }

    #[test]
    fn access_reporting_matches_access_and_reports_victims() {
        let mut plain = tiny();
        let mut reporting = tiny();
        // Set 0 holds lines {0, 2, 4, ...}: force evictions and compare.
        let stream = [0u64, 2, 0, 4, 2, 0, 4, 1, 3, 1];
        for &l in &stream {
            let hit = plain.access(l);
            let (rhit, _) = reporting.access_reporting(l);
            assert_eq!(hit, rhit, "line {}", l);
        }
        assert_eq!(plain.stats(), reporting.stats());
        assert_eq!(plain.misses_by_set(), reporting.misses_by_set());
        // Cold fill reports no victim; a conflict eviction reports the LRU line.
        let mut c = tiny();
        assert_eq!(c.access_reporting(0), (false, None));
        assert_eq!(c.access_reporting(2), (false, None));
        assert_eq!(c.access_reporting(4), (false, Some(0)), "0 is LRU");
        assert_eq!(c.access_reporting(2), (true, None));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0), "contents survive reset_stats");
    }

    #[test]
    fn paper_config_capacity_behaviour() {
        // 512 distinct lines fill the paper's 32 KB cache exactly; cycling
        // through 512 lines twice yields 512 cold misses then all hits.
        let mut c = SetAssocCache::new(CacheConfig::paper_l1i());
        for line in 0..512u64 {
            c.access(line);
        }
        for line in 0..512u64 {
            assert!(c.access(line));
        }
        assert_eq!(c.stats().misses, 512);
    }

    /// The array-of-structs implementation the flat layout replaced, kept
    /// as a differential oracle: identical hits, stats, and per-set miss
    /// attribution on arbitrary access streams.
    #[derive(Clone, Copy)]
    struct RefWay {
        tag: u64,
        lru: u64,
        valid: bool,
    }

    struct RefCache {
        config: CacheConfig,
        ways: Vec<RefWay>,
        clock: u64,
        stats: CacheStats,
        misses_by_set: Vec<u64>,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            let slots = (config.num_sets() * config.associativity as u64) as usize;
            RefCache {
                config,
                ways: vec![
                    RefWay {
                        tag: 0,
                        lru: 0,
                        valid: false
                    };
                    slots
                ],
                clock: 0,
                stats: CacheStats::default(),
                misses_by_set: vec![0; config.num_sets() as usize],
            }
        }

        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            let set = self.config.set_of_line(line) as usize;
            let assoc = self.config.associativity as usize;
            let ways = &mut self.ways[set * assoc..(set + 1) * assoc];
            let mut hit = false;
            for w in ways.iter_mut() {
                if w.valid && w.tag == line {
                    w.lru = self.clock;
                    hit = true;
                    break;
                }
            }
            if !hit {
                let victim = ways
                    .iter_mut()
                    .min_by_key(|w| if w.valid { w.lru } else { 0 })
                    .expect("associativity >= 1");
                victim.tag = line;
                victim.lru = self.clock;
                victim.valid = true;
                self.misses_by_set[set] += 1;
            }
            self.stats.record(hit);
            hit
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The batched entry points must be bit-identical to per-element
    /// `access_reporting`: same hits, same victims, same stats, same
    /// per-set miss counts — across geometries (which exercises both the
    /// monomorphised scalar kernels and, on hosts that have it, the AVX2
    /// 4-way kernel) and across batch lengths that straddle chunk
    /// boundaries.
    #[test]
    fn batched_matches_scalar_oracle() {
        for seed in 0..24u64 {
            let mut next = xorshift(seed);
            let assoc = 1u64 << (seed % 4);
            let sets = [1u64, 2, 128, 5][(seed as usize / 4) % 4];
            let cfg = CacheConfig::new(sets * assoc * 64, assoc as u32, 64);
            let universe = (4 * sets * assoc).max(4);
            let len =
                [1usize, 7, BATCH_LINES - 1, BATCH_LINES, 2 * BATCH_LINES + 3][seed as usize % 5];
            let lines: Vec<u64> = (0..len).map(|_| next() % universe).collect();

            let mut scalar = SetAssocCache::new(cfg);
            let mut want_hits = vec![false; len];
            let mut want_evicted = vec![0u64; len];
            let mut want_hit_count = 0u64;
            for (i, &l) in lines.iter().enumerate() {
                let (hit, ev) = scalar.access_reporting(l);
                want_hits[i] = hit;
                want_evicted[i] = ev.unwrap_or(u64::MAX);
                want_hit_count += hit as u64;
            }

            let mut batched = SetAssocCache::new(cfg);
            let mut got_hits = vec![false; len];
            let mut got_evicted = vec![0u64; len];
            let got = batched.access_batch_reporting(&lines, &mut got_hits, &mut got_evicted);
            assert_eq!(got, want_hit_count, "seed {}", seed);
            assert_eq!(got_hits, want_hits, "seed {}", seed);
            assert_eq!(got_evicted, want_evicted, "seed {}", seed);
            assert_eq!(batched.stats(), scalar.stats(), "seed {}", seed);
            assert_eq!(
                batched.misses_by_set(),
                scalar.misses_by_set(),
                "seed {}",
                seed
            );
            assert_eq!(batched.tags, scalar.tags, "seed {}", seed);
            assert_eq!(batched.stamps, scalar.stamps, "seed {}", seed);
            assert_eq!(batched.clock, scalar.clock, "seed {}", seed);

            // The plain-count entry point agrees too, and the cache can keep
            // going scalar afterwards (shared clock/state).
            let mut plain = SetAssocCache::new(cfg);
            assert_eq!(plain.access_batch(&lines), want_hit_count, "seed {}", seed);
            let tail = next() % universe;
            assert_eq!(plain.access(tail), batched.access(tail), "seed {}", seed);
        }
    }

    /// Pin the SIMD kernels against the portable kernel directly (not just
    /// through dispatch): identical state, hit counts, and per-element
    /// outputs on a thrash-heavy 4-way stream.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_kernels_match_portable_kernel() {
        let cfg = CacheConfig::paper_l1i();
        let mut next = xorshift(7);
        let lines: Vec<u64> = (0..1024).map(|_| next() % 700).collect();
        let mut sets = vec![0u32; lines.len()];
        extract_sets(cfg.num_sets(), &lines, &mut sets);

        let mut portable = SetAssocCache::new(cfg);
        let (mut ph, mut pe) = (vec![false; lines.len()], vec![0u64; lines.len()]);
        let p_hits = portable.chunk_portable::<true, true>(&lines, &sets, 0, &mut ph, &mut pe);
        assert!(pe.iter().any(|&e| e != u64::MAX), "stream must evict");
        assert!(ph.iter().any(|&h| h), "stream must hit");

        let check = |name: &str, simd: SetAssocCache, s_hits: u64, sh: &[bool], se: &[u64]| {
            assert_eq!(p_hits, s_hits, "{name}");
            assert_eq!(ph, sh, "{name}");
            assert_eq!(pe, se, "{name}");
            assert_eq!(portable.tags, simd.tags, "{name}");
            assert_eq!(portable.stamps, simd.stamps, "{name}");
            assert_eq!(portable.misses_by_set(), simd.misses_by_set(), "{name}");
        };
        if super::x86::avx2_available() {
            let mut simd = SetAssocCache::new(cfg);
            let (mut sh, mut se) = (vec![false; lines.len()], vec![0u64; lines.len()]);
            // SAFETY: guarded by `avx2_available` above.
            let s_hits =
                unsafe { simd.chunk_kernel_avx2::<true, true>(&lines, &sets, 0, &mut sh, &mut se) };
            check("avx2", simd, s_hits, &sh, &se);
        }
        if super::x86::avx512_available() {
            let mut simd = SetAssocCache::new(cfg);
            let (mut sh, mut se) = (vec![false; lines.len()], vec![0u64; lines.len()]);
            // SAFETY: guarded by `avx512_available` above.
            let s_hits = unsafe {
                simd.chunk_kernel_avx512::<true, true>(&lines, &sets, 0, &mut sh, &mut se)
            };
            check("avx512", simd, s_hits, &sh, &se);
        }
    }

    #[test]
    fn flat_layout_matches_aos_reference() {
        for seed in 0..40u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Vary geometry: 1–8 ways × 1–8 sets × 64 B lines.
            let assoc = 1u64 << (seed % 4);
            let sets = 1u64 << ((seed / 4) % 4);
            let bytes = sets * assoc * 64;
            let cfg = CacheConfig::new(bytes, assoc as u32, 64);
            let mut flat = SetAssocCache::new(cfg);
            let mut aos = RefCache::new(cfg);
            let universe = 4 * bytes / 64; // 4× capacity → plenty of evictions
            let universe = universe.max(4);
            for _ in 0..4000 {
                let line = next() % universe;
                assert_eq!(
                    flat.access(line),
                    aos.access(line),
                    "seed {} line {}",
                    seed,
                    line
                );
            }
            assert_eq!(flat.stats().accesses, aos.stats.accesses, "seed {}", seed);
            assert_eq!(flat.stats().misses, aos.stats.misses, "seed {}", seed);
            assert_eq!(
                flat.misses_by_set(),
                &aos.misses_by_set[..],
                "seed {}",
                seed
            );
        }
    }
}
