//! Shard-parallel w-window affinity measurement.
//!
//! The affinity analysis is a stream computation whose per-event work
//! depends only on the `w_max + 1` most recently used distinct blocks (the
//! walk). [`measure_region`] runs the one-pass analyzer over one
//! [`Shard`]: the backward overlap replays recency state, the core
//! attributes occurrences, and the forward extension resolves core
//! occurrences whose first partner access falls just past the core.
//! [`measure_jobs`] fans the regions over the worker pool and merges with
//! order-independent reductions, so the result is bit-identical for any
//! worker count.
//!
//! **Merge exactness.** Each shard reports, per pair and per direction, the
//! *max credited footprint* and the *count of credited occurrences*. Every
//! occurrence is attributed to exactly one core, and the overlap rules
//! guarantee the shard credits it with exactly the value a global pass
//! would (see the module docs in `clop_trace::shard` and DESIGN.md §10):
//!
//! * a finite forward witness `fp<p, q> <= w_max` implies the resolving
//!   partner access `q` lies within the forward extension (the window
//!   anchored at the last core event is contained in the one anchored at
//!   `p`), so the shard observes it;
//! * an infinite forward witness stays infinite as the window grows, so
//!   crediting the backward witness at shard end matches the global pass;
//! * the backward overlap (`w_max + 1` distinct blocks) makes the shard's
//!   walk — and hence every footprint read off it — exact for all core and
//!   extension positions.
//!
//! The merge is then `max` of thresholds and `sum` of credit counts; a pair
//! survives iff every occurrence of both blocks was credited (the counting
//! formulation of Definition 3's "every occurrence" quantifier — an
//! occurrence with no partner occurrence within the window is credited
//! nowhere, and the sum falls short of the trace-wide occurrence count).

use crate::analyzer::PairThresholds;
use crate::incremental::{AffinityDelta, AffinityState};
use clop_trace::shard::{shards_adaptive, Shard};
use clop_trace::TrimmedTrace;
use clop_util::pool::parallel_map;
use clop_util::FxHashMap;

/// Per-shard, per-pair report: max credited footprint plus per-direction
/// credited-occurrence counts (lower block, higher block).
pub(crate) type ShardPairs = FxHashMap<(u32, u32), (u32, u64, u64)>;

/// Pendings of one direction at consecutive occurrence-list indices
/// `k0..k1`, all with backward witness `bw`.
#[derive(Clone, Copy, Debug)]
struct Run {
    k0: u32,
    k1: u32,
    bw: u32,
}

/// Resolution state for one direction (one block's occurrences) of a pair.
///
/// Occurrence positions live in the block's append-only occurrence list;
/// the direction keeps a cursor `next` into it and its *pendings* — the
/// un-examined occurrences with a finite backward witness — as runs of
/// list indices sharing one witness. An examination (a partner access)
/// resolves all of `list[next..]` in one pass over the runs, using four
/// facts:
///
/// * **Where runs sit.** Pending indices lie in `next..len`. Within one
///   partner epoch (between two accesses of the partner) the pendings are
///   the block's first occurrences of the epoch — the partner only sinks
///   down the walk until its next access — so they are consecutive, with a
///   backward witness that never decreases. A hot block that keeps seeing
///   a stale partner at the same depth extends one run instead of storing
///   one entry per occurrence.
/// * **Forward witness.** The forward footprint of an in-window occurrence
///   (walk entries at or after it) never increases with position, so a
///   run's best in-window member is its first one at or after
///   `b = next + in_win`, the first in-window index; a run starting before
///   `b` credits its backward witness outright.
/// * **Uncovered occurrences.** The best uncovered in-window occurrence is
///   the first index `g` no run covers. `g < b` means an out-of-window
///   occurrence with neither witness: the pair can never survive.
/// * **Credit count.** Otherwise every un-examined occurrence is credited
///   a finite footprint, so the direction credits `len - next`.
#[derive(Clone, Debug)]
struct DirState {
    /// Pending runs, ordered and disjoint, all within `next..len`.
    runs: Vec<Run>,
    /// Cursor into the block's occurrence list: entries before it are
    /// resolved (credited, or provably never creditable).
    next: u32,
    /// Max footprint credited so far.
    thr: u32,
    /// Number of occurrences credited (each with a finite footprint).
    fin: u32,
}

impl DirState {
    fn new() -> Self {
        DirState {
            runs: Vec::new(),
            next: 0,
            thr: 0,
            fin: 0,
        }
    }

    /// Record occurrence-list index `k` as pending with backward witness
    /// `bw`, extending the newest run when it continues it.
    fn push(&mut self, k: u32, bw: u32) {
        match self.runs.last_mut() {
            Some(r) if r.bw == bw && r.k1 == k => r.k1 += 1,
            _ => self.runs.push(Run {
                k0: k,
                k1: k + 1,
                bw,
            }),
        }
    }
}

#[derive(Clone, Debug)]
struct PairState {
    lo: DirState,
    hi: DirState,
}

impl PairState {
    fn new() -> Self {
        PairState {
            lo: DirState::new(),
            hi: DirState::new(),
        }
    }
}

/// Pair-state table: a dense rank×rank index when the trace's distinct
/// block count is small (one array load per partner interaction instead of
/// a hash probe on the hot path), a hash map otherwise. Values are
/// `state index + 1`; 0 means absent and [`DEAD`] marks a killed pair.
const DENSE_PAIR_MAX: usize = 1024;

/// Pair-table sentinel for a pair with an *uncovered* occurrence — one
/// whose partner never comes within the window in either direction. The
/// final filter requires every occurrence of both blocks to be credited,
/// so such a pair can never survive: all further maintenance for it is
/// skipped, reducing each interaction to one table load. Skipping only
/// withholds credits (never adds them), so the merged counts still fall
/// short of the trace-wide occurrence totals for every worker count and
/// the pair is filtered identically regardless of sharding.
const DEAD: u32 = u32::MAX;

/// Run the one-pass analyzer over one shard of the trace.
///
/// Per access `a` at position `now`, the walk holds the `w_max + 1` most
/// recently used blocks with their last-access positions. Each partner `x`
/// at walk depth `1..w_max` interacts with the pair `(a, x)`:
///
/// 1. `a` is the first partner access after every un-examined occurrence
///    of `x`, so the `x` direction resolves them all (see [`DirState`]):
///    out-of-window occurrences have an infinite forward witness now and
///    forever (windows only grow) and credit their backward witness, or
///    kill the pair when they have none; in-window occurrences credit
///    `min(backward, forward)`, Definition 3's per-occurrence minimum,
///    whose max is read off the first member of each run and the first
///    uncovered occurrence.
/// 2. The current occurrence of `a` becomes pending with backward witness
///    `depth(x) + 1`.
///
/// Occurrences whose partner never comes within the window in either
/// direction are credited nowhere, which the caller detects by counting.
///
/// `rank` maps block ids to dense heat ranks (`nd` of them);
/// it only steers internal indexing and cannot affect results.
pub(crate) fn measure_region(
    trace: &TrimmedTrace,
    w_max: u32,
    cap: usize,
    rank: &[u32],
    nd: usize,
    sh: Shard,
) -> ShardPairs {
    let (keys, states) = scan_region(trace, w_max, cap, rank, nd, sh);
    // Shard end: surviving pendings never saw an in-window partner access;
    // the forward extension is maximal, so their global forward witness is
    // infinite too and the backward witness is exact.
    let mut out = ShardPairs::default();
    for ((lo, hi), mut st) in keys.into_iter().zip(states) {
        for dir in [&mut st.lo, &mut st.hi] {
            for r in std::mem::take(&mut dir.runs) {
                dir.thr = dir.thr.max(r.bw);
                dir.fin += r.k1 - r.k0;
            }
        }
        let thr = st.lo.thr.max(st.hi.thr);
        // Pairs whose co-residence fell entirely in the overlap carry no
        // credits here; the shard owning the occurrences reports them.
        if thr > 0 {
            out.insert((lo, hi), (thr, u64::from(st.lo.fin), u64::from(st.hi.fin)));
        }
    }
    out
}

/// The stack pass of [`measure_region`]: pair keys (lower id first) and
/// their states, with the pendings still open at shard end.
fn scan_region(
    trace: &TrimmedTrace,
    w_max: u32,
    cap: usize,
    rank: &[u32],
    nd: usize,
    sh: Shard,
) -> (Vec<(u32, u32)>, Vec<PairState>) {
    let ev = trace.events();
    let walk_len = w_max as usize + 1;
    // Per-block core-occurrence positions, append-only. Directions index
    // into these with their `next` cursor and runs; nothing is ever
    // pruned, so the indices stay valid.
    let mut occ: Vec<Vec<u32>> = vec![Vec::new(); cap];
    // The walk — the `walk_len` most recently used distinct blocks with
    // their last-access positions, most recent first — is maintained
    // directly as two parallel contiguous arrays: truncated LRU promotion
    // is exact for the top `k` entries, and an 84-byte rotate beats
    // enumerating a linked recency list every access.
    let mut walk_blocks: Vec<u32> = Vec::with_capacity(walk_len);
    let mut walk_times: Vec<u32> = Vec::with_capacity(walk_len);

    let dense = nd <= DENSE_PAIR_MAX;
    // Triangular packing: half the footprint of a square matrix, and the
    // hottest pairs (both ranks small) cluster at the front.
    let tri = |ra: usize, rx: usize| {
        let (lo, hi) = if ra < rx { (ra, rx) } else { (rx, ra) };
        lo * nd - lo * (lo + 1) / 2 + hi
    };
    let mut idx: Vec<u32> = if dense {
        vec![0; nd * (nd + 1) / 2]
    } else {
        Vec::new()
    };
    let mut idx_map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut states: Vec<PairState> = Vec::new();
    let mut keys: Vec<(u32, u32)> = Vec::new();

    // A block occurrence older than the window start can never be credited
    // by a pair created now: it has no pending for this pair (the pair did
    // not exist — had the partner been within the window at that access,
    // the pair would have been created then) and the window start only
    // moves forward, so its forward witness is infinite for good. A pair
    // born with such an occurrence on either side is dead on arrival.
    let born_dead = |occ: &[Vec<u32>], b: u32, wstart: u32| {
        occ[b as usize].first().is_some_and(|&p| p < wstart)
    };

    // The index IS the trace position (`now`, window arithmetic), not just
    // a subscript; an enumerate/skip chain would bury that.
    #[allow(clippy::needless_range_loop)]
    for t in sh.start..sh.end {
        let a = ev[t];
        let ai = a.0;
        let now = t as u32;
        // Promote `a` to the front of the walk. If `a` sits below the
        // truncation depth it is indistinguishable from unseen: either way
        // the other entries shift down one slot and the deepest falls off.
        let d = match walk_blocks.iter().position(|&b| b == ai) {
            Some(d) => d,
            None => {
                if walk_blocks.len() < walk_len {
                    walk_blocks.push(0);
                    walk_times.push(0);
                }
                walk_blocks.len() - 1
            }
        };
        walk_blocks.copy_within(0..d, 1);
        walk_times.copy_within(0..d, 1);
        walk_blocks[0] = ai;
        walk_times[0] = now;
        if t < sh.core_start {
            continue; // warm-up: recency state only
        }
        let in_core = t < sh.core_end;
        // Occurrence-list index this access gets (if in the core).
        let ak = occ[a.index()].len() as u32;

        // First position still inside the walk window: a window starting
        // earlier holds more than w_max distinct blocks, so any footprint
        // read from it is infinite (beyond the bound). When the walk is
        // not yet full every position since the trace start is in window.
        let wstart = if walk_times.len() == walk_len {
            walk_times[walk_len - 1] + 1
        } else {
            0
        };

        let ra = rank[ai as usize] as usize;
        let plimit = walk_blocks.len().min(w_max as usize);
        // The depth `i` is the backward-witness footprint, not just a
        // subscript into the walk.
        #[allow(clippy::needless_range_loop)]
        for i in 1..plimit {
            let xi = walk_blocks[i];
            let cell = if dense {
                tri(ra, rank[xi as usize] as usize)
            } else {
                0
            };
            let raw = if dense {
                idx[cell]
            } else {
                let key = (ai.min(xi), ai.max(xi));
                idx_map.get(&key).copied().unwrap_or(0)
            };
            if raw == DEAD {
                continue;
            }
            let si = if raw == 0 {
                if born_dead(&occ, ai, wstart) || born_dead(&occ, xi, wstart) {
                    if dense {
                        idx[cell] = DEAD;
                    } else {
                        idx_map.insert((ai.min(xi), ai.max(xi)), DEAD);
                    }
                    continue;
                }
                states.push(PairState::new());
                keys.push((ai.min(xi), ai.max(xi)));
                let si = states.len();
                if dense {
                    idx[cell] = si as u32;
                } else {
                    idx_map.insert((ai.min(xi), ai.max(xi)), si as u32);
                }
                si
            } else {
                raw as usize
            };
            let st = &mut states[si - 1];
            let xdir = if ai < xi { &mut st.hi } else { &mut st.lo };
            let list = &occ[xi as usize];
            // Fast path: no occurrence of x since the last examination —
            // nothing to resolve (runs lie in `next..len`).
            if (xdir.next as usize) < list.len() {
                let tail = &list[xdir.next as usize..];
                // Reverse scan: the in-window suffix is typically short and
                // freshly written, while the out-of-window prefix can be
                // long and cold.
                let mut in_win = tail.len();
                while in_win > 0 && tail[in_win - 1] >= wstart {
                    in_win -= 1;
                }
                let b = xdir.next + in_win as u32;
                // The runs are ordered and disjoint: the first uncovered
                // index ends the chain of adjacent runs from `next`.
                let mut g = xdir.next;
                for r in &xdir.runs {
                    if r.k0 != g {
                        break;
                    }
                    g = r.k1;
                }
                if g < b {
                    if dense {
                        idx[cell] = DEAD;
                    } else {
                        idx_map.insert((ai.min(xi), ai.max(xi)), DEAD);
                    }
                    continue;
                }
                // A saturated direction (credits never exceed w_max) only
                // counts coverage.
                if xdir.thr < w_max {
                    // The walk times are descending, so this branchless
                    // (auto-vectorized) count over the tiny L1-resident
                    // array equals the partition index.
                    let fw = |k: u32| -> u32 {
                        let p = list[k as usize];
                        walk_times.iter().map(|&tt| u32::from(tt >= p)).sum()
                    };
                    let mut best = xdir.thr;
                    for r in &xdir.runs {
                        if r.k0 < b {
                            best = best.max(r.bw);
                        } else if r.bw > best {
                            best = best.max(r.bw.min(fw(r.k0)));
                        }
                    }
                    if (g as usize) < list.len() {
                        best = best.max(fw(g));
                    }
                    xdir.thr = best;
                }
                xdir.fin += tail.len() as u32;
                xdir.runs.clear();
                xdir.next = list.len() as u32;
            }
            // The current occurrence of `a`: partner x at walk depth i
            // means a backward witness of footprint i + 1 <= w_max.
            if in_core {
                let adir = if ai < xi { &mut st.lo } else { &mut st.hi };
                adir.push(ak, i as u32 + 1);
            }
        }

        if in_core {
            occ[a.index()].push(now);
        }
    }
    (keys, states)
}

/// Dense heat ranks over a trace: `(cap, rank, nd)` where `cap` is the
/// dense-array capacity (max id + 1), `rank[id]` maps a block to its heat
/// rank (hottest first, ties by id), and `nd` is the distinct-block count.
/// Ranks only steer internal indexing — the hot pairs then live in a small
/// corner of the rank×rank pair table that stays cache-resident — and
/// cannot affect results, which are keyed by block id.
pub(crate) fn heat_ranks(trace: &TrimmedTrace) -> (usize, Vec<u32>, usize) {
    let cap = trace
        .events()
        .iter()
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0);
    let counts = trace.occurrence_counts();
    let mut by_heat: Vec<u32> = (0..cap as u32)
        .filter(|&b| counts[b as usize] > 0)
        .collect();
    by_heat.sort_unstable_by_key(|&b| (std::cmp::Reverse(counts[b as usize]), b));
    let nd = by_heat.len();
    let mut rank = vec![0u32; cap];
    for (r, &b) in by_heat.iter().enumerate() {
        rank[b as usize] = r as u32;
    }
    (cap, rank, nd)
}

/// Measure pairwise thresholds with the trace split into adaptively sized
/// shards (at most `jobs`) processed on the worker pool. Bit-identical to
/// a single sequential pass for any `jobs` value.
///
/// The multi-shard path is the incremental fold: each shard produces an
/// [`AffinityDelta`], the deltas are absorbed into an [`AffinityState`],
/// and `finalize` applies the Definition 3 coverage filter — the same
/// machinery the streaming path uses. A single region (the sequential
/// case, and any trace too small for adaptive sharding to split) applies
/// the coverage filter directly against the trace-wide occurrence counts,
/// skipping the delta round trip; the fold's equivalence to this path is
/// pinned by the property suites.
pub(crate) fn measure_jobs(trace: &TrimmedTrace, w_max: u32, jobs: usize) -> PairThresholds {
    let w_max = w_max.max(2);
    let (cap, rank, nd) = heat_ranks(trace);
    let regions = shards_adaptive(trace, jobs, w_max as usize + 1, w_max as usize);
    if let [sh] = regions.as_slice() {
        let reported = measure_region(trace, w_max, cap, &rank, nd, *sh);
        let counts = trace.occurrence_counts();
        let mut map = FxHashMap::default();
        for ((lo, hi), (thr, fin_lo, fin_hi)) in reported {
            if thr >= 2 && fin_lo == counts[lo as usize] && fin_hi == counts[hi as usize] {
                map.insert((lo, hi), thr);
            }
        }
        return PairThresholds::from_parts(map, w_max);
    }
    let deltas = parallel_map(jobs, regions, |i, sh| {
        AffinityDelta::of_region(i as u64, trace, w_max, cap, &rank, nd, sh)
    });
    let mut state = AffinityState::new(w_max);
    for d in &deltas {
        // Cannot fail: the deltas share `w_max` and carry distinct seqs.
        let _ = state.absorb(d);
    }
    state.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::shard::shards;
    use clop_trace::BlockId;

    fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
        let mut r = rng(seed);
        TrimmedTrace::from_indices((0..len).map(|_| r(u64::from(blocks)) as u32))
    }

    fn sorted_pairs(p: &PairThresholds) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = p.pairs().map(|(x, y, t)| (x.0, y.0, t)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn sharded_measure_is_bit_identical_for_any_jobs() {
        for seed in 0..24u64 {
            let t = random_trace(seed, 400, 12);
            let reference = measure_jobs(&t, 6, 1);
            for jobs in [2usize, 3, 5, 8, 64] {
                let sharded = measure_jobs(&t, 6, jobs);
                assert_eq!(
                    sorted_pairs(&reference),
                    sorted_pairs(&sharded),
                    "seed {} jobs {}",
                    seed,
                    jobs
                );
            }
        }
    }

    #[test]
    fn sharded_measure_matches_naive_oracle() {
        for seed in 0..8u64 {
            let t = random_trace(seed.wrapping_add(100), 220, 9);
            let w_max = 5u32;
            for jobs in [1usize, 3, 7] {
                let eff = measure_jobs(&t, w_max, jobs);
                for x in 0..9u32 {
                    for y in (x + 1)..9u32 {
                        let exact = crate::naive::pair_threshold(&t, BlockId(x), BlockId(y))
                            .filter(|&v| v <= w_max);
                        assert_eq!(
                            eff.get(BlockId(x), BlockId(y)),
                            exact,
                            "seed {} jobs {} pair ({}, {})",
                            seed,
                            jobs,
                            x,
                            y
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_traces_shard_cleanly() {
        for ids in [vec![0u32], vec![0, 1], vec![0, 1, 0], vec![5, 9]] {
            let t = TrimmedTrace::from_indices(ids.clone());
            let reference = measure_jobs(&t, 4, 1);
            for jobs in [2usize, 4, 16] {
                assert_eq!(
                    sorted_pairs(&reference),
                    sorted_pairs(&measure_jobs(&t, 4, jobs)),
                    "ids {:?} jobs {}",
                    ids,
                    jobs
                );
            }
        }
    }

    /// One direction of the oracle engine: every pending occurrence stored
    /// on its own as `(global position, backward footprint)`.
    struct OracleDir {
        pend: Vec<(u32, u32)>,
        next: u32,
        thr: u32,
        fin: u32,
    }

    impl OracleDir {
        fn new() -> Self {
            OracleDir {
                pend: Vec::new(),
                next: 0,
                thr: 0,
                fin: 0,
            }
        }
    }

    /// Per-occurrence oracle for [`measure_region`] (the engine before
    /// pendings were stored as runs): each examination merges the pending
    /// queue against the un-examined tail of the occurrence list one entry
    /// at a time. Same walk, kill and shard-end rules; the pair table is
    /// always a hash map, which only steers indexing.
    #[allow(clippy::needless_range_loop)] // indices are positions and depths
    fn measure_region_oracle(trace: &TrimmedTrace, w_max: u32, sh: Shard) -> ShardPairs {
        let ev = trace.events();
        let walk_len = w_max as usize + 1;
        let cap = ev.iter().map(|b| b.index() + 1).max().unwrap_or(0);
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); cap];
        let mut walk_blocks: Vec<u32> = Vec::with_capacity(walk_len);
        let mut walk_times: Vec<u32> = Vec::with_capacity(walk_len);
        let mut idx_map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut states: Vec<[OracleDir; 2]> = Vec::new();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        let born_dead = |occ: &[Vec<u32>], b: u32, wstart: u32| {
            occ[b as usize].first().is_some_and(|&p| p < wstart)
        };
        for t in sh.start..sh.end {
            let ai = ev[t].0;
            let now = t as u32;
            let d = match walk_blocks.iter().position(|&b| b == ai) {
                Some(d) => d,
                None => {
                    if walk_blocks.len() < walk_len {
                        walk_blocks.push(0);
                        walk_times.push(0);
                    }
                    walk_blocks.len() - 1
                }
            };
            walk_blocks.copy_within(0..d, 1);
            walk_times.copy_within(0..d, 1);
            walk_blocks[0] = ai;
            walk_times[0] = now;
            if t < sh.core_start {
                continue;
            }
            let in_core = t < sh.core_end;
            let wstart = if walk_times.len() == walk_len {
                walk_times[walk_len - 1] + 1
            } else {
                0
            };
            for i in 1..walk_blocks.len().min(w_max as usize) {
                let xi = walk_blocks[i];
                let key = (ai.min(xi), ai.max(xi));
                let si = match idx_map.get(&key).copied() {
                    Some(DEAD) => continue,
                    Some(si) => si as usize,
                    None => {
                        if born_dead(&occ, ai, wstart) || born_dead(&occ, xi, wstart) {
                            idx_map.insert(key, DEAD);
                            continue;
                        }
                        states.push([OracleDir::new(), OracleDir::new()]);
                        keys.push(key);
                        idx_map.insert(key, states.len() as u32);
                        states.len()
                    }
                };
                let [lo, hi] = &mut states[si - 1];
                let (adir, xdir) = if ai < xi { (lo, hi) } else { (hi, lo) };
                let list = &occ[xi as usize];
                if (xdir.next as usize) < list.len() {
                    let tail = &list[xdir.next as usize..];
                    let in_win = tail.partition_point(|&p| p < wstart);
                    let pout = xdir.pend.partition_point(|&(pp, _)| pp < wstart);
                    if pout < in_win {
                        idx_map.insert(key, DEAD);
                        continue;
                    }
                    let mut pi = 0usize;
                    while pi < pout {
                        xdir.thr = xdir.thr.max(xdir.pend[pi].1);
                        xdir.fin += 1;
                        pi += 1;
                    }
                    for &p in &tail[in_win..] {
                        let fw = walk_times.iter().filter(|&&tt| tt >= p).count() as u32;
                        let v = match xdir.pend.get(pi) {
                            Some(&(pp, bw)) if pp == p => {
                                pi += 1;
                                bw.min(fw)
                            }
                            _ => fw,
                        };
                        xdir.thr = xdir.thr.max(v);
                        xdir.fin += 1;
                    }
                    assert_eq!(pi, xdir.pend.len());
                    xdir.pend.clear();
                    xdir.next = list.len() as u32;
                }
                if in_core {
                    adir.pend.push((now, i as u32 + 1));
                }
            }
            if in_core {
                occ[ai as usize].push(now);
            }
        }
        let mut out = ShardPairs::default();
        for ((lo, hi), mut dirs) in keys.into_iter().zip(states) {
            for dir in &mut dirs {
                for (_, bw) in std::mem::take(&mut dir.pend) {
                    dir.thr = dir.thr.max(bw);
                    dir.fin += 1;
                }
            }
            let thr = dirs[0].thr.max(dirs[1].thr);
            if thr > 0 {
                out.insert(
                    (lo, hi),
                    (thr, u64::from(dirs[0].fin), u64::from(dirs[1].fin)),
                );
            }
        }
        out
    }

    /// Compare per-region reports of the run engine and the oracle for
    /// every `shards()` region at jobs 1, 2, 3 and 7.
    fn assert_regions_match_oracle(t: &TrimmedTrace, w_max: u32, what: &str) {
        let (cap, rank, nd) = heat_ranks(t);
        for jobs in [1usize, 2, 3, 7] {
            for sh in shards(t, jobs, w_max as usize + 1, w_max as usize) {
                let mut got: Vec<_> = measure_region(t, w_max, cap, &rank, nd, sh)
                    .into_iter()
                    .collect();
                let mut want: Vec<_> = measure_region_oracle(t, w_max, sh).into_iter().collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{} w_max {} jobs {} {:?}", what, w_max, jobs, sh);
            }
        }
    }

    /// Windows the generated traces are checked at: 2 saturates every
    /// direction on its first credit, 20 is the pipelines' default.
    const W_MAXES: [u32; 4] = [2, 3, 6, 20];

    /// Seeded xorshift stream.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move |n| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        }
    }

    /// Check a generated trace family over seeds at every window.
    fn check_family(what: &str, seeds: u64, gen: impl Fn(u64) -> Vec<u32>) {
        for seed in 0..seeds {
            let t = TrimmedTrace::from_indices(gen(seed));
            for w_max in W_MAXES {
                assert_regions_match_oracle(&t, w_max, &format!("{} seed {}", what, seed));
            }
        }
    }

    /// Hot loops of 2–5 blocks with stale blocks left in the walk: the loop
    /// blocks keep seeing the same stale partners at the same depth, so
    /// their pendings grow long single runs that are rarely examined.
    #[test]
    fn runs_match_oracle_on_hot_loops_with_stale_partners() {
        check_family("hot loop", 12, |seed| {
            let mut r = rng(seed);
            let mut ids = Vec::new();
            while ids.len() < 600 {
                for _ in 0..1 + r(8) {
                    ids.push(8 + r(24) as u32);
                }
                let k = 2 + r(4) as u32;
                let base = r(6) as u32;
                for _ in 0..r(40) {
                    ids.extend(base..base + k);
                }
            }
            ids
        });
    }

    /// A block re-accessed while fresh blocks push its partner deeper: the
    /// backward witness changes within one partner epoch, so runs break on
    /// the witness rather than on index gaps.
    #[test]
    fn runs_match_oracle_when_witness_changes_within_an_epoch() {
        check_family("rising witness", 12, |seed| {
            let mut r = rng(seed);
            let mut ids = Vec::new();
            while ids.len() < 600 {
                let (x, a) = (r(4) as u32, 4 + r(4) as u32);
                ids.push(a);
                for _ in 0..1 + r(10) {
                    // Repeat x before the next fresh block (same witness)
                    // or not (witness rises by one).
                    for _ in 0..1 + r(3) {
                        ids.push(x);
                    }
                    ids.push(8 + r(30) as u32);
                }
            }
            ids
        });
    }

    /// Multi-epoch tails: a block and its partner meet, the block sinks out
    /// of the window, the partner is re-accessed meanwhile (no examination
    /// of the deep block), and the two meet again. The tail then holds
    /// runs of several epochs separated by uncovered gaps.
    #[test]
    fn runs_match_oracle_on_multi_epoch_tails() {
        check_family("multi-epoch", 12, |seed| {
            let mut r = rng(seed);
            let mut ids = Vec::new();
            while ids.len() < 800 {
                let (x, a) = (r(3) as u32, 3 + r(3) as u32);
                for _ in 0..1 + r(4) {
                    ids.push(x);
                    ids.push(a);
                }
                for _ in 0..r(3) {
                    ids.push(x);
                }
                // Sink x below the deepest window, then touch a alone.
                for _ in 0..r(25) {
                    ids.push(6 + r(40) as u32);
                }
                ids.push(a);
                for _ in 0..r(4) {
                    ids.push(6 + r(40) as u32);
                }
            }
            ids
        });
    }

    /// Blocks that also occur far from their partners: examinations find an
    /// out-of-window occurrence with no witness and kill the pair, at
    /// every position of the gap relative to the runs.
    #[test]
    fn runs_match_oracle_on_kills() {
        check_family("kills", 16, |seed| {
            let mut r = rng(seed);
            let mut ids = Vec::new();
            while ids.len() < 600 {
                match r(3) {
                    0 => ids.push(r(6) as u32),
                    1 => {
                        for _ in 0..1 + r(6) {
                            ids.push(r(3) as u32);
                            ids.push(3 + r(3) as u32);
                        }
                    }
                    _ => {
                        for _ in 0..r(30) {
                            ids.push(6 + r(50) as u32);
                        }
                    }
                }
            }
            ids
        });
    }

    /// Tight alternations that saturate directions at small windows
    /// (`thr == w_max`), mixed with random traffic that keeps examining
    /// them and with more distinct blocks than the dense pair table holds,
    /// so the hashed table is exercised too.
    #[test]
    fn runs_match_oracle_on_saturated_directions_and_hashed_table() {
        check_family("saturated", 8, |seed| {
            let mut r = rng(seed);
            let mut ids = Vec::new();
            let mut fresh = 16u32;
            while ids.len() < 3000 {
                match r(3) {
                    0 => {
                        let (x, y) = (r(4) as u32, 4 + r(4) as u32);
                        for _ in 0..1 + r(8) {
                            ids.extend([x, y]);
                        }
                    }
                    1 => ids.push(r(16) as u32),
                    _ => {
                        ids.push(fresh);
                        fresh += 1;
                    }
                }
            }
            ids
        });
    }

    /// The sjeng and 403.gcc basic-block traces of the test-input profile,
    /// the traces the `bb-affinity` pipeline analyzes.
    #[test]
    fn runs_match_oracle_on_real_bb_traces() {
        use clop_core::{preprocess_for_bb_reordering, Profile, ProfileConfig};
        use clop_workloads::{primary_program, PrimaryBenchmark};

        for bench in [PrimaryBenchmark::Sjeng, PrimaryBenchmark::Gcc] {
            let w = primary_program(bench);
            let prepared = preprocess_for_bb_reordering(&w.module).expect("supports bb");
            let t = Profile::collect(&prepared, &ProfileConfig::with_exec(w.test_exec)).bb_trace;
            for w_max in W_MAXES {
                assert_regions_match_oracle(&t, w_max, &format!("{:?}", bench));
            }
        }
    }

    /// A 5-block loop running ~100k events above 16 stale blocks: each loop
    /// block stays pending against ~15 stale partners for the whole trace
    /// (~1.5M pending occurrences), but within a partner epoch the
    /// pendings share one witness, so the stored runs stay O(pairs).
    #[test]
    fn pending_runs_stay_bounded_under_stale_partners() {
        let ids = (100..116).chain((0..100_000).map(|i| i % 5));
        let t = TrimmedTrace::from_indices(ids);
        let (cap, rank, nd) = heat_ranks(&t);
        let sh = Shard {
            start: 0,
            core_start: 0,
            core_end: t.len(),
            end: t.len(),
        };
        let (keys, states) = scan_region(&t, 20, cap, &rank, nd, sh);
        let dirs = || states.iter().flat_map(|s| [&s.lo, &s.hi]);
        let pending: u32 = dirs().flat_map(|d| &d.runs).map(|r| r.k1 - r.k0).sum();
        let stored: usize = dirs().map(|d| d.runs.len()).sum();
        let peak: usize = dirs().map(|d| d.runs.capacity()).sum();
        assert!(pending >= 1_000_000, "{} pending occurrences", pending);
        assert!(
            stored <= 2 * keys.len(),
            "{} runs for {} pairs",
            stored,
            keys.len()
        );
        assert!(
            peak <= 8 * keys.len(),
            "{} run slots for {} pairs",
            peak,
            keys.len()
        );
    }
}
