//! TRG reduction (Algorithm 2): greedy slot assignment along heaviest
//! conflict edges, then round-robin emission.
//!
//! The reduction keeps `K` slot lists, each backed by a *supernode* in the
//! working graph. Edges are processed heaviest first; each unplaced
//! endpoint picks the first empty slot, or — when none is empty — the slot
//! whose supernode it conflicts with least (only slots it actually has an
//! edge to are candidates; a block with a single conflict partner follows
//! that partner's slot, as `C` does in the paper's Figure 2 walk-through).
//! Placing a block merges it into the slot supernode (edge weights
//! combine) and deletes its edges to the other slots, because blocks in
//! different slots occupy different cache sets and no longer conflict.
//! Finally the slot lists are drained round-robin into the output order,
//! interleaving the slots so that consecutive output blocks land in
//! different cache-set regions.
//!
//! Every block is renumbered by its dense first-appearance *rank*, and the
//! whole selection order is one packed `u128` key per edge: weight (max
//! first), then the smaller and the larger endpoint rank (min first), with
//! slots ranking after every block. The working graph never materializes;
//! three invariants of the algorithm replace it with flat arrays:
//!
//! 1. **Block–block weights are fixed.** Such an edge keeps its TRG weight
//!    while it lives and dies when either endpoint is placed. The edges
//!    are sorted by key once and consumed from the heaviest end; an edge
//!    is live iff both endpoints are unplaced — two array loads.
//! 2. **Only one slot edge per block can win.** Slot–block weights live in
//!    a dense `rank × slot` table and only grow. Of one block's slot edges
//!    only the best (max weight, then lowest slot) can be selected, so the
//!    lazy heap holds one entry per *improvement* of a block's best edge,
//!    and a popped entry is current iff its block is unplaced and it still
//!    is that block's best. The heap top and the heaviest live block–block
//!    edge are merged by key.
//! 3. **Every selected edge places a block.** A live edge always has an
//!    unplaced endpoint that has edges, so the loop stops as soon as the
//!    last such block is placed, leaving the stale tail unvisited.
//!
//! Blocks with no edges (no conflicts) are the unplaced ranks once the
//! loop ends; they are appended to the shortest slot lists in rank order
//! before emission.

use crate::graph::Trg;
use clop_trace::{BlockId, TraceStats, TrimmedTrace};
use std::collections::BinaryHeap;

/// Result of a TRG reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Per-slot block lists, in placement order.
    pub slots: Vec<Vec<BlockId>>,
    /// The emitted code-block order (round-robin over slots).
    pub sequence: Vec<BlockId>,
}

/// Tag bit of a slot's packed rank: slots order after every block rank
/// (a graph would need 2³¹ distinct blocks to collide).
const SLOT_TAG: u32 = 1 << 31;

/// Selection key of an edge between packed ranks `lo < hi`: weight in the
/// high 64 bits, then the *inverted* ranks, so that the maximum key is the
/// heaviest edge with the lowest ranks.
fn edge_key(w: u64, lo: u32, hi: u32) -> u128 {
    ((w as u128) << 64) | ((!lo as u128) << 32) | (!hi as u128)
}

/// The `(weight, lo, hi)` an [`edge_key`] packs.
fn unpack(key: u128) -> (u64, u32, u32) {
    ((key >> 64) as u64, !((key >> 32) as u32), !(key as u32))
}

/// Run Algorithm 2 with `k` slots. The trace supplies the deterministic
/// first-appearance order used for conflict-free blocks and tie-breaks.
pub fn reduce(trg: &Trg, k: usize, trace: &TrimmedTrace) -> SlotAssignment {
    let mut seen: Vec<bool> = Vec::new();
    let mut order: Vec<BlockId> = Vec::new();
    for b in trace.iter() {
        if b.index() >= seen.len() {
            seen.resize(b.index() + 1, false);
        }
        if !seen[b.index()] {
            seen[b.index()] = true;
            order.push(b);
        }
    }
    reduce_ordered(trg, k, &order)
}

/// [`reduce`] from the trace's order statistics instead of the trace
/// itself — the incremental serving path folds [`clop_trace::StatsState`]
/// from shards and never materializes the full trace. Bit-identical to
/// [`reduce`], because the reduction consumes the trace only through its
/// first-appearance order.
pub fn reduce_from_stats(trg: &Trg, k: usize, stats: &TraceStats) -> SlotAssignment {
    reduce_ordered(trg, k, stats.first_appearance())
}

/// The reduction proper, over the distinct blocks of the trace in
/// first-appearance order.
fn reduce_ordered(trg: &Trg, k: usize, order: &[BlockId]) -> SlotAssignment {
    let k = k.max(1);

    // Dense ranks: first appearance in the trace, then TRG nodes the trace
    // lacks. Block ids index the rank table directly, as in `Trg::build`;
    // every edge endpoint is a node.
    let table_len = order
        .iter()
        .chain(trg.nodes())
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0);
    let mut rank_of = vec![u32::MAX; table_len];
    let mut ids: Vec<BlockId> = Vec::new();
    for &b in order.iter().chain(trg.nodes()) {
        if rank_of[b.index()] == u32::MAX {
            rank_of[b.index()] = ids.len() as u32;
            ids.push(b);
        }
    }
    let n = ids.len();

    // Block–block edges sorted by key, so the next candidate is the last
    // live one (invariant 1), and the same edges as CSR adjacency over
    // ranks.
    let mut keys: Vec<u128> = Vec::with_capacity(trg.num_edges());
    let mut start = vec![0usize; n + 1];
    for (x, y, w) in trg.edges() {
        let (rx, ry) = (rank_of[x.index()], rank_of[y.index()]);
        start[rx as usize + 1] += 1;
        start[ry as usize + 1] += 1;
        keys.push(edge_key(w, rx.min(ry), rx.max(ry)));
    }
    keys.sort_unstable();
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut fill = start.clone();
    let mut adj: Vec<(u32, u64)> = vec![(0, 0); 2 * keys.len()];
    for &key in &keys {
        let (w, lo, hi) = unpack(key);
        for (a, b) in [(lo, hi), (hi, lo)] {
            adj[fill[a as usize]] = (b, w);
            fill[a as usize] += 1;
        }
    }
    let mut unplaced_with_edges = (0..n).filter(|&r| start[r + 1] > start[r]).count();

    // Slot–block weights (invariant 2). Slots fill in index order while
    // any is empty, so no edge ever reaches a slot at index >= n.
    let cols = k.min(n);
    let mut slot_w: Vec<Option<u64>> = vec![None; n * cols];
    let mut best = vec![0u128; n]; // 0: no slot edge yet
    let mut heap: BinaryHeap<u128> = BinaryHeap::new();

    let mut slots: Vec<Vec<BlockId>> = vec![Vec::new(); k];
    let mut placed = vec![false; n];
    let mut filled = 0usize; // slots[..filled] are the non-empty ones

    while unplaced_with_edges > 0 {
        while let Some(&key) = keys.last() {
            let (_, lo, hi) = unpack(key);
            if !placed[lo as usize] && !placed[hi as usize] {
                break;
            }
            keys.pop();
        }
        while let Some(&top) = heap.peek() {
            let (_, r, _) = unpack(top);
            if !placed[r as usize] && best[r as usize] == top {
                break;
            }
            heap.pop();
        }
        let edge = keys.last().copied().unwrap_or(0);
        let slot_edge = heap.peek().copied().unwrap_or(0);
        if edge == 0 && slot_edge == 0 {
            break; // unreachable: a placeable block always has a live edge
        }
        // A block–block edge places both endpoints, smaller rank first; a
        // slot edge places its block.
        let (_, lo, hi) = unpack(edge.max(slot_edge));
        if edge > slot_edge {
            keys.pop();
        } else {
            heap.pop();
        }
        for r in [lo, hi] {
            if r & SLOT_TAG != 0 || placed[r as usize] {
                continue;
            }
            let x = r as usize;

            // First empty slot, else the least-conflict slot among those x
            // has an edge to, else (all its conflicts consumed) the
            // shortest slot.
            let si = if filled < k {
                filled += 1;
                filled - 1
            } else {
                let row = &slot_w[x * cols..(x + 1) * cols];
                let mut least: Option<(u64, usize)> = None;
                for (s, w) in row.iter().enumerate() {
                    if let Some(w) = *w {
                        if least.is_none_or(|(lw, _)| w < lw) {
                            least = Some((w, s));
                        }
                    }
                }
                least.map_or_else(|| shortest(&slots), |(_, s)| s)
            };
            slots[si].push(ids[x]);
            placed[x] = true;
            unplaced_with_edges -= 1;

            // Merge x into the slot supernode: its weight to each unplaced
            // partner moves onto that partner's edge to the slot.
            for &(p, w) in &adj[start[x]..start[x + 1]] {
                let p = p as usize;
                if placed[p] {
                    continue;
                }
                let cell = &mut slot_w[p * cols + si];
                let merged = cell.unwrap_or(0) + w;
                *cell = Some(merged);
                let key = edge_key(merged, p as u32, SLOT_TAG | si as u32);
                if key > best[p] {
                    best[p] = key;
                    heap.push(key);
                }
            }
        }
    }

    // Conflict-free blocks: append to the currently shortest slots in
    // rank order.
    for (r, &b) in ids.iter().enumerate() {
        if !placed[r] {
            let si = shortest(&slots);
            slots[si].push(b);
        }
    }

    // Round-robin emission.
    let mut sequence = Vec::with_capacity(n);
    let mut cursors = vec![0usize; k];
    loop {
        let mut emitted = false;
        for (s, cur) in cursors.iter_mut().enumerate() {
            if *cur < slots[s].len() {
                sequence.push(slots[s][*cur]);
                *cur += 1;
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
    }

    SlotAssignment { slots, sequence }
}

/// Index of the shortest slot, lowest index on ties.
fn shortest(slots: &[Vec<BlockId>]) -> usize {
    slots
        .iter()
        .enumerate()
        .min_by_key(|(i, s)| (s.len(), *i))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_util::check::check;
    use clop_util::{FxHashMap, Rng};

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// Working-graph entity of the oracles below: an unplaced block or a
    /// slot supernode.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    enum Ent {
        Block(u32),
        Slot(u32),
    }

    fn key(a: Ent, b: Ent) -> (Ent, Ent) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The scan comparator's tie-break key (pre-packing form: slot and
    /// block entities never compare equal), used by the oracle below.
    type RankKey = (u8, usize);

    fn rank_of(e: Ent, rank: &FxHashMap<u32, usize>) -> RankKey {
        match e {
            Ent::Block(x) => (0, rank.get(&x).copied().unwrap_or(usize::MAX)),
            Ent::Slot(s) => (1, s as usize),
        }
    }

    /// Lazy-heap oracle entry: weight, then the inverted packed min and
    /// max ranks (blocks by rank, slots tagged after every block).
    fn heap_entry(a: Ent, b: Ent, w: u64, rank: &FxHashMap<u32, usize>) -> u128 {
        let packed = |e: Ent| match e {
            Ent::Block(x) => rank[&x] as u32,
            Ent::Slot(s) => (1 << 31) | s,
        };
        let (ra, rb) = (packed(a), packed(b));
        ((w as u128) << 64) | ((!ra.min(rb) as u128) << 32) | (!ra.max(rb) as u128)
    }

    fn unpack_ent(k: u32, id_by_rank: &[u32]) -> Ent {
        if k & (1 << 31) != 0 {
            Ent::Slot(k & !(1 << 31))
        } else {
            Ent::Block(id_by_rank[k as usize])
        }
    }

    /// First-appearance ranks of `order` then the TRG's nodes, with the
    /// inverse table.
    fn oracle_ranks(trg: &Trg, order: &[BlockId]) -> (FxHashMap<u32, usize>, Vec<u32>) {
        let mut rank: FxHashMap<u32, usize> = FxHashMap::default();
        let mut id_by_rank: Vec<u32> = Vec::new();
        for x in order.iter().chain(trg.nodes()) {
            rank.entry(x.0).or_insert_with(|| {
                id_by_rank.push(x.0);
                id_by_rank.len() - 1
            });
        }
        (rank, id_by_rank)
    }

    /// The oracles' working graph: a weight map over entity pairs plus
    /// append-only adjacency lists.
    type Weights = FxHashMap<(Ent, Ent), u64>;
    type Adjacency = FxHashMap<Ent, Vec<Ent>>;

    fn oracle_graph(trg: &Trg) -> (Weights, Adjacency) {
        let mut weights = Weights::default();
        let mut adj = Adjacency::default();
        for (x, y, w) in trg.edges() {
            let (a, b) = (Ent::Block(x.0), Ent::Block(y.0));
            weights.insert(key(a, b), w);
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        (weights, adj)
    }

    /// Place one block per Algorithm 2 steps 4–22 on the oracles' working
    /// graph, pushing every grown slot edge onto `heap`.
    fn oracle_place_block(
        x: u32,
        weights: &mut Weights,
        adj: &mut Adjacency,
        heap: &mut BinaryHeap<u128>,
        slots: &mut [Vec<BlockId>],
        placed: &mut FxHashMap<u32, u32>,
        rank: &FxHashMap<u32, usize>,
    ) {
        let e = Ent::Block(x);
        let mut chosen = slots.iter().position(Vec::is_empty);
        if chosen.is_none() {
            let mut best_w = u64::MAX;
            for i in 0..slots.len() {
                if let Some(&w) = weights.get(&key(e, Ent::Slot(i as u32))) {
                    if w < best_w {
                        best_w = w;
                        chosen = Some(i);
                    }
                }
            }
        }
        let si = chosen.unwrap_or_else(|| {
            slots
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.len(), *i))
                .map_or(0, |(i, _)| i)
        });
        slots[si].push(BlockId(x));
        placed.insert(x, si as u32);
        let slot_ent = Ent::Slot(si as u32);
        for p in adj.remove(&e).unwrap_or_default() {
            let Some(w) = weights.remove(&key(e, p)) else {
                continue;
            };
            if let Ent::Block(_) = p {
                let merged = weights.entry(key(slot_ent, p)).or_insert(0);
                *merged += w;
                heap.push(heap_entry(slot_ent, p, *merged, rank));
                adj.entry(p).or_default().push(slot_ent);
            }
        }
    }

    /// Leftover placement (TRG nodes and `order` blocks still unplaced,
    /// by rank, each onto the shortest slot) and round-robin emission,
    /// shared by the oracles.
    fn oracle_finish(
        trg: &Trg,
        order: &[BlockId],
        mut slots: Vec<Vec<BlockId>>,
        placed: &FxHashMap<u32, u32>,
        rank: &FxHashMap<u32, usize>,
    ) -> SlotAssignment {
        let mut leftovers: Vec<BlockId> = trg
            .nodes()
            .iter()
            .copied()
            .filter(|n| !placed.contains_key(&n.0))
            .collect();
        for &x in order {
            if !placed.contains_key(&x.0) && !leftovers.contains(&x) {
                leftovers.push(x);
            }
        }
        leftovers.sort_by_key(|x| rank[&x.0]);
        for x in leftovers {
            let (si, _) = slots
                .iter()
                .enumerate()
                .min_by_key(|(i, s)| (s.len(), *i))
                .expect("k >= 1");
            slots[si].push(x);
        }
        let mut sequence = Vec::new();
        let mut cursors = vec![0usize; slots.len()];
        loop {
            let mut emitted = false;
            for (s, cur) in cursors.iter_mut().enumerate() {
                if *cur < slots[s].len() {
                    sequence.push(slots[s][*cur]);
                    *cur += 1;
                    emitted = true;
                }
            }
            if !emitted {
                break;
            }
        }
        SlotAssignment { slots, sequence }
    }

    /// Lazy-heap oracle (the hash-map implementation the dense reduction
    /// replaced): every edge starts on a max-heap, each slot-edge growth
    /// pushes a fresh entry, and a popped entry is current iff the weight
    /// map still holds exactly its weight.
    fn reduce_lazy_heap_oracle(trg: &Trg, k: usize, order: &[BlockId]) -> SlotAssignment {
        let k = k.max(1);
        let (rank, id_by_rank) = oracle_ranks(trg, order);
        let (mut weights, mut adj) = oracle_graph(trg);
        let mut heap: BinaryHeap<u128> = weights
            .iter()
            .map(|(&(a, b), &w)| heap_entry(a, b, w, &rank))
            .collect();
        let mut slots: Vec<Vec<BlockId>> = vec![Vec::new(); k];
        let mut placed: FxHashMap<u32, u32> = FxHashMap::default();
        while let Some(entry) = heap.pop() {
            let w = (entry >> 64) as u64;
            let a = unpack_ent(!((entry >> 32) as u32), &id_by_rank);
            let b = unpack_ent(!(entry as u32), &id_by_rank);
            if weights.get(&key(a, b)) != Some(&w) {
                continue;
            }
            for e in [a, b] {
                let Ent::Block(x) = e else { continue };
                if placed.contains_key(&x) {
                    continue;
                }
                oracle_place_block(
                    x,
                    &mut weights,
                    &mut adj,
                    &mut heap,
                    &mut slots,
                    &mut placed,
                    &rank,
                );
            }
        }
        oracle_finish(trg, order, slots, &placed, &rank)
    }

    fn first_appearance(trace: &TrimmedTrace) -> Vec<BlockId> {
        let mut seen: FxHashMap<u32, ()> = FxHashMap::default();
        trace
            .iter()
            .filter(|x| seen.insert(x.0, ()).is_none())
            .collect()
    }

    /// The paper's Figure 2 walk-through with 3 code slots. (The figure's
    /// weights are illegible in our source; these weights are chosen so
    /// the narrated reduction steps are forced: E<A,B> heaviest → A, B take
    /// slots 1 and 2; E<E,F> next → E takes slot 3, F joins A's slot as its
    /// least conflict; C's only edge is to E, so C joins E's slot. The
    /// emitted sequence must be A B E F C.)
    #[test]
    fn paper_figure2() {
        // A=1, B=2, C=3, E=4, F=5 (first-appearance order A B C E F).
        let trace = TrimmedTrace::from_indices([1, 2, 3, 4, 5]);
        let trg = Trg::from_edges(&[
            (1, 2, 40), // A-B, heaviest
            (4, 5, 30), // E-F
            (4, 3, 25), // E-C
            (5, 2, 15), // F-B
            (5, 1, 10), // F-A (F's least conflict → joins A)
        ]);
        let out = reduce(&trg, 3, &trace);
        assert_eq!(out.slots[0], vec![b(1), b(5)]); // A F
        assert_eq!(out.slots[1], vec![b(2)]); // B
        assert_eq!(out.slots[2], vec![b(4), b(3)]); // E C
        let seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        assert_eq!(seq, vec![1, 2, 4, 5, 3]); // A B E F C
    }

    #[test]
    fn sequence_is_permutation_of_trace_blocks() {
        let trace = TrimmedTrace::from_indices([0, 1, 2, 0, 1, 3, 4, 2, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 3, &trace);
        let mut seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        seq.sort_unstable();
        assert_eq!(seq, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heavy_conflict_pair_separates_into_slots() {
        // 0 and 1 conflict heavily; with 2 slots they must not share one.
        let ids: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let trace = TrimmedTrace::from_indices(ids);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 2, &trace);
        let slot_of = |x: u32| {
            out.slots
                .iter()
                .position(|s| s.contains(&b(x)))
                .expect("placed")
        };
        assert_ne!(slot_of(0), slot_of(1));
    }

    #[test]
    fn conflict_free_blocks_fill_shortest_slots() {
        let trace = TrimmedTrace::from_indices([0, 1, 2, 3]);
        let trg = Trg::build(&trace, 8); // no reuses → no edges
        let out = reduce(&trg, 2, &trace);
        // 4 blocks over 2 slots, 2 each, first-appearance order.
        assert_eq!(out.slots[0].len(), 2);
        assert_eq!(out.slots[1].len(), 2);
        let seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        assert_eq!(seq, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_slot_degenerates_to_placement_order() {
        let trace = TrimmedTrace::from_indices([2, 0, 2, 1, 2, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 1, &trace);
        assert_eq!(out.slots.len(), 1);
        let mut seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        seq.sort_unstable();
        assert_eq!(seq, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic() {
        let ids: Vec<u32> = (0..500).map(|i| ((i * 13 + i / 7) % 12) as u32).collect();
        let trace = TrimmedTrace::from_indices(ids);
        let trg = Trg::build(&trace, 16);
        let a = reduce(&trg, 4, &trace);
        let c = reduce(&trg, 4, &trace);
        assert_eq!(a, c);
    }

    #[test]
    fn more_slots_than_blocks_is_fine() {
        let trace = TrimmedTrace::from_indices([0, 1, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 10, &trace);
        assert_eq!(out.sequence.len(), 2);
    }

    /// Scan-based selection oracle (the pre-heap implementation): every
    /// iteration scans all live edges for the max under the same
    /// tie-breaks. The production reduction must reproduce its output
    /// exactly.
    fn reduce_scan_oracle(trg: &Trg, k: usize, trace: &TrimmedTrace) -> SlotAssignment {
        let k = k.max(1);
        let order = first_appearance(trace);
        let (rank, _) = oracle_ranks(trg, &order);
        let (mut weights, mut adj) = oracle_graph(trg);
        let mut heap = BinaryHeap::new();
        let mut slots: Vec<Vec<BlockId>> = vec![Vec::new(); k];
        let mut placed: FxHashMap<u32, u32> = FxHashMap::default();
        loop {
            let best = weights
                .iter()
                .filter(|((a, b), _)| matches!(a, Ent::Block(_)) || matches!(b, Ent::Block(_)))
                .max_by(|((a1, b1), w1), ((a2, b2), w2)| {
                    let (r1, s1) = (rank_of(*a1, &rank), rank_of(*b1, &rank));
                    let (r2, s2) = (rank_of(*a2, &rank), rank_of(*b2, &rank));
                    w1.cmp(w2)
                        .then_with(|| (r2.min(s2)).cmp(&(r1.min(s1))))
                        .then_with(|| (r2.max(s2)).cmp(&(r1.max(s1))))
                })
                .map(|((a, b), _)| (*a, *b));
            let Some((a, b)) = best else { break };
            let mut endpoints = [a, b];
            endpoints.sort_by_key(|e| rank_of(*e, &rank));
            for e in endpoints {
                let Ent::Block(x) = e else { continue };
                if placed.contains_key(&x) {
                    continue;
                }
                oracle_place_block(
                    x,
                    &mut weights,
                    &mut adj,
                    &mut heap,
                    &mut slots,
                    &mut placed,
                    &rank,
                );
            }
        }
        oracle_finish(trg, &order, slots, &placed, &rank)
    }

    #[test]
    fn lazy_heap_matches_scan_selection() {
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let blocks = 5 + (seed % 14);
            let ids: Vec<u32> = (0..600).map(|_| (next() % blocks) as u32).collect();
            let trace = TrimmedTrace::from_indices(ids);
            for (window, k) in [(4usize, 2usize), (8, 3), (16, 5)] {
                let trg = Trg::build(&trace, window);
                let fast = reduce(&trg, k, &trace);
                let slow = reduce_scan_oracle(&trg, k, &trace);
                assert_eq!(fast, slow, "seed {} window {} k {}", seed, window, k);
            }
        }
    }

    /// The two oracles agree with each other (so a differential failure
    /// below points at the production reduction, not at an oracle).
    #[test]
    fn oracles_agree() {
        check("reduce_oracles_agree", |rng| {
            let (trg, order) = random_graph(rng);
            let k = [1, 2, 3, 128][rng.gen_index(4)];
            let trace = TrimmedTrace::from_events(order.iter().copied());
            assert_eq!(
                reduce_lazy_heap_oracle(&trg, k, &first_appearance(&trace)),
                reduce_scan_oracle(&trg, k, &trace),
            );
        });
    }

    /// A random graph over up to 40 blocks with a small weight range (so
    /// ties are everywhere), zero-weight edges, isolated TRG nodes, TRG
    /// nodes missing from the trace and trace blocks missing from the
    /// graph. Returns the graph and a first-appearance order.
    fn random_graph(rng: &mut Rng) -> (Trg, Vec<BlockId>) {
        let universe = rng.gen_range_u32(1, 41);
        let max_w = [1u64, 3, 50][rng.gen_index(3)];
        let density = rng.gen_f64();
        let mut edges: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for x in 0..universe {
            for y in x + 1..universe {
                if rng.gen_bool(density * 0.5) {
                    edges.insert((x, y), rng.gen_range_u64(0, max_w + 1));
                }
            }
        }
        let mut nodes: Vec<u32> = (0..universe).filter(|_| rng.gen_bool(0.9)).collect();
        for &(x, y) in edges.keys() {
            for v in [x, y] {
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
        }
        rng.shuffle(&mut nodes);
        let mut order: Vec<u32> = (0..universe + 5).filter(|_| rng.gen_bool(0.8)).collect();
        rng.shuffle(&mut order);
        let trg = Trg::from_parts(edges, nodes.into_iter().map(BlockId).collect());
        (trg, order.into_iter().map(BlockId).collect())
    }

    #[test]
    fn dense_matches_lazy_heap_on_random_graphs() {
        check("dense_matches_lazy_heap_on_random_graphs", |rng| {
            for _ in 0..8 {
                let (trg, order) = random_graph(rng);
                let blocks = order.len() + trg.nodes().len();
                for k in [1, 2, 3, 128, blocks + 1] {
                    assert_eq!(
                        reduce_ordered(&trg, k, &order),
                        reduce_lazy_heap_oracle(&trg, k, &order),
                        "k {}",
                        k
                    );
                }
            }
        });
    }

    /// Explicit edges built by `Trg::from_edges`, zero weights included:
    /// a zero-weight edge is still a conflict (it counts for the first-empty
    /// and least-conflict slot choices and merges into slot edges).
    #[test]
    fn dense_matches_lazy_heap_on_zero_weight_edges() {
        check("dense_matches_lazy_heap_on_zero_weight_edges", |rng| {
            let pairs: Vec<(u32, u32, u64)> = (0..rng.gen_index(60))
                .map(|_| {
                    let x = rng.gen_range_u32(0, 16);
                    let y = (x + rng.gen_range_u32(1, 16)) % 16;
                    (x, y, rng.gen_range_u64(0, 3) * rng.gen_range_u64(0, 2))
                })
                .collect();
            let trg = Trg::from_edges(&pairs);
            let trace = TrimmedTrace::from_indices((0..20u32).rev());
            for k in [1, 2, 3, 128] {
                assert_eq!(
                    reduce(&trg, k, &trace),
                    reduce_lazy_heap_oracle(&trg, k, &first_appearance(&trace)),
                    "k {}",
                    k
                );
            }
        });
    }

    /// Graphs built from random traces, reduced with and without the
    /// trace's order statistics.
    #[test]
    fn dense_matches_lazy_heap_on_built_graphs() {
        check("dense_matches_lazy_heap_on_built_graphs", |rng| {
            let blocks = rng.gen_range_u32(1, 60);
            let len = rng.gen_index(2000) + 1;
            let trace = TrimmedTrace::from_indices((0..len).map(|_| rng.gen_range_u32(0, blocks)));
            let window = [2usize, 8, 32, 256][rng.gen_index(4)];
            let trg = Trg::build(&trace, window);
            let order = first_appearance(&trace);
            for k in [1, 2, 3, 128, order.len() + 1] {
                assert_eq!(
                    reduce(&trg, k, &trace),
                    reduce_lazy_heap_oracle(&trg, k, &order),
                    "window {} k {}",
                    window,
                    k
                );
            }
        });
    }

    /// The real 403.gcc basic-block graph of the test-input profile under
    /// the `bb-trg` pipeline's geometry (60k events, 682 blocks, ~173k
    /// edges at window 1024), the shape the reduction is tuned for.
    #[test]
    fn dense_matches_lazy_heap_on_gcc_bb_graph() {
        use clop_core::{preprocess_for_bb_reordering, Profile, ProfileConfig};
        use clop_workloads::{primary_program, PrimaryBenchmark};

        let w = primary_program(PrimaryBenchmark::Gcc);
        let prepared = preprocess_for_bb_reordering(&w.module).expect("gcc supports bb");
        let trace = Profile::collect(&prepared, &ProfileConfig::with_exec(w.test_exec)).bb_trace;
        let config = crate::TrgConfig::from_cache(32 * 1024, 4, 64, 64);
        let trg = Trg::build(&trace, config.window);
        assert!(trg.num_edges() > 150_000, "{} edges", trg.num_edges());
        let order = first_appearance(&trace);
        for k in [3, config.slots] {
            assert_eq!(
                reduce(&trg, k, &trace),
                reduce_lazy_heap_oracle(&trg, k, &order),
                "k {}",
                k
            );
        }
    }
}
