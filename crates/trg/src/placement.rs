//! Gloy–Smith cache-relative placement — the *original* TRG
//! transformation the paper modified.
//!
//! The original procedure-placement work did not reorder code: it chose a
//! cache-relative *alignment* for each code block (which cache sets it
//! occupies) and realized that alignment by inserting padding between
//! blocks in the final image. The paper's adaptation replaces padding with
//! reordering (§II-C: "Instead of adding space between functions, we find
//! a new order for functions"). Implementing the padding variant lets the
//! evaluation quantify that design decision: padding buys conflict freedom
//! at the price of image growth and lost spatial density.
//!
//! Here, the slot assignment produced by [`crate::reduce()`] is realized
//! literally: blocks are emitted in slot order, and each block is padded
//! so it *starts* exactly at its slot's set offset in the next cache-sized
//! region, giving every slot a private range of cache sets.

use crate::reduce::SlotAssignment;
use clop_trace::BlockId;

/// One placed block: its byte offset in the image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedBlock {
    /// The block.
    pub block: BlockId,
    /// Byte offset from the image base.
    pub offset: u64,
}

/// The padded image produced by Gloy–Smith placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaddedPlacement {
    /// Placement of every block, in emission order.
    pub blocks: Vec<PlacedBlock>,
    /// Total image size in bytes, padding included.
    pub image_bytes: u64,
    /// Bytes of padding inserted.
    pub padding_bytes: u64,
}

/// Realize a slot assignment by padding.
///
/// `block_size(b)` gives each block's byte size; `cache_bytes` is the
/// cache the slots were derived from (the paper doubles it before
/// reduction — pass the *doubled* size used there) and `slot_count` the
/// `K` used in the reduction. Each slot owns a `cache_bytes / slot_count`
/// byte lane; block `i` of a slot goes into the `i`-th cache-sized region
/// at that lane's offset.
pub fn place_with_padding<F: Fn(BlockId) -> u64>(
    assignment: &SlotAssignment,
    cache_bytes: u64,
    block_size: F,
) -> PaddedPlacement {
    let k = assignment.slots.len().max(1) as u64;
    let lane = (cache_bytes / k).max(1);
    let mut blocks = Vec::new();
    let mut allocated: Vec<(u64, u64)> = Vec::new(); // disjoint [start, end)
    let overlaps = |allocated: &[(u64, u64)], start: u64, end: u64| {
        allocated.iter().any(|&(s, e)| start < e && s < end)
    };
    let mut image_end = 0u64;
    let mut code_bytes = 0u64;
    for (si, slot) in assignment.slots.iter().enumerate() {
        for &b in slot {
            let size = block_size(b).max(1);
            // The block must start at its slot's set alignment; blocks are
            // real bytes, so take the first cache-sized region where it
            // does not overlap anything already placed.
            let mut region = 0u64;
            let offset = loop {
                let start = region * cache_bytes + si as u64 * lane;
                if !overlaps(&allocated, start, start + size) {
                    break start;
                }
                region += 1;
            };
            allocated.push((offset, offset + size));
            blocks.push(PlacedBlock { block: b, offset });
            image_end = image_end.max(offset + size);
            code_bytes += size;
        }
    }
    blocks.sort_by_key(|p| p.offset);
    PaddedPlacement {
        blocks,
        image_bytes: image_end,
        padding_bytes: image_end.saturating_sub(code_bytes),
    }
}

impl PaddedPlacement {
    /// The byte offset of a block, if placed.
    pub fn offset_of(&self, b: BlockId) -> Option<u64> {
        self.blocks.iter().find(|p| p.block == b).map(|p| p.offset)
    }

    /// Expand a block trace into line indices under this placement.
    pub fn line_trace<F: Fn(BlockId) -> u64>(
        &self,
        trace: &clop_trace::TrimmedTrace,
        line_size: u64,
        block_size: F,
    ) -> Vec<u64> {
        let mut offsets = std::collections::HashMap::new();
        for p in &self.blocks {
            offsets.insert(p.block, p.offset);
        }
        let mut out = Vec::with_capacity(trace.len() * 2);
        for b in trace.iter() {
            let Some(&off) = offsets.get(&b) else {
                continue;
            };
            let size = block_size(b).max(1);
            let first = off / line_size;
            let last = (off + size - 1) / line_size;
            for l in first..=last {
                out.push(l);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Trg;
    use crate::reduce::reduce;
    use clop_trace::TrimmedTrace;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    fn assignment() -> SlotAssignment {
        // Two conflicting blocks end in different slots.
        let trace = TrimmedTrace::from_indices((0..60).map(|i| i % 2));
        let trg = Trg::build(&trace, 8);
        reduce(&trg, 2, &trace)
    }

    #[test]
    fn slots_get_disjoint_lanes() {
        let a = assignment();
        let p = place_with_padding(&a, 1024, |_| 64);
        let o0 = p.offset_of(b(0)).unwrap();
        let o1 = p.offset_of(b(1)).unwrap();
        // Different slots → different lane offsets modulo the cache size.
        assert_ne!(o0 % 1024, o1 % 1024);
    }

    #[test]
    fn padding_is_accounted() {
        let a = assignment();
        let p = place_with_padding(&a, 1024, |_| 64);
        assert_eq!(p.padding_bytes, p.image_bytes - 128);
        assert!(p.padding_bytes > 0, "padding variant must pad");
    }

    #[test]
    fn second_block_in_slot_lands_one_cache_region_later() {
        let trace = TrimmedTrace::from_indices([0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let trg = Trg::build(&trace, 8);
        let a = reduce(&trg, 2, &trace);
        let p = place_with_padding(&a, 1024, |_| 64);
        // Find a slot with two blocks; their offsets differ by the cache
        // size exactly.
        for slot in &a.slots {
            if slot.len() >= 2 {
                let d = p.offset_of(slot[1]).unwrap() - p.offset_of(slot[0]).unwrap();
                assert_eq!(d, 1024);
            }
        }
    }

    #[test]
    fn conflicting_blocks_map_to_disjoint_sets() {
        // The whole point: two thrash-prone blocks get non-overlapping
        // cache sets under padding.
        let a = assignment();
        let p = place_with_padding(&a, 1024, |_| 64);
        let line = 64u64;
        let sets = 1024 / line; // 16 "sets" in a direct-mapped view
        let set_of = |x: BlockId| (p.offset_of(x).unwrap() / line) % sets;
        assert_ne!(set_of(b(0)), set_of(b(1)));
    }

    #[test]
    fn line_trace_respects_offsets() {
        let a = assignment();
        let p = place_with_padding(&a, 1024, |_| 64);
        let t = TrimmedTrace::from_indices([0, 1, 0]);
        let lines = p.line_trace(&t, 64, |_| 64);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], lines[2]);
        assert_ne!(lines[0], lines[1]);
    }

    #[test]
    fn empty_assignment() {
        let empty = SlotAssignment {
            slots: vec![Vec::new(); 3],
            sequence: Vec::new(),
        };
        let p = place_with_padding(&empty, 1024, |_| 64);
        assert_eq!(p.image_bytes, 0);
        assert!(p.blocks.is_empty());
    }
}
