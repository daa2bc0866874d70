//! Fetch expansion: turn a basic-block trace plus a linked image into the
//! instruction-cache line access stream.
//!
//! Executing a basic block fetches its bytes front to back; with line size
//! `L` that touches the lines from `addr/L` through `(addr+size-1)/L` in
//! order. The resulting line-address stream is what the paper's Pin-based
//! simulator observed and what `clop_cachesim` consumes.

use crate::layout::LinkedImage;
use clop_trace::Trace;

/// Summary statistics of a fetch expansion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Total line accesses produced.
    pub line_accesses: u64,
    /// Number of basic-block events expanded.
    pub block_events: u64,
}

/// Expand a whole-program basic-block trace into cache-line indices.
///
/// `line_size` is in bytes (the paper's configuration is 64). The returned
/// vector holds *line indices* (`address / line_size`), ready to feed to the
/// cache simulator's set indexing.
pub fn line_trace(trace: &Trace, image: &LinkedImage, line_size: u64) -> Vec<u64> {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let mut out = Vec::with_capacity(trace.len() * 2);
    for &b in trace.events() {
        let gid = crate::ids::GlobalBlockId(b.0);
        let (first, last) = image.line_span(gid, line_size);
        for line in first..=last {
            out.push(line);
        }
    }
    out
}

/// Visit line indices without materializing the whole expansion; useful for
/// multi-million-event traces.
pub fn for_each_line<F: FnMut(u64)>(
    trace: &Trace,
    image: &LinkedImage,
    line_size: u64,
    mut f: F,
) -> FetchStats {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let mut stats = FetchStats::default();
    for &b in trace.events() {
        let gid = crate::ids::GlobalBlockId(b.0);
        let (first, last) = image.line_span(gid, line_size);
        for line in first..=last {
            f(line);
            stats.line_accesses += 1;
        }
        stats.block_events += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::layout::{Layout, LinkOptions};
    use crate::module::Module;
    use clop_trace::BlockId;

    fn module_and_image() -> (Module, LinkedImage) {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .jump("a", 100, "b") // spans lines 0..1 at 64B lines
            .ret("b", 16)
            .finish();
        let m = b.build().unwrap();
        let img = LinkedImage::link(
            &m,
            &Layout::original(&m),
            LinkOptions {
                function_align: 1,
                base_address: 0,
            },
        );
        (m, img)
    }

    #[test]
    fn blocks_spanning_lines_emit_multiple_accesses() {
        let (_, img) = module_and_image();
        let mut t = Trace::new();
        t.push(BlockId(0));
        let lines = line_trace(&t, &img, 64);
        assert_eq!(lines, vec![0, 1]); // bytes 0..99 → lines 0 and 1
    }

    #[test]
    fn small_block_emits_one_access() {
        let (_, img) = module_and_image();
        let mut t = Trace::new();
        t.push(BlockId(1)); // bytes 100..115 → line 1
        let lines = line_trace(&t, &img, 64);
        assert_eq!(lines, vec![1]);
    }

    #[test]
    fn layout_changes_line_addresses() {
        let mut b = ModuleBuilder::new("t");
        b.function("main").ret("a", 64).finish();
        b.function("leaf").ret("x", 64).finish();
        let m = b.build().unwrap();
        let opts = LinkOptions {
            function_align: 1,
            base_address: 0,
        };
        let orig = LinkedImage::link(&m, &Layout::original(&m), opts);
        let swapped = LinkedImage::link(
            &m,
            &Layout::FunctionOrder(vec![crate::ids::FuncId(1), crate::ids::FuncId(0)]),
            opts,
        );
        let mut t = Trace::new();
        t.push(BlockId(1)); // leaf's block
        assert_eq!(line_trace(&t, &orig, 64), vec![1]);
        assert_eq!(line_trace(&t, &swapped, 64), vec![0]);
    }

    #[test]
    fn for_each_line_matches_line_trace() {
        let (_, img) = module_and_image();
        let t = Trace::from_indices([0, 1, 0]);
        let collected = line_trace(&t, &img, 64);
        let mut streamed = Vec::new();
        let stats = for_each_line(&t, &img, 64, |l| streamed.push(l));
        assert_eq!(collected, streamed);
        assert_eq!(stats.block_events, 3);
        assert_eq!(stats.line_accesses, collected.len() as u64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_panics() {
        let (_, img) = module_and_image();
        let t = Trace::new();
        line_trace(&t, &img, 48);
    }
}
