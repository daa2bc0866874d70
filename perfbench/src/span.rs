//! In-memory span recorder for the traced run.
//!
//! Every call into a layer is wrapped in a span carrying its name, start,
//! end, parent span and the id of the cell (one unit of workload work) it
//! belongs to. Counts are recorded at the same boundaries. Untraced runs
//! never touch a [`Tracer`], so the end-to-end numbers carry no tracing
//! cost.

use crate::clock::{process_cpu_s, Elapsed};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name prefix of cell spans; every other span is a layer span.
pub const CELL: &str = "cell";

/// Which clock a time is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Wall,
    /// Process CPU time (see [`crate::clock`]).
    Cpu,
}

/// One recorded span. Wall times are nanoseconds since the tracer's
/// origin; CPU times are process CPU seconds.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub cell: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_start: f64,
    pub cpu_end: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in seconds on `clock`.
    pub fn dur(&self, clock: Clock) -> f64 {
        match clock {
            Clock::Wall => self.dur_ns() as f64 * 1e-9,
            Clock::Cpu => (self.cpu_end - self.cpu_start).max(0.0),
        }
    }

    pub fn is_cell(&self) -> bool {
        self.name.starts_with(CELL)
    }
}

/// Records spans and counts of one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a cell span: the root of one unit of workload work.
    pub fn begin_cell(&mut self, kind: &str, cell: u64) -> usize {
        self.open_span(format!("{}.{}", CELL, kind), cell)
    }

    /// Open a layer span under the innermost open span (and its cell).
    pub fn begin(&mut self, name: &str) -> usize {
        let cell = self.open.last().map_or(0, |&i| self.spans[i].cell);
        self.open_span(name.to_string(), cell)
    }

    fn open_span(&mut self, name: String, cell: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let cpu_start = process_cpu_s();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
            cpu_start,
            cpu_end: cpu_start,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].cpu_end = process_cpu_s();
    }

    /// Run `f` inside a layer span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Self time per layer-span name on `clock`, in milliseconds: each
    /// span's duration minus the time its direct children cover.
    pub fn self_ms(&self, clock: Clock) -> BTreeMap<String, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur(clock);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.is_cell() {
                continue;
            }
            let own = (s.dur(clock) - child[i]).max(0.0);
            *out.entry(s.name.clone()).or_insert(0.0) += own * 1e3;
        }
        out
    }

    /// Total time of the cell spans on both clocks.
    pub fn cell_time(&self) -> Elapsed {
        let mut e = Elapsed::default();
        for s in self.spans.iter().filter(|s| s.is_cell()) {
            e.wall += s.dur(Clock::Wall);
            e.cpu += s.dur(Clock::Cpu);
        }
        e
    }

    /// Share of cell CPU time covered by the cells' direct layer spans.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| !s.is_cell() && s.parent.is_some_and(|p| self.spans[p].is_cell()))
            .map(|s| s.dur(Clock::Cpu))
            .sum();
        let cells = self.cell_time().cpu;
        if cells > 0.0 {
            covered / cells
        } else {
            0.0
        }
    }

    /// Check that every layer span sits inside an enclosing span of its
    /// own cell, under a cell span, and that all spans are closed.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} `{}` ends before it starts", i, s.name));
            }
            let mut cur = s;
            let mut under_cell = s.is_cell();
            while let Some(p) = cur.parent {
                let parent = &self.spans[p];
                if parent.cell != s.cell {
                    return Err(format!("span {} `{}` crosses cells", i, s.name));
                }
                if parent.start_ns > cur.start_ns || parent.end_ns < cur.end_ns {
                    return Err(format!("span {} `{}` escapes its parent", i, s.name));
                }
                under_cell |= parent.is_cell();
                cur = parent;
            }
            if !under_cell {
                return Err(format!("span {} `{}` has no cell", i, s.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_cells() {
        let mut t = Tracer::new();
        let c = t.begin_cell("x", 7);
        let outer = t.begin("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        t.end(c);
        t.check_nesting().unwrap();
        let own = t.self_ms(Clock::Wall);
        assert!(own["inner"] >= 2.0);
        assert!(own["outer"] < own["inner"]);
        assert!(!own.contains_key("cell.x"));
        assert!(t.spans().iter().all(|s| s.cell == 7));
        assert!(t.self_ms(Clock::Cpu).contains_key("inner"));
    }

    #[test]
    fn a_span_outside_any_cell_is_rejected() {
        let mut t = Tracer::new();
        t.time("loose", || ());
        assert!(t.check_nesting().is_err());
    }
}
