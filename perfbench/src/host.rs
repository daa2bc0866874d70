//! A gauge of the host's speed, to scale gated times by.
//!
//! On a shared virtual machine the CPU time of the same work moves with
//! what the neighbours do. On the 2-vCPU host the benchmark was tuned on
//! (Xeon, 4 MB private L2, 105 MB shared L3) two effects showed. Memory
//! beyond the private caches answered more slowly for minutes at a time:
//! ten consecutive 30 s `optimize` runs of identical work had pass CPU
//! times 25% apart, and a dependent walk through a 16 MB table tracked the
//! pass time with a 0.86 correlation across runs. And cache-resident
//! integer code ran up to 1.6 times slower for seconds at a time (the
//! 5 ms `optimize` set-up ran at 3.0 ms in some runs and 5.0 ms in
//! others), tracked run for run by a small sort. The gauge times both: a
//! *memory* reading and a *compute* reading.
//!
//! The gauge is the benchmark's own code, so a change to the program under
//! test cannot move it; it reads only the host. It runs on the caller's
//! thread, between cells, never inside timed work, at most every
//! [`INTERVAL_S`]. Each recorded time is scaled by the last [`WINDOW`]
//! readings before it.

use crate::clock::thread_cpu_s;
use crate::stats::{median, SeedRng};
use std::hint::black_box;
use std::time::Instant;

/// Entries of the walked table: 16 MB of `u32`, four times the private L2.
const TABLE_ENTRIES: usize = 1 << 22;
/// Dependent loads per memory reading.
const STEPS: usize = 20_000;
/// Keys sorted and searched per compute reading (64 KB).
const KEYS: usize = 1 << 14;
/// Least time between two readings, so the gauge costs at most a few
/// percent of a run however short the cells are.
const INTERVAL_S: f64 = 0.1;
/// Readings a time is scaled by: the last ones before it was taken. The
/// host's speed shifts within seconds, so only recent readings describe
/// it.
pub const WINDOW: usize = 7;

/// Bytes the gauge keeps resident for the whole run.
pub const RESIDENT_BYTES: usize = (TABLE_ENTRIES + 2 * KEYS) * std::mem::size_of::<u32>();

/// Nominal readings: gated times are scaled to the host speed at which the
/// gauge reads these. They are near the gauge's medians on the host the
/// benchmark was tuned on, so scaled times read close to raw ones there;
/// only ratios between runs on one host carry meaning.
pub const MEMORY_REFERENCE_S: f64 = 3.8e-3;
pub const COMPUTE_REFERENCE_S: f64 = 1.0e-3;

/// Thread CPU seconds of the two gauge kernels.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub memory: f64,
    pub compute: f64,
}

pub struct Gauge {
    table: Vec<u32>,
    at: u32,
    keys: Vec<u32>,
    scratch: Vec<u32>,
    last: Option<Instant>,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gauge")
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        let mut rng = SeedRng::new(0x6A75_6765, 1);
        Gauge {
            table: single_cycle(TABLE_ENTRIES),
            at: 0,
            keys: (0..KEYS).map(|_| rng.next_u64() as u32).collect(),
            scratch: vec![0; KEYS],
            last: None,
        }
    }

    /// A reading, unless one was taken less than [`INTERVAL_S`] ago.
    pub fn tick(&mut self) -> Option<Reading> {
        if let Some(last) = self.last {
            if last.elapsed().as_secs_f64() < INTERVAL_S {
                return None;
            }
        }
        let r = self.read();
        self.last = Some(Instant::now());
        Some(r)
    }

    /// Compute: sort [`KEYS`] keys in place, then search each of them;
    /// the keys are copied in untimed first, so the reading does not
    /// depend on what the last cell left in the caches. Memory: [`STEPS`]
    /// dependent loads through a random single cycle over the 16 MB
    /// table, continuing where the last reading left it.
    fn read(&mut self) -> Reading {
        self.scratch.copy_from_slice(&self.keys);
        let start = thread_cpu_s();
        self.scratch.sort_unstable();
        let found = self
            .keys
            .iter()
            .filter(|k| self.scratch.binary_search(k).is_ok())
            .count();
        black_box(found);
        let compute = thread_cpu_s() - start;

        let start = thread_cpu_s();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.table[at as usize];
        }
        self.at = black_box(at);
        let memory = thread_cpu_s() - start;
        Reading { memory, compute }
    }
}

/// The factor that scales CPU times measured around these readings to the
/// reference host speed: the geometric mean of the memory and the compute
/// speed ratios (reference over median reading). Not a number when there
/// are no readings.
pub fn scale(readings: &[Reading]) -> f64 {
    if readings.is_empty() {
        return f64::NAN;
    }
    let memory = median(&readings.iter().map(|r| r.memory).collect::<Vec<_>>());
    let compute = median(&readings.iter().map(|r| r.compute).collect::<Vec<_>>());
    (MEMORY_REFERENCE_S / memory * COMPUTE_REFERENCE_S / compute).sqrt()
}

/// A random cyclic permutation of `0..n` (Sattolo's algorithm): following
/// it from any entry visits all `n` before returning.
fn single_cycle(n: usize) -> Vec<u32> {
    let mut rng = SeedRng::new(0x6A75_6765, 0);
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_entry_once() {
        let n = 1000;
        let c = single_cycle(n);
        let mut seen = vec![false; n];
        let mut at = 0usize;
        for _ in 0..n {
            assert!(!seen[at], "entry {} visited twice", at);
            seen[at] = true;
            at = c[at] as usize;
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn readings_are_rate_limited_positive_times() {
        let mut g = Gauge::new();
        let r = g.tick().unwrap();
        assert!(r.memory > 0.0 && r.compute > 0.0, "{:?}", r);
        assert!(g.tick().is_none());
        let s = scale(&[r]);
        assert!(s > 0.0 && s.is_finite());
        assert!(scale(&[]).is_nan());
    }
}
