//! Cycle-accounted SMT core model — execution times, speedups, throughput.
//!
//! The paper reports real-machine numbers: solo/co-run speedups (Figures 5
//! and 6, Table II) and hyper-threading throughput (Figure 7). Our stand-in
//! is a deliberately simple two-thread core model with the physics that
//! matter for those experiments:
//!
//! * the core retires **one instruction per cycle**, shared equally between
//!   ready threads (hyper-threads share execution resources, which is why
//!   SMT gains are bounded well below 2×),
//! * an instruction-cache **miss stalls its thread** for a fixed penalty
//!   while the other thread keeps the core busy — overlap of one thread's
//!   stalls with the other's execution is exactly the source of the paper's
//!   15–30% co-run throughput gain (Figure 7a),
//! * a **background stall** (data misses, branch mispredictions, …) of
//!   fixed duty cycle models the non-icache stall time of a real program;
//!   it, too, overlaps in co-run,
//! * the **HwLike** variant runs the shared cache behind a next-line
//!   prefetcher, reproducing the paper's observation that hardware-counted
//!   miss reductions are smaller than simulated ones.
//!
//! Inputs are *timed fetch streams*: `(line, exec_cycles)` pairs, one per
//! cache-line fetch, where `exec_cycles` is the work the thread performs
//! before it needs the next line.

use crate::config::{CacheConfig, CacheStats};
use crate::corun::tag_line;
use crate::icache::SetAssocCache;
use crate::multilevel::TwoLevelCache;
use crate::prefetch::NextLinePrefetchCache;

/// Timing-model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingConfig {
    /// Cache geometry (the paper's 32 KB / 4-way / 64 B by default).
    pub cache: CacheConfig,
    /// Cycles a thread stalls on an instruction-cache miss.
    pub miss_penalty: f64,
    /// Maximum instructions/cycle a *single* thread can extract from the
    /// core (its ILP limit). The core itself retires up to 1.0 IPC total;
    /// with a cap below 1.0, a lone thread leaves issue slots idle that a
    /// hyper-thread can fill — the actual source of SMT throughput gains,
    /// and the reason one thread speeding up does not simply steal the
    /// whole core from its peer.
    pub max_thread_ipc: f64,
    /// A background (non-icache) stall fires after every this many executed
    /// cycles…
    pub background_interval: f64,
    /// …and lasts this many cycles. The pair sets the solo stall fraction
    /// and thereby the SMT throughput-gain regime.
    pub background_stall: f64,
    /// Put a next-line prefetcher in front of the cache (HwLike channel).
    pub prefetch: bool,
    /// Cycles by which thread 1 starts after thread 0 in a co-run. Real
    /// co-scheduled processes never start in the same cycle; without a
    /// stagger, two copies of the same deterministic program stall in
    /// lockstep and their stalls never overlap — an artifact, not physics.
    pub corun_stagger: f64,
    /// Optional shared unified L2 behind the L1. When set, an L1 miss that
    /// hits L2 stalls for `miss_penalty` while an L2 miss stalls for
    /// `memory_penalty` — the differentiated multi-level latencies of the
    /// paper's testbed. Incompatible with `prefetch` (the prefetcher
    /// models the hw channel's front end; pick one refinement at a time).
    pub l2: Option<CacheConfig>,
    /// Stall cycles for an access that misses both levels (only used when
    /// `l2` is set).
    pub memory_penalty: f64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            cache: CacheConfig::paper_l1i(),
            // L1I miss penalty including front-end refill effects.
            miss_penalty: 40.0,
            // A 0.85 ILP cap plus a 30-cycle background stall every 200
            // executed cycles put solo runs ~15-20% under the core's peak
            // and land hyper-threading throughput gains in the paper's
            // 15–30% regime; instruction-cache stalls carry the remaining
            // weight, so layout optimization moves co-run throughput.
            max_thread_ipc: 0.85,
            background_interval: 200.0,
            background_stall: 30.0,
            prefetch: false,
            // Incommensurate with the background interval, so shifted
            // copies of a periodic stall pattern overlap only partially.
            corun_stagger: 137.0,
            l2: None,
            memory_penalty: 200.0,
        }
    }
}

impl TimingConfig {
    /// The HwLike channel: default timing with the prefetcher enabled.
    pub fn hw_like() -> Self {
        TimingConfig {
            prefetch: true,
            ..Default::default()
        }
    }
}

/// Outcome of one thread in a timed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadOutcome {
    /// Cycle at which the thread finished its stream.
    pub finish_cycles: f64,
    /// Demand cache statistics of this thread.
    pub stats: CacheStats,
}

/// Outcome of a solo timed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimedRun {
    /// Total cycles to drain the stream.
    pub cycles: f64,
    /// Demand cache statistics.
    pub stats: CacheStats,
}

enum AnyCache {
    Plain(SetAssocCache),
    Prefetch(NextLinePrefetchCache),
    TwoLevel(TwoLevelCache),
}

/// What one demand access cost, as a stall multiplier on the miss penalty.
enum AccessCost {
    Hit,
    /// Missed L1 (stall = miss_penalty).
    L1Miss,
    /// Missed both levels (stall = memory_penalty).
    FullMiss,
}

impl AnyCache {
    fn new(cfg: &TimingConfig) -> Self {
        if let Some(l2) = cfg.l2 {
            assert!(
                !cfg.prefetch,
                "l2 and prefetch refinements are mutually exclusive"
            );
            AnyCache::TwoLevel(TwoLevelCache::new(cfg.cache, l2))
        } else if cfg.prefetch {
            AnyCache::Prefetch(NextLinePrefetchCache::new(cfg.cache))
        } else {
            AnyCache::Plain(SetAssocCache::new(cfg.cache))
        }
    }

    fn access(&mut self, line: u64) -> AccessCost {
        match self {
            AnyCache::Plain(c) => {
                if c.access(line) {
                    AccessCost::Hit
                } else {
                    AccessCost::L1Miss
                }
            }
            AnyCache::Prefetch(c) => {
                if c.access(line) {
                    AccessCost::Hit
                } else {
                    AccessCost::L1Miss
                }
            }
            AnyCache::TwoLevel(c) => match c.access(line) {
                crate::multilevel::Level::L1 => AccessCost::Hit,
                crate::multilevel::Level::L2 => AccessCost::L1Miss,
                crate::multilevel::Level::Memory => AccessCost::FullMiss,
            },
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum ThreadState {
    /// Executing the current segment; `f64` cycles of work remain.
    Exec(f64),
    /// Stalled until the given absolute cycle, then `f64` work remains.
    Stall {
        until: f64,
        then_exec: f64,
    },
    Done,
}

struct Thread<'a> {
    stream: &'a [(u64, u32)],
    idx: usize,
    state: ThreadState,
    /// Executed cycles since the last background stall fired.
    background_credit: f64,
    stats: CacheStats,
    finish: f64,
}

/// The SMT core simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmtSimulator {
    pub config: TimingConfig,
}

impl SmtSimulator {
    /// A simulator with the given timing configuration.
    pub fn new(config: TimingConfig) -> Self {
        SmtSimulator { config }
    }

    /// Run one timed fetch stream alone on the core.
    pub fn run_solo(&self, stream: &[(u64, u32)]) -> TimedRun {
        let outcomes = self.run_streams(&[stream]);
        TimedRun {
            cycles: outcomes[0].finish_cycles,
            stats: outcomes[0].stats,
        }
    }

    /// Run two timed fetch streams as hyper-threads sharing the core and
    /// the instruction cache. Returns per-thread outcomes; the co-run
    /// completes at the max of the two finish times.
    pub fn run_corun(&self, a: &[(u64, u32)], b: &[(u64, u32)]) -> [ThreadOutcome; 2] {
        let outcomes = self.run_streams(&[a, b]);
        [outcomes[0], outcomes[1]]
    }

    fn run_streams(&self, streams: &[&[(u64, u32)]]) -> Vec<ThreadOutcome> {
        let cfg = &self.config;
        let mut cache = AnyCache::new(cfg);
        let mut threads: Vec<Thread> = streams
            .iter()
            .map(|s| Thread {
                stream: s,
                idx: 0,
                state: ThreadState::Exec(0.0),
                background_credit: 0.0,
                stats: CacheStats::default(),
                finish: 0.0,
            })
            .collect();

        let mut t = 0.0f64;
        // Thread 0 issues its first fetch at time zero; later threads are
        // staggered (a zero-work stall whose expiry triggers their first
        // fetch via the normal segment-drain path).
        for (ti, th) in threads.iter_mut().enumerate() {
            if ti == 0 || cfg.corun_stagger <= 0.0 {
                Self::begin_next_segment(cfg, &mut cache, th, ti, t);
            } else {
                th.state = ThreadState::Stall {
                    until: cfg.corun_stagger * ti as f64,
                    then_exec: 0.0,
                };
            }
        }

        loop {
            // Wake stalled threads whose stall has expired.
            for th in threads.iter_mut() {
                if let ThreadState::Stall { until, then_exec } = th.state {
                    if until <= t {
                        th.state = ThreadState::Exec(then_exec);
                    }
                }
            }

            let ready: Vec<usize> = threads
                .iter()
                .enumerate()
                .filter(|(_, th)| matches!(th.state, ThreadState::Exec(_)))
                .map(|(i, _)| i)
                .collect();

            if ready.is_empty() {
                // Advance to the earliest stall expiry, or finish.
                let next = threads
                    .iter()
                    .filter_map(|th| match th.state {
                        ThreadState::Stall { until, .. } => Some(until),
                        _ => None,
                    })
                    .fold(f64::INFINITY, f64::min);
                if next.is_infinite() {
                    break; // all done
                }
                t = next;
                continue;
            }

            // Ready threads split the core's 1.0 IPC, each capped at its
            // ILP limit: a lone thread runs at max_thread_ipc, two ready
            // threads at 0.5 each.
            let share = (1.0 / ready.len() as f64).min(cfg.max_thread_ipc);
            // Time until the first ready thread drains its segment…
            let mut dt = ready
                .iter()
                .map(|&i| match threads[i].state {
                    ThreadState::Exec(rem) => rem / share,
                    _ => unreachable!(),
                })
                .fold(f64::INFINITY, f64::min);
            // …or a stalled thread wakes (changing the share).
            for th in &threads {
                if let ThreadState::Stall { until, .. } = th.state {
                    dt = dt.min(until - t);
                }
            }
            debug_assert!(dt >= 0.0);
            // Guard against zero-length steps caused by zero-work segments.
            let step = dt.max(0.0);
            t += step;
            for &i in &ready {
                if let ThreadState::Exec(rem) = threads[i].state {
                    let done_work = step * share;
                    let left = rem - done_work;
                    threads[i].background_credit += done_work;
                    if left <= 1e-9 {
                        // Segment drained: fetch the next line.
                        Self::begin_next_segment(cfg, &mut cache, &mut threads[i], i, t);
                    } else {
                        threads[i].state = ThreadState::Exec(left);
                    }
                }
            }
        }

        threads
            .into_iter()
            .map(|th| ThreadOutcome {
                finish_cycles: th.finish,
                stats: th.stats,
            })
            .collect()
    }

    /// Move `th` to its next stream element at time `t`: access the cache,
    /// apply miss and background stalls, set the new segment's work.
    fn begin_next_segment(
        cfg: &TimingConfig,
        cache: &mut AnyCache,
        th: &mut Thread,
        thread_index: usize,
        t: f64,
    ) {
        if th.idx >= th.stream.len() {
            if !matches!(th.state, ThreadState::Done) {
                th.state = ThreadState::Done;
                th.finish = t;
            }
            return;
        }
        let (line, exec) = th.stream[th.idx];
        th.idx += 1;
        let cost = cache.access(tag_line(line, thread_index));
        th.stats.record(matches!(cost, AccessCost::Hit));

        let mut stall = match cost {
            AccessCost::Hit => 0.0,
            AccessCost::L1Miss => cfg.miss_penalty,
            AccessCost::FullMiss => cfg.memory_penalty,
        };
        while th.background_credit >= cfg.background_interval {
            th.background_credit -= cfg.background_interval;
            stall += cfg.background_stall;
        }
        let exec = exec as f64;
        if stall > 0.0 {
            th.state = ThreadState::Stall {
                until: t + stall,
                then_exec: exec,
            };
        } else {
            th.state = ThreadState::Exec(exec);
        }
    }
}

/// Throughput improvement of finishing both programs via co-run instead of
/// back-to-back solo runs: `(solo_a + solo_b) / corun_makespan − 1`.
/// This is the paper's Figure 7 metric.
pub fn throughput_improvement(solo_a: f64, solo_b: f64, corun: [ThreadOutcome; 2]) -> f64 {
    let makespan = corun[0].finish_cycles.max(corun[1].finish_cycles);
    (solo_a + solo_b) / makespan - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream of `n` fetches over `lines` distinct lines, `exec` cycles
    /// of work each.
    fn looped_stream(lines: u64, n: usize, exec: u32) -> Vec<(u64, u32)> {
        (0..n).map(|i| (i as u64 % lines, exec)).collect()
    }

    fn no_background(mut c: TimingConfig) -> TimingConfig {
        c.background_interval = f64::INFINITY;
        c.background_stall = 0.0;
        c
    }

    #[test]
    fn solo_time_is_exec_plus_miss_stalls() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        // 4-line loop fits the cache: 4 cold misses, rest hits. A lone
        // thread executes at its ILP cap, not the core's full rate.
        let stream = looped_stream(4, 100, 10);
        let run = sim.run_solo(&stream);
        let expected = 100.0 * 10.0 / cfg.max_thread_ipc + 4.0 * cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 1e-6,
            "{} vs {}",
            run.cycles,
            expected
        );
        assert_eq!(run.stats.misses, 4);
    }

    #[test]
    fn background_stalls_add_duty_cycle() {
        let cfg = TimingConfig {
            background_interval: 100.0,
            background_stall: 25.0,
            ..Default::default()
        };
        let sim = SmtSimulator::new(cfg);
        let stream = looped_stream(1, 100, 10); // 1000 exec cycles, 1 miss
        let run = sim.run_solo(&stream);
        // ~10 background stalls of 25 cycles + 1 miss on top of the
        // ILP-capped execution time.
        let expected = 1000.0 / cfg.max_thread_ipc + 9.0 * 25.0 + cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 30.0,
            "{} vs {}",
            run.cycles,
            expected
        );
    }

    #[test]
    fn corun_without_stalls_serializes_execution() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(2, 50, 10);
        let b = looped_stream(2, 50, 10);
        let solo = sim.run_solo(&a).cycles;
        let corun = sim.run_corun(&a, &b);
        let makespan = corun[0].finish_cycles.max(corun[1].finish_cycles);
        // Execution is the bottleneck: the core retires 1.0 IPC total, so
        // the makespan is at least the combined exec work (2 × 500 cycles).
        assert!(
            makespan >= 2.0 * 500.0 - 1e-6,
            "makespan {} vs solo {}",
            makespan,
            solo
        );
        // But co-run still beats back-to-back solo runs, which pay the ILP
        // cap twice.
        assert!(makespan < 2.0 * solo);
    }

    #[test]
    fn corun_overlaps_stalls_for_throughput_gain() {
        // Heavy background stalls: co-run should overlap them, finishing
        // both programs faster than back-to-back solo.
        let mut cfg = no_background(TimingConfig::default());
        cfg.background_interval = 100.0;
        cfg.background_stall = 40.0;
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(4, 400, 10);
        let b = looped_stream(4, 400, 10);
        let sa = sim.run_solo(&a).cycles;
        let sb = sim.run_solo(&b).cycles;
        let co = sim.run_corun(&a, &b);
        let gain = throughput_improvement(sa, sb, co);
        assert!(
            gain > 0.10 && gain < 0.60,
            "SMT gain in plausible band, got {}",
            gain
        );
    }

    #[test]
    fn corun_contention_inflates_misses() {
        // Two threads whose combined working set exceeds the cache: each
        // sees more misses in co-run than solo.
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        // Paper cache holds 512 lines → two 400-line loops overflow it.
        let a = looped_stream(400, 4000, 4);
        let b = looped_stream(400, 4000, 4);
        let solo = sim.run_solo(&a);
        let co = sim.run_corun(&a, &b);
        assert!(
            co[0].stats.miss_ratio() > solo.stats.miss_ratio(),
            "co-run miss {} vs solo {}",
            co[0].stats.miss_ratio(),
            solo.stats.miss_ratio()
        );
    }

    #[test]
    fn prefetch_channel_reduces_sequential_misses() {
        let plain = SmtSimulator::new(no_background(TimingConfig::default()));
        let hw = SmtSimulator::new(no_background(TimingConfig::hw_like()));
        // Sequential sweep over 4096 lines (doesn't fit): plain misses all,
        // prefetch absorbs about half.
        let stream: Vec<(u64, u32)> = (0..4096u64).map(|l| (l, 4)).collect();
        let p = plain.run_solo(&stream);
        let h = hw.run_solo(&stream);
        assert!(h.stats.misses < p.stats.misses / 2 + 100);
    }

    #[test]
    fn empty_stream_finishes_instantly() {
        let sim = SmtSimulator::default();
        let run = sim.run_solo(&[]);
        assert_eq!(run.cycles, 0.0);
        assert_eq!(run.stats.accesses, 0);
    }

    #[test]
    fn asymmetric_corun_short_thread_finishes_first() {
        let cfg = no_background(TimingConfig::default());
        let sim = SmtSimulator::new(cfg);
        let a = looped_stream(2, 10, 10);
        let b = looped_stream(2, 1000, 10);
        let co = sim.run_corun(&a, &b);
        assert!(co[0].finish_cycles < co[1].finish_cycles);
        // After A finishes, B runs at full rate; B's finish is below the
        // fully-shared bound of 2× its solo time.
        let sb = sim.run_solo(&b).cycles;
        assert!(co[1].finish_cycles < 2.0 * sb);
    }

    #[test]
    fn deterministic() {
        let sim = SmtSimulator::default();
        let a = looped_stream(8, 500, 7);
        let b = looped_stream(16, 300, 9);
        let r1 = sim.run_corun(&a, &b);
        let r2 = sim.run_corun(&a, &b);
        assert_eq!(r1, r2);
    }

    #[test]
    fn two_level_timing_differentiates_penalties() {
        // A 16-line loop over an 8-line L1 + 64-line L2: after warm-up,
        // every access misses L1 but hits L2, so total time carries the
        // L2 penalty, not the memory penalty.
        let mut cfg = no_background(TimingConfig::default());
        cfg.cache = CacheConfig::new(512, 2, 64); // 8 lines
        cfg.l2 = Some(CacheConfig::new(4096, 4, 64)); // 64 lines
        cfg.miss_penalty = 10.0;
        cfg.memory_penalty = 100.0;
        let sim = SmtSimulator::new(cfg);
        let stream = looped_stream(16, 320, 4);
        let run = sim.run_solo(&stream);
        // 16 cold full misses; the rest are L1 misses served by L2.
        let expected = 320.0 * 4.0 / cfg.max_thread_ipc
            + 16.0 * cfg.memory_penalty
            + (320.0 - 16.0) * cfg.miss_penalty;
        assert!(
            (run.cycles - expected).abs() < 1.0,
            "{} vs {}",
            run.cycles,
            expected
        );
        // Without the L2, every one of those misses would pay the same
        // flat penalty.
        let mut flat = cfg;
        flat.l2 = None;
        let flat_run = SmtSimulator::new(flat).run_solo(&stream);
        assert!(flat_run.cycles < run.cycles);
    }

    #[test]
    fn two_level_small_working_set_matches_plain() {
        // Fits L1: the L2 never matters.
        let mut cfg = no_background(TimingConfig::default());
        cfg.l2 = Some(CacheConfig::new(256 * 1024, 8, 64));
        let two = SmtSimulator::new(cfg).run_solo(&looped_stream(4, 100, 10));
        let mut plain = cfg;
        plain.l2 = None;
        let one = SmtSimulator::new(plain).run_solo(&looped_stream(4, 100, 10));
        // Same misses; the 4 cold misses pay memory vs flat penalty.
        assert_eq!(two.stats.misses, one.stats.misses);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn l2_and_prefetch_conflict() {
        let mut cfg = TimingConfig::hw_like();
        cfg.l2 = Some(CacheConfig::new(256 * 1024, 8, 64));
        SmtSimulator::new(cfg).run_solo(&[(0, 4)]);
    }

    #[test]
    fn throughput_improvement_formula() {
        let co = [
            ThreadOutcome {
                finish_cycles: 100.0,
                stats: CacheStats::default(),
            },
            ThreadOutcome {
                finish_cycles: 120.0,
                stats: CacheStats::default(),
            },
        ];
        let g = throughput_improvement(80.0, 70.0, co);
        assert!((g - (150.0 / 120.0 - 1.0)).abs() < 1e-12);
    }
}
