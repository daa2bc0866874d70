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
}

impl AnyCache {
    fn new(cfg: &TimingConfig) -> Self {
        if cfg.prefetch {
            AnyCache::Prefetch(NextLinePrefetchCache::new(cfg.cache))
        } else {
            AnyCache::Plain(SetAssocCache::new(cfg.cache))
        }
    }

    /// Demand access; true on a hit.
    fn access(&mut self, line: u64) -> bool {
        match self {
            AnyCache::Plain(c) => c.access(line),
            AnyCache::Prefetch(c) => c.access(line),
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
        let [o] = self.run([stream]);
        TimedRun {
            cycles: o.finish_cycles,
            stats: o.stats,
        }
    }

    /// Run two timed fetch streams as hyper-threads sharing the core and
    /// the instruction cache. Returns per-thread outcomes; the co-run
    /// completes at the max of the two finish times.
    pub fn run_corun(&self, a: &[(u64, u32)], b: &[(u64, u32)]) -> [ThreadOutcome; 2] {
        self.run([a, b])
    }

    /// The event loop: `N` hardware threads over one core and one cache.
    /// Nothing is allocated per step; each step wakes expired stalls,
    /// advances time to the next segment drain or stall expiry, and
    /// credits the ready threads' work.
    fn run<const N: usize>(&self, streams: [&[(u64, u32)]; N]) -> [ThreadOutcome; N] {
        let cfg = &self.config;
        let mut cache = AnyCache::new(cfg);
        let mut threads = streams.map(|stream| Thread {
            stream,
            idx: 0,
            state: ThreadState::Exec(0.0),
            background_credit: 0.0,
            stats: CacheStats::default(),
            finish: 0.0,
        });

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
            // Wake stalled threads whose stall has expired; count the
            // threads ready to execute.
            let mut ready = 0usize;
            for th in threads.iter_mut() {
                if let ThreadState::Stall { until, then_exec } = th.state {
                    if until <= t {
                        th.state = ThreadState::Exec(then_exec);
                    }
                }
                ready += matches!(th.state, ThreadState::Exec(_)) as usize;
            }

            if ready == 0 {
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
            let share = (1.0 / ready as f64).min(cfg.max_thread_ipc);
            // Time until the first ready thread drains its segment or a
            // stalled thread wakes (changing the share).
            let dt = threads
                .iter()
                .map(|th| match th.state {
                    ThreadState::Exec(rem) => rem / share,
                    ThreadState::Stall { until, .. } => until - t,
                    ThreadState::Done => f64::INFINITY,
                })
                .fold(f64::INFINITY, f64::min);
            debug_assert!(dt >= 0.0);
            // Guard against zero-length steps caused by zero-work segments.
            let step = dt.max(0.0);
            t += step;
            // Only a thread's own update changes its state, so the threads
            // in `Exec` here are exactly the ones counted ready above.
            for (i, th) in threads.iter_mut().enumerate() {
                if let ThreadState::Exec(rem) = th.state {
                    let done_work = step * share;
                    let left = rem - done_work;
                    th.background_credit += done_work;
                    if left <= 1e-9 {
                        // Segment drained: fetch the next line.
                        Self::begin_next_segment(cfg, &mut cache, th, i, t);
                    } else {
                        th.state = ThreadState::Exec(left);
                    }
                }
            }
        }

        threads.map(|th| ThreadOutcome {
            finish_cycles: th.finish,
            stats: th.stats,
        })
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
        let hit = cache.access(tag_line(line, thread_index));
        th.stats.record(hit);

        let mut stall = if hit { 0.0 } else { cfg.miss_penalty };
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

    /// Seeded fetch stream mixing sequential runs (which the prefetcher
    /// covers) with jumps across a ~1200-line footprint (overflowing the
    /// 512-line cache); `exec` includes zero-work segments.
    fn seeded_stream(seed: u64, n: usize) -> Vec<(u64, u32)> {
        let mut x = seed;
        let mut next = move || {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut line = 0u64;
        (0..n)
            .map(|_| {
                let r = next();
                line = if r % 4 == 0 {
                    (r >> 8) % 1200
                } else {
                    line + 1
                };
                (line, ((r >> 40) % 13) as u32)
            })
            .collect()
    }

    /// Every timed run the pinning test checks, in order: per stream pair,
    /// solo A and solo B under `default()`, `hw_like()` and a short
    /// background interval, then the co-run under those three and under
    /// `default()` and `hw_like()` with `corun_stagger = 0`.
    fn pinned_outcomes() -> Vec<ThreadOutcome> {
        let stagger0 = |mut c: TimingConfig| {
            c.corun_stagger = 0.0;
            c
        };
        let configs = [
            TimingConfig::default(),
            TimingConfig::hw_like(),
            TimingConfig {
                background_interval: 7.3,
                ..TimingConfig::default()
            },
            stagger0(TimingConfig::default()),
            stagger0(TimingConfig::hw_like()),
        ];
        let mut out = Vec::new();
        for (seed, na, nb) in [(1u64, 3000, 2500), (7, 1800, 3600)] {
            let a = seeded_stream(seed, na);
            let b = seeded_stream(seed ^ 0xABCD, nb);
            for cfg in &configs[..3] {
                let sim = SmtSimulator::new(*cfg);
                for s in [&a, &b] {
                    let r = sim.run_solo(s);
                    out.push(ThreadOutcome {
                        finish_cycles: r.cycles,
                        stats: r.stats,
                    });
                }
            }
            for cfg in &configs {
                out.extend(SmtSimulator::new(*cfg).run_corun(&a, &b));
            }
        }
        out
    }

    /// `(finish_cycles.to_bits(), accesses, misses)` of [`pinned_outcomes`].
    /// The paper's speedup goldens rest on these exact cycles: any change to
    /// the order of the `f64` operations or of the cache accesses moves the
    /// bits, so recapture them only for an intended change to the model.
    const PINNED: [(u64, u64, u64); 32] = [
        (0x40f89da787878794, 3000, 1926),
        (0x40f49c52d2d2d2e6, 2500, 1617),
        (0x40f12a27878787a4, 3000, 1163),
        (0x40ec8ba5a5a5a5bf, 2500, 968),
        (0x4104fad3c3c3c3be, 3000, 1926),
        (0x410180596969695d, 2500, 1617),
        (0x40fdb2f0c0c0c0de, 3000, 2394),
        (0x40f930ac0c0c0c2c, 2500, 2030),
        (0x40f4578c0c0c0c18, 3000, 1406),
        (0x40f16f475757576d, 2500, 1206),
        (0x41075af0cccccce8, 3000, 2395),
        (0x41039afe72727290, 2500, 2027),
        (0x40fdcd5b4b4b4adf, 3000, 2400),
        (0x40f9248696969635, 2500, 2024),
        (0x40f442b69696966c, 3000, 1405),
        (0x40f15be1e1e1e1be, 2500, 1209),
        (0x40eda44f0f0f0f38, 1800, 1161),
        (0x40fd34d696969689, 3600, 2269),
        (0x40e4714f0f0f0f27, 1800, 690),
        (0x40f46fd6969696a3, 3600, 1371),
        (0x40f93c6787878789, 1800, 1161),
        (0x410921bb4b4b4b3a, 3600, 2269),
        (0x40f1ca9aeaeaeadd, 1800, 1428),
        (0x410091acfcfcfce3, 3600, 2631),
        (0x40e8ae5818181885, 1800, 846),
        (0x40f6e46b1b1b1b42, 3600, 1558),
        (0x40fc18de1e1e1bd8, 1800, 1430),
        (0x410b087e9696955e, 3600, 2631),
        (0x40f1d77696969674, 1800, 1431),
        (0x410093d2d2d2d2ab, 3600, 2634),
        (0x40e888cb4b4b4b04, 1800, 845),
        (0x40f6c914b4b4b487, 3600, 1557),
    ];

    #[test]
    fn timed_core_is_pinned_bit_for_bit() {
        let got: Vec<(u64, u64, u64)> = pinned_outcomes()
            .iter()
            .map(|o| (o.finish_cycles.to_bits(), o.stats.accesses, o.stats.misses))
            .collect();
        assert_eq!(got, PINNED);
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
