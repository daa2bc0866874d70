//! Cache-simulator throughput: solo replay, SMT co-run replay, prefetching
//! channel, and the timed core model.

use clop_cachesim::{
    simulate_corun_lines, simulate_corun_nway, simulate_solo_lines, CacheConfig,
    NextLinePrefetchCache, SetAssocCache, SmtSimulator, TimingConfig,
};
use clop_util::bench::{quick, Runner};

fn synthetic_lines(len: usize, span: u64) -> Vec<u64> {
    let mut state = 0xA0761D6478BD642Fu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|i| {
            // Mostly sequential with jumps, like instruction fetch.
            if i % 16 == 0 {
                next() % span
            } else {
                (next() % 4) + (i as u64 % span)
            }
        })
        .collect()
}

fn main() {
    let r = Runner::from_args();
    let cfg = CacheConfig::paper_l1i();
    // Smoke mode: tiny streams, every benchmark body still runs.
    let scale = if quick() { 100 } else { 1 };

    for len in [100_000usize, 1_000_000] {
        let lines = synthetic_lines(len / scale, 2048);
        r.bench_with_elements(
            &format!("cachesim/solo/{}", len),
            Some((len / scale) as u64),
            || simulate_solo_lines(&lines, cfg),
        );
    }

    // The flat tag/stamp-array cache driven directly (no replay wrapper):
    // isolates the raw per-access cost. `solo_flat` runs the batched probe
    // kernel (the production replay path); `solo_scalar` keeps the
    // one-access-at-a-time reference loop. Both rows live in the same run
    // so ci/bench_gate.sh can ratio-guard the batched kernel's speedup
    // over scalar machine-independently.
    {
        let len = 1_000_000 / scale;
        let lines = synthetic_lines(len, 2048);
        r.bench_with_elements(
            &format!("cachesim/solo_flat/{}", len * scale),
            Some(len as u64),
            || {
                let mut cache = SetAssocCache::new(cfg);
                cache.access_batch(&lines);
                cache.stats()
            },
        );
        r.bench_with_elements(
            &format!("cachesim/solo_scalar/{}", len * scale),
            Some(len as u64),
            || {
                let mut cache = SetAssocCache::new(cfg);
                for &l in &lines {
                    cache.access(l);
                }
                cache.stats()
            },
        );
    }

    let a = synthetic_lines(500_000 / scale, 2048);
    let b = synthetic_lines(500_000 / scale, 1024);
    r.bench("cachesim/corun_1m", || simulate_corun_lines(&a, &b, cfg));

    // N-way shared-cache replay (the path `exp_all nway_validation` runs)
    // at constant *total* work: one master stream chunked across the
    // tenants, so every width replays the same access multiset and only
    // the tenant count varies. Per-access cost is O(1) in the tenant
    // count, so ns/iter stays roughly flat across widths (ci/bench_gate.sh
    // guards the 2→4→8 ratio — an O(N)-per-access regression would show
    // ~4× at width 8 and trip it). Quick mode shrinks this block less than
    // the rest: per-run setup (the sets×tenants attribution matrix) is
    // O(N), and the guard should measure the per-access replay cost, not
    // the constructor.
    {
        let total = 600_000 / if quick() { 20 } else { 1 };
        let master = synthetic_lines(total, 2048);
        for n in [2usize, 4, 8] {
            let per = total / n;
            let slices: Vec<&[u64]> = (0..n).map(|t| &master[t * per..(t + 1) * per]).collect();
            r.bench_with_elements(&format!("corun/nway/{}", n), Some(total as u64), || {
                simulate_corun_nway(&slices, cfg)
            });
        }
    }

    let lines = synthetic_lines(500_000 / scale, 2048);
    r.bench("cachesim/prefetch_500k", || {
        let mut cache = NextLinePrefetchCache::new(CacheConfig::paper_l1i());
        for &l in &lines {
            cache.access(l);
        }
        cache.stats()
    });

    let stream: Vec<(u64, u32)> = synthetic_lines(200_000 / scale, 2048)
        .into_iter()
        .map(|l| (l, 12))
        .collect();
    let sim = SmtSimulator::new(TimingConfig::default());
    r.bench("cachesim/timed_solo_200k", || sim.run_solo(&stream));
    r.bench("cachesim/timed_corun_200k", || {
        sim.run_corun(&stream, &stream)
    });
}
