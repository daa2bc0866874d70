//! TRG construction and reduction throughput across trace lengths, window
//! sizes and slot counts (paper complexity: O(N·Q) construction; the
//! reduction sorts the E edges once and places each of the B blocks once,
//! O(E log E + E + B·K)).
//!
//! The `gcc_bb_test` rows build and reduce the real 403.gcc basic-block
//! graph of the test-input profile under the `bb-trg` pipeline's geometry
//! (60k events, 682 blocks, ~173k edges), at full size in quick mode too:
//! `ci/bench_gate.sh` holds reduce to at most the cost of build on it.

use clop_core::{preprocess_for_bb_reordering, PipelineParams, Profile, ProfileConfig};
use clop_trace::{Granularity, TrimmedTrace};
use clop_trg::{reduce, Trg, TrgConfig};
use clop_util::bench::{quick, Runner};
use clop_workloads::{primary_program, PrimaryBenchmark};

fn synthetic_trace(len: usize, blocks: u32) -> TrimmedTrace {
    let mut state = 0xD1B54A32D192ED03u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
}

fn main() {
    let r = Runner::from_args();
    // Smoke mode: tiny traces, every benchmark body still runs.
    let scale = if quick() { 50 } else { 1 };

    for len in [10_000usize, 50_000, 200_000] {
        let trace = synthetic_trace(len / scale, 128);
        r.bench_with_elements(
            &format!("trg/build/{}", len),
            Some((len / scale) as u64),
            || Trg::build(&trace, 256),
        );
    }

    // Sharded construction at explicit worker counts (bit-identical graph
    // for any count).
    {
        let trace = synthetic_trace(200_000 / scale, 128);
        for jobs in [1usize, 2, 8] {
            r.bench_with_elements(
                &format!("trg/build_sharded/200000/jobs{}", jobs),
                Some(trace.len() as u64),
                || Trg::build_jobs(&trace, 256, jobs),
            );
        }
    }

    let trace = synthetic_trace(50_000 / scale, 128);
    for q in [32usize, 128, 512] {
        r.bench(&format!("trg/window/{}", q), || Trg::build(&trace, q));
    }

    let trg = Trg::build(&trace, 256);
    for k in [8usize, 32, 128] {
        r.bench(&format!("trg/reduce/{}", k), || reduce(&trg, k, &trace));
    }

    r.bench("trg/layout_default", || {
        clop_trg::trg_layout(&trace, TrgConfig::default())
    });

    {
        let w = primary_program(PrimaryBenchmark::Gcc);
        let prepared = preprocess_for_bb_reordering(&w.module)
            .unwrap_or_else(|e| panic!("403.gcc supports BB reordering: {}", e));
        let trace = Profile::collect(&prepared, &ProfileConfig::with_exec(w.test_exec)).bb_trace;
        let config = PipelineParams::for_granularity(Granularity::BasicBlock).trg;
        let trg = Trg::build(&trace, config.window);
        r.bench_with_elements("trg/build/gcc_bb_test", Some(trace.len() as u64), || {
            Trg::build(&trace, config.window)
        });
        r.bench_with_elements(
            "trg/reduce/gcc_bb_test",
            Some(trg.num_edges() as u64),
            || reduce(&trg, config.slots, &trace),
        );
    }
}
