#!/usr/bin/env bash
# Bench regression gate: run the benchmark suite in quick (smoke) mode
# with JSON output — twice — then compare every named benchmark's
# best-of-two ns/iter against the committed BENCH_baseline.json. Fails on
# regressions beyond the tolerance (CLOP_BENCH_TOLERANCE, default 25%,
# plus a small absolute slack — see crates/bench/src/bin/bench_gate.rs).
# Two runs because noise only inflates a measurement: a real regression
# shows up in both, a scheduler hiccup in at most one.
#
# Refresh the baseline after an intentional performance change with:
#   ci/refresh_bench_baseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out1="$PWD/target/bench_gate_run1.json"
out2="$PWD/target/bench_gate_run2.json"
mkdir -p "$PWD/target"
rm -f "$out1" "$out2"

CLOP_BENCH_QUICK=1 CLOP_BENCH_JSON="$out1" cargo bench -p clop-bench
CLOP_BENCH_QUICK=1 CLOP_BENCH_JSON="$out2" cargo bench -p clop-bench

# Ratio guards: adaptive shard sizing must keep parallel analysis from
# ever losing to the sequential pass — on any machine, at any worker
# count. The corun/nway rows replay the same *total* access count split
# across N tenants through `simulate_corun_nway` (one shared L1i, the
# batched kernel plus per-tenant eviction attribution), so per-access
# cost staying O(1) in the tenant count keeps the ns/iter ratio across
# widths near 1 (the allowance covers the per-width setup and the
# sets × tenants attribution state; an O(N)-per-access regression would
# measure ~4× at width 8 and fail). Both sides of each guard come from
# the same runs, so the checks are independent of absolute machine
# speed.
# The serve/ingest guard proves the client session layer (deadlines,
# backoff, idempotent-resend bookkeeping) costs at most 5% over a bare
# socket on fault-free ingest — robustness must be free when nothing
# fails. Both rows round-trip the same shards to the same daemon in the
# same run.
# The cachesim guard holds the batched SIMD replay kernel to at most
# 0.40× the scalar reference loop's ns/iter (i.e. at least 2.5× faster)
# on identical streams from the same run — if a change quietly knocks
# the batched path back to scalar speed, the ratio hits ~1.0 and fails
# regardless of machine. The trace guard does the same for container
# ingest: columnar (v2) payloads must never read slower than the row
# (v1) format they replace.
# The TRG guard holds Algorithm 2's reduction to at most the cost of
# building the graph it reduces, on the real 403.gcc basic-block graph
# (~173k edges): reduction is one sort of the edges plus one placement per
# block, so a change that slides back to per-edge hashing or heap churn
# (~5x build) fails on any machine.
# The bb-affinity guard holds one whole bb-affinity `optimize` on sjeng's
# test input to at most 20x the profiling run it starts with. Threshold
# measurement is most of that call: with pendings stored as runs of equal
# backward witness it reads ~12x, with one pending per occurrence ~23x,
# so a slide back to per-occurrence storage fails. The bound sits above
# the midpoint because the row is a single parallel (jobs 2) call that
# noisy 2-vCPU hosts inflate more than the profiling row.
# The static/locality ceiling is absolute: the trace-free locality pass
# (working sets, synthetic reuse/footprint, Eq-1 composition, conflict
# term) must finish under 1 ms on the largest registry workload — the
# budget the pre-filter hook's "rank before you simulate" contract rests
# on. The profile and link components it consumes are gated relatively
# via their own baseline rows (static/profile, static/link,
# static/score), which tolerate machine-speed drift the way every other
# row does.
cargo run -q --release -p clop-bench --bin bench_gate -- \
  --guard affinity/sharded/200000/jobs2 affinity/sharded/200000/jobs1 1.25 \
  --guard affinity/sharded/200000/jobs8 affinity/sharded/200000/jobs1 1.25 \
  --guard trg/build_sharded/200000/jobs2 trg/build_sharded/200000/jobs1 1.25 \
  --guard trg/build_sharded/200000/jobs8 trg/build_sharded/200000/jobs1 1.25 \
  --guard corun/nway/4 corun/nway/2 1.40 \
  --guard corun/nway/8 corun/nway/2 1.80 \
  --guard serve/ingest/session serve/ingest/raw 1.05 \
  --guard cachesim/solo_flat/1000000 cachesim/solo_scalar/1000000 0.40 \
  --guard trace/read_container_v2/loopy_4m trace/read_container_v1/loopy_4m 1.00 \
  --guard trg/reduce/gcc_bb_test trg/build/gcc_bb_test 1.0 \
  --guard e2e/optimize/bb-affinity e2e/profile_only 20 \
  --ceiling static/locality/403.gcc 1000000 \
  BENCH_baseline.json "$out1" "$out2"
