#!/usr/bin/env bash
# Regenerates the committed benchmark artifacts from a fresh build, so a
# reviewer can reproduce the numbers behind the perf claims in the docs:
#
#   BENCH_artifact_load.json  — cold zero-copy mmap open of a `.sm2`
#     artifact vs one cold sequential read of the same file (the floor of
#     any copy load); the bench exits 2 unless open_vs_read_speedup >= 10.
#   BENCH_growth_engine.json  — the query on a 300k-vertex, 8-label graph
#     at 1/2/8 threads (total, post-growth seconds, closure searches),
#     then closure's E[P] search rooted at stored-star anchors vs the
#     label scan over the returned patterns; the committed file must show
#     rooted_closure_speedup >= 2 with identical rooted and scanned lists
#     and byte-identical top-K across thread counts.
#   BENCH_serve_throughput.json — end-to-end queries/sec of the
#     multi-client socket server (RunServeServer) at 1..8 concurrent
#     connections, real unix-socket clients on the measured path. The
#     speedup bar (last row >= 2x the 1-connection row) is enforced only
#     on machines with >= 4 cores: with one worker-visible core the rows
#     legitimately flatline, and the artifact then records that shape.
#   BENCH_support_measures.json — queries/sec per support measure (the
#     per-query workload knob: greedy MIS / MNI / count / homomorphism /
#     transaction, sampled and not) against one resident session on a
#     50k-vertex graph; the committed file must show
#     hom_vs_mni_qps_ratio >= 0.2 with per-measure transcripts identical
#     across repeats.
#   BENCH_partition_stage1.json — out-of-core partitioned Stage I on a
#     2M-vertex BA graph: wall time + PER-PROCESS peak RSS of each phase
#     (partition / per-partition worker / merge, each a forked child
#     measured via wait4 rusage) vs the single-node baseline. The bar is
#     exactness: the merged .sm2 must be byte-identical to the baseline's
#     (exit 2 otherwise); RSS numbers are trajectory records.
#
#   $ tools/run_bench_trajectory.sh
#
# Numbers vary with hardware; the JSON is a trajectory record, not a test
# oracle. Each bench binary itself exits non-zero when its run misses the
# bar, which fails this script.
set -euo pipefail
cd "$(dirname "$0")/.."

for bench in bench_artifact_load bench_growth_engine bench_parallel_scaling \
             bench_support_measures bench_partition_stage1; do
  if [[ ! -x "build/${bench}" ]]; then
    echo "error: build/${bench} not found; build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

echo "=== bench_artifact_load (synthetic >=100 MB store; ~1 min)"
build/bench_artifact_load > BENCH_artifact_load.json
cat BENCH_artifact_load.json
echo "OK: wrote BENCH_artifact_load.json"

echo "=== bench_growth_engine (300k-vertex graph, 6 queries + A/B; ~1 min)"
build/bench_growth_engine > BENCH_growth_engine.json
cat BENCH_growth_engine.json
echo "OK: wrote BENCH_growth_engine.json"

echo "=== bench_parallel_scaling --concurrent-queries (socket server; ~1 min)"
cores="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
speedup_bar_args=()
if [[ "${cores}" -ge 4 ]]; then
  speedup_bar_args+=(--min-conn-speedup=2.0)
else
  echo "note: ${cores} core(s) visible; serve-throughput speedup bar skipped"
fi
# The bench emits banner comments + one JSON row per connection count;
# strip the banner and wrap the rows into a single valid JSON array.
rows="$(build/bench_parallel_scaling --vertices=20000 --concurrent-queries=8 \
  --queries-per-round=32 "${speedup_bar_args[@]}" | grep -v '^#')"
{
  echo '['
  sed '$!s/$/,/' <<< "${rows}"
  echo ']'
} > BENCH_serve_throughput.json
cat BENCH_serve_throughput.json
echo "OK: wrote BENCH_serve_throughput.json"

echo "=== bench_support_measures (50k-vertex graph, 7 measures x 3; ~1 min)"
build/bench_support_measures > BENCH_support_measures.json
cat BENCH_support_measures.json
echo "OK: wrote BENCH_support_measures.json"

echo "=== bench_partition_stage1 (2M-vertex BA graph; ~5 min)"
build/bench_partition_stage1 > BENCH_partition_stage1.json
cat BENCH_partition_stage1.json
echo "OK: wrote BENCH_partition_stage1.json"
