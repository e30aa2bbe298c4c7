#!/usr/bin/env bash
# Diffs the `query --stats` transcripts of two spidermine binaries on the
# benchmark graph (perfbench/graphs.py, imported read-only, with the graph
# spec of perfbench/run.py). Each binary converts the graph and mines its
# own Stage I artifact (`stage1 --support=3`); then both answer
# `query --k=5 --dmax=6 --vmin=20 --stats` for 36 cases:
#   seeds {11, 404, 7, 23, 1001, 58}
#   x measures {vertex-mis, homomorphism,
#               transaction with --txn-map --txn-sample=32}
#   x --threads {1, 3}.
# Only seconds values are masked. Prints a diff for every case that differs
# and exits 1 if any does, 0 if all 36 transcripts are identical.
#
# Usage: tools/diff_query_transcripts.sh OLD_BIN NEW_BIN
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 OLD_BIN NEW_BIN" >&2
  exit 2
fi
old_bin=$(realpath "$1")
new_bin=$(realpath "$2")
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# -B: write no bytecode next to the benchmark's sources.
python3 -B - "$root/perfbench" "$work" <<'EOF'
import os
import sys

sys.path.insert(0, sys.argv[1])
import graphs  # noqa: E402
import run  # noqa: E402

labels, edges, txn_of = graphs.make_graph(run.GRAPH, run.TXN_COUNT)
graphs.write_lg(os.path.join(sys.argv[2], "graph.lg"), labels, edges)
graphs.write_txn_map(os.path.join(sys.argv[2], "graph.txn"), txn_of)
EOF

for side in old new; do
  bin_var="${side}_bin"
  "${!bin_var}" convert "$work/graph.lg" "$work/$side.smg" > /dev/null
  "${!bin_var}" stage1 "$work/$side.smg" --support=3 \
      --out="$work/$side.sm2" > /dev/null
done

measures=(
  "--measure=vertex-mis"
  "--measure=homomorphism"
  "--measure=transaction --txn-map=$work/graph.txn --txn-sample=32"
)
mask_seconds() {
  sed -E 's/\b[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?s\b/<t>s/g'
}

cases=0
differing=0
for seed in 11 404 7 23 1001 58; do
  for measure in "${measures[@]}"; do
    for threads in 1 3; do
      args=(--k=5 --dmax=6 --vmin=20 --stats --seed="$seed"
            --threads="$threads")
      read -r -a extra <<< "$measure"
      for side in old new; do
        bin_var="${side}_bin"
        "${!bin_var}" query "$work/$side.smg" "$work/$side.sm2" "${args[@]}" \
            "${extra[@]}" | mask_seconds > "$work/$side.out"
      done
      cases=$((cases + 1))
      if ! diff_out=$(diff "$work/old.out" "$work/new.out"); then
        differing=$((differing + 1))
        echo "=== seed=$seed threads=$threads ${measure//$work\//}"
        echo "$diff_out"
      fi
    done
  done
done

echo "$differing of $cases cases differ"
[ "$differing" -eq 0 ]
