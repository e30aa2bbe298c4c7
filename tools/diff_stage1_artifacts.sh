#!/usr/bin/env bash
# Checks that two spidermine binaries write byte-identical Stage I
# artifacts on the benchmark graph (perfbench/graphs.py, imported
# read-only, with the graph spec of perfbench/run.py). Each binary
# converts the graph and runs:
#   stage1 --support=3 --threads=1
#   stage1 --support=3 --threads=3
#   stage1 --support=3 --workers=2 --partitions=3 --keep-parts
# Then every .sm2, .sm2p and .smgp pair is compared with cmp, and each
# binary answers `query --k=5 --dmax=6 --vmin=20 --stats --seed=11` on the
# OTHER binary's .sm2; the two transcripts must match with only seconds
# values masked. Prints each difference and exits 1 if any, 0 otherwise.
#
# Usage: tools/diff_stage1_artifacts.sh OLD_BIN NEW_BIN
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

labels, edges, _ = graphs.make_graph(run.GRAPH, run.TXN_COUNT)
graphs.write_lg(os.path.join(sys.argv[2], "graph.lg"), labels, edges)
EOF

for side in old new; do
  bin_var="${side}_bin"
  bin="${!bin_var}"
  mkdir "$work/$side"
  "$bin" convert "$work/graph.lg" "$work/$side/graph.smg" > /dev/null
  for threads in 1 3; do
    "$bin" stage1 "$work/$side/graph.smg" --support=3 --threads="$threads" \
        --out="$work/$side/threads$threads.sm2" > /dev/null
  done
  "$bin" stage1 "$work/$side/graph.smg" --support=3 --workers=2 \
      --partitions=3 --keep-parts --out="$work/$side/workers.sm2" > /dev/null
done

differing=0
compared=0
while IFS= read -r rel; do
  compared=$((compared + 1))
  if [ ! -f "$work/new/$rel" ]; then
    echo "=== $rel: written by OLD_BIN only"
    differing=$((differing + 1))
  elif ! cmp "$work/old/$rel" "$work/new/$rel"; then
    differing=$((differing + 1))
  fi
done < <(cd "$work/old" && find . \( -name '*.sm2' -o -name '*.sm2p' \
             -o -name '*.smgp' \) | sort)
while IFS= read -r rel; do
  if [ ! -f "$work/old/$rel" ]; then
    echo "=== $rel: written by NEW_BIN only"
    differing=$((differing + 1))
  fi
done < <(cd "$work/new" && find . \( -name '*.sm2' -o -name '*.sm2p' \
             -o -name '*.smgp' \) | sort)

mask_seconds() {
  sed -E 's/\b[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?s\b/<t>s/g'
}
query=(--k=5 --dmax=6 --vmin=20 --stats --seed=11)
"$old_bin" query "$work/old/graph.smg" "$work/new/threads1.sm2" \
    "${query[@]}" | mask_seconds > "$work/old_on_new.out"
"$new_bin" query "$work/new/graph.smg" "$work/old/threads1.sm2" \
    "${query[@]}" | mask_seconds > "$work/new_on_old.out"
if ! diff_out=$(diff "$work/old_on_new.out" "$work/new_on_old.out"); then
  differing=$((differing + 1))
  echo "=== query transcripts (OLD_BIN on new .sm2 vs NEW_BIN on old .sm2)"
  echo "$diff_out"
fi

echo "$differing difference(s): $compared artifact pairs + 1 query pair"
[ "$differing" -eq 0 ]
