#!/usr/bin/env bash
# Diffs what two spidermine binaries print for the same queries on the
# benchmark graph (perfbench/graphs.py, imported read-only, with the graph
# spec of perfbench/run.py), through both query front ends. Each binary
# converts the graph and mines its own Stage I artifact
# (`stage1 --support=3`); then both answer 36 cases
#   seeds {11, 404, 7, 23, 1001, 58}
#   x measures {vertex-mis, homomorphism,
#               transaction with --txn-map --txn-sample=32}
#   x --threads {1, 3}
# twice: as `query --k=5 --dmax=6 --vmin=20 --stats` transcripts, and as
# JSON request lines sent to one `serve` process per --threads value over
# stdin (responses sorted; they complete out of order). Only seconds
# values are masked. A case differs when either its transcript or its
# serve response does. The usage texts of `mine`, `query`, `stage1` and
# `serve` (each run with no positional argument) are diffed too. Prints a
# diff for everything that differs and exits 1 if anything does, 0 if all
# 36 cases, the serve acknowledgments and the 4 usage texts are identical.
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

seeds=(11 404 7 23 1001 58)
# The serve request of a measure case: its JSON keys after "measure".
request_keys() {
  case "$1" in
    *transaction*) echo '"measure":"transaction","txn_sample":32' ;;
    *) echo "\"measure\":\"${1#--measure=}\"" ;;
  esac
}
for threads in 1 3; do
  requests=""
  for seed in "${seeds[@]}"; do
    for measure in "${measures[@]}"; do
      requests+="{\"id\":\"$seed/$threads/${measure%% *}\",\"k\":5,"
      requests+="\"dmax\":6,\"vmin\":20,\"seed\":$seed,"
      requests+="$(request_keys "$measure")}"$'\n'
    done
  done
  requests+='{"cmd":"shutdown"}'
  for side in old new; do
    bin_var="${side}_bin"
    printf '%s\n' "$requests" |
        "${!bin_var}" serve "$work/$side.smg" "$work/$side.sm2" \
            --txn-map="$work/graph.txn" --threads="$threads" \
            --max-inflight=2 --quiet 2> "$work/serve.err" |
        sed -E 's/"seconds":[0-9.]+/"seconds":<t>/' |
        sort > "$work/$side.serve$threads"
    # 18 responses and the acknowledgment, or the serve leg proves nothing.
    if [ "$(wc -l < "$work/$side.serve$threads")" -ne 19 ]; then
      echo "$side serve --threads=$threads answered incompletely:" >&2
      cat "$work/serve.err" "$work/$side.serve$threads" >&2
      exit 2
    fi
  done
done

cases=0
differing=0
for seed in "${seeds[@]}"; do
  for measure in "${measures[@]}"; do
    for threads in 1 3; do
      args=(--k=5 --dmax=6 --vmin=20 --stats --seed="$seed"
            --threads="$threads")
      read -r -a extra <<< "$measure"
      id="\"id\":\"$seed/$threads/${measure%% *}\""
      for side in old new; do
        bin_var="${side}_bin"
        {
          "${!bin_var}" query "$work/$side.smg" "$work/$side.sm2" \
              "${args[@]}" "${extra[@]}" | mask_seconds
          echo "serve: $(grep -F "$id" "$work/$side.serve$threads")"
        } > "$work/$side.out"
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

# Lines outside the cases: the shutdown acknowledgments.
other=0
for threads in 1 3; do
  if ! diff_out=$(diff <(grep -v '"id":"' "$work/old.serve$threads") \
                       <(grep -v '"id":"' "$work/new.serve$threads")); then
    other=$((other + 1))
    echo "=== serve --threads=$threads acknowledgment"
    echo "$diff_out"
  fi
done

usage_differing=0
for command in mine query stage1 serve; do
  for side in old new; do
    bin_var="${side}_bin"
    "${!bin_var}" "$command" > "$work/$side.usage" 2>&1 || true
  done
  if ! diff_out=$(diff "$work/old.usage" "$work/new.usage"); then
    usage_differing=$((usage_differing + 1))
    echo "=== usage of $command"
    echo "$diff_out"
  fi
done

echo "$usage_differing of 4 usage texts differ"
echo "$other of 2 serve acknowledgments differ"
echo "$differing of $cases cases differ"
[ "$differing" -eq 0 ] && [ "$usage_differing" -eq 0 ] && [ "$other" -eq 0 ]
