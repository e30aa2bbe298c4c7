#!/usr/bin/env bash
# Diffs what two spidermine binaries print for the same queries, through
# both query front ends. Each binary builds its own graphs and mines its
# own Stage I artifacts; then both answer 48 cases in three legs:
#   plain: the benchmark graph (perfbench/graphs.py, imported read-only,
#     with the graph spec of perfbench/run.py), `stage1 --support=3`,
#     seeds {11, 404, 7, 23, 1001, 58}
#     x measures {vertex-mis, homomorphism,
#                 transaction with --txn-map --txn-sample=32}
#     x --threads {1, 3}, queries --k=5 --dmax=6 --vmin=20     (36 cases)
#   edge-labeled: the same graph with each edge {u, v} labeled
#     (label(u) + label(v)) % 3, seeds {11, 404}
#     x measures {vertex-mis, homomorphism} x --threads {1, 3},
#     the same query flags                                      (8 cases)
#   few-label: `gen --model=er --vertices=160 --avg-degree=3.2 --labels=5
#     --seed=3`, `stage1 --support=2`, seeds {11, 404} x vertex-mis
#     x --threads {1, 3}, queries --k=12 --dmax=4 --vmin=4       (4 cases;
#     the one graph here on which TryExtend folds a duplicate extension
#     into an earlier pattern of its own lineage)
# each twice: as `query --stats` transcripts, and as JSON request lines
# sent to one `serve` process per leg and --threads value over stdin
# (responses sorted; they complete out of order). Only seconds values are
# masked. A case differs when either its transcript or its serve response
# does. The usage texts of `mine`, `query`, `stage1` and `serve` (each run
# with no positional argument) are diffed too. A last leg runs the
# comparison miners on CI's smoke graph (`gen --model=er --vertices=400
# --avg-degree=1.8 --labels=15 --seed=5 --inject-vertices=12
# --inject-count=3`): `baseline --algo={subdue,seus,grew,complete}
# --support=3 --k=10`, 4 outputs. Prints a diff for everything that
# differs and exits 1 if anything does, 0 if all 48 cases, the 6 serve
# acknowledgments, the 4 usage texts and the 4 baseline outputs are
# identical.
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
graphs.write_lg(os.path.join(sys.argv[2], "plain.lg"), labels, edges)
graphs.write_txn_map(os.path.join(sys.argv[2], "graph.txn"), txn_of)
# The edge-labeled leg's graph: the same one, with three edge labels.
with open(os.path.join(sys.argv[2], "labeled.lg"), "w") as f:
    f.writelines(f"v {v} {label}\n" for v, label in enumerate(labels))
    f.writelines(f"e {u} {v} {(labels[u] + labels[v]) % 3}\n"
                 for u, v in sorted(edges))
EOF

for side in old new; do
  bin_var="${side}_bin"
  for leg in plain labeled; do
    "${!bin_var}" convert "$work/$leg.lg" "$work/$side.$leg.smg" > /dev/null
    "${!bin_var}" stage1 "$work/$side.$leg.smg" --support=3 \
        --out="$work/$side.$leg.sm2" > /dev/null
  done
  "${!bin_var}" gen --model=er --vertices=160 --avg-degree=3.2 --labels=5 \
      --seed=3 --out="$work/$side.few.smg" > /dev/null
  "${!bin_var}" stage1 "$work/$side.few.smg" --support=2 \
      --out="$work/$side.few.sm2" > /dev/null
  "${!bin_var}" gen --model=er --vertices=400 --avg-degree=1.8 --labels=15 \
      --seed=5 --inject-vertices=12 --inject-count=3 \
      --out="$work/$side.smoke.smg" > /dev/null
done

mask_seconds() {
  sed -E 's/\b[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?s\b/<t>s/g'
}

# The serve request of a measure case: its JSON keys after "measure".
request_keys() {
  case "$1" in
    *transaction*) echo '"measure":"transaction","txn_sample":32' ;;
    *) echo "\"measure\":\"${1#--measure=}\"" ;;
  esac
}

cases=0
differing=0
other=0
# Runs the cases of one leg on the graph named $1. The arrays `seeds`,
# `measures`, `serve_flags` (extra `serve` flags) and `query` (the leg's
# query parameters as name=value, sent as `--name=value` flags and as
# "name":value serve keys) describe them.
run_leg() {
  local leg=$1
  local expected=$(( ${#seeds[@]} * ${#measures[@]} + 1 ))
  local threads seed measure side bin_var requests id diff_out args extra
  local param query_keys="" query_flags=()
  for param in "${query[@]}"; do
    query_keys+="\"${param%%=*}\":${param#*=},"
    query_flags+=("--$param")
  done
  for threads in 1 3; do
    requests=""
    for seed in "${seeds[@]}"; do
      for measure in "${measures[@]}"; do
        requests+="{\"id\":\"$seed/$threads/${measure%% *}\","
        requests+="${query_keys}\"seed\":$seed,"
        requests+="$(request_keys "$measure")}"$'\n'
      done
    done
    requests+='{"cmd":"shutdown"}'
    for side in old new; do
      bin_var="${side}_bin"
      printf '%s\n' "$requests" |
          "${!bin_var}" serve "$work/$side.$leg.smg" "$work/$side.$leg.sm2" \
              "${serve_flags[@]}" --threads="$threads" \
              --max-inflight=2 --quiet 2> "$work/serve.err" |
          sed -E 's/"seconds":[0-9.]+/"seconds":<t>/' |
          sort > "$work/$side.serve"
      # Every response and the acknowledgment, or the serve leg proves
      # nothing.
      if [ "$(wc -l < "$work/$side.serve")" -ne "$expected" ]; then
        echo "$side $leg serve --threads=$threads answered incompletely:" >&2
        cat "$work/serve.err" "$work/$side.serve" >&2
        exit 2
      fi
    done
    # The line outside the cases: the shutdown acknowledgment.
    if ! diff_out=$(diff <(grep -v '"id":"' "$work/old.serve") \
                         <(grep -v '"id":"' "$work/new.serve")); then
      other=$((other + 1))
      echo "=== $leg serve --threads=$threads acknowledgment"
      echo "$diff_out"
    fi
    for seed in "${seeds[@]}"; do
      for measure in "${measures[@]}"; do
        args=("${query_flags[@]}" --stats --seed="$seed"
              --threads="$threads")
        read -r -a extra <<< "$measure"
        id="\"id\":\"$seed/$threads/${measure%% *}\""
        for side in old new; do
          bin_var="${side}_bin"
          {
            "${!bin_var}" query "$work/$side.$leg.smg" \
                "$work/$side.$leg.sm2" "${args[@]}" "${extra[@]}" |
                mask_seconds
            echo "serve: $(grep -F "$id" "$work/$side.serve")"
          } > "$work/$side.out"
        done
        cases=$((cases + 1))
        if ! diff_out=$(diff "$work/old.out" "$work/new.out"); then
          differing=$((differing + 1))
          echo "=== $leg seed=$seed threads=$threads ${measure//$work\//}"
          echo "$diff_out"
        fi
      done
    done
  done
}

seeds=(11 404 7 23 1001 58)
measures=(
  "--measure=vertex-mis"
  "--measure=homomorphism"
  "--measure=transaction --txn-map=$work/graph.txn --txn-sample=32"
)
serve_flags=(--txn-map="$work/graph.txn")
query=(k=5 dmax=6 vmin=20)
run_leg plain

seeds=(11 404)
measures=("--measure=vertex-mis" "--measure=homomorphism")
serve_flags=()
run_leg labeled

measures=("--measure=vertex-mis")
query=(k=12 dmax=4 vmin=4)
run_leg few

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

baseline_differing=0
for algo in subdue seus grew complete; do
  for side in old new; do
    bin_var="${side}_bin"
    "${!bin_var}" baseline "$work/$side.smoke.smg" --algo="$algo" \
        --support=3 --k=10 > "$work/$side.baseline"
  done
  if ! diff_out=$(diff "$work/old.baseline" "$work/new.baseline"); then
    baseline_differing=$((baseline_differing + 1))
    echo "=== baseline --algo=$algo"
    echo "$diff_out"
  fi
done

echo "$usage_differing of 4 usage texts differ"
echo "$other of 6 serve acknowledgments differ"
echo "$baseline_differing of 4 baseline outputs differ"
echo "$differing of $cases cases differ"
[ "$differing" -eq 0 ] && [ "$usage_differing" -eq 0 ] && [ "$other" -eq 0 ] &&
    [ "$baseline_differing" -eq 0 ]
