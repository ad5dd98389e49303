#!/bin/sh
# Replays the paper-table benches pinned in this directory: runs each bench
# named below from the build tree, each in its own scratch directory
# (bench_tune writes BENCH_tune.json to its working directory), and requires
# exit code 0 and stdout byte-identical to the pinned bench_<name>.txt.
#
#   tests/golden/bench/check_tables.sh <build>/bench [--write]
#
# --write stores the outputs as the new pins instead. Do that only for an
# intended change of a paper table, and say so in the change log.
#
# Two table benches stay out: bench_ablation_leftover runs for about 7.5 s,
# and bench_compact printed different bytes on two runs of one binary. The
# other bench binaries report wall-clock times or throughputs.
set -eu

BENCH_DIR=$(cd "$1" && pwd)
MODE="${2:-check}"
HERE=$(cd "$(dirname "$0")" && pwd)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

failed=0
for name in table1_code table2_cr table3_lx table4_compare table5_tat \
            table6_stats table7_freq table8_ibm ablation_codes \
            ablation_diff ablation_params ablation_split ablation_xfill \
            fig12_decoder fig34_architectures seed_stability \
            channel_resilience tune; do
  bench="bench_$name"
  mkdir "$DIR/$name"
  if ! (cd "$DIR/$name" && "$BENCH_DIR/$bench" > out.txt); then
    echo "$bench exited nonzero"
    failed=1
  elif [ "$MODE" = --write ]; then
    cp "$DIR/$name/out.txt" "$HERE/$bench.txt"
  elif ! cmp -s "$HERE/$bench.txt" "$DIR/$name/out.txt"; then
    echo "$bench: stdout differs from $bench.txt"
    diff "$HERE/$bench.txt" "$DIR/$name/out.txt" | head -20 || true
    failed=1
  fi
done
[ "$failed" -eq 0 ] && echo "paper tables OK"
exit "$failed"
