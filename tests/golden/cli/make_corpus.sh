#!/bin/sh
# Writes the pinned ninec CLI corpus: the s5378 profile test set as an NCT1
# file, its compressed streams in every container format ninec writes, the
# decompress output of each stream, and the JSON report of a seeded
# `ninec tune` search over it for seeds 1-3.
#
#   tests/golden/cli/make_corpus.sh <ninec> [OUTDIR]
#
# OUTDIR defaults to this directory. An s5378.nct1 already in OUTDIR is
# encoded as it is; delete it to generate the input again. check_corpus.sh
# (ctest cli_golden) seeds a scratch directory with the pinned input, writes
# the corpus there and compares every file byte for byte with the pinned
# one. Regenerate only for an intended change of the stream or test-set
# format or of the tuner's result, and say so in the change log.
set -eu

NINEC="$1"
HERE=$(cd "$(dirname "$0")" && pwd)
OUT="${2:-$HERE}"

[ -f "$OUT/s5378.nct1" ] ||
  "$NINEC" gen --profile s5378 --seed 1 --out "$OUT/s5378.nct1" >/dev/null

# NC9C at K=8 with the paper's table and with the frequency-directed one,
# NC9S (sharded container), and NC9T (tuned genome: odd K, uneven split).
"$NINEC" compress --in "$OUT/s5378.nct1" --out "$OUT/k8.nc9c" --k 8 >/dev/null
"$NINEC" compress --in "$OUT/s5378.nct1" --out "$OUT/k8_freq.nc9c" --k 8 \
  --freq-directed >/dev/null
"$NINEC" compress --in "$OUT/s5378.nct1" --out "$OUT/k8_shards3.nc9s" --k 8 \
  --shards 3 --jobs 2 >/dev/null
"$NINEC" compress --in "$OUT/s5378.nct1" --out "$OUT/k9_split4.nc9t" \
  --table "$HERE/k9_split4.json" >/dev/null

for s in k8.nc9c k8_freq.nc9c k8_shards3.nc9s k9_split4.nc9t; do
  "$NINEC" decompress --in "$OUT/$s" --out "$OUT/$s.nct1" >/dev/null
done

# Seeded tune searches: the winner, every fitness figure and the
# per-generation trace. k9_split4.json above is an input, not one of these.
for seed in 1 2 3; do
  "$NINEC" tune --in "$OUT/s5378.nct1" --jobs 1 --seed "$seed" \
    --generations 6 --population 12 --json "$OUT/tune_seed$seed.json" \
    >/dev/null
done
