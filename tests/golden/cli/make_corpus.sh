#!/bin/sh
# Writes the pinned ninec CLI corpus: the s5378 profile test set as an NCT1
# file, its compressed streams in every container format ninec writes, the
# decompress output of each stream, the JSON report of a seeded
# `ninec tune` search over it for seeds 1-3, the decoder RTL at K=8, and a
# generated circuit with its ATPG cubes and the summaries of ATE sessions
# and device fleets run on them (with an NC9J checkpoint journal).
#
#   tests/golden/cli/make_corpus.sh <ninec> [OUTDIR]
#
# OUTDIR defaults to this directory. An s5378.nct1 already in OUTDIR is
# encoded as it is; delete it to generate the input again. check_corpus.sh
# (ctest cli_golden) seeds a scratch directory with the pinned input, writes
# the corpus there and compares every file byte for byte with the pinned
# one. Regenerate only for an intended change of a file format, of the
# tuner's result, of the RTL or of a session or fleet summary, and say so in
# the change log.
set -eu

NINEC=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
HERE=$(cd "$(dirname "$0")" && pwd)
OUT=$(cd "${2:-$HERE}" && pwd)

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

# The decoder RTL at K=8 for the paper's table (with its testbench) and for
# the frequency-directed table of s5378.
"$NINEC" rtl --out "$OUT/rtl_k8.v" --k 8 --testbench "$OUT/rtl_k8_tb.v" \
  >/dev/null
"$NINEC" rtl --out "$OUT/rtl_k8_freq.v" --k 8 --freq-directed \
  --in "$OUT/s5378.nct1" >/dev/null

# A generated circuit and its ATPG cubes.
"$NINEC" circuit --gates 120 --inputs 8 --flops 8 --seed 3 \
  --out "$OUT/c120.bench" >/dev/null
"$NINEC" atpg --bench "$OUT/c120.bench" --out "$OUT/c120.nct1" >/dev/null

# Runs ninec with the remaining arguments and writes its stdout, then a
# line "exit <code>", to OUT/$1. The faulty session, the tripping fleet and
# any fleet with a failed device exit 1 by design.
pin() {
  file="$OUT/$1"
  shift
  rc=0
  "$NINEC" "$@" >"$file" || rc=$?
  echo "exit $rc" >>"$file"
}

# ATE sessions over the cycle-accurate decoder: a clean link, the same in
# three shards decoded by two workers, and a faulty link whose detected
# corruptions re-stream patterns until two retries run out.
pin session.out session --bench "$OUT/c120.bench" --tests "$OUT/c120.nct1"
pin session_shards.out session --bench "$OUT/c120.bench" \
  --tests "$OUT/c120.nct1" --jobs 2 --shards 3
pin session_inject.out session --bench "$OUT/c120.bench" \
  --tests "$OUT/c120.nct1" --inject flip=3e-2,trunc=5e-2,seed=7 --retry 2

# Device fleets on faulty links: the automatic watchdog budget with an
# NC9J checkpoint journal (run inside OUT, so stdout names the journal by a
# relative path), and a 30-step budget that trips on some decodes and not
# on others. The breaker never opens there, so every pattern is tried.
INJECT='flip=5e-3,seed=3;flip=1e-2,trunc=1e-2,seed=4'
(cd "$OUT" && pin fleet.out fleet --bench c120.bench --tests c120.nct1 \
  --devices 3 --inject "$INJECT" --checkpoint fleet.journal)
pin fleet_trip.out fleet --bench "$OUT/c120.bench" --tests "$OUT/c120.nct1" \
  --devices 3 --inject "$INJECT" --watchdog-steps 30 --breaker-threshold 1000
