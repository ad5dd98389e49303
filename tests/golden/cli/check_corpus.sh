#!/bin/sh
# Replays the pinned ninec CLI corpus (make_corpus.sh): compresses the pinned
# input again in a scratch directory and compares every file byte for byte
# with the pinned one, then decompresses every pinned stream and compares
# the output. The seed-1 tune search and the tripping fleet run once more
# with two workers, which must not change their output.
# $1 = path to the ninec binary.
set -eu

NINEC="$1"
HERE=$(cd "$(dirname "$0")" && pwd)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

mkdir "$DIR/again"
cp "$HERE/s5378.nct1" "$DIR/again/"
"$HERE/make_corpus.sh" "$NINEC" "$DIR/again"
for f in "$HERE"/*.nc9?* "$HERE"/tune_seed*.json "$HERE"/c120.* \
  "$HERE"/*.out "$HERE"/*.journal "$HERE"/*.v; do
  cmp "$f" "$DIR/again/$(basename "$f")"
done
for s in "$HERE"/*.nc9?; do
  "$NINEC" decompress --in "$s" --out "$DIR/out.nct1" >/dev/null
  cmp "$s.nct1" "$DIR/out.nct1"
done
"$NINEC" tune --in "$HERE/s5378.nct1" --jobs 2 --seed 1 --generations 6 \
  --population 12 --json "$DIR/tune_jobs2.json" >/dev/null
cmp "$HERE/tune_seed1.json" "$DIR/tune_jobs2.json"
rc=0
"$NINEC" fleet --bench "$HERE/c120.bench" --tests "$HERE/c120.nct1" \
  --devices 3 --inject 'flip=5e-3,seed=3;flip=1e-2,trunc=1e-2,seed=4' \
  --watchdog-steps 30 --breaker-threshold 1000 --jobs 2 \
  >"$DIR/fleet_jobs2.out" || rc=$?
echo "exit $rc" >>"$DIR/fleet_jobs2.out"
cmp "$HERE/fleet_trip.out" "$DIR/fleet_jobs2.out"
# make_corpus.sh writes no file that is not pinned.
pinned=$(ls "$HERE"/*.nct1 "$HERE"/*.nc9? "$HERE"/tune_seed*.json \
  "$HERE"/c120.bench "$HERE"/*.out "$HERE"/*.journal "$HERE"/*.v | wc -l)
test "$(ls "$DIR/again" | wc -l)" -eq "$pinned"

echo "cli golden corpus OK"
