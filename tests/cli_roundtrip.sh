#!/bin/sh
# End-to-end exercise of the ninec CLI: generate, compress (both codeword
# tables), decompress, and verify the decompressed set covers the original's
# care bits. $1 = path to the ninec binary.
set -eu

NINEC="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

"$NINEC" gen --profile s9234 --out "$DIR/td.tests" --seed 4
"$NINEC" stats --in "$DIR/td.tests" > "$DIR/stats.txt"
grep -q "CR%" "$DIR/stats.txt"

# Line-by-line cover check: wherever td has 0/1, back must match.
expect_covered() {
  awk 'NR==FNR { a[FNR] = $0; next }
       {
         if (length($0) != length(a[FNR])) { print "width mismatch"; exit 1 }
         for (i = 1; i <= length($0); i++) {
           c = substr(a[FNR], i, 1)
           if (c != "X" && c != substr($0, i, 1)) {
             print "care bit mismatch at line " FNR " col " i; exit 1
           }
         }
       }' "$1" "$2"
}

for extra in "" "--freq-directed"; do
  "$NINEC" compress --in "$DIR/td.tests" --out "$DIR/te.9c" --k 8 $extra
  "$NINEC" decompress --in "$DIR/te.9c" --out "$DIR/back.tests"
  expect_covered "$DIR/td.tests" "$DIR/back.tests"
done

# 254 is the largest even K the one-byte header field holds.
"$NINEC" compress --in "$DIR/td.tests" --out "$DIR/k254.9c" --k 254
"$NINEC" decompress --in "$DIR/k254.9c" --out "$DIR/k254.tests"
expect_covered "$DIR/td.tests" "$DIR/k254.tests"

# Binary test-set container round-trips through compress/decompress too.
"$NINEC" gen --profile s5378 --out "$DIR/td.bin"
"$NINEC" compress --in "$DIR/td.bin" --out "$DIR/te2.9c" --k 12
"$NINEC" decompress --in "$DIR/te2.9c" --out "$DIR/back2.bin"

# ATPG flow on a generated circuit.
"$NINEC" circuit --out "$DIR/c.bench" --gates 120 --inputs 8 --flops 8
"$NINEC" atpg --bench "$DIR/c.bench" --out "$DIR/atpg.tests"
test -s "$DIR/atpg.tests"

echo "cli roundtrip OK"

# Full ATE session on the generated circuit's own test set.
"$NINEC" session --bench "$DIR/c.bench" --tests "$DIR/atpg.tests" --k 8 --p 8

echo "cli session OK"

# Malformed count flags must fail fast with exit code 2 (not crash, not
# silently coerce): non-numeric, zero, negative, overflow.
expect_exit() {
  want=$1; shift
  set +e
  "$NINEC" "$@" >/dev/null 2>"$DIR/err.txt"
  code=$?
  set -e
  if [ "$code" -ne "$want" ]; then
    echo "expected exit $want from: ninec $*  (got $code)"; exit 1
  fi
  test -s "$DIR/err.txt"  # one-line diagnostic on stderr
}
expect_usage_error() { expect_exit 2 "$@"; }
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --shards abc
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --shards 0
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --jobs -3
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --k 0
expect_usage_error decompress --in "$DIR/te.9c" --out "$DIR/x.tests" --jobs 1x
expect_usage_error session --bench "$DIR/c.bench" --tests "$DIR/atpg.tests" \
  --jobs 99999999999999999999999
expect_usage_error fleet --bench "$DIR/c.bench" --tests "$DIR/atpg.tests" \
  --devices 0
# Unknown flags are usage errors, not silently ignored; the error and the
# help go to stderr and nothing to stdout.
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --bogus
set +e
"$NINEC" compress --in "$DIR/td.tests" --out "$DIR/x.9c" --bogus \
  > "$DIR/out.txt" 2>/dev/null
set -e
test ! -s "$DIR/out.txt"
grep -q '^error: unknown flag --bogus' "$DIR/err.txt"
grep -q '^usage: ninec' "$DIR/err.txt"
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" \
  --codec-impl scalar
expect_usage_error store stats --dir "$DIR" --bogus
# Opening a store creates its DIR, so store refuses first: a missing DIR
# exits 1, a misspelled action exits 2, and neither leaves the path behind.
expect_exit 1 store stats --dir "$DIR/no-store"
test ! -e "$DIR/no-store"
expect_usage_error store bogus --dir "$DIR/no-store"
test ! -e "$DIR/no-store"
# The help prints each synopsis from the table the flag parser reads, so it
# names every flag a command takes -- these seven were once missing. Asked
# for, it goes to stdout alone and exits 0.
"$NINEC" help > "$DIR/help.txt" 2>"$DIR/help_err.txt"
test ! -s "$DIR/help_err.txt"
"$NINEC" --help > "$DIR/help2.txt" 2>"$DIR/help_err.txt"
test ! -s "$DIR/help_err.txt"
cmp "$DIR/help.txt" "$DIR/help2.txt"
help_block() {  # the help lines of subcommand $1
  awk -v cmd="$1" '/^  [a-z]/ { on = ($1 == cmd) } on' "$DIR/help.txt"
}
for pair in circuit:outputs roundtrip:no-compact tune:baseline-k \
            tune:deadline-ms serve:store-segment-bytes fleet:abort-after \
            fleet:stop-after; do
  cmd=${pair%%:*}
  flag=${pair#*:}
  if ! help_block "$cmd" | grep -q -- "\[--$flag[] ]"; then
    echo "ninec help omits $cmd --$flag"; exit 1
  fi
done
# Stream headers store K in one byte: K > 255 is refused before encoding,
# whether it comes from --k or from a --table genome.
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" --k 256
printf '{"format":"nc9-tune-genome","k":256,"split":0,"lengths":[1,2,5,5,5,5,5,5,4],"fill":"none","fill_seed":1}\n' \
  > "$DIR/k256.json"
expect_usage_error compress --in "$DIR/td.tests" --out "$DIR/x.9c" \
  --table "$DIR/k256.json"
# stats sweeps even K from --k-min in steps of 4 up to --k-max <= 255: an
# odd --k-min, an empty range and a --k-max past the bound exit 2 before
# printing anything.
for range in "--k-min 5 --k-max 9" "--k-min 12 --k-max 8" \
             "--k-max 18446744073709551615"; do
  expect_usage_error stats --in "$DIR/td.tests" $range
  set +e
  "$NINEC" stats --in "$DIR/td.tests" $range > "$DIR/out.txt" 2>/dev/null
  set -e
  test ! -s "$DIR/out.txt"
done
# 'auto' spells out the old 0-means-auto convention.
"$NINEC" compress --in "$DIR/td.tests" --out "$DIR/ta.9c" --shards auto --jobs auto
"$NINEC" decompress --in "$DIR/ta.9c" --out "$DIR/backa.tests" --jobs auto

# The closed tester loop shares the strict parsers: ratios outside [0,1],
# garbage, a zero output count and an unknown code kind all exit 2.
expect_usage_error roundtrip --bench "$DIR/c.bench" --x-density 1.5
expect_usage_error roundtrip --bench "$DIR/c.bench" --x-density abc
expect_usage_error roundtrip --bench "$DIR/c.bench" --compact-outputs 0
expect_usage_error roundtrip --bench "$DIR/c.bench" --xcode nope

echo "cli strict parsing OK"

# Crafted 43-byte NC9C files: a real K=8 header, a pattern count and width
# whose product overflows size_t, and an empty trit stream. decompress must
# fail with exit 1 and a message -- not crash (3 x (2^64-1)/3 = 2^64-1) and
# not write an empty test set (2 x 2^63 wraps to 0).
"$NINEC" compress --in "$DIR/td.tests" --out "$DIR/k8.9c" --k 8
Z7='\000\000\000\000\000\000\000'
{ head -c 14 "$DIR/k8.9c"; printf "\\003${Z7}UUUUUUUUNCT1\\000${Z7}\\000"; } \
  > "$DIR/wrap_max.9c"
{ head -c 14 "$DIR/k8.9c"; printf "\\002${Z7}${Z7}\\200NCT1\\000${Z7}\\000"; } \
  > "$DIR/wrap_zero.9c"
test "$(wc -c < "$DIR/wrap_max.9c")" -eq 43
test "$(wc -c < "$DIR/wrap_zero.9c")" -eq 43
expect_exit 1 decompress --in "$DIR/wrap_max.9c" --out "$DIR/x.tests"
expect_exit 1 decompress --in "$DIR/wrap_zero.9c" --out "$DIR/x.bin"

echo "cli crafted headers OK"

# Closed tester loop: identity compaction is the uncompacted tester, so the
# zero-loss gate (exit 0) must hold, and the JSON report lands.
"$NINEC" roundtrip --bench "$DIR/c.bench" --tests "$DIR/atpg.tests" \
  --xcode identity --json "$DIR/rt.json"
test -s "$DIR/rt.json"
grep -q '"masked_by_compaction": 0' "$DIR/rt.json"

echo "cli roundtrip loop OK"

# Fleet run with a checkpoint, killed after 2 batches, then resumed: the
# resumed run must report the same deterministic fingerprint as an
# uninterrupted one.
FLEET_ARGS="--bench $DIR/c.bench --tests $DIR/atpg.tests --devices 3 \
  --inject flip=2e-3 --seed 9 --batch 4"
"$NINEC" fleet $FLEET_ARGS > "$DIR/fleet_ref.txt"
grep -q "fingerprint:" "$DIR/fleet_ref.txt"
set +e
"$NINEC" fleet $FLEET_ARGS --checkpoint "$DIR/j.nc9j" --stop-after 2 \
  > "$DIR/fleet_kill.txt"
set -e
grep -q "STOPPED EARLY" "$DIR/fleet_kill.txt"
test -s "$DIR/j.nc9j"
"$NINEC" fleet $FLEET_ARGS --checkpoint "$DIR/j.nc9j" --resume --jobs 4 \
  > "$DIR/fleet_resume.txt"
grep -q "resumed" "$DIR/fleet_resume.txt"
REF=$(grep fingerprint "$DIR/fleet_ref.txt")
RES=$(grep fingerprint "$DIR/fleet_resume.txt")
if [ "$REF" != "$RES" ]; then
  echo "fleet resume diverged: '$REF' vs '$RES'"; exit 1
fi

echo "cli fleet OK"
