#!/usr/bin/env bash
# CI entry point: run the tier-1 verify three ways -- a plain build, an
# ASan/UBSan-instrumented one, and a ThreadSanitizer build that runs the
# concurrency suites (thread pool, sharded parallel codec, container
# format, fleet session manager, decoder fuzz/watchdog, the serve layer:
# frame protocol, artifact cache, concurrent server + loadgen, deadline /
# slow-client timing, retrying client, chaos transport soak, and the
# persistent artifact store: crash-recovery matrices plus compaction racing
# concurrent readers, the erasure-coded sharded tier: degraded reads,
# breaker probes and scrub repair under fault injection, the fault-parallel
# response analyzer of the X-compaction layer, the tune subsystem's
# parallel fitness evaluation with its memoizing evaluator -- including the
# histogram-pricing differential test, whose pool workers share one
# evaluator's memos -- and the Quine-McCluskey differential test behind the
# evaluator's FSM pricing) to catch data races in the parallel pipeline and
# the service.
#
#   tools/check.sh [--plain-only|--sanitize-only|--tsan-only]
#
# Exits nonzero if any configure, build, or ctest step fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"

run_suite() {
  local builddir="$1"
  shift
  cmake -B "$builddir" -S "$repo" "$@"
  cmake --build "$builddir" -j "$jobs"
  ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
}

if [[ "$mode" != "--sanitize-only" && "$mode" != "--tsan-only" ]]; then
  echo "== tier-1 verify: plain =="
  run_suite "$repo/build"
fi

if [[ "$mode" != "--plain-only" && "$mode" != "--tsan-only" ]]; then
  echo "== tier-1 verify: address,undefined sanitizers =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
  run_suite "$repo/build-san" -DNC_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if [[ "$mode" != "--plain-only" && "$mode" != "--sanitize-only" ]]; then
  # TSan is incompatible with ASan/UBSan in one binary, so it gets its own
  # build tree; only the suites that actually spawn threads are worth the
  # ~10x TSan slowdown.
  echo "== concurrency verify: thread sanitizer =="
  builddir="$repo/build-tsan"
  cmake -B "$builddir" -S "$repo" -DNC_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$builddir" -j "$jobs" \
    --target thread_pool_test parallel_pipeline_test sharded_format_test \
    fleet_test decoder_fuzz_test codec_diff_fuzz_test frame_fuzz_test \
    serve_cache_test serve_server_test serve_timing_test serve_client_test \
    serve_chaos_test retry_test crc_test hash_test \
    tune_test tune_roundtrip_test tune_pricing_test qm_diff_test \
    erasure_test store_test store_crash_test store_erasure_test \
    compact_test
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir "$builddir" --output-on-failure -j "$jobs" \
    -R 'ThreadPool|Parallel|ParallelPipeline|ShardedFormat|Fleet|DecoderFuzz|CodecDiffFuzz|Watchdog|FrameFuzz|ServeServer|ServeTiming|RetryingClient|ChaosSpec|ChaosStream|ChaosSoak|ArtifactCache|CacheKey|RetryHelper|Crc|Fnv128|Mix64|Tune|Genome|QmDiff|ErasureCodec|Store|Analyzer|Signature'
fi

echo "== check.sh: all suites green =="
