// Software throughput of the coders (google-benchmark), plus the perf
// regression gate for the word-parallel production 9C coder. Not a paper
// table; documents that the encoder is linear-time and fast enough for the
// multi-Mbit industrial sweeps of Table VIII. Unless the caller passes its
// own --benchmark_out, results are also written to BENCH_throughput.json.
//
// After the benchmarks run, main() measures the single-thread encode and
// decode throughput of the production coder and of the per-trit reference
// (tests/reference) directly and EXITS NONZERO if
//   * production encode is less than 5x the reference at K=64,
//   * production decode is slower than the reference at K=32, or
//   * the two disagree on any gate stream or decoded output (byte compare).
// CI runs this binary, so a change that quietly de-vectorizes the hot path
// -- or breaks its bit-exactness -- fails the build, not just a dashboard.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/fdr.h"
#include "baselines/golomb.h"
#include "codec/nine_coded.h"
#include "gen/cube_gen.h"
#include "reference/nine_coded_reference.h"

namespace {

using nc::bits::TritVector;
using nc::codec::Codec;
using nc::codec::NineCoded;
using nc::codec::ReferenceCodec;

const nc::bits::TritVector& sample_td() {
  static const nc::bits::TritVector td = [] {
    nc::gen::CubeGenConfig cfg;
    cfg.patterns = 200;
    cfg.width = 1000;
    cfg.x_fraction = 0.85;
    cfg.seed = 42;
    return nc::gen::generate_cubes(cfg).flatten();
  }();
  return td;
}

NineCoded bench_coder(const benchmark::State& state) {
  return NineCoded(static_cast<std::size_t>(state.range(0)));
}

void encode_bench(benchmark::State& state, const Codec& coder) {
  const auto& td = sample_td();
  for (auto _ : state) benchmark::DoNotOptimize(coder.encode(td));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(td.size()) / 8);
}

void BM_NineCodedEncodeReference(benchmark::State& state) {
  encode_bench(state, ReferenceCodec(bench_coder(state)));
}
BENCHMARK(BM_NineCodedEncodeReference)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_NineCodedEncode(benchmark::State& state) {
  encode_bench(state, bench_coder(state));
}
BENCHMARK(BM_NineCodedEncode)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void decode_bench(benchmark::State& state, const Codec& coder) {
  const auto& td = sample_td();
  const auto te = coder.encode(td);
  for (auto _ : state)
    benchmark::DoNotOptimize(coder.decode(te, td.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(td.size()) / 8);
}

void BM_NineCodedDecodeReference(benchmark::State& state) {
  decode_bench(state, ReferenceCodec(bench_coder(state)));
}
BENCHMARK(BM_NineCodedDecodeReference)->Arg(8)->Arg(32);

void BM_NineCodedDecode(benchmark::State& state) {
  decode_bench(state, bench_coder(state));
}
BENCHMARK(BM_NineCodedDecode)->Arg(8)->Arg(32);

void BM_NineCodedAnalyze(benchmark::State& state) {
  const NineCoded coder(8);
  const auto& td = sample_td();
  for (auto _ : state) benchmark::DoNotOptimize(coder.analyze(td));
}
BENCHMARK(BM_NineCodedAnalyze);

void BM_FdrEncode(benchmark::State& state) {
  const nc::baselines::Fdr coder;
  const auto& td = sample_td();
  for (auto _ : state) benchmark::DoNotOptimize(coder.encode(td));
}
BENCHMARK(BM_FdrEncode);

void BM_GolombEncode(benchmark::State& state) {
  const nc::baselines::Golomb coder(4);
  const auto& td = sample_td();
  for (auto _ : state) benchmark::DoNotOptimize(coder.encode(td));
}
BENCHMARK(BM_GolombEncode);

// ------------------------------------------------------- perf + bit gate

/// Wall-clock MB of TD per second of single-thread `run()` (one encode or
/// one decode of `td`), measured over ~0.4 s.
template <typename Run>
double mb_per_s(const TritVector& td, Run run) {
  using clock = std::chrono::steady_clock;
  // Warm up caches and the allocator once before timing.
  run();
  const auto t0 = clock::now();
  std::size_t iters = 0;
  while (clock::now() - t0 < std::chrono::milliseconds(400)) {
    run();
    ++iters;
  }
  const double secs =
      std::chrono::duration<double>(clock::now() - t0).count();
  const double bytes =
      static_cast<double>(iters) * static_cast<double>(td.size()) / 8.0;
  return bytes / secs / 1e6;
}

/// Prints one timed bar; false when production is under it.
bool meets_bar(const char* what, std::size_t k, double reference_mbs,
               double production_mbs, double required) {
  const double speedup = production_mbs / reference_mbs;
  std::printf(
      "codec gate %s (K=%zu): reference %.1f MB/s, production %.1f MB/s, "
      "speedup %.2fx (required >= %.1fx)\n",
      what, k, reference_mbs, production_mbs, speedup, required);
  if (speedup >= required) return true;
  std::fprintf(stderr,
               "GATE FAIL: production/reference %s speedup %.2fx < %.1fx\n",
               what, speedup, required);
  return false;
}

/// The ship gate. Byte-identity of TE and of the decoded output is checked
/// at every K the encoder benches. Encode throughput is gated at
/// kEncodeGateK, the block size that amortizes the per-block codeword
/// bookkeeping enough to expose the word-parallel payload path (at tiny K
/// both coders are dominated by per-block control: K=32 measures ~5x on an
/// idle machine, K=64 holds 7-9x even under load, so the 5x bar at K=64 has
/// real headroom against CI noise). Decode is gated at kDecodeGateK, where
/// the codeword lookup and the word-parallel payload copy put production
/// ahead; at K=8 the two decoders run near parity and the reference alone
/// swings by a third between runs on a shared host, so it is not gated.
int run_codec_gate() {
  constexpr std::size_t kEncodeGateK = 64;
  constexpr double kRequiredEncodeSpeedup = 5.0;
  constexpr std::size_t kDecodeGateK = 32;
  constexpr double kRequiredDecodeSpeedup = 1.0;
  const auto& td = sample_td();

  for (std::size_t k : {4u, 8u, 16u, 32u, 62u, 64u, 66u}) {
    const NineCoded coder(k);
    const ReferenceCodec reference(coder);
    const TritVector te = coder.encode(td);
    if (!(reference.encode(td) == te)) {
      std::fprintf(stderr,
                   "GATE FAIL: reference and production TE differ at K=%zu\n",
                   k);
      return 1;
    }
    const auto want = reference.decode_checked(te, td.size());
    const auto got = coder.decode_checked(te, td.size());
    if (!(got.data == want.data) || got.blocks != want.blocks ||
        got.consumed != want.consumed) {
      std::fprintf(
          stderr,
          "GATE FAIL: reference and production decode differ at K=%zu\n", k);
      return 1;
    }
  }
  std::printf("codec gate: TE and decoded output byte-identical at every K\n");

  const NineCoded encoder(kEncodeGateK);
  const ReferenceCodec encoder_reference(encoder);
  const bool encode_ok = meets_bar(
      "encode", kEncodeGateK,
      mb_per_s(td, [&] {
        benchmark::DoNotOptimize(encoder_reference.encode(td));
      }),
      mb_per_s(td, [&] { benchmark::DoNotOptimize(encoder.encode(td)); }),
      kRequiredEncodeSpeedup);

  const NineCoded decoder(kDecodeGateK);
  const ReferenceCodec decoder_reference(decoder);
  const TritVector te = decoder.encode(td);
  const bool decode_ok = meets_bar(
      "decode", kDecodeGateK,
      mb_per_s(td, [&] {
        benchmark::DoNotOptimize(decoder_reference.decode(te, td.size()));
      }),
      mb_per_s(td, [&] {
        benchmark::DoNotOptimize(decoder.decode(te, td.size()));
      }),
      kRequiredDecodeSpeedup);
  return encode_ok && decode_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_throughput.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool caller_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
      caller_out = true;
  if (!caller_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_codec_gate();
}
