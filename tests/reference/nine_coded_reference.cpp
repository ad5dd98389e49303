#include "reference/nine_coded_reference.h"

#include <algorithm>
#include <utility>

#include "bits/bitstream.h"

namespace nc::codec {

using bits::Trit;
using bits::TritVector;

namespace {

HalfScan scan_half(const TritVector& v, std::size_t begin,
                   std::size_t len) noexcept {
  // Same word hoist as classify_half; cannot early-exit (exact X count).
  HalfScan scan;
  std::size_t i = begin;
  const std::size_t end = begin + len;
  while (i < end) {
    std::uint64_t w = v.packed_word(i >> 5) >> ((i & 31u) * 2);
    const std::size_t stop = std::min(end, (i & ~std::size_t{31}) + 32);
    for (; i < stop; ++i, w >>= 2) {
      switch (static_cast<bits::Trit>(w & 0x3u)) {
        case bits::Trit::Zero: scan.kind.one_compatible = false; break;
        case bits::Trit::One: scan.kind.zero_compatible = false; break;
        case bits::Trit::X: ++scan.x_count; break;
      }
    }
  }
  return scan;
}

}  // namespace

NineCodedStats reference_analyze(const NineCoded& coder, const TritVector& td,
                                 TritVector* out_stream) {
  const std::size_t k = coder.block_size();
  const std::size_t left_len = coder.split();
  const std::size_t right_len = k - left_len;
  NineCodedStats stats;
  stats.block_size = k;
  stats.split = left_len;
  stats.original_bits = td.size();

  // Pad the tail to a whole block with X, which compresses maximally and is
  // discarded by the decoder (it knows the original length).
  TritVector padded = td;
  if (padded.size() % k != 0) padded.append_run(k - padded.size() % k, Trit::X);
  stats.padded_bits = padded.size();

  TritVector stream;

  auto emit_codeword = [&](BlockClass c) {
    const Codeword& w = coder.table().at(c);
    for (unsigned i = w.length; i-- > 0;)
      stream.push_back(bits::trit_from_bit((w.bits >> i) & 1u));
  };
  auto emit_payload = [&](std::size_t begin, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) stream.push_back(padded.get(begin + i));
  };

  // Each half is scanned exactly once; the scan's kind drives the class
  // decision and its X count drives the filled/leftover accounting
  // (payload X symbols are leftover, uniform-half X symbols are filled), so
  // no symbol of TD is re-read after classification.
  for (std::size_t b = 0; b < padded.size(); b += k) {
    const HalfScan left = scan_half(padded, b, left_len);
    const HalfScan right = scan_half(padded, b + left_len, right_len);
    const BlockClass cls = classify_halves(left.kind, right.kind);
    ++stats.counts[static_cast<std::size_t>(cls)];
    emit_codeword(cls);
    switch (cls) {
      case BlockClass::kC1:
      case BlockClass::kC2:
      case BlockClass::kC3:
      case BlockClass::kC4:
        // No payload: every X in the block was forced to the uniform value.
        stats.filled_x += left.x_count + right.x_count;
        break;
      case BlockClass::kC5:
      case BlockClass::kC7:
        stats.filled_x += left.x_count;
        stats.leftover_x += right.x_count;
        emit_payload(b + left_len, right_len);
        break;
      case BlockClass::kC6:
      case BlockClass::kC8:
        stats.filled_x += right.x_count;
        stats.leftover_x += left.x_count;
        emit_payload(b, left_len);
        break;
      case BlockClass::kC9:
        stats.leftover_x += left.x_count + right.x_count;
        emit_payload(b, k);
        break;
    }
  }

  stats.encoded_bits = stream.size();
  if (out_stream != nullptr) *out_stream = std::move(stream);
  return stats;
}

DecodeOutcome reference_decode_checked(const NineCoded& coder,
                                       const TritVector& te,
                                       std::size_t original_bits,
                                       core::Watchdog* watchdog) {
  const std::size_t k = coder.block_size();
  const std::size_t left_len = coder.split();
  const std::size_t right_len = k - left_len;
  const std::size_t expected_blocks =
      original_bits / k + (original_bits % k != 0);
  DecodeOutcome outcome;
  TritVector& out = outcome.data;
  bits::TritReader reader(te);
  for (std::size_t block = 0; block < expected_blocks; ++block) {
    // Each block costs at most one codeword (<= 5 symbols) plus K output
    // symbols; charging K+5 per block keeps the meter conservative without
    // per-symbol overhead in this (software-side) decoder.
    if (watchdog != nullptr &&
        watchdog->tick(k + 5) != core::WatchdogTrip::kNone)
      throw DecodeError(DecodeFault::kWatchdogExpired, reader.position(),
                        block);
    try {
      const BlockClass cls = coder.table().match(reader);
      switch (cls) {
        case BlockClass::kC1:
        case BlockClass::kC2:
        case BlockClass::kC3:
        case BlockClass::kC4: {
          const auto fill = uniform_fill(cls);
          out.append_run(left_len, bits::trit_from_bit(fill[0]));
          out.append_run(right_len, bits::trit_from_bit(fill[1]));
          break;
        }
        case BlockClass::kC5:
        case BlockClass::kC6:
        case BlockClass::kC7:
        case BlockClass::kC8: {
          const MixedShape shape = mixed_shape(cls);
          if (shape.mismatch_is_left) {
            out.append(reader.next_trits(left_len));
            out.append_run(right_len,
                           bits::trit_from_bit(shape.uniform_value));
          } else {
            const TritVector payload = reader.next_trits(right_len);
            out.append_run(left_len, bits::trit_from_bit(shape.uniform_value));
            out.append(payload);
          }
          break;
        }
        case BlockClass::kC9:
          out.append(reader.next_trits(k));
          break;
      }
    } catch (const bits::StreamOverrun& e) {
      throw DecodeError(DecodeFault::kTruncated, e.offset(), block);
    } catch (const bits::InvalidSymbol& e) {
      throw DecodeError(DecodeFault::kXInCodeword, e.offset(), block);
    } catch (const DecodeError& e) {
      throw e.with_block(block);
    }
  }
  // Length accounting: a corruption that shortens the parse (e.g. a long
  // codeword aliased onto a short one) leaves TE symbols unconsumed.
  if (!reader.done())
    throw DecodeError(DecodeFault::kTrailingData, reader.position(),
                      expected_blocks);
  outcome.blocks = expected_blocks;
  outcome.consumed = reader.position();
  out.resize(original_bits);  // drop decoder output for the padded tail
  return outcome;
}

}  // namespace nc::codec
