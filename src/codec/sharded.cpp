#include "codec/sharded.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "bits/bitstream.h"
#include "core/crc.h"
#include "core/parallel.h"
#include "core/thread_pool.h"

namespace nc::codec {

using bits::TestSet;
using bits::TritVector;

namespace {

// Header field geometry, in symbols (= specified bits).
constexpr std::size_t kMagicBits = 16;
constexpr std::size_t kVersionBits = 8;
constexpr std::size_t kCountBits = 32;
constexpr std::size_t kGeometryBits = 64;
constexpr std::size_t kRecordBits = 96;  // offset 32 | length 32 | crc 32
constexpr std::size_t kFixedHeaderBits =
    kMagicBits + kVersionBits + kCountBits + 2 * kGeometryBits;

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs == 0 ? core::ThreadPool::hardware_threads() : jobs;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> shard_plan(
    std::size_t patterns, std::size_t shards) {
  if (patterns == 0) return {{0, 0}};  // one empty shard
  if (shards == 0) shards = 1;
  if (shards > patterns) shards = patterns;
  std::vector<std::pair<std::size_t, std::size_t>> plan;
  plan.reserve(shards);
  const std::size_t base = patterns / shards;
  const std::size_t extra = patterns % shards;
  std::size_t first = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t count = base + (i < extra ? 1 : 0);
    plan.emplace_back(first, count);
    first += count;
  }
  return plan;
}

std::uint32_t shard_crc(const TritVector& v, std::size_t begin,
                        std::size_t len) {
  // Streamed through the shared core CRC in small chunks: the trit symbols
  // have to be materialized as bytes anyway, and a stack buffer keeps the
  // slice-by-8 fast path fed without a heap allocation per shard.
  std::array<std::uint8_t, 256> chunk;
  std::uint32_t state = core::crc32_init();
  std::size_t done = 0;
  while (done < len) {
    const std::size_t n = std::min(len - done, chunk.size());
    for (std::size_t i = 0; i < n; ++i)
      chunk[i] = static_cast<std::uint8_t>(v.get(begin + done + i));
    state = core::crc32_update(state, chunk.data(), n);
    done += n;
  }
  return core::crc32_final(state);
}

bool is_sharded(const TritVector& stream) noexcept {
  if (stream.size() < kMagicBits) return false;
  std::uint32_t magic = 0;
  for (std::size_t i = 0; i < kMagicBits; ++i) {
    const bits::Trit t = stream.get(i);
    if (!bits::is_care(t)) return false;
    magic = (magic << 1) | (t == bits::Trit::One ? 1u : 0u);
  }
  return magic == kShardMagic;
}

ShardedHeader parse_sharded_header(const TritVector& container) {
  bits::TritReader reader(container);
  ShardedHeader header;
  try {
    if (reader.next_bits(kMagicBits) != kShardMagic)
      throw DecodeError(DecodeFault::kBadMagic, 0);
    if (reader.next_bits(kVersionBits) != kShardVersion)
      throw DecodeError(DecodeFault::kBadMagic, kMagicBits);
    header.shard_count =
        static_cast<std::size_t>(reader.next_bits(kCountBits));
    header.pattern_count =
        static_cast<std::size_t>(reader.next_bits(kGeometryBits));
    header.pattern_width =
        static_cast<std::size_t>(reader.next_bits(kGeometryBits));
    if (header.shard_count == 0)
      throw DecodeError(DecodeFault::kBadShardIndex,
                        kMagicBits + kVersionBits);
    const std::size_t max_shards =
        header.pattern_count == 0 ? 1 : header.pattern_count;
    if (header.shard_count > max_shards)
      throw DecodeError(DecodeFault::kBadShardIndex,
                        kMagicBits + kVersionBits);

    const auto plan = shard_plan(header.pattern_count, header.shard_count);
    header.header_symbols =
        kFixedHeaderBits + header.shard_count * kRecordBits;
    header.shards.reserve(header.shard_count);
    std::size_t expect_offset = 0;
    for (std::size_t i = 0; i < header.shard_count; ++i) {
      ShardRecord rec;
      rec.first_pattern = plan[i].first;
      rec.pattern_count = plan[i].second;
      const std::size_t field_pos = reader.position();
      rec.payload_offset = static_cast<std::size_t>(reader.next_bits(32));
      rec.payload_length = static_cast<std::size_t>(reader.next_bits(32));
      rec.crc = static_cast<std::uint32_t>(reader.next_bits(32));
      if (rec.payload_offset != expect_offset)
        throw DecodeError(DecodeFault::kBadShardIndex, field_pos)
            .with_shard(i);
      expect_offset += rec.payload_length;
      header.shards.push_back(rec);
    }
    // Payload accounting: the index must cover the rest of the container
    // exactly -- too little is truncation, too much is trailing data.
    const std::size_t expected_end = header.header_symbols + expect_offset;
    if (expected_end > container.size())
      throw DecodeError(DecodeFault::kTruncated, container.size());
    if (expected_end < container.size())
      throw DecodeError(DecodeFault::kTrailingData, expected_end);
  } catch (const bits::StreamOverrun& e) {
    throw DecodeError(DecodeFault::kTruncated, e.offset());
  } catch (const bits::InvalidSymbol& e) {
    // An X inside the magic is a non-container; one inside the index is a
    // corrupted container.
    throw DecodeError(e.offset() < kMagicBits ? DecodeFault::kBadMagic
                                              : DecodeFault::kBadShardIndex,
                      e.offset());
  }
  return header;
}

bits::TritVector encode_sharded(const Codec& codec, const TestSet& td,
                                std::size_t shards, std::size_t jobs,
                                ShardedStats* stats) {
  jobs = resolve_jobs(jobs);
  if (shards == 0) shards = jobs;
  const auto plan = shard_plan(td.pattern_count(), shards);
  const std::size_t count = plan.size();
  const std::size_t width = td.pattern_length();
  const TritVector& flat = td.flatten();

  // Stage 1: encode every shard independently. Workers write only their own
  // slot; jobs=1 runs the identical lambda inline, so the container is a
  // pure function of (codec, td, shard count).
  std::vector<TritVector> payloads(count);
  auto encode_shard = [&](std::size_t i) {
    const auto [first, patterns] = plan[i];
    payloads[i] = codec.encode(flat.slice(first * width, patterns * width));
  };
  if (jobs > 1 && count > 1) {
    core::ThreadPool pool(jobs < count ? jobs : count);
    core::parallel_for(pool, 0, count, encode_shard);
  } else {
    for (std::size_t i = 0; i < count; ++i) encode_shard(i);
  }

  // Stage 2: index + concatenation, strictly in shard order.
  bits::BitWriter header;
  header.put_bits(kShardMagic, kMagicBits);
  header.put_bits(kShardVersion, kVersionBits);
  header.put_bits(count, kCountBits);
  header.put_bits(td.pattern_count(), kGeometryBits);
  header.put_bits(width, kGeometryBits);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (offset + payloads[i].size() >
        std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("sharded payload exceeds 2^32 symbols");
    header.put_bits(offset, 32);
    header.put_bits(payloads[i].size(), 32);
    header.put_bits(shard_crc(payloads[i], 0, payloads[i].size()), 32);
    offset += payloads[i].size();
  }

  TritVector container = header.take();
  const std::size_t header_bits = container.size();
  for (const TritVector& p : payloads) container.append(p);

  if (stats != nullptr) {
    stats->shard_count = count;
    stats->header_bits = header_bits;
    stats->payload_bits = offset;
    stats->total_bits = container.size();
  }
  return container;
}

TestSet decode_sharded(const Codec& codec, const TritVector& container,
                       std::size_t jobs) {
  jobs = resolve_jobs(jobs);
  const ShardedHeader header = parse_sharded_header(container);
  const std::size_t count = header.shard_count;

  // The index gives every worker its own [start, start+len) window; no
  // shared cursor exists, so workers are fully independent.
  std::vector<TritVector> decoded(count);
  auto decode_shard = [&](std::size_t i) {
    const ShardRecord& rec = header.shards[i];
    const std::size_t start = header.header_symbols + rec.payload_offset;
    if (shard_crc(container, start, rec.payload_length) != rec.crc)
      throw DecodeError(DecodeFault::kShardCrc, start).with_shard(i);
    const TritVector payload = container.slice(start, rec.payload_length);
    try {
      decoded[i] = codec.decode(
          payload, rec.pattern_count * header.pattern_width);
    } catch (const DecodeError& e) {
      // Re-base the shard-relative offset so the report points into the
      // container, and name the shard.
      throw DecodeError(e.fault(), e.stream_offset() + start, e.block_index(),
                        e.pin())
          .with_shard(i);
    }
  };
  if (jobs > 1 && count > 1) {
    core::ThreadPool pool(jobs < count ? jobs : count);
    core::parallel_for(pool, 0, count, decode_shard);
  } else {
    for (std::size_t i = 0; i < count; ++i) decode_shard(i);
  }

  TritVector stream;
  for (const TritVector& d : decoded) stream.append(d);
  return TestSet::unflatten(std::move(stream), header.pattern_count,
                            header.pattern_width);
}

TritVector strip_shard_index(const TritVector& container) {
  const ShardedHeader header = parse_sharded_header(container);
  return container.slice(header.header_symbols,
                         container.size() - header.header_symbols);
}

}  // namespace nc::codec
