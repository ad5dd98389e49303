// Functional coverage for the persistent artifact store: round trips,
// reopen persistence, content-addressed duplicate handling, erase
// tombstones, compaction (space accounting, reader concurrency -- the test
// the TSan leg leans on), fsck classification and repair, and manifest
// snapshotting. Crash-recovery byte matrices live in store_crash_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.h"
#include "store/store.h"

namespace nc::store {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nc_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreConfig config() const {
    StoreConfig c;
    c.dir = dir_.string();
    c.auto_compact = false;  // tests trigger compaction explicitly
    return c;
  }

  fs::path dir_;
};

Key key_of(std::uint64_t n) { return Key{n, ~n}; }

std::vector<std::uint8_t> payload_of(std::uint64_t n, std::size_t len) {
  std::mt19937_64 rng(n * 2654435761u + 1);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  return p;
}

TEST_F(StoreTest, PutGetRoundTrip) {
  Store store(config());
  const auto payload = payload_of(1, 1000);
  store.put(key_of(1), payload);
  const GetResult got = store.get(key_of(1));
  ASSERT_EQ(got.status, GetStatus::kHit);
  EXPECT_EQ(got.payload, payload);
  EXPECT_TRUE(store.contains(key_of(1)));
  EXPECT_FALSE(store.contains(key_of(2)));
  EXPECT_EQ(store.get(key_of(2)).status, GetStatus::kMiss);

  const StoreStats s = store.stats();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(StoreTest, EmptyPayloadIsStorable) {
  Store store(config());
  store.put(key_of(9), std::vector<std::uint8_t>{});
  const GetResult got = store.get(key_of(9));
  ASSERT_EQ(got.status, GetStatus::kHit);
  EXPECT_TRUE(got.payload.empty());
}

TEST_F(StoreTest, SurvivesReopen) {
  for (std::uint64_t n = 0; n < 20; ++n) {
    Store store(config());
    store.put(key_of(n), payload_of(n, 64 + n * 17));
    // Everything written by earlier incarnations is still there.
    for (std::uint64_t m = 0; m <= n; ++m) {
      const GetResult got = store.get(key_of(m));
      ASSERT_EQ(got.status, GetStatus::kHit) << "key " << m << " gen " << n;
      EXPECT_EQ(got.payload, payload_of(m, 64 + m * 17));
    }
  }
  Store store(config());
  EXPECT_EQ(store.stats().records, 20u);
  EXPECT_TRUE(store.stats().recovered);
}

TEST_F(StoreTest, DuplicatePutIsNoOp) {
  Store store(config());
  store.put(key_of(1), payload_of(1, 100));
  const std::uint64_t live_before = store.stats().live_bytes;
  store.put(key_of(1), payload_of(1, 100));
  const StoreStats s = store.stats();
  EXPECT_EQ(s.duplicate_puts, 1u);
  EXPECT_EQ(s.live_bytes, live_before);
  EXPECT_EQ(s.records, 1u);
}

TEST_F(StoreTest, EraseRemovesAcrossReopen) {
  {
    Store store(config());
    store.put(key_of(1), payload_of(1, 50));
    store.put(key_of(2), payload_of(2, 50));
    EXPECT_TRUE(store.erase(key_of(1)));
    EXPECT_FALSE(store.erase(key_of(3)));
    EXPECT_EQ(store.get(key_of(1)).status, GetStatus::kMiss);
  }
  Store store(config());
  EXPECT_EQ(store.get(key_of(1)).status, GetStatus::kMiss);
  EXPECT_EQ(store.get(key_of(2)).status, GetStatus::kHit);
  const StoreStats s = store.stats();
  EXPECT_EQ(s.records, 1u);
  EXPECT_EQ(s.tombstones, 1u);
  EXPECT_GT(s.dead_bytes, 0u);  // the erased record is garbage, not gone
}

TEST_F(StoreTest, CompactionReclaimsEraseGarbage) {
  StoreConfig cfg = config();
  cfg.segment_target_bytes = 4096;  // many small segments
  Store store(cfg);
  for (std::uint64_t n = 0; n < 200; ++n)
    store.put(key_of(n), payload_of(n, 100));
  for (std::uint64_t n = 0; n < 200; n += 2) store.erase(key_of(n));

  const StoreStats before = store.stats();
  ASSERT_GT(before.dead_bytes, 0u);
  ASSERT_GT(before.segments, 3u);

  const std::uint64_t reclaimed = store.compact(0.0);
  EXPECT_GT(reclaimed, 0u);

  const StoreStats after = store.stats();
  EXPECT_GT(after.compactions, 0u);
  EXPECT_GT(after.records_moved, 0u);
  EXPECT_EQ(after.bytes_reclaimed, reclaimed);
  EXPECT_LT(after.segments, before.segments);
  // Only the (unsealed) active segment may still hold garbage.
  EXPECT_LE(after.dead_bytes, before.dead_bytes / 4);

  // Every surviving key still round-trips after its record moved.
  for (std::uint64_t n = 1; n < 200; n += 2) {
    const GetResult got = store.get(key_of(n));
    ASSERT_EQ(got.status, GetStatus::kHit) << "key " << n;
    EXPECT_EQ(got.payload, payload_of(n, 100));
  }
  // And still after a reopen (the manifest recorded the moves + retires).
  Store reopened(cfg);
  for (std::uint64_t n = 1; n < 200; n += 2)
    EXPECT_EQ(reopened.get(key_of(n)).status, GetStatus::kHit) << "key " << n;
  for (std::uint64_t n = 0; n < 200; n += 2)
    EXPECT_EQ(reopened.get(key_of(n)).status, GetStatus::kMiss) << "key " << n;
}

TEST_F(StoreTest, CompactionBelowThresholdIsSkipped) {
  StoreConfig cfg = config();
  cfg.segment_target_bytes = 4096;
  Store store(cfg);
  for (std::uint64_t n = 0; n < 100; ++n)
    store.put(key_of(n), payload_of(n, 100));
  store.erase(key_of(0));  // a sliver of garbage
  EXPECT_EQ(store.compact(0.9), 0u);
  EXPECT_EQ(store.stats().compactions, 0u);
}

TEST_F(StoreTest, AutoCompactionOnThreadPool) {
  core::ThreadPool pool(2);
  StoreConfig cfg = config();
  cfg.segment_target_bytes = 4096;
  cfg.auto_compact = true;
  cfg.compact_garbage_ratio = 0.3;
  cfg.pool = &pool;
  {
    Store store(cfg);
    for (std::uint64_t n = 0; n < 300; ++n) {
      store.put(key_of(n), payload_of(n, 100));
      if (n % 2 == 0) store.erase(key_of(n));
    }
    // ~Store waits for the scheduled background compaction, so reads below
    // see a settled store.
  }
  Store store(cfg);
  EXPECT_GT(store.stats().bytes_reclaimed + store.stats().records,
            0u);  // reopened fine
  for (std::uint64_t n = 1; n < 300; n += 2) {
    const GetResult got = store.get(key_of(n));
    ASSERT_EQ(got.status, GetStatus::kHit) << "key " << n;
    EXPECT_EQ(got.payload, payload_of(n, 100));
  }
}

// The TSan-leg workhorse: readers hammer every key while compaction
// repeatedly rewrites segments underneath them. The churn that feeds the
// compactor garbage uses a disjoint key range [kKeys, 2*kKeys) so the keys
// the readers probe are live at all times -- a reader must always see a
// verified hit with the exact payload; any miss, torn read or data race is
// a bug.
TEST_F(StoreTest, ConcurrentReadersDuringCompaction) {
  StoreConfig cfg = config();
  cfg.segment_target_bytes = 2048;
  Store store(cfg);
  constexpr std::uint64_t kKeys = 64;
  for (std::uint64_t n = 0; n < kKeys; ++n)
    store.put(key_of(n), payload_of(n, 120));
  // Garbage in every segment: overwrite-style churn via erase + re-put,
  // interleaved into the same segments as the reader-visible keys.
  for (std::uint64_t n = kKeys; n < 2 * kKeys; n += 3) {
    store.put(key_of(n), payload_of(n, 120));
    store.erase(key_of(n));
    store.put(key_of(n), payload_of(n, 120));
  }

  constexpr int kReaders = 4;
  // Reads that must land while compaction runs: the loop below keeps
  // compacting until they have, so overlap is proven, not hoped for.
  constexpr std::uint64_t kReadFloor = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> started{0};  // readers past their first verified get
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&store, &stop, &reads, &started, t] {
      std::mt19937_64 rng(t);
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t n = rng() % kKeys;
        const GetResult got = store.get(key_of(n));
        ASSERT_EQ(got.status, GetStatus::kHit);
        ASSERT_EQ(got.payload, payload_of(n, 120));
        reads.fetch_add(1, std::memory_order_relaxed);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  // Under CPU load every compaction round can finish before a reader is
  // scheduled at all. Bounded waits: a reader that failed its assertion
  // has exited, and the test must end with that failure, not hang.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (started.load() < kReaders &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  const std::uint64_t reads_before = reads.load();
  for (int round = 0;
       round < 10 || (reads.load() - reads_before < kReadFloor &&
                      std::chrono::steady_clock::now() < give_up);
       ++round) {
    store.compact(0.0);
    // Re-create garbage so the next round has something to move -- only in
    // the churn range, never touching a key a reader might be fetching.
    for (std::uint64_t n = kKeys + round % 3; n < 2 * kKeys; n += 3) {
      store.erase(key_of(n));
      store.put(key_of(n), payload_of(n, 120));
    }
  }
  const std::uint64_t overlapping = reads.load() - reads_before;
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(started.load(), kReaders);
  EXPECT_GE(overlapping, kReadFloor);
  // Nothing was lost in the churn.
  for (std::uint64_t n = 0; n < kKeys; ++n)
    EXPECT_EQ(store.get(key_of(n)).status, GetStatus::kHit) << "key " << n;
}

TEST_F(StoreTest, FsckCleanOnHealthyStore) {
  Store store(config());
  for (std::uint64_t n = 0; n < 10; ++n)
    store.put(key_of(n), payload_of(n, 80));
  store.erase(key_of(3));
  const FsckReport rep = store.fsck(/*repair=*/false);
  EXPECT_TRUE(rep.clean);
  EXPECT_FALSE(rep.repaired);
  EXPECT_EQ(rep.dangling_entries, 0u);
  EXPECT_EQ(rep.orphan_records, 0u);
  EXPECT_EQ(rep.records_scanned, 10u);
  EXPECT_GE(rep.segments_scanned, 1u);
}

TEST_F(StoreTest, FsckRecoversOrphanedSegmentRecord) {
  const auto payload = payload_of(7, 90);
  {
    // Write two records, then chop the manifest back so the second one's
    // birth is forgotten -- exactly the state a crash between segment append
    // and manifest append leaves behind.
    Store store(config());
    store.put(key_of(1), payload_of(1, 90));
    const std::uint64_t keep = store.stats().manifest_bytes;
    store.put(key_of(7), payload);
    std::error_code ec;
    fs::resize_file(dir_ / "manifest.nc9m", keep, ec);
    ASSERT_FALSE(ec);
    // Drop the store without letting it write anything further: from here
    // on the on-disk state is what the next open sees. (~Store appends
    // nothing, so this is safe.)
  }
  Store store(config());
  EXPECT_EQ(store.get(key_of(7)).status, GetStatus::kMiss);  // orphaned
  const FsckReport scan = store.fsck(/*repair=*/false);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.orphan_records, 1u);

  const FsckReport rep = store.fsck(/*repair=*/true);
  EXPECT_TRUE(rep.repaired);
  EXPECT_EQ(rep.orphans_recovered, 1u);
  const GetResult got = store.get(key_of(7));
  ASSERT_EQ(got.status, GetStatus::kHit);
  EXPECT_EQ(got.payload, payload);

  // Clean now, and still recovered after another reopen.
  EXPECT_TRUE(store.fsck(false).clean);
  Store reopened(config());
  EXPECT_EQ(reopened.get(key_of(7)).status, GetStatus::kHit);
}

TEST_F(StoreTest, FsckDoesNotResurrectErasedKeys) {
  {
    Store store(config());
    store.put(key_of(1), payload_of(1, 60));
    store.erase(key_of(1));
  }
  Store store(config());
  const FsckReport rep = store.fsck(/*repair=*/true);
  // The segment record is still on disk but tombstoned: not an orphan.
  EXPECT_EQ(rep.orphan_records, 0u);
  EXPECT_EQ(store.get(key_of(1)).status, GetStatus::kMiss);
}

TEST_F(StoreTest, FsckRemovesStraySegmentFile) {
  {
    Store store(config());
    store.put(key_of(1), payload_of(1, 60));
  }
  // A segment file the manifest knows nothing about and holding no live
  // data: a valid header with no records.
  const fs::path stray = dir_ / "seg-000099.nc9a";
  {
    // Valid header, zero records.
    std::vector<std::uint8_t> hdr = {'N', 'C', '9', 'A', 1,
                                     99,  0,   0,   0,   0,
                                     0,   0,   0};
    FILE* f = fopen(stray.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(hdr.data(), 1, hdr.size(), f);
    fclose(f);
  }
  Store store(config());
  const FsckReport scan = store.fsck(/*repair=*/false);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.stray_segments, 1u);
  const FsckReport rep = store.fsck(/*repair=*/true);
  EXPECT_EQ(rep.stray_segments_removed, 1u);
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_TRUE(store.fsck(false).clean);
  EXPECT_EQ(store.get(key_of(1)).status, GetStatus::kHit);
}

TEST_F(StoreTest, ManifestSnapshotsOnBloatedReopen) {
  StoreConfig cfg = config();
  cfg.segment_target_bytes = 4096;
  std::uint64_t bloated = 0;
  {
    Store store(cfg);
    // Heavy churn: each round appends put+erase records for the same keys.
    for (int round = 0; round < 30; ++round)
      for (std::uint64_t n = 0; n < 10; ++n) {
        store.put(key_of(n), payload_of(n, 40));
        if (round < 29) store.erase(key_of(n));
      }
    store.compact(0.0);
    bloated = store.stats().manifest_bytes;
  }
  Store store(cfg);
  // Reopen rewrote the manifest down to roughly live-state size.
  EXPECT_LT(store.stats().manifest_bytes, bloated / 4);
  for (std::uint64_t n = 0; n < 10; ++n)
    EXPECT_EQ(store.get(key_of(n)).status, GetStatus::kHit) << "key " << n;
}

TEST_F(StoreTest, RejectsForeignManifest) {
  fs::create_directories(dir_);
  FILE* f = fopen((dir_ / "manifest.nc9m").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("this is not a manifest, do not clobber it", f);
  fclose(f);
  EXPECT_THROW(Store{config()}, std::runtime_error);
}

}  // namespace
}  // namespace nc::store
