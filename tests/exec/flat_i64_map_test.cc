// FlatI64Map: every INT64 key value is storable (no reserved sentinel),
// growth rehashes keep every entry reachable, and the accounted bytes
// follow the allocated capacity.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.h"
#include "exec/flat_i64_map.h"

namespace patchindex {
namespace {

TEST(FlatI64MapTest, EmptyMapFindsNothingAndAllocatesNothing) {
  FlatI64Map map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.ApproxBytes(), 0u);
  EXPECT_EQ(map.Find(0), FlatI64Map::kNotFound);
  EXPECT_EQ(map.Find(std::numeric_limits<std::int64_t>::min()),
            FlatI64Map::kNotFound);
}

TEST(FlatI64MapTest, ExtremeKeysAreOrdinaryKeys) {
  const std::vector<std::int64_t> keys = {
      0,
      -1,
      1,
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min() + 1,
      std::numeric_limits<std::int64_t>::max() - 1,
      -42};
  FlatI64Map map;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto [value, inserted] = map.FindOrInsert(keys[i], i);
    EXPECT_TRUE(inserted) << keys[i];
    EXPECT_EQ(value, i);
  }
  EXPECT_EQ(map.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(map.Find(keys[i]), i) << keys[i];
    // A second insert returns the stored value and changes nothing.
    const auto [value, inserted] = map.FindOrInsert(keys[i], 1000 + i);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(value, i);
  }
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_EQ(map.Find(2), FlatI64Map::kNotFound);
}

TEST(FlatI64MapTest, GrowthRehashKeepsEveryEntry) {
  // Random keys (including colliding high bits) against a reference map,
  // through many doublings from the minimum capacity.
  Rng rng(7);
  FlatI64Map map;
  std::map<std::int64_t, std::size_t> reference;
  std::size_t last_capacity = 0;
  std::size_t growths = 0;
  for (std::size_t i = 0; i < 50'000; ++i) {
    const std::int64_t key =
        (i % 3 == 0) ? static_cast<std::int64_t>(rng.engine()())
                     : static_cast<std::int64_t>(rng.Uniform(0, 20'000)) -
                           10'000;
    const auto [value, inserted] = map.FindOrInsert(key, reference.size());
    auto [it, ref_inserted] = reference.try_emplace(key, reference.size());
    ASSERT_EQ(inserted, ref_inserted) << key;
    ASSERT_EQ(value, it->second) << key;
    if (map.capacity() != last_capacity) {
      // Power-of-two capacity, load factor at most 3/4.
      EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
      EXPECT_LE(map.size() * 4, map.capacity() * 3);
      last_capacity = map.capacity();
      ++growths;
    }
  }
  EXPECT_GT(growths, 5u);
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_EQ(map.Find(key), value) << key;
  }
  std::size_t visited = 0;
  map.ForEach([&](std::int64_t key, std::size_t value) {
    ++visited;
    EXPECT_EQ(reference.at(key), value);
  });
  EXPECT_EQ(visited, reference.size());
  EXPECT_EQ(map.ApproxBytes(), map.capacity() * 16u);
}

TEST(FlatI64MapTest, SequentialKeysAndReserve) {
  // Dense sequential keys — the shape of a NUC column — with an up-front
  // reservation: no rehash happens while the reserved count is inserted.
  FlatI64Map map(100'000);
  const std::size_t reserved = map.capacity();
  EXPECT_GE(reserved * 3, 100'000u * 4);
  for (std::int64_t k = 0; k < 100'000; ++k) {
    ASSERT_TRUE(map.FindOrInsert(k * 8, static_cast<std::size_t>(k)).second);
  }
  EXPECT_EQ(map.capacity(), reserved);
  for (std::int64_t k = 0; k < 100'000; ++k) {
    ASSERT_EQ(map.Find(k * 8), static_cast<std::size_t>(k));
    ASSERT_EQ(map.Find(k * 8 + 1), FlatI64Map::kNotFound);
  }
}

TEST(FlatI64MapTest, ClearReleasesAndMapStaysUsable) {
  FlatI64Map map;
  for (std::int64_t k = 0; k < 1000; ++k) map.FindOrInsert(k, 0);
  EXPECT_GT(map.ApproxBytes(), 0u);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.ApproxBytes(), 0u);
  EXPECT_EQ(map.Find(5), FlatI64Map::kNotFound);
  EXPECT_TRUE(map.FindOrInsert(std::numeric_limits<std::int64_t>::min(), 3)
                  .second);
  EXPECT_EQ(map.Find(std::numeric_limits<std::int64_t>::min()), 3u);
}

}  // namespace
}  // namespace patchindex
