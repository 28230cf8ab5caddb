// L0 sampling of a single dynamic vector: a one-vertex, one-group BankGroup.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sketch/bank_group.h"
#include "util/random.h"

namespace kw {
namespace {

[[nodiscard]] BankGroup make_sampler(std::uint64_t max_coord,
                                     std::uint64_t seed) {
  BankGroupConfig c;
  c.max_coord = max_coord;
  c.instances = 4;
  c.seeds = {seed};
  return BankGroup(1, c);
}

// Adds (coord, delta) to the sampled vector as a one-update batch.
void add(BankGroup& sampler, std::uint64_t coord, std::int64_t delta) {
  const BankVertexUpdate u{0, coord, delta};
  sampler.ingest_updates({&u, 1});
}

TEST(L0Sampler, ZeroVectorYieldsNothing) {
  const BankGroup sampler = make_sampler(1000, 1);
  EXPECT_FALSE(sampler.decode(0, 0).has_value());
  EXPECT_TRUE(sampler.is_zero());
}

TEST(L0Sampler, SingletonAlwaysFound) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    BankGroup sampler = make_sampler(1 << 20, seed);
    add(sampler, 777, 5);
    const auto rec = sampler.decode(0, 0);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->coord, 777u);
    EXPECT_EQ(rec->value, 5);
  }
}

TEST(L0Sampler, ReturnsTrueNonzeroCoordinate) {
  int failures = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    BankGroup sampler = make_sampler(1 << 20, 100 + seed);
    std::set<std::uint64_t> support;
    Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t c = rng.next_below(1 << 20);
      support.insert(c);
      add(sampler, c, 1);
    }
    const auto rec = sampler.decode(0, 0);
    if (!rec.has_value()) {
      ++failures;
      continue;
    }
    EXPECT_TRUE(support.contains(rec->coord))
        << "sampled coordinate must be in the support";
  }
  EXPECT_LE(failures, 3) << "decode failure rate too high";
}

TEST(L0Sampler, DeletionsRespected) {
  BankGroup sampler = make_sampler(10000, 3);
  // Insert a crowd, delete all but one.
  for (std::uint64_t c = 0; c < 300; ++c) add(sampler, c, 1);
  for (std::uint64_t c = 0; c < 300; ++c) {
    if (c != 123) add(sampler, c, -1);
  }
  const auto rec = sampler.decode(0, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->coord, 123u);
  EXPECT_EQ(rec->value, 1);
}

TEST(L0Sampler, FullyCancelledIsZero) {
  BankGroup sampler = make_sampler(500, 9);
  for (std::uint64_t c = 0; c < 100; ++c) add(sampler, c, 2);
  for (std::uint64_t c = 0; c < 100; ++c) add(sampler, c, -2);
  EXPECT_TRUE(sampler.is_zero());
  EXPECT_FALSE(sampler.decode(0, 0).has_value());
}

TEST(L0Sampler, MergeActsLikeUnion) {
  BankGroup a = make_sampler(4096, 21);
  BankGroup b = a.clone_empty();
  add(a, 11, 1);
  add(b, 22, 1);
  a.merge(b, 1);
  const auto rec = a.decode(0, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->coord == 11 || rec->coord == 22);
}

TEST(L0Sampler, MergeSubtractCancelsSharedPart) {
  BankGroup a = make_sampler(4096, 23);
  BankGroup b = a.clone_empty();
  add(a, 11, 1);
  add(a, 33, 1);
  add(b, 11, 1);
  a.merge(b, -1);  // leaves only 33
  const auto rec = a.decode(0, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->coord, 33u);
}

TEST(L0Sampler, SupportCoverage) {
  // Over many independent sampler seeds, a small support should be covered
  // nearly fully -- evidence the sampler is not biased toward a fixed
  // coordinate.
  std::set<std::uint64_t> support{10, 20, 30, 40, 50, 60, 70, 80};
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 160; ++seed) {
    BankGroup sampler = make_sampler(1000, 5000 + seed);
    for (const auto c : support) add(sampler, c, 1);
    const auto rec = sampler.decode(0, 0);
    if (rec.has_value()) seen.insert(rec->coord);
  }
  EXPECT_GE(seen.size(), 6u) << "sampler should reach most of the support";
  for (const auto c : seen) EXPECT_TRUE(support.contains(c));
}

TEST(L0Sampler, IncompatibleMergeThrows) {
  BankGroup a = make_sampler(100, 1);
  BankGroup b = make_sampler(100, 2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(L0Sampler, OutOfRangeThrows) {
  BankGroup a = make_sampler(10, 1);
  EXPECT_THROW(add(a, 10, 1), std::out_of_range);
}

}  // namespace
}  // namespace kw
