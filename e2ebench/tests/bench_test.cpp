// Tests of the benchmark's own logic: the tail-percentile rule, warm/cold
// classification and failure counting, and the pinned-digest check.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "digest.hpp"
#include "metrics.hpp"

namespace e2ebench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);  // even the median has 9.5 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);  // p90 would leave 9.9 beyond
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(TailPercentile, TailOfReportsValueAndSampleCount) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Tail tail = tail_of(samples);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_DOUBLE_EQ(tail.value, 90.1);  // linear interpolation at rank 89.1

  const Tail none = tail_of({1.0, 2.0, 3.0});
  EXPECT_EQ(none.percentile, 0.0);
  EXPECT_EQ(none.value, 0.0);
}

TEST(Percentile, MedianOfEvenAndOddSets) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(RequestTally, ColdIsAnyCacheMiss) {
  RequestOutcome warm{.ok = true, .cache_hits = 40, .latency_ms = 0.3};
  RequestOutcome cold{.ok = true, .cache_hits = 39, .cache_misses = 1,
                      .latency_ms = 120.0};
  EXPECT_FALSE(is_cold(warm));
  EXPECT_TRUE(is_cold(cold));

  RequestTally tally;
  tally.add(warm);
  tally.add(cold);
  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(tally.cells, 80u);
  EXPECT_EQ(tally.hits, 79u);
  EXPECT_EQ(tally.misses, 1u);
  ASSERT_EQ(tally.warm_ms.size(), 1u);
  ASSERT_EQ(tally.cold_ms.size(), 1u);
  EXPECT_EQ(tally.cold_ms[0], 120.0);
}

TEST(RequestTally, RefusedAndFailedRequestsCountAsFailed) {
  RequestTally tally;
  tally.add({.ok = false, .refused = true, .latency_ms = 0.1});
  tally.add({.ok = false, .latency_ms = 5.0});
  tally.add({.ok = true, .cache_misses = 8, .latency_ms = 90.0});
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_EQ(tally.refused, 1u);
  // A refused request misses every latency limit: it never enters the
  // latency sets, where its fast rejection would look like a fast answer.
  EXPECT_EQ(tally.cold_ms.size() + tally.warm_ms.size(), 1u);
  EXPECT_EQ(tally.cells, 8u);

  RequestTally merged;
  merged.merge(tally);
  merged.merge(tally);
  EXPECT_EQ(merged.attempted, 6u);
  EXPECT_EQ(merged.failed, 4u);
  EXPECT_EQ(merged.cold_ms.size(), 2u);
}

class DigestFile : public ::testing::Test {
 protected:
  void write(const std::string& text) { std::ofstream(path_) << text; }
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = "e2ebench_digest_test.txt";
};

TEST_F(DigestFile, MatchingOutputPasses) {
  write("# comment\ncampaign_grid 3 grid " + digest_hex("abc") + "\n");
  DigestTable table;
  std::string error;
  ASSERT_TRUE(table.load(path_, &error)) << error;
  EXPECT_TRUE(table.check("campaign_grid", 3, "grid", "abc"));
  EXPECT_TRUE(table.mismatches().empty());
}

TEST_F(DigestFile, CorruptedDigestFailsTheCheck) {
  std::string hex = digest_hex("abc");
  hex[0] = hex[0] == '0' ? '1' : '0';
  write("campaign_grid 3 grid " + hex + "\n");
  DigestTable table;
  std::string error;
  ASSERT_TRUE(table.load(path_, &error)) << error;
  EXPECT_FALSE(table.check("campaign_grid", 3, "grid", "abc"));
  ASSERT_EQ(table.mismatches().size(), 1u);
}

TEST_F(DigestFile, ChangedOutputOrMissingDigestFails) {
  write("vppd_mix 0 r0 " + digest_hex("result") + "\n");
  DigestTable table;
  std::string error;
  ASSERT_TRUE(table.load(path_, &error)) << error;
  EXPECT_FALSE(table.check("vppd_mix", 0, "r0", "result!"));
  EXPECT_FALSE(table.check("vppd_mix", 1, "r0", "result"));
  EXPECT_EQ(table.mismatches().size(), 2u);
}

TEST_F(DigestFile, MalformedLineIsAnError) {
  write("campaign_grid 3 grid not-a-digest\n");
  DigestTable table;
  std::string error;
  EXPECT_FALSE(table.load(path_, &error));
  EXPECT_NE(error.find("malformed"), std::string::npos);
}

TEST(Digest, Fnv1a64KnownValues) {
  EXPECT_EQ(digest_hex(""), "cbf29ce484222325");
  EXPECT_EQ(digest_hex("a"), "af63dc4c8601ec8c");
}

}  // namespace
}  // namespace e2ebench
