// Tests for the benchmark's own statistics: the tail-percentile rule and
// failure counting against attempts.
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(xs, 0.5), 3);
  EXPECT_EQ(percentile(xs, 0.2), 1);
  EXPECT_EQ(percentile(xs, 0.21), 2);
  EXPECT_EQ(percentile(xs, 1.0), 5);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(TailRule, CountsSamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(1000), 0.99);   // exactly 10 beyond p99
  EXPECT_EQ(tail_quantile(999), 0.95);    // 9 beyond p99 is not enough
  EXPECT_EQ(tail_quantile(200), 0.95);    // 10 beyond p95
  EXPECT_EQ(tail_quantile(199), 0.9);
  EXPECT_EQ(tail_quantile(20), 0.5);
  EXPECT_EQ(tail_quantile(19), 0.0);      // not even the median qualifies
  EXPECT_EQ(tail_quantile(0), 0.0);
}

TEST(TailRule, NeverAboveP99) {
  EXPECT_EQ(tail_quantile(100000), 0.99);
}

TEST(TailRule, SummaryReportsTheSupportedTail) {
  const auto big = summarize_latency(one_to(1000));
  EXPECT_EQ(big.count, 1000u);
  EXPECT_EQ(big.p50, 500);
  EXPECT_EQ(big.tail_q, 0.99);
  EXPECT_EQ(big.tail, 990);

  const auto small = summarize_latency(one_to(150));
  EXPECT_EQ(small.tail_q, 0.9);
  EXPECT_EQ(small.tail, 135);

  const auto tiny = summarize_latency(one_to(5));
  EXPECT_EQ(tiny.tail_q, 0.0);
  EXPECT_EQ(tiny.tail, tiny.p50);
}

TEST(FailRule, ValidityAndCoherenceFailUnderEverySemantics) {
  for (bool atomic : {true, false})
    for (bool consensus : {true, false}) {
      EXPECT_TRUE(trial_passes({}, consensus, atomic));
      EXPECT_FALSE(trial_passes({.valid = false}, consensus, atomic));
      EXPECT_FALSE(trial_passes({.coherent = false}, consensus, atomic));
      EXPECT_FALSE(trial_passes({.terminal = false}, consensus, atomic));
      EXPECT_FALSE(trial_passes({.audit_clean = false}, consensus, atomic));
    }
}

TEST(FailRule, AgreementAndDecisionOnlyForAtomicConsensus) {
  EXPECT_FALSE(trial_passes({.agreement = false}, true, true));
  EXPECT_FALSE(trial_passes({.decided_all = false}, true, true));
  EXPECT_TRUE(trial_passes({.agreement = false}, true, false));
  EXPECT_TRUE(trial_passes({.decided_all = false}, true, false));
  EXPECT_TRUE(trial_passes({.agreement = false}, false, true));
  EXPECT_TRUE(trial_passes({.decided_all = false}, false, true));
}

TEST(FailTally, CountsEachAttemptOnce) {
  fail_tally t;
  EXPECT_EQ(t.rate(), 0.0);  // nothing attempted
  t.add(true);
  t.add(false);
  t.add(true);
  t.add(true);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.rate(), 0.25);
}

TEST(FailTally, BlockFailuresAreClampedToAttempts) {
  fail_tally t;
  t.add_block(10, 3);
  EXPECT_EQ(t.attempted, 10u);
  EXPECT_EQ(t.failed, 3u);
  t.add_block(4, 9);  // one trial failing several checks
  EXPECT_EQ(t.attempted, 14u);
  EXPECT_EQ(t.failed, 7u);
  t.add_block(0, 0);
  EXPECT_DOUBLE_EQ(t.rate(), 0.5);
}

}  // namespace
}  // namespace perfbench
