#include "core/overview.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace ddos::core {
namespace {

using data::Family;
using data::Protocol;
using ::ddos::testing::SmallDataset;
using ::ddos::testing::TestGeoDb;

TEST(ProtocolBreakdown, EmptyInput) {
  EXPECT_TRUE(ProtocolBreakdown({}).empty());
}

TEST(ProtocolBreakdown, SortedDescendingAndComplete) {
  const auto counts = ProtocolBreakdown(SmallDataset().attacks());
  ASSERT_FALSE(counts.empty());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    total += counts[i].attacks;
    if (i > 0) {
      EXPECT_LE(counts[i].attacks, counts[i - 1].attacks);
    }
  }
  EXPECT_EQ(total, SmallDataset().attacks().size());
}

TEST(ProtocolBreakdown, HttpDominates) {
  // Fig 1: HTTP is by far the most popular attack type.
  const auto counts = ProtocolBreakdown(SmallDataset().attacks());
  EXPECT_EQ(counts.front().protocol, Protocol::kHttp);
  EXPECT_GT(counts.front().attacks, SmallDataset().attacks().size() / 2);
}

TEST(FamilyProtocolTable, RowsMatchBreakdownTotals) {
  const auto rows = FamilyProtocolTable(SmallDataset().attacks());
  std::uint64_t total = 0;
  for (const auto& row : rows) {
    EXPECT_GT(row.attacks, 0u);
    total += row.attacks;
  }
  EXPECT_EQ(total, SmallDataset().attacks().size());
}

TEST(FamilyProtocolTable, DirtjumperIsHttpOnly) {
  const auto rows = FamilyProtocolTable(SmallDataset().attacks());
  for (const auto& row : rows) {
    if (row.family == Family::kDirtjumper) {
      EXPECT_EQ(row.protocol, Protocol::kHttp);
    }
  }
}

TEST(FamilyProtocolTable, ProtocolGroupOrderMatchesPaper) {
  // Rows are grouped HTTP first (the paper's Table II layout).
  const auto rows = FamilyProtocolTable(SmallDataset().attacks());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().protocol, Protocol::kHttp);
}

TEST(SummarizeWorkload, CountsAreConsistent) {
  const WorkloadSummary s = SummarizeWorkload(SmallDataset(), TestGeoDb());
  EXPECT_EQ(s.ddos_ids, SmallDataset().attacks().size());
  EXPECT_EQ(s.botnet_ids, 674u);
  EXPECT_EQ(s.attackers.ips, SmallDataset().bots().size());
  EXPECT_EQ(s.victims.ips, SmallDataset().Targets().size());
  // Hierarchy sanity: countries <= cities <= ips on both sides.
  EXPECT_LE(s.victims.countries, s.victims.cities);
  EXPECT_LE(s.victims.cities, s.victims.ips);
  EXPECT_LE(s.attackers.countries, s.attackers.cities);
  EXPECT_GE(s.traffic_types, 4u);
  EXPECT_LE(s.traffic_types, 7u);
}

TEST(SummarizeWorkload, AttackersOutnumberVictims) {
  // Table III: bot IPs outnumber target IPs by more than an order of
  // magnitude.
  const WorkloadSummary s = SummarizeWorkload(SmallDataset(), TestGeoDb());
  EXPECT_GT(s.attackers.ips, 10 * s.victims.ips);
}

TEST(MagnitudeByFamily, SortedAndConsistent) {
  const auto rows = MagnitudeByFamily(SmallDataset().attacks());
  ASSERT_FALSE(rows.empty());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    total += rows[i].attacks;
    EXPECT_GE(rows[i].mean, 3.0);        // generator floor
    EXPECT_LE(rows[i].median, rows[i].p99);
    EXPECT_LE(rows[i].p99, rows[i].max);
    if (i > 0) {
      EXPECT_GE(rows[i - 1].mean, rows[i].mean);
    }
  }
  EXPECT_EQ(total, SmallDataset().attacks().size());
}

TEST(MagnitudeByFamily, EmptyInput) {
  EXPECT_TRUE(MagnitudeByFamily({}).empty());
}

TEST(DailyDistribution, EmptyInput) {
  const DailyDistribution d = ComputeDailyDistribution({});
  EXPECT_TRUE(d.daily.empty());
  EXPECT_EQ(d.max_day_index, -1);
}

TEST(DailyDistribution, CountsSumToAttacks) {
  const DailyDistribution d = ComputeDailyDistribution(SmallDataset().attacks());
  std::uint64_t total = 0;
  for (std::uint32_t c : d.daily) total += c;
  EXPECT_EQ(total, SmallDataset().attacks().size());
  EXPECT_NEAR(d.mean_per_day,
              static_cast<double>(total) / static_cast<double>(d.daily.size()),
              1e-9);
}

TEST(DailyDistribution, RecordDayIsDayOneAndDirtjumper) {
  // Section III-A: the record day is 2012-08-30, dominated by Dirtjumper.
  const DailyDistribution d = ComputeDailyDistribution(SmallDataset().attacks());
  EXPECT_EQ(d.max_day_index, 1);
  EXPECT_EQ(d.max_day_dominant_family, Family::kDirtjumper);
  EXPECT_GT(d.max_day_dominant_share, 0.5);
  EXPECT_EQ(d.daily[static_cast<std::size_t>(d.max_day_index)], d.max_per_day);
}

TEST(DailyDistribution, SyntheticKnownCase) {
  std::vector<data::AttackRecord> attacks;
  const TimePoint origin = TimePoint::FromDate(2012, 8, 29);
  for (int i = 0; i < 3; ++i) {
    data::AttackRecord a;
    a.family = Family::kNitol;
    a.start_time = origin + i * 10;
    a.end_time = a.start_time + 100;
    attacks.push_back(a);
  }
  data::AttackRecord later;
  later.family = Family::kPandora;
  later.start_time = origin + 2 * kSecondsPerDay + 5;
  later.end_time = later.start_time + 1;
  attacks.push_back(later);
  const DailyDistribution d = ComputeDailyDistribution(attacks);
  ASSERT_EQ(d.daily.size(), 3u);
  EXPECT_EQ(d.daily[0], 3u);
  EXPECT_EQ(d.daily[1], 0u);
  EXPECT_EQ(d.daily[2], 1u);
  EXPECT_EQ(d.max_per_day, 3u);
  EXPECT_EQ(d.max_day_dominant_family, Family::kNitol);
}

}  // namespace
}  // namespace ddos::core
