#include "core/target_analysis.h"

#include <gtest/gtest.h>

#include "test_support.h"

namespace ddos::core {
namespace {

using data::Family;
using ::ddos::testing::SmallDataset;
using ::ddos::testing::SmallSimConfig;

TEST(CountryStats, TopListBoundedAndSorted) {
  const FamilyCountryStats s = CountryStats(SmallDataset(), Family::kDirtjumper);
  EXPECT_EQ(s.family, Family::kDirtjumper);
  EXPECT_LE(s.top.size(), 5u);
  EXPECT_GE(s.total_countries, s.top.size());
  for (std::size_t i = 1; i < s.top.size(); ++i) {
    EXPECT_GE(s.top[i - 1].attacks, s.top[i].attacks);
  }
}

TEST(CountryStats, CountsSumToFamilyAttacks) {
  const FamilyCountryStats s =
      CountryStats(SmallDataset(), Family::kColddeath, 1000);
  std::uint64_t total = 0;
  for (const CountryCount& c : s.top) total += c.attacks;
  EXPECT_EQ(total, SmallDataset().AttacksOfFamily(Family::kColddeath).size());
}

TEST(CountryStats, PreferencesMatchTableV) {
  // At the small test scale only high-volume families have enough attacks
  // for the Table-V preference to be statistically visible. Darkshell's
  // China share (1880 of ~4200 weighted) dominates even at 5 % scale; the
  // full-scale check for every family lives in the bench harness.
  EXPECT_EQ(CountryStats(SmallDataset(), Family::kDarkshell).top[0].cc, "CN");
  const auto dj = CountryStats(SmallDataset(), Family::kDirtjumper);
  EXPECT_TRUE(dj.top[0].cc == "US" || dj.top[0].cc == "RU") << dj.top[0].cc;
}

TEST(CountryStats, EmptyFamily) {
  const FamilyCountryStats s = CountryStats(SmallDataset(), Family::kZeus);
  EXPECT_EQ(s.total_countries, 0u);
  EXPECT_TRUE(s.top.empty());
}

TEST(GlobalCountryRanking, CoversAllAttacks) {
  const auto ranking = GlobalCountryRanking(SmallDataset());
  std::uint64_t total = 0;
  for (const CountryCount& c : ranking) total += c.attacks;
  EXPECT_EQ(total, SmallDataset().attacks().size());
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].attacks, ranking[i].attacks);
  }
}

TEST(GlobalCountryRanking, PaperTopCountriesLead) {
  // Section IV-B1: US and Russia lead the global target ranking. The test
  // window amplifies the Russian record-day, so just require both in top 3.
  const auto ranking = GlobalCountryRanking(SmallDataset());
  ASSERT_GE(ranking.size(), 3u);
  bool us = false, ru = false;
  for (std::size_t i = 0; i < 3; ++i) {
    us |= ranking[i].cc == "US";
    ru |= ranking[i].cc == "RU";
  }
  EXPECT_TRUE(us);
  EXPECT_TRUE(ru);
}

TEST(OrganizationHotspots, SortedWithValidCoordinates) {
  const auto spots = OrganizationHotspots(SmallDataset(), Family::kPandora);
  ASSERT_FALSE(spots.empty());
  for (std::size_t i = 0; i < spots.size(); ++i) {
    EXPECT_FALSE(spots[i].organization.empty());
    EXPECT_GT(spots[i].attacks, 0u);
    EXPECT_GE(spots[i].attacks, spots[i].distinct_targets);
    EXPECT_TRUE(geo::IsValid(spots[i].location));
    if (i > 0) {
      EXPECT_GE(spots[i - 1].attacks, spots[i].attacks);
    }
  }
}

TEST(OrganizationHotspots, TimeWindowFilters) {
  const TimePoint begin = SmallSimConfig().start + 10 * kSecondsPerDay;
  const TimePoint end = SmallSimConfig().start + 20 * kSecondsPerDay;
  const auto filtered =
      OrganizationHotspots(SmallDataset(), Family::kDirtjumper, begin, end);
  const auto all = OrganizationHotspots(SmallDataset(), Family::kDirtjumper);
  std::uint64_t filtered_total = 0, all_total = 0;
  for (const OrgHotspot& h : filtered) filtered_total += h.attacks;
  for (const OrgHotspot& h : all) all_total += h.attacks;
  EXPECT_LT(filtered_total, all_total);
  EXPECT_GT(filtered_total, 0u);
}

TEST(OrganizationHotspots, ZipfConcentration) {
  // Fig 14: a few hotspot organizations absorb a large share of attacks.
  const auto spots = OrganizationHotspots(SmallDataset(), Family::kDirtjumper);
  ASSERT_GT(spots.size(), 10u);
  std::uint64_t total = 0, top5 = 0;
  for (std::size_t i = 0; i < spots.size(); ++i) {
    total += spots[i].attacks;
    if (i < 5) top5 += spots[i].attacks;
  }
  EXPECT_GT(static_cast<double>(top5) / static_cast<double>(total), 0.2);
}

TEST(ComputeRevisits, PartitionsTargets) {
  const RevisitDistribution r = ComputeRevisits(SmallDataset());
  EXPECT_EQ(r.targets_total,
            r.targets_once + r.targets_2_to_5 + r.targets_6_plus);
  EXPECT_EQ(r.targets_total, SmallDataset().Targets().size());
  EXPECT_GE(r.max_attacks_on_one_target, 2u);
  EXPECT_GT(r.attacks_on_repeat_targets, 0.0);
  EXPECT_LE(r.attacks_on_repeat_targets, 1.0);
}

TEST(ComputeRevisits, RepeatTargetsCarryMostAttacks) {
  // Zipf-concentrated targeting: interval-based defenses apply to the
  // overwhelming majority of attack volume (Section III-D).
  const RevisitDistribution r = ComputeRevisits(SmallDataset());
  EXPECT_GT(r.attacks_on_repeat_targets, 0.6);
  // But plenty of one-time targets exist, where only automatic detection
  // can help.
  EXPECT_GT(r.targets_once, 0u);
}

TEST(ComputeRevisits, EmptyDataset) {
  data::Dataset ds;
  ds.Finalize();
  const RevisitDistribution r = ComputeRevisits(ds);
  EXPECT_EQ(r.targets_total, 0u);
  EXPECT_DOUBLE_EQ(r.attacks_on_repeat_targets, 0.0);
}

TEST(OrganizationsPerFamily, DirtjumperHasWidestPresence) {
  // Section IV-B2: Dirtjumper attacks more organizations than any other
  // family.
  const auto per_family = OrganizationsPerFamily(SmallDataset());
  ASSERT_FALSE(per_family.empty());
  EXPECT_EQ(per_family.front().first, Family::kDirtjumper);
  for (std::size_t i = 1; i < per_family.size(); ++i) {
    EXPECT_GE(per_family[i - 1].second, per_family[i].second);
  }
}

}  // namespace
}  // namespace ddos::core
