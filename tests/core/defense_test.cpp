#include "core/defense.h"

#include <gtest/gtest.h>

#include "core/durations.h"
#include "test_support.h"

namespace ddos::core {
namespace {

using data::Family;
using ::ddos::testing::SmallDataset;
using ::ddos::testing::TestGeoDb;

TEST(MitigationWindow, EmptyInput) {
  const MitigationWindow w = RecommendMitigationWindow({});
  EXPECT_DOUBLE_EQ(w.window_seconds, 0.0);
}

TEST(MitigationWindow, CoversRequestedFraction) {
  const MitigationWindow w =
      RecommendMitigationWindow(SmallDataset().attacks(), 0.80);
  EXPECT_GE(w.attacks_covered_fraction, 0.80);
  EXPECT_GT(w.window_seconds, 0.0);
  // Section III-D: 80 % of attacks end within hours, not days.
  EXPECT_LT(w.window_seconds, 2.0 * 86400);
}

TEST(MitigationWindow, MonotoneInCoverage) {
  const MitigationWindow w50 =
      RecommendMitigationWindow(SmallDataset().attacks(), 0.50);
  const MitigationWindow w95 =
      RecommendMitigationWindow(SmallDataset().attacks(), 0.95);
  EXPECT_LT(w50.window_seconds, w95.window_seconds);
}

TEST(SourceBlacklist, RankedByAppearances) {
  const auto list = BuildSourceBlacklist(SmallDataset(), TestGeoDb(), 200, 2);
  ASSERT_FALSE(list.empty());
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_GE(list[i].appearances, 2u);
    EXPECT_FALSE(list[i].cc.empty());
    if (i > 0) {
      EXPECT_GE(list[i - 1].appearances, list[i].appearances);
    }
  }
}

TEST(SourceBlacklist, RespectsMaxEntries) {
  const auto list = BuildSourceBlacklist(SmallDataset(), TestGeoDb(), 10, 1);
  EXPECT_LE(list.size(), 10u);
}

TEST(SourceBlacklist, MinAppearancesFilters) {
  const auto strict = BuildSourceBlacklist(SmallDataset(), TestGeoDb(), 100000, 50);
  const auto loose = BuildSourceBlacklist(SmallDataset(), TestGeoDb(), 100000, 2);
  EXPECT_LT(strict.size(), loose.size());
}

TEST(SourceBlacklist, PersistentBotsExist) {
  // Churn-limited pools mean some bots appear in many snapshots - those are
  // the valuable blacklist entries.
  const auto list = BuildSourceBlacklist(SmallDataset(), TestGeoDb(), 10, 1);
  ASSERT_FALSE(list.empty());
  EXPECT_GT(list.front().appearances, 10u);
}

TEST(WatchList, MostAttackedFirstWithPredictions) {
  const auto list = BuildWatchList(SmallDataset(), 20, 4);
  ASSERT_FALSE(list.empty());
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_GE(list[i].attack_count, 4u);
    EXPECT_GE(list[i].predicted_interval_s, 0.0);
    if (i > 0) {
      EXPECT_GE(list[i - 1].attack_count, list[i].attack_count);
    }
  }
  // Predicted next attack is after the last observed attack on the target.
  const WatchedTarget& top = list.front();
  const auto indices = SmallDataset().AttacksOnTarget(top.target);
  const TimePoint last = SmallDataset().attacks()[indices.back()].start_time;
  EXPECT_GE(top.predicted_next, last);
}

TEST(WatchList, EmptyDataset) {
  data::Dataset ds;
  ds.Finalize();
  EXPECT_TRUE(BuildWatchList(ds).empty());
}

}  // namespace
}  // namespace ddos::core
