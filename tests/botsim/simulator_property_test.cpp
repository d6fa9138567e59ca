// Property tests: invariants of the trace generator that must hold for any
// seed, checked over a parameterized seed sweep.
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "botsim/simulator.h"
#include "core/collaboration.h"
#include "test_support.h"

namespace ddos::sim {
namespace {

using data::Family;

class SimulatorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // A per-seed dataset, cached across the fixture's tests for that seed.
  static const data::Dataset& DatasetFor(std::uint64_t seed) {
    static std::unordered_map<std::uint64_t, data::Dataset> cache;
    const auto it = cache.find(seed);
    if (it != cache.end()) return it->second;
    SimConfig config = ::ddos::testing::SmallSimConfig();
    config.seed = seed;
    TraceSimulator simulator(::ddos::testing::TestGeoDb(), DefaultProfiles(),
                             config);
    return cache.emplace(seed, simulator.Generate()).first->second;
  }
};

TEST_P(SimulatorSeedSweep, AttackTableIsChronologicalWithUniqueIds) {
  const auto& ds = DatasetFor(GetParam());
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < ds.attacks().size(); ++i) {
    const data::AttackRecord& a = ds.attacks()[i];
    EXPECT_TRUE(ids.insert(a.ddos_id).second);
    EXPECT_LT(a.start_time, a.end_time);
    if (i > 0) {
      EXPECT_LE(ds.attacks()[i - 1].start_time, a.start_time);
    }
  }
}

TEST_P(SimulatorSeedSweep, ProtocolsAlwaysFromProfile) {
  const auto& ds = DatasetFor(GetParam());
  const auto profiles = DefaultProfiles();
  for (const data::AttackRecord& a : ds.attacks()) {
    const FamilyProfile& p = ProfileFor(profiles, a.family);
    bool allowed = false;
    for (const ProtocolShare& ps : p.protocols) {
      allowed |= ps.protocol == a.category;
    }
    EXPECT_TRUE(allowed) << data::FamilyName(a.family) << " used "
                         << data::ProtocolName(a.category);
  }
}

TEST_P(SimulatorSeedSweep, EvasiveFamiliesNeverUnder60s) {
  const auto& ds = DatasetFor(GetParam());
  for (const Family f : {Family::kAldibot, Family::kOptima}) {
    std::vector<TimePoint> starts;
    for (const std::size_t idx : ds.AttacksOfFamily(f)) {
      starts.push_back(ds.attacks()[idx].start_time);
    }
    std::sort(starts.begin(), starts.end());
    for (std::size_t i = 1; i < starts.size(); ++i) {
      EXPECT_GE(starts[i] - starts[i - 1], 60) << data::FamilyName(f);
    }
  }
}

TEST_P(SimulatorSeedSweep, SnapshotBotsResolveAndAreBounded) {
  const auto& ds = DatasetFor(GetParam());
  const auto profiles = DefaultProfiles();
  for (const data::SnapshotRecord& snap : ds.snapshots()) {
    const FamilyProfile& p = ProfileFor(profiles, snap.family);
    const double scaled =
        std::max(8.0, p.bots_per_snapshot_mean *
                          ::ddos::testing::SmallSimConfig().scale);
    EXPECT_GE(snap.bot_ips.size(), 4u);
    EXPECT_LE(snap.bot_ips.size(), static_cast<std::size_t>(scaled * 1.5) + 4);
  }
}

TEST_P(SimulatorSeedSweep, BotRecordsHaveOrderedIntervals) {
  const auto& ds = DatasetFor(GetParam());
  std::set<std::uint32_t> ips;
  for (const data::BotRecord& b : ds.bots()) {
    EXPECT_LE(b.first_seen, b.last_seen);
    EXPECT_TRUE(ips.insert(b.ip.bits()).second) << b.ip.ToString();
  }
}

TEST_P(SimulatorSeedSweep, InjectedCollaborationStructureSurvives) {
  // Whatever the seed, the qualitative Table-VI structure must hold:
  // Dirtjumper leads the intra-family counts, and every cross-family event
  // involves Dirtjumper (verified through the detector, not the injector).
  const auto& ds = DatasetFor(GetParam());
  const auto events = core::DetectConcurrentCollaborations(ds);
  std::array<std::size_t, data::kFamilyCount> intra{};
  for (const core::CollaborationEvent& e : events) {
    if (!e.intra_family) {
      bool has_dj = false;
      for (const core::CollabParticipant& p : e.participants) {
        has_dj |= p.family == Family::kDirtjumper;
      }
      EXPECT_TRUE(has_dj);
    } else {
      ++intra[static_cast<std::size_t>(e.participants.front().family)];
    }
  }
  for (const Family f : data::ActiveFamilies()) {
    if (f == Family::kDirtjumper) continue;
    EXPECT_GE(intra[static_cast<std::size_t>(Family::kDirtjumper)],
              intra[static_cast<std::size_t>(f)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorSeedSweep,
                         ::testing::Values(1ull, 42ull, 20120829ull,
                                           0xdeadbeefull));

}  // namespace
}  // namespace ddos::sim
