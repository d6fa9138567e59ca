// Shared fixtures for the test suite: a deterministic geo database and a
// small-scale synthetic dataset, each built once per test binary, and a
// temp directory private to the test process.
#ifndef DDOSCOPE_TESTS_TEST_SUPPORT_H_
#define DDOSCOPE_TESTS_TEST_SUPPORT_H_

#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <system_error>

#include <gtest/gtest.h>

#include "botsim/simulator.h"
#include "data/dataset.h"
#include "geo/geo_db.h"

namespace ddos::testing {

inline constexpr std::uint64_t kTestSeed = 1234;

// A directory of this process's own under testing::TempDir(), created on
// first use and removed at exit. ctest runs every TEST in its own process
// and `ctest -j` runs those side by side, so a fixed file name in the
// shared temp dir lets one process overwrite or delete another's file.
inline const std::string& TestTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      path = (std::filesystem::path(::testing::TempDir()) /
              ("ddoscope_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(std::random_device{}())))
                 .string();
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

// `name` inside TestTempDir().
inline std::string TestTempPath(std::string_view name) {
  return TestTempDir() + "/" + std::string(name);
}

inline const geo::GeoDatabase& TestGeoDb() {
  static const geo::GeoDatabase db = geo::GeoDatabase::MakeDefault(kTestSeed);
  return db;
}

// ~5 % scale, 60 days: a few thousand attacks, snapshots for every active
// family - enough structure for every analysis, fast enough for unit tests.
inline sim::SimConfig SmallSimConfig() {
  sim::SimConfig config;
  config.seed = kTestSeed;
  config.scale = 0.05;
  config.days = 60;
  return config;
}

inline const data::Dataset& SmallDataset() {
  static const data::Dataset dataset = [] {
    sim::TraceSimulator simulator(TestGeoDb(), sim::DefaultProfiles(),
                                  SmallSimConfig());
    return simulator.Generate();
  }();
  return dataset;
}

}  // namespace ddos::testing

#endif  // DDOSCOPE_TESTS_TEST_SUPPORT_H_
