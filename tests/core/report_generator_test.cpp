#include "core/report_generator.h"

#include <fstream>

#include <gtest/gtest.h>

#include "test_support.h"

namespace ddos::core {
namespace {

using ::ddos::testing::SmallDataset;
using ::ddos::testing::TestGeoDb;

const std::string& Report() {
  static const std::string report =
      GenerateCharacterizationReport(SmallDataset(), TestGeoDb());
  return report;
}

TEST(ReportGenerator, ContainsAllSections) {
  for (const char* heading :
       {"# DDoS attack characterization report", "## Workload overview",
        "## Temporal behaviour", "## Source geolocation", "## Targets",
        "## Collaborations", "## Defense parameters"}) {
    EXPECT_NE(Report().find(heading), std::string::npos) << heading;
  }
}

TEST(ReportGenerator, MentionsKeyEntities) {
  EXPECT_NE(Report().find("dirtjumper"), std::string::npos);
  EXPECT_NE(Report().find("HTTP"), std::string::npos);
  EXPECT_NE(Report().find("2012-08-"), std::string::npos);  // window start
}

TEST(ReportGenerator, MarkdownTablesWellFormed) {
  // Every table row line starts and ends with a pipe.
  std::size_t pos = 0;
  int table_lines = 0;
  while ((pos = Report().find("\n|", pos)) != std::string::npos) {
    const std::size_t end = Report().find('\n', pos + 1);
    const std::string line = Report().substr(pos + 1, end - pos - 1);
    EXPECT_EQ(line.back(), '|') << line;
    ++table_lines;
    pos = end;
  }
  EXPECT_GT(table_lines, 20);
}

TEST(ReportGenerator, OptionsDisableSections) {
  ReportOptions options;
  options.include_geolocation = false;
  options.include_collaborations = false;
  options.include_defense = false;
  options.title = "custom title";
  const std::string report =
      GenerateCharacterizationReport(SmallDataset(), TestGeoDb(), options);
  EXPECT_NE(report.find("# custom title"), std::string::npos);
  EXPECT_EQ(report.find("## Source geolocation"), std::string::npos);
  EXPECT_EQ(report.find("## Collaborations"), std::string::npos);
  EXPECT_EQ(report.find("## Defense parameters"), std::string::npos);
  EXPECT_NE(report.find("## Targets"), std::string::npos);
}

TEST(ReportGenerator, EmptyDataset) {
  data::Dataset ds;
  ds.Finalize();
  const std::string report = GenerateCharacterizationReport(ds, TestGeoDb());
  EXPECT_NE(report.find("contains no attacks"), std::string::npos);
}

TEST(ReportGenerator, WritesToFile) {
  const std::string path = ::ddos::testing::TestTempPath("report_test.md");
  WriteCharacterizationReport(path, SmallDataset(), TestGeoDb());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "# DDoS attack characterization report");
}

TEST(ReportGenerator, WriteFailureThrows) {
  EXPECT_THROW(WriteCharacterizationReport("/nonexistent/dir/r.md",
                                           SmallDataset(), TestGeoDb()),
               std::runtime_error);
}

}  // namespace
}  // namespace ddos::core
