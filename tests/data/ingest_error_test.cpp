// The error-policy ingestion contract: every malformed row maps to exactly
// one IngestErrorKind, kSkip/kQuarantine keep reading without dropping any
// clean record, and the quarantine file preserves rejected raw lines in a
// replayable form.
#include "data/ingest_error.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "data/csv.h"
#include "test_support.h"

namespace ddos::data {
namespace {

constexpr char kHeader[] =
    "ddos_id,botnet_id,family,category,target_ip,timestamp,end_time,asn,"
    "cc,city,latitude,longitude,organization,magnitude\n";

// A well-formed data row with a substitutable field.
std::string Row(std::uint64_t id) {
  return StrFormat(
      "%llu,7,Dirtjumper,http,10.1.2.3,2012-09-01 10:00:00,"
      "2012-09-01 11:00:00,64500,US,Denver,39.700000,-104.900000,AcmeCo,25",
      static_cast<unsigned long long>(id));
}

std::string RowWithField(std::uint64_t id, std::size_t field,
                         const std::string& value) {
  std::vector<std::string> f = ParseCsvLine(Row(id));
  f.at(field) = value;
  return Join(f, ",");
}

struct ReadResult {
  std::vector<AttackRecord> records;
  IngestErrorReport report;
};

ReadResult ReadWithPolicy(const std::string& csv, ParseOptions options) {
  std::stringstream in(csv);
  ReadResult r;
  r.records = ReadAttacksCsv(in, options, &r.report);
  return r;
}

TEST(IngestError, KindNamesAreDistinct) {
  std::vector<std::string_view> names;
  for (int k = 0; k < kIngestErrorKindCount; ++k) {
    names.push_back(IngestErrorKindName(static_cast<IngestErrorKind>(k)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(IngestError, SkipPolicyClassifiesEveryKind) {
  std::string csv(kHeader);
  csv += Row(1) + "\n";
  csv += "1,2,3\n";                                             // bad-field-count
  csv += RowWithField(2, 7, "notanum") + "\n";                  // unparseable-number
  csv += RowWithField(3, 9, "\"unterminated") + "\n";           // unterminated-quote
  csv += RowWithField(4, 5, "2150-01-01 00:00:00") + "\n";      // out-of-range-timestamp
  csv += RowWithField(5, 6, "2012-09-01 08:00:00") + "\n";      // negative-duration
  csv += Row(1) + "\n";                                         // duplicate-id
  csv += Row(6) + "\n";
  csv += Row(7).substr(0, 10);                                  // truncated-line (no \n)

  const ReadResult r = ReadWithPolicy(csv, ParseOptions::Skip());
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].ddos_id, 1u);
  EXPECT_EQ(r.records[1].ddos_id, 6u);

  EXPECT_EQ(r.report.count(IngestErrorKind::kBadFieldCount), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kUnparseableNumber), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kUnterminatedQuote), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kOutOfRangeTimestamp), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kNegativeDuration), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kDuplicateId), 1u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kTruncatedLine), 1u);
  EXPECT_EQ(r.report.total(), 7u);
}

TEST(IngestError, NonFiniteCoordinatesRejected) {
  for (const char* bad : {"nan", "inf", "-inf", "91.0", "-91.0"}) {
    std::string csv(kHeader);
    csv += RowWithField(1, 10, bad) + "\n";
    const ReadResult r = ReadWithPolicy(csv, ParseOptions::Skip());
    EXPECT_TRUE(r.records.empty()) << bad;
    EXPECT_EQ(r.report.count(IngestErrorKind::kUnparseableNumber), 1u) << bad;
  }
  std::string csv(kHeader);
  csv += RowWithField(1, 11, "181.0") + "\n";
  const ReadResult r = ReadWithPolicy(csv, ParseOptions::Skip());
  EXPECT_EQ(r.report.count(IngestErrorKind::kUnparseableNumber), 1u);
}

TEST(IngestError, StrictPolicyThrowsWithKindAndLine) {
  std::string csv(kHeader);
  csv += Row(1) + "\n";
  csv += "1,2,3\n";
  std::stringstream in(csv);
  AttackCsvReader reader(in);  // default strict
  AttackRecord a;
  EXPECT_TRUE(reader.Next(&a));
  try {
    reader.Next(&a);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad-field-count"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(IngestError, StrictPolicyAcceptsDuplicateIdsForCompatibility) {
  // Legacy behavior: trusted files are read in constant memory with no
  // duplicate tracking; only the resilient policies pay for the id set.
  std::string csv(kHeader);
  csv += Row(1) + "\n";
  csv += Row(1) + "\n";
  std::stringstream in(csv);
  EXPECT_EQ(ReadAttacksCsv(in).size(), 2u);
}

TEST(IngestError, QuarantineWriterPreservesRawLinesForReplay) {
  const std::string bad_number = RowWithField(2, 7, "notanum");
  std::string csv(kHeader);
  csv += Row(1) + "\n";
  csv += bad_number + "\n";
  csv += Row(3) + "\n";

  std::ostringstream quarantined;
  QuarantineWriter writer(quarantined);
  std::stringstream in(csv);
  IngestErrorReport report;
  const auto records =
      ReadAttacksCsv(in, ParseOptions::Quarantine(&writer), &report);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(writer.written(), 1u);
  EXPECT_EQ(report.total(), 1u);

  // The quarantine carries a '#' diagnosis line then the raw line verbatim;
  // stripping comments yields a replayable CSV fragment.
  const std::string text = quarantined.str();
  EXPECT_NE(text.find("# line 3: unparseable-number"), std::string::npos)
      << text;
  std::vector<std::string> replayable;
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty() && line[0] != '#') replayable.push_back(line);
  }
  ASSERT_EQ(replayable.size(), 1u);
  EXPECT_EQ(replayable[0], bad_number);
}

TEST(IngestError, QuarantineWriterStagesThenPublishesAtomically) {
  const std::string dir = ::ddos::testing::TestTempDir();
  const std::string path = dir + "/quarantine_publish.csv";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  QuarantineWriter writer(path);
  writer.Write({IngestErrorKind::kBadFieldCount, 3, "3 fields", "1,2,3"});
  // Before Close() only the clearly-partial stage file exists.
  EXPECT_TRUE(std::ifstream(tmp).good());
  EXPECT_FALSE(std::ifstream(path).good());

  writer.Close();
  EXPECT_FALSE(std::ifstream(tmp).good()) << "stage file must be renamed away";
  std::ifstream published(path);
  ASSERT_TRUE(published.good());
  std::stringstream text;
  text << published.rdbuf();
  EXPECT_NE(text.str().find("# line 3: bad-field-count"), std::string::npos);
  EXPECT_NE(text.str().find("1,2,3"), std::string::npos);

  writer.Close();  // idempotent
  EXPECT_THROW(
      writer.Write({IngestErrorKind::kBadFieldCount, 4, "late", "x"}),
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(IngestError, QuarantineWriterRemovesTmpWhenRenameFails) {
  // Renaming a file over an existing non-empty directory fails, which
  // stands in for any publish-time failure: the .tmp must not survive.
  const std::string dir = ::ddos::testing::TestTempDir();
  const std::string path = dir + "/quarantine_rename_fail";
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  const std::string blocker = path + "/occupied";
  { std::ofstream(blocker) << "x"; }

  QuarantineWriter writer(path);
  writer.Write({IngestErrorKind::kDuplicateId, 9, "dup", "9,9"});
  EXPECT_THROW(writer.Close(), std::runtime_error);
  EXPECT_FALSE(std::ifstream(tmp).good())
      << "failed rename must delete the stage file";

  std::remove(blocker.c_str());
  ::rmdir(path.c_str());
}

TEST(IngestError, SkipPolicyRecoversEveryCleanRecordOfARealTrace) {
  const auto& ds = ::ddos::testing::SmallDataset();
  std::stringstream clean;
  WriteAttacksCsv(clean, ds.attacks());

  // Splice garbage between every 10th record.
  std::stringstream dirty;
  std::size_t line_no = 0;
  std::string line;
  while (ReadCsvLine(clean, &line)) {
    dirty << line << '\n';
    if (++line_no % 10 == 0) dirty << "%%% not a csv row %%%\n";
  }

  const ReadResult r = ReadWithPolicy(dirty.str(), ParseOptions::Skip());
  ASSERT_EQ(r.records.size(), ds.attacks().size());
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].ddos_id, ds.attacks()[i].ddos_id);
    EXPECT_EQ(r.records[i].start_time, ds.attacks()[i].start_time);
  }
  EXPECT_EQ(r.report.count(IngestErrorKind::kBadFieldCount), line_no / 10);
}

TEST(IngestError, OverLongLineRejectedNotBuffered) {
  ParseOptions options = ParseOptions::Skip();
  options.max_line_bytes = 256;
  std::string csv(kHeader);
  csv += Row(1) + "\n";
  csv += std::string(10000, 'x') + "\n";
  csv += Row(2) + "\n";
  const ReadResult r = ReadWithPolicy(csv, options);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.report.count(IngestErrorKind::kTruncatedLine), 1u);
}

TEST(IngestError, ReportToStringListsNonZeroKinds) {
  IngestErrorReport report;
  report.Add(IngestErrorKind::kDuplicateId);
  report.Add(IngestErrorKind::kDuplicateId);
  report.Add(IngestErrorKind::kNegativeDuration);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("duplicate-id: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("negative-duration: 1"), std::string::npos) << text;
  EXPECT_EQ(text.find("bad-field-count"), std::string::npos) << text;
}

}  // namespace
}  // namespace ddos::data
