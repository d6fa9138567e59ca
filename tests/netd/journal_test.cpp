// Journal contract: v2 round trip in exact order, per-session high-water
// marks for RESUME, all-or-nothing batches under injected write failures,
// torn-tail tolerance, v1 compatibility, and fsync policy cadence.
#include "netd/journal.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/iohooks.h"
#include "data/csv.h"
#include "test_support.h"

namespace ddos::netd {
namespace {

using Batch = std::vector<std::pair<data::AttackRecord, std::uint64_t>>;

Batch MakeBatch(std::size_t offset, std::size_t count,
                std::uint64_t first_seq) {
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  Batch batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.emplace_back(attacks[offset + i], first_seq + i);
  }
  return batch;
}

std::string TempPath(const std::string& name) {
  const std::string path = ::ddos::testing::TestTempPath(name);
  std::remove(path.c_str());
  return path;
}

TEST(Journal, RoundTripPreservesOrderSessionsAndSeqs) {
  const std::string path = TempPath("journal_roundtrip.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    EXPECT_TRUE(journal.AppendBatch("alpha", MakeBatch(0, 3, 1)));
    EXPECT_TRUE(journal.AppendBatch("", MakeBatch(3, 2, 0)));  // sessionless
    EXPECT_TRUE(journal.AppendBatch("beta", MakeBatch(5, 4, 1)));
    EXPECT_TRUE(journal.AppendBatch("alpha", MakeBatch(9, 2, 4)));
    EXPECT_EQ(journal.records_appended(), 11u);
    EXPECT_EQ(journal.append_failures(), 0u);
  }

  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 11u);

  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(contents.entries[i].record.ddos_id, attacks[i].ddos_id) << i;
  }
  EXPECT_EQ(contents.entries[0].session, "alpha");
  EXPECT_EQ(contents.entries[0].seq, 1u);
  EXPECT_EQ(contents.entries[3].session, "");  // "-" maps back to empty
  EXPECT_EQ(contents.entries[5].session, "beta");
  EXPECT_EQ(contents.entries[10].seq, 5u);

  // The RESUME answer table: highest committed seq per session.
  ASSERT_EQ(contents.session_high.size(), 2u);
  EXPECT_EQ(contents.session_high.at("alpha"), 5u);
  EXPECT_EQ(contents.session_high.at("beta"), 4u);
  std::remove(path.c_str());
}

TEST(Journal, AppendExistingContinuesAfterReopen) {
  const std::string path = TempPath("journal_reopen.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 2, 1)));
  }
  {
    // The daemon's --resume path: reopen for append, no second header.
    Journal journal(path, /*append_existing=*/true, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(2, 2, 3)));
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 4u);
  EXPECT_EQ(contents.session_high.at("s"), 4u);
  std::remove(path.c_str());
}

// Write hook that fails with ENOSPC after a byte budget, optionally
// accepting a short prefix first - the torn-batch scenario.
class EnospcAfterHooks : public common::IoHooks {
 public:
  explicit EnospcAfterHooks(std::size_t budget) : budget_(budget) {}

  ssize_t Write(int fd, const void* buf, size_t len) override {
    if (budget_ == 0) {
      errno = ENOSPC;
      return -1;
    }
    const size_t allowed = len < budget_ ? len : budget_;
    const ssize_t n = common::IoHooks::Write(fd, buf, allowed);
    if (n > 0) budget_ -= static_cast<size_t>(n);
    return n;
  }

 private:
  std::size_t budget_;
};

TEST(Journal, FailedBatchIsInvisibleAllOrNothing) {
  const std::string path = TempPath("journal_enospc.csv");
  Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
  ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 3, 1)));

  {
    // Accept ~40 bytes of the next batch, then ENOSPC: the partial write
    // must be truncated away, leaving the first batch byte-identical.
    EnospcAfterHooks hooks(40);
    common::IoHooks* prev = common::SetIoHooks(&hooks);
    EXPECT_FALSE(journal.AppendBatch("s", MakeBatch(3, 3, 4)));
    common::SetIoHooks(prev);
  }
  EXPECT_EQ(journal.append_failures(), 1u);
  EXPECT_EQ(journal.records_appended(), 3u);

  // The journal stays parseable and record-aligned; a retried batch lands.
  ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(3, 3, 4)));
  const JournalContents contents = ReadJournal(path);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 6u);
  EXPECT_EQ(contents.session_high.at("s"), 6u);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsDroppedAndFlagged) {
  const std::string path = TempPath("journal_torn.csv");
  {
    Journal journal(path, /*append_existing=*/false, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(0, 2, 1)));
  }
  {
    // Simulate a kill mid-write: a final line cut off mid-record.
    std::ofstream out(path, std::ios::app);
    out << "s\t3\t999999,7,Dirtjum";  // no newline, truncated CSV
  }
  const JournalContents contents = ReadJournal(path);
  EXPECT_TRUE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_EQ(contents.session_high.at("s"), 2u);
  std::remove(path.c_str());
}

// A headerless (v1, bare attack CSV) journal is refused, naming the path.
// Reading it as v1 lost records: `--resume` appended v2 lines to it, and
// the next replay parsed the file as v1 and dropped every appended line as
// a torn tail. An empty file is still an empty journal.
TEST(Journal, RefusesHeaderlessJournal) {
  const std::string path = TempPath("journal_v1.csv");
  const auto& attacks = ::ddos::testing::SmallDataset().attacks();
  {
    std::ofstream out(path);
    out << data::AttackCsvHeader() << "\n";
    data::WriteAttackCsvRow(out, attacks[0]);
  }
  {  // What a resume does next: append v2 records to the existing file.
    Journal journal(path, /*append_existing=*/true, FsyncPolicy::kOff, 0);
    ASSERT_TRUE(journal.AppendBatch("s", MakeBatch(1, 3, 1)));
  }
  try {
    const JournalContents contents = ReadJournal(path);
    ADD_FAILURE() << "headerless journal read as " << contents.entries.size()
                  << " entries";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }

  { std::ofstream truncate(path, std::ios::trunc); }
  const JournalContents empty = ReadJournal(path);
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_FALSE(empty.torn_tail);
  std::remove(path.c_str());
}

// Fsync-counting hook: verifies the per-policy sync cadence.
class CountFsyncHooks : public common::IoHooks {
 public:
  int Fsync(int fd) override {
    ++count;
    return common::IoHooks::Fsync(fd);
  }
  int count = 0;
};

TEST(Journal, FsyncPolicyCadence) {
  CountFsyncHooks hooks;
  common::IoHooks* prev = common::SetIoHooks(&hooks);

  {
    const std::string path = TempPath("journal_fsync_always.csv");
    Journal journal(path, false, FsyncPolicy::kAlways, 0);
    journal.AppendBatch("s", MakeBatch(0, 2, 1));
    journal.AppendBatch("s", MakeBatch(2, 2, 3));
    EXPECT_EQ(journal.fsyncs(), 2u);  // one per committed batch
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("journal_fsync_interval.csv");
    Journal journal(path, false, FsyncPolicy::kInterval, 4);
    journal.AppendBatch("s", MakeBatch(0, 3, 1));
    EXPECT_EQ(journal.fsyncs(), 0u);  // 3 < 4: not yet
    journal.AppendBatch("s", MakeBatch(3, 3, 4));
    EXPECT_EQ(journal.fsyncs(), 1u);  // 6 >= 4: due
    std::remove(path.c_str());
  }
  {
    const std::string path = TempPath("journal_fsync_off.csv");
    Journal journal(path, false, FsyncPolicy::kOff, 0);
    journal.AppendBatch("s", MakeBatch(0, 6, 1));
    EXPECT_EQ(journal.fsyncs(), 0u);
    EXPECT_TRUE(journal.Sync());  // explicit barrier still works
    EXPECT_EQ(journal.fsyncs(), 1u);
    std::remove(path.c_str());
  }

  common::SetIoHooks(prev);
  EXPECT_GE(hooks.count, 4);
}

TEST(Journal, PolicyNamesParseAndRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kInterval, FsyncPolicy::kOff}) {
    const std::string name(FsyncPolicyName(policy));
    const auto parsed = ParseFsyncPolicy(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseFsyncPolicy("sometimes").has_value());
  EXPECT_FALSE(ParseFsyncPolicy("").has_value());
}

}  // namespace
}  // namespace ddos::netd
