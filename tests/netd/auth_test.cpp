// AuthTable: TOKEN[:NAME[:MAX_RECORDS]] spec parsing, token files with
// comments, and lookup semantics.
#include "netd/auth.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "test_support.h"

namespace ddos::netd {
namespace {

TEST(AuthTable, ParseSpecFullForm) {
  const TokenSpec spec = AuthTable::ParseSpec("s3cret:upstream-eu:500000");
  EXPECT_EQ(spec.token, "s3cret");
  EXPECT_EQ(spec.name, "upstream-eu");
  EXPECT_EQ(spec.max_records, 500000u);
}

TEST(AuthTable, ParseSpecDefaultsNameToTokenPrefix) {
  const TokenSpec spec = AuthTable::ParseSpec("abcdefghijklmnop");
  EXPECT_EQ(spec.token, "abcdefghijklmnop");
  EXPECT_EQ(spec.name, "abcdefgh");  // first 8 characters
  EXPECT_EQ(spec.max_records, 0u);
}

TEST(AuthTable, ParseSpecShortTokenNameIsWholeToken) {
  const TokenSpec spec = AuthTable::ParseSpec("abc");
  EXPECT_EQ(spec.name, "abc");
}

TEST(AuthTable, ParseSpecNameWithoutQuota) {
  const TokenSpec spec = AuthTable::ParseSpec("t0ken:upstream-us");
  EXPECT_EQ(spec.name, "upstream-us");
  EXPECT_EQ(spec.max_records, 0u);
}

TEST(AuthTable, ParseSpecRejectsEmptyTokenAndBadQuota) {
  EXPECT_THROW(AuthTable::ParseSpec(""), std::runtime_error);
  EXPECT_THROW(AuthTable::ParseSpec(":name"), std::runtime_error);
  EXPECT_THROW(AuthTable::ParseSpec("tok:name:notanumber"),
               std::runtime_error);
  EXPECT_THROW(AuthTable::ParseSpec("tok:name:-5"), std::runtime_error);
}

TEST(AuthTable, FromSpecListParsesCommaSeparatedSpecs) {
  const AuthTable table =
      AuthTable::FromSpecList("alpha:feed-a:100,beta,gamma:feed-c");
  EXPECT_EQ(table.size(), 3u);
  ASSERT_NE(table.Lookup("alpha"), nullptr);
  EXPECT_EQ(table.Lookup("alpha")->name, "feed-a");
  EXPECT_EQ(table.Lookup("alpha")->max_records, 100u);
  ASSERT_NE(table.Lookup("beta"), nullptr);
  EXPECT_EQ(table.Lookup("beta")->name, "beta");
  ASSERT_NE(table.Lookup("gamma"), nullptr);
  EXPECT_EQ(table.Lookup("gamma")->name, "feed-c");
}

TEST(AuthTable, LookupUnknownTokenIsNull) {
  const AuthTable table = AuthTable::FromSpecList("alpha:feed-a");
  EXPECT_EQ(table.Lookup("bravo"), nullptr);
  EXPECT_EQ(table.Lookup(""), nullptr);
}

TEST(AuthTable, AddReplacesExistingToken) {
  AuthTable table;
  table.Add({"tok", "old-name", 10});
  table.Add({"tok", "new-name", 20});
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Lookup("tok"), nullptr);
  EXPECT_EQ(table.Lookup("tok")->name, "new-name");
  EXPECT_EQ(table.Lookup("tok")->max_records, 20u);
}

TEST(AuthTable, EmptyTableDisablesAuth) {
  AuthTable table;
  EXPECT_TRUE(table.empty());
  table.Add({"tok", "n", 0});
  EXPECT_FALSE(table.empty());
}

TEST(AuthTable, LoadFileSkipsCommentsAndBlankLines) {
  const std::string path = ::ddos::testing::TestTempPath("netd_tokens.txt");
  {
    std::ofstream out(path);
    out << "# ddoscoped token file\n"
        << "\n"
        << "alpha:feed-a:100\n"
        << "   \n"
        << "beta\n"
        << "# trailing comment\n";
  }
  const AuthTable table = AuthTable::LoadFile(path);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Lookup("alpha"), nullptr);
  EXPECT_EQ(table.Lookup("alpha")->max_records, 100u);
  EXPECT_NE(table.Lookup("beta"), nullptr);
  std::remove(path.c_str());
}

TEST(AuthTable, LoadFileMissingFileThrows) {
  EXPECT_THROW(AuthTable::LoadFile("/nonexistent/netd_tokens.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace ddos::netd
