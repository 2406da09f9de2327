#include "market/support.h"

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "tests/testing/cell_delta.h"
#include "tests/testing/test_db.h"

namespace qp::market {
namespace {

TEST(SupportTest, GeneratesRequestedSize) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(1);
  auto support = GenerateSupport(*db, {.size = 50, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok()) << support.status();
  EXPECT_EQ(support->size(), 50u);
}

TEST(SupportTest, DeltasAreDistinct) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(2);
  auto support = GenerateSupport(*db, {.size = 100, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  std::set<std::tuple<int, int, int, std::string>> seen;
  for (const CellDelta& d : *support) {
    EXPECT_TRUE(
        seen.insert({d.table, d.row, d.column, d.new_value.ToString()}).second);
  }
}

TEST(SupportTest, DeltasActuallyChangeCells) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(3);
  auto support = GenerateSupport(*db, {.size = 100, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  for (const CellDelta& d : *support) {
    const db::Value& current = db->table(d.table).cell(d.row, d.column);
    EXPECT_NE(current.Compare(d.new_value), 0)
        << "delta does not change table " << d.table << " row " << d.row;
  }
}

TEST(SupportTest, DeltasStayInBoundsAndTyped) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(4);
  auto support = GenerateSupport(*db, {.size = 200, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  for (const CellDelta& d : *support) {
    ASSERT_GE(d.table, 0);
    ASSERT_LT(d.table, db->num_tables());
    const db::Table& t = db->table(d.table);
    ASSERT_GE(d.row, 0);
    ASSERT_LT(d.row, t.num_rows());
    ASSERT_GE(d.column, 0);
    ASSERT_LT(d.column, t.schema().num_columns());
    // Same-type perturbations (swap from the column's domain).
    EXPECT_EQ(d.new_value.type(), t.schema().column(d.column).type);
  }
}

TEST(SupportTest, DeterministicGivenSeed) {
  auto db = db::testing::MakeTestDatabase();
  Rng a(7), b(7);
  auto s1 = GenerateSupport(*db, {.size = 30, .max_retries = 32}, a);
  auto s2 = GenerateSupport(*db, {.size = 30, .max_retries = 32}, b);
  ASSERT_TRUE(s1.ok() && s2.ok());
  for (size_t i = 0; i < s1->size(); ++i) {
    EXPECT_EQ((*s1)[i].table, (*s2)[i].table);
    EXPECT_EQ((*s1)[i].row, (*s2)[i].row);
    EXPECT_EQ((*s1)[i].column, (*s2)[i].column);
    EXPECT_EQ((*s1)[i].new_value.Compare((*s2)[i].new_value), 0);
  }
}

TEST(SupportTest, ApplyUndoRoundTrips) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(8);
  auto support = GenerateSupport(*db, {.size = 20, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  for (const CellDelta& d : *support) {
    db::Value before = db->table(d.table).cell(d.row, d.column);
    db::Value saved = testing::ApplyDelta(*db, d);
    EXPECT_EQ(saved.Compare(before), 0);
    EXPECT_EQ(db->table(d.table).cell(d.row, d.column).Compare(d.new_value), 0);
    testing::UndoDelta(*db, d, saved);
    EXPECT_EQ(db->table(d.table).cell(d.row, d.column).Compare(before), 0);
  }
}

TEST(SupportTest, ZeroSizeSupportIsEmpty) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(9);
  auto support = GenerateSupport(*db, {.size = 0, .max_retries = 4}, rng);
  ASSERT_TRUE(support.ok());
  EXPECT_TRUE(support->empty());
}

TEST(SupportTest, EmptyDatabaseFails) {
  db::Database empty;
  Rng rng(10);
  EXPECT_FALSE(GenerateSupport(empty, {.size = 5, .max_retries = 4}, rng).ok());
}

}  // namespace
}  // namespace qp::market
