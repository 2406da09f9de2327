#include "market/conflict.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/eval.h"
#include "db/parser.h"
#include "market/conflict_prober.h"
#include "tests/testing/cell_delta.h"
#include "tests/testing/test_db.h"
#include "workloads/world_queries.h"

namespace qp::market {
namespace {

// The full battery of query shapes: every evaluation mode of the
// incremental engine plus both fallback triggers (LIMIT, double SUM/AVG).
const char* kQueries[] = {
    // Projection, single table.
    "select * from Country",
    "select Name from Country where Continent = 'Europe'",
    "select Name, Population from Country where Population > 100000000",
    "select Name from Country where Name like '%an%'",
    "select Name from City where Population between 3000000 and 13000000",
    "select distinct Continent from Country",
    "select distinct 1 from City where Population > 13000000",
    "select distinct CountryCode from CountryLanguage where IsOfficial = 'T'",
    // Equality prefilter shapes: a literal on the left, an equality
    // ANDed with a range (and nested on the right of an AND), equality
    // under OR and under NOT (neither may narrow the scan), an int column
    // against an equal double literal, a literal no row holds, and
    // DISTINCT over a prefiltered scan.
    "select Name from City where 'JPN' = CountryCode",
    "select * from City where CountryCode = 'USA' and Population > 3000000",
    "select Name from Country where Population > 70000000 and (Continent = "
    "'Europe' and Name like '%e%')",
    "select Name from City where CountryCode = 'JPN' or Population > "
    "12000000",
    "select Name from City where not (CountryCode = 'JPN')",
    "select Name from City where Population = 13900000.0",
    "select * from City where CountryCode = 'XXX'",
    "select distinct CountryCode from City where CountryCode = 'IND'",
    "select distinct Continent from Country where Continent = 'Asia' and "
    "Population > 100000000",
    // Aggregates, single table.
    "select count(*) from City",
    "select count(Name) from Country where Continent = 'Asia'",
    "select count(distinct Continent) from Country",
    "select sum(Population) from City where CountryCode = 'JPN'",
    "select avg(Population) from Country",
    "select min(Population), max(Population) from City",
    "select Continent, count(Code) from Country group by Continent",
    "select CountryCode, max(Population) from City group by CountryCode",
    "select CountryCode, sum(Population) from City group by CountryCode",
    "select Continent, min(Name) from Country group by Continent",
    "select Continent from Country group by Continent",
    // Joins.
    "select Name from Country, CountryLanguage where Code = CountryCode and "
    "Language = 'English'",
    "select C.Name from Country C, CountryLanguage L where C.Code = "
    "L.CountryCode and L.Percentage >= 50",
    "select * from Country, CountryLanguage where Code = CountryCode and "
    "Language = 'French'",
    "select Name, Language from Country, CountryLanguage where Code = "
    "CountryCode",
    "select distinct Continent from Country, City where Code = CountryCode "
    "and City.Population > 3000000",
    // Equality conjuncts on joins: on the join column itself, on a
    // non-join column of the second table, on both tables (either first),
    // DISTINCT and grouped with the conjunct on the partner side, under
    // OR (it must not narrow), and with the literal on the left.
    "select City.Name from Country, City where Code = CountryCode and Code "
    "= 'JPN'",
    "select Country.Name, City.Population from Country, City where Code = "
    "CountryCode and City.Name = 'Paris'",
    "select City.Name from Country, City where Code = CountryCode and "
    "Continent = 'Asia' and City.Name = 'Osaka'",
    "select Name from Country, CountryLanguage where Language = 'English' "
    "and Code = CountryCode and Continent = 'Asia'",
    "select distinct Continent from Country, CountryLanguage where Code = "
    "CountryCode and Language = 'English'",
    "select Continent, sum(Percentage) from Country, CountryLanguage where "
    "Code = CountryCode and IsOfficial = 'T' group by Continent",
    "select City.Name from Country, City where Code = CountryCode and "
    "(Continent = 'Asia' or City.Population > 8000000)",
    "select Name from Country, CountryLanguage where Code = CountryCode and "
    "'English' = Language",
    // Joins with aggregation.
    "select count(*) from Country, City where Code = CountryCode and "
    "Continent = 'Asia'",
    "select Continent, count(*) from Country, City where Code = CountryCode "
    "group by Continent",
    "select Continent, sum(City.Population) from Country, City where Code = "
    "CountryCode group by Continent",
    // Global aggregates over empty inputs (regression: the global group
    // exists even when no row matches; deltas can create first matches).
    "select sum(Population) from City where CountryCode = 'XXX'",
    "select count(Name), min(Population) from Country where Continent = "
    "'Atlantis'",
    "select count(*) from Country, City where Code = CountryCode and "
    "Continent = 'Atlantis'",
    // Fallback paths.
    "select Name from City limit 3",
    "select * from Country limit 2",
    "select avg(LifeExpectancy) from Country",  // double AVG
    "select sum(LifeExpectancy) from Country where Continent = 'Europe'",
    "select Continent, avg(LifeExpectancy) from Country group by Continent",
};

// The pre-overlay reference semantics: apply the delta in place,
// re-evaluate, compare, revert. The overlay engines must reproduce this
// bit-for-bit — it is the definition C_S(Q, D) was implemented against
// before probing became read-only.
std::vector<uint32_t> InPlaceConflictSet(db::Database& db,
                                         const db::BoundQuery& query,
                                         const SupportSet& support) {
  db::ResultTable base = db::Evaluate(query, db);
  std::vector<uint32_t> conflicts;
  for (uint32_t i = 0; i < support.size(); ++i) {
    db::Value saved = testing::ApplyDelta(db, support[i]);
    db::ResultTable perturbed = db::Evaluate(query, db);
    testing::UndoDelta(db, support[i], saved);
    if (!perturbed.Equals(base)) conflicts.push_back(i);
  }
  return conflicts;
}

// The prepared engine, preparing fresh state per call.
std::vector<uint32_t> FastConflictSet(const db::Database& db,
                                      const db::BoundQuery& query,
                                      const SupportSet& support,
                                      ConflictStats* stats = nullptr) {
  return ConflictSet(PreparedConflictQuery(db, query), support, nullptr,
                     stats);
}

class ConflictEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflictEquivalenceTest, OverlayEnginesMatchInPlaceSemantics) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(500 + GetParam());
  auto support = GenerateSupport(*db, {.size = 120, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  for (const char* sql : kQueries) {
    auto query = db::ParseQuery(sql, *db);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status();
    auto in_place = InPlaceConflictSet(*db, *query, *support);
    auto naive = NaiveConflictSet(*db, *query, *support);
    auto fast = FastConflictSet(*db, *query, *support);
    EXPECT_EQ(naive, in_place) << sql;
    EXPECT_EQ(fast, in_place) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictEquivalenceTest, ::testing::Range(0, 5));

TEST(ConflictSetTest, DatabaseNeverModifiedDuringProbing) {
  // Probing is read-only: the engine takes a const database (a
  // compile-time guarantee) and the contents stay bit-identical to an
  // untouched reference copy — including for fallback (LIMIT) queries,
  // which re-evaluate through overlays.
  auto db = db::testing::MakeTestDatabase();
  auto reference = db::testing::MakeTestDatabase();
  Rng rng(21);
  auto support = GenerateSupport(*db, {.size = 80, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  const db::Database& const_db = *db;
  for (const char* sql :
       {"select Continent, count(Code) from Country group by Continent",
        "select Name from City limit 3"}) {
    auto query = db::ParseQuery(sql, *db);
    ASSERT_TRUE(query.ok());
    FastConflictSet(const_db, *query, *support);
  }
  for (int t = 0; t < db->num_tables(); ++t) {
    for (int r = 0; r < db->table(t).num_rows(); ++r) {
      for (int c = 0; c < db->table(t).schema().num_columns(); ++c) {
        EXPECT_EQ(db->table(t).cell(r, c).Compare(
                      reference->table(t).cell(r, c)),
                  0);
      }
    }
  }
}

TEST(ConflictSetTest, ManyConcurrentProbesAgainstOneDatabase) {
  // One const database, one prober, many threads computing conflict sets
  // for the full query battery at once through ConflictSetFor (shared
  // prepared cache included). Every thread must reproduce the
  // single-threaded answer, and the prober's atomic totals must
  // aggregate exactly (no lost updates).
  auto db = db::testing::MakeTestDatabase();
  Rng rng(97);
  auto support = GenerateSupport(*db, {.size = 60, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());

  std::vector<db::BoundQuery> queries;
  for (const char* sql : kQueries) {
    auto query = db::ParseQuery(sql, *db);
    ASSERT_TRUE(query.ok()) << sql;
    queries.push_back(*query);
  }

  ConflictStats reference_stats;
  std::vector<std::vector<uint32_t>> expected;
  for (const db::BoundQuery& q : queries) {
    expected.push_back(FastConflictSet(*db, q, *support, &reference_stats));
  }

  constexpr int kThreads = 8;
  ConflictProber prober(db.get(), *support);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (size_t q = 0; q < queries.size(); ++q) {
        if (prober.ConflictSetFor(queries[q]) != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Totals equal kThreads * the single-threaded run, cached or not.
  ConflictStats totals = prober.stats();
  EXPECT_EQ(totals.probes, kThreads * reference_stats.probes);
  EXPECT_EQ(totals.pruned, kThreads * reference_stats.pruned);
  EXPECT_EQ(totals.fallback_queries,
            kThreads * reference_stats.fallback_queries);
  // Probes through ConflictSetFor never count as build-side work.
  EXPECT_EQ(prober.build_stats().probes, 0);
}

TEST(ConflictSetTest, PreparedQueryIsShareableAcrossThreads) {
  // One PreparedConflictQuery probed concurrently: per-query prepared
  // state is immutable after construction, so threads share it without
  // synchronization and agree with the serial answer (join-partner
  // machinery included).
  auto db = db::testing::MakeTestDatabase();
  Rng rng(131);
  auto support = GenerateSupport(*db, {.size = 100, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto query = db::ParseQuery(
      "select Continent, sum(City.Population) from Country, City where "
      "Code = CountryCode group by Continent",
      *db);
  ASSERT_TRUE(query.ok());

  PreparedConflictQuery prepared(*db, *query);
  ConflictStats serial_stats;
  std::vector<char> expected;
  for (const CellDelta& delta : *support) {
    expected.push_back(prepared.Probe(delta, serial_stats) ? 1 : 0);
  }

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      ConflictStats local;
      for (size_t i = 0; i < support->size(); ++i) {
        bool hit = prepared.Probe((*support)[i], local);
        if (hit != (expected[i] != 0)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConflictSetTest, InsensitiveColumnsArePruned) {
  auto db = db::testing::MakeTestDatabase();
  // Query touches only Country.Continent and Country.Name.
  auto query = db::ParseQuery(
      "select Name from Country where Continent = 'Asia'", *db);
  ASSERT_TRUE(query.ok());
  // Delta on City.Population can never conflict.
  SupportSet support{CellDelta{1, 0, 3, db::Value::Int(123)}};
  ConflictStats stats;
  EXPECT_TRUE(FastConflictSet(*db, *query, support, &stats).empty());
  EXPECT_EQ(stats.pruned, 1);
  EXPECT_EQ(stats.probes, 0);
}

TEST(ConflictSetTest, FallbackQueriesArePrunedBySensitivity) {
  // LIMIT and double-AVG queries re-evaluate the whole query per probe,
  // but a delta on a cell they never read is pruned before that.
  auto db = db::testing::MakeTestDatabase();
  // Tables: 0 = Country(Code, Name, Continent, Population,
  // LifeExpectancy), 1 = City, 2 = CountryLanguage.
  const SupportSet support{
      CellDelta{1, 4, 3, db::Value::Int(1)},            // City.Population
      CellDelta{2, 0, 1, db::Value::Str("French")},     // CL.Language
      CellDelta{0, 4, 3, db::Value::Int(1)},            // BRA Population
      CellDelta{0, 5, 4, db::Value::Real(90.0)},        // IND LifeExpectancy
  };
  struct Case {
    const char* sql;
    std::vector<uint32_t> conflicts;
    int64_t pruned;
  };
  const Case cases[] = {
      // Reads every Country column; BRA is in the first two rows by Code.
      {"select * from Country limit 2", {2}, 2},
      // Reads only LifeExpectancy: the Population delta is pruned too.
      {"select avg(LifeExpectancy) from Country", {3}, 3},
  };
  for (const Case& c : cases) {
    auto query = db::ParseQuery(c.sql, *db);
    ASSERT_TRUE(query.ok()) << c.sql;
    ConflictStats stats;
    const auto conflicts = FastConflictSet(*db, *query, support, &stats);
    EXPECT_EQ(conflicts, NaiveConflictSet(*db, *query, support)) << c.sql;
    EXPECT_EQ(conflicts, c.conflicts) << c.sql;
    EXPECT_EQ(stats.fallback_queries, 1) << c.sql;
    EXPECT_EQ(stats.pruned, c.pruned) << c.sql;
    EXPECT_EQ(stats.probes, static_cast<int64_t>(support.size()) - c.pruned)
        << c.sql;
  }
}

TEST(ConflictSetTest, WorldScaleMatchesNaive) {
  // The flat join index at the skewed instance's scale: City's 4000 rows
  // and Country's 239 keys put many different keys in shared buckets,
  // where MakeTestDatabase's handful of rows share a few at most.
  auto w = workload::MakeSkewedWorkload(7);
  ASSERT_TRUE(w.ok()) << w.status();
  const db::Database& db = *w->database;
  Rng rng(713);
  auto generated = GenerateSupport(db, {.size = 120, .max_retries = 32}, rng);
  ASSERT_TRUE(generated.ok());
  SupportSet support = std::move(*generated);
  // Join-key deltas copy the key of another row of the same column, so
  // join partners move between buckets.
  const std::pair<const char*, const char*> kJoinKeys[] = {
      {"Country", "Code"},
      {"Country", "Capital"},
      {"City", "ID"},
      {"CountryLanguage", "CountryCode"}};
  for (int i = 0; i < 32; ++i) {
    const auto& [table_name, column_name] = kJoinKeys[i % 4];
    const int t = db.FindTableIndex(table_name);
    const db::Table& table = db.table(t);
    const int c = table.schema().FindColumn(column_name);
    const auto row = static_cast<int>(rng.UniformInt(0, table.num_rows() - 1));
    const auto from = static_cast<int>(rng.UniformInt(0, table.num_rows() - 1));
    support.push_back(CellDelta{t, row, c, table.cell(from, c)});
  }

  // Per template, the first query whose literal names a country or
  // language of a row the support touches (so conflicts occur), plus the
  // LIMIT query. One per template keeps the naive oracle — a full join
  // per delta — to a few seconds under the sanitizers.
  std::set<std::string> touched;
  for (const CellDelta& d : support) {
    const db::Table& table = db.table(d.table);
    for (const char* column : {"Code", "CountryCode", "Language"}) {
      const int c = table.schema().FindColumn(column);
      if (c >= 0) touched.insert("'" + table.cell(d.row, c).as_string() + "'");
    }
  }
  const char* kTemplates[] = {
      "select T.District from Country C, City T where C.Code = ",
      "select Name from Country, CountryLanguage where Code = CountryCode "
      "and Language = ",
      "select C.Name from Country C, CountryLanguage L where C.Code = "
      "L.CountryCode and L.Language = ",
      "select * from City where CountryCode = ",
  };
  std::vector<size_t> picked;
  for (const char* prefix : kTemplates) {
    const size_t before = picked.size();
    for (size_t i = 0; i < w->sql.size() && picked.size() == before; ++i) {
      const std::string& sql = w->sql[i];
      if (sql.rfind(prefix, 0) != 0) continue;
      const size_t open = sql.find('\'');
      const std::string literal =
          sql.substr(open, sql.find('\'', open + 1) - open + 1);
      if (touched.count(literal) != 0) picked.push_back(i);
    }
    EXPECT_EQ(picked.size(), before + 1) << prefix;
  }
  for (size_t i = 0; i < w->sql.size(); ++i) {
    if (w->sql[i].find(" limit ") != std::string::npos) picked.push_back(i);
  }

  size_t conflicts = 0;
  for (size_t i : picked) {
    const auto naive = NaiveConflictSet(db, w->queries[i], support);
    EXPECT_EQ(FastConflictSet(db, w->queries[i], support), naive)
        << w->sql[i];
    conflicts += naive.size();
  }
  EXPECT_GT(conflicts, 0u);
}

TEST(ConflictSetTest, PredicateDeltaAdmitsRejectedRow) {
  // The contributing-row rules answer deltas on rows the predicate
  // rejected at prepare time, unless the delta edits a column the
  // predicate reads and can admit the row.
  auto db = db::testing::MakeTestDatabase();
  // City rows: 2 = Paris (FRA, 2100000), 4 = Tokyo (JPN, 13900000).
  const SupportSet support{
      CellDelta{1, 2, 2, db::Value::Str("JPN")},     // Paris joins JPN
      CellDelta{1, 2, 1, db::Value::Str("Lyon")},    // Paris renamed
      CellDelta{1, 2, 3, db::Value::Int(13900000)},  // Tokyo's population
      CellDelta{1, 4, 2, db::Value::Str("FRA")},     // Tokyo leaves JPN
  };
  struct Case {
    const char* sql;
    std::vector<uint32_t> conflicts;
  };
  const Case cases[] = {
      {"select Name from City where CountryCode = 'JPN'", {0, 3}},
      {"select count(*) from City where 'JPN' = CountryCode", {0, 3}},
      // Osaka keeps JPN in the set whatever Paris and Tokyo do.
      {"select distinct CountryCode from City where CountryCode = 'JPN'", {}},
      {"select Name from City where Population = 13900000.0", {2}},
  };
  for (const Case& c : cases) {
    auto query = db::ParseQuery(c.sql, *db);
    ASSERT_TRUE(query.ok()) << c.sql;
    EXPECT_EQ(FastConflictSet(*db, *query, support), c.conflicts) << c.sql;
    EXPECT_EQ(NaiveConflictSet(*db, *query, support), c.conflicts) << c.sql;
    EXPECT_EQ(InPlaceConflictSet(*db, *query, support), c.conflicts)
        << c.sql;
  }
}

TEST(ConflictSetTest, JoinSkipsKeepBoundaryDeltas) {
  // A row in no accepted input is skipped when the delta (A) edits a
  // column neither the predicate nor the join reads, (B) leaves its
  // equality-conjunct cell unequal to the literal, or (C) moves its join
  // key off every admitted conjunct-side key. Each rule gets a delta it
  // skips and a boundary delta it must probe.
  auto db = db::testing::MakeTestDatabase();
  // Country rows: 0 = USA, 1 = FRA (Europe). City row 2 = Paris (FRA).
  // CountryLanguage row 2 = (FRA, French).
  const SupportSet support{
      CellDelta{1, 2, 1, db::Value::Str("Lyon")},     // 0: Paris renamed
      CellDelta{1, 2, 2, db::Value::Str("JPN")},      // 1: Paris to JPN
      CellDelta{1, 2, 2, db::Value::Str("DEU")},      // 2: Paris to DEU
      CellDelta{0, 1, 2, db::Value::Str("Africa")},   // 3: FRA to Africa
      CellDelta{0, 1, 2, db::Value::Str("Asia")},     // 4: FRA to Asia
      CellDelta{0, 1, 0, db::Value::Str("DEU")},      // 5: FRA's code DEU
      CellDelta{0, 1, 0, db::Value::Str("USA")},      // 6: FRA's code USA
      CellDelta{2, 2, 1, db::Value::Str("German")},   // 7: French to German
      CellDelta{2, 2, 1, db::Value::Str("English")},  // 8: French to English
      CellDelta{0, 1, 1, db::Value::Str("Francia")},  // 9: France renamed
      CellDelta{0, 0, 1, db::Value::Str("America")},  // 10: USA renamed
  };
  struct Case {
    const char* sql;
    std::vector<uint32_t> conflicts;
  };
  const Case cases[] = {
      // Conjunct on the first table. A skips 0, B skips 3 and 5 (FRA
      // stays out of Asia), C skips 2 (DEU is no Asian key). Boundaries:
      // Paris's key moves onto live JPN (1), FRA's delta writes the
      // literal (4).
      {"select City.Name from Country, City where Code = CountryCode and "
       "Continent = 'Asia'",
       {1, 4}},
      // Conjunct on the second table. A skips 9, B skips 7, C skips 5.
      // Boundaries: FRA's key moves onto live USA (6), French's delta
      // writes the literal (8), and a contributing row's rename (10).
      {"select Name from Country, CountryLanguage where Code = CountryCode "
       "and Language = 'English'",
       {6, 8, 10}},
      // A single table: A skips 0, B skips 2; 1 writes the literal.
      {"select Name from City where CountryCode = 'JPN'", {1}},
  };
  for (const Case& c : cases) {
    auto query = db::ParseQuery(c.sql, *db);
    ASSERT_TRUE(query.ok()) << c.sql;
    EXPECT_EQ(FastConflictSet(*db, *query, support), c.conflicts) << c.sql;
    EXPECT_EQ(NaiveConflictSet(*db, *query, support), c.conflicts) << c.sql;
    EXPECT_EQ(InPlaceConflictSet(*db, *query, support), c.conflicts)
        << c.sql;
  }
}

TEST(ConflictSetTest, KnownConflicts) {
  auto db = db::testing::MakeTestDatabase();
  auto query = db::ParseQuery(
      "select count(Name) from Country where Continent = 'Asia'", *db);
  ASSERT_TRUE(query.ok());
  // Flipping France's continent to Asia changes the count: conflict.
  // Row 1 = FRA, column 2 = Continent.
  SupportSet support{
      CellDelta{0, 1, 2, db::Value::Str("Asia")},          // changes count
      CellDelta{0, 1, 2, db::Value::Str("South America")}, // Europe->SA: no
      CellDelta{0, 3, 2, db::Value::Str("Europe")},        // JPN out of Asia
      CellDelta{0, 1, 3, db::Value::Int(999)},             // population: no
  };
  auto conflicts = FastConflictSet(*db, *query, support);
  EXPECT_EQ(conflicts, (std::vector<uint32_t>{0, 2}));
}

TEST(ConflictSetTest, JoinKeyDeltaMovesMatches) {
  auto db = db::testing::MakeTestDatabase();
  auto query = db::ParseQuery(
      "select Name from Country, CountryLanguage where Code = CountryCode "
      "and Language = 'English'",
      *db);
  ASSERT_TRUE(query.ok());
  // CountryLanguage row 0 = (USA, English). Repointing it to FRA changes
  // the result (France appears instead of the USA).
  SupportSet support{
      CellDelta{2, 0, 0, db::Value::Str("FRA")},
      // Hindi -> something else: India still has English via row 7; the
      // result only contains Name so nothing changes.
      CellDelta{2, 6, 1, db::Value::Str("Tamil")},
  };
  auto naive = NaiveConflictSet(*db, *query, support);
  EXPECT_EQ(FastConflictSet(*db, *query, support), naive);
  EXPECT_EQ(naive, (std::vector<uint32_t>{0}));
}

TEST(ConflictSetTest, EmptyConflictSetForIrrelevantQuery) {
  auto db = db::testing::MakeTestDatabase();
  auto query = db::ParseQuery("select count(*) from City", *db);
  ASSERT_TRUE(query.ok());
  Rng rng(31);
  auto support = GenerateSupport(*db, {.size = 60, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  // Cell deltas never change row counts: bare COUNT(*) has no conflicts.
  EXPECT_TRUE(FastConflictSet(*db, *query, *support).empty());
}

TEST(ConflictSetTest, StatsMergeIsExact) {
  ConflictStats a{.probes = 3, .pruned = 10, .fallback_queries = 1};
  ConflictStats b{.probes = 4, .pruned = 0, .fallback_queries = 2};
  a.Merge(b);
  EXPECT_EQ(a.probes, 7);
  EXPECT_EQ(a.pruned, 10);
  EXPECT_EQ(a.fallback_queries, 3);
}

TEST(ConflictSetTest, StatsAccumulateAcrossQueries) {
  auto db = db::testing::MakeTestDatabase();
  Rng rng(41);
  auto support = GenerateSupport(*db, {.size = 40, .max_retries = 32}, rng);
  ASSERT_TRUE(support.ok());
  auto q1 = db::ParseQuery("select Name from Country", *db);
  auto q2 = db::ParseQuery("select Name from City limit 2", *db);
  ASSERT_TRUE(q1.ok() && q2.ok());
  ConflictStats stats;
  FastConflictSet(*db, *q1, *support, &stats);
  FastConflictSet(*db, *q2, *support, &stats);
  EXPECT_EQ(stats.fallback_queries, 1);
  EXPECT_GT(stats.probes, 0);
  EXPECT_GT(stats.pruned, 0);
}

}  // namespace
}  // namespace qp::market
