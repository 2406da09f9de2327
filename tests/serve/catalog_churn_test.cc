// Catalog-churn hammer: concurrent seller deltas vs live quote/purchase
// traffic, checked bit-for-bit against a serially-applied reference.
//
// The contract under test (the whole point of the versioned catalog):
// ApplySellerDelta is fully concurrent with readers — no quiescence —
// and the interleaving is *unobservable* in the final state. Two writer
// threads race disjoint-cell deltas through the router while four
// reader threads quote and purchase continuously; afterwards every
// logical cell, every quote and every purchase outcome must be
// bit-identical to a twin engine that applied the same deltas serially
// with no traffic at all. Run under TSan in CI (label: churn).
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "db/parser.h"
#include "db/value.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/pricing_engine.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve {
namespace {

constexpr int kWriters = 2;
constexpr int kReaders = 4;
// Readers keep hammering until the writers finish AND each reader has
// made at least this many passes, so staleness sampling always sees
// traffic even if the writers win the race.
constexpr int kMinReaderIters = 25;

struct Buyer {
  const char* sql;
  double valuation;
};

const std::vector<Buyer>& Buyers() {
  static const std::vector<Buyer> buyers = {
      {"select * from Country", 90.0},
      {"select Name from Country where Continent = 'Europe'", 12.0},
      {"select count(*) from City", 6.0},
      {"select max(Population) from Country", 8.0},
      {"select CountryCode, sum(Population) from City group by CountryCode",
       35.0},
      {"select distinct Continent from Country", 1.5},
      {"select Name from City where Population > 10000000", 2.5},
      {"select min(LifeExpectancy) from Country", 0.75},
      {"select Language from CountryLanguage where IsOfficial = 'T'", 4.0},
      {"select avg(Percentage) from CountryLanguage", 3.0},
  };
  return buyers;
}

// One complete market + sharded engine, reproducible from scratch: the
// reference twin is built by calling this again (same seed, same
// pristine database) and applying the deltas serially.
struct Market {
  std::unique_ptr<db::Database> db;
  market::SupportSet support;
  std::vector<db::BoundQuery> queries;
  core::Valuations valuations;
  std::unique_ptr<ShardedPricingEngine> engine;
};

Market MakeMarket(int fold_every) {
  Market m;
  m.db = db::testing::MakeTestDatabase();
  Rng rng(7);
  auto support =
      market::GenerateSupport(*m.db, {.size = 120, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());
  m.support = *support;
  for (const Buyer& buyer : Buyers()) {
    auto q = db::ParseQuery(buyer.sql, *m.db);
    QP_CHECK_OK(q.status());
    m.queries.push_back(*q);
    m.valuations.push_back(buyer.valuation);
  }
  ShardedEngineOptions options;
  options.engine.algorithms.lpip.max_candidates = 0;
  options.engine.algorithms.lpip.chain_length = 1;
  options.fold_every = fold_every;
  m.engine = std::make_unique<ShardedPricingEngine>(
      m.db.get(),
      market::SupportPartitioner::FromQueries(m.db.get(), m.support, m.queries,
                                              {}, {.num_shards = 2}),
      options);
  QP_CHECK_OK(m.engine->AppendBuyers(m.queries, m.valuations));
  return m;
}

// The support set may perturb one cell several times; the writers need
// disjoint *cell* sets so the final state is interleaving-independent.
// Keep the last delta per cell — the value a serial tail-wins apply
// would leave — then deal cells round-robin across writers.
std::vector<market::CellDelta> DistinctCellDeltas(
    const market::SupportSet& support) {
  std::vector<market::CellDelta> out;
  for (const market::CellDelta& d : support) {
    bool replaced = false;
    for (market::CellDelta& seen : out) {
      if (seen.table == d.table && seen.row == d.row &&
          seen.column == d.column) {
        seen = d;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.push_back(d);
  }
  return out;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<std::vector<uint32_t>> ProbeBundles(uint32_t num_items) {
  std::vector<std::vector<uint32_t>> bundles;
  for (uint32_t i = 0; i < num_items; i += 17) bundles.push_back({i});
  std::vector<uint32_t> strided;
  for (uint32_t i = 0; i < num_items; i += 11) strided.push_back(i);
  bundles.push_back(strided);
  return bundles;
}

TEST(CatalogChurnTest, ConcurrentDeltasMatchSerialReferenceBitForBit) {
  Market churned = MakeMarket(/*fold_every=*/4);

  std::vector<market::CellDelta> deltas = DistinctCellDeltas(churned.support);
  ASSERT_GE(deltas.size(), 2u * kWriters);
  std::vector<std::vector<market::CellDelta>> per_writer(kWriters);
  for (size_t i = 0; i < deltas.size(); ++i) {
    per_writer[i % kWriters].push_back(deltas[i]);
  }

  // --- churn phase: writers race deltas against live readers ----------
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> deltas_applied{0};
  std::atomic<bool> writer_failed{false};
  std::atomic<bool> reader_failed{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  std::atomic<int> writers_running{kWriters};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const market::CellDelta& d : per_writer[w]) {
        if (!churned.engine->ApplySellerDelta(*churned.db, d).ok()) {
          writer_failed.store(true);
        }
        deltas_applied.fetch_add(1);
      }
      if (writers_running.fetch_sub(1) == 1) writers_done.store(true);
    });
  }

  auto probes = ProbeBundles(static_cast<uint32_t>(churned.support.size()));
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      int iters = 0;
      while (!writers_done.load() || iters < kMinReaderIters) {
        Quote q = churned.engine->QuoteBundle(probes[iters % probes.size()]);
        if (q.version == 0) reader_failed.store(true);
        size_t b = static_cast<size_t>(r + iters) % churned.queries.size();
        PurchaseOutcome p = churned.engine->Purchase(churned.queries[b],
                                                     churned.valuations[b]);
        if (!p.status.ok()) reader_failed.store(true);
        ++iters;
      }
    });
  }

  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(writer_failed.load());
  EXPECT_FALSE(reader_failed.load());
  ASSERT_EQ(deltas_applied.load(), deltas.size());

  // --- reference twin: same market, deltas applied serially, no load --
  Market reference = MakeMarket(/*fold_every=*/4);
  for (const market::CellDelta& d : deltas) {
    QP_CHECK_OK(reference.engine->ApplySellerDelta(*reference.db, d));
  }

  // Generations count commits identically (one per delta).
  EXPECT_EQ(churned.engine->catalog().head_generation(), deltas.size());
  EXPECT_EQ(reference.engine->catalog().head_generation(), deltas.size());

  // Every logical cell matches the reference AND the directly computed
  // expectation (delta value where a delta landed, pristine base bytes
  // everywhere else).
  std::unique_ptr<db::Database> pristine = db::testing::MakeTestDatabase();
  for (int t = 0; t < pristine->num_tables(); ++t) {
    const db::Table& table = pristine->table(t);
    for (int row = 0; row < table.num_rows(); ++row) {
      for (int col = 0; col < table.schema().num_columns(); ++col) {
        const db::Value* expected = nullptr;
        for (const market::CellDelta& d : deltas) {
          if (d.table == t && d.row == row && d.column == col) {
            expected = &d.new_value;
            break;
          }
        }
        db::Value churned_cell =
            churned.engine->catalog().LogicalCell(t, row, col);
        db::Value reference_cell =
            reference.engine->catalog().LogicalCell(t, row, col);
        ASSERT_EQ(churned_cell,
                  expected != nullptr ? *expected : table.cell(row, col))
            << "cell (" << t << "," << row << "," << col << ")";
        ASSERT_EQ(churned_cell, reference_cell)
            << "cell (" << t << "," << row << "," << col << ")";
      }
    }
  }

  // Post-churn quotes and purchases are bit-identical to the reference.
  for (const std::vector<uint32_t>& bundle : probes) {
    Quote a = churned.engine->QuoteBundle(bundle);
    Quote b = reference.engine->QuoteBundle(bundle);
    EXPECT_EQ(Bits(a.price), Bits(b.price));
    EXPECT_EQ(a.version, b.version);
  }
  for (size_t i = 0; i < churned.queries.size(); ++i) {
    PurchaseOutcome a =
        churned.engine->Purchase(churned.queries[i], churned.valuations[i]);
    PurchaseOutcome b = reference.engine->Purchase(reference.queries[i],
                                                   reference.valuations[i]);
    QP_CHECK_OK(a.status);
    QP_CHECK_OK(b.status);
    EXPECT_EQ(Bits(a.quote.price), Bits(b.quote.price)) << "buyer " << i;
    EXPECT_EQ(a.accepted, b.accepted) << "buyer " << i;
    EXPECT_EQ(a.bundle, b.bundle) << "buyer " << i;
  }

  // Churn accounting: the catalog saw every commit, attempted folds on
  // the cadence (a fold either lands or defers to pinned readers — under
  // live traffic both are legal), and nothing leaked: pending + folded
  // always equals the distinct cells committed. Purchases during the
  // churn sampled staleness.
  EngineStats::CatalogStats cs = churned.engine->reader_stats().catalog;
  EXPECT_EQ(cs.generations_published, deltas.size());
  EXPECT_GE(cs.folds + cs.fold_retries, 1u);
  EXPECT_EQ(cs.deltas_pending + cs.deltas_folded, deltas.size());
  EXPECT_GT(cs.staleness_samples, 0u);

  // The serial reference has no pinned readers at commit time: every
  // cadence-triggered fold must land, never retry.
  EngineStats::CatalogStats ref = reference.engine->reader_stats().catalog;
  EXPECT_EQ(ref.generations_published, deltas.size());
  EXPECT_GE(ref.folds, 1u);
  EXPECT_EQ(ref.fold_retries, 0u);
  EXPECT_EQ(ref.deltas_pending + ref.deltas_folded, deltas.size());
}

// A reader's epoch pin ends with its batch. A serving loop reuses one
// QuoteBatchScratch between seller deltas (the RPC tick does); if the
// scratch kept its view pinned, every fold would wait on it forever and
// the overlay would grow without bound.
TEST(CatalogChurnTest, ReusedBatchScratchLetsFoldsLand) {
  Market m = MakeMarket(/*fold_every=*/4);
  std::vector<market::CellDelta> deltas = DistinctCellDeltas(m.support);
  ASSERT_GE(deltas.size(), 40u);
  deltas.resize(40);
  auto probes = ProbeBundles(static_cast<uint32_t>(m.support.size()));
  ShardedPricingEngine::QuoteBatchScratch scratch;
  for (const market::CellDelta& d : deltas) {
    m.engine->TryQuoteBatchInto(probes, &scratch);
    QP_CHECK_OK(m.engine->ApplySellerDelta(*m.db, d));
  }
  EngineStats::CatalogStats cs = m.engine->reader_stats().catalog;
  EXPECT_GT(cs.folds, 0u);
  EXPECT_EQ(cs.fold_retries, 0u);
  EXPECT_LT(cs.deltas_pending, 4u);
  EXPECT_EQ(m.engine->stats().merged.epoch.pending, 0u);
}

}  // namespace
}  // namespace qp::serve
