// Single-market acceptance tests for the pricing service, run through a
// one-shard ShardedPricingEngine (the one engine surface; its shard is a
// serve::PricingEngine): (a) concurrent quoting against atomically
// swapped snapshots is safe while the writer republishes, (b)
// incremental repricing after a buyer append matches a cold
// RunAllAlgorithms on the grown instance within 1e-9, (c) the
// incremental path solves strictly fewer LPs than full recompute, and
// (d) the quote path pins epochs instead of refcounts, every publish
// retires exactly one snapshot, and a pinned reader keeps its
// generation until it lets go.
#include "serve/pricing_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/reprice.h"
#include "db/parser.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/sharded_engine.h"
#include "tests/testing/test_db.h"

namespace qp::serve {
namespace {

struct Buyer {
  const char* sql;
  double valuation;
};

const std::vector<Buyer>& InitialBuyers() {
  static const std::vector<Buyer> buyers = {
      {"select * from Country", 90.0},
      {"select Name from Country where Continent = 'Europe'", 12.0},
      {"select count(*) from City", 6.0},
      {"select max(Population) from Country", 8.0},
      {"select CountryCode, sum(Population) from City group by CountryCode",
       35.0},
  };
  return buyers;
}

// Late arrivals with valuations *below* every initial threshold, the
// regime where LPIP's retained book answers most candidates.
const std::vector<Buyer>& LateBuyers() {
  static const std::vector<Buyer> buyers = {
      {"select distinct Continent from Country", 1.5},
      {"select Name from City where Population > 10000000", 2.5},
      {"select min(LifeExpectancy) from Country", 0.75},
  };
  return buyers;
}

struct Market {
  std::unique_ptr<db::Database> db;
  market::SupportSet support;
  std::vector<db::BoundQuery> initial_queries, late_queries;
  core::Valuations initial_valuations, late_valuations;
};

Market MakeMarket(int support_size = 150) {
  Market m;
  m.db = db::testing::MakeTestDatabase();
  Rng rng(7);
  auto support = market::GenerateSupport(
      *m.db, {.size = support_size, .max_retries = 32}, rng);
  QP_CHECK_OK(support.status());
  m.support = *support;
  for (const Buyer& buyer : InitialBuyers()) {
    auto q = db::ParseQuery(buyer.sql, *m.db);
    QP_CHECK_OK(q.status());
    m.initial_queries.push_back(*q);
    m.initial_valuations.push_back(buyer.valuation);
  }
  for (const Buyer& buyer : LateBuyers()) {
    auto q = db::ParseQuery(buyer.sql, *m.db);
    QP_CHECK_OK(q.status());
    m.late_queries.push_back(*q);
    m.late_valuations.push_back(buyer.valuation);
  }
  return m;
}

// Replay-identical geometry: every LPIP threshold, solved standalone
// (see core/reprice.h).
EngineOptions MatchedOptions() {
  EngineOptions options;
  options.algorithms.lpip.max_candidates = 0;
  options.algorithms.lpip.chain_length = 1;
  return options;
}

// One market behind the pricing service: a one-shard router, whose
// shard-local item ids are the support's own indices.
std::unique_ptr<ShardedPricingEngine> OneShardEngine(const Market& m,
                                                     EngineOptions options,
                                                     int num_threads = 1) {
  return std::make_unique<ShardedPricingEngine>(
      m.db.get(),
      market::SupportPartitioner::Partition(m.support, {}, {.num_shards = 1}),
      ShardedEngineOptions{.engine = std::move(options),
                           .num_threads = num_threads});
}

TEST(PricingEngineTest, PublishesBooksAndServesQuotes) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());

  // The constructor publishes an (empty) generation so readers can quote
  // immediately.
  auto empty_book = engine->shard(0).snapshot();
  ASSERT_NE(empty_book, nullptr);
  EXPECT_EQ(empty_book->version(), 1u);
  EXPECT_EQ(empty_book->num_edges(), 0);
  EXPECT_DOUBLE_EQ(engine->QuoteBundle({0, 1, 2}).price, 0.0);

  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
  auto book = engine->shard(0).snapshot();
  EXPECT_EQ(book->version(), 2u);
  EXPECT_EQ(book->num_edges(), 5);
  EXPECT_EQ(book->results().size(), 6u);
  EXPECT_GT(book->best().revenue, 0.0);
  EXPECT_NE(book->Find("LPIP"), nullptr);
  EXPECT_EQ(book->Find("nope"), nullptr);

  // A quote for a real conflict set carries the serving algorithm and the
  // published generation.
  Quote quote = engine->QuoteBundle(engine->shard(0).hypergraph().edge(0));
  EXPECT_EQ(quote.version, 2u);
  EXPECT_EQ(quote.algorithm, book->best().algorithm);
  EXPECT_GE(quote.price, 0.0);

  EngineStats stats = engine->stats().merged;
  EXPECT_EQ(stats.version, 2u);
  EXPECT_EQ(stats.num_edges, 5);
  EXPECT_GE(stats.quotes_served, 2u);
  EXPECT_GT(stats.total_lps_solved, 0);
}

TEST(PricingEngineTest, RepriceAfterAppendMatchesColdRunAllAlgorithms) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(engine->AppendBuyers(m.late_queries, m.late_valuations));

  // Cold reference: RunAllAlgorithms from scratch on the grown instance
  // under the same options.
  core::AlgorithmOptions options = MatchedOptions().algorithms;
  std::vector<core::PricingResult> cold = core::RunAllAlgorithms(
      engine->shard(0).hypergraph(), engine->shard(0).valuations(), options);

  auto book = engine->shard(0).snapshot();
  ASSERT_EQ(book->results().size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].algorithm, book->results()[i].algorithm);
    EXPECT_NEAR(cold[i].revenue, book->results()[i].revenue,
                1e-9 * (1.0 + std::abs(cold[i].revenue)))
        << cold[i].algorithm;
  }
  // CIP replays the cold trajectory on the classes a cold run computes.
  EXPECT_DOUBLE_EQ(cold[3].revenue, book->results()[3].revenue);
}

TEST(PricingEngineTest, IncrementalRepriceSolvesStrictlyFewerLps) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(engine->AppendBuyers(m.late_queries, m.late_valuations));

  // Cold reference: a fresh full solve of the shard's grown instance.
  core::RepriceState cold_state;
  std::vector<core::PricingResult> cold = core::SolveAllWithState(
      engine->shard(0).hypergraph(), engine->shard(0).valuations(),
      MatchedOptions().algorithms, cold_state);

  core::RepriceStats inc_stats = engine->stats().merged.last_reprice;
  EXPECT_LT(inc_stats.lps_solved, cold_state.last.lps_solved);
  EXPECT_GT(inc_stats.lpip_reused, 0);
  EXPECT_EQ(cold_state.last.lpip_reused, 0);

  // Same books regardless of the path taken.
  auto book = engine->shard(0).snapshot();
  ASSERT_EQ(book->results().size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_NEAR(book->results()[i].revenue, cold[i].revenue,
                1e-9 * (1.0 + std::abs(cold[i].revenue)))
        << cold[i].algorithm;
  }
}

TEST(PricingEngineTest, PurchaseQuotesTheConflictSetAndRecordsSales) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  db::BoundQuery query = m.late_queries[0];
  PurchaseOutcome rich = engine->Purchase(query, 1e9);
  EXPECT_TRUE(rich.accepted);
  EXPECT_FALSE(rich.bundle.empty());
  EXPECT_GE(rich.quote.price, 0.0);

  PurchaseOutcome broke = engine->Purchase(query, -1.0);
  EXPECT_FALSE(broke.accepted);
  EXPECT_EQ(broke.bundle, rich.bundle);  // same query, same conflict set
  EXPECT_DOUBLE_EQ(broke.quote.price, rich.quote.price);

  EngineStats stats = engine->stats().merged;
  EXPECT_EQ(stats.purchases, 2u);
  EXPECT_EQ(stats.purchases_accepted, 1u);
  EXPECT_DOUBLE_EQ(stats.sale_revenue, rich.quote.price);
}

TEST(PricingEngineTest, SnapshotsAreImmutableAcrossPublishes) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  auto pinned = engine->shard(0).snapshot();
  std::vector<uint32_t> bundle = engine->shard(0).hypergraph().edge(0);
  Quote before = pinned->QuoteBundle(bundle);

  QP_CHECK_OK(engine->AppendBuyers(m.late_queries, m.late_valuations));
  EXPECT_EQ(engine->shard(0).snapshot()->version(), pinned->version() + 1);

  // The pinned generation still answers, unchanged — readers holding it
  // keep a consistent book while the writer moves on.
  Quote after = pinned->QuoteBundle(bundle);
  EXPECT_EQ(after.version, before.version);
  EXPECT_DOUBLE_EQ(after.price, before.price);
}

TEST(PricingEngineTest, EmptySnapshotDies) {
  EXPECT_DEATH(PriceBookSnapshot(1, {}, 10, 0), "no results");
}

// The refcount-free hot path is observable: every QuoteBundle /
// QuoteBatch / merged snapshot takes exactly one epoch pin.
TEST(PricingEngineTest, QuotePathPinsEpochsNotRefcounts) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  uint64_t pins = engine->stats().merged.epoch.pins;
  const int kQuotes = 25;
  for (int i = 0; i < kQuotes; ++i) engine->QuoteBundle({0, 1, 2});
  EXPECT_EQ(engine->stats().merged.epoch.pins, pins + kQuotes);

  // A batch amortizes: one pin for the whole span.
  std::vector<std::vector<uint32_t>> bundles(10, {1, 2});
  pins = engine->stats().merged.epoch.pins;
  engine->QuoteBatch(bundles);
  EXPECT_EQ(engine->stats().merged.epoch.pins, pins + 1);

  // Sharded: one pin per merged view, covering every shard.
  ShardedEngineOptions options;
  options.engine = MatchedOptions();
  ShardedPricingEngine router(
      m.db.get(),
      market::SupportPartitioner::FromQueries(m.db.get(), m.support,
                                              m.initial_queries, {},
                                              {.num_shards = 3}),
      options);
  QP_CHECK_OK(router.AppendBuyers(m.initial_queries, m.initial_valuations));
  uint64_t router_pins = router.stats().merged.epoch.pins;
  MergedBookView view = router.snapshot();
  EXPECT_EQ(router.stats().merged.epoch.pins, router_pins + 1);
}

// Every publish retires exactly the snapshot it replaces, and with no
// reader pinned the writer reclaims it on the spot. Without seller
// deltas the catalog retires nothing, so the epoch counters see only
// books.
TEST(PricingEngineTest, EveryPublishRetiresOneSnapshotAndReclaims) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  EngineStats stats = engine->stats().merged;
  EXPECT_EQ(stats.epoch.retired, 0u);  // the first book replaced nothing
  EXPECT_EQ(stats.publish.bases, 1u);

  std::vector<db::BoundQuery> queries = m.initial_queries;
  queries.insert(queries.end(), m.late_queries.begin(), m.late_queries.end());
  core::Valuations valuations = m.initial_valuations;
  valuations.insert(valuations.end(), m.late_valuations.begin(),
                    m.late_valuations.end());
  for (size_t b = 0; b < queries.size(); ++b) {
    uint64_t retired = engine->stats().merged.epoch.retired;
    QP_CHECK_OK(engine->AppendBuyers({queries[b]}, {valuations[b]}));
    stats = engine->stats().merged;
    EXPECT_EQ(stats.epoch.retired, retired + 1);
    EXPECT_EQ(stats.epoch.reclaimed, stats.epoch.retired);
    EXPECT_EQ(stats.epoch.pending, 0u);
  }
  EXPECT_EQ(stats.publish.bases, 1u + queries.size());
  EXPECT_EQ(stats.publish.deltas, 0u);
  EXPECT_EQ(stats.publish.fallbacks, 0u);
  EXPECT_EQ(stats.publish.chain_length, 0u);
}

// A reader holding a merged view across publishes keeps pricing its own
// generation bit for bit; the replaced snapshots stay pending while it
// holds the pin and are reclaimed by the first publish after it lets go.
TEST(PricingEngineTest, HeldMergedViewSurvivesPublishesUntilReleased) {
  Market m = MakeMarket();
  ShardedEngineOptions options;
  options.engine = MatchedOptions();
  std::vector<db::BoundQuery> queries = m.initial_queries;
  queries.insert(queries.end(), m.late_queries.begin(), m.late_queries.end());
  ShardedPricingEngine router(
      m.db.get(),
      market::SupportPartitioner::FromQueries(m.db.get(), m.support, queries,
                                              {}, {.num_shards = 2}),
      options);
  QP_CHECK_OK(router.AppendBuyers(m.initial_queries, m.initial_valuations));

  std::vector<std::vector<uint32_t>> bundles = {{}, {0, 1, 2}};
  for (uint32_t i = 0; i < m.support.size(); i += 7) bundles.push_back({i});
  std::vector<uint32_t> strided;
  for (uint32_t i = 0; i < m.support.size(); i += 11) strided.push_back(i);
  bundles.push_back(strided);

  auto view = std::make_unique<MergedBookView>(router.snapshot());
  const std::vector<uint64_t> held_versions = view->version_vector();
  std::vector<Quote> held;
  for (const std::vector<uint32_t>& bundle : bundles) {
    held.push_back(view->QuoteBundle(bundle));
  }

  for (size_t b = 0; b < m.late_queries.size(); ++b) {
    QP_CHECK_OK(router.AppendBuyers({m.late_queries[b]},
                                    {m.late_valuations[b]}));
    EXPECT_NE(router.snapshot().version_vector(), held_versions);
    EXPECT_GT(router.stats().merged.epoch.pending, 0u);
    for (size_t i = 0; i < bundles.size(); ++i) {
      Quote again = view->QuoteBundle(bundles[i]);
      EXPECT_EQ(std::bit_cast<uint64_t>(again.price),
                std::bit_cast<uint64_t>(held[i].price));
      EXPECT_EQ(again.shard_versions, held[i].shard_versions);
      EXPECT_EQ(again.algorithm, held[i].algorithm);
    }
  }

  view.reset();
  QP_CHECK_OK(router.AppendBuyers({m.initial_queries[0]}, {1.0}));
  common::EpochManager::Stats epoch = router.stats().merged.epoch;
  EXPECT_EQ(epoch.pending, 0u);
  EXPECT_EQ(epoch.reclaimed, epoch.retired);
}

TEST(PricingEngineTest, ConcurrentQuotesAreRaceFreeWhileWriterPublishes) {
  Market m = MakeMarket(/*support_size=*/100);
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  // Bundles to hammer, captured before the readers start (the writer-side
  // hypergraph is not safe to read concurrently with appends).
  std::vector<std::vector<uint32_t>> bundles;
  for (int e = 0; e < engine->shard(0).hypergraph().num_edges(); ++e) {
    bundles.push_back(engine->shard(0).hypergraph().edge(e));
  }
  bundles.push_back({0, 1, 2, 3});
  bundles.push_back({});

  constexpr int kReaders = 4;
  constexpr int kIterations = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last_version = 0;
      for (int i = 0; i < kIterations; ++i) {
        const std::vector<uint32_t>& bundle =
            bundles[static_cast<size_t>(r + i) % bundles.size()];
        MergedBookView book = engine->snapshot();
        Quote direct = engine->QuoteBundle(bundle);
        Quote via_book = book.QuoteBundle(bundle);
        // Versions only move forward, and a held snapshot is internally
        // consistent: same bundle, same price, every time.
        if (book.version() < last_version ||
            via_book.price != book.QuoteBundle(bundle).price ||
            !std::isfinite(direct.price) || direct.price < 0.0) {
          failed.store(true);
          return;
        }
        last_version = book.version();
      }
    });
  }

  // Writer: keep publishing generations while the readers quote.
  for (size_t b = 0; b < m.late_queries.size(); ++b) {
    QP_CHECK_OK(engine->AppendBuyers({m.late_queries[b]},
                                     {m.late_valuations[b]}));
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  EngineStats stats = engine->stats().merged;
  EXPECT_GE(stats.quotes_served,
            static_cast<uint64_t>(kReaders) * kIterations);
  EXPECT_EQ(stats.version, 2u + m.late_queries.size());
}

TEST(PricingEngineTest, QuoteBatchPinsOneGenerationAndCountsExactly) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  std::vector<std::vector<uint32_t>> bundles;
  for (int e = 0; e < engine->shard(0).hypergraph().num_edges(); ++e) {
    bundles.push_back(engine->shard(0).hypergraph().edge(e));
  }
  bundles.push_back({});

  uint64_t before = engine->stats().merged.quotes_served;
  std::vector<Quote> batch = engine->QuoteBatch(bundles);
  ASSERT_EQ(batch.size(), bundles.size());
  // One snapshot pin: every quote carries the same generation and agrees
  // with the per-bundle path.
  for (size_t i = 0; i < bundles.size(); ++i) {
    EXPECT_EQ(batch[i].version, batch[0].version);
    EXPECT_DOUBLE_EQ(batch[i].price, engine->QuoteBundle(bundles[i]).price);
  }
  // The batch counts once per bundle (plus the QuoteBundle calls above).
  EXPECT_EQ(engine->stats().merged.quotes_served,
            before + 2 * static_cast<uint64_t>(bundles.size()));
}

TEST(PricingEngineTest, ConcurrentPurchasesRaceAppendBuyersPublishes) {
  // Purchase is reader-side now: buyers purchase from many threads while
  // the writer keeps appending and publishing. Every outcome must be
  // internally consistent (bundle priced under some published
  // generation), the database must stay untouched, and the atomic sale
  // accounting must aggregate exactly.
  Market m = MakeMarket(/*support_size=*/100);
  auto reference_db = db::testing::MakeTestDatabase();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  constexpr int kBuyers = 4;
  constexpr int kPurchases = 60;
  std::atomic<int> failures{0};
  std::atomic<int64_t> accepted{0};
  std::vector<double> spent(kBuyers, 0.0);
  std::vector<std::thread> buyers;
  buyers.reserve(kBuyers);
  for (int b = 0; b < kBuyers; ++b) {
    buyers.emplace_back([&, b]() {
      for (int i = 0; i < kPurchases; ++i) {
        const db::BoundQuery& query =
            m.late_queries[static_cast<size_t>(b + i) % m.late_queries.size()];
        double valuation = (b + i) % 3 == 0 ? 1e9 : 1e-9;
        PurchaseOutcome outcome = engine->Purchase(query, valuation);
        if (!std::isfinite(outcome.quote.price) || outcome.quote.price < 0.0 ||
            outcome.quote.version == 0) {
          failures.fetch_add(1);
          return;
        }
        if (outcome.accepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          spent[b] += outcome.quote.price;
        }
      }
    });
  }

  // Writer: publish a new generation per late buyer while purchases run.
  for (size_t i = 0; i < m.late_queries.size(); ++i) {
    QP_CHECK_OK(
        engine->AppendBuyers({m.late_queries[i]}, {m.late_valuations[i]}));
  }
  for (std::thread& t : buyers) t.join();
  EXPECT_EQ(failures.load(), 0);

  EngineStats stats = engine->stats().merged;
  EXPECT_EQ(stats.purchases, static_cast<uint64_t>(kBuyers) * kPurchases);
  EXPECT_EQ(stats.purchases_accepted, static_cast<uint64_t>(accepted.load()));
  double spent_total = 0.0;
  for (double d : spent) spent_total += d;
  // Same multiset of prices, possibly summed in a different order.
  EXPECT_NEAR(stats.sale_revenue, spent_total,
              1e-9 * (1.0 + std::abs(spent_total)));

  // The shared database saw reader traffic only: still bit-identical to
  // an untouched copy.
  for (int t = 0; t < m.db->num_tables(); ++t) {
    for (int r = 0; r < m.db->table(t).num_rows(); ++r) {
      for (int c = 0; c < m.db->table(t).schema().num_columns(); ++c) {
        ASSERT_EQ(m.db->table(t).cell(r, c).Compare(
                      reference_db->table(t).cell(r, c)),
                  0);
      }
    }
  }
}

TEST(PricingEngineTest, PreparedQueryCacheHitsOnRepeatPurchases) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
  // The append prepared each (distinct) initial query once.
  market::PreparedQueryCache::Stats seeded = engine->stats().merged.prepared;
  EXPECT_EQ(seeded.misses, m.initial_queries.size());
  EXPECT_EQ(seeded.hits, 0u);

  // First purchase of a new query misses; repeats hit, and the cached
  // probes return the identical conflict set.
  PurchaseOutcome first = engine->Purchase(m.late_queries[0], 1e9);
  EXPECT_EQ(engine->stats().merged.prepared.misses, seeded.misses + 1);
  PurchaseOutcome second = engine->Purchase(m.late_queries[0], 1e9);
  EXPECT_EQ(engine->stats().merged.prepared.misses, seeded.misses + 1);
  EXPECT_EQ(engine->stats().merged.prepared.hits, 1u);
  EXPECT_EQ(second.bundle, first.bundle);
  EXPECT_DOUBLE_EQ(second.quote.price, first.quote.price);

  // Re-appending a known query hits too (same SQL text).
  QP_CHECK_OK(engine->AppendBuyers({m.initial_queries[0]}, {4.0}));
  EXPECT_EQ(engine->stats().merged.prepared.hits, 2u);
}

TEST(PricingEngineTest, ApplySellerDeltaEditsDataAndInvalidatesSelectively) {
  Market m = MakeMarket();
  auto engine = OneShardEngine(m, MatchedOptions());
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
  engine->Purchase(m.late_queries[0], 1e9);
  uint64_t misses = engine->stats().merged.prepared.misses;

  // The prepared cache holds every appended initial query plus the
  // purchased late query. Partition cells by who reads them.
  std::vector<const db::BoundQuery*> cached;
  for (const db::BoundQuery& q : m.initial_queries) cached.push_back(&q);
  cached.push_back(&m.late_queries[0]);
  auto readers_of = [&](int table, int column) {
    size_t n = 0;
    for (const db::BoundQuery* q : cached) {
      std::vector<std::pair<int, int>> cols = q->SensitiveColumns();
      if (std::find(cols.begin(), cols.end(), std::make_pair(table, column)) !=
          cols.end()) {
        ++n;
      }
    }
    return n;
  };
  std::vector<std::pair<int, int>> sensitive =
      m.late_queries[0].SensitiveColumns();
  ASSERT_FALSE(sensitive.empty());

  // A foreign database is rejected; nothing is invalidated.
  auto other = db::testing::MakeTestDatabase();
  market::CellDelta untouched;
  untouched.table = -1;
  for (const market::CellDelta& cell : m.support) {
    if (readers_of(cell.table, cell.column) == 0) {
      untouched = cell;
      break;
    }
  }
  ASSERT_NE(untouched.table, -1);  // some support cell no cached query reads
  market::CellDelta delta = untouched;
  EXPECT_FALSE(engine->ApplySellerDelta(*other, delta).ok());
  EXPECT_EQ(engine->stats().merged.prepared.selective_invalidations, 0u);

  // An edit to a cell no cached query reads: a new catalog generation is
  // committed (the base cell keeps its old bytes until a fold — default
  // fold_every is far away), the selective scan runs, but every entry
  // survives — the next purchase still hits instead of re-probing (the
  // point of satellite invalidation).
  db::Value before = m.db->table(delta.table).cell(delta.row, delta.column);
  QP_CHECK_OK(engine->ApplySellerDelta(*m.db, delta));
  EXPECT_EQ(
      m.db->table(delta.table).cell(delta.row, delta.column).Compare(before),
      0);
  EXPECT_EQ(engine->catalog()
                .LogicalCell(delta.table, delta.row, delta.column)
                .Compare(delta.new_value),
            0);
  EXPECT_EQ(engine->stats().merged.catalog.generations_published, 1u);
  EXPECT_EQ(engine->stats().merged.catalog.deltas_pending, 1u);
  EXPECT_EQ(engine->stats().merged.catalog.folds, 0u);
  EXPECT_EQ(engine->stats().merged.prepared.selective_invalidations, 1u);
  EXPECT_EQ(engine->stats().merged.prepared.selective_dropped, 0u);
  engine->Purchase(m.late_queries[0], 1e9);
  EXPECT_EQ(engine->stats().merged.prepared.misses, misses);

  // An edit to a column the late query IS sensitive to drops its entry
  // (and exactly the other cached entries reading that column): the next
  // purchase re-prepares against the edited logical contents.
  market::CellDelta hit;
  hit.table = sensitive[0].first;
  hit.column = sensitive[0].second;
  hit.row = 0;
  const db::Table& table = m.db->table(hit.table);
  hit.new_value = table.cell(table.num_rows() > 1 ? 1 : 0, hit.column);
  QP_CHECK_OK(engine->ApplySellerDelta(*m.db, hit));
  EXPECT_EQ(engine->stats().merged.catalog.generations_published, 2u);
  EXPECT_EQ(engine->stats().merged.prepared.selective_invalidations, 2u);
  EXPECT_EQ(engine->stats().merged.prepared.selective_dropped,
            readers_of(hit.table, hit.column));
  engine->Purchase(m.late_queries[0], 1e9);
  EXPECT_EQ(engine->stats().merged.prepared.misses, misses + 1);
  // Every Purchase sampled its probe's staleness (all 0 here: no commit
  // raced the probes).
  EXPECT_GE(engine->stats().merged.catalog.staleness_samples, 3u);
  EXPECT_EQ(engine->stats().merged.catalog.staleness_max, 0u);
}

TEST(PricingEngineTest, ApplySellerDeltaFoldsIntoBaseOnCadence) {
  Market m = MakeMarket();
  auto engine = std::make_unique<ShardedPricingEngine>(
      m.db.get(),
      market::SupportPartitioner::Partition(m.support, {}, {.num_shards = 1}),
      ShardedEngineOptions{.engine = MatchedOptions(), .fold_every = 2});
  QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));

  // Two commits to distinct cells: the first stays pending in the
  // overlay, the second reaches fold_every and (no reader is pinned)
  // folds both into the base in place.
  const market::CellDelta& a = m.support[0];
  const market::CellDelta* b = nullptr;
  for (const market::CellDelta& cell : m.support) {
    if (cell.table != a.table || cell.row != a.row ||
        cell.column != a.column) {
      b = &cell;
      break;
    }
  }
  ASSERT_NE(b, nullptr);

  QP_CHECK_OK(engine->ApplySellerDelta(*m.db, a));
  EngineStats mid = engine->stats().merged;
  EXPECT_EQ(mid.catalog.deltas_pending, 1u);
  EXPECT_EQ(mid.catalog.folds, 0u);

  QP_CHECK_OK(engine->ApplySellerDelta(*m.db, *b));
  EngineStats folded = engine->stats().merged;
  EXPECT_EQ(folded.catalog.generations_published, 2u);
  EXPECT_EQ(folded.catalog.folds, 1u);
  EXPECT_EQ(folded.catalog.deltas_folded, 2u);
  EXPECT_EQ(folded.catalog.deltas_pending, 0u);
  // The fold wrote the committed values into the base tables...
  EXPECT_EQ(m.db->table(a.table).cell(a.row, a.column).Compare(a.new_value),
            0);
  EXPECT_EQ(
      m.db->table(b->table).cell(b->row, b->column).Compare(b->new_value), 0);
  // ...without changing any logical read or the generation number (a
  // fold commits nothing).
  EXPECT_EQ(engine->catalog()
                .LogicalCell(a.table, a.row, a.column)
                .Compare(a.new_value),
            0);
  EXPECT_EQ(engine->catalog().head_generation(), 2u);
}

TEST(PricingEngineTest, ParallelBuildMatchesSerialBooks) {
  // AppendBuyers with probe parallelism (the router's num_threads fans the
  // probes out): conflict sets are bit-identical
  // for every thread count, so the published books match the serial
  // engine's exactly (same edges -> same LPs -> same prices).
  Market m = MakeMarket();
  const EngineOptions options = MatchedOptions();
  auto serial = OneShardEngine(m, options);
  auto parallel = OneShardEngine(m, options, /*num_threads=*/4);
  QP_CHECK_OK(serial->AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(parallel->AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(serial->AppendBuyers(m.late_queries, m.late_valuations));
  QP_CHECK_OK(parallel->AppendBuyers(m.late_queries, m.late_valuations));

  const core::Hypergraph& sg = serial->shard(0).hypergraph();
  const core::Hypergraph& pg = parallel->shard(0).hypergraph();
  ASSERT_EQ(pg.num_edges(), sg.num_edges());
  for (int e = 0; e < sg.num_edges(); ++e) {
    EXPECT_EQ(pg.edge(e), sg.edge(e));
  }
  auto serial_book = serial->shard(0).snapshot();
  auto parallel_book = parallel->shard(0).snapshot();
  ASSERT_EQ(parallel_book->results().size(), serial_book->results().size());
  for (size_t i = 0; i < serial_book->results().size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel_book->results()[i].revenue,
                     serial_book->results()[i].revenue)
        << serial_book->results()[i].algorithm;
  }
  // Per-query stats merged in index order: identical accounting too.
  EngineStats ss = serial->stats().merged, ps = parallel->stats().merged;
  EXPECT_EQ(ps.conflict.probes, ss.conflict.probes);
  EXPECT_EQ(ps.conflict.pruned, ss.conflict.pruned);
  EXPECT_EQ(ps.conflict.fallback_queries, ss.conflict.fallback_queries);
}

}  // namespace
}  // namespace qp::serve
