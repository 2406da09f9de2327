// ShardedPricingEngine parity suite. The contracts pinned here:
//  (a) one shard == a PricingEngine fed the cold builder's conflict
//      sets (market::BuildHypergraph) directly, bit for bit;
//  (b) with many shards, each shard == a PricingEngine running on
//      that shard's sub-instance (same batches), bit for bit, and the
//      router's routing matches an independent NaiveConflictSet oracle;
//  (c) cross-shard bundles price additively in ascending shard order;
//  (d) books are bit-identical for every router/build/LP thread count;
//  (e) on symmetric (identical-copy) instances the per-algorithm revenue
//      sums match a single PricingEngine on the full instance within
//      1e-9 — the documented LP-vertex tolerance;
//  (f) concurrent QuoteBundle/QuoteBatch/Purchase race shard-parallel
//      AppendBuyers publishes safely (the TSan job runs this file).
#include "serve/sharded_engine.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/algorithms.h"
#include "db/parser.h"
#include "market/conflict.h"
#include "market/hypergraph_builder.h"
#include "market/support.h"
#include "market/support_partitioner.h"
#include "serve/pricing_engine.h"
#include "tests/testing/random_instances.h"
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

  std::vector<db::BoundQuery> all_queries() const {
    std::vector<db::BoundQuery> all = initial_queries;
    all.insert(all.end(), late_queries.begin(), late_queries.end());
    return all;
  }
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

// Replay-identical geometry (see core/reprice.h): every LPIP threshold,
// solved standalone.
EngineOptions MatchedEngineOptions() {
  EngineOptions options;
  options.algorithms.lpip.max_candidates = 0;
  options.algorithms.lpip.chain_length = 1;
  return options;
}

ShardedEngineOptions MatchedShardedOptions(int num_threads = 1) {
  ShardedEngineOptions options;
  options.engine = MatchedEngineOptions();
  options.num_threads = num_threads;
  return options;
}

market::SupportPartition PartitionFor(const Market& m, int num_shards) {
  return market::SupportPartitioner::FromQueries(
      m.db.get(), m.support, m.all_queries(), {},
      {.num_shards = num_shards});
}

TEST(ShardedEngineTest, SingleShardMatchesMonolithicBitForBit) {
  Market m = MakeMarket();
  // Reference outside the router: the cold one-shot builder's conflict
  // sets, fed straight to a PricingEngine with the same batch bounds.
  common::EpochManager epochs;
  PricingEngine mono(static_cast<uint32_t>(m.support.size()),
                     MatchedEngineOptions(), epochs);
  ShardedPricingEngine sharded(m.db.get(), PartitionFor(m, 1),
                               MatchedShardedOptions());

  QP_CHECK_OK(mono.AppendBuyersPrecomputed(
      market::BuildHypergraph(*m.db, m.initial_queries, m.support)
          .conflict_sets,
      m.initial_valuations));
  QP_CHECK_OK(sharded.AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(mono.AppendBuyersPrecomputed(
      market::BuildHypergraph(*m.db, m.late_queries, m.support).conflict_sets,
      m.late_valuations));
  QP_CHECK_OK(sharded.AppendBuyers(m.late_queries, m.late_valuations));

  // Same instance, bit for bit: edges, every algorithm's revenue, LP
  // counts, versions.
  const PricingEngine& shard = sharded.shard(0);
  ASSERT_EQ(shard.hypergraph().num_edges(), mono.hypergraph().num_edges());
  for (int e = 0; e < mono.hypergraph().num_edges(); ++e) {
    EXPECT_EQ(shard.hypergraph().edge(e), mono.hypergraph().edge(e));
  }
  auto mono_book = mono.snapshot();
  MergedBookView view = sharded.snapshot();
  EXPECT_EQ(view.version(), mono_book->version());
  ASSERT_EQ(view.shard(0).results().size(), mono_book->results().size());
  for (size_t i = 0; i < mono_book->results().size(); ++i) {
    const core::PricingResult& a = mono_book->results()[i];
    const core::PricingResult& b = view.shard(0).results()[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.revenue, b.revenue) << a.algorithm;
    EXPECT_EQ(a.lps_solved, b.lps_solved) << a.algorithm;
  }
  EXPECT_EQ(sharded.stats().merged.total_lps_solved,
            mono.stats().total_lps_solved);

  // Quotes agree bit for bit, including the empty bundle.
  for (int e = 0; e < mono.hypergraph().num_edges(); ++e) {
    Quote mq = mono_book->QuoteBundle(mono.hypergraph().edge(e));
    Quote sq = sharded.QuoteBundle(mono.hypergraph().edge(e));
    EXPECT_EQ(sq.price, mq.price);
    EXPECT_EQ(sq.version, mq.version);
    EXPECT_EQ(sq.algorithm, mq.algorithm);
  }
  EXPECT_EQ(sharded.QuoteBundle({}).algorithm,
            mono_book->QuoteBundle({}).algorithm);
  EXPECT_EQ(sharded.stats().cross_shard_appends, 0u);
  EXPECT_EQ(sharded.stats().cross_shard_quotes, 0u);
}

// A buyer whose query conflicts with nothing has an empty bundle. The
// router's additive rule sums only the shards a bundle touches, so the
// empty bundle costs 0 at every shard count — even when the serving
// pricing (uniform bundle pricing) would charge a single book's price for
// it.
TEST(ShardedEngineTest, EmptyBundleIsFreeAtEveryShardCount) {
  db::Database empty_db;
  market::SupportSet support(4);
  for (size_t i = 0; i < support.size(); ++i) {
    support[i].row = static_cast<int>(i);
  }
  // One buyer: UBP at price 5 earns everything and wins the tie.
  const std::vector<std::vector<uint32_t>> edges = {{0, 1}};
  const core::Valuations valuations = {5.0};
  common::EpochManager epochs;
  PricingEngine book(static_cast<uint32_t>(support.size()),
                     MatchedEngineOptions(), epochs);
  QP_CHECK_OK(book.AppendBuyersPrecomputed(edges, valuations));
  ASSERT_EQ(book.snapshot()->best().algorithm, "UBP");
  ASSERT_EQ(book.snapshot()->QuoteBundle({}).price, 5.0);

  for (int num_shards : {1, 2}) {
    ShardedPricingEngine engine(
        &empty_db,
        market::SupportPartitioner::Partition(support, edges,
                                              {.num_shards = num_shards}),
        MatchedShardedOptions());
    QP_CHECK_OK(engine.AppendBuyersPrecomputed(edges, valuations));
    EXPECT_EQ(engine.QuoteBundle({}).price, 0.0) << num_shards;
    EXPECT_EQ(engine.QuoteBundle({0, 1}).price, 5.0) << num_shards;
  }
}

TEST(ShardedEngineTest, ShardsMatchMonolithicEnginesOnSubInstances) {
  Market m = MakeMarket();
  const int kShards = 3;
  market::SupportPartition partition = PartitionFor(m, kShards);
  ShardedPricingEngine sharded(m.db.get(), partition,
                               MatchedShardedOptions());

  // Independent routing oracle: NaiveConflictSet against the global
  // support, split by the partition maps, owner = largest part (ties to
  // the lowest shard), empty sets to the least-edged shard.
  std::vector<std::vector<std::vector<uint32_t>>> expected_initial(kShards),
      expected_late(kShards);
  std::vector<core::Valuations> expected_initial_v(kShards),
      expected_late_v(kShards);
  std::vector<int> edge_counts(kShards, 0);
  auto route = [&](const std::vector<db::BoundQuery>& queries,
                   const core::Valuations& valuations,
                   std::vector<std::vector<std::vector<uint32_t>>>& edges,
                   std::vector<core::Valuations>& vals) {
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<uint32_t> global =
          market::NaiveConflictSet(*m.db, queries[i], m.support);
      std::vector<std::vector<uint32_t>> parts =
          partition.SplitBundle(global);
      size_t owner = 0;
      bool any = false;
      for (size_t s = 0; s < parts.size(); ++s) {
        if (parts[s].empty()) continue;
        // The seed corpus covers every query: partition-respecting means
        // exactly one touched shard.
        ASSERT_FALSE(any) << "query " << i << " crosses shards";
        owner = s;
        any = true;
      }
      if (!any) {
        for (size_t s = 1; s < parts.size(); ++s) {
          if (edge_counts[s] < edge_counts[owner]) owner = s;
        }
      }
      edges[owner].push_back(std::move(parts[owner]));
      vals[owner].push_back(valuations[i]);
      ++edge_counts[owner];
    }
  };
  route(m.initial_queries, m.initial_valuations, expected_initial,
        expected_initial_v);
  route(m.late_queries, m.late_valuations, expected_late, expected_late_v);

  QP_CHECK_OK(sharded.AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(sharded.AppendBuyers(m.late_queries, m.late_valuations));
  EXPECT_EQ(sharded.stats().cross_shard_appends, 0u);

  int total_lps = 0;
  for (int s = 0; s < kShards; ++s) {
    // Reference: a standalone PricingEngine on this shard's support, fed
    // the expected local edges with the same batch boundaries.
    common::EpochManager epochs;
    PricingEngine reference(
        static_cast<uint32_t>(
            partition.shard_support[static_cast<size_t>(s)].size()),
        MatchedEngineOptions(), epochs);
    if (!expected_initial[s].empty()) {
      QP_CHECK_OK(reference.AppendBuyersPrecomputed(expected_initial[s],
                                                    expected_initial_v[s]));
    }
    if (!expected_late[s].empty()) {
      QP_CHECK_OK(reference.AppendBuyersPrecomputed(expected_late[s],
                                                    expected_late_v[s]));
    }

    const PricingEngine& shard = sharded.shard(s);
    ASSERT_EQ(shard.hypergraph().num_edges(),
              reference.hypergraph().num_edges())
        << "shard " << s;
    for (int e = 0; e < reference.hypergraph().num_edges(); ++e) {
      EXPECT_EQ(shard.hypergraph().edge(e), reference.hypergraph().edge(e));
    }
    auto ref_book = reference.snapshot();
    auto shard_book = shard.snapshot();
    EXPECT_EQ(shard_book->version(), ref_book->version()) << "shard " << s;
    ASSERT_EQ(shard_book->results().size(), ref_book->results().size());
    for (size_t i = 0; i < ref_book->results().size(); ++i) {
      EXPECT_EQ(shard_book->results()[i].revenue,
                ref_book->results()[i].revenue)
          << "shard " << s << " " << ref_book->results()[i].algorithm;
      EXPECT_EQ(shard_book->results()[i].lps_solved,
                ref_book->results()[i].lps_solved)
          << "shard " << s << " " << ref_book->results()[i].algorithm;
    }
    total_lps += shard.stats().total_lps_solved;
    EXPECT_EQ(shard.stats().total_lps_solved,
              reference.stats().total_lps_solved);
  }
  EXPECT_EQ(sharded.stats().merged.total_lps_solved, total_lps);
}

TEST(ShardedEngineTest, CrossShardBundlesPriceAdditively) {
  Market m = MakeMarket();
  market::SupportPartition partition = PartitionFor(m, 3);
  ShardedPricingEngine sharded(m.db.get(), partition,
                               MatchedShardedOptions());
  QP_CHECK_OK(sharded.AppendBuyers(m.initial_queries, m.initial_valuations));

  // A bundle mixing items from every shard: price must be the ascending-
  // shard-order sum of the per-shard local quotes.
  std::vector<uint32_t> bundle;
  for (int s = 0; s < partition.num_shards; ++s) {
    const auto& items = partition.shard_items[static_cast<size_t>(s)];
    for (size_t k = 0; k < std::min<size_t>(3, items.size()); ++k) {
      bundle.push_back(items[k]);
    }
  }
  MergedBookView view = sharded.snapshot();
  std::vector<std::vector<uint32_t>> parts = partition.SplitBundle(bundle);
  double expected = 0.0;
  int touched = 0;
  for (int s = 0; s < partition.num_shards; ++s) {
    if (parts[static_cast<size_t>(s)].empty()) continue;
    expected += view.shard(s).QuoteBundle(parts[static_cast<size_t>(s)]).price;
    ++touched;
  }
  ASSERT_GT(touched, 1);
  Quote quote = sharded.QuoteBundle(bundle);
  EXPECT_EQ(quote.price, expected);
  EXPECT_GE(sharded.stats().cross_shard_quotes, 1u);

  // A bundle inside one shard prices exactly as that shard does.
  const auto& shard0 = partition.shard_items[0];
  std::vector<uint32_t> inside(shard0.begin(),
                               shard0.begin() +
                                   std::min<size_t>(4, shard0.size()));
  Quote inside_quote = sharded.QuoteBundle(inside);
  EXPECT_EQ(inside_quote.price,
            view.shard(0).QuoteBundle(partition.SplitBundle(inside)[0]).price);
  EXPECT_EQ(inside_quote.algorithm, view.shard(0).best().algorithm);
}

TEST(ShardedEngineTest, BooksAreBitIdenticalForEveryThreadCount) {
  Market m = MakeMarket();
  market::SupportPartition partition = PartitionFor(m, 3);
  ShardedEngineOptions serial = MatchedShardedOptions(1);
  ShardedEngineOptions threaded = MatchedShardedOptions(4);
  threaded.engine.algorithms.lpip.num_threads = 4;
  threaded.engine.algorithms.cip.num_threads = 4;

  ShardedPricingEngine a(m.db.get(), partition, serial);
  ShardedPricingEngine b(m.db.get(), partition, threaded);
  for (ShardedPricingEngine* engine : {&a, &b}) {
    QP_CHECK_OK(engine->AppendBuyers(m.initial_queries, m.initial_valuations));
    QP_CHECK_OK(engine->AppendBuyers(m.late_queries, m.late_valuations));
  }

  MergedBookView va = a.snapshot(), vb = b.snapshot();
  EXPECT_EQ(vb.version(), va.version());
  EXPECT_EQ(vb.best_revenue(), va.best_revenue());
  for (int s = 0; s < a.num_shards(); ++s) {
    ASSERT_EQ(vb.shard(s).results().size(), va.shard(s).results().size());
    for (size_t i = 0; i < va.shard(s).results().size(); ++i) {
      EXPECT_EQ(vb.shard(s).results()[i].revenue,
                va.shard(s).results()[i].revenue)
          << "shard " << s << " " << va.shard(s).results()[i].algorithm;
    }
  }
  for (int e = 0; e < a.shard(0).hypergraph().num_edges(); ++e) {
    std::vector<uint32_t> bundle;
    for (uint32_t local : a.shard(0).hypergraph().edge(e)) {
      bundle.push_back(partition.shard_items[0][local]);
    }
    EXPECT_EQ(b.QuoteBundle(bundle).price, a.QuoteBundle(bundle).price);
  }
}

TEST(ShardedEngineTest, SymmetricCopiesMatchMonolithicWithinTolerance) {
  // K identical, connected copies of one random component laid out
  // disjointly. Every algorithm's global optimum decomposes per copy, so
  // the sharded per-algorithm revenue sums must match a single
  // monolithic engine on the union — within 1e-9 relative, the
  // documented tolerance for LP-derived prices (equally-optimal vertices
  // may realize out-of-family sales differently).
  const uint32_t kItems = 12;
  const int kEdges = 10;
  const int kCopies = 3;
  Rng rng(97);
  core::Hypergraph base =
      qp::testing::RandomHypergraph(rng, kItems, kEdges, 4);
  core::Valuations base_v =
      qp::testing::RandomValuations(rng, kEdges + 1, 0.5, 20.0);
  // Connector edge: makes each copy a single connected component, so the
  // partitioner assigns whole copies to shards.
  std::vector<std::vector<uint32_t>> base_edges;
  for (int e = 0; e < base.num_edges(); ++e) base_edges.push_back(base.edge(e));
  {
    std::vector<uint32_t> connector(kItems);
    for (uint32_t i = 0; i < kItems; ++i) connector[i] = i;
    base_edges.push_back(std::move(connector));
  }

  std::vector<std::vector<uint32_t>> global_edges;
  core::Valuations global_v;
  for (int c = 0; c < kCopies; ++c) {
    for (size_t e = 0; e < base_edges.size(); ++e) {
      std::vector<uint32_t> edge = base_edges[e];
      for (uint32_t& item : edge) item += static_cast<uint32_t>(c) * kItems;
      global_edges.push_back(std::move(edge));
      global_v.push_back(base_v[e]);
    }
  }

  // Fabricated support over an empty database: the precomputed-append
  // path never probes, so only the support size matters.
  db::Database empty_db;
  market::SupportSet support(kItems * kCopies);
  for (size_t i = 0; i < support.size(); ++i) {
    support[i].row = static_cast<int>(i);
  }

  common::EpochManager epochs;
  PricingEngine mono(static_cast<uint32_t>(support.size()),
                     MatchedEngineOptions(), epochs);
  QP_CHECK_OK(mono.AppendBuyersPrecomputed(global_edges, global_v));

  market::SupportPartition partition = market::SupportPartitioner::Partition(
      support, global_edges, {.num_shards = kCopies});
  // Whole copies land on distinct shards (equal sizes, LPT order).
  for (int s = 0; s < kCopies; ++s) {
    EXPECT_EQ(partition.shard_items[static_cast<size_t>(s)].size(), kItems);
  }
  ShardedPricingEngine sharded(&empty_db, partition, MatchedShardedOptions());
  QP_CHECK_OK(sharded.AppendBuyersPrecomputed(global_edges, global_v));
  EXPECT_EQ(sharded.stats().cross_shard_appends, 0u);

  auto mono_book = mono.snapshot();
  MergedBookView view = sharded.snapshot();
  for (size_t i = 0; i < mono_book->results().size(); ++i) {
    const core::PricingResult& target = mono_book->results()[i];
    double sum = 0.0;
    for (int s = 0; s < kCopies; ++s) {
      sum += view.shard(s).results()[i].revenue;
    }
    EXPECT_NEAR(sum, target.revenue, 1e-9 * (1.0 + std::abs(target.revenue)))
        << target.algorithm;
  }
  // LPIP thresholds dedupe by value and the copies share valuations, so
  // every shard sweeps exactly the distinct thresholds the monolithic
  // engine sweeps (on generic instances with distinct valuations the
  // per-shard counts instead sum to the monolithic count — pinned by
  // ShardsMatchMonolithicEnginesOnSubInstances).
  for (int s = 0; s < kCopies; ++s) {
    EXPECT_EQ(view.shard(s).Find("LPIP")->lps_solved,
              mono_book->Find("LPIP")->lps_solved);
  }
}

TEST(ShardedEngineTest, VersionVectorDisambiguatesAliasedScalarVersions) {
  Market m = MakeMarket();
  market::SupportPartition partition = PartitionFor(m, 3);
  ShardedPricingEngine sharded(m.db.get(), partition,
                               MatchedShardedOptions());
  QP_CHECK_OK(sharded.AppendBuyers(m.initial_queries, m.initial_valuations));

  MergedBookView before = sharded.snapshot();
  std::vector<uint64_t> vector_before = before.version_vector();
  ASSERT_EQ(vector_before.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t v : vector_before) sum += v;
  EXPECT_EQ(before.version(), sum);

  // One more append bumps SOME shard's version. The scalar version is
  // only monotone — two different vectors can share a sum — but the
  // vector itself must change whenever any shard publishes.
  QP_CHECK_OK(sharded.AppendBuyers({m.late_queries[0]},
                                   {m.late_valuations[0]}));
  MergedBookView after = sharded.snapshot();
  std::vector<uint64_t> vector_after = after.version_vector();
  EXPECT_NE(vector_after, vector_before);
  EXPECT_GE(after.version(), before.version());
  for (size_t s = 0; s < vector_after.size(); ++s) {
    EXPECT_GE(vector_after[s], vector_before[s]) << "shard " << s;
  }

  // Quotes from a merged view carry the vector; a single book's own
  // quotes leave it empty (one book's scalar version cannot alias).
  Quote merged_quote = sharded.QuoteBundle({});
  EXPECT_EQ(merged_quote.shard_versions, vector_after);
  common::EpochManager epochs;
  PricingEngine mono(static_cast<uint32_t>(m.support.size()),
                     MatchedEngineOptions(), epochs);
  EXPECT_TRUE(mono.snapshot()->QuoteBundle({}).shard_versions.empty());
}

TEST(ShardedEngineTest, PurchaseMatchesMonolithicBundlesAndCountsSales) {
  Market m = MakeMarket();
  ShardedPricingEngine mono(m.db.get(), PartitionFor(m, 1),
                            MatchedShardedOptions());
  ShardedPricingEngine sharded(m.db.get(), PartitionFor(m, 3),
                               MatchedShardedOptions());
  QP_CHECK_OK(mono.AppendBuyers(m.initial_queries, m.initial_valuations));
  QP_CHECK_OK(sharded.AppendBuyers(m.initial_queries, m.initial_valuations));

  // Reference outside the router: the cold one-shot builder's conflict
  // sets over the global support.
  const std::vector<std::vector<uint32_t>> expected =
      market::BuildHypergraph(*m.db, m.late_queries, m.support)
          .conflict_sets;
  for (size_t i = 0; i < m.late_queries.size(); ++i) {
    PurchaseOutcome mo = mono.Purchase(m.late_queries[i], 1e9);
    PurchaseOutcome so = sharded.Purchase(m.late_queries[i], 1e9);
    // The buyer's bundle is the GLOBAL conflict set at every shard count.
    EXPECT_EQ(mo.bundle, expected[i]);
    EXPECT_EQ(so.bundle, expected[i]);
    EXPECT_TRUE(so.accepted);
    EXPECT_GE(so.quote.price, 0.0);
  }
  ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.merged.purchases, m.late_queries.size());
  EXPECT_EQ(stats.merged.purchases_accepted, m.late_queries.size());
  // Repeat purchases of the same SQL hit the router's prepared cache.
  uint64_t misses_before = stats.merged.prepared.misses;
  sharded.Purchase(m.late_queries[0], 1e9);
  ShardedEngineStats after = sharded.stats();
  EXPECT_EQ(after.merged.prepared.misses, misses_before);
  EXPECT_GT(after.merged.prepared.hits, stats.merged.prepared.hits);
}

TEST(ShardedEngineTest, ConcurrentReadersRaceShardParallelAppends) {
  Market m = MakeMarket(/*support_size=*/100);
  market::SupportPartition partition = PartitionFor(m, 2);
  ShardedPricingEngine engine(m.db.get(), partition,
                              MatchedShardedOptions(2));
  QP_CHECK_OK(engine.AppendBuyers(m.initial_queries, m.initial_valuations));

  // Global-id bundles captured before the readers start, including one
  // that deliberately spans both shards.
  std::vector<std::vector<uint32_t>> bundles;
  bundles.push_back({});
  {
    std::vector<uint32_t> crossing;
    for (int s = 0; s < partition.num_shards; ++s) {
      const auto& items = partition.shard_items[static_cast<size_t>(s)];
      for (size_t k = 0; k < std::min<size_t>(2, items.size()); ++k) {
        crossing.push_back(items[k]);
      }
    }
    bundles.push_back(std::move(crossing));
  }
  for (uint32_t i = 0; i < std::min<uint32_t>(8, partition.num_items());
       ++i) {
    bundles.push_back({i});
  }

  constexpr int kReaders = 4;
  constexpr int kIterations = 150;
  std::atomic<bool> failed{false};
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      uint64_t last_version = 0;
      for (int i = 0; i < kIterations; ++i) {
        const std::vector<uint32_t>& bundle =
            bundles[static_cast<size_t>(r + i) % bundles.size()];
        MergedBookView view = engine.snapshot();
        Quote direct = engine.QuoteBundle(bundle);
        const std::vector<uint32_t> pair[] = {bundle, bundle};
        std::vector<Quote> batch = engine.QuoteBatch(
            std::span<const std::vector<uint32_t>>(pair, 2));
        PurchaseOutcome outcome = engine.Purchase(
            m.late_queries[static_cast<size_t>(r + i) %
                           m.late_queries.size()],
            (r + i) % 3 == 0 ? 1e9 : 1e-9);
        if (outcome.accepted) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
        // Merged versions only move forward; every pin (the explicit
        // view, the batch's internal pin) is internally consistent —
        // same bundle, same price within one pin. Prices are NOT
        // compared across pins: a writer publish in between legitimately
        // changes them.
        if (view.version() < last_version ||
            batch[0].price != batch[1].price ||
            batch[0].version != batch[1].version ||
            view.QuoteBundle(bundle).price != view.QuoteBundle(bundle).price ||
            !std::isfinite(direct.price) || direct.price < 0.0 ||
            !std::isfinite(outcome.quote.price)) {
          failed.store(true);
          return;
        }
        last_version = view.version();
      }
    });
  }

  // Writer: keep publishing shard generations while the readers hammer.
  for (size_t b = 0; b < m.late_queries.size(); ++b) {
    QP_CHECK_OK(
        engine.AppendBuyers({m.late_queries[b]}, {m.late_valuations[b]}));
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  ShardedEngineStats stats = engine.stats();
  EXPECT_EQ(stats.merged.purchases,
            static_cast<uint64_t>(kReaders) * kIterations);
  EXPECT_EQ(stats.merged.purchases_accepted,
            static_cast<uint64_t>(accepted.load()));
}

}  // namespace
}  // namespace qp::serve
