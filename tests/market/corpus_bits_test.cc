// Pins the corpus conflict sets bit for bit: a hash of every query's
// conflict set, plus the exact probe totals, for the skewed corpus at the
// service benchmark's support (instance seed 7, support of 1200 drawn
// from Mix64(7 ^ 0x5eed), as perfbench/ builds it) and for TPC-H at its
// default scale and support. Any change to probing — pruning, prefilters,
// skip rules, thread fan-out — must leave these constants unchanged.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "market/conflict_prober.h"
#include "workloads/tpch.h"
#include "workloads/world_queries.h"

namespace qp::market {
namespace {

struct CorpusBits {
  uint64_t sets_hash;
  int64_t probes;
  int64_t pruned;
  int64_t fallback_queries;
};

CorpusBits BitsOf(const workload::WorkloadInstance& w, int support_size,
                  int threads) {
  Rng rng(Mix64(7 ^ 0x5eedULL));
  auto support = GenerateSupport(*w.database, {.size = support_size}, rng);
  QP_CHECK_OK(support.status());
  ConflictProber prober(w.database.get(), std::move(*support),
                        {.num_threads = threads});
  uint64_t hash = 0;
  for (const std::vector<uint32_t>& set : prober.ConflictSets(w.queries)) {
    hash = HashCombine(hash, set.size());
    for (uint32_t item : set) hash = HashCombine(hash, item);
  }
  const ConflictStats& stats = prober.build_stats();
  return {hash, stats.probes, stats.pruned, stats.fallback_queries};
}

void ExpectBits(const CorpusBits& got, const CorpusBits& want) {
  EXPECT_EQ(got.sets_hash, want.sets_hash) << std::hex << got.sets_hash;
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.pruned, want.pruned);
  EXPECT_EQ(got.fallback_queries, want.fallback_queries);
}

class CorpusBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusBitsTest, SkewedAtServiceSupport) {
  auto w = workload::MakeSkewedWorkload(7);
  ASSERT_TRUE(w.ok()) << w.status();
  ExpectBits(BitsOf(*w, 1200, GetParam()),
             {0xd28239b458d298abULL, 355038, 828162, 1});
}

TEST_P(CorpusBitsTest, TpchAtDefaultSupport) {
  auto w = workload::MakeTpchWorkload();
  ASSERT_TRUE(w.ok()) << w.status();
  ExpectBits(BitsOf(*w, SupportOptions{}.size, GetParam()),
             {0xeafde4426216071bULL, 19945, 200055, 0});
}

INSTANTIATE_TEST_SUITE_P(Threads, CorpusBitsTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace qp::market
