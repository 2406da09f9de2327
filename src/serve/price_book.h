// Immutable price-book snapshots (the read side of the serving engine).
//
// A snapshot freezes one pricing generation: every algorithm's
// PricingResult, the generation number, and the reprice cost that
// produced it. The engine publishes one whole snapshot per generation
// (the writer moves its reprice results in, so a publish copies
// nothing) behind an atomic head pointer; readers pin a
// common::EpochManager epoch instead of bumping a shared_ptr, and a
// replaced snapshot is reclaimed once every reader pinned before the
// swap has left.
#ifndef QP_SERVE_PRICE_BOOK_H_
#define QP_SERVE_PRICE_BOOK_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithms.h"
#include "core/reprice.h"

namespace qp::serve {

/// One priced answer, stamped with the generation that produced it.
struct Quote {
  double price = 0.0;
  /// The producing generation. For a single engine this is the snapshot
  /// version; for a merged (sharded) quote it is the SUM of shard
  /// versions — monotone across any shard's publish but NOT collision
  /// free (shard A +1 / shard B -1 sums the same). Version-polling
  /// clients must compare `shard_versions`, which distinct shard
  /// generations can never alias.
  uint64_t version = 0;
  /// Per-shard snapshot versions in ascending shard order; empty for
  /// quotes served by a single (unsharded) engine. The RPC layer stamps
  /// wire responses with this vector.
  std::vector<uint64_t> shard_versions;
  std::string algorithm;  // which pricing served this quote
};

class PriceBookSnapshot {
 public:
  /// Deep-copies `results` (PricingResult::Clone) so the caller — the
  /// engine's standalone snapshot() copy, a test — retains its own.
  /// `results` must be non-empty: a book with nothing to serve is a
  /// construction bug, checked here (abort) so best() never indexes out
  /// of bounds.
  PriceBookSnapshot(uint64_t version,
                    const std::vector<core::PricingResult>& results,
                    const core::RepriceStats& reprice_stats,
                    uint32_t num_items, int num_edges)
      : version_(version),
        num_items_(num_items),
        num_edges_(num_edges),
        reprice_stats_(reprice_stats) {
    results_.reserve(results.size());
    for (const core::PricingResult& r : results) results_.push_back(r.Clone());
    Seal();
  }

  /// Move-in overload for callers that already own their results (the
  /// engine's publish and restore): no copy. Same non-empty contract.
  PriceBookSnapshot(uint64_t version, std::vector<core::PricingResult>&& results,
                    const core::RepriceStats& reprice_stats, uint32_t num_items,
                    int num_edges)
      : version_(version),
        num_items_(num_items),
        num_edges_(num_edges),
        reprice_stats_(reprice_stats),
        results_(std::move(results)) {
    Seal();
  }

  uint64_t version() const { return version_; }
  uint32_t num_items() const { return num_items_; }
  int num_edges() const { return num_edges_; }
  /// What the generation cost (lps solved, thresholds reused, seconds).
  const core::RepriceStats& reprice_stats() const { return reprice_stats_; }

  const std::vector<core::PricingResult>& results() const { return results_; }

  /// Result of a named algorithm ("LPIP", "XOS", ...); nullptr if absent.
  const core::PricingResult* Find(const std::string& algorithm) const {
    for (const core::PricingResult& r : results_) {
      if (r.algorithm == algorithm) return &r;
    }
    return nullptr;
  }

  /// Index of the revenue-maximal result (first wins ties, in
  /// RunAllAlgorithms order); always valid — construction rejects empty
  /// result sets.
  int best_index() const { return best_; }

  /// The revenue-maximal result.
  const core::PricingResult& best() const {
    return results_[static_cast<size_t>(best_)];
  }

  /// Price of an arbitrary bundle of items under the serving (= best)
  /// pricing. Const, touches only immutable state: safe from any thread.
  Quote QuoteBundle(const std::vector<uint32_t>& bundle) const {
    const core::PricingResult& serving = best();
    Quote quote;
    quote.price = serving.pricing->Price(bundle);
    quote.version = version_;
    quote.algorithm = serving.algorithm;
    return quote;
  }

 private:
  /// Enforces the non-empty contract and picks the serving result.
  /// best_ >= 0 afterwards, so best() never falls back to a bogus
  /// results_[0] read on an empty vector.
  void Seal() {
    if (results_.empty()) {
      std::fprintf(stderr,
                   "PriceBookSnapshot: constructed with no results (a book "
                   "must have at least one pricing to serve)\n");
      std::abort();
    }
    for (size_t i = 0; i < results_.size(); ++i) {
      if (best_ < 0 ||
          results_[i].revenue > results_[static_cast<size_t>(best_)].revenue) {
        best_ = static_cast<int>(i);
      }
    }
  }

  uint64_t version_;
  uint32_t num_items_;
  int num_edges_;
  core::RepriceStats reprice_stats_;
  std::vector<core::PricingResult> results_;
  int best_ = -1;
};

}  // namespace qp::serve

#endif  // QP_SERVE_PRICE_BOOK_H_
