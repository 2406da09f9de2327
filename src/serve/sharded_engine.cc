#include "serve/sharded_engine.h"

#include <utility>

#include "common/thread_pool.h"
#include "core/book_merge.h"
#include "core/pricing.h"
#include "serve/persist/checkpoint.h"

namespace qp::serve {

uint64_t MergedBookView::version() const {
  uint64_t total = 0;
  for (const PriceBookSnapshot* book : books_) total += book->version();
  return total;
}

std::vector<uint64_t> MergedBookView::version_vector() const {
  std::vector<uint64_t> versions;
  versions.reserve(books_.size());
  for (const PriceBookSnapshot* book : books_) {
    versions.push_back(book->version());
  }
  return versions;
}

double MergedBookView::best_revenue() const {
  std::vector<double> parts;
  parts.reserve(books_.size());
  for (const PriceBookSnapshot* book : books_) {
    parts.push_back(book->num_edges() > 0 ? book->best().revenue : 0.0);
  }
  return core::AdditivePrice(parts);
}

Quote MergedBookView::QuoteBundle(const std::vector<uint32_t>& bundle,
                                  int* touched_shards) const {
  QuoteScratch scratch;
  Quote quote;
  QuoteBundleInto(bundle, &scratch, &quote, touched_shards);
  return quote;
}

void MergedBookView::QuoteBundleInto(const std::vector<uint32_t>& bundle,
                                     QuoteScratch* scratch, Quote* out,
                                     int* touched_shards) const {
  partition_->SplitBundleInto(bundle, &scratch->parts);
  // At most one price and one label per shard; reserving that up front
  // keeps a scratch primed by any bundle allocation-free afterwards.
  scratch->prices.clear();
  scratch->prices.reserve(books_.size());
  scratch->labels.clear();
  scratch->labels.reserve(books_.size());
  for (size_t s = 0; s < books_.size(); ++s) {
    if (scratch->parts[s].empty()) continue;
    // Per-shard quote without the intermediate Quote: the serving
    // result's bundle price and algorithm name (stable while the view's
    // pin is held) — exactly what PriceBookSnapshot::QuoteBundle packages.
    const core::PricingResult& serving = books_[s]->best();
    scratch->prices.push_back(serving.pricing->Price(scratch->parts[s]));
    scratch->labels.push_back(&serving.algorithm);
  }
  if (touched_shards != nullptr) {
    *touched_shards = static_cast<int>(scratch->prices.size());
  }
  if (scratch->labels.empty()) {
    // Nothing touched (an empty bundle): it costs 0 at every shard count,
    // and the quote reports the serving algorithms of every shard.
    for (const PriceBookSnapshot* book : books_) {
      scratch->labels.push_back(&book->best().algorithm);
    }
  }
  out->price = core::AdditivePrice(scratch->prices);
  out->version = version();
  // The scalar version is monotone but collidable across shard-version
  // vectors; the vector is the collision-free stamp (see version()).
  out->shard_versions.clear();
  for (const PriceBookSnapshot* book : books_) {
    out->shard_versions.push_back(book->version());
  }
  core::MergeAlgorithmLabelsInto(scratch->labels, &out->algorithm);
}

ShardedPricingEngine::ShardedPricingEngine(const db::Database* db,
                                           market::SupportPartition partition,
                                           ShardedEngineOptions options)
    : db_(db),
      partition_(std::move(partition)),
      options_(std::move(options)),
      catalog_(db, &epochs_, options_.fold_every),
      prober_(db, partition_.support, {.num_threads = options_.num_threads},
              &catalog_) {
  shards_.reserve(static_cast<size_t>(partition_.num_shards));
  for (int s = 0; s < partition_.num_shards; ++s) {
    // Shards share the router's epoch manager: a merged view costs one
    // pin, not one per shard.
    shards_.push_back(std::make_unique<PricingEngine>(
        static_cast<uint32_t>(
            partition_.shard_support[static_cast<size_t>(s)].size()),
        options_.engine, epochs_));
  }
}

Status ShardedPricingEngine::AppendBuyers(
    const std::vector<db::BoundQuery>& queries,
    const core::Valuations& valuations) {
  if (queries.size() != valuations.size()) {
    return Status::InvalidArgument(
        "AppendBuyers: one valuation per query required");
  }
  if (queries.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // One probe per query against the GLOBAL support, fanned over the
  // router's threads.
  return AppendRouted(prober_.ConflictSets(queries), valuations);
}

Status ShardedPricingEngine::AppendBuyersPrecomputed(
    std::vector<std::vector<uint32_t>> conflict_sets,
    const core::Valuations& valuations) {
  if (conflict_sets.size() != valuations.size()) {
    return Status::InvalidArgument(
        "AppendBuyersPrecomputed: one valuation per conflict set required");
  }
  const uint32_t num_items = partition_.num_items();
  for (const std::vector<uint32_t>& edge : conflict_sets) {
    for (uint32_t item : edge) {
      if (item >= num_items) {
        return Status::InvalidArgument(
            "AppendBuyersPrecomputed: item index outside the partitioned "
            "support");
      }
    }
  }
  if (conflict_sets.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return AppendRouted(std::move(conflict_sets), valuations);
}

Status ShardedPricingEngine::AppendRouted(
    std::vector<std::vector<uint32_t>> conflict_sets,
    const core::Valuations& valuations) {
  const size_t num_shards = shards_.size();
  // Write-ahead: the GLOBAL conflict sets hit the journal before any
  // shard applies them — a failed log aborts the append, so recovery
  // never misses an op that reached a book. Logging global (not routed)
  // edges keeps replay routing-identical: AppendBuyersPrecomputed on the
  // replayed sets re-derives the same owners deterministically.
  if (log_ != nullptr) {
    QP_RETURN_IF_ERROR(log_->LogAppend(conflict_sets, valuations));
  }
  // Route serially in arrival order (the deterministic part), then fan
  // the per-shard appends out (each shard's work is independent and
  // internally thread-count-invariant).
  std::vector<std::vector<std::vector<uint32_t>>> shard_edges(num_shards);
  std::vector<core::Valuations> shard_valuations(num_shards);
  for (size_t i = 0; i < conflict_sets.size(); ++i) {
    std::vector<std::vector<uint32_t>> parts =
        partition_.SplitBundle(conflict_sets[i]);
    int touched = 0;
    size_t owner = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      if (parts[s].empty()) continue;
      ++touched;
      if (parts[s].size() > parts[owner].size() || parts[owner].empty()) {
        owner = s;
      }
    }
    if (touched == 0) {
      // Empty conflict set: place on the shard with the fewest edges so
      // far — its book's plus those routed to it earlier in this batch —
      // (ties to the lowest id) so empty edges spread evenly.
      auto edges_so_far = [&](size_t s) {
        return static_cast<size_t>(shards_[s]->hypergraph().num_edges()) +
               shard_edges[s].size();
      };
      for (size_t s = 1; s < num_shards; ++s) {
        if (edges_so_far(s) < edges_so_far(owner)) owner = s;
      }
    } else if (touched > 1) {
      cross_shard_appends_.fetch_add(1, std::memory_order_relaxed);
    }
    shard_edges[owner].push_back(std::move(parts[owner]));
    shard_valuations[owner].push_back(valuations[i]);
  }

  std::vector<Status> statuses(num_shards, Status::OK());
  common::ThreadPool pool(options_.num_threads);
  pool.ParallelFor(static_cast<int>(num_shards), [&](int s) {
    auto us = static_cast<size_t>(s);
    if (shard_edges[us].empty()) return;
    statuses[us] = shards_[us]->AppendBuyersPrecomputed(
        std::move(shard_edges[us]), shard_valuations[us]);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  if (log_ != nullptr) {
    QP_RETURN_IF_ERROR(log_->OnPublish(*this));
  }
  return Status::OK();
}

MergedBookView ShardedPricingEngine::snapshot() const {
  MergedBookView view;
  SnapshotInto(&view);
  return view;
}

void ShardedPricingEngine::SnapshotInto(MergedBookView* view) const {
  // One epoch pin covers every shard (they share the router's manager);
  // the per-shard head loads are plain acquire loads. Pin the fresh
  // epoch FIRST: the move-assign constructs the new Guard before
  // releasing the view's old pin, so heads loaded below are never
  // reclaimable in between.
  view->guard_ = common::EpochManager::Guard(epochs_);
  view->books_.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    view->books_[s] = &shards_[s]->book();
  }
  view->partition_ = &partition_;
}

Quote ShardedPricingEngine::QuoteBundle(
    const std::vector<uint32_t>& bundle) const {
  QuoteBatchScratch scratch;
  TryQuoteBatchInto({&bundle, 1}, &scratch);
  return std::move(scratch.quotes[0]);
}

std::vector<Quote> ShardedPricingEngine::QuoteBatch(
    std::span<const std::vector<uint32_t>> bundles) const {
  QuoteBatchScratch scratch;
  TryQuoteBatchInto(bundles, &scratch);
  return std::move(scratch.quotes);
}

void ShardedPricingEngine::TryQuoteBatchInto(
    std::span<const std::vector<uint32_t>> bundles,
    QuoteBatchScratch* scratch) const {
  // Grow-only result storage: shrinking would destroy Quote elements and
  // forfeit their string/vector capacity when the batch size fluctuates.
  if (scratch->quotes.size() < bundles.size()) {
    scratch->quotes.resize(bundles.size());
  }
  // One pinned view for the whole batch: every quote carries the same
  // merged generation.
  SnapshotInto(&scratch->view);
  uint64_t crossing = 0;
  for (size_t i = 0; i < bundles.size(); ++i) {
    int touched = 0;
    scratch->view.QuoteBundleInto(bundles[i], &scratch->split,
                                  &scratch->quotes[i], &touched);
    if (touched > 1) ++crossing;
  }
  // The quotes are self-contained copies: drop the pin now, so an idle
  // scratch never holds back reclamation or a catalog fold.
  scratch->view.guard_.Release();
  quotes_served_.fetch_add(bundles.size(), std::memory_order_relaxed);
  if (crossing > 0) {
    cross_shard_quotes_.fetch_add(crossing, std::memory_order_relaxed);
  }
}

PurchaseOutcome ShardedPricingEngine::Purchase(const db::BoundQuery& query,
                                               double valuation) {
  PurchaseOutcome outcome;
  outcome.valuation = valuation;
  // Reader side end to end: the global probe reads the const database
  // through overlays (prepared state shared via the router's cache), the
  // quote pins one view, and the sale lands in atomic counters.
  uint64_t pinned_generation = 0;
  outcome.bundle = prober_.ConflictSetFor(query, &pinned_generation);
  // Staleness sample: committed generations the pinned probe could not
  // see (head may have advanced while the probe ran).
  const uint64_t behind = catalog_.head_generation() - pinned_generation;
  staleness_samples_.fetch_add(1, std::memory_order_relaxed);
  staleness_sum_.fetch_add(behind, std::memory_order_relaxed);
  uint64_t prev_max = staleness_max_.load(std::memory_order_relaxed);
  while (behind > prev_max && !staleness_max_.compare_exchange_weak(
                                  prev_max, behind,
                                  std::memory_order_relaxed)) {
  }
  outcome.quote = QuoteBundle(outcome.bundle);
  outcome.accepted = outcome.quote.price <= valuation + core::kSellTolerance;
  purchases_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.accepted) {
    purchases_accepted_.fetch_add(1, std::memory_order_relaxed);
    sale_revenue_.fetch_add(outcome.quote.price, std::memory_order_relaxed);
  }
  return outcome;
}

Status ShardedPricingEngine::ApplySellerDelta(db::Database& db,
                                              const market::CellDelta& delta) {
  return ApplySellerDeltas(db, {&delta, 1}, 1);
}

Status ShardedPricingEngine::ApplySellerDeltas(
    db::Database& db, std::span<const market::CellDelta> deltas,
    uint64_t num_deltas) {
  if (&db != db_) {
    return Status::InvalidArgument(
        "ApplySellerDelta: database is not this engine's database");
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Write-ahead, like appends: the deltas are durable before the commit
  // so a crash between log and commit re-applies them on recovery
  // (idempotent — deltas set absolute cell values).
  if (log_ != nullptr) {
    for (const market::CellDelta& delta : deltas) {
      QP_RETURN_IF_ERROR(log_->LogSellerDelta(delta));
    }
  }
  // Invalidate the cache BEFORE the single catalog commit, keyed to the
  // generation it will publish: a probe pinned on the pre-commit
  // head may keep (or even re-insert) pre-edit prepared state — correct
  // for its generation — while any probe that pins the new head rebuilds.
  // Selective: only prepared entries whose SensitiveColumns contain an
  // edited cell can have baked its old value into their probing state.
  // The head read is unguarded but safe: this mutex serializes every
  // commit and fold, so the head cannot be retired under the writer.
  const uint64_t next_generation = catalog_.head()->number + num_deltas;
  for (const market::CellDelta& delta : deltas) {
    prober_.InvalidateCell(delta, next_generation);
  }
  catalog_.Commit(db, deltas, num_deltas);
  return Status::OK();
}

void ShardedPricingEngine::SetWriterLog(persist::CheckpointManager* log) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  log_ = log;
}

ShardedPricingEngine::ReaderStats ShardedPricingEngine::reader_stats() const {
  // Lock-free: every counter here is an atomic, and the catalog's
  // stats() reads its writer-maintained mirrors without a pin.
  ReaderStats out;
  out.quotes_served = quotes_served_.load(std::memory_order_relaxed);
  out.purchases = purchases_.load(std::memory_order_relaxed);
  out.purchases_accepted = purchases_accepted_.load(std::memory_order_relaxed);
  out.sale_revenue = sale_revenue_.load(std::memory_order_relaxed);
  out.prepared = prober_.prepared_stats();
  static_cast<db::VersionedDatabase::Stats&>(out.catalog) = catalog_.stats();
  out.catalog.staleness_samples =
      staleness_samples_.load(std::memory_order_relaxed);
  out.catalog.staleness_sum = staleness_sum_.load(std::memory_order_relaxed);
  out.catalog.staleness_max = staleness_max_.load(std::memory_order_relaxed);
  return out;
}

ShardedEngineStats ShardedPricingEngine::stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  ShardedEngineStats out;
  out.num_shards = num_shards();
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    EngineStats es = shard->stats();
    out.merged.version += es.version;
    out.merged.num_items += es.num_items;
    out.merged.num_edges += es.num_edges;
    out.merged.total_lps_solved += es.total_lps_solved;
    out.merged.last_reprice.Merge(es.last_reprice);
    out.merged.build_seconds += es.build_seconds;
    out.merged.publish.bases += es.publish.bases;
    out.shards.push_back(std::move(es));
  }
  // Shards share the router's epoch manager and versioned catalog, so
  // the per-shard copies of those stats all describe the same objects:
  // report each once, not summed.
  out.merged.epoch = epochs_.stats();
  // Router-side: the global prober's probe work and cache, plus the
  // reader counters (shards never probe and never serve readers).
  const ReaderStats reader = reader_stats();
  out.merged.catalog = reader.catalog;
  out.merged.build_seconds += prober_.seconds();
  out.merged.conflict = prober_.stats();
  out.merged.prepared = reader.prepared;
  out.merged.quotes_served = reader.quotes_served;
  out.merged.purchases = reader.purchases;
  out.merged.purchases_accepted = reader.purchases_accepted;
  out.merged.sale_revenue = reader.sale_revenue;
  out.cross_shard_appends =
      cross_shard_appends_.load(std::memory_order_relaxed);
  out.cross_shard_quotes = cross_shard_quotes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace qp::serve
