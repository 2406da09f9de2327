#include "serve/pricing_engine.h"

#include <utility>

namespace qp::serve {

namespace {

void DeleteBook(void* book) {
  delete static_cast<const PriceBookSnapshot*>(book);
}

}  // namespace

PricingEngine::PricingEngine(const db::Database* db,
                             market::SupportSet support,
                             EngineOptions options,
                             common::EpochManager* epochs,
                             db::VersionedDatabase* catalog)
    : db_(db),
      options_(std::move(options)),
      owned_epochs_(epochs == nullptr ? std::make_unique<common::EpochManager>()
                                      : nullptr),
      epochs_(epochs != nullptr ? epochs : owned_epochs_.get()),
      owned_catalog_(catalog == nullptr
                         ? std::make_unique<db::VersionedDatabase>(
                               db, epochs_, options_.fold_every)
                         : nullptr),
      catalog_(catalog != nullptr ? catalog : owned_catalog_.get()),
      builder_(db, std::move(support), options_.build, catalog_) {
  // Never let the algorithm layer see stale caller-side precompute: the
  // reprice state owns classes and valuation order for this instance.
  options_.algorithms.lpip.classes = nullptr;
  options_.algorithms.cip.classes = nullptr;
  options_.algorithms.sorted_order = nullptr;
  options_.algorithms.lpip.sorted_order = nullptr;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  RepriceAndPublish(/*first_new_edge=*/0);
}

PricingEngine::~PricingEngine() {
  delete head_.load(std::memory_order_relaxed);
}

Status PricingEngine::AppendBuyers(const std::vector<db::BoundQuery>& queries,
                                   const core::Valuations& valuations) {
  if (queries.size() != valuations.size()) {
    return Status::InvalidArgument(
        "AppendBuyers: one valuation per query required");
  }
  if (queries.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  int first_new_edge = builder_.Append(queries);
  valuations_.insert(valuations_.end(), valuations.begin(), valuations.end());
  RepriceAndPublish(first_new_edge);
  return Status::OK();
}

Status PricingEngine::AppendBuyersPrecomputed(
    std::vector<std::vector<uint32_t>> conflict_sets,
    const core::Valuations& valuations) {
  if (conflict_sets.size() != valuations.size()) {
    return Status::InvalidArgument(
        "AppendBuyersPrecomputed: one valuation per conflict set required");
  }
  const uint32_t num_items = builder_.hypergraph().num_items();
  for (const std::vector<uint32_t>& edge : conflict_sets) {
    for (uint32_t item : edge) {
      if (item >= num_items) {
        return Status::InvalidArgument(
            "AppendBuyersPrecomputed: item index outside this engine's "
            "support");
      }
    }
  }
  if (conflict_sets.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(writer_mutex_);
  int first_new_edge = builder_.AppendEdges(std::move(conflict_sets));
  valuations_.insert(valuations_.end(), valuations.begin(), valuations.end());
  RepriceAndPublish(first_new_edge);
  return Status::OK();
}

Status PricingEngine::ApplySellerDelta(db::Database& db,
                                       const market::CellDelta& delta) {
  if (&db != db_) {
    return Status::InvalidArgument(
        "ApplySellerDelta: database is not this engine's database");
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Invalidate BEFORE the publish, keyed to the generation the commit is
  // about to create: the cache's floor fence (market/prepared_cache.h)
  // needs that order to shut out in-flight inserts of pre-edit state.
  // Selective: only prepared entries whose SensitiveColumns contain the
  // edited cell can have baked its old value into their probing state.
  // The head read needs no guard — commits and folds are serialized on
  // writer_mutex_.
  const uint64_t next_generation = catalog_->head()->number + 1;
  builder_.InvalidatePreparedQueriesFor(delta, next_generation);
  catalog_->Commit(db, delta.table, delta.row, delta.column, delta.new_value);
  return Status::OK();
}

persist::ShardState PricingEngine::CaptureState() const {
  persist::ShardState state;
  const core::Hypergraph& hypergraph = builder_.hypergraph();
  state.version = version_;
  state.total_lps_solved = total_lps_solved_;
  state.num_items = hypergraph.num_items();
  state.edges.reserve(static_cast<size_t>(hypergraph.num_edges()));
  for (int e = 0; e < hypergraph.num_edges(); ++e) {
    state.edges.push_back(hypergraph.edge(e));
  }
  state.valuations = valuations_;
  state.reprice = reprice_;
  // Writer-side, so the head cannot be retired under us: only the writer
  // publishes.
  const PriceBookSnapshot& head = *head_.load(std::memory_order_relaxed);
  state.results.reserve(head.results().size());
  for (const core::PricingResult& r : head.results()) {
    state.results.push_back(r.Clone());
  }
  state.book_stats = head.reprice_stats();
  return state;
}

Status PricingEngine::RestoreState(persist::ShardState state) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (builder_.hypergraph().num_edges() != 0 || version_ != 1) {
    return Status::FailedPrecondition(
        "RestoreState: engine already has appended state");
  }
  const uint32_t num_items = builder_.hypergraph().num_items();
  if (state.num_items != num_items) {
    return Status::InvalidArgument(
        "RestoreState: state has " + std::to_string(state.num_items) +
        " items, engine support has " + std::to_string(num_items));
  }
  if (state.valuations.size() != state.edges.size()) {
    return Status::InvalidArgument(
        "RestoreState: one valuation per edge required");
  }
  for (const std::vector<uint32_t>& edge : state.edges) {
    for (uint32_t item : edge) {
      if (item >= num_items) {
        return Status::InvalidArgument(
            "RestoreState: edge item outside this engine's support");
      }
    }
  }
  const int num_edges = static_cast<int>(state.edges.size());
  builder_.AppendEdges(std::move(state.edges));
  valuations_ = std::move(state.valuations);
  reprice_ = std::move(state.reprice);
  version_ = state.version;
  total_lps_solved_ = state.total_lps_solved;
  // The restored book replaces the constructor's empty generation, which
  // retires through the epoch manager.
  Publish(std::make_unique<const PriceBookSnapshot>(
      version_, std::move(state.results), state.book_stats, num_items,
      num_edges));
  return Status::OK();
}

void PricingEngine::RepriceAndPublish(int first_new_edge) {
  const core::Hypergraph& hypergraph = builder_.hypergraph();
  std::vector<core::PricingResult> results;
  if (options_.incremental_reprice && reprice_.seeded()) {
    results = core::RepriceAfterAppend(hypergraph, valuations_, first_new_edge,
                                       options_.algorithms, reprice_);
  } else {
    results = core::SolveAllWithState(hypergraph, valuations_,
                                      options_.algorithms, reprice_);
  }
  total_lps_solved_ += reprice_.last.lps_solved;
  ++version_;
  Publish(std::make_unique<const PriceBookSnapshot>(
      version_, std::move(results), reprice_.last, hypergraph.num_items(),
      hypergraph.num_edges()));
}

void PricingEngine::Publish(std::unique_ptr<const PriceBookSnapshot> next) {
  const PriceBookSnapshot* old =
      head_.exchange(next.release(), std::memory_order_acq_rel);
  ++publishes_;
  if (old != nullptr) {
    // The replaced snapshot is unreachable from head_ but may still be
    // read by readers pinned at the current epoch: retire it, advance the
    // epoch, and free whatever no pinned reader can reach.
    epochs_->Retire(const_cast<PriceBookSnapshot*>(old), &DeleteBook);
    epochs_->BumpEpoch();
    epochs_->Reclaim();
  }
}

std::shared_ptr<const PriceBookSnapshot> PricingEngine::snapshot() const {
  common::EpochManager::Guard guard(*epochs_);
  const PriceBookSnapshot& head = book();
  return std::make_shared<const PriceBookSnapshot>(
      head.version(), head.results(), head.reprice_stats(), head.num_items(),
      head.num_edges());
}

Quote PricingEngine::QuoteBundle(const std::vector<uint32_t>& bundle) const {
  // The quote hot path: one epoch pin (an uncontended slot store — no
  // shared_ptr refcount traffic), one head load.
  common::EpochManager::Guard guard(*epochs_);
  quotes_served_.fetch_add(1, std::memory_order_relaxed);
  return book().QuoteBundle(bundle);
}

std::vector<Quote> PricingEngine::QuoteBatch(
    std::span<const std::vector<uint32_t>> bundles) const {
  // One epoch pin + one stats update for the whole batch: every quote
  // prices against the same generation no matter what the writer does.
  common::EpochManager::Guard guard(*epochs_);
  const PriceBookSnapshot& head = book();
  quotes_served_.fetch_add(bundles.size(), std::memory_order_relaxed);
  std::vector<Quote> quotes;
  quotes.reserve(bundles.size());
  for (const std::vector<uint32_t>& bundle : bundles) {
    quotes.push_back(head.QuoteBundle(bundle));
  }
  return quotes;
}

PurchaseOutcome PricingEngine::Purchase(const db::BoundQuery& query,
                                        double valuation) {
  PurchaseOutcome outcome;
  outcome.valuation = valuation;
  // Reader side, end to end: the probe pins a catalog generation and
  // reads base+overlay through per-delta overlays, the quote pins an
  // epoch over the published book, and the sale lands in atomic
  // counters — no writer mutex (and no shared_ptr refcounts) anywhere.
  uint64_t pinned_generation = 0;
  outcome.bundle = builder_.ConflictSetFor(query, &pinned_generation);
  // Staleness sample: committed generations the pinned probe could not
  // see (head may have advanced while the probe ran).
  const uint64_t behind = catalog_->head_generation() - pinned_generation;
  staleness_samples_.fetch_add(1, std::memory_order_relaxed);
  staleness_sum_.fetch_add(behind, std::memory_order_relaxed);
  uint64_t prev_max = staleness_max_.load(std::memory_order_relaxed);
  while (behind > prev_max && !staleness_max_.compare_exchange_weak(
                                  prev_max, behind, std::memory_order_relaxed)) {
  }
  {
    common::EpochManager::Guard guard(*epochs_);
    outcome.quote = book().QuoteBundle(outcome.bundle);
  }
  quotes_served_.fetch_add(1, std::memory_order_relaxed);
  outcome.accepted = outcome.quote.price <= valuation + core::kSellTolerance;
  purchases_.fetch_add(1, std::memory_order_relaxed);
  if (outcome.accepted) {
    purchases_accepted_.fetch_add(1, std::memory_order_relaxed);
    sale_revenue_.fetch_add(outcome.quote.price, std::memory_order_relaxed);
  }
  return outcome;
}

EngineStats PricingEngine::stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  EngineStats out;
  out.version = version_;
  out.num_items = builder_.hypergraph().num_items();
  out.num_edges = builder_.hypergraph().num_edges();
  out.quotes_served = quotes_served_.load(std::memory_order_relaxed);
  out.purchases = purchases_.load(std::memory_order_relaxed);
  out.purchases_accepted = purchases_accepted_.load(std::memory_order_relaxed);
  out.sale_revenue = sale_revenue_.load(std::memory_order_relaxed);
  out.total_lps_solved = total_lps_solved_;
  out.last_reprice = reprice_.last;
  out.build_seconds = builder_.seconds();
  out.conflict = builder_.stats();
  out.incidence = builder_.hypergraph().incidence_maintenance();
  out.prepared = builder_.prepared_stats();
  out.publish.bases = publishes_;
  out.epoch = epochs_->stats();
  const db::VersionedDatabase::Stats catalog = catalog_->stats();
  out.catalog.generations_published = catalog.generations_published;
  out.catalog.folds = catalog.folds;
  out.catalog.fold_retries = catalog.fold_retries;
  out.catalog.deltas_pending = catalog.deltas_pending;
  out.catalog.deltas_folded = catalog.deltas_folded;
  out.catalog.fold_nanos = catalog.fold_nanos;
  out.catalog.staleness_samples =
      staleness_samples_.load(std::memory_order_relaxed);
  out.catalog.staleness_sum = staleness_sum_.load(std::memory_order_relaxed);
  out.catalog.staleness_max = staleness_max_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace qp::serve
