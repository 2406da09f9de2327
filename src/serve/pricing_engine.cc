#include "serve/pricing_engine.h"

#include <utility>

#include "common/stopwatch.h"

namespace qp::serve {

namespace {

void DeleteBook(void* book) {
  delete static_cast<const PriceBookSnapshot*>(book);
}

std::vector<core::PricingResult> CloneResults(
    const std::vector<core::PricingResult>& results) {
  std::vector<core::PricingResult> out;
  out.reserve(results.size());
  for (const core::PricingResult& r : results) out.push_back(r.Clone());
  return out;
}

}  // namespace

PricingEngine::PricingEngine(uint32_t num_items, EngineOptions options,
                             common::EpochManager& epochs)
    : options_(std::move(options)), epochs_(epochs), hypergraph_(num_items) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  RepriceAndPublish(/*first_new_edge=*/0);
}

PricingEngine::~PricingEngine() {
  delete head_.load(std::memory_order_relaxed);
}

Status PricingEngine::AppendBuyersPrecomputed(
    std::vector<std::vector<uint32_t>> conflict_sets,
    const core::Valuations& valuations) {
  if (conflict_sets.size() != valuations.size()) {
    return Status::InvalidArgument(
        "AppendBuyersPrecomputed: one valuation per conflict set required");
  }
  const uint32_t num_items = hypergraph_.num_items();
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
  int first_new_edge = AppendEdges(std::move(conflict_sets));
  valuations_.insert(valuations_.end(), valuations.begin(), valuations.end());
  RepriceAndPublish(first_new_edge);
  return Status::OK();
}

persist::ShardState PricingEngine::CaptureState() const {
  persist::ShardState state;
  state.version = version_;
  state.total_lps_solved = total_lps_solved_;
  state.num_items = hypergraph_.num_items();
  state.edges.reserve(static_cast<size_t>(hypergraph_.num_edges()));
  for (int e = 0; e < hypergraph_.num_edges(); ++e) {
    state.edges.push_back(hypergraph_.edge(e));
  }
  state.valuations = valuations_;
  state.reprice = reprice_;
  // Writer-side, so the head cannot be retired under us: only the writer
  // publishes.
  const PriceBookSnapshot& head = *head_.load(std::memory_order_relaxed);
  state.results = CloneResults(head.results());
  return state;
}

Status PricingEngine::RestoreState(persist::ShardState state) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (hypergraph_.num_edges() != 0 || version_ != 1) {
    return Status::FailedPrecondition(
        "RestoreState: engine already has appended state");
  }
  const uint32_t num_items = hypergraph_.num_items();
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
  AppendEdges(std::move(state.edges));
  valuations_ = std::move(state.valuations);
  reprice_ = std::move(state.reprice);
  version_ = state.version;
  total_lps_solved_ = state.total_lps_solved;
  // The restored book replaces the constructor's empty generation, which
  // retires through the epoch manager.
  Publish(std::make_unique<const PriceBookSnapshot>(
      version_, std::move(state.results), num_items, num_edges));
  return Status::OK();
}

int PricingEngine::AppendEdges(std::vector<std::vector<uint32_t>> edges) {
  Stopwatch timer;
  const int first = hypergraph_.num_edges();
  for (std::vector<uint32_t>& edge : edges) {
    hypergraph_.AddEdge(std::move(edge));
  }
  build_seconds_ += timer.ElapsedSeconds();
  return first;
}

void PricingEngine::RepriceAndPublish(int first_new_edge) {
  // Solves cold (seeding reprice_) on the first append.
  std::vector<core::PricingResult> results = core::RepriceAfterAppend(
      hypergraph_, valuations_, first_new_edge, options_.algorithms, reprice_);
  total_lps_solved_ += reprice_.last.lps_solved;
  ++version_;
  Publish(std::make_unique<const PriceBookSnapshot>(
      version_, std::move(results), hypergraph_.num_items(),
      hypergraph_.num_edges()));
}

void PricingEngine::Publish(std::unique_ptr<const PriceBookSnapshot> next) {
  const PriceBookSnapshot* old =
      head_.exchange(next.release(), std::memory_order_acq_rel);
  ++publishes_;
  if (old != nullptr) {
    // The replaced snapshot is unreachable from head_ but may still be
    // read by readers pinned at the current epoch: retire it, advance the
    // epoch, and free whatever no pinned reader can reach.
    epochs_.Retire(const_cast<PriceBookSnapshot*>(old), &DeleteBook);
    epochs_.BumpEpoch();
    epochs_.Reclaim();
  }
}

std::shared_ptr<const PriceBookSnapshot> PricingEngine::snapshot() const {
  common::EpochManager::Guard guard(epochs_);
  const PriceBookSnapshot& head = book();
  return std::make_shared<const PriceBookSnapshot>(
      head.version(), CloneResults(head.results()), head.num_items(),
      head.num_edges());
}

EngineStats PricingEngine::stats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  EngineStats out;
  out.version = version_;
  out.num_items = hypergraph_.num_items();
  out.num_edges = hypergraph_.num_edges();
  out.total_lps_solved = total_lps_solved_;
  out.last_reprice = reprice_.last;
  out.build_seconds = build_seconds_;
  out.publish.bases = publishes_;
  out.epoch = epochs_.stats();
  return out;
}

}  // namespace qp::serve
