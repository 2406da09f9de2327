// Succinct pricing functions (paper Section 3.4) and revenue computation.
//
// All three families are monotone and subadditive set functions, hence
// arbitrage-free by Theorem 1; tests/market/arbitrage_test.cc verifies the
// property on every pricing the algorithms emit.
#ifndef QP_CORE_PRICING_H_
#define QP_CORE_PRICING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/hypergraph.h"

namespace qp::core {

/// Tolerance for the "sells" test: edge e sells iff p(e) <= v_e +
/// kSellTolerance. This is the single place the contract lives.
///
/// LP-derived prices (LPIP, CIP, the UBP refinement) satisfy p(e) <= v_e
/// only up to the simplex feasibility tolerance (lp::kFeasibilityTol,
/// 1e-7), scaled by the usual accumulation of rounding over basis solves
/// — not to 1e-9. kSellTolerance is therefore held an order of magnitude
/// above the solver's feasibility tolerance so every edge an LP
/// *constrained to sell* actually counts as sold;
/// tests/core/pricing_test.cc pins both the ordering against the solver
/// constant and the end-to-end behavior on LP-derived prices.
inline constexpr double kSellTolerance = 1e-6;

class PricingFunction {
 public:
  virtual ~PricingFunction() = default;

  /// Price of a bundle of items (sorted or not; duplicates ignored by
  /// construction of bundles).
  virtual double Price(const std::vector<uint32_t>& bundle) const = 0;

  /// Short human-readable description ("uniform bundle P=3.5", ...).
  virtual std::string Describe() const = 0;

  /// Deep copy.
  virtual std::unique_ptr<PricingFunction> Clone() const = 0;
};

/// pb(e) = P for every bundle (the data-market default scheme).
class UniformBundlePricing : public PricingFunction {
 public:
  explicit UniformBundlePricing(double price) : price_(price) {}

  double Price(const std::vector<uint32_t>& bundle) const override;
  std::string Describe() const override;
  std::unique_ptr<PricingFunction> Clone() const override {
    return std::make_unique<UniformBundlePricing>(price_);
  }

  double bundle_price() const { return price_; }

 private:
  double price_;
};

/// pa(e) = sum of item weights (additive / item pricing).
class ItemPricing : public PricingFunction {
 public:
  explicit ItemPricing(std::vector<double> weights)
      : weights_(std::move(weights)) {}

  double Price(const std::vector<uint32_t>& bundle) const override;
  std::string Describe() const override;
  std::unique_ptr<PricingFunction> Clone() const override {
    return std::make_unique<ItemPricing>(weights_);
  }

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
};

/// px(e) = max over component additive pricings (fractionally subadditive).
class XosPricing : public PricingFunction {
 public:
  explicit XosPricing(std::vector<std::vector<double>> components)
      : components_(std::move(components)) {}

  double Price(const std::vector<uint32_t>& bundle) const override;
  std::string Describe() const override;
  std::unique_ptr<PricingFunction> Clone() const override {
    return std::make_unique<XosPricing>(components_);
  }

  const std::vector<std::vector<double>>& components() const {
    return components_;
  }

 private:
  std::vector<std::vector<double>> components_;
};

/// R(p) = sum of p(e_i) over buyers with v_i >= p(e_i) (paper Section 3.3).
double Revenue(const PricingFunction& pricing, const Hypergraph& hypergraph,
               const Valuations& valuations);

/// Same, for an explicit per-edge price vector.
double RevenueFromPrices(const std::vector<double>& edge_prices,
                         const Valuations& valuations);

/// Prices of all edges under `pricing`.
std::vector<double> EdgePrices(const PricingFunction& pricing,
                               const Hypergraph& hypergraph);

}  // namespace qp::core

#endif  // QP_CORE_PRICING_H_
