// Minimal stand-in for the subset of the google-benchmark API that
// bench/micro_algorithms.cc uses, so the target builds and runs even when
// no system google-benchmark is installed (it used to be skipped
// silently). Timing model: each benchmark iterates until ~0.2 s or 1e6
// iterations and reports mean wall time per iteration (no warmup, no
// statistics beyond the mean — install google-benchmark for real
// microbenchmarking; CMake picks it automatically when present).
#ifndef QP_BENCH_MINI_BENCHMARK_H_
#define QP_BENCH_MINI_BENCHMARK_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace benchmark {

class State {
 public:
  explicit State(std::vector<int64_t> ranges)
      : ranges_(std::move(ranges)) {}

  int64_t range(size_t i = 0) const { return ranges_[i]; }

  /// User counters, printed after the timing as name=value.
  std::map<std::string, double> counters;

  // `for (auto _ : state)` support: the iterator drives the timing loop.
  // The dereferenced value has a user-provided destructor so the idiomatic
  // unused `_` does not trip -Werror=unused-variable.
  struct Tick {
    ~Tick() {}
  };
  struct iterator {
    State* state;
    bool operator!=(const iterator&) const { return state->KeepRunning(); }
    void operator++() {}
    Tick operator*() const { return {}; }
  };
  iterator begin() {
    start_ = Clock::now();
    return {this};
  }
  iterator end() { return {this}; }

  int64_t iterations_done() const { return done_; }
  double elapsed_seconds() const { return elapsed_; }

 private:
  using Clock = std::chrono::steady_clock;

  bool KeepRunning() {
    // Clock reads are trivial next to any iteration worth benchmarking,
    // so check the budget every iteration: slow benchmarks (one full
    // LPIP run per iteration) stop right after the budget expires.
    if (done_ > 0) {
      elapsed_ = std::chrono::duration<double>(Clock::now() - start_).count();
      if (elapsed_ >= kMinSeconds || done_ >= kMaxIterations) return false;
    }
    ++done_;
    return true;
  }

  static constexpr double kMinSeconds = 0.2;
  static constexpr int64_t kMaxIterations = 1000000;

  std::vector<int64_t> ranges_;
  int64_t done_ = 0;
  double elapsed_ = 0.0;
  Clock::time_point start_;
};

template <typename T>
inline void DoNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

namespace internal {

struct Registered {
  std::string name;
  void (*fn)(State&);
  std::vector<std::vector<int64_t>> arg_sets;
};

inline std::vector<Registered>& Registry() {
  static std::vector<Registered> registry;
  return registry;
}

class Benchmark {
 public:
  explicit Benchmark(size_t index) : index_(index) {}
  Benchmark* Arg(int64_t value) {
    Registry()[index_].arg_sets.push_back({value});
    return this;
  }
  // Timing is wall time already.
  Benchmark* UseRealTime() { return this; }

 private:
  size_t index_;
};

inline Benchmark* Register(const char* name, void (*fn)(State&)) {
  Registry().push_back({name, fn, {}});
  // Leaked on purpose: registration objects live for the process, exactly
  // like google-benchmark's.
  return new Benchmark(Registry().size() - 1);
}

inline int RunAll() {
  std::printf("%-40s %15s %12s   (mini harness; install google-benchmark "
              "for real stats)\n",
              "benchmark", "time/iter", "iters");
  for (const Registered& b : Registry()) {
    std::vector<std::vector<int64_t>> arg_sets = b.arg_sets;
    if (arg_sets.empty()) arg_sets.push_back({});
    for (const std::vector<int64_t>& args : arg_sets) {
      std::string label = b.name;
      // Two appends, not "/" + ...: GCC 12 reports a false -Wrestrict on
      // the concatenation at -O3 (bug 105329).
      for (int64_t a : args) {
        label += '/';
        label += std::to_string(a);
      }
      State state(args);
      b.fn(state);
      double per_iter =
          state.iterations_done() > 0
              ? state.elapsed_seconds() /
                    static_cast<double>(state.iterations_done())
              : 0.0;
      const char* unit = "s ";
      double value = per_iter;
      if (value < 1e-6) {
        value *= 1e9;
        unit = "ns";
      } else if (value < 1e-3) {
        value *= 1e6;
        unit = "us";
      } else if (value < 1.0) {
        value *= 1e3;
        unit = "ms";
      }
      std::printf("%-40s %13.2f %s %12lld", label.c_str(), value, unit,
                  static_cast<long long>(state.iterations_done()));
      for (const auto& [name, counter] : state.counters) {
        std::printf("   %s=%g", name.c_str(), counter);
      }
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace internal

}  // namespace benchmark

#define BENCHMARK(fn) \
  static ::benchmark::internal::Benchmark* fn##_mini_registration = \
      ::benchmark::internal::Register(#fn, fn)

#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::internal::RunAll(); }

#endif  // QP_BENCH_MINI_BENCHMARK_H_
