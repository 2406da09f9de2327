// Span recording and the raw JSON report the runner hands to run.py.
//
// The runner measures; run.py turns the raw report into metrics. Spans
// are kept in memory and written out once, with the report, when the run
// ends. A span is (name, start ns, end ns, parent span id, request id);
// ids are positions in the span list, -1 means no parent.
#ifndef PERFBENCH_RUNNER_REPORT_H_
#define PERFBENCH_RUNNER_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Records spans when enabled; every call is a no-op when disabled, so
/// the untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1, uint64_t request = 0);
  void End(int id);
  /// Records an already-measured interval.
  int Add(const std::string& name, int64_t start, int64_t end, int parent = -1,
          uint64_t request = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, int parent = -1,
         uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~Scoped() { tracer_.End(id_); }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Minimal JSON object builder: values are kept pre-rendered.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, int64_t value);
  void Str(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  void Raw(const std::string& key, std::string rendered);
  void Nums(const std::string& key, const std::vector<double>& values);
  void Ints(const std::string& key, const std::vector<int64_t>& values);
  std::string Render() const;

 private:
  std::map<std::string, std::string> fields_;
};

std::string RenderSpans(const std::vector<Span>& spans);
std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_REPORT_H_
