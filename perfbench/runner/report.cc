#include "runner/report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

int Tracer::Begin(const std::string& name, int parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end = NowNs();
}

int Tracer::Add(const std::string& name, int64_t start, int64_t end,
                int parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string RenderDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void JsonObject::Num(const std::string& key, double value) {
  fields_[key] = RenderDouble(value);
}

void JsonObject::Int(const std::string& key, int64_t value) {
  fields_[key] = std::to_string(value);
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  fields_[key] = JsonQuote(value);
}

void JsonObject::Bool(const std::string& key, bool value) {
  fields_[key] = value ? "true" : "false";
}

void JsonObject::Raw(const std::string& key, std::string rendered) {
  fields_[key] = std::move(rendered);
}

void JsonObject::Nums(const std::string& key,
                      const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += RenderDouble(values[i]);
  }
  fields_[key] = out + "]";
}

void JsonObject::Ints(const std::string& key,
                      const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  fields_[key] = out + "]";
}

std::string JsonObject::Render() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ',';
    first = false;
    out += JsonQuote(key);
    out += ':';
    out += value;
  }
  return out + "}";
}

std::string RenderSpans(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += '[';
    out += JsonQuote(s.name);
    out += ',' + std::to_string(s.start) + ',' + std::to_string(s.end) + ',' +
           std::to_string(s.parent) + ',' + std::to_string(s.request) + ']';
  }
  return out + "]";
}

}  // namespace perfbench
