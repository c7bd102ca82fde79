#include "src/common/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace millipage {

namespace metrics_internal {

namespace {
bool InitialEnabled() {
  const char* env = std::getenv("MILLIPAGE_METRICS");
  if (env != nullptr && (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0)) {
    return false;
  }
  return true;
}
}  // namespace

std::atomic<bool> g_enabled{InitialEnabled()};

}  // namespace metrics_internal

void SetMetricsEnabled(bool enabled) {
  metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

// ---- Histogram -------------------------------------------------------------

void Histogram::RecordAlways(uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min = (s.count == 0 || mn == ~0ULL) ? 0 : mn;
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~0ULL, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  const uint64_t target = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count - 1)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > target) {
      // Bucket i covers (2^(i-1), 2^i]; report its upper bound, capped at
      // the observed maximum so q=1 never overshoots the data.
      const uint64_t upper = 1ULL << i;
      return upper < max ? upper : max;
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& o) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] += o.buckets[i];
  }
  if (o.count > 0) {
    min = (count == 0 || o.min < min) ? o.min : min;
    max = o.max > max ? o.max : max;
  }
  count += o.count;
  sum += o.sum;
}

// ---- MetricsSnapshot -------------------------------------------------------

void MetricsSnapshot::Merge(const MetricsSnapshot& o) {
  for (const auto& [name, v] : o.counters) {
    counters[name] += v;
  }
  for (const auto& [name, h] : o.histograms) {
    histograms[name].Merge(h);
  }
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  *out += buf;
}

}  // namespace

std::string MetricsSnapshot::DumpJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendU64(&out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"count\":";
    AppendU64(&out, h.count);
    out += ",\"sum\":";
    AppendU64(&out, h.sum);
    out += ",\"min\":";
    AppendU64(&out, h.min);
    out += ",\"max\":";
    AppendU64(&out, h.max);
    out += ",\"mean\":";
    AppendDouble(&out, h.mean());
    out += ",\"p50\":";
    AppendU64(&out, h.Quantile(0.5));
    out += ",\"p95\":";
    AppendU64(&out, h.Quantile(0.95));
    out += ",\"p99\":";
    AppendU64(&out, h.Quantile(0.99));
    out += "}";
  }
  out += "}}";
  return out;
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

CounterValues MetricsRegistry::Counters() const {
  CounterValues c;
  for (size_t i = 0; i < kNumCounters; ++i) {
    c.v[i] = counters_[i].value();
  }
  return c;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot s;
  for (size_t i = 0; i < kNumCounters; ++i) {
    s.counters[kCounterNames[i]] = counters_[i].value();
  }
  for (size_t i = 0; i < kNumHistograms; ++i) {
    s.histograms[kHistogramNames[i]] = histograms_[i].Snapshot();
  }
  return s;
}

void MetricsRegistry::Reset() {
  for (Counter& c : counters_) {
    c.Reset();
  }
  for (Histogram& h : histograms_) {
    h.Reset();
  }
}

}  // namespace millipage
