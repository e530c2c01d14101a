#include "util/metrics.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace imdpp::util {

void HistogramData::Observe(double value) {
  if (buckets.size() != bounds.size() + 1) {
    buckets.assign(bounds.size() + 1, 0);
  }
  // First bound >= value; past-the-end = overflow bucket.
  size_t slot = std::lower_bound(bounds.begin(), bounds.end(), value) -
                bounds.begin();
  ++buckets[slot];
  ++count;
  sum += value;
}

void HistogramData::MergeFrom(const HistogramData& other) {
  if (other.count == 0 && other.bounds.empty()) return;
  if (bounds.empty() && count == 0) {
    *this = other;
    return;
  }
  if (buckets.size() != bounds.size() + 1) {
    buckets.assign(bounds.size() + 1, 0);
  }
  if (other.bounds == bounds && other.buckets.size() == buckets.size()) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  } else if (!other.buckets.empty()) {
    // Layout mismatch (never the case for the fixed catalog): keep the
    // totals honest, fold the shape into the overflow bucket.
    buckets.back() += other.count;
  }
  count += other.count;
  sum += other.sum;
}

const std::vector<double>& DefaultValueBounds() {
  static const std::vector<double>* kBounds = [] {
    auto* b = new std::vector<double>;
    for (double edge = 1.0; edge <= 1048576.0; edge *= 2.0) {
      b->push_back(edge);
    }
    return b;
  }();
  return *kBounds;
}

const std::vector<double>& DefaultLatencyBounds() {
  static const std::vector<double> kBounds = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,   5.0,  10.0,
      25.0, 50.0,  100., 250., 500., 1000., 2500., 5000., 10000.};
  return kBounds;
}

bool IsTimingMetric(std::string_view name) {
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  return ends_with("millis") || ends_with("micros") || ends_with("seconds");
}

MetricsSnapshot::Value& MetricsSnapshot::Entry(std::string_view name,
                                              MetricKind kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Value{}).first;
    it->second.kind = kind;
  }
  IMDPP_CHECK(it->second.kind == kind);
  return it->second;
}

void MetricsSnapshot::AddCounter(std::string_view name, int64_t delta) {
  Entry(name, MetricKind::kCounter).counter += delta;
}

void MetricsSnapshot::SetCounter(std::string_view name, int64_t value) {
  Entry(name, MetricKind::kCounter).counter = value;
}

void MetricsSnapshot::SetGauge(std::string_view name, double value) {
  Entry(name, MetricKind::kGauge).number = value;
}

void MetricsSnapshot::AddSum(std::string_view name, double delta) {
  Entry(name, MetricKind::kSum).number += delta;
}

void MetricsSnapshot::Observe(std::string_view name, double value,
                              const std::vector<double>& bounds) {
  Value& v = Entry(name, MetricKind::kHistogram);
  if (v.histogram.bounds.empty()) v.histogram.bounds = bounds;
  v.histogram.Observe(value);
}

void MetricsSnapshot::MergeHistogram(std::string_view name,
                                     const HistogramData& data) {
  Entry(name, MetricKind::kHistogram).histogram.MergeFrom(data);
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.entries_) {
    switch (value.kind) {
      case MetricKind::kCounter:
        AddCounter(name, value.counter);
        break;
      case MetricKind::kGauge:
        SetGauge(name, value.number);
        break;
      case MetricKind::kSum:
        AddSum(name, value.number);
        break;
      case MetricKind::kHistogram:
        MergeHistogram(name, value.histogram);
        break;
    }
  }
}

int64_t MetricsSnapshot::Counter(std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.counter;
}

double MetricsSnapshot::Number(std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0.0 : it->second.number;
}

const HistogramData* MetricsSnapshot::Histogram(std::string_view name) const {
  auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != MetricKind::kHistogram) {
    return nullptr;
  }
  return &it->second.histogram;
}

Json MetricsJson(const MetricsSnapshot& snapshot, bool include_timings) {
  Json out = Json::Object();
  for (const auto& [name, value] : snapshot.entries()) {
    if (!include_timings && IsTimingMetric(name)) continue;
    switch (value.kind) {
      case MetricKind::kCounter:
        out.Set(name, static_cast<double>(value.counter));
        break;
      case MetricKind::kGauge:
      case MetricKind::kSum:
        out.Set(name, value.number);
        break;
      case MetricKind::kHistogram: {
        Json h = Json::Object();
        h.Set("count", static_cast<double>(value.histogram.count));
        h.Set("sum", value.histogram.sum);
        Json bounds = Json::Array();
        for (double edge : value.histogram.bounds) bounds.Append(edge);
        h.Set("bounds", std::move(bounds));
        Json buckets = Json::Array();
        for (int64_t n : value.histogram.buckets) {
          buckets.Append(static_cast<double>(n));
        }
        h.Set("buckets", std::move(buckets));
        out.Set(name, std::move(h));
        break;
      }
    }
  }
  return out;
}

std::atomic<bool> MetricRegistry::armed_{false};

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* kRegistry = new MetricRegistry;
  return *kRegistry;
}

MetricRegistry::Counter& MetricRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Entry{}).first;
    it->second.kind = MetricKind::kCounter;
    it->second.counter = std::make_unique<Counter>();
  }
  IMDPP_CHECK(it->second.kind == MetricKind::kCounter);
  return *it->second.counter;
}

MetricRegistry::Gauge& MetricRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Entry{}).first;
    it->second.kind = MetricKind::kGauge;
    it->second.gauge = std::make_unique<Gauge>();
  }
  IMDPP_CHECK(it->second.kind == MetricKind::kGauge);
  return *it->second.gauge;
}

MetricRegistry::Histogram& MetricRegistry::GetHistogram(
    std::string_view name, const std::vector<double>& bounds) {
  MutexLock lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(name), Entry{}).first;
    it->second.kind = MetricKind::kHistogram;
    it->second.histogram = std::make_unique<Histogram>();
    it->second.histogram->Init(bounds);
  }
  IMDPP_CHECK(it->second.kind == MetricKind::kHistogram);
  return *it->second.histogram;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot out;
  MutexLock lock(mu_);
  for (const auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        if (const int64_t value = entry.counter->value(); value != 0) {
          out.AddCounter(name, value);
        }
        break;
      case MetricKind::kGauge:
        if (const double value = entry.gauge->value(); value != 0.0) {
          out.SetGauge(name, value);
        }
        break;
      case MetricKind::kSum:
        break;  // registry entries are never kSum
      case MetricKind::kHistogram: {
        const HistogramData data = entry.histogram->Snapshot();
        if (!data.empty()) out.MergeHistogram(name, data);
        break;
      }
    }
  }
  return out;
}

void MetricRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->value_.store(0, std::memory_order_relaxed);
        break;
      case MetricKind::kGauge:
        entry.gauge->value_.store(0.0, std::memory_order_relaxed);
        break;
      case MetricKind::kSum:
        break;
      case MetricKind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

}  // namespace imdpp::util
