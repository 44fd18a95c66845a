#include "trace/counters.hpp"

namespace tahoe::trace {

Counter& CounterRegistry::get_cell(const std::string& name, bool gauge) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Cell>& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Cell>();
    slot->is_gauge = gauge;  // first registration decides the kind
  }
  return slot->counter;
}

Counter& CounterRegistry::get(const std::string& name) {
  return get_cell(name, /*gauge=*/false);
}

Counter& CounterRegistry::gauge(const std::string& name) {
  return get_cell(name, /*gauge=*/true);
}

Histogram& CounterRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<HistogramCell>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramCell>();
  return slot->histogram;
}

std::vector<std::pair<std::string, std::uint64_t>> CounterRegistry::snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    out.emplace_back(name, cell->counter.value());
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterRegistry::snapshot_counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, cell] : counters_) {
    if (!cell->is_gauge) out.emplace_back(name, cell->counter.value());
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
CounterRegistry::snapshot_gauges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, cell] : counters_) {
    if (cell->is_gauge) out.emplace_back(name, cell->counter.value());
  }
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
CounterRegistry::snapshot_histograms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->histogram.snapshot());
  }
  return out;
}

IntervalSample CounterRegistry::take_interval(double t, double dt) {
  IntervalSample sample;
  sample.t = t;
  sample.dt = dt;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, cell] : counters_) {
    const std::uint64_t value = cell->counter.value();
    if (cell->is_gauge) {
      sample.gauges.emplace_back(name, value);
      continue;
    }
    const std::uint64_t prev = cell->sampled;
    const std::uint64_t delta = value >= prev ? value - prev : value;
    cell->sampled = value;
    if (delta != 0) sample.counter_deltas.emplace_back(name, delta);
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->histogram.snapshot();
    const HistogramSnapshot& prev = h->sampled;
    bool restart = snap.sum < prev.sum;
    for (std::size_t b = 0; !restart && b < HistogramSnapshot::kBuckets;
         ++b) {
      restart = snap.buckets[b] < prev.buckets[b];
    }
    HistogramSnapshot delta = snap;
    if (!restart) {
      for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
        delta.buckets[b] -= prev.buckets[b];
      }
      delta.sum -= prev.sum;
    }
    h->sampled = snap;
    if (delta.count() != 0) sample.hist_deltas.emplace_back(name, delta);
  }
  return sample;
}

void CounterRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cell] : counters_) cell->counter.set(0);
  for (auto& [name, h] : histograms_) h->histogram.reset();
}

std::size_t CounterRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size();
}

CounterRegistry& global_counters() {
  static CounterRegistry registry;
  return registry;
}

}  // namespace tahoe::trace
