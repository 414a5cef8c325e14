#include "obs/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/json.hpp"

namespace bnf::obs {

namespace {

/// Nearest-rank percentile of an ascending sample vector: the
/// ceil(percent/100 * n)-th smallest sample (0 when empty).
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           std::size_t percent) {
  if (sorted.empty()) return 0;
  const std::size_t rank =
      std::max<std::size_t>(1, (sorted.size() * percent + 99) / 100);
  return sorted[rank - 1];
}

}  // namespace

shard_pass_summary summarize_shard_pass(
    std::string_view span, std::span<const std::uint64_t> wall_us,
    std::span<const std::uint64_t> topologies) {
  shard_pass_summary pass;
  pass.span = span;
  pass.shards = wall_us.size();
  std::vector<std::uint64_t> sorted(wall_us.begin(), wall_us.end());
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    pass.min_us = sorted.front();
    pass.max_us = sorted.back();
  }
  pass.p50_us = nearest_rank(sorted, 50);
  pass.p95_us = nearest_rank(sorted, 95);
  for (const std::uint64_t us : wall_us) pass.total_us += us;
  for (const std::uint64_t count : topologies) pass.topologies += count;

  std::vector<std::uint64_t> ids(wall_us.size());
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  const auto keep = static_cast<std::ptrdiff_t>(pass.straggler_count());
  std::partial_sort(ids.begin(), ids.begin() + keep, ids.end(),
                    [&](std::uint64_t a, std::uint64_t b) {
                      return wall_us[a] != wall_us[b] ? wall_us[a] > wall_us[b]
                                                      : a < b;
                    });
  std::copy_n(ids.begin(), keep, pass.stragglers.begin());
  return pass;
}

std::string shard_skew_json(const std::vector<shard_pass_summary>& passes) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const shard_pass_summary& pass = passes[i];
    out << (i > 0 ? "," : "") << "{\"span\":\"" << json_escape(pass.span)
        << "\",\"shards\":" << pass.shards << ",\"min_us\":" << pass.min_us
        << ",\"p50_us\":" << pass.p50_us << ",\"p95_us\":" << pass.p95_us
        << ",\"max_us\":" << pass.max_us << ",\"total_us\":" << pass.total_us
        << ",\"topologies\":" << pass.topologies << ",\"stragglers\":[";
    for (std::size_t k = 0; k < pass.straggler_count(); ++k) {
      out << (k > 0 ? "," : "") << pass.stragglers[k];
    }
    out << "]}";
  }
  out << "]";
  return out.str();
}

int this_thread_slot() noexcept {
  static std::atomic<int> next_slot{0};
  // relaxed: only uniqueness of the handed-out ids matters, never their
  // order relative to other memory operations.
  thread_local const int slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

metrics_registry& metrics_registry::global() {
  static metrics_registry registry;
  return registry;
}

counter& metrics_registry::counter_ref(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

gauge& metrics_registry::gauge_ref(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

void metrics_registry::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, metric] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << metric.value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, metric] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"value\":" << metric.value()
        << ",\"max\":" << metric.max_value() << "}";
  }
  out << "}}";
}

std::string metrics_registry::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

std::map<std::string, std::uint64_t> metrics_registry::counter_snapshot()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> snapshot;
  for (const auto& [name, metric] : counters_) {
    snapshot.emplace(name, metric.value());
  }
  return snapshot;
}

void metrics_registry::record_shard_pass(shard_pass_summary pass) {
  const std::lock_guard<std::mutex> lock(mutex_);
  shard_passes_.push_back(std::move(pass));
}

std::size_t metrics_registry::shard_pass_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_passes_.size();
}

std::vector<shard_pass_summary> metrics_registry::shard_passes_since(
    std::size_t first) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (first >= shard_passes_.size()) return {};
  return {shard_passes_.begin() + static_cast<std::ptrdiff_t>(first),
          shard_passes_.end()};
}

std::string metrics_registry::counters_delta_json(
    const std::map<std::string, std::uint64_t>& before) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : counters_) {
    const std::uint64_t now = metric.value();
    const auto it = before.find(name);
    const std::uint64_t delta = now - (it == before.end() ? 0 : it->second);
    if (delta == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << delta;
  }
  out << "}";
  return out.str();
}

counter& get_counter(std::string_view name) {
  return metrics_registry::global().counter_ref(name);
}

gauge& get_gauge(std::string_view name) {
  return metrics_registry::global().gauge_ref(name);
}

}  // namespace bnf::obs
