#include "obs/prof.h"

#include <algorithm>

namespace dlte::obs {

EventProfiler::EventProfiler() {
  names_.emplace_back(kUnlabeledEventName);
  stats_.emplace_back();
  ids_.emplace(kUnlabeledEventName, kUnlabeledEvent);
}

std::uint32_t EventProfiler::intern(std::string_view name) {
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  ids_.emplace(name, id);
  names_.emplace_back(name);
  stats_.emplace_back();
  return id;
}

void EventProfiler::merge_from(const EventProfiler& other) {
  for (std::uint32_t id = 0; id < other.names_.size(); ++id) {
    stats_[intern(other.names_[id])].add(other.stats_[id]);
  }
}

std::vector<std::uint32_t> EventProfiler::sorted_ids() const {
  std::vector<std::uint32_t> ids(names_.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return names_[a] < names_[b];
            });
  return ids;
}

EventProfiler::LabelStats EventProfiler::totals() const {
  LabelStats total;
  for (const LabelStats& s : stats_) total.add(s);
  return total;
}

void EventProfiler::export_metrics(MetricsRegistry& registry,
                                   const std::string& prefix) const {
  for (std::uint32_t id = 0; id < names_.size(); ++id) {
    const LabelStats& s = stats_[id];
    const std::string base = prefix + names_[id];
    registry.counter(base + ".schedules").inc(s.schedules);
    registry.counter(base + ".executed").inc(s.executed);
    registry.counter(base + ".past_clamps").inc(s.past_clamps);
    registry.counter(base + ".residency_ns").inc(s.residency_ns);
  }
}

}  // namespace dlte::obs
