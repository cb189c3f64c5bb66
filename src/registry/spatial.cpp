#include "registry/spatial.h"

#include <algorithm>
#include <cmath>

namespace dlte::registry {
namespace {

std::int32_t axis_zone(double v, double zone_size_m) {
  return static_cast<std::int32_t>(std::floor(v / zone_size_m));
}

}  // namespace

std::int64_t zone_key_of(std::int32_t zx, std::int32_t zy) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(zx)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(zy)));
}

std::int64_t zone_key(Position location, double zone_size_m) {
  return zone_key_of(axis_zone(location.x_m, zone_size_m),
                     axis_zone(location.y_m, zone_size_m));
}

SpatialIndex::SpatialIndex(double zone_size_m) : zone_size_m_(zone_size_m) {}

void SpatialIndex::insert(const SiteEntry& entry) {
  Zone& zone = zones_[zone_key(entry.location, zone_size_m_)];
  Bucket* bucket = nullptr;
  for (auto& b : zone.buckets) {
    if (b.center_hz == entry.center_hz) {
      bucket = &b;
      break;
    }
  }
  if (bucket == nullptr) {
    zone.buckets.push_back(Bucket{entry.center_hz, 0.0, 0.0, {}});
    bucket = &zone.buckets.back();
  }
  bucket->entries.push_back(entry);
  bucket->max_half_bw_hz = std::max(bucket->max_half_bw_hz, entry.half_bw_hz);
  bucket->max_range_m = std::max(bucket->max_range_m, entry.range_m);
  zone.max_range_m = std::max(zone.max_range_m, entry.range_m);
  max_range_m_ = std::max(max_range_m_, entry.range_m);
  ++size_;
  ++generation_;
}

bool SpatialIndex::erase(std::uint64_t id, Position location) {
  const auto zit = zones_.find(zone_key(location, zone_size_m_));
  if (zit == zones_.end()) return false;
  Zone& zone = zit->second;
  for (std::size_t bi = 0; bi < zone.buckets.size(); ++bi) {
    Bucket& bucket = zone.buckets[bi];
    for (std::size_t ei = 0; ei < bucket.entries.size(); ++ei) {
      if (bucket.entries[ei].id != id) continue;
      // Order inside a bucket carries no meaning (callers sort by id),
      // so swap-pop keeps erase O(1). Bucket/zone max bounds stay
      // conservative — like max_range_m_ they never shrink.
      bucket.entries[ei] = bucket.entries.back();
      bucket.entries.pop_back();
      if (bucket.entries.empty()) {
        zone.buckets[bi] = zone.buckets.back();
        zone.buckets.pop_back();
        if (zone.buckets.empty()) zones_.erase(zit);
      }
      --size_;
      ++generation_;
      return true;
    }
  }
  return false;
}

SpatialIndex::Box SpatialIndex::zone_square(std::int64_t zone) const {
  const auto zx = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) >> 32);
  const auto zy = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) & 0xffffffffULL);
  const double x0 = zx * zone_size_m_;
  const double y0 = zy * zone_size_m_;
  return Box{x0, y0, x0 + zone_size_m_, y0 + zone_size_m_};
}

}  // namespace dlte::registry
