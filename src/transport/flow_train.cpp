#include "transport/flow_train.h"

#include <algorithm>

namespace dlte::transport {

FlowTrain::FlowTrain(sim::Simulator& sim, FlowTrainConfig config,
                     DeliveredCallback on_delivered,
                     CompleteCallback on_complete)
    : sim_(sim),
      config_(config),
      on_delivered_(std::move(on_delivered)),
      on_complete_(std::move(on_complete)),
      remaining_bytes_(config.total_bytes) {
  ev_label_ = sim_.label("transport.flow_train");
  if (config_.mss_bytes < 1) config_.mss_bytes = 1;
  if (config_.rtt.ns() < 1) config_.rtt = Duration::nanos(1);
  const double bytes_per_rtt =
      config_.bottleneck.bps() / 8.0 * config_.rtt.to_seconds();
  cap_packets_ = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(bytes_per_rtt /
                                   static_cast<double>(config_.mss_bytes)));
  cwnd_packets_ = std::clamp<std::int64_t>(config_.initial_cwnd_packets, 1,
                                           cap_packets_);
}

void FlowTrain::deliver(std::uint64_t bytes) {
  stats_.bytes_delivered += bytes;
  if (on_delivered_) on_delivered_(bytes);
}

void FlowTrain::start() {
  if (remaining_bytes_ == 0) {
    complete();
    return;
  }
  run_epoch();
}

void FlowTrain::complete() {
  stats_.completed = true;
  stats_.completed_at = sim_.now();
  if (on_complete_) on_complete_(stats_.completed_at);
}

void FlowTrain::run_epoch() {
  const std::uint64_t mss = static_cast<std::uint64_t>(config_.mss_bytes);
  const std::uint64_t window_bytes = std::min(
      static_cast<std::uint64_t>(cwnd_packets_) * mss, remaining_bytes_);
  const bool final_epoch = window_bytes == remaining_bytes_;
  const std::int64_t rtt_ns = config_.rtt.ns();

  if (!config_.per_packet && cwnd_packets_ == cap_packets_ && !final_epoch) {
    // Saturated: the rate never changes again, so the rest of the flow is
    // one event at the analytically known completion time — this is where
    // O(packets) becomes O(rate changes).
    const std::uint64_t per_epoch =
        static_cast<std::uint64_t>(cap_packets_) * mss;
    const std::uint64_t epochs =
        (remaining_bytes_ + per_epoch - 1) / per_epoch;
    const std::int64_t rest_ns = static_cast<std::int64_t>(epochs) * rtt_ns;
    epoch_bytes_ = remaining_bytes_;
    remaining_bytes_ = 0;
    ++stats_.events_scheduled;
    sim_.schedule(Duration::nanos(rest_ns), [this] { land_rest(); }, ev_label_);
    return;
  }

  remaining_bytes_ -= window_bytes;
  epoch_bytes_ = window_bytes;
  final_epoch_ = final_epoch;

  if (!config_.per_packet) {
    // One train: the whole window lands at the end of the epoch.
    ++stats_.events_scheduled;
    sim_.schedule(Duration::nanos(rtt_ns), [this] { land_train(); }, ev_label_);
    return;
  }

  // Per-packet reference: identical epochs, one MSS at a time, the last
  // packet of the epoch landing exactly at the epoch boundary. The epoch
  // members stay put until that last packet ends it.
  const std::uint64_t packets = (window_bytes + mss - 1) / mss;
  for (std::uint64_t j = 0; j < packets; ++j) {
    const std::int64_t at_ns =
        static_cast<std::int64_t>((j + 1)) * rtt_ns /
        static_cast<std::int64_t>(packets);
    ++stats_.events_scheduled;
    sim_.schedule(Duration::nanos(at_ns), [this, j] { land_packet(j); },
                  ev_label_);
  }
}

void FlowTrain::land_rest() {
  deliver(epoch_bytes_);
  complete();
}

void FlowTrain::land_train() {
  deliver(epoch_bytes_);
  end_epoch();
}

void FlowTrain::land_packet(std::uint64_t j) {
  const std::uint64_t mss = static_cast<std::uint64_t>(config_.mss_bytes);
  deliver(std::min(mss, epoch_bytes_ - j * mss));
  if ((j + 1) * mss >= epoch_bytes_) end_epoch();
}

void FlowTrain::end_epoch() {
  if (final_epoch_) {
    complete();
    return;
  }
  if (cwnd_packets_ < cap_packets_) {
    cwnd_packets_ = std::min(cwnd_packets_ * 2, cap_packets_);
    ++stats_.rate_changes;
  }
  run_epoch();
}

}  // namespace dlte::transport
