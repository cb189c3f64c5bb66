// Aggregate UE cohorts: a 100-UE cell as one scheduling entity.
//
// The metro scenario (src/par/metro.h) serves ~1M UEs; simulating each
// UE's attach and bulk flow individually is O(UEs) events before a single
// byte moves. A UeCohort represents all UEs of one AP as a handful of
// batch events: UEs attach in stratified batches across the attach
// window, and each batch's traffic is one aggregate transport::FlowTrain
// sized for the whole batch (total bytes, bottleneck, and initial window
// all scale with the batch size, so the aggregate finishes when the
// per-UE flows would). Per-UE detail that matters for metrics — attach
// latency samples, attach counts, delivered bytes — is still recorded per
// UE; only the event count stops scaling with the cohort size.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/flow_train.h"

namespace dlte::workload {

struct CohortConfig {
  int ues{100};
  // Batches the attach wave is split into (each batch = one event).
  int attach_batches{10};
  // UEs attach at stratified-uniform times inside [0, attach_window).
  Duration attach_window{Duration::seconds(1.0)};
  // Per-UE attach latency sample: base + uniform(0, jitter) ms.
  double attach_ms_base{40.0};
  double attach_ms_jitter{25.0};
  // Bulk volume each UE pulls once attached; 0 disables flows.
  std::uint64_t flow_bytes_per_ue{0};
  // Template for the per-batch aggregate flow. total_bytes and
  // bottleneck are overridden per batch (scaled by the batch size);
  // mss/rtt/initial_cwnd are taken as per-UE values.
  transport::FlowTrainConfig flow;
};

class UeCohort {
 public:
  // Observability sinks; any pointer may be null. Shared across cohorts
  // of a district so the aggregate is partition-invariant.
  struct Hooks {
    obs::Counter* attached{nullptr};
    obs::Counter* bytes_delivered{nullptr};
    obs::Counter* flows_completed{nullptr};
    obs::Histogram* attach_ms{nullptr};
  };

  UeCohort(sim::Simulator& sim, CohortConfig config, sim::RngStream rng,
           Hooks hooks);
  UeCohort(sim::Simulator& sim, CohortConfig config, sim::RngStream rng)
      : UeCohort(sim, config, rng, Hooks{}) {}

  // Schedule the attach batches. Call once, before or during the run.
  void start();

  [[nodiscard]] int ues_attached() const { return ues_attached_; }
  [[nodiscard]] std::uint64_t bytes_delivered() const {
    return bytes_delivered_;
  }
  [[nodiscard]] int flows_completed() const { return flows_completed_; }
  [[nodiscard]] bool all_complete() const {
    return ues_attached_ == config_.ues &&
           (config_.flow_bytes_per_ue == 0 ||
            flows_completed_ == batches_started_);
  }

 private:
  void attach_batch(int batch, int batch_ues);

  sim::Simulator& sim_;
  std::uint32_t attach_label_{0};
  CohortConfig config_;
  sim::RngStream rng_;
  Hooks hooks_;
  // Aggregate flows must outlive the run; one per batch. Stored in place:
  // the first attach reserves one slot per batch, so no train ever moves
  // (their queued events capture `this`) and the constructor and start()
  // allocate nothing for them.
  std::vector<transport::FlowTrain> flows_;
  int ues_attached_{0};
  int batches_started_{0};
  int flows_completed_{0};
  std::uint64_t bytes_delivered_{0};
};

}  // namespace dlte::workload
