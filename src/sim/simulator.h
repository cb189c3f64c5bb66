// Discrete-event simulation engine.
//
// Everything in dLTE — radio frames, queue drains, protocol timers, UE
// movement — is driven from one Simulator instance. Events at equal
// timestamps execute in scheduling order (a monotone sequence number breaks
// ties), which keeps runs bit-for-bit reproducible for a given seed.
//
// The pending set is a calendar queue (sim/event_queue.h): O(1) amortized
// schedule/pop where the old binary heap paid O(log n), with an event
// order guaranteed byte-identical to the heap's — the parity suite in
// tests/sim/event_queue_test.cpp holds that line.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/event_queue.h"

namespace dlte::sim {

class Simulator {
 public:
  using Action = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  // Schedule `action` to run `delay` after the current time. Negative
  // delays are clamped to "immediately after the current event". The
  // `label` overloads carry an attribution id from label() — when a
  // profiler is attached, the event's schedule/clamp/residency/execute
  // counts land under that label instead of "sim.unlabeled".
  void schedule(Duration delay, Action action);
  void schedule(Duration delay, Action action, std::uint32_t label);
  // Schedule at an absolute time. A `when` earlier than now() is clamped
  // to "immediately after the current event" and counted (accessor below,
  // metric `sim.schedule_past_events`) instead of silently reordering —
  // the sharded runtime injects cross-shard events at window boundaries
  // and relies on a past-targeted injection being loud, not lost.
  void schedule_at(TimePoint when, Action action);
  void schedule_at(TimePoint when, Action action, std::uint32_t label);

  // Cancellation token for a periodic process. Move-only RAII: letting it
  // die (or calling cancel()) stops the process at its next tick —
  // components that schedule `this`-capturing periodics MUST hold one so
  // destruction cannot leave a dangling callback in the queue.
  class PeriodicHandle {
   public:
    PeriodicHandle() = default;
    explicit PeriodicHandle(std::shared_ptr<bool> alive)
        : alive_(std::move(alive)) {}
    PeriodicHandle(const PeriodicHandle&) = delete;
    PeriodicHandle& operator=(const PeriodicHandle&) = delete;
    PeriodicHandle(PeriodicHandle&&) = default;
    PeriodicHandle& operator=(PeriodicHandle&& other) noexcept {
      cancel();
      alive_ = std::move(other.alive_);
      return *this;
    }
    ~PeriodicHandle() { cancel(); }
    void cancel() {
      if (alive_) *alive_ = false;
      alive_.reset();
    }

   private:
    std::shared_ptr<bool> alive_;
  };

  // Schedule `action` every `period`, starting one period from now, for
  // the lifetime of the simulation (for actors that outlive it).
  void every(Duration period, Action action);
  void every(Duration period, Action action, std::uint32_t label);
  // As above, but stops when the returned handle is cancelled/destroyed.
  [[nodiscard]] PeriodicHandle every_cancellable(Duration period,
                                                 Action action);
  [[nodiscard]] PeriodicHandle every_cancellable(Duration period, Action action,
                                                 std::uint32_t label);

  // Run until the event queue drains or `deadline` passes (whichever is
  // first). Events scheduled exactly at the deadline still run.
  void run_until(TimePoint deadline);
  // Run until the event queue drains entirely.
  void run_all();

  // Stop after the current event; run_until/run_all return early.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t max_queue_depth() const {
    return max_queue_depth_;
  }
  // Count of schedule_at() targets that were in the past and got clamped.
  [[nodiscard]] std::uint64_t schedule_past_events() const {
    return schedule_past_events_;
  }
  // Calendar-queue recalibration count (also metric `sim.queue_resizes`).
  [[nodiscard]] std::uint64_t queue_resizes() const {
    return queue_.resizes();
  }
  // Timestamp of the earliest pending event, or TimePoint::from_ns(
  // INT64_MAX) when the queue is empty. The sharded runtime peeks this to
  // fast-forward over windows in which every shard is idle.
  [[nodiscard]] TimePoint next_event_time() const;

  // Attach a metrics registry: events dispatched flow into
  // `<prefix>sim.events_executed` at the end of each run, and the high
  // watermark of the event queue into `<prefix>sim.max_queue_depth`.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // Attach an event-attribution profiler (null-safe, the set_metrics
  // idiom). Labels interned before attachment resolve to "sim.unlabeled".
  void set_profiler(obs::EventProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::EventProfiler* profiler() const { return profiler_; }
  // Attach a determinism-audit timeline (DESIGN.md §15): every executed
  // event's (when, seq, label) folds into its windowed digests, right
  // next to the profiler hook. Null-safe; attach BEFORE interning labels
  // so label() can register their name hashes with the auditor too.
  void set_auditor(obs::DigestTimeline* auditor) { auditor_ = auditor; }
  [[nodiscard]] obs::DigestTimeline* auditor() const { return auditor_; }
  // Intern an attribution label for the schedule_* label overloads.
  // Without a profiler every name maps to the unlabeled id, so callsites
  // can intern once at construction regardless of profiling state.
  [[nodiscard]] std::uint32_t label(std::string_view name) {
    if (profiler_ == nullptr) return obs::kUnlabeledEvent;
    const std::uint32_t id = profiler_->intern(name);
    if (auditor_ != nullptr) auditor_->register_label(id, name);
    return id;
  }

 private:
  // One periodic process. Slots live in a deque, so their addresses stay
  // put, and are owned by the simulator: the queued tick captures only
  // {this, slot}, which fits std::function's small buffer — no closure
  // copy per tick, and no closure that owns itself (the old
  // self-capturing shared_ptr was never freed). A cancelled slot is
  // recycled once its last queued tick has fired.
  struct Periodic {
    Duration period;
    std::uint32_t label{obs::kUnlabeledEvent};
    Action action;
    std::shared_ptr<bool> alive;  // Null for every(): runs forever.
  };
  Periodic& add_periodic(Duration period, Action action, std::uint32_t label,
                         std::shared_ptr<bool> alive);
  void schedule_tick(Periodic& slot);
  void run_tick(Periodic& slot);

  void flush_metrics();

  // mutable: peek caches a scan cursor; logically const.
  mutable CalendarQueue queue_;
  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::uint64_t events_executed_{0};
  std::uint64_t schedule_past_events_{0};
  std::size_t max_queue_depth_{0};
  bool stopped_{false};

  obs::EventProfiler* profiler_{nullptr};
  obs::DigestTimeline* auditor_{nullptr};

  obs::Counter* past_counter_{nullptr};
  obs::Counter* events_counter_{nullptr};
  obs::Counter* queue_resizes_counter_{nullptr};
  obs::Gauge* queue_depth_gauge_{nullptr};
  obs::Gauge* queue_pending_gauge_{nullptr};
  obs::Gauge* sim_seconds_gauge_{nullptr};
  std::uint64_t events_flushed_{0};
  std::uint64_t past_flushed_{0};
  std::uint64_t resizes_flushed_{0};

  std::deque<Periodic> periodics_;
  std::vector<Periodic*> free_periodics_;
};

}  // namespace dlte::sim
