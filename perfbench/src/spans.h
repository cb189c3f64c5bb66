// In-memory span log for the benchmark's traced runs.
//
// Every call the benchmark makes into the simulator (construct, build,
// run, merge, export, and each replayed layer call) can sit inside a
// span: name, start, end, parent span and the id of the run it belongs
// to. Spans stay in memory and are written once, as JSON, when the run
// ends; self time (duration minus the time covered by child spans) is
// derived from the written log by perfbench/stats.py. A disabled log
// records nothing, so the untraced runs execute the same code with only
// the enabled check added.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  // 0 = root.
  std::uint64_t run{0};
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  // Calls the span covers: batched replays time many calls in one span.
  std::uint64_t calls{1};
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Starts a new run id; spans opened afterwards carry it.
  std::uint64_t begin_run() { return ++run_; }

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t calls = 1)
        : log_(log.enabled_ ? &log : nullptr) {
      if (log_ != nullptr) index_ = log_->open(name, calls);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }

   private:
    SpanLog* log_;
    std::size_t index_{0};
  };

  [[nodiscard]] std::string to_json() const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::size_t open(const char* name, std::uint64_t calls) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.run = run_;
    s.name = name;
    s.calls = calls;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::uint64_t run_{0};
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

inline std::string SpanLog::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"run\":" + std::to_string(s.run) + ",\"name\":\"" + s.name +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"calls\":" + std::to_string(s.calls) + "}";
  }
  return out + "]";
}

}  // namespace perfbench
