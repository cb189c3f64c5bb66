// Host-speed calibration for the benchmark's timings.
//
// The benchmark's host is a VM that shares its cores with other tenants:
// a fixed loop's time drifts by 30-50% over minutes, and every scenario
// run drifts with it, which no number of samples inside one run can
// remove. So each timed sample is bracketed by runs of this kernel, a
// fixed amount of benchmark-owned work (a dependent walk over a 16 MiB
// random cycle, then a sort of fixed keys), and the benchmark reports
//   raw seconds x kReferenceSeconds / (kernel seconds around the sample),
// the sample's duration on a host where the kernel takes
// kReferenceSeconds. The kernel is not the program: a change to src/
// cannot move it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  // Kernel time on the 4-vCPU host the benchmark was tuned on, in its
  // fast state; the scale of every reported end-to-end time.
  static constexpr double kReferenceSeconds = 0.012;

  Calibrator() : next_(kCycle), keys_(kKeys) {
    // Sattolo's shuffle: one cycle through every slot, fixed seed.
    for (std::uint32_t i = 0; i < kCycle; ++i) next_[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = kCycle - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[i], next_[(x >> 33) % i]);
    }
    for (auto& k : keys_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      k = x;
    }
  }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  // Wall seconds of one kernel run.
  double measure() {
    const auto start = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i) at = next_[at];
    std::vector<std::uint64_t> keys = keys_;
    std::sort(keys.begin(), keys.end());
    sink_ = sink_ + at + keys[kKeys / 2];
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  static constexpr std::uint32_t kCycle = 1u << 22;  // 16 MiB of indices.
  static constexpr std::uint32_t kSteps = 1u << 16;
  static constexpr std::size_t kKeys = 1u << 15;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> keys_;
  volatile std::uint64_t sink_{0};
};

}  // namespace perfbench
