// SessionCounters: an always-on observer that tallies the command stream a
// session issues -- ACTs, reads, writes, REFs, hammer activations, timing
// violations, device errors, and simulated nanoseconds. The counts are plain
// integer sums, so per-job counters aggregate deterministically into
// per-sweep instrumentation summaries regardless of scheduling
// (core::CampaignEngine attaches them to sweep results).
#pragma once

#include <cstdint>
#include <string>

#include "softmc/observer.hpp"

namespace vppstudy::softmc {

/// POD tally of a command stream. operator+= makes aggregation across jobs
/// a fold; every field is order-independent.
struct CommandCounts {
  std::uint64_t activates = 0;          ///< explicit ACT commands
  std::uint64_t hammer_loops = 0;       ///< LOOP-style hammer instructions
  std::uint64_t hammer_activations = 0; ///< ACTs issued inside hammer loops
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t precharges = 0;         ///< PRE and PREA
  std::uint64_t refreshes = 0;
  std::uint64_t waits = 0;              ///< NOP / idle-wait instructions
  std::uint64_t timing_violations = 0;
  std::uint64_t device_errors = 0;
  double simulated_ns = 0.0;            ///< total command-clock advance

  /// Every command issued, with hammer loops expanded to their ACTs.
  [[nodiscard]] std::uint64_t total_commands() const noexcept {
    return activates + hammer_activations + reads + writes + precharges +
           refreshes + waits;
  }

  CommandCounts& operator+=(const CommandCounts& other) noexcept;
  friend bool operator==(const CommandCounts&, const CommandCounts&) = default;

  /// One-line rendering for benches and vppctl --counters.
  [[nodiscard]] std::string summary() const;
};

class SessionCounters final : public SessionObserver {
 public:
  [[nodiscard]] const CommandCounts& counts() const noexcept { return counts_; }
  void reset() noexcept { counts_ = CommandCounts{}; }

  // --- SessionObserver -------------------------------------------------------
  void on_clock_advance(double from_ns, double to_ns) override {
    counts_.simulated_ns += to_ns - from_ns;
  }
  void on_command(const Instruction& inst, double now_ns) override;
  /// Counts the burst's columns and adds its clock advances column by
  /// column, in order, so simulated_ns is bit-identical to the per-column
  /// stream.
  void on_burst(const Instruction& burst, std::span<const std::uint8_t> data,
                double at_ns, double from_ns) override;
  void on_hammer(std::uint32_t bank, std::uint64_t count, double act_to_act_ns,
                 double start_ns, double end_ns) override {
    (void)bank;
    (void)act_to_act_ns;
    (void)start_ns;
    (void)end_ns;
    // Two aggressor rows, `count` activations each.
    counts_.hammer_activations += 2 * count;
  }
  void on_hammer_single(std::uint32_t bank, std::uint64_t count,
                        double act_to_act_ns, double start_ns,
                        double end_ns) override {
    (void)bank;
    (void)act_to_act_ns;
    (void)start_ns;
    (void)end_ns;
    // One aggressor row -- on_hammer's 2x would overcount.
    counts_.hammer_activations += count;
  }
  void on_violation(const TimingViolation& violation) override {
    (void)violation;
    ++counts_.timing_violations;
  }
  void on_error(const common::Error& error, double now_ns) override {
    (void)error;
    (void)now_ns;
    ++counts_.device_errors;
  }

 private:
  CommandCounts counts_;
};

}  // namespace vppstudy::softmc
