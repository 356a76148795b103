// Observational DDR4 timing checker. SoftMC deliberately lets tests violate
// timing -- that is the methodology -- so the checker never blocks a command;
// it records which JEDEC rule a command would have broken, letting tests and
// benches distinguish intentional violations (reduced tRCD) from bugs. It is
// the first observer on the CommandDispatcher: it sees every command before
// the device acts on it.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "dram/timing.hpp"
#include "dram/types.hpp"
#include "softmc/observer.hpp"

namespace vppstudy::softmc {

class TimingChecker : public SessionObserver {
 public:
  explicit TimingChecker(dram::Ddr4Timing timing);

  /// Observe a command at `now_ns`; appends violations (if any).
  void observe(dram::CommandKind kind, std::uint32_t bank, double now_ns);
  /// Observe a bulk hammer loop (checked against tRC once).
  void observe_hammer(std::uint32_t bank, std::uint64_t count,
                      double act_to_act_ns, double start_ns, double end_ns);

  // --- SessionObserver -------------------------------------------------------
  /// Loop instructions are skipped here (their timing is checked when the
  /// loop retires, via on_hammer).
  void on_command(const Instruction& inst, double now_ns) override {
    if (inst.loop_count > 0) return;
    observe(inst.kind, inst.bank, now_ns);
  }
  /// A burst's columns only test tRCD against the bank's last ACT and change
  /// no bank state; later columns sit further from the ACT, so only a prefix
  /// can violate -- checking stops at the first column that does not.
  void on_burst(const Instruction& burst, std::span<const std::uint8_t> data,
                double at_ns, double from_ns) override;
  void on_hammer(std::uint32_t bank, std::uint64_t count,
                 double act_to_act_ns, double start_ns,
                 double end_ns) override {
    observe_hammer(bank, count, act_to_act_ns, start_ns, end_ns);
  }

  [[nodiscard]] const std::vector<TimingViolation>& violations() const noexcept {
    return violations_;
  }
  void clear_violations() { violations_.clear(); }

  /// Forget all command history and recorded violations, returning the
  /// checker to its just-constructed state (Session::reset_for_job).
  void reset() {
    banks_.assign(banks_.size(), BankTimes{});
    violations_.clear();
    recent_acts_.clear();
    last_act_any_bank_ = -1e18;
  }

 private:
  struct BankTimes {
    double last_act = -1e18;
    double last_pre = -1e18;
    bool open = false;
  };

  /// RD/WR at `now_ns`: record a tRCD violation if there is one; returns
  /// whether there was.
  bool check_trcd(std::uint32_t bank, double now_ns);
  void record(const std::string& rule, std::uint32_t bank, double required,
              double actual, double at);

  dram::Ddr4Timing timing_;
  std::vector<BankTimes> banks_;
  std::vector<TimingViolation> violations_;
  std::deque<double> recent_acts_;  ///< rank-level, for tFAW
  double last_act_any_bank_ = -1e18;
};

}  // namespace vppstudy::softmc
