#include "softmc/timing_checker.hpp"

namespace vppstudy::softmc {

TimingChecker::TimingChecker(dram::Ddr4Timing timing)
    : timing_(timing), banks_(dram::kBanksPerRank) {}

void TimingChecker::record(const std::string& rule, std::uint32_t bank,
                           double required, double actual, double at) {
  violations_.push_back({rule, bank, required, actual, at});
}

void TimingChecker::observe(dram::CommandKind kind, std::uint32_t bank,
                            double now_ns) {
  if (bank >= banks_.size()) return;
  BankTimes& bt = banks_[bank];
  switch (kind) {
    case dram::CommandKind::kActivate: {
      const double since_pre = now_ns - bt.last_pre;
      if (since_pre < timing_.t_rp_ns - 1e-9) {
        record("tRP", bank, timing_.t_rp_ns, since_pre, now_ns);
      }
      const double since_act = now_ns - bt.last_act;
      if (since_act < timing_.t_rc_ns - 1e-9) {
        record("tRC", bank, timing_.t_rc_ns, since_act, now_ns);
      }
      const double since_any = now_ns - last_act_any_bank_;
      if (since_any < timing_.t_rrd_s_ns - 1e-9) {
        record("tRRD", bank, timing_.t_rrd_s_ns, since_any, now_ns);
      }
      // tFAW: a fifth ACT within the rolling window of four.
      while (!recent_acts_.empty() &&
             now_ns - recent_acts_.front() > timing_.t_faw_ns) {
        recent_acts_.pop_front();
      }
      if (recent_acts_.size() >= 4) {
        record("tFAW", bank, timing_.t_faw_ns, now_ns - recent_acts_.front(),
               now_ns);
      }
      recent_acts_.push_back(now_ns);
      last_act_any_bank_ = now_ns;
      bt.last_act = now_ns;
      bt.open = true;
      break;
    }
    case dram::CommandKind::kPrecharge:
    case dram::CommandKind::kPrechargeAll: {
      if (bt.open) {
        const double open_for = now_ns - bt.last_act;
        if (open_for < timing_.t_ras_ns - 1e-9) {
          record("tRAS", bank, timing_.t_ras_ns, open_for, now_ns);
        }
      }
      bt.last_pre = now_ns;
      bt.open = false;
      break;
    }
    case dram::CommandKind::kRead:
    case dram::CommandKind::kWrite:
      check_trcd(bank, now_ns);
      break;
    case dram::CommandKind::kRefresh:
    case dram::CommandKind::kNop:
      break;
  }
}

bool TimingChecker::check_trcd(std::uint32_t bank, double now_ns) {
  const BankTimes& bt = banks_[bank];
  const double since_act = now_ns - bt.last_act;
  if (!(bt.open && since_act < timing_.t_rcd_ns - 1e-9)) return false;
  record("tRCD", bank, timing_.t_rcd_ns, since_act, now_ns);
  return true;
}

void TimingChecker::on_burst(const Instruction& burst,
                             std::span<const std::uint8_t> data, double at_ns,
                             double from_ns) {
  (void)data;
  (void)from_ns;
  if (burst.bank >= banks_.size()) return;
  const double spacing_ns = burst.burst_spacing_ns();
  double now = at_ns;
  for (std::uint32_t i = 0; i < burst.burst_columns; ++i) {
    if (i > 0) now += spacing_ns;
    if (!check_trcd(burst.bank, now)) break;
  }
}

void TimingChecker::observe_hammer(std::uint32_t bank, std::uint64_t count,
                                   double act_to_act_ns, double start_ns,
                                   double end_ns) {
  if (act_to_act_ns < timing_.t_rc_ns - 1e-9) {
    record("tRC(loop)", bank, timing_.t_rc_ns, act_to_act_ns, start_ns);
  }
  if (bank < banks_.size()) {
    banks_[bank].last_act = end_ns - act_to_act_ns;
    banks_[bank].last_pre = end_ns;
    banks_[bank].open = false;
  }
  last_act_any_bank_ = end_ns - act_to_act_ns;
  (void)count;
}

}  // namespace vppstudy::softmc
