#include "softmc/dispatcher.hpp"

#include <algorithm>

#include "common/units.hpp"

namespace vppstudy::softmc {

using common::Error;
using common::ErrorCode;
using common::Status;

CommandDispatcher::CommandDispatcher(
    dram::Module& module, const std::vector<TimingViolation>& violation_log)
    : module_(module), violation_log_(violation_log) {}

void CommandDispatcher::add_observer(SessionObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) !=
      observers_.end()) {
    return;
  }
  observers_.push_back(observer);
}

void CommandDispatcher::remove_observer(SessionObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

void CommandDispatcher::advance(double& clock_ns, double ns) {
  const double from = clock_ns;
  clock_ns += ns;
  for (SessionObserver* obs : observers_) obs->on_clock_advance(from, clock_ns);
}

void CommandDispatcher::notify_command(const Instruction& inst,
                                       double now_ns) {
  for (SessionObserver* obs : observers_) obs->on_command(inst, now_ns);
}

void CommandDispatcher::notify_new_violations(std::size_t watermark) {
  for (std::size_t i = watermark; i < violation_log_.size(); ++i) {
    for (SessionObserver* obs : observers_) {
      obs->on_violation(violation_log_[i]);
    }
  }
}

bool CommandDispatcher::issue_one(const Instruction& inst,
                                  ExecutionResult& result, double& clock_ns) {
  // The timing checker is the first observer: it sees the command at its
  // issue timestamp before the device acts on it (hammer loops are
  // checked when the loop retires, via on_hammer below).
  std::size_t watermark = violation_log_.size();
  notify_command(inst, clock_ns);
  notify_new_violations(watermark);

  Status st;
  switch (inst.kind) {
    case dram::CommandKind::kActivate:
      if (inst.loop_count > 0) {
        const double start = clock_ns;
        double now = clock_ns;
        // loop_row_b == row is the single-row burst encoding
        // (Program::hammer_single); hammer_pair rejects identical rows.
        const bool single = inst.loop_row_b == inst.row;
        st = single ? module_.hammer_single(inst.bank, inst.row,
                                            inst.loop_count,
                                            inst.loop_act_to_act_ns, now)
                    : module_.hammer_pair(inst.bank, inst.row, inst.loop_row_b,
                                          inst.loop_count,
                                          inst.loop_act_to_act_ns, now);
        watermark = violation_log_.size();
        for (SessionObserver* obs : observers_) {
          if (single) {
            obs->on_hammer_single(inst.bank, inst.loop_count,
                                  inst.loop_act_to_act_ns, start, now);
          } else {
            obs->on_hammer(inst.bank, inst.loop_count,
                           inst.loop_act_to_act_ns, start, now);
          }
        }
        notify_new_violations(watermark);
        const double from = clock_ns;
        clock_ns = now;
        for (SessionObserver* obs : observers_) {
          obs->on_clock_advance(from, clock_ns);
        }
      } else {
        st = module_.activate(inst.bank, inst.row, clock_ns);
      }
      break;
    case dram::CommandKind::kPrecharge:
      st = module_.precharge(inst.bank, clock_ns);
      break;
    case dram::CommandKind::kPrechargeAll:
      st = module_.precharge_all(clock_ns);
      break;
    case dram::CommandKind::kRead: {
      auto data = module_.read(inst.bank, inst.column, clock_ns);
      if (!data) {
        st = std::move(data).error();
      } else {
        if (interceptor_ != nullptr) {
          interceptor_->corrupt_read(inst.bank, inst.column, *data, clock_ns);
        }
        result.reads.push_back(*data);
      }
      break;
    }
    case dram::CommandKind::kWrite:
      st = module_.write(inst.bank, inst.column, inst.write_data, clock_ns);
      break;
    case dram::CommandKind::kRefresh:
      st = module_.refresh(clock_ns);
      break;
    case dram::CommandKind::kNop:
      break;
  }
  if (!st.ok()) {
    result.status = std::move(st)
                        .error()
                        .with_op(dram::command_name(inst.kind))
                        .with_bank(static_cast<std::int32_t>(inst.bank));
    for (SessionObserver* obs : observers_) {
      obs->on_error(result.status.error(), clock_ns);
    }
    return false;
  }
  return true;
}

bool CommandDispatcher::step(const Instruction& original,
                             ExecutionResult& result, double& clock_ns) {
  // With no interceptor this reduces to advance + issue_one on the original
  // instruction -- no copy, identical behavior to the pre-interceptor
  // dispatch loop.
  Instruction mutated;
  const Instruction* inst = &original;
  CommandInterceptor::Decision decision;
  if (interceptor_ != nullptr) {
    mutated = original;
    decision = interceptor_->intercept(mutated, clock_ns);
    inst = &mutated;
  }

  advance(clock_ns, inst->slots_after_previous * common::kCommandSlotNs);
  if (inst->extra_wait_ns > 0.0) advance(clock_ns, inst->extra_wait_ns);

  if (decision.action == CommandInterceptor::Action::kDrop) {
    // The command left the host but never reached the device: time still
    // passes, but no observer sees it (the trace ring must mirror the
    // device's view so a captured dump replays the failure faithfully).
    return true;
  }
  if (decision.action == CommandInterceptor::Action::kFail) {
    result.status = std::move(decision.error)
                        .with_op(dram::command_name(inst->kind))
                        .with_bank(static_cast<std::int32_t>(inst->bank));
    for (SessionObserver* obs : observers_) {
      obs->on_error(result.status.error(), clock_ns);
    }
    return false;
  }

  if (!issue_one(*inst, result, clock_ns)) return false;
  if (decision.action == CommandInterceptor::Action::kDuplicate) {
    advance(clock_ns, common::kCommandSlotNs);
    if (!issue_one(*inst, result, clock_ns)) return false;
  }
  return true;
}

bool CommandDispatcher::replay_burst(const Instruction& burst,
                                     std::span<const std::uint8_t> data,
                                     ExecutionResult& result,
                                     double& clock_ns) {
  for (std::uint32_t i = 0; i < burst.burst_columns; ++i) {
    if (!step(burst_column(burst, data, i), result, clock_ns)) return false;
  }
  return true;
}

bool CommandDispatcher::issue_burst(const Instruction& burst,
                                    std::span<const std::uint8_t> data,
                                    ExecutionResult& result,
                                    double& clock_ns) {
  // Issue times use the per-column clock arithmetic: column 0 one
  // slots_after_previous advance past the clock, each later column one
  // spacing advance past the one before.
  const double from = clock_ns;
  const double at = from + burst.slots_after_previous * common::kCommandSlotNs;
  const double spacing_ns = burst.burst_spacing_ns();
  const std::uint32_t n = burst.burst_columns;
  common::Status st;
  if (burst.kind == dram::CommandKind::kRead) {
    const std::size_t base = result.reads.size();
    result.reads.resize(base + n);
    st = module_.read_burst(
        burst.bank, burst.column, at, spacing_ns,
        std::span(result.reads).subspan(base));
    if (!st.ok()) result.reads.resize(base);
  } else {
    st = module_.write_burst(
        burst.bank, burst.column,
        data.subspan(burst.burst_offset, std::size_t{n} * dram::kBytesPerColumn),
        at);
  }
  // A rejected burst left the device untouched; replaying it column by
  // column reproduces the per-column error, its context, and whatever
  // columns landed before it.
  if (!st.ok()) return replay_burst(burst, data, result, clock_ns);

  const std::size_t watermark = violation_log_.size();
  for (SessionObserver* obs : observers_) obs->on_burst(burst, data, at, from);
  notify_new_violations(watermark);
  double now = at;
  for (std::uint32_t i = 1; i < n; ++i) now += spacing_ns;
  clock_ns = now;
  return true;
}

ExecutionResult CommandDispatcher::execute(const Program& program,
                                           double& clock_ns) {
  ExecutionResult result;
  result.reads.reserve(program.read_count());
  const std::size_t violations_before = violation_log_.size();
  const std::span<const std::uint8_t> data = program.burst_data();
  for (const Instruction& inst : program.instructions()) {
    // An interceptor decides per host command, so it forces a burst through
    // the per-column path (its command index keeps counting columns).
    const bool ok =
        inst.burst_columns == 0 ? step(inst, result, clock_ns)
        : interceptor_ != nullptr
            ? replay_burst(inst, data, result, clock_ns)
            : issue_burst(inst, data, result, clock_ns);
    if (!ok) break;
  }
  result.timing_violations = violation_log_.size() - violations_before;
  return result;
}

}  // namespace vppstudy::softmc
