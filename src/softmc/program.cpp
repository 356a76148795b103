#include "softmc/program.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace vppstudy::softmc {

Program::Program(dram::Ddr4Timing timing) : timing_(timing) {}

std::uint32_t Program::slots_for(double ns) noexcept {
  if (ns <= 0.0) return 1;
  return static_cast<std::uint32_t>(
      std::ceil(ns / common::kCommandSlotNs - 1e-9));
}

Program& Program::push(Instruction inst, double default_delay_ns,
                       double delay_ns) {
  const double d = delay_ns < 0.0 ? default_delay_ns : delay_ns;
  inst.slots_after_previous = slots_for(d);
  instructions_.push_back(inst);
  return *this;
}

Program& Program::act(std::uint32_t bank, std::uint32_t row, double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row;
  // Default: a full tRP has elapsed since whatever came before.
  return push(i, timing_.t_rp_ns, delay_ns);
}

Program& Program::pre(std::uint32_t bank, double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kPrecharge;
  i.bank = bank;
  return push(i, timing_.t_ras_ns, delay_ns);
}

Program& Program::rd(std::uint32_t bank, std::uint32_t column,
                     double delay_ns) {
  Instruction& i = instructions_.emplace_back();
  i.kind = dram::CommandKind::kRead;
  i.bank = bank;
  i.column = column;
  i.slots_after_previous =
      slots_for(delay_ns < 0.0 ? timing_.t_rcd_ns : delay_ns);
  ++read_count_;
  return *this;
}

Program& Program::wr(std::uint32_t bank, std::uint32_t column,
                     std::array<std::uint8_t, dram::kBytesPerColumn> data,
                     double delay_ns) {
  Instruction& i = instructions_.emplace_back();
  i.kind = dram::CommandKind::kWrite;
  i.bank = bank;
  i.column = column;
  i.write_data = data;
  i.slots_after_previous =
      slots_for(delay_ns < 0.0 ? timing_.t_rcd_ns : delay_ns);
  return *this;
}

Instruction& Program::push_burst(dram::CommandKind kind, std::uint32_t bank,
                                 std::uint32_t first_column, std::uint32_t n,
                                 double first_delay_ns, double spacing_ns) {
  Instruction& i = instructions_.emplace_back();
  i.kind = kind;
  i.bank = bank;
  i.column = first_column;
  i.slots_after_previous =
      slots_for(first_delay_ns < 0.0 ? timing_.t_rcd_ns : first_delay_ns);
  i.burst_columns = n;
  i.burst_spacing_slots = slots_for(spacing_ns);
  return i;
}

Program& Program::rd_burst(std::uint32_t bank, std::uint32_t first_column,
                           std::uint32_t n, double first_delay_ns,
                           double spacing_ns) {
  if (n == 0) return *this;
  push_burst(dram::CommandKind::kRead, bank, first_column, n, first_delay_ns,
             spacing_ns);
  read_count_ += n;
  return *this;
}

Program& Program::wr_burst(std::uint32_t bank, std::uint32_t first_column,
                           std::span<const std::uint8_t> bytes,
                           double first_delay_ns, double spacing_ns) {
  const auto n =
      static_cast<std::uint32_t>(bytes.size() / dram::kBytesPerColumn);
  if (n == 0) return *this;
  push_burst(dram::CommandKind::kWrite, bank, first_column, n, first_delay_ns,
             spacing_ns)
      .burst_offset = burst_data_.size();
  burst_data_.insert(burst_data_.end(), bytes.begin(),
                     bytes.begin() + n * dram::kBytesPerColumn);
  return *this;
}

Instruction burst_column(const Instruction& burst,
                         std::span<const std::uint8_t> data, std::uint32_t i) {
  Instruction c;
  c.kind = burst.kind;
  c.bank = burst.bank;
  c.column = burst.column + i;
  c.slots_after_previous =
      i == 0 ? burst.slots_after_previous : burst.burst_spacing_slots;
  if (burst.kind == dram::CommandKind::kWrite) {
    std::copy_n(data.begin() + burst.burst_offset + i * dram::kBytesPerColumn,
                dram::kBytesPerColumn, c.write_data.begin());
  }
  return c;
}

Program& Program::ref(double delay_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kRefresh;
  return push(i, timing_.t_rp_ns, delay_ns);
}

Program& Program::wait_ns(double ns) {
  Instruction i;
  i.kind = dram::CommandKind::kNop;
  i.slots_after_previous = 1;
  i.extra_wait_ns = ns;
  instructions_.push_back(i);
  return *this;
}

Program& Program::hammer(std::uint32_t bank, std::uint32_t row_a,
                         std::uint32_t row_b, std::uint64_t count,
                         double act_to_act_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row_a;
  i.loop_row_b = row_b;
  i.loop_count = count;
  i.loop_act_to_act_ns =
      act_to_act_ns > 0.0 ? act_to_act_ns : timing_.t_rc_ns;
  return push(i, timing_.t_rp_ns, -1.0);
}

Program& Program::hammer_single(std::uint32_t bank, std::uint32_t row,
                                std::uint64_t count, double act_to_act_ns) {
  Instruction i;
  i.kind = dram::CommandKind::kActivate;
  i.bank = bank;
  i.row = row;
  i.loop_row_b = row;
  i.loop_count = count;
  i.loop_act_to_act_ns =
      act_to_act_ns > 0.0 ? act_to_act_ns : timing_.t_rc_ns;
  return push(i, timing_.t_rp_ns, -1.0);
}

}  // namespace vppstudy::softmc
