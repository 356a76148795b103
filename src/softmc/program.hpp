// SoftMC-style instruction programs. A test is a list of DDR4 commands, each
// scheduled a number of 1.5ns command slots after its predecessor (our FPGA
// interface can issue one command per 1.5ns, section 4.3 footnote 10).
// Builders default to nominal DDR4 timing; characterization tests override
// the slot counts to *violate* timing deliberately -- that flexibility is the
// entire reason the study uses an FPGA platform instead of a CPU.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dram/timing.hpp"
#include "dram/types.hpp"

namespace vppstudy::softmc {

struct Instruction {
  dram::CommandKind kind = dram::CommandKind::kNop;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t column = 0;
  std::array<std::uint8_t, dram::kBytesPerColumn> write_data{};
  /// Command slots (1.5ns each) after the previous instruction issues.
  std::uint32_t slots_after_previous = 1;
  /// kNop only: extra idle time (used for retention waits; slots would
  /// overflow for multi-second waits).
  double extra_wait_ns = 0.0;
  /// Hammer-loop extension (maps to SoftMC's LOOP construct): when
  /// loop_count > 0, this ACT alternates (row, loop_row_b) loop_count times
  /// each with loop_act_to_act_ns spacing.
  std::uint64_t loop_count = 0;
  std::uint32_t loop_row_b = 0;
  double loop_act_to_act_ns = 0.0;
  /// Row-granularity RD/WR burst (Program::rd_burst / wr_burst): when
  /// burst_columns > 0 this instruction stands for burst_columns single-
  /// column commands at columns column, column + 1, ...; the first issues
  /// slots_after_previous slots after its predecessor, each later one
  /// burst_spacing_slots after the column before it. WR payloads live in
  /// Program::burst_data() from byte burst_offset on. burst_column()
  /// expands one column back into the plain instruction it stands for.
  /// Bursts carry no extra_wait_ns.
  std::uint32_t burst_columns = 0;
  std::uint32_t burst_spacing_slots = 0;
  std::size_t burst_offset = 0;

  /// Gap between consecutive burst columns, computed exactly as the
  /// dispatcher advances its clock for one column instruction.
  [[nodiscard]] double burst_spacing_ns() const noexcept {
    return burst_spacing_slots * common::kCommandSlotNs;
  }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Column `i` of a burst instruction as the single-column RD/WR it stands
/// for (write payload taken from `data`, the program's burst_data()).
[[nodiscard]] Instruction burst_column(const Instruction& burst,
                                       std::span<const std::uint8_t> data,
                                       std::uint32_t i);

/// Fluent builder for instruction sequences.
class Program {
 public:
  explicit Program(dram::Ddr4Timing timing);

  [[nodiscard]] const dram::Ddr4Timing& timing() const noexcept {
    return timing_;
  }
  [[nodiscard]] const std::vector<Instruction>& instructions() const noexcept {
    return instructions_;
  }
  /// WR burst payloads, indexed by Instruction::burst_offset.
  [[nodiscard]] std::span<const std::uint8_t> burst_data() const noexcept {
    return burst_data_;
  }
  /// Number of columns the program reads (a burst counts its columns): lets
  /// the executor size its read buffer once.
  [[nodiscard]] std::size_t read_count() const noexcept { return read_count_; }

  /// Convert a latency in ns to command slots, rounding *up* (the FPGA can
  /// only lengthen timing to the next 1.5ns boundary).
  [[nodiscard]] static std::uint32_t slots_for(double ns) noexcept;

  /// Pre-size the instruction list (builders that know their instruction
  /// count up front, e.g. compiled attack patterns).
  Program& reserve(std::size_t n) {
    instructions_.reserve(n);
    return *this;
  }

  /// Append a pre-built instruction verbatim -- the slot count and
  /// extra_wait_ns are taken as-is, with no nominal-timing defaults. This is
  /// the trace-replay path (softmc/trace_replayer): a dump entry's absolute
  /// timestamp is reproduced exactly by computing the wait externally, which
  /// slots_for()'s round-up would distort.
  Program& push_raw(Instruction inst) {
    if (inst.kind == dram::CommandKind::kRead) ++read_count_;
    instructions_.push_back(inst);
    return *this;
  }

  Program& act(std::uint32_t bank, std::uint32_t row, double delay_ns = -1.0);
  Program& pre(std::uint32_t bank, double delay_ns = -1.0);
  /// Single-column RD/WR (Alg. 2's tRCD probes, memctrl, trace replay).
  Program& rd(std::uint32_t bank, std::uint32_t column, double delay_ns = -1.0);
  Program& wr(std::uint32_t bank, std::uint32_t column,
              std::array<std::uint8_t, dram::kBytesPerColumn> data,
              double delay_ns = -1.0);
  /// `n` back-to-back RDs from `first_column`: the first `first_delay_ns`
  /// after its predecessor (negative: the nominal tRCD, as for rd()), the
  /// rest `spacing_ns` apart. One instruction, issued to the device as one
  /// burst; equivalent to the loop of rd() calls with the same delays.
  /// n == 0 appends nothing.
  Program& rd_burst(std::uint32_t bank, std::uint32_t first_column,
                    std::uint32_t n, double first_delay_ns, double spacing_ns);
  /// WR counterpart of rd_burst(): `bytes` holds whole columns
  /// (kBytesPerColumn each; a trailing partial column is ignored), written
  /// from `first_column` on.
  Program& wr_burst(std::uint32_t bank, std::uint32_t first_column,
                    std::span<const std::uint8_t> bytes, double first_delay_ns,
                    double spacing_ns);
  Program& ref(double delay_ns = -1.0);
  Program& wait_ns(double ns);
  /// Double-sided hammer loop: ACT/PRE row_a and row_b alternately,
  /// `count` times each. `act_to_act_ns <= 0` uses the nominal tRC; larger
  /// spacings keep each aggressor open longer (RowPress-style on-time
  /// experiments).
  Program& hammer(std::uint32_t bank, std::uint32_t row_a, std::uint32_t row_b,
                  std::uint64_t count, double act_to_act_ns = -1.0);
  /// Single-row hammer loop: ACT/PRE one row `count` times. Encoded as a
  /// loop instruction with loop_row_b == row (the double-sided encoding
  /// forbids identical rows, so the degenerate case is unambiguous). The
  /// burst primitive of non-uniform pattern specs (harness/pattern_spec).
  Program& hammer_single(std::uint32_t bank, std::uint32_t row,
                         std::uint64_t count, double act_to_act_ns = -1.0);

 private:
  Program& push(Instruction inst, double default_delay_ns, double delay_ns);
  Instruction& push_burst(dram::CommandKind kind, std::uint32_t bank,
                          std::uint32_t first_column, std::uint32_t n,
                          double first_delay_ns, double spacing_ns);

  dram::Ddr4Timing timing_;
  std::vector<Instruction> instructions_;
  std::vector<std::uint8_t> burst_data_;
  std::size_t read_count_ = 0;
};

}  // namespace vppstudy::softmc
