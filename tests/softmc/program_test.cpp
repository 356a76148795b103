#include "softmc/program.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

namespace vppstudy::softmc {
namespace {

dram::Ddr4Timing timing() { return dram::timing_for_speed_grade(2400); }

TEST(Program, SlotsRoundUpToCommandGranularity) {
  EXPECT_EQ(Program::slots_for(1.5), 1u);
  EXPECT_EQ(Program::slots_for(1.6), 2u);
  EXPECT_EQ(Program::slots_for(13.5), 9u);
  EXPECT_EQ(Program::slots_for(0.0), 1u);
  EXPECT_EQ(Program::slots_for(-3.0), 1u);
}

TEST(Program, BuilderProducesExpectedSequence) {
  Program p(timing());
  p.act(0, 42).rd(0, 3).pre(0);
  const auto& ins = p.instructions();
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0].kind, dram::CommandKind::kActivate);
  EXPECT_EQ(ins[0].row, 42u);
  EXPECT_EQ(ins[1].kind, dram::CommandKind::kRead);
  EXPECT_EQ(ins[1].column, 3u);
  // Default RD delay is the nominal tRCD (13.5ns -> 9 slots).
  EXPECT_EQ(ins[1].slots_after_previous, 9u);
  EXPECT_EQ(ins[2].kind, dram::CommandKind::kPrecharge);
}

TEST(Program, ExplicitDelaysOverrideDefaults) {
  Program p(timing());
  p.act(0, 1).rd(0, 0, /*delay_ns=*/6.0);
  EXPECT_EQ(p.instructions()[1].slots_after_previous, 4u);  // ceil(6/1.5)
}

TEST(Program, HammerCarriesLoopFields) {
  Program p(timing());
  p.hammer(2, 10, 12, 30000);
  const auto& i = p.instructions().front();
  EXPECT_EQ(i.loop_count, 30000u);
  EXPECT_EQ(i.row, 10u);
  EXPECT_EQ(i.loop_row_b, 12u);
  EXPECT_DOUBLE_EQ(i.loop_act_to_act_ns, timing().t_rc_ns);
}

TEST(Program, WaitCarriesExtraTime) {
  Program p(timing());
  p.wait_ns(64e6);
  EXPECT_DOUBLE_EQ(p.instructions().front().extra_wait_ns, 64e6);
  EXPECT_EQ(p.instructions().front().kind, dram::CommandKind::kNop);
}

TEST(Program, BurstSlotsMatchTheColumnLoop) {
  Program p(timing());
  const std::vector<std::uint8_t> bytes(4 * dram::kBytesPerColumn, 0xAB);
  p.rd_burst(0, 0, 16, 20.0, 3.3).wr_burst(0, 8, bytes, 13.5, 5.0);
  const auto& ins = p.instructions();
  ASSERT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins[0].kind, dram::CommandKind::kRead);
  EXPECT_EQ(ins[0].burst_columns, 16u);
  EXPECT_EQ(ins[0].slots_after_previous, Program::slots_for(20.0));
  EXPECT_EQ(ins[0].burst_spacing_slots, Program::slots_for(3.3));
  EXPECT_EQ(ins[1].kind, dram::CommandKind::kWrite);
  EXPECT_EQ(ins[1].column, 8u);
  EXPECT_EQ(ins[1].burst_columns, 4u);
  EXPECT_EQ(ins[1].slots_after_previous, Program::slots_for(13.5));
  EXPECT_EQ(ins[1].burst_spacing_slots, Program::slots_for(5.0));
  // A negative first delay is the nominal tRCD, as for rd().
  Program q(timing());
  q.rd_burst(0, 0, 2, -1.0, 3.3);
  EXPECT_EQ(q.instructions()[0].slots_after_previous,
            Program::slots_for(timing().t_rcd_ns));
}

TEST(Program, ReadCountCountsBurstColumns) {
  Program p(timing());
  p.rd(0, 0);
  EXPECT_EQ(p.read_count(), 1u);
  p.rd_burst(0, 0, dram::kColumnsPerRow, 13.5, 3.3);
  EXPECT_EQ(p.read_count(), 1u + dram::kColumnsPerRow);
  p.rd_burst(0, 0, 0, 13.5, 3.3);  // empty: appends nothing
  EXPECT_EQ(p.read_count(), 1u + dram::kColumnsPerRow);
  EXPECT_EQ(p.instructions().size(), 2u);
}

TEST(Program, WriteBurstsTakeConsecutiveDataOffsets) {
  Program p(timing());
  const std::vector<std::uint8_t> a(3 * dram::kBytesPerColumn, 0x11);
  const std::vector<std::uint8_t> b(5 * dram::kBytesPerColumn, 0x22);
  p.wr_burst(0, 0, a, 13.5, 3.3).act(1, 2).wr_burst(1, 100, b, 13.5, 3.3);
  const auto& ins = p.instructions();
  ASSERT_EQ(ins.size(), 3u);
  EXPECT_EQ(ins[0].burst_offset, 0u);
  EXPECT_EQ(ins[2].burst_offset, a.size());
  ASSERT_EQ(p.burst_data().size(), a.size() + b.size());
  EXPECT_EQ(p.burst_data()[a.size() - 1], 0x11);
  EXPECT_EQ(p.burst_data()[a.size()], 0x22);
}

TEST(Program, BurstColumnRoundTripsToTheSingleColumnInstruction) {
  std::vector<std::uint8_t> bytes(6 * dram::kBytesPerColumn);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Program burst(timing());
  burst.act(2, 9).wr_burst(2, 10, bytes, 13.5, 3.3).rd_burst(2, 10, 6, 20.0,
                                                              4.0);
  Program loop(timing());
  loop.act(2, 9);
  for (std::uint32_t c = 0; c < 6; ++c) {
    std::array<std::uint8_t, dram::kBytesPerColumn> word{};
    std::copy_n(bytes.begin() + c * dram::kBytesPerColumn,
                dram::kBytesPerColumn, word.begin());
    loop.wr(2, 10 + c, word, c == 0 ? 13.5 : 3.3);
  }
  for (std::uint32_t c = 0; c < 6; ++c) {
    loop.rd(2, 10 + c, c == 0 ? 20.0 : 4.0);
  }
  std::vector<Instruction> expanded;
  for (const Instruction& inst : burst.instructions()) {
    if (inst.burst_columns == 0) {
      expanded.push_back(inst);
      continue;
    }
    for (std::uint32_t i = 0; i < inst.burst_columns; ++i) {
      expanded.push_back(burst_column(inst, burst.burst_data(), i));
    }
  }
  EXPECT_EQ(expanded, loop.instructions());
  EXPECT_EQ(burst.read_count(), loop.read_count());
}

}  // namespace
}  // namespace vppstudy::softmc
