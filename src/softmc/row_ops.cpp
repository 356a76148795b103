#include "softmc/row_ops.hpp"

#include <algorithm>

namespace vppstudy::softmc {

using common::Error;
using common::ErrorCode;

common::Expected<Program> RowOps::init_row(
    std::uint32_t bank, std::uint32_t row,
    const std::vector<std::uint8_t>& image) const {
  if (image.size() != dram::kBytesPerRow) {
    return Error{ErrorCode::kBadRowImage,
                 "row image must be exactly one row (" +
                     std::to_string(dram::kBytesPerRow) + " bytes), got " +
                     std::to_string(image.size())}
        .with_bank_row(static_cast<std::int32_t>(bank), row);
  }
  Program p(timing_);
  p.act(bank, row);
  // Burst writes back-to-back at 4-clock column spacing.
  const double spacing = column_spacing_ns();
  p.wr_burst(bank, 0, image, timing_.t_rcd_ns, spacing);
  p.pre(bank, timing_.t_wr_ns + spacing);
  return p;
}

Program RowOps::read_row(std::uint32_t bank, std::uint32_t row,
                         double trcd_ns) const {
  Program p(timing_);
  p.act(bank, row);
  const double first_delay = trcd_ns > 0.0 ? trcd_ns : timing_.t_rcd_ns;
  p.rd_burst(bank, 0, dram::kColumnsPerRow, first_delay, column_spacing_ns());
  p.pre(bank, timing_.t_rtp_ns);
  return p;
}

Program RowOps::read_column(std::uint32_t bank, std::uint32_t row,
                            std::uint32_t column, double trcd_ns) const {
  Program p(timing_);
  p.act(bank, row);
  p.rd(bank, column, trcd_ns);  // possibly < nominal: the experiment
  p.pre(bank, std::max(timing_.t_ras_ns - trcd_ns, timing_.t_rtp_ns));
  return p;
}

Program RowOps::hammer_pair(std::uint32_t bank, std::uint32_t row_a,
                            std::uint32_t row_b, std::uint64_t count,
                            double act_to_act_ns) const {
  Program p(timing_);
  p.hammer(bank, row_a, row_b, count, act_to_act_ns);
  return p;
}

Program RowOps::wait(double ns, bool ref_after) const {
  Program p(timing_);
  p.wait_ns(ns);
  if (ref_after) p.ref(timing_.t_rp_ns);
  return p;
}

}  // namespace vppstudy::softmc
