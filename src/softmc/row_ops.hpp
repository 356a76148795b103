// RowOps: the shared program builders behind the session's convenience
// operations (init_row / read_row / read_column_with_trcd /
// hammer_double_sided / wait_ms). One place owns the burst spacing and
// default-latency arithmetic, so the harness and the session can never
// drift apart on how a "read the whole row" program is constructed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expected.hpp"
#include "dram/timing.hpp"
#include "dram/types.hpp"
#include "softmc/program.hpp"

namespace vppstudy::softmc {

class RowOps {
 public:
  explicit RowOps(dram::Ddr4Timing timing) : timing_(timing) {}

  [[nodiscard]] const dram::Ddr4Timing& timing() const noexcept {
    return timing_;
  }

  /// Back-to-back burst spacing on the column bus: 4 clocks.
  [[nodiscard]] double column_spacing_ns() const noexcept {
    return 4.0 * timing_.t_ck_ns;
  }

  /// ACT + one kColumnsPerRow-column WR burst + PRE with nominal timing.
  /// Fails with kBadRowImage when `image` is not exactly one row.
  [[nodiscard]] common::Expected<Program> init_row(
      std::uint32_t bank, std::uint32_t row,
      const std::vector<std::uint8_t>& image) const;

  /// ACT + one kColumnsPerRow-column RD burst + PRE. `trcd_ns <= 0` uses
  /// the nominal tRCD.
  [[nodiscard]] Program read_row(std::uint32_t bank, std::uint32_t row,
                                 double trcd_ns = -1.0) const;

  /// One ACT + single-column RD at an explicit (possibly violating) tRCD,
  /// then PRE (Alg. 2's inner access).
  [[nodiscard]] Program read_column(std::uint32_t bank, std::uint32_t row,
                                    std::uint32_t column,
                                    double trcd_ns) const;

  /// Double-sided hammer loop. `act_to_act_ns <= 0` uses the nominal tRC.
  [[nodiscard]] Program hammer_pair(std::uint32_t bank, std::uint32_t row_a,
                                    std::uint32_t row_b, std::uint64_t count,
                                    double act_to_act_ns = -1.0) const;

  /// Idle wait, optionally followed by one REF (retention tests interleave
  /// REFs at tREFI when auto refresh is on).
  [[nodiscard]] Program wait(double ns, bool ref_after = false) const;

 private:
  dram::Ddr4Timing timing_;
};

}  // namespace vppstudy::softmc
