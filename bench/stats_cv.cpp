// Section 4.6: statistical significance of the methodology. Repeats each
// measurement ten times (with the rig's run-to-run measurement noise
// enabled) and reports the coefficient of variation at the 90th / 95th /
// 99th percentiles across all measurements.
// Paper values to reproduce: CV = 0.08 / 0.13 / 0.24.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "harness/rowhammer_test.hpp"
#include "softmc/session.hpp"
#include "stats/descriptive.hpp"

int main() {
  using namespace vppstudy;
  const auto opt = bench::options_from_env();
  std::printf("# Section 4.6: coefficient of variation across 10 repeated "
              "measurements\n");

  std::vector<double> cvs;
  std::size_t done = 0;
  for (const auto& profile : chips::all_profiles()) {
    if (done++ >= std::min<std::size_t>(opt.max_modules, 10)) break;
    // Characterization rig state (section 4.1): refresh off, 50C.
    softmc::Session session(profile);
    session.set_auto_refresh(false);
    (void)session.set_temperature(common::kHammerTestTempC);
    // Enable the rig's iteration-to-iteration noise (thermal / supply
    // fluctuations); default runs are bit-exact for reproducibility.
    session.module().set_measurement_noise(0.03);
    harness::RowHammerConfig cfg;
    cfg.num_iterations = 1;
    harness::RowHammerTest test(session, cfg);

    const auto rows = harness::RowSampling{0, 2, 4}.sample(
        session.module().mapping());
    for (const std::uint32_t row : rows) {
      std::vector<double> bers;
      for (int iter = 0; iter < 10; ++iter) {
        auto ber = test.measure_ber(0, row, dram::DataPattern::kCheckerAA,
                                    300'000);
        if (!ber) break;
        if (*ber > 0.0) bers.push_back(*ber);
      }
      if (bers.size() == 10) {
        cvs.push_back(stats::coefficient_of_variation(bers));
      }
    }
  }

  if (cvs.empty()) {
    std::printf("no measurable rows at the probe hammer count\n");
    return 0;
  }
  std::printf("measurements: %zu rows x 10 iterations\n", cvs.size());
  std::printf("CV p50 = %.3f\n", stats::percentile(cvs, 50.0));
  std::printf("CV p90 = %.3f (paper: 0.08)\n", stats::percentile(cvs, 90.0));
  std::printf("CV p95 = %.3f (paper: 0.13)\n", stats::percentile(cvs, 95.0));
  std::printf("CV p99 = %.3f (paper: 0.24)\n", stats::percentile(cvs, 99.0));
  return 0;
}
