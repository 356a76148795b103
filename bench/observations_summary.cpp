// The headline aggregates of sections 5 and 8 (Takeaway 1): one run over
// all modules at {2.5V, VPPmin}, printing every Obsv. 1-6 quantity next to
// the paper's number.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vppstudy;
  const auto opt = bench::options_from_args(argc, argv);
  bench::print_scale_banner("Observations 1-6 summary", opt);

  const auto cfg = bench::sweep_config(opt);
  const auto sweeps = bench::parallel_module_map(
      opt,
      [&cfg](const dram::ModuleProfile& profile) {
        auto module_cfg = cfg;
        module_cfg.vpp_levels = {2.5, profile.vppmin_v};
        return bench::module_rowhammer_sweep(profile, module_cfg);
      });
  const auto obs = core::aggregate_observations(sweeps);

  std::printf("\n%-46s %10s %10s\n", "quantity (at VPPmin)", "measured",
              "paper");
  std::printf("%-46s %9.1f%% %10s\n", "mean HCfirst increase (Obsv. 4)",
              100.0 * obs.mean_hc_first_increase, "7.4%");
  std::printf("%-46s %9.1f%% %10s\n", "max HCfirst increase (Obsv. 4)",
              100.0 * obs.max_hc_first_increase, "85.8%");
  std::printf("%-46s %9.1f%% %10s\n", "mean BER reduction (Obsv. 1)",
              100.0 * obs.mean_ber_reduction, "15.2%");
  std::printf("%-46s %9.1f%% %10s\n", "max BER reduction (Obsv. 1)",
              100.0 * obs.max_ber_reduction, "66.9%");
  std::printf("%-46s %9.1f%% %10s\n", "rows with HCfirst increase (Obsv. 4)",
              100.0 * obs.fraction_rows_hc_increase, "69.3%");
  std::printf("%-46s %9.1f%% %10s\n", "rows with HCfirst decrease (Obsv. 5)",
              100.0 * obs.fraction_rows_hc_decrease, "14.2%");
  std::printf("%-46s %9.1f%% %10s\n", "rows with BER decrease (Obsv. 1)",
              100.0 * obs.fraction_rows_ber_decrease, "81.2%");
  std::printf("%-46s %9.1f%% %10s\n", "rows with BER increase (Obsv. 2)",
              100.0 * obs.fraction_rows_ber_increase, "15.4%");
  return 0;
}
