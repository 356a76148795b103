// Calibration regression suite: the aggregate observations of sections 5/8
// must stay near the paper's headline numbers. Bands are generous because
// the test runs on a small row sample (a handful of rows per module vs the
// paper's 4096); the bench binaries report the same quantities at scale.
//
// The sweeps are expensive (~17s for all 30 modules), and ctest runs every
// TEST in a separate process, so the assertions are grouped into two tests
// sharing one in-process fixture computation.
#include <gtest/gtest.h>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {
namespace {

const std::vector<ModuleSweepResult>& all_sweeps() {
  static const std::vector<ModuleSweepResult> kSweeps = [] {
    std::vector<ModuleSweepResult> sweeps;
    SweepConfig cfg;
    cfg.sampling.chunks = 2;
    cfg.sampling.rows_per_chunk = 4;
    cfg.hammer.num_iterations = 1;
    for (const auto& profile : chips::all_profiles()) {
      CampaignPlan plan;
      plan.sweep = cfg;
      plan.sweep.vpp_levels = {2.5, profile.vppmin_v};
      plan.modules = {profile};
      auto grids = CampaignEngine(std::move(plan)).run_hammer();
      if (grids) sweeps.push_back(grids->front().to_sweep());
    }
    return sweeps;
  }();
  return kSweeps;
}

TEST(Calibration, HeadlineObservationsNearPaper) {
  ASSERT_EQ(all_sweeps().size(), 30u);
  const auto obs = aggregate_observations(all_sweeps());

  // Obsv. 4: mean HCfirst increase at VPPmin (paper: +7.4%, max +85.8%).
  EXPECT_GT(obs.mean_hc_first_increase, 0.02);
  EXPECT_LT(obs.mean_hc_first_increase, 0.16);
  EXPECT_GT(obs.max_hc_first_increase, 0.45);
  EXPECT_LT(obs.max_hc_first_increase, 1.40);

  // Obsv. 1: mean BER reduction (paper: -15.2%, max -66.9%).
  EXPECT_GT(obs.mean_ber_reduction, 0.06);
  EXPECT_LT(obs.mean_ber_reduction, 0.30);
  EXPECT_GT(obs.max_ber_reduction, 0.40);
  EXPECT_LT(obs.max_ber_reduction, 0.95);

  // Obsv. 4/5: 69.3% of rows increase HCfirst, 14.2% decrease.
  EXPECT_GT(obs.fraction_rows_hc_increase, 0.55);
  EXPECT_LT(obs.fraction_rows_hc_increase, 0.88);
  EXPECT_GT(obs.fraction_rows_hc_decrease, 0.05);
  EXPECT_LT(obs.fraction_rows_hc_decrease, 0.33);

  // Obsv. 1/2: 81.2% of rows reduce BER, 15.4% increase it.
  EXPECT_GT(obs.fraction_rows_ber_decrease, 0.65);
  EXPECT_LT(obs.fraction_rows_ber_decrease, 0.95);
  EXPECT_GT(obs.fraction_rows_ber_increase, 0.04);
  EXPECT_LT(obs.fraction_rows_ber_increase, 0.30);

  // Obsv. 2's increases stay modest (paper max ~11.7%): forbid the >100%
  // explosions that signal a broken restoration-penalty tail.
  double worst_increase = 0.0;
  for (const auto& s : all_sweeps()) {
    for (const double r : s.normalized_ber_at(s.vpp_levels.size() - 1)) {
      worst_increase = std::max(worst_increase, r - 1.0);
    }
  }
  EXPECT_LT(worst_increase, 0.60);
}

TEST(Calibration, PerModuleAnchorsAndRanges) {
  // Module-min HCfirst at 2.5V should sit near the Table 3 anchor for most
  // modules (small samples measure above the anchor, never far below).
  int within = 0;
  int total = 0;
  for (const auto& s : all_sweeps()) {
    const auto profile = chips::profile_by_name(s.module_name);
    ASSERT_TRUE(profile.has_value());
    const double measured = static_cast<double>(s.min_hc_first_at(0));
    const double anchor = profile->hc_first_nominal;
    ++total;
    if (measured > anchor * 0.9 && measured < anchor * 2.2) ++within;
    EXPECT_GT(measured, anchor * 0.85) << s.module_name;
  }
  EXPECT_GE(within, total * 8 / 10);

  // Fig. 6 per-row normalized ranges: A 0.94-1.52, B 0.92-1.86, C 0.91-1.35
  // (checked in padded envelopes for the small sample).
  for (const auto& s : all_sweeps()) {
    for (const double r : s.normalized_hc_first_at(s.vpp_levels.size() - 1)) {
      EXPECT_GT(r, 0.55) << s.module_name;
      EXPECT_LT(r, 2.3) << s.module_name;
    }
  }
}

}  // namespace
}  // namespace vppstudy::core
