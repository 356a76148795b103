// One-module campaigns through core::CampaignEngine, read back as the
// per-level series of core/study.hpp: level clipping at VPPmin, Table 3
// anchors, normalization, the aggregate observations, and the tRCD and
// retention trends the figures plot.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {
namespace {

dram::ModuleProfile small_profile(const char* name) {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

/// One module's Alg. 1 / 2 / 3 series (`run` picks the algorithm) at
/// campaign seed 0.
template <typename Grid>
auto module_sweep(const char* name, const SweepConfig& sweep,
                  common::Expected<std::vector<Grid>> (CampaignEngine::*run)())
    -> decltype(std::declval<const Grid&>().to_sweep()) {
  CampaignPlan plan;
  plan.sweep = sweep;
  plan.modules = {small_profile(name)};
  CampaignEngine engine(std::move(plan));
  auto grids = (engine.*run)();
  EXPECT_TRUE(grids.has_value()) << grids.error().to_string();
  if (!grids) return {};
  return grids->front().to_sweep();
}

constexpr auto kHammer = &CampaignEngine::run_hammer;
constexpr auto kTrcd = &CampaignEngine::run_trcd;
constexpr auto kRetention = &CampaignEngine::run_retention;

SweepConfig tiny_config() {
  auto c = SweepConfig::quick();
  c.vpp_levels = {2.5, 2.0, 1.6};
  c.sampling.chunks = 2;
  c.sampling.rows_per_chunk = 6;
  return c;
}

TEST(SweepConfig, PaperGridIsFull) {
  const auto c = SweepConfig::paper();
  EXPECT_EQ(c.vpp_levels.size(), 12u);  // 2.5 .. 1.4 in 0.1 steps
  EXPECT_DOUBLE_EQ(c.vpp_levels.front(), 2.5);
  EXPECT_NEAR(c.vpp_levels.back(), 1.4, 1e-9);
  EXPECT_EQ(c.hammer.num_iterations, 10);
  EXPECT_EQ(c.sampling.rows_per_chunk * c.sampling.chunks, 4096u);
}

TEST(ModuleSweep, LevelsClipAtVppmin) {
  // B0's VPPmin is 2.0V.
  const auto sweep = module_sweep("B0", tiny_config(), kHammer);
  ASSERT_EQ(sweep.vpp_levels.size(), 2u);  // 2.5 and 2.0 only
  EXPECT_DOUBLE_EQ(sweep.vpp_levels.back(), 2.0);
}

TEST(ModuleSweep, RowhammerSweepProducesFullSeries) {
  const auto sweep = module_sweep("B3", tiny_config(), kHammer);
  EXPECT_FALSE(sweep.rows.empty());
  for (const auto& row : sweep.rows) {
    ASSERT_EQ(row.hc_first.size(), sweep.vpp_levels.size());
    ASSERT_EQ(row.ber.size(), sweep.vpp_levels.size());
    for (const auto hc : row.hc_first) EXPECT_GT(hc, 0u);
  }
}

TEST(ModuleSweep, ModuleMinHcFirstNearTable3Anchor) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 12;
  // B3 anchors: 16.6K @2.5V, 21.1K @1.6V.
  const auto sweep = module_sweep("B3", c, kHammer);
  ASSERT_FALSE(sweep.vpp_levels.empty());
  const double nominal = static_cast<double>(sweep.min_hc_first_at(0));
  EXPECT_NEAR(nominal, 16.6e3, 16.6e3 * 0.25);
  const double at_min = static_cast<double>(
      sweep.min_hc_first_at(sweep.vpp_levels.size() - 1));
  // B3's HCfirst increases markedly toward VPPmin (Table 3: +27%).
  EXPECT_GT(at_min, nominal * 1.02);
}

TEST(ModuleSweep, NormalizedSeriesStartAtOne) {
  const auto sweep = module_sweep("C0", tiny_config(), kHammer);
  ASSERT_FALSE(sweep.rows.empty());
  for (const double v : sweep.normalized_hc_first_at(0)) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
  for (const double v : sweep.normalized_ber_at(0)) {
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(ModuleSweep, AggregateObservationsMatchHeadlineDirections) {
  // Run two modules with opposite-ish profiles and check the aggregate
  // observation machinery (exact magnitudes are covered by the calibration
  // suite over more rows).
  std::vector<ModuleSweepResult> sweeps;
  for (const char* name : {"B3", "C0"}) {
    sweeps.push_back(module_sweep(name, tiny_config(), kHammer));
  }
  const auto obs = aggregate_observations(sweeps);
  EXPECT_GT(obs.mean_hc_first_increase, 0.0);   // Obsv. 4 direction
  EXPECT_GT(obs.mean_ber_reduction, 0.0);       // Obsv. 1 direction
  EXPECT_GT(obs.fraction_rows_hc_increase, 0.5);
  EXPECT_GT(obs.fraction_rows_ber_decrease, 0.5);
  EXPECT_LE(obs.fraction_rows_hc_increase +
                obs.fraction_rows_hc_decrease, 1.0 + 1e-9);
}

TEST(ModuleSweep, TrcdSweepHealthyVsFailingModules) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 4;
  for (const double t : module_sweep("C0", c, kTrcd).trcd_min_ns) {
    EXPECT_LE(t, 13.5);
  }
  const auto a0 = module_sweep("A0", c, kTrcd);
  ASSERT_FALSE(a0.trcd_min_ns.empty());
  EXPECT_LE(a0.trcd_min_ns.front(), 13.5);  // fine at nominal VPP
  EXPECT_GT(a0.trcd_min_ns.back(), 13.5);   // fails toward VPPmin
  EXPECT_LE(a0.trcd_min_ns.back(), 24.0);   // fixed by 24ns (Obsv. 7)
}

TEST(ModuleSweep, RetentionSweepMeanBerGrowsWithWindowAndLowVpp) {
  auto c = tiny_config();
  c.sampling.rows_per_chunk = 4;
  // C2's VPPmin is 1.5V, so the 1.6V level (with a real restoration
  // deficit) stays in the usable grid; above ~2.0V restoration is full and
  // retention is VPP-independent by design.
  const auto sweep = module_sweep("C2", c, kRetention);
  ASSERT_FALSE(sweep.trefw_ms.empty());
  ASSERT_EQ(sweep.mean_ber.size(), sweep.vpp_levels.size());
  // Monotone in the refresh window at each level.
  for (const auto& series : sweep.mean_ber) {
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i], series[i - 1] - 1e-12);
    }
  }
  // At the longest window, lower VPP leaks more (Obsv. 12).
  EXPECT_GT(sweep.mean_ber.back().back(), sweep.mean_ber.front().back());
}

}  // namespace
}  // namespace vppstudy::core
