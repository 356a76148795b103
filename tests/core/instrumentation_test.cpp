// Tests for the per-sweep rig instrumentation: every (module, VPP level) job
// contributes its session's command counts, the aggregate is identical at
// any --jobs count, and typed errors cross the softmc -> harness -> core
// boundary with their code and context intact.
#include <gtest/gtest.h>

#include <cstdint>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {
namespace {

dram::ModuleProfile small_profile(const char* name = "B3") {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

CampaignPlan small_plan(int jobs) {
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5, 2.0, 1.6};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.modules = {small_profile()};
  plan.seed = 0;
  plan.jobs = jobs;
  return plan;
}

TEST(SweepInstrumentation, AggregatesJobCountsAsAFold) {
  softmc::CommandCounts a;
  a.activates = 3;
  a.reads = 10;
  softmc::CommandCounts b;
  b.activates = 1;
  b.hammer_activations = 600;

  SweepInstrumentation inst;
  inst.add_job(a);
  inst.add_job(b);
  EXPECT_EQ(inst.jobs, 2u);
  EXPECT_EQ(inst.counts.activates, 4u);
  EXPECT_EQ(inst.counts.reads, 10u);
  EXPECT_EQ(inst.counts.hammer_activations, 600u);

  SweepInstrumentation other;
  other.add_job(a);
  inst += other;
  EXPECT_EQ(inst.jobs, 3u);
  EXPECT_EQ(inst.counts.activates, 7u);
}

TEST(SweepInstrumentation, RowHammerSweepCountsOneJobPerLevelPlusPrep) {
  auto grids = CampaignEngine(small_plan(1)).run_hammer();
  ASSERT_TRUE(grids.has_value()) << grids.error().to_string();
  ASSERT_EQ(grids->size(), 1u);
  const ModuleSweepResult sweep = grids->front().to_sweep();

  // B3's VPPmin is 1.6V, so all three levels run: one WCDP-prep session
  // plus one session per level.
  ASSERT_EQ(sweep.vpp_levels.size(), 3u);
  EXPECT_EQ(sweep.instrumentation.jobs, 4u);
  // A hammer campaign is dominated by loop activations; every job also
  // reads rows back for verification.
  EXPECT_GT(sweep.instrumentation.counts.hammer_activations, 0u);
  EXPECT_GT(sweep.instrumentation.counts.reads, 0u);
  EXPECT_GT(sweep.instrumentation.counts.simulated_ns, 0.0);
  EXPECT_NE(sweep.instrumentation.summary().find("rig sessions"),
            std::string::npos);
}

TEST(SweepInstrumentation, TrcdSweepCountsOneJobPerLevel) {
  auto grids = CampaignEngine(small_plan(1)).run_trcd();
  ASSERT_TRUE(grids.has_value()) << grids.error().to_string();
  const TrcdSweepResult sweep = grids->front().to_sweep();
  ASSERT_EQ(sweep.vpp_levels.size(), 3u);
  EXPECT_EQ(sweep.instrumentation.jobs, 3u);
  // Alg. 2 probes single columns at reduced tRCD: deliberate violations are
  // the methodology, and the counters see them.
  EXPECT_GT(sweep.instrumentation.counts.timing_violations, 0u);
}

TEST(SweepInstrumentation, StudyFacadeCarriesInstrumentationToo) {
  // The per-module sweep view (to_sweep) keeps the grid's counters.
  auto grids = CampaignEngine(small_plan(1)).run_trcd();
  ASSERT_TRUE(grids.has_value()) << grids.error().to_string();
  const TrcdSweepResult sweep = grids->front().to_sweep();
  EXPECT_EQ(sweep.instrumentation, grids->front().instrumentation);
  EXPECT_EQ(sweep.instrumentation.jobs, 3u);
  EXPECT_GT(sweep.instrumentation.counts.total_commands(), 0u);
}

TEST(SweepInstrumentation, IsIdenticalAcrossJobCounts) {
  auto s = CampaignEngine(small_plan(1)).run_hammer();
  auto p = CampaignEngine(small_plan(8)).run_hammer();
  ASSERT_TRUE(s.has_value()) << s.error().to_string();
  ASSERT_TRUE(p.has_value()) << p.error().to_string();
  ASSERT_EQ(s->size(), p->size());
  for (std::size_t m = 0; m < s->size(); ++m) {
    EXPECT_EQ((*s)[m].instrumentation, (*p)[m].instrumentation);
    EXPECT_EQ((*s)[m].instrumentation.summary(),
              (*p)[m].instrumentation.summary());
  }
}

TEST(TypedErrors, NoUsableLevelsCrossesTheLayerBoundaryIntact) {
  auto plan = small_plan(1);
  plan.sweep.vpp_levels = {1.0};  // below B3's VPPmin: nothing to run
  auto grids = CampaignEngine(plan).run_hammer();
  ASSERT_FALSE(grids.has_value());
  EXPECT_EQ(grids.error().code, common::ErrorCode::kNoUsableLevels);
  EXPECT_EQ(grids.error().context.module, "B3");
}

}  // namespace
}  // namespace vppstudy::core
