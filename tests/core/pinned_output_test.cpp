// Golden outputs of the campaign engine: 64-bit FNV-1a hashes of the exact
// bytes a small VPP-only sweep and a fault-injected resilient campaign
// export. The byte-identity suites compare two engine runs with each other;
// these pins compare the engine with a recorded past, so a refactor that
// changes any output byte fails here even when every other run agrees with
// itself. Re-pin only for a deliberate model or export change, and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "chips/module_db.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "softmc/fault_injector.hpp"

namespace vppstudy::core {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

CampaignPlan small_b3_plan() {
  auto profile = chips::profile_by_name("B3").value();
  profile.rows_per_bank = 4096;
  CampaignPlan plan;
  plan.sweep = SweepConfig::quick();
  plan.sweep.vpp_levels = {2.5, 2.0, 1.6};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.modules = {profile};
  return plan;
}

template <typename Sweep>
std::string csv_and_sidecar(const Sweep& sweep) {
  return to_csv(sweep).str() + instrumentation_json(sweep).str();
}

TEST(PinnedOutputs, VppSweepCsvAndInstrumentation) {
  auto hammer = CampaignEngine(small_b3_plan()).run_hammer();
  ASSERT_TRUE(hammer.has_value()) << hammer.error().to_string();
  auto trcd = CampaignEngine(small_b3_plan()).run_trcd();
  ASSERT_TRUE(trcd.has_value()) << trcd.error().to_string();
  auto retention = CampaignEngine(small_b3_plan()).run_retention();
  ASSERT_TRUE(retention.has_value()) << retention.error().to_string();

  EXPECT_EQ(fnv1a(csv_and_sidecar(hammer->front().to_sweep())),
            0x1fd648cbd7048017ULL);
  EXPECT_EQ(fnv1a(csv_and_sidecar(trcd->front().to_sweep())),
            0xfffec76bb9924724ULL);
  EXPECT_EQ(fnv1a(csv_and_sidecar(retention->front().to_sweep())),
            0x3d2c5e030a3931b2ULL);
}

TEST(PinnedOutputs, FaultInjectedCampaignCsv) {
  // Fault draws are keyed by (seed, attempt, kind, index): seed 3 completes
  // both modules with corrupted reads in their data, seed 5 retries and
  // quarantines both.
  const std::uint64_t expected[][2] = {
      {0xc062bf43da2f38b2ULL, 0x744808f54ab59e99ULL},
      {0xfad7867ce3668545ULL, 0xe2769bd00ee9268dULL},
  };
  const std::uint64_t seeds[] = {3, 5};
  for (std::size_t i = 0; i < 2; ++i) {
    CampaignPlan plan = small_b3_plan();
    auto a0 = chips::profile_by_name("A0").value();
    a0.rows_per_bank = 4096;
    plan.modules.push_back(a0);
    plan.sweep.vpp_levels = {2.5, 1.9};
    plan.seed = seeds[i];
    const auto faults = softmc::FaultPlan::parse(
        "seed=" + std::to_string(seeds[i]) +
        ";drop_read=0.000002;flip_read=0.0002,bits=2;"
        "delay_pre=0.0001,ns=12;spurious=0.000002");
    ASSERT_TRUE(faults.has_value()) << faults.error().to_string();
    harness::RetryPolicy retry;
    retry.max_attempts = 2;

    const CampaignResult campaign =
        CampaignEngine(std::move(plan)).run_resilient(*faults, retry, 512);
    EXPECT_EQ(campaign.completed_count(), i == 0 ? 2u : 0u);
    EXPECT_EQ(fnv1a(campaign_to_csv(campaign).str()), expected[i][0])
        << "seed " << seeds[i];
    EXPECT_EQ(fnv1a(campaign_json(campaign).str()), expected[i][1])
        << "seed " << seeds[i];
  }
}

}  // namespace
}  // namespace vppstudy::core
