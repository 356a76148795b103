// Section 8 ("Finding Optimal Wordline Voltage") made quantitative: sweep a
// module's usable VPP range and report, per operating point,
//   * security:    module-min HCfirst (higher = harder to hammer),
//   * performance: mean/p99 latency of a mixed workload through the memory
//                  controller (with the tRCD override the module needs),
//   * power:       energy per request, split by rail.
// The printout is the Pareto frontier the paper's discussion describes: a
// security-critical system picks the bottom rows, a performance-critical
// one the top.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "dram/energy.hpp"
#include "memctrl/controller.hpp"
#include "workload/runner.hpp"

namespace {

void frontier_for(const char* module_name, const char* note) {
  using namespace vppstudy;
  auto profile = chips::profile_by_name(module_name).value();
  profile.rows_per_bank = 8192;
  constexpr std::uint64_t kRequests = 20'000;

  std::printf("module %s (%s), %llu mixed requests per level\n", module_name,
              note, static_cast<unsigned long long>(kRequests));
  std::printf("%-7s %10s %10s %10s %10s %12s %9s\n", "VPP[V]", "minHCfirst",
              "tRCD[ns]", "mean[ns]", "p99[ns]", "energy[uJ/rq]", "VPPrail%");

  // Security metric per level: quick Alg. 1 on a small sample.
  core::SweepConfig cfg = core::SweepConfig::quick();
  cfg.sampling.chunks = 2;
  cfg.sampling.rows_per_chunk = 4;

  for (double vpp = 2.5; vpp >= profile.vppmin_v - 1e-9; vpp -= 0.2) {
    // (1) security
    cfg.vpp_levels = {vpp};
    auto sweep = bench::module_rowhammer_sweep(profile, cfg);
    if (!sweep) continue;
    const auto hc = sweep->min_hc_first_at(0);

    // (2) the tRCD this module needs at this VPP (quantized like Fig. 7)
    dram::CellPhysics physics(profile);
    const auto rp = physics.row_params(0, 100);
    const double needed = physics.trcd_row_mean_ns(rp, vpp) + 0.6;
    const double trcd =
        std::max(13.5, std::ceil(needed / 1.5) * 1.5);

    // (3) performance + power through the controller
    softmc::Session session(profile);
    if (!session.set_vpp(vpp).ok()) continue;
    memctrl::ControllerOptions opts;
    opts.trcd_override_ns = trcd;
    memctrl::MemoryController mc(session, opts,
                                 std::make_unique<memctrl::NoMitigation>());
    workload::TraceConfig tc;
    tc.kind = workload::TraceKind::kRandom;
    tc.rows = profile.rows_per_bank;
    workload::TraceGenerator gen(tc);
    auto run = workload::run_trace(session, mc, gen, kRequests);
    if (!run) continue;

    const double vpp_pct =
        100.0 * run->energy.vpp_mj /
        std::max(run->energy.total_mj(), 1e-12);
    std::printf("%-7.1f %10llu %10.1f %10.1f %10.1f %12.4f %8.1f%%\n", vpp,
                static_cast<unsigned long long>(hc), trcd,
                run->mean_latency_ns, run->p99_latency_ns,
                run->energy_per_request_uj(), vpp_pct);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("# Pareto operating points (section 8)\n\n");
  frontier_for("A2", "pays latency for low VPP: needs up to 24ns tRCD");
  frontier_for("B3", "gains security at low VPP: HCfirst +27% at 1.6V");
  std::printf(
      "\nReading the frontier: HCfirst (security) improves toward the "
      "bottom; latency and the\nVPP rail's energy share move the other "
      "way -- the paper's security-vs-performance\ntrade-off, with energy "
      "as a bonus axis (pump energy scales ~VPP^2).\n");
  return 0;
}
