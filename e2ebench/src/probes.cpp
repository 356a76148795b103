#include "probes.hpp"

#include <cstdio>
#include <random>

#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "dram/data_pattern.hpp"
#include "dram/module.hpp"
#include "harness/experiment.hpp"
#include "harness/retention_test.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/trcd_test.hpp"
#include "harness/wcdp.hpp"
#include "metrics.hpp"
#include "server/protocol.hpp"
#include "softmc/row_ops.hpp"
#include "softmc/session.hpp"
#include "trace.hpp"

namespace e2ebench {

using namespace vppstudy;

namespace {

constexpr std::uint64_t kHammerCount = 300'000;
/// Receives probe results so the timed calls cannot be optimized away.
volatile double g_sink = 0.0;
constexpr int kRepeats = 5;

struct Tuple {
  dram::ModuleProfile profile;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  double vpp_v = 0.0;
  double temp_c = 0.0;
};

/// Two sampled rows per module of the campaign plan, each at the nominal
/// and the lowest usable VPP, at a seeded temperature of the plan's axis.
std::vector<Tuple> campaign_tuples(const Inputs& inputs) {
  const core::CampaignPlan plan = grid_plan(inputs, kGridRowsPerShard);
  std::mt19937_64 rng(common::hash_key({inputs.plan_seed, 0x70726f6265ull}));
  std::vector<Tuple> tuples;
  for (const dram::ModuleProfile& profile : plan.modules) {
    const auto levels = core::usable_vpp_levels(plan.sweep, profile.vppmin_v);
    const auto rows = sampled_rows(profile, plan.sweep.sampling);
    for (int k = 0; k < 2; ++k) {
      const std::uint32_t row = rows[rng() % rows.size()];
      const double temp =
          plan.axes.temperatures_c[rng() % plan.axes.temperatures_c.size()];
      const std::uint32_t bank = plan.sweep.sampling.bank;
      tuples.push_back({profile, bank, row, levels.front(), temp});
      tuples.push_back({profile, bank, row, levels.back(), temp});
    }
  }
  return tuples;
}

template <typename Fn>
double time_ms(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return (now_s() - t0) * 1e3;
}

bool prepare(softmc::Session& session, const Tuple& t, std::uint64_t stream) {
  session.reset_for_job();
  session.set_auto_refresh(false);
  session.set_noise_stream(stream);
  return session.set_temperature(t.temp_c).ok() &&
         session.set_vpp(t.vpp_v).ok();
}

/// L0 + L1 on a bare dram::Module: initialize victim and aggressors column
/// by column, hammer, sense the victim, read it back column by column.
bool probe_device(const Tuple& t, std::vector<double>& sense_us,
                  std::vector<double>& column_ns, std::uint64_t& flips) {
  dram::Module module(t.profile);
  module.set_vpp(t.vpp_v);
  module.set_temperature(t.temp_c);
  const auto nb = module.mapping().physical_neighbors(t.row);
  if (!nb.valid) return false;
  bool ok = true;
  const dram::DataPattern pattern = dram::DataPattern::kCheckerAA;
  const auto victim = dram::pattern_row(pattern, dram::kBytesPerRow);
  const auto aggressor =
      dram::pattern_row(dram::inverse_pattern(pattern), dram::kBytesPerRow);
  const dram::Ddr4Timing timing;
  const double col = 4.0 * timing.t_ck_ns;
  double now = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    double column_ms = 0.0;
    for (const auto& [row, image] :
         {std::pair{t.row, &victim}, std::pair{nb.below, &aggressor},
          std::pair{nb.above, &aggressor}}) {
      ok = ok && module.activate(t.bank, row, now).ok();
      now += timing.t_rcd_ns;
      column_ms += time_ms([&] {
        ScopedSpan span("l1.write_columns");
        for (std::uint32_t c = 0; c < dram::kColumnsPerRow; ++c) {
          ok = ok && module
                         .write(t.bank, c,
                                std::span<const std::uint8_t,
                                          dram::kBytesPerColumn>(
                                    image->data() + c * dram::kBytesPerColumn,
                                    dram::kBytesPerColumn),
                                now)
                         .ok();
          now += col;
        }
      });
      now += timing.t_wr_ns + timing.t_ras_ns;
      ok = ok && module.precharge(t.bank, now).ok();
      now += timing.t_rp_ns;
    }
    sense_us.push_back(1e3 * time_ms([&] {
      ScopedSpan span("l0.hammer_sense");
      ok = ok && module
                     .hammer_pair(t.bank, nb.below, nb.above, kHammerCount,
                                  timing.t_rc_ns, now)
                     .ok();
      ok = ok && module.activate(t.bank, t.row, now).ok();
      now += timing.t_ras_ns;
      ok = ok && module.precharge(t.bank, now).ok();
      now += timing.t_rp_ns;
    }));
    ok = ok && module.activate(t.bank, t.row, now).ok();
    now += harness::kSafeReadTrcdNs;
    std::vector<std::uint8_t> observed(dram::kBytesPerRow);
    column_ms += time_ms([&] {
      ScopedSpan span("l1.read_columns");
      for (std::uint32_t c = 0; c < dram::kColumnsPerRow; ++c) {
        auto burst = module.read(t.bank, c, now);
        ok = ok && static_cast<bool>(burst);
        if (burst) {
          std::copy(burst->begin(), burst->end(),
                    observed.begin() + c * dram::kBytesPerColumn);
        }
        now += col;
      }
    });
    now += timing.t_ras_ns;
    ok = ok && module.precharge(t.bank, now).ok();
    now += timing.t_rp_ns + 1e6;  // let the next repeat start fresh
    flips += harness::count_bit_flips(victim, observed);
    column_ns.push_back(column_ms * 1e6 / (4.0 * dram::kColumnsPerRow));
  }
  return ok;
}

}  // namespace

LayerProbes run_probes(const Inputs& inputs) {
  ScopedSpan root("probes");
  LayerProbes out;
  // A probe call that fails would time an error path: record it.
  const auto check = [&out](bool good) { out.ok = out.ok && good; };
  const std::vector<Tuple> tuples = campaign_tuples(inputs);

  // --- L0/L1 -----------------------------------------------------------------
  std::vector<double> sense_us, column_ns, params_ns;
  for (const Tuple& t : tuples) {
    check(probe_device(t, sense_us, column_ns, out.flips));
    const dram::CellPhysics physics(t.profile);
    const std::uint32_t phys =
        row_mapping(t.profile).logical_to_physical(t.row);
    constexpr int kCalls = 2000;
    double sink = 0.0;
    const double ms = time_ms([&] {
      ScopedSpan span("l0.row_params");
      for (int i = 0; i < kCalls; ++i) {
        sink += physics.row_params(t.bank, phys + (i & 1)).temp_sens;
      }
    });
    g_sink = sink;
    params_ns.push_back(ms * 1e6 / kCalls);
  }
  out.sense_us = median(sense_us);
  out.column_op_ns = median(column_ns);
  out.row_params_ns = median(params_ns);

  // --- L2 and L3 (hammer path) ----------------------------------------------
  std::vector<double> read_us, write_us, ber_us, row_ms, wcdp_ms;
  std::uint64_t stream = inputs.plan_seed;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple& t = tuples[i];
    softmc::Session session(t.profile);
    check(prepare(session, t, ++stream));
    const softmc::RowOps ops(session.timing());
    const auto image =
        dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
    const auto program = ops.init_row(t.bank, t.row, image);
    check(static_cast<bool>(program));
    for (int rep = 0; program && rep < kRepeats; ++rep) {
      write_us.push_back(1e3 * time_ms([&] {
        ScopedSpan span("l2.execute_write_row");
        check(session.execute(*program).status.ok());
      }));
      read_us.push_back(1e3 * time_ms([&] {
        ScopedSpan span("l2.read_row");
        check(static_cast<bool>(
            session.read_row(t.bank, t.row, harness::kSafeReadTrcdNs)));
      }));
    }
    harness::RowHammerTest test(session, harness::RowHammerConfig{
                                             .num_iterations = 1});
    for (int rep = 0; rep < kRepeats; ++rep) {
      ber_us.push_back(1e3 * time_ms([&] {
        ScopedSpan span("l3.measure_ber");
        check(static_cast<bool>(test.measure_ber(
            t.bank, t.row, dram::DataPattern::kCheckerAA, kHammerCount)));
      }));
    }
    row_ms.push_back(time_ms([&] {
      ScopedSpan span("l3.test_row");
      check(static_cast<bool>(
          test.test_row(t.bank, t.row, dram::DataPattern::kCheckerAA)));
    }));
    if (i % 2 == 0) {
      // Even tuples sit at nominal VPP, where WCDP is determined (section
      // 4.1).
      const std::vector<std::uint32_t> rows = {t.row};
      wcdp_ms.push_back(time_ms([&] {
        ScopedSpan span("l3.find_wcdp_hammer_rows");
        check(static_cast<bool>(
            harness::find_wcdp_hammer_rows(session, t.bank, rows)));
      }));
    }
  }
  out.read_row_us = median(read_us);
  out.write_row_us = median(write_us);
  // Both programs dispatch ACT + 1024 column commands + PRE.
  out.host_ns_per_cmd = (out.read_row_us + out.write_row_us) * 1e3 /
                        (2.0 * (dram::kColumnsPerRow + 2));
  out.measure_ber_us = median(ber_us);
  out.hammer_row_ms = median(row_ms);
  out.wcdp_ms = median(wcdp_ms);

  // --- L3 (trcd / retention, on vppd_mix's request shapes) -----------------
  std::vector<double> trcd_ms, retention_ms;
  for (const Shape& shape : vppd_shapes()) {
    const std::string test = shape.test;
    if (test == "rowhammer") continue;
    const server::SweepRequest req = request_for(shape, inputs);
    const core::SweepConfig cfg = server::sweep_config_from_request(req);
    const auto profile = chips::profile_by_name(shape.module);
    const auto levels = core::usable_vpp_levels(cfg, profile->vppmin_v);
    const auto rows = sampled_rows(*profile, cfg.sampling);
    const Tuple t{*profile, cfg.sampling.bank, rows[stream % rows.size()],
                  levels.back(),
                  test == "trcd" ? 50.0 : 80.0};
    softmc::Session session(t.profile);
    check(prepare(session, t, ++stream));
    if (test == "trcd") {
      harness::TrcdTest trcd(session, cfg.trcd);
      trcd_ms.push_back(time_ms([&] {
        ScopedSpan span("l3.trcd_test_row");
        check(static_cast<bool>(
            trcd.test_row(t.bank, t.row, dram::DataPattern::kCheckerAA)));
      }));
    } else {
      harness::RetentionTest retention(session, cfg.retention);
      retention_ms.push_back(time_ms([&] {
        ScopedSpan span("l3.retention_test_row");
        check(static_cast<bool>(
            retention.test_row(t.bank, t.row, dram::DataPattern::kCheckerAA)));
      }));
    }
  }
  out.trcd_row_ms = median(trcd_ms);
  out.retention_row_ms = median(retention_ms);
  return out;
}

DispatchCounts dispatched_commands(const std::vector<core::HammerGrid>& grids) {
  DispatchCounts out;
  for (const core::HammerGrid& grid : grids) {
    const softmc::CommandCounts& c = grid.instrumentation.counts;
    out.commands += c.activates + c.reads + c.writes + c.precharges +
                    c.refreshes;
    out.column_commands += c.reads + c.writes;
  }
  return out;
}

ManifestReplay replay_manifest(const std::string& manifest_path,
                               const std::string& scratch_path,
                               std::size_t min_samples) {
  ManifestReplay out;
  auto full = core::load_campaign_manifest(manifest_path);
  if (!full || full->shards.empty()) return out;
  out.load_ms = time_ms([&] {
    ScopedSpan span("l5.load_campaign_manifest");
    full = core::load_campaign_manifest(manifest_path);
  });
  if (!full) return out;
  core::CampaignManifest prefix = *full;
  const std::size_t shards = full->shards.size();
  while (out.write_ms.size() < min_samples) {
    for (std::size_t n = 1; n <= shards; ++n) {
      prefix.shards.assign(full->shards.begin(),
                           full->shards.begin() + static_cast<long>(n));
      bool written = false;
      out.write_ms.push_back(time_ms([&] {
        ScopedSpan span("l5.write_campaign_manifest");
        written = core::write_campaign_manifest(scratch_path, prefix);
      }));
      if (!written) return out;
    }
  }
  std::remove(scratch_path.c_str());
  out.ok = true;
  return out;
}

}  // namespace e2ebench
