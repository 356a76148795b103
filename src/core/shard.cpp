#include "core/shard.hpp"

#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/mapping.hpp"
#include "harness/attack_patterns.hpp"
#include "harness/retention_test.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/trcd_test.hpp"
#include "harness/wcdp.hpp"
#include "softmc/session.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;

std::uint64_t vpp_millivolts(double vpp_v) noexcept {
  return static_cast<std::uint64_t>(std::llround(vpp_v * 1000.0));
}

std::uint64_t job_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                              std::uint64_t vpp_mv, JobPhase phase) noexcept {
  return common::hash_key(
      {seed, module_seed, vpp_mv, static_cast<std::uint64_t>(phase)});
}

std::uint64_t row_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                              std::uint64_t vpp_mv, JobPhase phase,
                              std::uint32_t row) noexcept {
  return common::hash_key({seed, module_seed, vpp_mv,
                           static_cast<std::uint64_t>(phase), row});
}

namespace {

/// Bring a checked-out session to the state every characterization shard
/// starts from: refresh disabled (which also neutralizes TRR, section 4.1),
/// temperature settled, VPP programmed. Noise streams are keyed per row by
/// the shard loop itself.
common::Status setup_shard_session(softmc::Session& session, double temp_c,
                                   double vpp_v) {
  session.set_auto_refresh(false);
  if (auto st = session.set_temperature(temp_c); !st.ok()) return st;
  return session.set_vpp(vpp_v);
}

/// The hammer config at one grid point: a baseline point uses the sweep's
/// config untouched (byte-compat with the VPP-only driver); a hammer-count
/// axis overrides the fixed BER hammer count, an on-time axis overrides the
/// aggressor ACT-to-ACT spacing.
harness::RowHammerConfig hammer_config_at(const SweepConfig& sweep,
                                          const AxisPoint& point) {
  harness::RowHammerConfig config = sweep.hammer;
  if (point.hammer_count != 0) config.ber_hc = point.hammer_count;
  if (point.act_to_act_ns > 0.0) config.act_to_act_ns = point.act_to_act_ns;
  return config;
}

}  // namespace

std::vector<std::uint32_t> sample_campaign_rows(
    const dram::ModuleProfile& profile, const harness::RowSampling& sampling) {
  // RowSampling only consults the logical->physical mapping, which is a pure
  // function of the profile (dram::Module builds its own mapping from the
  // same three fields) -- no device needed.
  const dram::RowMapping mapping(dram::scheme_for(profile.mfr),
                                 profile.rows_per_bank, profile.row_repairs);
  return sampling.sample(mapping);
}

common::Expected<WcdpPrep> run_wcdp_prep(softmc::Session& session,
                                         const SweepConfig& sweep,
                                         std::uint64_t seed,
                                         double nominal_vpp,
                                         std::span<const std::uint32_t> rows) {
  const dram::ModuleProfile& profile = session.module().profile();
  if (auto st = setup_shard_session(session, common::kHammerTestTempC,
                                    nominal_vpp);
      !st.ok()) {
    return std::move(st).error().with_module(profile.name).with_context(
        "wcdp job setup");
  }
  session.set_noise_stream(job_stream_seed(seed, profile.seed,
                                           vpp_millivolts(nominal_vpp),
                                           JobPhase::kWcdp));
  WcdpPrep prep;
  if (sweep.determine_wcdp) {
    auto wcdp = harness::find_wcdp_hammer_rows(
        session, sweep.sampling.bank,
        std::vector<std::uint32_t>(rows.begin(), rows.end()));
    if (!wcdp) {
      return std::move(wcdp).error().with_module(profile.name).with_context(
          "wcdp determination");
    }
    prep.wcdp = std::move(*wcdp);
  } else {
    prep.wcdp.assign(rows.size(), dram::DataPattern::kCheckerAA);
  }
  prep.counts = session.counters();
  return prep;
}

common::Expected<HammerCell> run_hammer_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, std::span<const std::uint32_t> rows,
    std::span<const dram::DataPattern> wcdp,
    const common::CancelToken& cancel) {
  const dram::ModuleProfile& profile = session.module().profile();
  const std::uint64_t vpp_mv = vpp_millivolts(point.vpp_v);
  if (auto st = setup_shard_session(
          session, point.resolved_temperature(JobPhase::kRowHammer),
          point.vpp_v);
      !st.ok()) {
    return std::move(st)
        .error()
        .with_module(profile.name)
        .with_vpp_mv(static_cast<std::int64_t>(vpp_mv))
        .with_context("hammer shard setup");
  }
  harness::RowHammerTest test(session, hammer_config_at(sweep, point));
  HammerCell out;
  out.rows.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (cancel.cancelled()) {
      return Error{ErrorCode::kCancelled, "hammer shard cancelled"}
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    session.set_noise_stream(point_stream_seed(
        seed, profile.seed, JobPhase::kRowHammer, rows[i], point));
    auto r = test.test_row(sweep.sampling.bank, rows[i], wcdp[i]);
    if (!r) {
      return std::move(r)
          .error()
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    out.rows.push_back(std::move(*r));
  }
  out.counts = session.counters();
  return out;
}

common::Expected<HammerCell> run_pattern_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, const harness::PatternSpec& spec,
    std::span<const std::uint32_t> rows,
    std::span<const dram::DataPattern> wcdp,
    const common::CancelToken& cancel) {
  const dram::ModuleProfile& profile = session.module().profile();
  const std::uint64_t vpp_mv = vpp_millivolts(point.vpp_v);
  const harness::RowHammerConfig config = hammer_config_at(sweep, point);
  HammerCell out;
  out.rows.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (cancel.cancelled()) {
      return Error{ErrorCode::kCancelled, "pattern shard cancelled"}
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    // Unlike the refresh-free uniform path, a pattern attack issues REF, so
    // TRR tracker state would leak from one victim's attack into the next.
    // A full per-row reset keeps each result a pure function of its row key
    // (reset_for_job is asserted bit-equal to a fresh session), which is
    // what lets callers regroup rows into any shard slices.
    session.reset_for_job();
    if (auto st = setup_shard_session(
            session, point.resolved_temperature(JobPhase::kRowHammer),
            point.vpp_v);
        !st.ok()) {
      return std::move(st)
          .error()
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv))
          .with_context("pattern shard setup");
    }
    // A spec whose widest offset falls off the bank at this victim cannot
    // attack it: record a zero-flip row instead of failing the campaign, so
    // every pattern is scored over the same row sample (edge rows simply
    // contribute nothing for patterns too wide to reach them).
    const auto& mapping = session.module().mapping();
    const std::int64_t victim_phys =
        static_cast<std::int64_t>(mapping.logical_to_physical(rows[i]));
    bool fits = true;
    for (const harness::AggressorSpec& a : spec.aggressors) {
      const std::int64_t phys = victim_phys + a.offset;
      if (phys < 0 || phys >= static_cast<std::int64_t>(mapping.rows())) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      out.rows.push_back({rows[i], wcdp[i], 0, 0.0});
      out.counts += session.counters();
      continue;
    }
    session.set_noise_stream(point_stream_seed(
        seed, profile.seed, JobPhase::kRowHammer, rows[i], point));
    harness::AttackConfig attack;
    attack.kind = harness::AttackKind::kFuzzed;
    attack.pattern = &spec;
    attack.hammer_count = config.ber_hc;
    attack.victim_pattern = wcdp[i];
    auto r = harness::run_attack(session, sweep.sampling.bank, rows[i], attack);
    if (!r) {
      return std::move(r)
          .error()
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    harness::RowHammerRowResult rr;
    rr.row = rows[i];
    rr.wcdp = wcdp[i];
    rr.hc_first = r->total_flips;
    rr.ber = r->victim_rows == 0
                 ? 0.0
                 : static_cast<double>(r->total_flips) /
                       (static_cast<double>(r->victim_rows) *
                        static_cast<double>(dram::kBitsPerRow));
    out.rows.push_back(rr);
    out.counts += session.counters();
  }
  return out;
}

common::Expected<TrcdCell> run_trcd_rows(softmc::Session& session,
                                         const SweepConfig& sweep,
                                         std::uint64_t seed,
                                         const AxisPoint& point,
                                         std::span<const std::uint32_t> rows,
                                         const common::CancelToken& cancel) {
  const dram::ModuleProfile& profile = session.module().profile();
  const std::uint64_t vpp_mv = vpp_millivolts(point.vpp_v);
  if (auto st = setup_shard_session(
          session, point.resolved_temperature(JobPhase::kTrcd), point.vpp_v);
      !st.ok()) {
    return std::move(st)
        .error()
        .with_module(profile.name)
        .with_vpp_mv(static_cast<std::int64_t>(vpp_mv))
        .with_context("trcd shard setup");
  }
  harness::TrcdTest test(session, sweep.trcd);
  TrcdCell out;
  out.rows.reserve(rows.size());
  for (const std::uint32_t row : rows) {
    if (cancel.cancelled()) {
      return Error{ErrorCode::kCancelled, "trcd shard cancelled"}
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    session.set_noise_stream(
        point_stream_seed(seed, profile.seed, JobPhase::kTrcd, row, point));
    auto r = test.test_row(sweep.sampling.bank, row,
                           dram::DataPattern::kCheckerAA);
    if (!r) {
      return std::move(r)
          .error()
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    out.rows.push_back(std::move(*r));
  }
  out.counts = session.counters();
  return out;
}

common::Expected<RetentionCell> run_retention_rows(
    softmc::Session& session, const SweepConfig& sweep, std::uint64_t seed,
    const AxisPoint& point, std::span<const std::uint32_t> rows,
    const common::CancelToken& cancel) {
  // Retention tests default to 80C (section 4.1).
  const dram::ModuleProfile& profile = session.module().profile();
  const std::uint64_t vpp_mv = vpp_millivolts(point.vpp_v);
  if (auto st = setup_shard_session(
          session, point.resolved_temperature(JobPhase::kRetention),
          point.vpp_v);
      !st.ok()) {
    return std::move(st)
        .error()
        .with_module(profile.name)
        .with_vpp_mv(static_cast<std::int64_t>(vpp_mv))
        .with_context("retention shard setup");
  }
  harness::RetentionTest test(session, sweep.retention);
  RetentionCell out;
  out.rows.reserve(rows.size());
  for (const std::uint32_t row : rows) {
    if (cancel.cancelled()) {
      return Error{ErrorCode::kCancelled, "retention shard cancelled"}
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    session.set_noise_stream(point_stream_seed(
        seed, profile.seed, JobPhase::kRetention, row, point));
    auto r = test.test_row(sweep.sampling.bank, row,
                           dram::DataPattern::kCheckerAA);
    if (!r) {
      return std::move(r)
          .error()
          .with_module(profile.name)
          .with_vpp_mv(static_cast<std::int64_t>(vpp_mv));
    }
    out.rows.push_back(std::move(*r));
  }
  out.counts = session.counters();
  return out;
}

}  // namespace vppstudy::core
