#include "core/axis.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace vppstudy::core {

// Defined in shard.cpp (the legacy seed functions live with the
// shard primitives); declared here to avoid the include cycle.
std::uint64_t vpp_millivolts(double vpp_v) noexcept;
std::uint64_t row_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                              std::uint64_t vpp_mv, JobPhase phase,
                              std::uint32_t row) noexcept;

double default_phase_temperature(JobPhase phase) noexcept {
  return phase == JobPhase::kRetention ? common::kRetentionTestTempC
                                       : common::kHammerTestTempC;
}

std::int64_t temperature_millidegrees(double temp_c) noexcept {
  return static_cast<std::int64_t>(std::llround(temp_c * 1000.0));
}

std::int64_t act_to_act_picoseconds(double ns) noexcept {
  return static_cast<std::int64_t>(std::llround(ns * 1000.0));
}

AxisPoint AxisPoint::normalized(JobPhase phase,
                                std::uint64_t default_hammer_count) const {
  AxisPoint p;
  p.vpp_v = vpp_v;
  if (temperature_c > 0.0 &&
      temperature_millidegrees(temperature_c) !=
          temperature_millidegrees(default_phase_temperature(phase))) {
    p.temperature_c = temperature_c;
  }
  if (phase == JobPhase::kRowHammer) {
    if (hammer_count != 0 && hammer_count != default_hammer_count) {
      p.hammer_count = hammer_count;
    }
    if (act_to_act_ns > 0.0) p.act_to_act_ns = act_to_act_ns;
    p.pattern_hash = pattern_hash;
  }
  return p;
}

double AxisPoint::resolved_temperature(JobPhase phase) const noexcept {
  return temperature_c > 0.0 ? temperature_c
                             : default_phase_temperature(phase);
}

const harness::PatternSpec* CampaignAxes::find_pattern(
    std::uint64_t pattern_hash) const noexcept {
  if (pattern_hash == 0) return nullptr;
  for (const harness::PatternSpec& spec : patterns) {
    if (spec.spec_hash() == pattern_hash) return &spec;
  }
  return nullptr;
}

std::vector<AxisPoint> CampaignAxes::points_for(
    const std::vector<double>& vpp_levels, JobPhase phase,
    std::uint64_t default_hammer_count) const {
  const std::vector<double> temps =
      temperatures_c.empty() ? std::vector<double>{0.0} : temperatures_c;
  const bool hammer_phase = phase == JobPhase::kRowHammer;
  const std::vector<std::uint64_t> hcs =
      (hammer_phase && !hammer_counts.empty()) ? hammer_counts
                                               : std::vector<std::uint64_t>{0};
  const std::vector<double> acts =
      (hammer_phase && !act_to_act_ns.empty()) ? act_to_act_ns
                                               : std::vector<double>{0.0};
  std::vector<std::uint64_t> pats{0};
  if (hammer_phase && !patterns.empty()) {
    pats.clear();
    for (const harness::PatternSpec& spec : patterns) {
      pats.push_back(spec.spec_hash());
    }
  }
  std::vector<AxisPoint> points;
  points.reserve(vpp_levels.size() * temps.size() * hcs.size() * acts.size() *
                 pats.size());
  for (const double vpp : vpp_levels) {
    for (const double temp : temps) {
      for (const std::uint64_t hc : hcs) {
        for (const double act : acts) {
          for (const std::uint64_t pat : pats) {
            AxisPoint raw;
            raw.vpp_v = vpp;
            raw.temperature_c = temp;
            raw.hammer_count = hc;
            raw.act_to_act_ns = act;
            raw.pattern_hash = pat;
            const AxisPoint p = raw.normalized(phase, default_hammer_count);
            if (std::find(points.begin(), points.end(), p) == points.end()) {
              points.push_back(p);
            }
          }
        }
      }
    }
  }
  return points;
}

std::uint64_t point_stream_seed(std::uint64_t seed, std::uint64_t module_seed,
                                JobPhase phase, std::uint32_t row,
                                const AxisPoint& point) noexcept {
  const std::uint64_t vpp_mv = vpp_millivolts(point.vpp_v);
  if (point.baseline()) {
    return row_stream_seed(seed, module_seed, vpp_mv, phase, row);
  }
  std::uint64_t h = common::hash_key(
      {seed, module_seed, vpp_mv, static_cast<std::uint64_t>(phase), row,
       static_cast<std::uint64_t>(temperature_millidegrees(point.temperature_c)),
       point.hammer_count,
       static_cast<std::uint64_t>(act_to_act_picoseconds(point.act_to_act_ns))});
  // hash_key is a left fold, so appending the pattern word only when present
  // leaves every pre-pattern off-default stream byte-identical.
  if (point.pattern_hash != 0) {
    h = common::hash_accumulate(h, point.pattern_hash);
  }
  return h;
}

}  // namespace vppstudy::core
