#include "core/study.hpp"

#include <algorithm>
#include <cmath>

namespace vppstudy::core {

std::string SweepInstrumentation::summary() const {
  std::string out = std::to_string(jobs) + " rig sessions";
  if (retries > 0 || quarantined_modules > 0) {
    out += " (" + std::to_string(retries) + " retried, " +
           std::to_string(quarantined_modules) + " module(s) quarantined)";
  }
  out += ": " + counts.summary();
  return out;
}

SweepConfig SweepConfig::paper() {
  SweepConfig c;
  for (double v = 2.5; v >= 1.4 - 1e-9; v -= 0.1) c.vpp_levels.push_back(v);
  c.sampling.chunks = 4;
  c.sampling.rows_per_chunk = 1024;
  c.hammer.num_iterations = 10;
  c.trcd.num_iterations = 10;
  c.retention.num_iterations = 1;
  return c;
}

SweepConfig SweepConfig::quick() {
  SweepConfig c;
  c.vpp_levels = {2.5, 2.2, 1.9, 1.6, 1.4};
  c.sampling.chunks = 4;
  c.sampling.rows_per_chunk = 8;
  c.hammer.num_iterations = 1;
  c.trcd.num_iterations = 1;
  c.trcd.column_stride = 32;
  c.retention.num_iterations = 1;
  return c;
}

int ModuleSweepResult::level_index(double vpp_v) const noexcept {
  for (std::size_t i = 0; i < vpp_levels.size(); ++i) {
    if (std::abs(vpp_levels[i] - vpp_v) < 1e-6) return static_cast<int>(i);
  }
  return -1;
}

std::uint64_t ModuleSweepResult::min_hc_first_at(std::size_t level) const {
  std::uint64_t best = 0;
  for (const auto& r : rows) {
    if (level >= r.hc_first.size()) continue;
    if (best == 0 || r.hc_first[level] < best) best = r.hc_first[level];
  }
  return best;
}

double ModuleSweepResult::max_ber_at(std::size_t level) const {
  double best = 0.0;
  for (const auto& r : rows) {
    if (level >= r.ber.size()) continue;
    best = std::max(best, r.ber[level]);
  }
  return best;
}

std::vector<double> ModuleSweepResult::normalized_hc_first_at(
    std::size_t level) const {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    if (level >= r.hc_first.size() || r.hc_first.empty()) continue;
    if (r.hc_first[0] == 0) continue;
    out.push_back(static_cast<double>(r.hc_first[level]) /
                  static_cast<double>(r.hc_first[0]));
  }
  return out;
}

std::vector<double> ModuleSweepResult::normalized_ber_at(
    std::size_t level) const {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    if (level >= r.ber.size() || r.ber.empty()) continue;
    // Rows whose BER is zero at either level are excluded from the
    // normalized population: a zero denominator is undefined, and a zero
    // numerator means the row's flip threshold moved past the fixed 300K
    // probe entirely (the paper's per-row ratios are over rows with
    // observable flips at both levels).
    if (r.ber[0] <= 0.0 || r.ber[level] <= 0.0) continue;
    out.push_back(r.ber[level] / r.ber[0]);
  }
  return out;
}

std::vector<double> usable_vpp_levels(const SweepConfig& config,
                                      double vppmin_v) {
  std::vector<double> out;
  for (double v : config.vpp_levels) {
    if (v >= vppmin_v - 1e-9) out.push_back(v);
  }
  return out;
}

Observations aggregate_observations(
    std::span<const ModuleSweepResult> sweeps) {
  Observations obs;
  std::size_t n = 0;
  double sum_hc = 0.0;
  double sum_ber = 0.0;
  std::size_t hc_up = 0, hc_down = 0, ber_up = 0, ber_down = 0;
  for (const auto& sweep : sweeps) {
    if (sweep.vpp_levels.size() < 2) continue;
    const std::size_t last = sweep.vpp_levels.size() - 1;  // ~VPPmin
    for (const double r : sweep.normalized_hc_first_at(last)) {
      sum_hc += r - 1.0;
      obs.max_hc_first_increase = std::max(obs.max_hc_first_increase, r - 1.0);
      if (r > 1.0 + 1e-9) ++hc_up;
      if (r < 1.0 - 1e-9) ++hc_down;
      ++n;
    }
    for (const double r : sweep.normalized_ber_at(last)) {
      sum_ber += 1.0 - r;
      obs.max_ber_reduction = std::max(obs.max_ber_reduction, 1.0 - r);
      if (r < 1.0 - 1e-9) ++ber_down;
      if (r > 1.0 + 1e-9) ++ber_up;
    }
  }
  if (n == 0) return obs;
  const auto dn = static_cast<double>(n);
  obs.mean_hc_first_increase = sum_hc / dn;
  obs.mean_ber_reduction = sum_ber / dn;
  obs.fraction_rows_hc_increase = static_cast<double>(hc_up) / dn;
  obs.fraction_rows_hc_decrease = static_cast<double>(hc_down) / dn;
  obs.fraction_rows_ber_decrease = static_cast<double>(ber_down) / dn;
  obs.fraction_rows_ber_increase = static_cast<double>(ber_up) / dn;
  return obs;
}

}  // namespace vppstudy::core
