// Per-layer probes of the traced run: each layer's public entry point
// called apart from its callers on a seeded sample of a workload's inputs,
// timed per call. The traced run multiplies these per-call costs by the
// exact command and cell counts of a workload to attribute its time to
// layers it cannot open a span inside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "workloads.hpp"

namespace e2ebench {

struct LayerProbes {
  bool ok = true;                 ///< every probed call succeeded
  double sense_us = 0.0;          ///< L0: hammer_pair + victim ACT/PRE
  std::uint64_t flips = 0;        ///< L0: bit flips the sensed victims showed
  double row_params_ns = 0.0;     ///< L0: CellPhysics::row_params
  double column_op_ns = 0.0;      ///< L1: Module::read / write per column
  double read_row_us = 0.0;       ///< L2: Session::read_row
  double write_row_us = 0.0;      ///< L2: row-write program via execute
  double host_ns_per_cmd = 0.0;   ///< L2 (with its L1 column work): probe
                                  ///< time / commands dispatched
  double measure_ber_us = 0.0;    ///< L3: RowHammerTest::measure_ber
  double hammer_row_ms = 0.0;     ///< L3: RowHammerTest::test_row
  double wcdp_ms = 0.0;           ///< L3: find_wcdp_hammer_rows, per row
  double trcd_row_ms = 0.0;       ///< L3: TrcdTest::test_row (vppd inputs)
  double retention_row_ms = 0.0;  ///< L3: RetentionTest::test_row (vppd inputs)
};

/// Probe L0-L3 on (module, row, VPP, temperature) tuples sampled with the
/// seed from campaign_grid's plan, and the trcd/retention paths on
/// vppd_mix's request shapes.
[[nodiscard]] LayerProbes run_probes(const Inputs& inputs);

/// Commands the L2 dispatcher executed for a campaign: ACT + RD + WR + PRE
/// + REF summed over every grid's instrumentation (hammer-loop activations
/// run inside one LOOP instruction and are not dispatched one by one), and
/// the RD + WR among them, each of which is one L1 column operation.
struct DispatchCounts {
  std::uint64_t commands = 0;
  std::uint64_t column_commands = 0;
};
[[nodiscard]] DispatchCounts dispatched_commands(
    const std::vector<vppstudy::core::HammerGrid>& grids);

/// L5 replay: write_campaign_manifest over growing shard prefixes of a
/// final manifest (at least `min_samples` writes to `scratch_path`), then
/// load_campaign_manifest of the full one.
struct ManifestReplay {
  std::vector<double> write_ms;
  double load_ms = 0.0;
  bool ok = false;
};
[[nodiscard]] ManifestReplay replay_manifest(const std::string& manifest_path,
                                             const std::string& scratch_path,
                                             std::size_t min_samples);

}  // namespace e2ebench
