// The three workloads of the end-to-end benchmark and the inputs they are
// generated from.
//
//  * campaign_grid: CampaignEngine::run_hammer over modules B3, A0, C9, B6
//    at a 0.2 V VPP step x 50/65/80 C, jobs 2, no manifest, no cell store:
//    the compute path L0-L4 alone.
//  * campaign_checkpointed: the same plan shape with one row per shard and
//    a manifest; half the shards run under max_new_shards (ending in the
//    planned kCancelled), then plan_from_manifest resumes to completion, so
//    L5 writes and re-reads sit on the critical path.
//  * vppd_mix: an in-process server::Server on loopback and two closed-loop
//    connections. A cold phase: one connection sends a scan of repeating
//    sweeps larger than the result cache (every one misses:
//    rowhammer/trcd/retention compute). Then a warm phase: the other fills
//    the cache with a hot set of overlapping sweeps, and both repeat it
//    (warm: L6 framing, codec and cache only). The mix and the cache bound
//    are design constants chosen so that both paths carry load every round;
//    they are not measured vppd traffic.
//
// Every workload runs in rounds. A round sets up its fixture (timed as
// set-up), does its work (timed) and checks its outputs; the benchmark runs
// rounds until its time budget is spent and reports medians over rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "digest.hpp"
#include "dram/mapping.hpp"
#include "harness/experiment.hpp"
#include "metrics.hpp"
#include "server/protocol.hpp"

namespace e2ebench {

/// Worker threads of every engine run and of the vppd service (the host
/// this benchmark was sized on has 4 vCPUs; two clients plus two workers
/// keep it below saturation).
inline constexpr int kJobs = 2;

/// The seed selects one of this many pinned input sets (seed mod count), so
/// every input a run can receive has pinned output digests.
inline constexpr std::uint64_t kPinnedInputs = 16;

/// Fixture builds timed per round; the round's set-up is their median.
inline constexpr int kSetupRepeats = 5;

/// What a seed selects. The device model is noise-free by default, so the
/// campaign seed alone does not change results; the bank does (every cell
/// parameter hashes its bank), giving each input its own rows and outputs
/// at the same amount of work. For vppd_mix the seed orders the scan cycle
/// and sets every request's seed field (request bytes and cache keys
/// change; results do not).
struct Inputs {
  std::uint64_t index = 0;      ///< seed % kPinnedInputs
  std::uint32_t bank = 0;       ///< campaign bank of this index
  std::uint64_t plan_seed = 0;  ///< campaign / request seed of this index
};
[[nodiscard]] Inputs make_inputs(std::uint64_t seed);

/// Time and work of one round.
struct Round {
  bool ok = false;            ///< every operation succeeded
  std::string error;          ///< first failure, when !ok
  double setup_s = 0.0;
  double wall_s = 0.0;        ///< the timed work only
  double cpu_s = 0.0;         ///< process CPU during the timed work
  std::uint64_t cells = 0;    ///< grid cells completed or served
  std::uint64_t operations = 0;
  std::uint64_t failed_operations = 0;
};

// --- Campaigns ---------------------------------------------------------------

/// The campaign plan of both campaign workloads.
[[nodiscard]] vppstudy::core::CampaignPlan grid_plan(
    const Inputs& inputs, std::uint32_t rows_per_shard);
/// A module's logical->physical row mapping (a pure function of its
/// profile, as dram::Module builds it) and the rows `sampling` picks.
[[nodiscard]] vppstudy::dram::RowMapping row_mapping(
    const vppstudy::dram::ModuleProfile& profile);
[[nodiscard]] std::vector<std::uint32_t> sampled_rows(
    const vppstudy::dram::ModuleProfile& profile,
    const vppstudy::harness::RowSampling& sampling);
/// Shard units `plan` compiles to for the hammer phase.
[[nodiscard]] std::uint64_t planned_shards(
    const vppstudy::core::CampaignPlan& plan);
/// The deterministic output of a hammer campaign: per grid, the CSV and JSON
/// exports and the instrumentation document (command counts, simulated ns).
[[nodiscard]] std::string grid_output(
    const std::vector<vppstudy::core::HammerGrid>& grids);
[[nodiscard]] std::uint64_t grid_cells(
    const std::vector<vppstudy::core::HammerGrid>& grids);

struct CampaignRound : Round {
  std::vector<vppstudy::core::HammerGrid> grids;
  std::uint64_t shards = 0;          ///< shard units of the plan
  std::uint64_t manifest_bytes = 0;  ///< checkpointed: final manifest size
};

/// Rows per shard of campaign_grid's plan; campaign_checkpointed uses 1.
inline constexpr std::uint32_t kGridRowsPerShard = 4;

/// One round of the plan with no manifest: build plan and engine (set-up),
/// run_hammer. With the default it is a campaign_grid round; with
/// rows_per_shard 1 it is campaign_checkpointed's plan run uninterrupted --
/// the L5 baseline and the pinned output of that workload.
[[nodiscard]] CampaignRound run_grid_round(
    const Inputs& inputs, std::uint32_t rows_per_shard = kGridRowsPerShard);
/// One campaign_checkpointed round with its manifest at `manifest_path`
/// (left on disk for the caller, which removes it).
[[nodiscard]] CampaignRound run_checkpoint_round(
    const Inputs& inputs, const std::string& manifest_path);

// --- vppd_mix ----------------------------------------------------------------

/// Which phase sends a shape: the scan (cold phase, client 0) or the hot
/// set (warm phase: client 1 sends its first cycle, then both clients).
enum class Role { kScan, kHot };

/// One request shape of the vppd stream (see vppd_shapes for the design).
struct Shape {
  const char* key;
  const char* module;
  const char* test;
  std::uint32_t rows;
  double step;
  std::vector<double> temps;
  Role role;
};
[[nodiscard]] const std::vector<Shape>& vppd_shapes();
[[nodiscard]] vppstudy::server::SweepRequest request_for(const Shape& shape,
                                                         const Inputs& inputs);

inline constexpr unsigned kClients = 2;
/// Scan cycles per round, and hot requests per round (half on each
/// connection). The hot count is sized so the warm phase takes about a
/// third of a round's wall time (1.2 s of 3.3 s on a 4-vCPU x86-64 host):
/// a slower warm or cold path then both show in cells_per_s, while the
/// warm phase's loopback wake-ups, the noisiest part of the round, do not
/// dominate it.
inline constexpr std::size_t kScanCycles = 3;
inline constexpr std::size_t kHotRequests = 20000;
/// Result-cache bound: at least the hot set, and below the scan cycle's
/// cells minus its largest request (so LRU evicts every round and every
/// scan request misses).
inline constexpr std::uint64_t kCacheMaxCells = 200;

/// The request stream of client `client` (shape indices, in send order).
/// The seed orders the scan cycle.
[[nodiscard]] std::vector<std::size_t> client_stream(const Inputs& inputs,
                                                     unsigned client);

struct VppdRound : Round {
  RequestTally tally;
  /// Wall time of the scan (cold phase) and of the warm phase that follows
  /// the hot connection's first cycle.
  double cold_phase_s = 0.0;
  double warm_phase_s = 0.0;
  std::uint64_t evictions = 0;
  std::uint64_t queue_rejects = 0;
  std::uint64_t response_bytes = 0;
  /// Service::sweep vs Client::sweep on one warm request (traced runs).
  std::vector<double> service_ms;
  std::vector<double> roundtrip_ms;
};

/// Per-run output check of vppd results: pinned digests plus identity of
/// every repeated request with its first response.
struct VppdCheck {
  DigestTable* digests = nullptr;
  std::map<std::string, std::string> first;  ///< shape key -> result text
  std::vector<std::string> errors;
  void result(const Inputs& inputs, const std::string& key,
              const std::string& text);
};

/// One vppd_mix round: start the server and connect (set-up), run both
/// client streams to completion, read the server's stats, stop. With
/// `probe_calls` > 0 the round also times one warm request in-process and
/// over the wire (`probe_calls` each) before stopping.
[[nodiscard]] VppdRound run_vppd_round(const Inputs& inputs, VppdCheck& check,
                                       std::size_t probe_calls = 0);

/// Fresh (uncached) result text of one shape, for pinning.
[[nodiscard]] std::string fresh_result(const Shape& shape,
                                       const Inputs& inputs);

}  // namespace e2ebench
