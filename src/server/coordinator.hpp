// The coordinator side of distributed campaign execution.
//
// A CampaignCoordinator owns one (plan, phase) pair: the canonical shard
// grid compiled from the plan, the manifest the merged results accumulate
// into, and the lease ledger that fences workers. It is the single writer
// of both files -- workers only ever talk to it over the lease/submit/
// heartbeat verbs (server/protocol.hpp), so the merge is serialized here
// under one mutex and the merged manifest is indistinguishable from a
// single-host checkpoint (core/campaign_lease.hpp explains why that makes
// the final CSV/JSON byte-identical).
//
// All time-dependent operations take an explicit `now_ms` so lease expiry
// and fencing are unit-testable without sleeping; the daemon passes
// steady_now_ms(). With an empty manifest path the coordinator is purely
// in-memory (tests); otherwise both files are journals (common/journal.hpp)
// and every accepted submit appends its new records to the manifest first
// and a done event to the ledger second, so a crash between the two
// re-leases work that is already merged -- which the merge then counts as
// duplicates, the safe direction.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "server/protocol.hpp"

namespace vppstudy::server {

/// Milliseconds on the monotonic clock -- lease deadlines must not jump
/// with wall-clock adjustments.
[[nodiscard]] std::int64_t steady_now_ms();

class CampaignCoordinator {
 public:
  /// Compile the plan's shard grid and open (or resume) the campaign.
  /// With a non-empty `manifest_path`, an existing manifest and ledger are
  /// loaded and validated against the plan hash; manifest shards missing
  /// from the ledger are reconciled to done (a coordinator restart after a
  /// crash-between-flushes must not re-lease merged work forever).
  [[nodiscard]] static common::Result<std::unique_ptr<CampaignCoordinator>>
  open(core::CampaignPlan plan, core::JobPhase phase,
       std::string manifest_path);

  /// Lease up to `max_shards` open shards to `worker` under a fresh fencing
  /// token. An empty grant (token 0) with complete()==false means
  /// everything is currently leased out -- poll again.
  [[nodiscard]] common::Result<LeaseGrant> lease(const std::string& worker,
                                                 std::uint64_t max_shards,
                                                 std::int64_t ttl_ms,
                                                 std::int64_t now_ms);

  /// Merge a worker's batch. Fencing: every submitted shard must still be
  /// leased under `token` (or already done, the idempotent duplicate case);
  /// a stale token rejects the whole batch with kLeaseExpired and nothing
  /// is merged. A wrong plan hash or a record off the grid rejects with
  /// kInvalidArgument, nothing merged.
  [[nodiscard]] common::Result<SubmitOutcome> submit(
      const std::string& worker, std::uint64_t token,
      std::uint64_t plan_hash, const std::vector<core::ManifestWcdp>& wcdp,
      const std::vector<core::ManifestShard>& shards, std::int64_t now_ms);

  /// Extend every lease still held under `token`. kLeaseExpired when none
  /// is (the worker should re-lease).
  [[nodiscard]] common::Result<std::uint64_t> heartbeat(std::uint64_t token,
                                                        std::int64_t ttl_ms,
                                                        std::int64_t now_ms);

  [[nodiscard]] bool complete() const;
  [[nodiscard]] std::uint64_t plan_hash() const noexcept { return plan_hash_; }
  [[nodiscard]] core::JobPhase phase() const noexcept { return phase_; }
  [[nodiscard]] const std::string& manifest_path() const noexcept {
    return manifest_path_;
  }
  /// The zero-shard manifest text shipped to need_plan workers (cached; the
  /// spec never changes after open).
  [[nodiscard]] const std::string& campaign_spec_json() const noexcept {
    return spec_json_;
  }

  /// Status snapshot for campaign_open responses and `vppctl campaign
  /// status` style displays.
  struct Status {
    core::JobPhase phase = core::JobPhase::kRowHammer;
    std::uint64_t plan_hash = 0;
    std::uint64_t planned = 0;
    std::uint64_t open = 0;
    std::uint64_t leased = 0;
    std::uint64_t done = 0;
    bool complete = false;
  };
  [[nodiscard]] Status status() const;
  [[nodiscard]] std::vector<core::LeaseWorkerStats> worker_stats() const;

 private:
  CampaignCoordinator() = default;

  [[nodiscard]] LeaseGrant grant_snapshot_locked() const;

  core::CampaignPlan plan_;
  core::JobPhase phase_ = core::JobPhase::kRowHammer;
  std::uint64_t plan_hash_ = 0;
  std::string manifest_path_;  ///< empty = in-memory
  std::string spec_json_;
  std::vector<core::ShardCoord> grid_;
  core::ShardGridIndex grid_index_;
  /// Entry -> module map handed to the ledger so leases are module-affine
  /// (campaign_lease.hpp): concurrent workers land on disjoint modules and
  /// each WCDP prep runs once fleet-wide.
  std::vector<std::size_t> shard_modules_;

  mutable std::mutex mu_;
  core::CampaignManifest manifest_;  ///< canonical order (merged)
  core::CampaignLeaseLedger ledger_;
  common::JournalWriter manifest_journal_;  ///< open iff manifest_path_ set
  common::JournalWriter ledger_journal_;
};

}  // namespace vppstudy::server
