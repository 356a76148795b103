// Campaign distribution primitives: the canonical shard grid, the lease
// ledger, and the partial-manifest merge.
//
// A CampaignPlan compiles to a *canonical shard grid* -- the flat
// (module, point, row-range) unit list in the engine's fixed
// (module-major, then point, then shard) order. Distribution never changes
// that grid: a coordinator leases disjoint index subsets of it to workers,
// each worker computes its shards with run_campaign_shards (bit-identical
// to the single-host engine, because every row is a pure function of its
// stream key), and the coordinator merges returned ManifestShard records
// back into one manifest in canonical order. The merged manifest is
// therefore indistinguishable from a single-host checkpoint, and resuming
// the engine over it reproduces the single-host CSV/JSON byte for byte.
//
// Fencing: each lease grant carries a monotonically increasing token and an
// expiry deadline. A crashed or stalled worker's shards expire and are
// re-leased under a *new* token; a late submission under the old token is
// rejected with kLeaseExpired and nothing is merged -- results are never
// double-counted even though (by determinism) a duplicate would carry the
// same bytes. The ledger is a journal (common/journal.hpp) persisted
// beside the manifest (campaign_ledger_path): a header holding the ledger
// document, then one LeaseEvent record per grant, renewal, submission or
// reconciliation, so a restarted coordinator resumes leases too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/journal.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"

namespace vppstudy::core {

// --- Canonical shard grid ----------------------------------------------------

/// One cell of the canonical shard grid: the flat index plus the grid
/// coordinates a ManifestShard record carries.
struct ShardCoord {
  std::uint64_t index = 0;
  std::size_t module_index = 0;  ///< position in CampaignPlan::modules
  std::string module;
  AxisPoint point;  ///< normalized
  std::uint32_t row_begin = 0;  ///< index range into the sampled row list
  std::uint32_t row_end = 0;

  friend bool operator==(const ShardCoord&, const ShardCoord&) = default;
};

/// Compile the plan into the canonical shard grid for `phase` -- the same
/// unit set, in the same order, the engine executes. Fails like the engine
/// does (kNoUsableLevels / kEmptySample).
[[nodiscard]] common::Expected<std::vector<ShardCoord>> compile_campaign_shards(
    const CampaignPlan& plan, JobPhase phase);

/// Coordinate -> grid index lookup (keys quantize the axis doubles the same
/// way stream seeds do, so a manifest record round-tripped through JSON maps
/// back to its cell exactly). The coordinator's merge and the engine's
/// resume both resolve records through it.
class ShardGridIndex {
 public:
  ShardGridIndex() = default;
  explicit ShardGridIndex(const std::vector<ShardCoord>& grid);

  /// The grid cell a shard record names, or nullptr if it is not a cell of
  /// this campaign.
  [[nodiscard]] const ShardCoord* find(const ManifestShard& shard) const;

 private:
  struct Key {
    std::string module;
    std::int64_t vpp_mv = 0;
    std::int64_t temp_mc = 0;
    std::uint64_t hammer_count = 0;
    std::int64_t act_ps = 0;
    std::uint64_t pattern_hash = 0;
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  static Key key_of(const std::string& module, const AxisPoint& point,
                    std::uint32_t row_begin, std::uint32_t row_end);
  std::vector<std::pair<Key, const ShardCoord*>> sorted_;
};

// --- Worker-side shard execution ---------------------------------------------

/// The records one worker computed for a leased shard subset: WCDP prep
/// records for modules whose prep this batch had to run (at most one per
/// module per worker -- the CellStore memoizes preps across batches), plus
/// one ManifestShard per leased index. Byte-identical to what a single-host
/// engine run records for the same cells.
struct CampaignShardBatch {
  std::vector<ManifestWcdp> wcdp;
  std::vector<ManifestShard> shards;
};

/// Execute a shard index subset of the canonical grid. Indices are sorted
/// and deduplicated, then run through the same phase primitives (and the
/// same per-point stream seeds) as the engine, on an engine-style pool.
/// `store` is consulted for WCDP preps only (lookup_wcdp/store_wcdp): pass a
/// per-worker memo so repeated leases of one module's shards run its prep
/// once. Row results are always computed (leases are disjoint, so there is
/// nothing to share), hence every returned shard record has counted=true.
[[nodiscard]] common::Expected<CampaignShardBatch> run_campaign_shards(
    const CampaignPlan& plan, JobPhase phase,
    const std::vector<std::uint64_t>& indices, CellStore* store,
    CampaignExecution exec = {});

// --- Lease ledger ------------------------------------------------------------

enum class LeaseState : std::uint8_t { kOpen = 0, kLeased, kDone };

[[nodiscard]] std::string_view lease_state_name(LeaseState state) noexcept;

/// Lease bookkeeping of one grid cell. `worker`/`token`/`expires_at_ms` are
/// meaningful for kLeased; kDone keeps `worker` as the submitter of record.
struct LeaseEntry {
  LeaseState state = LeaseState::kOpen;
  std::string worker;
  std::uint64_t token = 0;
  std::int64_t expires_at_ms = 0;
};

/// Cumulative per-worker accounting. `leased` counts shard grants (not
/// currently-held shards), `expired` counts shards this worker lost to lease
/// expiry, `completed` counts shards it submitted -- so a crashed worker's
/// history survives re-leasing its shards to someone else.
struct LeaseWorkerStats {
  std::string worker;
  std::uint64_t leased = 0;
  std::uint64_t completed = 0;
  std::uint64_t expired = 0;
};

/// The versioned lease ledger persisted beside the manifest. Entries are
/// parallel to the canonical shard grid; all state transitions are explicit
/// in `now_ms` so expiry and fencing are unit-testable without clocks.
struct CampaignLeaseLedger {
  static constexpr int kVersion = 2;
  static constexpr std::string_view kSchemaPrefix = "vppstudy-campaign-leases/";

  int version = kVersion;
  JobPhase phase = JobPhase::kRowHammer;
  std::uint64_t plan_hash = 0;
  /// Fencing tokens are ledger-scoped and strictly increasing; 0 is never a
  /// valid token.
  std::uint64_t next_token = 1;
  std::vector<LeaseEntry> entries;
  std::vector<LeaseWorkerStats> workers;  ///< first-lease order

  [[nodiscard]] LeaseWorkerStats& worker_stats(const std::string& worker);

  /// Expire every lease past its deadline (entries reopen, the holder's
  /// `expired` count grows). Returns how many expired.
  std::size_t expire_stale(std::int64_t now_ms);

  struct Grant {
    std::uint64_t token = 0;  ///< 0 when no shard was available
    std::vector<std::uint64_t> shards;  ///< canonical order, disjoint
  };
  /// Lease up to `max_shards` open shards to `worker` under one fresh
  /// fencing token. Expires stale leases first.
  ///
  /// Without `modules`, shards are granted in canonical grid order. With
  /// `modules` (one module index per entry, parallel to the grid), grants
  /// are *module-affine*: (1) modules this worker is already working
  /// (live leases or completed shards), then (2) modules no other worker
  /// holds live leases in, then (3) anything still open -- each tier in
  /// canonical order, and the returned grant is sorted. Affinity keeps
  /// concurrent workers on disjoint modules so each module's WCDP prep runs
  /// once fleet-wide instead of once per worker; which worker computes a
  /// shard never affects its bytes, so the merged manifest is unchanged.
  [[nodiscard]] Grant lease(const std::string& worker, std::size_t max_shards,
                            std::int64_t now_ms, std::int64_t ttl_ms,
                            const std::vector<std::size_t>* modules = nullptr);
  /// The state change of a non-empty grant (lease() and journal replay).
  void apply_grant(const std::string& worker, const Grant& grant,
                   std::int64_t expires_at_ms);

  /// Extend the deadline of every shard still leased under `token`. Returns
  /// how many were renewed (0 = the lease is gone; the worker should
  /// re-lease).
  std::size_t renew(std::uint64_t token, std::int64_t now_ms,
                    std::int64_t ttl_ms);

  enum class SubmitCheck : std::uint8_t {
    kMergeable,  ///< leased under this token; accept and mark done
    kDuplicate,  ///< already done; idempotent no-op
    kStale,      ///< open or leased under a different token; reject
  };
  [[nodiscard]] SubmitCheck check_submit(std::uint64_t index,
                                         std::uint64_t token) const;

  /// Record a merged shard: entry -> kDone, worker's `completed` grows.
  void mark_done(std::uint64_t index, const std::string& worker);
  /// A shard found in the manifest on coordinator open: entry -> kDone
  /// without crediting anyone (its submitter already was). False when the
  /// entry was done already.
  bool reconcile_done(std::uint64_t index);

  [[nodiscard]] std::uint64_t count(LeaseState state) const;
  [[nodiscard]] bool complete() const {
    return count(LeaseState::kDone) == entries.size();
  }
};

/// One ledger journal record. Events carry outcomes (the granted shards,
/// the merged shards), never policy inputs, so replay needs no plan.
struct LeaseEvent {
  enum class Kind : std::uint8_t { kGrant, kRenew, kDone, kReconcile };
  Kind kind = Kind::kGrant;
  std::int64_t now_ms = 0;
  std::string worker;         ///< kGrant, kDone
  std::uint64_t token = 0;    ///< kGrant, kRenew
  std::int64_t ttl_ms = 0;    ///< kGrant, kRenew
  std::vector<std::uint64_t> shards;  ///< kGrant, kDone, kReconcile
};

[[nodiscard]] std::string lease_event_record(const LeaseEvent& event);
/// Replay one event: exactly the state change the coordinator made when it
/// recorded it (expiry at `now_ms` first for grants and submissions).
[[nodiscard]] common::Status apply_lease_event(CampaignLeaseLedger& ledger,
                                               const LeaseEvent& event);

/// The ledger document: the journal header, holding the full live state.
[[nodiscard]] common::JsonWriter campaign_ledger_json(
    const CampaignLeaseLedger& ledger);
[[nodiscard]] common::Result<CampaignLeaseLedger> parse_campaign_ledger(
    const common::JsonValue& doc);
/// Read-only replay (a torn final record is ignored, never truncated).
[[nodiscard]] common::Result<CampaignLeaseLedger> load_campaign_ledger(
    const std::string& path);
/// The coordinator's open: replay into `ledger`, truncate a torn tail.
[[nodiscard]] common::Result<common::JournalWriter> open_campaign_ledger(
    const std::string& path, CampaignLeaseLedger& ledger);
/// Create a header-only journal of the ledger's live state (a fresh
/// campaign, or compaction at completion, where every record is
/// superseded) and return its writer. Outside the VPP_CAMPAIGN_KILL_AFTER
/// count: lease state is control-plane, not results.
[[nodiscard]] common::Result<common::JournalWriter> write_campaign_ledger(
    const std::string& path, const CampaignLeaseLedger& ledger);
/// Where the ledger lives for a given manifest: `<manifest>.leases.json`.
[[nodiscard]] std::string campaign_ledger_path(
    const std::string& manifest_path);

// --- Partial-manifest merge --------------------------------------------------

struct ShardMergeOutcome {
  std::size_t accepted = 0;    ///< new records inserted
  std::size_t duplicates = 0;  ///< already present (idempotent)
  /// Positions (in the submitted vectors) of the records inserted, in
  /// submission order: what a journal appends.
  std::vector<std::size_t> new_wcdp;
  std::vector<std::size_t> new_shards;
};

/// Merge a worker's batch into the manifest, keeping `manifest.shards`
/// sorted in canonical grid order and `manifest.wcdp` in module plan order.
/// All-or-nothing validation: a submitted plan hash that differs from the
/// manifest's, or any record that does not map onto the grid, rejects the
/// whole batch (kInvalidArgument) with nothing merged. Records already
/// present count as duplicates and are left untouched -- by determinism the
/// bytes are identical, so first-wins is also last-wins.
[[nodiscard]] common::Result<ShardMergeOutcome> merge_campaign_shards(
    CampaignManifest& manifest, const std::vector<ShardCoord>& grid,
    std::uint64_t submitted_plan_hash, const std::vector<ManifestWcdp>& wcdp,
    const std::vector<ManifestShard>& shards);

}  // namespace vppstudy::core
