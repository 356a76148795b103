#include "server/coordinator.hpp"

#include <chrono>
#include <fstream>
#include <utility>

namespace vppstudy::server {

using common::Error;
using common::ErrorCode;
using core::CampaignLeaseLedger;
using core::LeaseState;

std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::Result<std::unique_ptr<CampaignCoordinator>> CampaignCoordinator::open(
    core::CampaignPlan plan, core::JobPhase phase, std::string manifest_path) {
  std::unique_ptr<CampaignCoordinator> coord(new CampaignCoordinator());
  coord->phase_ = phase;
  coord->plan_hash_ = plan.digest(phase);
  coord->manifest_path_ = std::move(manifest_path);
  // The plan's own manifest path is not used here: the coordinator is the
  // only writer, and the workers' engine runs must not checkpoint.
  plan.manifest_path.clear();
  VPP_ASSIGN_OR_RETURN(coord->grid_,
                       core::compile_campaign_shards(plan, phase));
  coord->grid_index_ = core::ShardGridIndex(coord->grid_);
  coord->shard_modules_.reserve(coord->grid_.size());
  for (const core::ShardCoord& coord_cell : coord->grid_) {
    coord->shard_modules_.push_back(coord_cell.module_index);
  }
  coord->plan_ = std::move(plan);
  coord->manifest_ = core::manifest_spec(coord->plan_, phase);
  coord->manifest_.planned_shards = coord->grid_.size();
  coord->spec_json_ = core::campaign_journal_header(coord->manifest_);
  coord->ledger_.phase = phase;
  coord->ledger_.plan_hash = coord->plan_hash_;
  coord->ledger_.entries.resize(coord->grid_.size());
  if (coord->manifest_path_.empty()) return coord;

  // Manifest: resume an existing journal (the same validation the engine
  // applies). Its records are in submission order; merging them restores
  // the canonical order of the in-memory view.
  const std::string& path = coord->manifest_path_;
  if (std::ifstream probe(path); probe.good()) {
    core::CampaignManifest replayed;
    VPP_ASSIGN_OR_RETURN(coord->manifest_journal_,
                         core::open_campaign_manifest(path, replayed));
    VPP_RETURN_IF_ERROR(
        core::check_manifest_binding(replayed, phase, coord->plan_hash_));
    VPP_RETURN_IF_ERROR(core::merge_campaign_shards(
        coord->manifest_, coord->grid_, coord->plan_hash_, replayed.wcdp,
        replayed.shards));
  } else {
    VPP_ASSIGN_OR_RETURN(coord->manifest_journal_,
                         common::JournalWriter::create(path, coord->spec_json_));
  }

  // Ledger: resume or start fresh (entries parallel to the grid).
  const std::string ledger_path = core::campaign_ledger_path(path);
  const bool have_ledger = std::ifstream(ledger_path).good();
  if (have_ledger) {
    VPP_ASSIGN_OR_RETURN(coord->ledger_journal_,
                         core::open_campaign_ledger(ledger_path, coord->ledger_));
    if (coord->ledger_.phase != phase ||
        coord->ledger_.plan_hash != coord->plan_hash_ ||
        coord->ledger_.entries.size() != coord->grid_.size()) {
      return Error{ErrorCode::kInvalidArgument,
                   "campaign lease ledger does not match the plan (wrong "
                   "phase, plan hash, or shard count)"};
    }
  }

  // Reconcile: every shard already in the manifest is done, whatever the
  // ledger thinks (a crash between the manifest append and the ledger
  // append must not re-lease merged work forever). Stats stay untouched --
  // the submitting worker was already credited when its submission merged.
  core::LeaseEvent reconciled;
  reconciled.kind = core::LeaseEvent::Kind::kReconcile;
  for (const core::ManifestShard& shard : coord->manifest_.shards) {
    const std::uint64_t index = coord->grid_index_.find(shard)->index;
    if (coord->ledger_.reconcile_done(index)) {
      reconciled.shards.push_back(index);
    }
  }
  if (!have_ledger) {
    VPP_ASSIGN_OR_RETURN(coord->ledger_journal_,
                         core::write_campaign_ledger(ledger_path, coord->ledger_));
  } else if (!reconciled.shards.empty()) {
    VPP_RETURN_IF_ERROR(
        coord->ledger_journal_.append(core::lease_event_record(reconciled)));
  }
  return coord;
}

LeaseGrant CampaignCoordinator::grant_snapshot_locked() const {
  LeaseGrant grant;
  grant.phase = phase_;
  grant.plan_hash = plan_hash_;
  grant.done = ledger_.count(LeaseState::kDone);
  grant.remaining = ledger_.entries.size() - grant.done;
  grant.complete = ledger_.complete();
  return grant;
}

common::Result<LeaseGrant> CampaignCoordinator::lease(
    const std::string& worker, std::uint64_t max_shards, std::int64_t ttl_ms,
    std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  CampaignLeaseLedger::Grant granted =
      ledger_.lease(worker, static_cast<std::size_t>(max_shards), now_ms,
                    ttl_ms, &shard_modules_);
  if (granted.token != 0 && ledger_journal_.is_open()) {
    // Ledger only: the manifest did not change.
    core::LeaseEvent event{.kind = core::LeaseEvent::Kind::kGrant,
                           .now_ms = now_ms,
                           .worker = worker,
                           .token = granted.token,
                           .ttl_ms = ttl_ms,
                           .shards = granted.shards};
    VPP_RETURN_IF_ERROR(
        ledger_journal_.append(core::lease_event_record(event)));
  }
  LeaseGrant grant = grant_snapshot_locked();
  grant.token = granted.token;
  grant.shards = std::move(granted.shards);
  // Ship every merged WCDP prep with the grant: a worker that has not yet
  // prepped one of these modules seeds its memo from the coordinator's copy
  // instead of recomputing a (deterministic) prep another worker already
  // paid for.
  grant.wcdp = manifest_.wcdp;
  return grant;
}

common::Result<SubmitOutcome> CampaignCoordinator::submit(
    const std::string& worker, std::uint64_t token, std::uint64_t plan_hash,
    const std::vector<core::ManifestWcdp>& wcdp,
    const std::vector<core::ManifestShard>& shards, std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  const std::size_t expired = ledger_.expire_stale(now_ms);

  // Fencing before merging -- but only once the batch provably belongs to
  // this campaign's grid; a wrong plan hash or an off-grid record takes the
  // merge's kInvalidArgument path (which validates everything up front and
  // merges nothing on failure).
  std::vector<std::uint64_t> mergeable;
  if (plan_hash == plan_hash_) {
    for (const core::ManifestShard& shard : shards) {
      const core::ShardCoord* cell = grid_index_.find(shard);
      if (cell == nullptr) break;  // let the merge produce the typed error
      switch (ledger_.check_submit(cell->index, token)) {
        case CampaignLeaseLedger::SubmitCheck::kStale:
          return Error{ErrorCode::kLeaseExpired,
                       "stale fencing token for shard " +
                           std::to_string(cell->index) +
                           " (the lease expired and the shard was "
                           "re-granted); nothing merged"};
        case CampaignLeaseLedger::SubmitCheck::kMergeable:
          mergeable.push_back(cell->index);
          break;
        case CampaignLeaseLedger::SubmitCheck::kDuplicate:
          break;
      }
    }
  }
  VPP_ASSIGN_OR_RETURN(
      const core::ShardMergeOutcome merged,
      core::merge_campaign_shards(manifest_, grid_, plan_hash, wcdp, shards));
  for (const std::uint64_t index : mergeable) {
    ledger_.mark_done(index, worker);
  }
  if (!manifest_path_.empty()) {
    // Manifest first, ledger second (see the header comment).
    std::vector<std::string> records;
    for (const std::size_t i : merged.new_wcdp) {
      records.push_back(core::campaign_wcdp_record(wcdp[i]));
    }
    for (const std::size_t i : merged.new_shards) {
      records.push_back(core::campaign_shard_record(shards[i], phase_));
    }
    if (!records.empty()) {
      VPP_RETURN_IF_ERROR(manifest_journal_.append(records));
      core::campaign_checkpoint_written();
    }
    if (!mergeable.empty() || expired > 0) {
      if (ledger_.complete()) {
        // Completion compacts: every grant and renewal is superseded.
        VPP_ASSIGN_OR_RETURN(
            ledger_journal_,
            core::write_campaign_ledger(
                core::campaign_ledger_path(manifest_path_), ledger_));
      } else {
        core::LeaseEvent event{.kind = core::LeaseEvent::Kind::kDone,
                               .now_ms = now_ms,
                               .worker = worker,
                               .shards = mergeable};
        VPP_RETURN_IF_ERROR(
            ledger_journal_.append(core::lease_event_record(event)));
      }
    }
  }

  SubmitOutcome outcome;
  outcome.accepted = merged.accepted;
  outcome.duplicates = merged.duplicates;
  outcome.done = ledger_.count(LeaseState::kDone);
  outcome.remaining = ledger_.entries.size() - outcome.done;
  outcome.complete = ledger_.complete();
  return outcome;
}

common::Result<std::uint64_t> CampaignCoordinator::heartbeat(
    std::uint64_t token, std::int64_t ttl_ms, std::int64_t now_ms) {
  std::lock_guard lock(mu_);
  const std::size_t renewed = ledger_.renew(token, now_ms, ttl_ms);
  if (renewed == 0) {
    return Error{ErrorCode::kLeaseExpired,
                 "no shard remains leased under token " +
                     core::u64_hex(token) + "; re-lease"};
  }
  if (ledger_journal_.is_open()) {
    core::LeaseEvent event;
    event.kind = core::LeaseEvent::Kind::kRenew;
    event.now_ms = now_ms;
    event.token = token;
    event.ttl_ms = ttl_ms;
    VPP_RETURN_IF_ERROR(
        ledger_journal_.append(core::lease_event_record(event)));
  }
  return static_cast<std::uint64_t>(renewed);
}

bool CampaignCoordinator::complete() const {
  std::lock_guard lock(mu_);
  return ledger_.complete();
}

CampaignCoordinator::Status CampaignCoordinator::status() const {
  std::lock_guard lock(mu_);
  Status s;
  s.phase = phase_;
  s.plan_hash = plan_hash_;
  s.planned = ledger_.entries.size();
  s.open = ledger_.count(LeaseState::kOpen);
  s.leased = ledger_.count(LeaseState::kLeased);
  s.done = ledger_.count(LeaseState::kDone);
  s.complete = ledger_.complete();
  return s;
}

std::vector<core::LeaseWorkerStats> CampaignCoordinator::worker_stats() const {
  std::lock_guard lock(mu_);
  return ledger_.workers;
}

}  // namespace vppstudy::server
