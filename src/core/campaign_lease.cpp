#include "core/campaign_lease.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;
using common::JsonValue;

std::string_view lease_state_name(LeaseState state) noexcept {
  switch (state) {
    case LeaseState::kOpen: return "open";
    case LeaseState::kLeased: return "leased";
    case LeaseState::kDone: return "done";
  }
  return "open";
}

namespace {

[[nodiscard]] bool lease_state_from_name(std::string_view name,
                                         LeaseState& out) {
  constexpr LeaseState kAll[] = {LeaseState::kOpen, LeaseState::kLeased,
                                 LeaseState::kDone};
  for (const LeaseState s : kAll) {
    if (lease_state_name(s) == name) {
      out = s;
      return true;
    }
  }
  return false;
}

}  // namespace

// --- ShardGridIndex ----------------------------------------------------------

ShardGridIndex::Key ShardGridIndex::key_of(const std::string& module,
                                           const AxisPoint& point,
                                           std::uint32_t row_begin,
                                           std::uint32_t row_end) {
  Key key;
  key.module = module;
  key.vpp_mv = static_cast<std::int64_t>(vpp_millivolts(point.vpp_v));
  key.temp_mc = temperature_millidegrees(point.temperature_c);
  key.hammer_count = point.hammer_count;
  key.act_ps = act_to_act_picoseconds(point.act_to_act_ns);
  key.pattern_hash = point.pattern_hash;
  key.row_begin = row_begin;
  key.row_end = row_end;
  return key;
}

ShardGridIndex::ShardGridIndex(const std::vector<ShardCoord>& grid) {
  sorted_.reserve(grid.size());
  for (const ShardCoord& coord : grid) {
    sorted_.emplace_back(
        key_of(coord.module, coord.point, coord.row_begin, coord.row_end),
        &coord);
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

const ShardCoord* ShardGridIndex::find(const ManifestShard& shard) const {
  const Key key = key_of(shard.module, shard.point, shard.row_begin,
                         shard.row_end);
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [](const auto& entry, const Key& k) { return entry.first < k; });
  if (it == sorted_.end() || !(it->first == key)) return nullptr;
  return it->second;
}

// --- Lease ledger ------------------------------------------------------------

LeaseWorkerStats& CampaignLeaseLedger::worker_stats(const std::string& worker) {
  for (LeaseWorkerStats& stats : workers) {
    if (stats.worker == worker) return stats;
  }
  workers.push_back({worker, 0, 0, 0});
  return workers.back();
}

std::size_t CampaignLeaseLedger::expire_stale(std::int64_t now_ms) {
  std::size_t expired = 0;
  for (LeaseEntry& entry : entries) {
    if (entry.state != LeaseState::kLeased || entry.expires_at_ms > now_ms) {
      continue;
    }
    worker_stats(entry.worker).expired += 1;
    entry = LeaseEntry{};
    ++expired;
  }
  return expired;
}

CampaignLeaseLedger::Grant CampaignLeaseLedger::lease(
    const std::string& worker, std::size_t max_shards, std::int64_t now_ms,
    std::int64_t ttl_ms, const std::vector<std::size_t>* modules) {
  expire_stale(now_ms);

  // Candidate order. Canonical by default; module-affine when the caller
  // supplies the entry -> module map (three tiers, each canonical within
  // itself -- see the header). Affinity only reorders *which* open shards a
  // grant picks; disjointness and fencing are unchanged.
  std::vector<std::size_t> order;
  order.reserve(entries.size());
  const bool affine = modules != nullptr && !modules->empty() &&
                      modules->size() == entries.size();
  if (!affine) {
    for (std::size_t i = 0; i < entries.size(); ++i) order.push_back(i);
  } else {
    const std::size_t module_count =
        *std::max_element(modules->begin(), modules->end()) + 1;
    // 0 = this worker is on it, 1 = idle (no live lease by anyone else),
    // 2 = another worker is live on it.
    std::vector<std::uint8_t> tier(module_count, 1);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const LeaseEntry& entry = entries[i];
      const std::size_t m = (*modules)[i];
      if (entry.state == LeaseState::kLeased && entry.worker != worker) {
        if (tier[m] == 1) tier[m] = 2;
      } else if (entry.worker == worker &&
                 entry.state != LeaseState::kOpen) {
        tier[m] = 0;
      }
    }
    for (std::uint8_t want : {std::uint8_t{0}, std::uint8_t{1},
                              std::uint8_t{2}}) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (tier[(*modules)[i]] == want) order.push_back(i);
      }
    }
  }

  Grant grant;
  for (const std::size_t i : order) {
    if (max_shards != 0 && grant.shards.size() >= max_shards) break;
    if (entries[i].state != LeaseState::kOpen) continue;
    grant.shards.push_back(static_cast<std::uint64_t>(i));
  }
  if (grant.shards.empty()) return grant;
  std::sort(grant.shards.begin(), grant.shards.end());
  grant.token = next_token;
  apply_grant(worker, grant, now_ms + ttl_ms);
  return grant;
}

void CampaignLeaseLedger::apply_grant(const std::string& worker,
                                      const Grant& grant,
                                      std::int64_t expires_at_ms) {
  for (const std::uint64_t i : grant.shards) {
    LeaseEntry& entry = entries[static_cast<std::size_t>(i)];
    entry.state = LeaseState::kLeased;
    entry.worker = worker;
    entry.token = grant.token;
    entry.expires_at_ms = expires_at_ms;
  }
  next_token = std::max(next_token, grant.token + 1);
  worker_stats(worker).leased += grant.shards.size();
}

std::size_t CampaignLeaseLedger::renew(std::uint64_t token, std::int64_t now_ms,
                                       std::int64_t ttl_ms) {
  expire_stale(now_ms);
  std::size_t renewed = 0;
  for (LeaseEntry& entry : entries) {
    if (entry.state != LeaseState::kLeased || entry.token != token) continue;
    entry.expires_at_ms = now_ms + ttl_ms;
    ++renewed;
  }
  return renewed;
}

CampaignLeaseLedger::SubmitCheck CampaignLeaseLedger::check_submit(
    std::uint64_t index, std::uint64_t token) const {
  const LeaseEntry& entry = entries[static_cast<std::size_t>(index)];
  if (entry.state == LeaseState::kDone) return SubmitCheck::kDuplicate;
  if (entry.state == LeaseState::kLeased && token != 0 &&
      entry.token == token) {
    return SubmitCheck::kMergeable;
  }
  return SubmitCheck::kStale;
}

void CampaignLeaseLedger::mark_done(std::uint64_t index,
                                    const std::string& worker) {
  LeaseEntry& entry = entries[static_cast<std::size_t>(index)];
  entry.state = LeaseState::kDone;
  entry.worker = worker;
  entry.token = 0;
  entry.expires_at_ms = 0;
  worker_stats(worker).completed += 1;
}

bool CampaignLeaseLedger::reconcile_done(std::uint64_t index) {
  LeaseEntry& entry = entries[static_cast<std::size_t>(index)];
  if (entry.state == LeaseState::kDone) return false;
  entry.state = LeaseState::kDone;
  entry.token = 0;
  entry.expires_at_ms = 0;
  return true;
}

std::uint64_t CampaignLeaseLedger::count(LeaseState state) const {
  std::uint64_t n = 0;
  for (const LeaseEntry& entry : entries) {
    if (entry.state == state) ++n;
  }
  return n;
}

// --- Ledger serialization ----------------------------------------------------

common::JsonWriter campaign_ledger_json(const CampaignLeaseLedger& ledger) {
  common::JsonWriter json;
  json.begin_object();
  json.kv("schema", std::string(CampaignLeaseLedger::kSchemaPrefix) +
                        std::to_string(ledger.version));
  json.kv("phase", campaign_phase_name(ledger.phase));
  json.kv("plan_hash", u64_hex(ledger.plan_hash));
  json.kv("next_token", u64_hex(ledger.next_token));
  json.key("entries").begin_array();
  for (const LeaseEntry& entry : ledger.entries) {
    json.begin_object();
    json.kv("state", lease_state_name(entry.state));
    if (entry.state != LeaseState::kOpen) {
      json.kv("worker", entry.worker);
    }
    if (entry.state == LeaseState::kLeased) {
      json.kv("token", u64_hex(entry.token));
      json.kv("expires_at_ms", entry.expires_at_ms);
    }
    json.end_object();
  }
  json.end_array();
  json.key("workers").begin_array();
  for (const LeaseWorkerStats& stats : ledger.workers) {
    json.begin_object();
    json.kv("name", stats.worker);
    json.kv("leased", stats.leased);
    json.kv("completed", stats.completed);
    json.kv("expired", stats.expired);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json;
}

common::Result<CampaignLeaseLedger> parse_campaign_ledger(
    const JsonValue& doc) {
  const auto fail = [](std::string what) {
    return Error{ErrorCode::kParseError,
                 "campaign lease ledger: " + std::move(what)};
  };
  if (!doc.is_object()) return fail("document is not an object");
  const std::string schema = doc.string_or("schema", "");
  if (schema.rfind(CampaignLeaseLedger::kSchemaPrefix, 0) != 0) {
    return fail("unrecognized schema '" + schema + "'");
  }
  CampaignLeaseLedger ledger;
  ledger.version = std::atoi(
      schema.substr(CampaignLeaseLedger::kSchemaPrefix.size()).c_str());
  if (ledger.version != CampaignLeaseLedger::kVersion) {
    return fail("unsupported version " + std::to_string(ledger.version));
  }
  if (!campaign_phase_from_name(doc.string_or("phase", ""), ledger.phase)) {
    return fail("unknown phase '" + doc.string_or("phase", "") + "'");
  }
  if (!parse_u64_hex(doc.string_or("plan_hash", ""), ledger.plan_hash)) {
    return fail("missing or malformed plan_hash");
  }
  if (!parse_u64_hex(doc.string_or("next_token", ""), ledger.next_token)) {
    return fail("missing or malformed next_token");
  }
  if (ledger.next_token == 0) return fail("next_token must be nonzero");
  const JsonValue* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return fail("missing 'entries' array");
  }
  for (const JsonValue& item : entries->items()) {
    if (!item.is_object()) return fail("entry is not an object");
    LeaseEntry entry;
    if (!lease_state_from_name(item.string_or("state", ""), entry.state)) {
      return fail("entry has unknown state '" + item.string_or("state", "") +
                  "'");
    }
    entry.worker = item.string_or("worker", "");
    if (entry.state == LeaseState::kLeased) {
      if (!parse_u64_hex(item.string_or("token", ""), entry.token) ||
          entry.token == 0) {
        return fail("leased entry missing token");
      }
      entry.expires_at_ms =
          static_cast<std::int64_t>(item.number_or("expires_at_ms", 0.0));
    }
    ledger.entries.push_back(std::move(entry));
  }
  if (const JsonValue* workers = doc.find("workers")) {
    for (const JsonValue& item : workers->items()) {
      if (!item.is_object()) return fail("worker entry is not an object");
      LeaseWorkerStats stats;
      stats.worker = item.string_or("name", "");
      if (stats.worker.empty()) return fail("worker entry missing name");
      stats.leased = item.uint_or("leased", 0);
      stats.completed = item.uint_or("completed", 0);
      stats.expired = item.uint_or("expired", 0);
      ledger.workers.push_back(std::move(stats));
    }
  }
  return ledger;
}

// --- Ledger journal ----------------------------------------------------------

namespace {

constexpr std::string_view kLeaseEventNames[] = {"grant", "renew", "done",
                                                 "reconcile"};

common::Result<CampaignLeaseLedger> replay_campaign_ledger(
    const common::JournalContents& journal) {
  VPP_ASSIGN_OR_RETURN(JsonValue header, common::parse_json(journal.header));
  VPP_ASSIGN_OR_RETURN(CampaignLeaseLedger ledger,
                       parse_campaign_ledger(header));
  for (const std::string& text : journal.records) {
    VPP_ASSIGN_OR_RETURN(JsonValue doc, common::parse_json(text));
    LeaseEvent event;
    const std::string op = doc.string_or("op", "");
    const auto* name = std::find(std::begin(kLeaseEventNames),
                                 std::end(kLeaseEventNames), op);
    if (name == std::end(kLeaseEventNames)) {
      return Error{ErrorCode::kParseError,
                   "campaign lease ledger: unknown event '" + op + "'"};
    }
    event.kind =
        static_cast<LeaseEvent::Kind>(name - std::begin(kLeaseEventNames));
    event.now_ms = static_cast<std::int64_t>(doc.number_or("now_ms", 0.0));
    event.worker = doc.string_or("worker", "");
    (void)parse_u64_hex(doc.string_or("token", ""), event.token);
    event.ttl_ms = static_cast<std::int64_t>(doc.number_or("ttl_ms", 0.0));
    if (const JsonValue* shards = doc.find("shards")) {
      for (const JsonValue& v : shards->items()) {
        event.shards.push_back(static_cast<std::uint64_t>(v.as_number()));
      }
    }
    VPP_RETURN_IF_ERROR(apply_lease_event(ledger, event));
  }
  return ledger;
}

}  // namespace

std::string lease_event_record(const LeaseEvent& event) {
  common::JsonWriter json;
  json.begin_object();
  json.kv("op", kLeaseEventNames[static_cast<std::size_t>(event.kind)]);
  json.kv("now_ms", event.now_ms);
  if (!event.worker.empty()) json.kv("worker", event.worker);
  if (event.token != 0) json.kv("token", u64_hex(event.token));
  if (event.ttl_ms != 0) json.kv("ttl_ms", event.ttl_ms);
  json.key("shards").begin_array();
  for (const std::uint64_t i : event.shards) json.value(i);
  json.end_array();
  json.end_object();
  return json.str();
}

common::Status apply_lease_event(CampaignLeaseLedger& ledger,
                                 const LeaseEvent& event) {
  for (const std::uint64_t i : event.shards) {
    if (i >= ledger.entries.size()) {
      return Error{ErrorCode::kParseError,
                   "campaign lease ledger event names shard " +
                       std::to_string(i) + " outside the grid"};
    }
  }
  switch (event.kind) {
    case LeaseEvent::Kind::kGrant:
      if (event.token == 0 || event.shards.empty()) {
        return Error{ErrorCode::kParseError,
                     "campaign lease ledger grant without token or shards"};
      }
      ledger.expire_stale(event.now_ms);
      ledger.apply_grant(event.worker, {event.token, event.shards},
                         event.now_ms + event.ttl_ms);
      break;
    case LeaseEvent::Kind::kRenew:
      (void)ledger.renew(event.token, event.now_ms, event.ttl_ms);
      break;
    case LeaseEvent::Kind::kDone:
      ledger.expire_stale(event.now_ms);
      for (const std::uint64_t i : event.shards) {
        ledger.mark_done(i, event.worker);
      }
      break;
    case LeaseEvent::Kind::kReconcile:
      for (const std::uint64_t i : event.shards) {
        (void)ledger.reconcile_done(i);
      }
      break;
  }
  return common::Status::ok_status();
}

common::Result<CampaignLeaseLedger> load_campaign_ledger(
    const std::string& path) {
  VPP_ASSIGN_OR_RETURN(common::JournalContents journal,
                       common::read_journal(path));
  return replay_campaign_ledger(journal);
}

common::Result<common::JournalWriter> open_campaign_ledger(
    const std::string& path, CampaignLeaseLedger& ledger) {
  common::JournalContents journal;
  VPP_ASSIGN_OR_RETURN(common::JournalWriter writer,
                       common::JournalWriter::open_for_append(path, journal));
  VPP_ASSIGN_OR_RETURN(ledger, replay_campaign_ledger(journal));
  return writer;
}

common::Result<common::JournalWriter> write_campaign_ledger(
    const std::string& path, const CampaignLeaseLedger& ledger) {
  return common::JournalWriter::create(path, campaign_ledger_json(ledger).str());
}

std::string campaign_ledger_path(const std::string& manifest_path) {
  return manifest_path + ".leases.json";
}

// --- Partial-manifest merge --------------------------------------------------

common::Result<ShardMergeOutcome> merge_campaign_shards(
    CampaignManifest& manifest, const std::vector<ShardCoord>& grid,
    std::uint64_t submitted_plan_hash, const std::vector<ManifestWcdp>& wcdp,
    const std::vector<ManifestShard>& shards) {
  const auto reject = [](std::string what) {
    return Error{ErrorCode::kInvalidArgument,
                 "campaign merge: " + std::move(what) + "; nothing merged"};
  };
  if (submitted_plan_hash != manifest.plan_hash) {
    return reject("plan hash mismatch (submission is for a different "
                  "campaign)");
  }
  const ShardGridIndex index(grid);

  // Validate the whole batch before touching the manifest.
  const auto module_pos =
      [&manifest](const std::string& name) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < manifest.modules.size(); ++i) {
      if (manifest.modules[i].first == name) {
        return static_cast<std::ptrdiff_t>(i);
      }
    }
    return -1;
  };
  std::vector<const ShardCoord*> coords;
  coords.reserve(shards.size());
  for (const ManifestShard& shard : shards) {
    const ShardCoord* coord = index.find(shard);
    if (coord == nullptr) {
      return reject("shard record (module=" + shard.module +
                    ") is not a cell of this campaign");
    }
    coords.push_back(coord);
  }
  std::vector<std::ptrdiff_t> wcdp_pos;
  wcdp_pos.reserve(wcdp.size());
  for (const ManifestWcdp& record : wcdp) {
    const std::ptrdiff_t pos = module_pos(record.module);
    if (pos < 0) {
      return reject("wcdp record names unknown module '" + record.module +
                    "'");
    }
    wcdp_pos.push_back(pos);
  }
  // Existing records must map too (a record that does not is a corrupt or
  // foreign manifest -- refuse to merge into it).
  std::vector<std::uint64_t> existing;
  existing.reserve(manifest.shards.size());
  for (const ManifestShard& shard : manifest.shards) {
    const ShardCoord* coord = index.find(shard);
    if (coord == nullptr) {
      return reject("existing manifest record (module=" + shard.module +
                    ") is not a cell of this campaign");
    }
    existing.push_back(coord->index);
  }

  ShardMergeOutcome outcome;
  // WCDP preps: first-wins per module, kept in module plan order.
  for (std::size_t i = 0; i < wcdp.size(); ++i) {
    bool present = false;
    for (const ManifestWcdp& have : manifest.wcdp) {
      if (have.module == wcdp[i].module) {
        present = true;
        break;
      }
    }
    if (present) continue;
    outcome.new_wcdp.push_back(i);
    std::size_t at = manifest.wcdp.size();
    for (std::size_t j = 0; j < manifest.wcdp.size(); ++j) {
      if (module_pos(manifest.wcdp[j].module) > wcdp_pos[i]) {
        at = j;
        break;
      }
    }
    manifest.wcdp.insert(
        manifest.wcdp.begin() + static_cast<std::ptrdiff_t>(at), wcdp[i]);
  }
  // Shards: insert in canonical grid order; already-present indices are
  // idempotent duplicates.
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::uint64_t at_index = coords[i]->index;
    const auto it =
        std::lower_bound(existing.begin(), existing.end(), at_index);
    if (it != existing.end() && *it == at_index) {
      ++outcome.duplicates;
      continue;
    }
    const auto pos = it - existing.begin();
    existing.insert(it, at_index);
    manifest.shards.insert(manifest.shards.begin() + pos, shards[i]);
    outcome.new_shards.push_back(i);
    ++outcome.accepted;
  }
  return outcome;
}

}  // namespace vppstudy::core
