// Distribution-primitive contract tests: the canonical shard grid, the
// lease ledger's fencing/expiry state machine (driven by explicit now_ms,
// no clocks), the partial-manifest merge's edge cases (stale token,
// idempotent duplicates, out-of-order arrival, plan-hash mismatch), and
// run_campaign_shards equivalence against the single-host engine.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "core/export.hpp"

namespace vppstudy::core {
namespace {

using common::ErrorCode;

CampaignPlan small_plan(std::uint64_t seed = 7) {
  CampaignPlan plan;
  plan.sweep.vpp_levels = {2.5, 2.1, 1.7};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.sweep.hammer.num_iterations = 1;
  plan.sweep.trcd.num_iterations = 1;
  plan.sweep.retention.num_iterations = 1;
  plan.modules = {chips::profile_by_name("B3").value(),
                  chips::profile_by_name("A0").value()};
  plan.seed = seed;
  plan.jobs = 2;
  plan.rows_per_shard = 2;
  return plan;
}

/// A fresh spec-only manifest for `plan`, the way a coordinator starts one.
CampaignManifest spec_manifest(const CampaignPlan& plan, JobPhase phase,
                               std::uint64_t planned_shards) {
  CampaignManifest m;
  m.phase = phase;
  m.plan_hash = plan.digest(phase);
  m.sweep = plan.sweep;
  m.axes = plan.axes;
  m.seed = plan.seed;
  m.rows_per_shard = plan.rows_per_shard;
  for (const dram::ModuleProfile& mod : plan.modules) {
    m.modules.emplace_back(mod.name, mod.rows_per_bank);
  }
  m.planned_shards = planned_shards;
  return m;
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "campaign_lease_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

// --- Canonical shard grid ----------------------------------------------------

TEST(CampaignShardGrid, CompilesModuleMajorCanonicalOrder) {
  const CampaignPlan plan = small_plan();
  auto grid = compile_campaign_shards(plan, JobPhase::kRowHammer);
  ASSERT_TRUE(grid.has_value()) << grid.error().to_string();
  ASSERT_FALSE(grid->empty());

  // Flat indices are dense and match vector position; modules appear in
  // plan order, each module's cells grouped (module-major).
  std::vector<std::string> module_order;
  for (std::size_t i = 0; i < grid->size(); ++i) {
    EXPECT_EQ((*grid)[i].index, i);
    EXPECT_LT((*grid)[i].row_begin, (*grid)[i].row_end);
    if (module_order.empty() || module_order.back() != (*grid)[i].module) {
      module_order.push_back((*grid)[i].module);
    }
  }
  EXPECT_EQ(module_order, (std::vector<std::string>{"B3", "A0"}));
}

TEST(CampaignShardGrid, IndexMapsRecordsBackToCells) {
  const CampaignPlan plan = small_plan();
  auto grid = compile_campaign_shards(plan, JobPhase::kRowHammer);
  ASSERT_TRUE(grid.has_value());
  const ShardGridIndex index(*grid);

  for (const ShardCoord& cell : *grid) {
    ManifestShard record;
    record.module = cell.module;
    record.point = cell.point;
    record.row_begin = cell.row_begin;
    record.row_end = cell.row_end;
    const ShardCoord* found = index.find(record);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->index, cell.index);
  }

  // A record that names no cell of this grid maps to nothing.
  ManifestShard alien;
  alien.module = "B3";
  alien.point = (*grid)[0].point;
  alien.row_begin = 9999;
  alien.row_end = 10001;
  EXPECT_EQ(index.find(alien), nullptr);
}

// --- Lease ledger state machine ---------------------------------------------

CampaignLeaseLedger small_ledger(std::size_t shards = 6) {
  CampaignLeaseLedger ledger;
  ledger.phase = JobPhase::kRowHammer;
  ledger.plan_hash = 0xabcdef;
  ledger.entries.resize(shards);
  return ledger;
}

TEST(CampaignLeaseLedger, LeasesDisjointCanonicalSubsets) {
  CampaignLeaseLedger ledger = small_ledger(6);
  const auto a = ledger.lease("alice", 4, /*now_ms=*/100, /*ttl_ms=*/1000);
  const auto b = ledger.lease("bob", 4, /*now_ms=*/100, /*ttl_ms=*/1000);
  ASSERT_NE(a.token, 0u);
  ASSERT_NE(b.token, 0u);
  EXPECT_LT(a.token, b.token);  // tokens strictly increase
  EXPECT_EQ(a.shards, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(b.shards, (std::vector<std::uint64_t>{4, 5}));

  // Nothing open: an empty grant with token 0, not a partial regrant.
  const auto c = ledger.lease("carol", 4, /*now_ms=*/100, /*ttl_ms=*/1000);
  EXPECT_EQ(c.token, 0u);
  EXPECT_TRUE(c.shards.empty());
  EXPECT_EQ(ledger.count(LeaseState::kLeased), 6u);
}

TEST(CampaignLeaseLedger, ModuleAffinityKeepsWorkersOnDisjointModules) {
  // 8 shards over two modules: entries 0-2 are module 0, 3-7 module 1.
  CampaignLeaseLedger ledger = small_ledger(8);
  const std::vector<std::size_t> modules{0, 0, 0, 1, 1, 1, 1, 1};

  // The first worker starts at the canonical front (module 0); the second
  // skips to the idle module instead of queueing behind the first -- so
  // each module's WCDP prep runs on exactly one worker.
  const auto a = ledger.lease("alice", 2, /*now_ms=*/0, /*ttl_ms=*/1000,
                              &modules);
  EXPECT_EQ(a.shards, (std::vector<std::uint64_t>{0, 1}));
  const auto b = ledger.lease("bob", 2, /*now_ms=*/0, /*ttl_ms=*/1000,
                              &modules);
  EXPECT_EQ(b.shards, (std::vector<std::uint64_t>{3, 4}));

  // Affinity is sticky: each worker continues its own module, whether its
  // earlier shards are still leased or already done.
  ledger.mark_done(0, "alice");
  ledger.mark_done(1, "alice");
  const auto a2 = ledger.lease("alice", 1, /*now_ms=*/0, /*ttl_ms=*/1000,
                               &modules);
  EXPECT_EQ(a2.shards, (std::vector<std::uint64_t>{2}));
  const auto b2 = ledger.lease("bob", 2, /*now_ms=*/0, /*ttl_ms=*/1000,
                               &modules);
  EXPECT_EQ(b2.shards, (std::vector<std::uint64_t>{5, 6}));

  // Once a worker's own modules are exhausted and no idle module remains,
  // it helps finish the contended one rather than going idle.
  ledger.mark_done(2, "alice");
  const auto a3 = ledger.lease("alice", 4, /*now_ms=*/0, /*ttl_ms=*/1000,
                               &modules);
  EXPECT_EQ(a3.shards, (std::vector<std::uint64_t>{7}));

  // Leases stay disjoint under affinity; without a module map the same
  // ledger state grants in plain canonical order.
  EXPECT_EQ(ledger.count(LeaseState::kOpen), 0u);
}

TEST(CampaignLeaseLedger, ExpiryReopensSharesAndCountsAgainstHolder) {
  CampaignLeaseLedger ledger = small_ledger(4);
  const auto grant = ledger.lease("alice", 4, /*now_ms=*/0, /*ttl_ms=*/500);
  ASSERT_EQ(grant.shards.size(), 4u);

  // Before the deadline nothing expires; at it (inclusive) everything
  // reopens and the holder's expired count grows.
  EXPECT_EQ(ledger.expire_stale(/*now_ms=*/499), 0u);
  EXPECT_EQ(ledger.expire_stale(/*now_ms=*/500), 4u);
  EXPECT_EQ(ledger.count(LeaseState::kOpen), 4u);
  ASSERT_EQ(ledger.workers.size(), 1u);
  EXPECT_EQ(ledger.workers[0].worker, "alice");
  EXPECT_EQ(ledger.workers[0].leased, 4u);
  EXPECT_EQ(ledger.workers[0].expired, 4u);
  EXPECT_EQ(ledger.workers[0].completed, 0u);

  // Re-leased under a fresh token: the old token is now stale for these
  // shards, the new one mergeable.
  const auto regrant = ledger.lease("bob", 4, /*now_ms=*/600, /*ttl_ms=*/500);
  ASSERT_NE(regrant.token, 0u);
  EXPECT_NE(regrant.token, grant.token);
  EXPECT_EQ(ledger.check_submit(0, grant.token),
            CampaignLeaseLedger::SubmitCheck::kStale);
  EXPECT_EQ(ledger.check_submit(0, regrant.token),
            CampaignLeaseLedger::SubmitCheck::kMergeable);
}

TEST(CampaignLeaseLedger, RenewExtendsOnlyLiveTokens) {
  CampaignLeaseLedger ledger = small_ledger(3);
  const auto grant = ledger.lease("alice", 2, /*now_ms=*/0, /*ttl_ms=*/100);
  ASSERT_EQ(grant.shards.size(), 2u);

  // Renewed before expiry: the deadline moves, so a probe past the original
  // deadline no longer expires anything.
  EXPECT_EQ(ledger.renew(grant.token, /*now_ms=*/90, /*ttl_ms=*/1000), 2u);
  EXPECT_EQ(ledger.expire_stale(/*now_ms=*/500), 0u);

  // A token that holds nothing renews nothing.
  EXPECT_EQ(ledger.renew(grant.token + 99, /*now_ms=*/90, /*ttl_ms=*/1000),
            0u);
  EXPECT_EQ(ledger.expire_stale(/*now_ms=*/2000), 2u);
  EXPECT_EQ(ledger.renew(grant.token, /*now_ms=*/2000, /*ttl_ms=*/1000), 0u);
}

TEST(CampaignLeaseLedger, MarkDoneIsTerminal) {
  CampaignLeaseLedger ledger = small_ledger(2);
  const auto grant = ledger.lease("alice", 1, /*now_ms=*/0, /*ttl_ms=*/100);
  ledger.mark_done(grant.shards[0], "alice");
  EXPECT_EQ(ledger.check_submit(grant.shards[0], grant.token),
            CampaignLeaseLedger::SubmitCheck::kDuplicate);
  // Done shards never expire back to open.
  EXPECT_EQ(ledger.expire_stale(/*now_ms=*/10000), 0u);
  EXPECT_EQ(ledger.count(LeaseState::kDone), 1u);
  EXPECT_FALSE(ledger.complete());
  ledger.mark_done(1, "bob");
  EXPECT_TRUE(ledger.complete());
}

TEST(CampaignLeaseLedger, JsonRoundTripPreservesEveryField) {
  CampaignLeaseLedger ledger = small_ledger(3);
  ledger.plan_hash = 0xfeedbeefcafe0123ull;
  const auto grant = ledger.lease("alice", 1, /*now_ms=*/42, /*ttl_ms=*/100);
  ledger.mark_done(grant.shards[0], "alice");
  (void)ledger.lease("bob", 1, /*now_ms=*/50, /*ttl_ms=*/100);

  const std::string path = temp_path("roundtrip");
  ASSERT_TRUE(write_campaign_ledger(path, ledger));
  auto loaded = load_campaign_ledger(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().to_string();
  std::remove(path.c_str());

  EXPECT_EQ(loaded->version, ledger.version);
  EXPECT_EQ(loaded->phase, ledger.phase);
  EXPECT_EQ(loaded->plan_hash, ledger.plan_hash);
  EXPECT_EQ(loaded->next_token, ledger.next_token);
  ASSERT_EQ(loaded->entries.size(), ledger.entries.size());
  for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
    EXPECT_EQ(loaded->entries[i].state, ledger.entries[i].state);
    EXPECT_EQ(loaded->entries[i].worker, ledger.entries[i].worker);
    EXPECT_EQ(loaded->entries[i].token, ledger.entries[i].token);
    EXPECT_EQ(loaded->entries[i].expires_at_ms, ledger.entries[i].expires_at_ms);
  }
  ASSERT_EQ(loaded->workers.size(), ledger.workers.size());
  for (std::size_t w = 0; w < ledger.workers.size(); ++w) {
    EXPECT_EQ(loaded->workers[w].worker, ledger.workers[w].worker);
    EXPECT_EQ(loaded->workers[w].leased, ledger.workers[w].leased);
    EXPECT_EQ(loaded->workers[w].completed, ledger.workers[w].completed);
    EXPECT_EQ(loaded->workers[w].expired, ledger.workers[w].expired);
  }

  // Serialization is deterministic: re-encoding the loaded ledger
  // reproduces the original bytes.
  EXPECT_EQ(campaign_ledger_json(*loaded).str(),
            campaign_ledger_json(ledger).str());
}

TEST(CampaignLeaseLedger, LedgerPathSitsBesideManifest) {
  EXPECT_EQ(campaign_ledger_path("/tmp/run.json"), "/tmp/run.json.leases.json");
}

// --- Partial-manifest merge --------------------------------------------------

struct MergeFixtureState {
  CampaignPlan plan;
  std::vector<ShardCoord> grid;
  CampaignManifest manifest;
  CampaignShardBatch batch;  ///< every shard of the grid, computed fresh
};

MergeFixtureState make_merge_fixture() {
  MergeFixtureState s;
  s.plan = small_plan();
  auto grid = compile_campaign_shards(s.plan, JobPhase::kRowHammer);
  EXPECT_TRUE(grid.has_value());
  s.grid = *grid;
  s.manifest = spec_manifest(s.plan, JobPhase::kRowHammer, s.grid.size());
  std::vector<std::uint64_t> all(s.grid.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto batch =
      run_campaign_shards(s.plan, JobPhase::kRowHammer, all, nullptr);
  EXPECT_TRUE(batch.has_value());
  s.batch = *std::move(batch);
  return s;
}

TEST(CampaignShardMerge, DuplicateRecordsAreIdempotent) {
  MergeFixtureState s = make_merge_fixture();
  const std::uint64_t hash = s.manifest.plan_hash;

  auto first = merge_campaign_shards(s.manifest, s.grid, hash, s.batch.wcdp,
                                     s.batch.shards);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  EXPECT_EQ(first->accepted, s.grid.size());
  EXPECT_EQ(first->duplicates, 0u);
  const std::string merged_once = campaign_manifest_json(s.manifest).str();

  // The exact same batch again: all duplicates, manifest bytes untouched.
  auto again = merge_campaign_shards(s.manifest, s.grid, hash, s.batch.wcdp,
                                     s.batch.shards);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->accepted, 0u);
  EXPECT_EQ(again->duplicates, s.grid.size());
  EXPECT_EQ(campaign_manifest_json(s.manifest).str(), merged_once);
}

TEST(CampaignShardMerge, OutOfOrderArrivalStillAssemblesCanonically) {
  MergeFixtureState s = make_merge_fixture();
  const std::uint64_t hash = s.manifest.plan_hash;

  // Reference: merge everything in canonical order at once.
  CampaignManifest in_order =
      spec_manifest(s.plan, JobPhase::kRowHammer, s.grid.size());
  auto ref = merge_campaign_shards(in_order, s.grid, hash, s.batch.wcdp,
                                   s.batch.shards);
  ASSERT_TRUE(ref.has_value());

  // Adversarial arrival: one record per submit, highest index first, wcdp
  // records delivered with the *last* batch.
  for (std::size_t i = s.batch.shards.size(); i-- > 0;) {
    const std::vector<ManifestShard> one = {s.batch.shards[i]};
    const std::vector<ManifestWcdp> wcdp =
        (i == 0) ? s.batch.wcdp : std::vector<ManifestWcdp>{};
    auto merged = merge_campaign_shards(s.manifest, s.grid, hash, wcdp, one);
    ASSERT_TRUE(merged.has_value()) << merged.error().to_string();
    EXPECT_EQ(merged->accepted, 1u);
  }
  EXPECT_EQ(campaign_manifest_json(s.manifest).str(),
            campaign_manifest_json(in_order).str());
}

TEST(CampaignShardMerge, PlanHashMismatchMergesNothing) {
  MergeFixtureState s = make_merge_fixture();
  const std::string before = campaign_manifest_json(s.manifest).str();

  auto merged = merge_campaign_shards(s.manifest, s.grid,
                                      s.manifest.plan_hash ^ 1, s.batch.wcdp,
                                      s.batch.shards);
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(merged.error().message.find("nothing merged"), std::string::npos)
      << merged.error().message;
  EXPECT_EQ(campaign_manifest_json(s.manifest).str(), before);
}

TEST(CampaignShardMerge, OffGridRecordRejectsWholeBatch) {
  MergeFixtureState s = make_merge_fixture();
  const std::uint64_t hash = s.manifest.plan_hash;
  const std::string before = campaign_manifest_json(s.manifest).str();

  // One tampered record poisons the batch: even the valid records ahead of
  // it must not land (all-or-nothing validation).
  std::vector<ManifestShard> batch = s.batch.shards;
  batch.back().row_end = batch.back().row_begin + 9999;
  auto merged =
      merge_campaign_shards(s.manifest, s.grid, hash, s.batch.wcdp, batch);
  ASSERT_FALSE(merged.has_value());
  EXPECT_EQ(merged.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(merged.error().message.find("nothing merged"), std::string::npos)
      << merged.error().message;
  EXPECT_EQ(campaign_manifest_json(s.manifest).str(), before);
}

// --- Shard-subset execution vs the single-host engine ------------------------

TEST(CampaignShardRun, DisjointSubsetsMergeToSingleHostResult) {
  const CampaignPlan plan = small_plan();
  auto grid = compile_campaign_shards(plan, JobPhase::kRowHammer);
  ASSERT_TRUE(grid.has_value());
  CampaignManifest manifest =
      spec_manifest(plan, JobPhase::kRowHammer, grid->size());

  // Two "workers" split the grid interleaved (worst case for locality),
  // each computing its half independently.
  std::vector<std::uint64_t> even, odd;
  for (std::uint64_t i = 0; i < grid->size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(i);
  }
  for (const auto* subset : {&even, &odd}) {
    auto batch =
        run_campaign_shards(plan, JobPhase::kRowHammer, *subset, nullptr);
    ASSERT_TRUE(batch.has_value()) << batch.error().to_string();
    for (const ManifestShard& shard : batch->shards) {
      EXPECT_TRUE(shard.counted);  // disjoint leases always compute fresh
    }
    auto merged = merge_campaign_shards(manifest, *grid, manifest.plan_hash,
                                        batch->wcdp, batch->shards);
    ASSERT_TRUE(merged.has_value()) << merged.error().to_string();
    EXPECT_EQ(merged->accepted, subset->size());
  }
  ASSERT_EQ(manifest.shards.size(), grid->size());

  // Resuming the engine over the merged manifest (zero fresh compute) must
  // reproduce the single-host grids byte for byte.
  const std::string path = temp_path("merged");
  ASSERT_TRUE(write_campaign_manifest(path, manifest));
  CampaignPlan resume_plan = small_plan();
  resume_plan.manifest_path = path;
  CampaignEngine resumed(std::move(resume_plan));
  auto merged_grids = resumed.run_hammer();
  ASSERT_TRUE(merged_grids.has_value()) << merged_grids.error().to_string();
  std::remove(path.c_str());
  std::remove(campaign_ledger_path(path).c_str());

  CampaignEngine single(small_plan());
  auto single_grids = single.run_hammer();
  ASSERT_TRUE(single_grids.has_value());
  ASSERT_EQ(merged_grids->size(), single_grids->size());
  for (std::size_t m = 0; m < single_grids->size(); ++m) {
    EXPECT_EQ(grid_json((*merged_grids)[m]).str(),
              grid_json((*single_grids)[m]).str());
  }
}

}  // namespace
}  // namespace vppstudy::core
