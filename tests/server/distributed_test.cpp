// Distributed-campaign suites: coordinator fencing and crash-restart
// reconciliation (explicit now_ms, no sleeping), the lease/submit/heartbeat
// verbs over a real loopback daemon, two-worker byte-identity against the
// single-host engine, and the result cache's LRU bound.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "core/export.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/result_cache.hpp"
#include "server/server.hpp"
#include "server/worker.hpp"

namespace vppstudy::server {
namespace {

using common::ErrorCode;
using core::JobPhase;

core::CampaignPlan small_plan(std::uint64_t seed = 11) {
  core::CampaignPlan plan;
  plan.sweep.vpp_levels = {2.5, 2.1, 1.7};
  plan.sweep.sampling.chunks = 2;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.sweep.hammer.num_iterations = 1;
  plan.sweep.trcd.num_iterations = 1;
  plan.sweep.retention.num_iterations = 1;
  plan.modules = {chips::profile_by_name("B3").value()};
  plan.seed = seed;
  plan.jobs = 1;
  plan.rows_per_shard = 2;
  return plan;
}

std::string temp_manifest(const char* tag) {
  return ::testing::TempDir() + "distributed_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

void remove_campaign_files(const std::string& manifest_path) {
  std::remove(manifest_path.c_str());
  std::remove(core::campaign_ledger_path(manifest_path).c_str());
}

/// The grid-shard batch a worker would compute for `indices`.
core::CampaignShardBatch compute_batch(
    const core::CampaignPlan& plan, const std::vector<std::uint64_t>& indices) {
  auto batch =
      core::run_campaign_shards(plan, JobPhase::kRowHammer, indices, nullptr);
  EXPECT_TRUE(batch.has_value())
      << (batch ? "" : batch.error().to_string());
  return batch ? *std::move(batch) : core::CampaignShardBatch{};
}

// --- Coordinator fencing (in-memory, explicit clocks) ------------------------

TEST(ServerCoordinator, StaleTokenSubmitRejectedAndNothingMerged) {
  auto coordinator =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, "");
  ASSERT_TRUE(coordinator.has_value()) << coordinator.error().to_string();
  CampaignCoordinator& coord = **coordinator;

  auto slow = coord.lease("slow", 2, /*ttl_ms=*/100, /*now_ms=*/0);
  ASSERT_TRUE(slow.has_value());
  ASSERT_EQ(slow->shards.size(), 2u);
  const core::CampaignShardBatch batch = compute_batch(
      small_plan(), slow->shards);

  // The lease expires; the same shards are re-granted to a faster worker
  // under a new fencing token.
  auto fast = coord.lease("fast", 2, /*ttl_ms=*/100, /*now_ms=*/200);
  ASSERT_TRUE(fast.has_value());
  EXPECT_EQ(fast->shards, slow->shards);
  EXPECT_NE(fast->token, slow->token);

  // The slow worker's late submission is rejected with the typed error and
  // merges nothing -- even though (by determinism) its bytes match.
  auto late = coord.submit("slow", slow->token, coord.plan_hash(), batch.wcdp,
                           batch.shards, /*now_ms=*/250);
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error().code, ErrorCode::kLeaseExpired);
  EXPECT_NE(late.error().message.find("nothing merged"), std::string::npos);
  EXPECT_EQ(coord.status().done, 0u);

  // The holder of the live token submits the identical records and wins.
  auto merged = coord.submit("fast", fast->token, coord.plan_hash(),
                             batch.wcdp, batch.shards, /*now_ms=*/260);
  ASSERT_TRUE(merged.has_value()) << merged.error().to_string();
  EXPECT_EQ(merged->accepted, 2u);
  EXPECT_EQ(coord.status().done, 2u);

  const auto stats = coord.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].worker, "slow");
  EXPECT_EQ(stats[0].expired, 2u);
  EXPECT_EQ(stats[0].completed, 0u);
  EXPECT_EQ(stats[1].worker, "fast");
  EXPECT_EQ(stats[1].completed, 2u);
}

TEST(ServerCoordinator, GrantsCarryMergedWcdpPreps) {
  auto coordinator =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, "");
  ASSERT_TRUE(coordinator.has_value()) << coordinator.error().to_string();
  CampaignCoordinator& coord = **coordinator;

  // Before anything is merged there is no prep to ship.
  auto first = coord.lease("w1", 2, /*ttl_ms=*/1000, /*now_ms=*/0);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->wcdp.empty());

  // The first submitted batch carries the module's WCDP prep; every grant
  // after the merge ships it, so a second worker seeds its memo instead of
  // recomputing the prep.
  const core::CampaignShardBatch batch =
      compute_batch(small_plan(), first->shards);
  ASSERT_FALSE(batch.wcdp.empty());
  auto merged = coord.submit("w1", first->token, coord.plan_hash(),
                             batch.wcdp, batch.shards, /*now_ms=*/10);
  ASSERT_TRUE(merged.has_value()) << merged.error().to_string();

  auto second = coord.lease("w2", 2, /*ttl_ms=*/1000, /*now_ms=*/20);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->wcdp.size(), 1u);
  EXPECT_EQ(second->wcdp[0].module, "B3");
  EXPECT_EQ(second->wcdp[0].wcdp, batch.wcdp[0].wcdp);
}

TEST(ServerCoordinator, WrongPlanHashIsTypedAndAtomic) {
  auto coordinator =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, "");
  ASSERT_TRUE(coordinator.has_value());
  CampaignCoordinator& coord = **coordinator;

  auto grant = coord.lease("w", 2, /*ttl_ms=*/1000, /*now_ms=*/0);
  ASSERT_TRUE(grant.has_value());
  const core::CampaignShardBatch batch =
      compute_batch(small_plan(), grant->shards);

  auto wrong = coord.submit("w", grant->token, coord.plan_hash() ^ 1,
                            batch.wcdp, batch.shards, /*now_ms=*/10);
  ASSERT_FALSE(wrong.has_value());
  EXPECT_EQ(wrong.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(wrong.error().message.find("nothing merged"), std::string::npos);
  EXPECT_EQ(coord.status().done, 0u);

  // Nothing was consumed: the same token still merges.
  auto merged = coord.submit("w", grant->token, coord.plan_hash(), batch.wcdp,
                             batch.shards, /*now_ms=*/20);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->accepted, grant->shards.size());
}

TEST(ServerCoordinator, HeartbeatExtendsUntilExpiry) {
  auto coordinator =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, "");
  ASSERT_TRUE(coordinator.has_value());
  CampaignCoordinator& coord = **coordinator;

  // Lease every shard (max_shards 0 = all open) so the probe below can only
  // be fed by expiry.
  auto grant = coord.lease("w", 0, /*ttl_ms=*/100, /*now_ms=*/0);
  ASSERT_TRUE(grant.has_value());
  const std::uint64_t planned = coord.status().planned;
  ASSERT_EQ(grant->shards.size(), planned);

  // Renewed at 90: the deadline moves to 1090, so at 150 nothing is open
  // for a second worker.
  auto renewed = coord.heartbeat(grant->token, /*ttl_ms=*/1000, /*now_ms=*/90);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_EQ(*renewed, planned);
  auto probe = coord.lease("other", 8, /*ttl_ms=*/100, /*now_ms=*/150);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->token, 0u);
  EXPECT_TRUE(probe->shards.empty());
  EXPECT_FALSE(probe->complete);

  // Past the renewed deadline the shards are re-granted, after which the
  // original token heartbeats kLeaseExpired.
  auto regrant = coord.lease("other", 0, /*ttl_ms=*/100, /*now_ms=*/2000);
  ASSERT_TRUE(regrant.has_value());
  EXPECT_EQ(regrant->shards.size(), planned);
  auto dead = coord.heartbeat(grant->token, /*ttl_ms=*/100, /*now_ms=*/2010);
  ASSERT_FALSE(dead.has_value());
  EXPECT_EQ(dead.error().code, ErrorCode::kLeaseExpired);
}

TEST(ServerCoordinator, RestartReconcilesManifestIntoLedger) {
  const std::string path = temp_manifest("restart");
  remove_campaign_files(path);

  auto first =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, path);
  ASSERT_TRUE(first.has_value()) << first.error().to_string();
  const std::uint64_t planned = (*first)->status().planned;
  ASSERT_GT(planned, 2u);

  auto grant = (*first)->lease("w1", 2, /*ttl_ms=*/1000, /*now_ms=*/0);
  ASSERT_TRUE(grant.has_value());
  const core::CampaignShardBatch batch =
      compute_batch(small_plan(), grant->shards);
  auto merged = (*first)->submit("w1", grant->token, (*first)->plan_hash(),
                                 batch.wcdp, batch.shards, /*now_ms=*/10);
  ASSERT_TRUE(merged.has_value());
  first->reset();  // "crash" the coordinator

  // A reopened coordinator resumes from the files: merged work stays done,
  // the submitter's stats survive, and the rest is still open for lease.
  auto second =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, path);
  ASSERT_TRUE(second.has_value()) << second.error().to_string();
  EXPECT_EQ((*second)->status().done, 2u);
  EXPECT_EQ((*second)->status().open, planned - 2);
  const auto stats = (*second)->worker_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].worker, "w1");
  EXPECT_EQ(stats[0].completed, 2u);

  // A changed plan must not adopt the files.
  auto mismatch = CampaignCoordinator::open(small_plan(/*seed=*/99),
                                            JobPhase::kRowHammer, path);
  ASSERT_FALSE(mismatch.has_value());
  EXPECT_EQ(mismatch.error().code, ErrorCode::kInvalidArgument);
  remove_campaign_files(path);
}

// --- The lease verbs over a real loopback daemon -----------------------------

TEST(ServerDistributed, LeaseVerbsDriveACampaignToCompletion) {
  auto server = Server::start({});
  ASSERT_TRUE(server.has_value()) << server.error().to_string();

  // The campaign spec text a coordinator ships to need_plan workers doubles
  // as the campaign_open payload.
  auto local =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, "");
  ASSERT_TRUE(local.has_value());
  const std::string spec = (*local)->campaign_spec_json();
  const std::uint64_t plan_hash = (*local)->plan_hash();

  auto client = Client::connect((*server)->port());
  ASSERT_TRUE(client.has_value()) << client.error().to_string();

  // campaign_open is idempotent: opening twice is joining, not an error.
  for (int round = 0; round < 2; ++round) {
    auto opened = client->campaign_open(spec);
    ASSERT_TRUE(opened.has_value()) << opened.error().to_string();
    std::uint64_t opened_hash = 0;
    ASSERT_TRUE(
        core::parse_u64_hex(opened->string_or("plan_hash", ""), opened_hash));
    EXPECT_EQ(opened_hash, plan_hash);
    EXPECT_FALSE(opened->bool_or("complete", true));
  }

  // Lease -> heartbeat -> compute -> submit until complete, like a worker,
  // but driving each verb explicitly. The first grant carries the plan.
  LeaseRequest lease_request;
  lease_request.plan_hash = plan_hash;
  lease_request.worker = "drive";
  lease_request.max_shards = 2;
  lease_request.need_plan = true;
  core::CampaignPlan plan;
  bool have_plan = false;
  std::uint64_t accepted = 0;
  for (;;) {
    auto grant = client->lease(lease_request);
    ASSERT_TRUE(grant.has_value()) << grant.error().to_string();
    if (!have_plan) {
      ASSERT_TRUE(grant->has_campaign);
      auto from_spec = core::plan_from_manifest(grant->campaign);
      ASSERT_TRUE(from_spec.has_value()) << from_spec.error().to_string();
      plan = *std::move(from_spec);
      plan.manifest_path.clear();
      EXPECT_EQ(plan.digest(JobPhase::kRowHammer), plan_hash);
      have_plan = true;
      lease_request.need_plan = false;
    }
    if (grant->shards.empty()) {
      EXPECT_TRUE(grant->complete);
      break;
    }
    auto renewed = client->heartbeat({plan_hash, grant->token, 30000});
    ASSERT_TRUE(renewed.has_value()) << renewed.error().to_string();
    EXPECT_EQ(*renewed, grant->shards.size());

    const core::CampaignShardBatch batch = compute_batch(plan, grant->shards);
    SubmitRequest submit;
    submit.plan_hash = plan_hash;
    submit.phase = JobPhase::kRowHammer;
    submit.worker = "drive";
    submit.token = grant->token;
    submit.wcdp = batch.wcdp;
    submit.shards = batch.shards;
    auto outcome = client->submit(submit);
    ASSERT_TRUE(outcome.has_value()) << outcome.error().to_string();
    EXPECT_EQ(outcome->duplicates, 0u);
    accepted += outcome->accepted;

    // Resubmitting the merged batch is pure duplicates -- idempotent over
    // the wire, not just in-process.
    auto resubmit = client->submit(submit);
    ASSERT_TRUE(resubmit.has_value()) << resubmit.error().to_string();
    EXPECT_EQ(resubmit->accepted, 0u);
    EXPECT_EQ(resubmit->duplicates, batch.shards.size());
    if (outcome->complete) break;
  }
  EXPECT_EQ(accepted, (*local)->status().planned);

  // A submit against a plan hash nobody opened is a typed failure.
  SubmitRequest alien;
  alien.plan_hash = plan_hash ^ 1;
  alien.phase = JobPhase::kRowHammer;
  alien.worker = "drive";
  alien.token = 1;
  auto unknown = client->submit(alien);
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::kInvalidArgument);
  (*server)->stop();
}

TEST(ServerDistributed, TwoWorkersMergeByteIdenticalToSingleHost) {
  const std::string path = temp_manifest("two_workers");
  remove_campaign_files(path);

  auto coordinator =
      CampaignCoordinator::open(small_plan(), JobPhase::kRowHammer, path);
  ASSERT_TRUE(coordinator.has_value()) << coordinator.error().to_string();
  auto server = Server::start({});
  ASSERT_TRUE(server.has_value()) << server.error().to_string();
  std::shared_ptr<CampaignCoordinator> shared = *std::move(coordinator);
  (*server)->service().adopt_campaign(shared);

  // Two real workers over loopback, small leases so both get work.
  std::vector<common::Result<CampaignWorker::Summary>> summaries;
  summaries.resize(2, CampaignWorker::Summary{});
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      CampaignWorker::Options options;
      options.port = (*server)->port();
      options.worker_id = "w" + std::to_string(w + 1);
      options.lease_shards = 2;
      options.ttl_ms = 30000;
      summaries[w] = CampaignWorker::run(options);
    });
  }
  for (std::thread& t : threads) t.join();
  (*server)->stop();

  std::uint64_t accepted = 0;
  for (const auto& summary : summaries) {
    ASSERT_TRUE(summary.has_value()) << summary.error().to_string();
    accepted += summary->shards;
  }
  EXPECT_EQ(accepted, shared->status().planned);
  EXPECT_TRUE(shared->complete());

  // The merged manifest resumes to grids byte-identical to a single-host
  // run of the same plan.
  core::CampaignPlan resume_plan = small_plan();
  resume_plan.manifest_path = path;
  core::CampaignEngine resumed(std::move(resume_plan));
  auto merged_grids = resumed.run_hammer();
  ASSERT_TRUE(merged_grids.has_value()) << merged_grids.error().to_string();

  core::CampaignEngine single(small_plan());
  auto single_grids = single.run_hammer();
  ASSERT_TRUE(single_grids.has_value());
  ASSERT_EQ(merged_grids->size(), single_grids->size());
  for (std::size_t m = 0; m < single_grids->size(); ++m) {
    EXPECT_EQ(core::grid_json((*merged_grids)[m]).str(),
              core::grid_json((*single_grids)[m]).str());
  }
  remove_campaign_files(path);
}

// --- Result cache LRU bound --------------------------------------------------

CellValue cell_of(std::uint64_t tag) {
  CellValue value;
  value.hc_first = tag;
  return value;
}

TEST(ServerCacheLru, EvictsLeastRecentlyUsedAtCapacity) {
  ResultCache cache(/*max_cells=*/3);
  cache.insert(1, cell_of(1));
  cache.insert(2, cell_of(2));
  cache.insert(3, cell_of(3));

  // Touch key 1 so key 2 is the least recently used, then overflow.
  CellValue out;
  ASSERT_TRUE(cache.lookup(1, &out));
  cache.insert(4, cell_of(4));

  EXPECT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(out.hc_first, 1u);
  EXPECT_FALSE(cache.lookup(2, &out));  // evicted
  EXPECT_TRUE(cache.lookup(3, &out));
  EXPECT_TRUE(cache.lookup(4, &out));

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.cells, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.max_cells, 3u);
}

TEST(ServerCacheLru, ReinsertRefreshesRecencyInsteadOfGrowing) {
  ResultCache cache(/*max_cells=*/2);
  cache.insert(1, cell_of(1));
  cache.insert(2, cell_of(2));
  cache.insert(1, cell_of(100));  // refresh + overwrite, not a third cell
  cache.insert(3, cell_of(3));    // evicts 2, the stale one

  CellValue out;
  EXPECT_TRUE(cache.lookup(1, &out));
  EXPECT_EQ(out.hc_first, 100u);
  EXPECT_FALSE(cache.lookup(2, &out));
  EXPECT_TRUE(cache.lookup(3, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServerCacheLru, UnboundedByDefaultAndWcdpNeverEvicts) {
  ResultCache unbounded;
  for (std::uint64_t k = 0; k < 64; ++k) {
    unbounded.insert(k, cell_of(k));
  }
  EXPECT_EQ(unbounded.stats().cells, 64u);
  EXPECT_EQ(unbounded.stats().evictions, 0u);
  EXPECT_EQ(unbounded.stats().max_cells, 0u);

  // WCDP preps are one-per-(digest, module) and sit outside the cell bound.
  ResultCache tiny(/*max_cells=*/1);
  tiny.insert_wcdp(7, {dram::DataPattern::kCheckerAA});
  tiny.insert_wcdp(8, {dram::DataPattern::kChecker55});
  std::vector<dram::DataPattern> wcdp;
  EXPECT_TRUE(tiny.lookup_wcdp(7, &wcdp));
  EXPECT_TRUE(tiny.lookup_wcdp(8, &wcdp));
  EXPECT_EQ(tiny.stats().wcdp_preps, 2u);
  EXPECT_EQ(tiny.stats().evictions, 0u);
}

}  // namespace
}  // namespace vppstudy::server
