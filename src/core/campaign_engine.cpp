// CampaignEngine execution: plan compilation into (module, point, shard)
// units, the layered resolve order (manifest -> CellStore -> compute), and
// the deterministic drain/assembly that keeps results byte-identical to the
// pre-engine drivers. Manifest/plan serialization lives in campaign.cpp.
#include <algorithm>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/wcdp.hpp"
#include "softmc/session.hpp"
#include "stats/descriptive.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;

namespace {

/// Below this many planned jobs the pool is pure overhead (thread spin-up,
/// futures, arenas migrating between cores): run everything inline instead.
constexpr std::size_t kMinJobsForPool = 8;

unsigned workers_for(int jobs, std::size_t planned_jobs) {
  if (planned_jobs < kMinJobsForPool) return 0;
  const unsigned workers = common::ThreadPool::workers_for_jobs(jobs);
  return static_cast<unsigned>(std::min<std::size_t>(workers, planned_jobs));
}

/// A [begin, end) index range into the sampled row list.
struct ShardSpec {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<ShardSpec> shard_ranges(std::size_t rows,
                                    std::uint32_t rows_per_shard) {
  const std::size_t step = rows_per_shard == 0 ? rows : rows_per_shard;
  std::vector<ShardSpec> out;
  for (std::size_t b = 0; b < rows; b += step) {
    out.push_back({b, std::min(rows, b + step)});
  }
  return out;
}

/// Per-module compilation of the plan: usable levels expanded into grid
/// points, the sampled rows, and the shard grid over them.
struct ModulePlan {
  std::vector<AxisPoint> points;
  double nominal_vpp = 0.0;  ///< highest usable level (WCDP prep runs here)
  std::shared_ptr<const std::vector<std::uint32_t>> rows;
  std::vector<ShardSpec> shards;
};

common::Expected<std::vector<ModulePlan>> plan_modules(
    const CampaignPlan& plan, JobPhase phase) {
  std::vector<ModulePlan> plans(plan.modules.size());
  for (std::size_t m = 0; m < plan.modules.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    const std::vector<double> levels =
        usable_vpp_levels(plan.sweep, profile.vppmin_v);
    if (levels.empty()) {
      return Error{ErrorCode::kNoUsableLevels,
                   "no usable VPP levels for module " + profile.name}
          .with_module(profile.name);
    }
    plans[m].nominal_vpp = levels.front();
    plans[m].points =
        plan.axes.points_for(levels, phase, plan.sweep.hammer.ber_hc);
    auto rows = sample_campaign_rows(profile, plan.sweep.sampling);
    if (rows.empty()) {
      return Error{ErrorCode::kEmptySample, "row sampling produced no rows"}
          .with_module(profile.name);
    }
    plans[m].shards = shard_ranges(rows.size(), plan.rows_per_shard);
    plans[m].rows =
        std::make_shared<const std::vector<std::uint32_t>>(std::move(rows));
  }
  return plans;
}

/// The canonical shard grid of compiled module plans: (module, point,
/// shard) units in engine order, flat index = position.
std::vector<ShardCoord> grid_of(const CampaignPlan& plan,
                                const std::vector<ModulePlan>& plans) {
  std::vector<ShardCoord> grid;
  for (std::size_t m = 0; m < plans.size(); ++m) {
    for (const AxisPoint& point : plans[m].points) {
      for (const ShardSpec& shard : plans[m].shards) {
        ShardCoord coord;
        coord.index = grid.size();
        coord.module_index = m;
        coord.module = plan.modules[m].name;
        coord.point = point;
        coord.row_begin = static_cast<std::uint32_t>(shard.begin);
        coord.row_end = static_cast<std::uint32_t>(shard.end);
        grid.push_back(std::move(coord));
      }
    }
  }
  return grid;
}

/// Checkpoint state of one run: the records restored from the manifest
/// journal, indexed by module and by grid cell, plus the journal writer that
/// appends each new record.
struct ManifestCtx {
  bool enabled = false;
  std::string path;
  CampaignManifest doc;  ///< header spec + the records restored on open
  common::JournalWriter journal;  ///< open on resume, else on first append
  std::vector<const ManifestWcdp*> wcdp;    ///< per module (plan order)
  std::vector<const ManifestShard*> shard;  ///< per grid index

  [[nodiscard]] common::Status append(const std::string& record) {
    if (journal.is_open()) {
      VPP_RETURN_IF_ERROR(journal.append(record));
    } else {
      VPP_ASSIGN_OR_RETURN(
          journal, common::JournalWriter::create(
                       path, campaign_journal_header(doc), {record}));
    }
    campaign_checkpoint_written();
    return common::Status::ok_status();
  }
};

common::Expected<ManifestCtx> init_manifest(
    const CampaignPlan& plan, JobPhase phase,
    const std::vector<ModulePlan>& plans, std::uint64_t planned_shards) {
  ManifestCtx ctx;
  if (plan.manifest_path.empty()) return ctx;
  ctx.enabled = true;
  ctx.path = plan.manifest_path;
  if (std::ifstream probe(plan.manifest_path); probe.good()) {
    VPP_ASSIGN_OR_RETURN(ctx.journal,
                         open_campaign_manifest(plan.manifest_path, ctx.doc));
    VPP_RETURN_IF_ERROR(
        check_manifest_binding(ctx.doc, phase, plan.digest(phase)));
  } else {
    ctx.doc = manifest_spec(plan, phase);
  }
  ctx.doc.planned_shards = planned_shards;

  // Index the restored records once (first record wins, like a scan would):
  // modules by name, shards through the grid's key quantization.
  ctx.wcdp.assign(plan.modules.size(), nullptr);
  for (const ManifestWcdp& w : ctx.doc.wcdp) {
    for (std::size_t m = 0; m < plan.modules.size(); ++m) {
      if (plan.modules[m].name == w.module && ctx.wcdp[m] == nullptr) {
        ctx.wcdp[m] = &w;
      }
    }
  }
  if (!ctx.doc.shards.empty()) {
    const std::vector<ShardCoord> grid = grid_of(plan, plans);
    const ShardGridIndex index(grid);
    ctx.shard.assign(grid.size(), nullptr);
    for (const ManifestShard& s : ctx.doc.shards) {
      const ShardCoord* coord = index.find(s);
      if (coord != nullptr && ctx.shard[coord->index] == nullptr) {
        ctx.shard[coord->index] = &s;
      }
    }
  }
  return ctx;
}

/// Execution context of one run: the injected pool/arenas (vppd's warm
/// sessions) or a locally built, right-sized pair. Member order matters:
/// arenas must outlive the pool (its destructor drains queued jobs that
/// touch their worker's arena).
struct Exec {
  std::unique_ptr<common::WorkerLocal<SessionArena>> own_arenas;
  std::unique_ptr<common::ThreadPool> own_pool;
  common::WorkerLocal<SessionArena>* arenas = nullptr;
  common::ThreadPool* pool = nullptr;
};

Exec make_exec(const CampaignEngine::Execution& injected, int jobs,
               std::size_t planned_jobs) {
  Exec exec;
  if (injected.pool != nullptr && injected.arenas != nullptr) {
    exec.arenas = injected.arenas;
    exec.pool = injected.pool;
    return exec;
  }
  const unsigned workers = workers_for(jobs, planned_jobs);
  exec.own_arenas = std::make_unique<common::WorkerLocal<SessionArena>>(workers);
  exec.own_pool = std::make_unique<common::ThreadPool>(workers);
  exec.arenas = exec.own_arenas.get();
  exec.pool = exec.own_pool.get();
  return exec;
}

// --- Phase traits ------------------------------------------------------------
// One trait set per characterization phase binds the shard primitive, the
// CellStore entry points, and the manifest payload vector; the generic
// runner below is phase-agnostic.

struct HammerTraits {
  using RowResult = harness::RowHammerRowResult;
  using Cell = HammerCell;
  using Grid = HammerGrid;
  static constexpr JobPhase kPhase = JobPhase::kRowHammer;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.hammer; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.hammer;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_hammer(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_hammer(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes& axes,
                                    std::uint64_t seed, const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern> wcdp,
                                    const common::CancelToken& cancel) {
    if (point.pattern_hash != 0) {
      const harness::PatternSpec* spec = axes.find_pattern(point.pattern_hash);
      if (spec == nullptr) {
        return common::Error{common::ErrorCode::kInvalidArgument,
                             "campaign point references a pattern hash absent "
                             "from the pattern axis"};
      }
      return run_pattern_rows(session, sweep, seed, point, *spec, rows, wcdp,
                              cancel);
    }
    return run_hammer_rows(session, sweep, seed, point, rows, wcdp, cancel);
  }
};

struct TrcdTraits {
  using RowResult = harness::TrcdRowResult;
  using Cell = TrcdCell;
  using Grid = TrcdGrid;
  static constexpr JobPhase kPhase = JobPhase::kTrcd;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.trcd; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.trcd;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_trcd(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_trcd(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes&, std::uint64_t seed,
                                    const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern>,
                                    const common::CancelToken& cancel) {
    return run_trcd_rows(session, sweep, seed, point, rows, cancel);
  }
};

struct RetentionTraits {
  using RowResult = harness::RetentionRowResult;
  using Cell = RetentionCell;
  using Grid = RetentionGrid;
  static constexpr JobPhase kPhase = JobPhase::kRetention;
  static std::vector<RowResult>& rows(ManifestShard& s) { return s.retention; }
  static const std::vector<RowResult>& rows(const ManifestShard& s) {
    return s.retention;
  }
  static bool lookup(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, std::uint32_t row,
                     RowResult* out) {
    return store.lookup_retention(profile, point, row, out);
  }
  static void insert(CellStore& store, const dram::ModuleProfile& profile,
                     const AxisPoint& point, const RowResult& row) {
    store.store_retention(profile, point, row);
  }
  static common::Expected<Cell> run(softmc::Session& session,
                                    const SweepConfig& sweep,
                                    const CampaignAxes&, std::uint64_t seed,
                                    const AxisPoint& point,
                                    std::span<const std::uint32_t> rows,
                                    std::span<const dram::DataPattern>,
                                    const common::CancelToken& cancel) {
    return run_retention_rows(session, sweep, seed, point, rows, cancel);
  }
};

/// Resolved WCDP prep of one module (hammer phase A): restored from a
/// manifest or CellStore, or computed by a prep job.
struct PrepState {
  std::vector<dram::DataPattern> wcdp;
  bool counted = false;  ///< a prep session ran (restored-from-store: false)
  softmc::CommandCounts counts;
  bool restored = false;   ///< already recorded in the manifest
  bool submitted = false;  ///< a prep job is in flight
  std::future<common::Expected<WcdpPrep>> future;
};

/// One (module, point, shard) unit through the resolve pipeline.
template <typename Traits>
struct UnitState {
  bool resolved = false;    ///< rows fully populated
  bool in_manifest = false; ///< restored from the manifest (no re-append)
  bool counted = false;     ///< a session ran; counts are meaningful
  bool submitted = false;
  bool budget_skipped = false;  ///< max_new_shards exhausted
  softmc::CommandCounts counts;
  std::vector<typename Traits::RowResult> rows;  ///< full shard, merged
  std::vector<std::uint32_t> missing;       ///< row addresses to compute
  std::vector<std::size_t> missing_index;   ///< their indices within the shard
  std::future<common::Expected<typename Traits::Cell>> future;
};

template <typename Traits>
common::Expected<std::vector<typename Traits::Grid>> run_grid_phase(
    const CampaignPlan& plan, CellStore* store,
    const CampaignEngine::Execution& injected) {
  constexpr bool kHasPrep = Traits::kPhase == JobPhase::kRowHammer;
  const SweepConfig& sweep = plan.sweep;
  const std::uint64_t seed = plan.seed;

  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, Traits::kPhase));

  std::uint64_t planned_shards = 0;
  std::size_t planned_jobs = 0;
  for (const ModulePlan& mp : plans) {
    planned_shards += mp.points.size() * mp.shards.size();
    planned_jobs +=
        (kHasPrep ? 1 : 0) + mp.points.size() * mp.shards.size();
  }

  VPP_ASSIGN_OR_RETURN(
      ManifestCtx manifest,
      init_manifest(plan, Traits::kPhase, plans, planned_shards));

  Exec exec = make_exec(injected, plan.jobs, planned_jobs);
  auto& arenas = *exec.arenas;
  auto& pool = *exec.pool;

  std::optional<Error> first_error;
  std::vector<PrepState> preps(plans.size());

  // Phase A (hammer only): resolve each module's WCDP prep -- manifest
  // record, then CellStore, then a prep job; all prep jobs in flight at
  // once, like the pre-engine driver.
  if constexpr (kHasPrep) {
    for (std::size_t m = 0; m < plans.size(); ++m) {
      const dram::ModuleProfile& profile = plan.modules[m];
      if (const ManifestWcdp* rec =
              manifest.enabled ? manifest.wcdp[m] : nullptr) {
        preps[m].wcdp = rec->wcdp;
        preps[m].counted = rec->counted;
        preps[m].counts = rec->counts;
        preps[m].restored = true;
        continue;
      }
      if (store != nullptr && store->lookup_wcdp(profile, &preps[m].wcdp)) {
        continue;  // served from the store: no session, not counted
      }
      if (plan.cancel.cancelled()) {
        // Record, don't return: already-submitted preps must drain below
        // (an injected pool may outlive this call's captures otherwise).
        first_error =
            Error{ErrorCode::kCancelled, "sweep cancelled before WCDP prep"}
                .with_module(profile.name);
        break;
      }
      preps[m].submitted = true;
      preps[m].future = pool.submit(
          [&arenas, &pool, &profile, &sweep, seed,
           nominal = plans[m].nominal_vpp,
           rows = plans[m].rows]() -> common::Expected<WcdpPrep> {
            return run_wcdp_prep(arenas.local(pool).acquire(profile), sweep,
                                 seed, nominal, *rows);
          });
    }
  }

  // Compile the unit table up front so lambda captures stay stable.
  // unit_base[m] is module m's first flat grid index.
  std::vector<std::vector<UnitState<Traits>>> units(plans.size());
  std::vector<std::size_t> unit_base(plans.size(), 0);
  for (std::size_t m = 0; m < plans.size(); ++m) {
    units[m].resize(plans[m].points.size() * plans[m].shards.size());
    if (m > 0) unit_base[m] = unit_base[m - 1] + units[m - 1].size();
  }
  std::uint32_t new_shards = 0;

  // Submission: drain module m's prep (in order), then fan out its
  // (point, shard) units. Units resolve against the manifest first, then
  // row-by-row against the CellStore (on this thread, in unit order, so
  // store hit/miss accounting is deterministic), and only the still-missing
  // rows are computed.
  for (std::size_t m = 0; m < plans.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    if constexpr (kHasPrep) {
      if (preps[m].submitted) {
        auto prep = preps[m].future.get();
        if (!prep) {
          if (!first_error) first_error = std::move(prep).error();
          continue;
        }
        preps[m].wcdp = std::move(prep->wcdp);
        preps[m].counts = prep->counts;
        preps[m].counted = true;
        if (store != nullptr) store->store_wcdp(profile, preps[m].wcdp);
      }
      if (manifest.enabled && !preps[m].restored && !first_error) {
        ManifestWcdp record;
        record.module = profile.name;
        record.wcdp = preps[m].wcdp;
        record.counted = preps[m].counted;
        record.counts = preps[m].counts;
        if (auto st = manifest.append(campaign_wcdp_record(record));
            !st.ok()) {
          if (!first_error) first_error = std::move(st).error();
        }
      }
    }
    if (first_error) continue;  // keep draining preps; stop submitting units

    const std::vector<std::uint32_t>& rows = *plans[m].rows;
    for (std::size_t p = 0; p < plans[m].points.size(); ++p) {
      const AxisPoint& point = plans[m].points[p];
      for (std::size_t s = 0; s < plans[m].shards.size(); ++s) {
        const ShardSpec shard = plans[m].shards[s];
        const std::size_t u = p * plans[m].shards.size() + s;
        UnitState<Traits>& unit = units[m][u];
        if (const ManifestShard* rec = manifest.shard.empty()
                                           ? nullptr
                                           : manifest.shard[unit_base[m] + u]) {
          unit.resolved = true;
          unit.in_manifest = true;
          unit.counted = rec->counted;
          unit.counts = rec->counts;
          unit.rows = Traits::rows(*rec);
          continue;
        }
        const std::size_t size = shard.end - shard.begin;
        unit.rows.resize(size);
        std::vector<dram::DataPattern> missing_wcdp;
        for (std::size_t i = 0; i < size; ++i) {
          const std::uint32_t row = rows[shard.begin + i];
          typename Traits::RowResult cached;
          if (store != nullptr &&
              Traits::lookup(*store, profile, point, row, &cached)) {
            unit.rows[i] = std::move(cached);
          } else {
            unit.missing.push_back(row);
            unit.missing_index.push_back(i);
            if constexpr (kHasPrep) {
              missing_wcdp.push_back(preps[m].wcdp[shard.begin + i]);
            }
          }
        }
        if (unit.missing.empty()) {
          unit.resolved = true;  // fully served from the store; not counted
          continue;
        }
        if (plan.max_new_shards != 0 && new_shards >= plan.max_new_shards) {
          unit.budget_skipped = true;
          continue;
        }
        ++new_shards;
        unit.submitted = true;
        unit.future = pool.submit(
            [&arenas, &pool, &profile, &sweep, &axes = plan.axes, seed, point,
             cancel = plan.cancel, missing = unit.missing,
             wcdp = std::move(missing_wcdp)] {
              return Traits::run(arenas.local(pool).acquire(profile), sweep,
                                 axes, seed, point, std::span(missing),
                                 std::span(wcdp), cancel);
            });
      }
    }
  }

  // Drain every in-flight unit in (module, point, shard) order -- even after
  // a failure, so a shared pool never runs jobs whose captures are gone and
  // completed work still reaches the checkpoint. The first failing unit in
  // this fixed order is the campaign's error.
  for (std::size_t m = 0; m < plans.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    for (std::size_t p = 0; p < plans[m].points.size(); ++p) {
      const AxisPoint& point = plans[m].points[p];
      for (std::size_t s = 0; s < plans[m].shards.size(); ++s) {
        const ShardSpec shard = plans[m].shards[s];
        UnitState<Traits>& unit = units[m][p * plans[m].shards.size() + s];
        if (unit.budget_skipped) {
          if (!first_error) {
            first_error = Error{ErrorCode::kCancelled,
                                "campaign shard budget exhausted "
                                "(max_new_shards reached)"}
                              .with_module(profile.name);
          }
          continue;
        }
        if (unit.submitted) {
          auto cell = unit.future.get();
          if (!cell) {
            if (!first_error) first_error = std::move(cell).error();
            continue;
          }
          unit.counted = true;
          unit.counts = cell->counts;
          for (std::size_t k = 0; k < unit.missing.size(); ++k) {
            unit.rows[unit.missing_index[k]] = cell->rows[k];
            if (store != nullptr) {
              Traits::insert(*store, profile, point,
                             unit.rows[unit.missing_index[k]]);
            }
          }
          unit.resolved = true;
        }
        if (unit.resolved && !unit.in_manifest && manifest.enabled) {
          ManifestShard record;
          record.module = profile.name;
          record.point = point;
          record.row_begin = static_cast<std::uint32_t>(shard.begin);
          record.row_end = static_cast<std::uint32_t>(shard.end);
          record.counted = unit.counted;
          record.counts = unit.counts;
          Traits::rows(record) = unit.rows;
          if (auto st =
                  manifest.append(campaign_shard_record(record, Traits::kPhase));
              !st.ok()) {
            if (!first_error) first_error = std::move(st).error();
          }
        }
      }
    }
  }
  if (first_error) return *std::move(first_error);

  // Assembly in (module, point, shard) order: instrumentation job order and
  // per-row series match the pre-engine drivers exactly.
  std::vector<typename Traits::Grid> grids;
  grids.reserve(plans.size());
  for (std::size_t m = 0; m < plans.size(); ++m) {
    const dram::ModuleProfile& profile = plan.modules[m];
    typename Traits::Grid grid;
    grid.module_name = profile.name;
    if constexpr (std::is_same_v<typename Traits::Grid, HammerGrid>) {
      grid.mfr = profile.mfr;
      grid.vppmin_v = profile.vppmin_v;
      grid.wcdp = preps[m].wcdp;
      if (preps[m].counted) grid.instrumentation.add_job(preps[m].counts);
    } else if constexpr (std::is_same_v<typename Traits::Grid, TrcdGrid>) {
      grid.vppmin_v = profile.vppmin_v;
    } else {
      grid.mfr = profile.mfr;
    }
    grid.rows = *plans[m].rows;
    grid.points = plans[m].points;
    grid.cells.resize(plans[m].points.size());
    for (std::size_t p = 0; p < plans[m].points.size(); ++p) {
      grid.cells[p].resize(grid.rows.size());
      for (std::size_t s = 0; s < plans[m].shards.size(); ++s) {
        const ShardSpec shard = plans[m].shards[s];
        UnitState<Traits>& unit = units[m][p * plans[m].shards.size() + s];
        if (unit.counted) grid.instrumentation.add_job(unit.counts);
        for (std::size_t i = shard.begin; i < shard.end; ++i) {
          grid.cells[p][i] = std::move(unit.rows[i - shard.begin]);
        }
      }
    }
    grids.push_back(std::move(grid));
  }
  return grids;
}

/// run_campaign_shards for one phase: the leased-subset variant of
/// run_grid_phase. Same pool/arena structure, same stream seeds, but no
/// manifest and no per-row CellStore resolve -- leases are disjoint, so
/// every row of every named shard is computed fresh and every returned
/// record carries counted=true, exactly like a storeless single-host run.
template <typename Traits>
common::Expected<CampaignShardBatch> run_shard_subset(
    const CampaignPlan& plan, const std::vector<std::uint64_t>& indices,
    CellStore* store, const CampaignEngine::Execution& injected) {
  constexpr bool kHasPrep = Traits::kPhase == JobPhase::kRowHammer;
  const SweepConfig& sweep = plan.sweep;
  const std::uint64_t seed = plan.seed;

  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, Traits::kPhase));

  // Map flat grid indices back to (module, point, shard).
  std::vector<std::uint64_t> offsets(plans.size() + 1, 0);
  for (std::size_t m = 0; m < plans.size(); ++m) {
    offsets[m + 1] =
        offsets[m] + plans[m].points.size() * plans[m].shards.size();
  }
  std::vector<std::uint64_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  struct Unit {
    std::size_t m = 0;
    std::size_t p = 0;
    std::size_t s = 0;
  };
  std::vector<Unit> subset;
  subset.reserve(sorted.size());
  std::vector<bool> module_used(plans.size(), false);
  for (const std::uint64_t index : sorted) {
    if (index >= offsets.back()) {
      return Error{ErrorCode::kInvalidArgument,
                   "shard index " + std::to_string(index) +
                       " is outside the campaign grid (" +
                       std::to_string(offsets.back()) + " shards)"};
    }
    Unit unit;
    while (offsets[unit.m + 1] <= index) ++unit.m;
    const std::uint64_t local = index - offsets[unit.m];
    unit.p = static_cast<std::size_t>(local / plans[unit.m].shards.size());
    unit.s = static_cast<std::size_t>(local % plans[unit.m].shards.size());
    module_used[unit.m] = true;
    subset.push_back(unit);
  }

  CampaignShardBatch batch;
  Exec exec = make_exec(injected, plan.jobs, subset.size());
  auto& arenas = *exec.arenas;
  auto& pool = *exec.pool;

  // Phase A (hammer only): resolve the WCDP prep of every referenced
  // module, preferring the worker's memo store so one worker records each
  // module's prep at most once across its leases.
  std::vector<PrepState> preps(plans.size());
  if constexpr (kHasPrep) {
    for (std::size_t m = 0; m < plans.size(); ++m) {
      if (!module_used[m]) continue;
      const dram::ModuleProfile& profile = plan.modules[m];
      if (store != nullptr && store->lookup_wcdp(profile, &preps[m].wcdp)) {
        continue;  // prep already computed (and recorded) by a prior batch
      }
      if (plan.cancel.cancelled()) {
        return Error{ErrorCode::kCancelled, "sweep cancelled before WCDP prep"}
            .with_module(profile.name);
      }
      auto prep =
          pool.submit([&arenas, &pool, &profile, &sweep, seed,
                       nominal = plans[m].nominal_vpp,
                       rows = plans[m].rows]() -> common::Expected<WcdpPrep> {
                return run_wcdp_prep(arenas.local(pool).acquire(profile),
                                     sweep, seed, nominal, *rows);
              })
              .get();
      if (!prep) return std::move(prep).error();
      preps[m].wcdp = std::move(prep->wcdp);
      preps[m].counts = prep->counts;
      preps[m].counted = true;
      if (store != nullptr) store->store_wcdp(profile, preps[m].wcdp);
      ManifestWcdp record;
      record.module = profile.name;
      record.wcdp = preps[m].wcdp;
      record.counted = true;
      record.counts = preps[m].counts;
      batch.wcdp.push_back(std::move(record));
    }
  }

  // Fan out the subset, then drain it in canonical order; the first failing
  // unit in that order is the batch's error, like the engine.
  std::vector<std::future<common::Expected<typename Traits::Cell>>> futures;
  futures.reserve(subset.size());
  for (const Unit& unit : subset) {
    const dram::ModuleProfile& profile = plan.modules[unit.m];
    const AxisPoint& point = plans[unit.m].points[unit.p];
    const ShardSpec shard = plans[unit.m].shards[unit.s];
    const std::vector<std::uint32_t>& rows = *plans[unit.m].rows;
    std::vector<std::uint32_t> shard_rows(rows.begin() + shard.begin,
                                          rows.begin() + shard.end);
    std::vector<dram::DataPattern> shard_wcdp;
    if constexpr (kHasPrep) {
      shard_wcdp.assign(preps[unit.m].wcdp.begin() + shard.begin,
                        preps[unit.m].wcdp.begin() + shard.end);
    }
    futures.push_back(pool.submit(
        [&arenas, &pool, &profile, &sweep, &axes = plan.axes, seed, point,
         cancel = plan.cancel, rows_in = std::move(shard_rows),
         wcdp_in = std::move(shard_wcdp)] {
          return Traits::run(arenas.local(pool).acquire(profile), sweep, axes,
                             seed, point, std::span(rows_in),
                             std::span(wcdp_in), cancel);
        }));
  }
  std::optional<Error> first_error;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    auto cell = futures[i].get();
    if (!cell) {
      if (!first_error) first_error = std::move(cell).error();
      continue;
    }
    if (first_error) continue;
    const Unit& unit = subset[i];
    const ShardSpec shard = plans[unit.m].shards[unit.s];
    ManifestShard record;
    record.module = plan.modules[unit.m].name;
    record.point = plans[unit.m].points[unit.p];
    record.row_begin = static_cast<std::uint32_t>(shard.begin);
    record.row_end = static_cast<std::uint32_t>(shard.end);
    record.counted = true;
    record.counts = cell->counts;
    Traits::rows(record) = std::move(cell->rows);
    batch.shards.push_back(std::move(record));
  }
  if (first_error) return *std::move(first_error);
  return batch;
}

}  // namespace

common::Expected<std::vector<ShardCoord>> compile_campaign_shards(
    const CampaignPlan& plan, JobPhase phase) {
  VPP_ASSIGN_OR_RETURN(std::vector<ModulePlan> plans,
                       plan_modules(plan, phase));
  return grid_of(plan, plans);
}

common::Expected<CampaignShardBatch> run_campaign_shards(
    const CampaignPlan& plan, JobPhase phase,
    const std::vector<std::uint64_t>& indices, CellStore* store,
    CampaignExecution exec) {
  switch (phase) {
    case JobPhase::kRowHammer:
      return run_shard_subset<HammerTraits>(plan, indices, store, exec);
    case JobPhase::kTrcd:
      return run_shard_subset<TrcdTraits>(plan, indices, store, exec);
    case JobPhase::kRetention:
      return run_shard_subset<RetentionTraits>(plan, indices, store, exec);
    case JobPhase::kWcdp:
      break;
  }
  return Error{ErrorCode::kInvalidArgument,
               "run_campaign_shards: wcdp is not a shardable phase"};
}

CampaignEngine::CampaignEngine(CampaignPlan plan, CellStore* store,
                               Execution exec)
    : plan_(std::move(plan)), store_(store), exec_(exec) {}

common::Expected<std::vector<HammerGrid>> CampaignEngine::run_hammer() {
  return run_grid_phase<HammerTraits>(plan_, store_, exec_);
}

common::Expected<std::vector<TrcdGrid>> CampaignEngine::run_trcd() {
  return run_grid_phase<TrcdTraits>(plan_, store_, exec_);
}

common::Expected<std::vector<RetentionGrid>> CampaignEngine::run_retention() {
  return run_grid_phase<RetentionTraits>(plan_, store_, exec_);
}

namespace {

/// One full per-module RowHammer sweep (WCDP prep + every usable level),
/// run serially in sessions that carry the attempt's fault injector and a
/// trace ring. On failure, `failure_dump` holds the failing session's ring
/// with the error recorded -- captured before the session is torn down.
/// The whole-cell job_stream_seed keying and the serial session-per-level
/// structure are part of the resilient campaign's byte-compatibility
/// contract (pinned by tests/core/pinned_output_test).
common::Expected<ModuleSweepResult> attempt_module_sweep(
    const dram::ModuleProfile& profile, const SweepConfig& sweep,
    std::uint64_t seed, std::size_t trace_capacity,
    softmc::FaultInjector* injector, SweepInstrumentation& instr,
    softmc::TraceDump& failure_dump, bool& has_failure_dump) {
  const std::vector<double> levels =
      usable_vpp_levels(sweep, profile.vppmin_v);
  if (levels.empty()) {
    return Error{ErrorCode::kNoUsableLevels,
                 "no usable VPP levels for module " + profile.name}
        .with_module(profile.name);
  }
  const double nominal = levels.front();

  const auto rig_session = [&](softmc::Session& session, double vpp_v,
                               JobPhase phase) -> common::Status {
    session.enable_trace(trace_capacity);
    if (injector != nullptr) session.set_fault_injector(injector);
    session.set_auto_refresh(false);
    VPP_RETURN_IF_ERROR(session.set_temperature(common::kHammerTestTempC));
    VPP_RETURN_IF_ERROR(session.set_vpp(vpp_v));
    session.set_noise_stream(
        job_stream_seed(seed, profile.seed, vpp_millivolts(vpp_v), phase));
    return common::Status::ok_status();
  };
  const auto fail = [&](softmc::Session& session,
                        common::Error error) -> common::Error {
    failure_dump = softmc::capture_trace_dump(session, &error);
    has_failure_dump = true;
    instr.add_job(session.counters());
    return error;
  };

  ModuleSweepResult result;
  result.module_name = profile.name;
  result.mfr = profile.mfr;
  result.vppmin_v = profile.vppmin_v;
  result.vpp_levels = levels;

  // Phase A: row sampling + per-row WCDP at the nominal level.
  std::vector<std::uint32_t> rows;
  std::vector<dram::DataPattern> wcdp;
  {
    softmc::Session session(profile);
    if (auto st = rig_session(session, nominal, JobPhase::kWcdp); !st.ok()) {
      return fail(session,
                  std::move(st).error().with_module(profile.name).with_context(
                      "wcdp session setup"));
    }
    rows = sweep.sampling.sample(session.module().mapping());
    if (rows.empty()) {
      return fail(session,
                  Error{ErrorCode::kEmptySample, "row sampling produced no rows"}
                      .with_module(profile.name));
    }
    if (sweep.determine_wcdp) {
      auto found =
          harness::find_wcdp_hammer_rows(session, sweep.sampling.bank, rows);
      if (!found) {
        return fail(session, std::move(found)
                                 .error()
                                 .with_module(profile.name)
                                 .with_context("wcdp determination"));
      }
      wcdp = std::move(*found);
    } else {
      wcdp.assign(rows.size(), dram::DataPattern::kCheckerAA);
    }
    instr.add_job(session.counters());
  }
  result.rows.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    result.rows[i].row = rows[i];
    result.rows[i].wcdp = wcdp[i];
  }

  // Phase B: one session per VPP level, highest first.
  for (const double vpp : levels) {
    softmc::Session session(profile);
    if (auto st = rig_session(session, vpp, JobPhase::kRowHammer); !st.ok()) {
      return fail(session,
                  std::move(st)
                      .error()
                      .with_module(profile.name)
                      .with_vpp_mv(
                          static_cast<std::int64_t>(vpp_millivolts(vpp)))
                      .with_context("hammer session setup"));
    }
    harness::RowHammerTest test(session, sweep.hammer);
    auto level = test.test_rows(sweep.sampling.bank, rows, wcdp);
    if (!level) {
      return fail(session, std::move(level)
                               .error()
                               .with_module(profile.name)
                               .with_vpp_mv(static_cast<std::int64_t>(
                                   vpp_millivolts(vpp))));
    }
    instr.add_job(session.counters());
    for (std::size_t i = 0; i < level->size(); ++i) {
      result.rows[i].hc_first.push_back((*level)[i].hc_first);
      result.rows[i].ber.push_back((*level)[i].ber);
    }
    result.instrumentation.add_job(session.counters());
  }
  return result;
}

}  // namespace

std::size_t CampaignResult::completed_count() const noexcept {
  std::size_t n = 0;
  for (const ModuleCampaignResult& m : modules) {
    if (m.completed) ++n;
  }
  return n;
}

double CampaignResult::hc_first_cv() const {
  std::vector<double> values;
  values.reserve(modules.size());
  for (const ModuleCampaignResult& m : modules) {
    if (!m.completed) continue;  // quarantined: partial data, excluded
    const std::uint64_t hc = m.sweep.min_hc_first_at(0);
    if (hc > 0) values.push_back(static_cast<double>(hc));
  }
  if (values.size() < 2) return 0.0;
  return stats::coefficient_of_variation(values);
}

CampaignResult CampaignEngine::run_resilient(const softmc::FaultPlan& faults,
                                             const harness::RetryPolicy& retry,
                                             std::size_t trace_capacity) {
  CampaignResult campaign;
  campaign.modules.reserve(plan_.modules.size());

  for (const dram::ModuleProfile& profile : plan_.modules) {
    ModuleCampaignResult outcome;
    outcome.module_name = profile.name;

    softmc::FaultInjector injector(faults);
    softmc::FaultInjector* active = faults.empty() ? nullptr : &injector;

    const std::uint32_t budget = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
      // Re-salting the draws means a retry faces *different* fault sites
      // than the attempt that failed -- deterministic progress instead of
      // deterministic re-failure.
      injector.set_attempt(attempt);
      outcome.attempts = attempt + 1;
      if (attempt > 0) ++campaign.instrumentation.retries;

      auto sweep = attempt_module_sweep(profile, plan_.sweep, plan_.seed,
                                        trace_capacity, active,
                                        campaign.instrumentation, outcome.dump,
                                        outcome.has_dump);
      outcome.injections = injector.counts();
      if (sweep) {
        outcome.completed = true;
        outcome.error_code = ErrorCode::kUnknown;
        outcome.error_message.clear();
        outcome.has_dump = false;
        outcome.sweep = std::move(*sweep);
        break;
      }
      outcome.error_code = sweep.error().code;
      outcome.error_message = sweep.error().to_string();
      if (!retry.should_retry(sweep.error().code, attempt + 1)) break;
    }

    if (!outcome.completed) {
      ++campaign.instrumentation.quarantined_modules;
      harness::QuarantineRecord record;
      record.module = profile.name;
      record.code = outcome.error_code;
      record.message = outcome.error_message;
      record.attempts = outcome.attempts;
      campaign.quarantines.push_back(std::move(record));
    }
    campaign.modules.push_back(std::move(outcome));
  }
  return campaign;
}

}  // namespace vppstudy::core
