// Pattern-family x VPP grid: the non-uniform-attack counterpart of the
// Fig. 3/5 sweeps. Stage 1 runs a short corpus-seeded fuzz campaign
// (core/fuzz_campaign) to evolve TRR-evading pattern specs per (module, VPP)
// point; stage 2 evaluates the winners next to the uniform double-sided
// reference on the full VPP grid and exports the post-TRR flip landscape as
// CSV + JSON (core::grid_csv / grid_json, one file per module).
//
// Two built-in gates make this bench a CI check rather than a chart
// generator:
//  * effectiveness -- at nominal VPP (where TRR fully suppresses the uniform
//    attack) at least one fuzzed non-uniform pattern must out-flip the
//    uniform reference, or the bench exits 1;
//  * determinism -- the stage-2 grid is recomputed at a different --jobs
//    count and the rendered CSVs must match byte for byte, or the bench
//    exits 1. Kill/resume identity is driven externally: pass --manifest and
//    VPP_CAMPAIGN_KILL_AFTER, re-run to resume, and compare CSVs (CI's
//    pattern-fuzz-gauntlet does exactly this).
//
// Fixed small scale by default (1 module, 2 rows, 0.4V steps) so the default
// run finishes in well under a minute; flags scale it up:
//   --modules N --rows N --step V --jobs N --seed N
//   --generations N --population N
//   --csv PATH --json PATH --manifest PATH
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chips/module_db.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/fuzz_campaign.hpp"
#include "harness/pattern_fuzzer.hpp"
#include "harness/pattern_spec.hpp"

namespace {

using namespace vppstudy;

struct Options {
  /// Named module (the corpus-goldens module by default); --modules N > 0
  /// switches to the first N profiles instead.
  std::string module = "B3";
  std::size_t modules = 0;
  std::uint32_t rows = 2;
  double step = 0.4;
  int jobs = 1;
  std::uint64_t seed = 0;
  std::uint32_t generations = 2;
  std::uint32_t population = 6;
  std::string csv = "pattern_vpp_grid.csv";
  std::string json = "pattern_vpp_grid.json";
  std::string manifest;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag, const char** out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    const char* v = nullptr;
    if (value("--modules", &v)) {
      opt.modules = static_cast<std::size_t>(std::atol(v));
    } else if (value("--module", &v)) {
      opt.module = v;
    } else if (value("--rows", &v)) {
      opt.rows = static_cast<std::uint32_t>(std::atol(v));
    } else if (value("--step", &v)) {
      opt.step = std::atof(v);
    } else if (value("--jobs", &v)) {
      opt.jobs = std::atoi(v);
    } else if (value("--seed", &v)) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (value("--generations", &v)) {
      opt.generations = static_cast<std::uint32_t>(std::atol(v));
    } else if (value("--population", &v)) {
      opt.population = static_cast<std::uint32_t>(std::atol(v));
    } else if (value("--csv", &v)) {
      opt.csv = v;
    } else if (value("--json", &v)) {
      opt.json = v;
    } else if (value("--manifest", &v)) {
      opt.manifest = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

/// The crowd-out seed (tests/harness/corpus/crowd_out.json, inlined so the
/// bench has no data-file dependency): eight decoy aggressors keep the
/// 8-entry Misra-Gries tracker saturated while two low-amplitude real
/// aggressors are displaced on every burst and never earn a mitigation.
harness::PatternSpec crowd_out_seed() {
  harness::PatternSpec spec;
  spec.name = "crowd-out";
  spec.slots_per_period = 64;
  spec.refs_per_period = 2;
  const std::int32_t offsets[] = {-6, -5, -4, -3, 3, 4, 5, 6};
  for (std::uint32_t i = 0; i < 8; ++i) {
    spec.aggressors.push_back({offsets[i], i, 1, 24});
  }
  spec.aggressors.push_back({-1, 8, 8, 3});
  spec.aggressors.push_back({1, 9, 8, 3});
  return spec;
}

core::CampaignPlan base_plan(const Options& opt) {
  bench::BenchOptions bopt;
  bopt.max_modules = opt.modules == 0 ? 1 : opt.modules;
  // Two chunks: chunk 0 hugs the bank edge (where wide patterns score zero
  // by the fit rule), chunk 1 sits mid-bank where every family can attack.
  bopt.chunks = 2;
  bopt.rows_per_chunk = opt.rows;
  bopt.vpp_step = opt.step;
  bopt.iterations = 1;
  bopt.jobs = opt.jobs;
  bopt.seed = opt.seed;
  core::CampaignPlan plan = bench::campaign_plan(bopt);
  if (opt.modules == 0) {
    auto profile = chips::profile_by_name(opt.module);
    if (!profile) {
      std::fprintf(stderr, "unknown module %s\n", opt.module.c_str());
      std::exit(2);
    }
    plan.modules = {*profile};
  }
  plan.rows_per_shard = 2;
  return plan;
}

/// Summed post-TRR flips for (pattern, VPP) across every module grid.
double flips_at(const std::vector<core::HammerGrid>& grids,
                std::uint64_t pattern_hash, std::uint64_t vpp_mv) {
  double total = 0.0;
  for (const core::HammerGrid& grid : grids) {
    for (std::size_t p = 0; p < grid.points.size(); ++p) {
      if (grid.points[p].pattern_hash != pattern_hash ||
          core::vpp_millivolts(grid.points[p].vpp_v) != vpp_mv) {
        continue;
      }
      for (const auto& cell : grid.cells[p]) {
        total += static_cast<double>(cell.hc_first);
      }
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  // Stage 1: evolve patterns per (module, VPP) point, seeded from the
  // corpus' crowd-out spec so the gene pool starts with one known
  // TRR-evading family next to the random specs.
  core::FuzzCampaignConfig fuzz;
  fuzz.base = base_plan(opt);
  if (!opt.manifest.empty()) fuzz.base.manifest_path = opt.manifest + ".fuzz.json";
  fuzz.generations = opt.generations;
  fuzz.fuzzer.population = opt.population;
  fuzz.fuzzer.elites = 2;
  fuzz.fuzzer.seeds.push_back(crowd_out_seed());
  std::printf("stage 1: fuzz campaign (%u generations, population %u)\n",
              fuzz.generations, fuzz.fuzzer.population);
  auto evolved = core::run_fuzz_campaign(fuzz);
  if (!evolved) {
    std::fprintf(stderr, "fuzz campaign failed: %s\n",
                 evolved.error().to_string().c_str());
    return 3;
  }

  // The grid's pattern families: the uniform reference first, then the top
  // two fuzzed specs of every (module, VPP) population, deduped by hash.
  std::vector<harness::PatternSpec> families;
  families.push_back(harness::uniform_double_sided_spec());
  std::vector<std::uint64_t> seen{families[0].spec_hash()};
  for (const core::FuzzPopulation& point : evolved->points) {
    std::size_t taken = 0;
    for (const harness::ScoredSpec& member : point.members) {
      if (taken >= 2) break;
      const std::uint64_t hash = member.spec.spec_hash();
      if (std::find(seen.begin(), seen.end(), hash) != seen.end()) continue;
      seen.push_back(hash);
      families.push_back(member.spec);
      ++taken;
    }
  }

  // Stage 2: the full pattern-family x VPP grid.
  core::CampaignPlan plan = base_plan(opt);
  plan.axes.patterns = families;
  if (!opt.manifest.empty()) plan.manifest_path = opt.manifest + ".grid.json";
  std::printf("stage 2: %zu pattern families x VPP grid\n", families.size());
  core::CampaignEngine engine(plan);
  auto grids = engine.run_hammer();
  if (!grids) {
    std::fprintf(stderr, "grid campaign failed: %s\n",
                 grids.error().to_string().c_str());
    return 3;
  }

  std::map<std::uint64_t, std::string> names;
  for (const harness::PatternSpec& spec : families) {
    names[spec.spec_hash()] = spec.name;
  }

  // One table per module: pattern family rows, VPP columns, post-TRR flips.
  for (const core::HammerGrid& grid : *grids) {
    std::vector<std::uint64_t> levels;
    for (const core::AxisPoint& point : grid.points) {
      const std::uint64_t mv = core::vpp_millivolts(point.vpp_v);
      if (std::find(levels.begin(), levels.end(), mv) == levels.end()) {
        levels.push_back(mv);
      }
    }
    std::printf("\n%s: post-TRR flips (%zu rows)\n", grid.module_name.c_str(),
                grid.rows.size());
    std::printf("%-24s", "pattern \\ VPP[V]");
    for (const std::uint64_t mv : levels) {
      std::printf(" %8.2f", static_cast<double>(mv) / 1000.0);
    }
    std::printf("\n");
    for (const harness::PatternSpec& spec : families) {
      std::printf("%-24s", spec.name.c_str());
      for (const std::uint64_t mv : levels) {
        std::printf(" %8.0f",
                    flips_at({grid}, spec.spec_hash(), mv));
      }
      std::printf("\n");
    }
  }

  // Exports (per-module suffix handled by the caller naming; grids arrive in
  // module order so multi-module runs append -<module> before the dot).
  const bool multi = grids->size() > 1;
  for (const core::HammerGrid& grid : *grids) {
    auto suffixed = [&](const std::string& path) {
      if (!multi) return path;
      const std::size_t dot = path.rfind('.');
      if (dot == std::string::npos) return path + "-" + grid.module_name;
      return path.substr(0, dot) + "-" + grid.module_name + path.substr(dot);
    };
    if (!core::grid_csv(grid).write_file(suffixed(opt.csv))) {
      std::fprintf(stderr, "cannot write %s\n", suffixed(opt.csv).c_str());
      return 3;
    }
    std::FILE* out = std::fopen(suffixed(opt.json).c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", suffixed(opt.json).c_str());
      return 3;
    }
    const std::string doc = core::grid_json(grid).str();
    std::fwrite(doc.data(), 1, doc.size(), out);
    std::fclose(out);
  }

  // Gate 1: a fuzzed non-uniform pattern must beat uniform at nominal VPP.
  const std::uint64_t nominal_mv = core::vpp_millivolts(2.5);
  const double uniform_flips =
      flips_at(*grids, families[0].spec_hash(), nominal_mv);
  double best_fuzzed = 0.0;
  std::string best_name;
  for (std::size_t f = 1; f < families.size(); ++f) {
    const double flips = flips_at(*grids, families[f].spec_hash(), nominal_mv);
    if (flips > best_fuzzed) {
      best_fuzzed = flips;
      best_name = families[f].name;
    }
  }
  std::printf("\nnominal VPP: uniform=%.0f flips, best fuzzed=%.0f (%s)\n",
              uniform_flips, best_fuzzed, best_name.c_str());
  if (best_fuzzed <= uniform_flips) {
    std::fprintf(stderr,
                 "FAIL: no fuzzed pattern out-flipped the uniform reference "
                 "at nominal VPP\n");
    return 1;
  }

  // Gate 2: recompute the grid at a different jobs count; the rendered CSVs
  // must be byte-identical (no manifest on the re-run, so checkpointing
  // cannot mask a divergence).
  core::CampaignPlan replan = base_plan(opt);
  replan.axes.patterns = families;
  replan.jobs = opt.jobs == 1 ? 2 : 1;
  core::CampaignEngine reengine(replan);
  auto regrids = reengine.run_hammer();
  if (!regrids) {
    std::fprintf(stderr, "identity re-run failed: %s\n",
                 regrids.error().to_string().c_str());
    return 3;
  }
  for (std::size_t g = 0; g < grids->size(); ++g) {
    if (core::grid_csv((*grids)[g]).str() !=
        core::grid_csv((*regrids)[g]).str()) {
      std::fprintf(stderr, "FAIL: grid for %s differs between jobs=%d and jobs=%d\n",
                   (*grids)[g].module_name.c_str(), opt.jobs, replan.jobs);
      return 1;
    }
  }
  std::printf("byte-identity jobs=%d vs jobs=%d: OK\n", opt.jobs, replan.jobs);
  return 0;
}
