#include "core/fuzz_campaign.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/rng.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;
using common::JsonValue;

namespace {

/// Domain tag of every fuzz-campaign hash ("fzcp").
constexpr std::uint64_t kFuzzCampaignDomain = 0x667a6370ULL;

/// One (module, VPP level) fuzzing point in plan order.
struct PointKey {
  std::string module;
  std::uint64_t module_seed = 0;
  std::uint64_t vpp_mv = 0;
};

/// The evolution seed of one point: populations at different points (and in
/// campaigns with different base seeds) evolve independently.
std::uint64_t point_population_seed(std::uint64_t seed, const PointKey& key) {
  return common::hash_key(
      {kFuzzCampaignDomain, seed, key.module_seed, key.vpp_mv});
}

/// The (module, VPP) points of a config, in (module, level) plan order --
/// the order populations are stored in manifests and results.
common::Expected<std::vector<PointKey>> plan_points(
    const FuzzCampaignConfig& config) {
  std::vector<PointKey> keys;
  for (const dram::ModuleProfile& profile : config.base.modules) {
    const std::vector<double> levels =
        usable_vpp_levels(config.base.sweep, profile.vppmin_v);
    if (levels.empty()) {
      return Error{ErrorCode::kNoUsableLevels,
                   "no usable VPP levels for module " + profile.name}
          .with_module(profile.name);
    }
    for (const double vpp : levels) {
      keys.push_back({profile.name, profile.seed, vpp_millivolts(vpp)});
    }
  }
  return keys;
}

/// Rank best-first by (score desc, spec_hash asc) -- the same total order
/// evolve_population uses, so displayed rankings match selection pressure.
void rank_members(std::vector<harness::ScoredSpec>& members) {
  std::stable_sort(members.begin(), members.end(),
                   [](const harness::ScoredSpec& a,
                      const harness::ScoredSpec& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.spec.spec_hash() < b.spec.spec_hash();
                   });
}

void population_json(common::JsonWriter& json, const FuzzPopulation& pop) {
  json.begin_object();
  json.kv("module", pop.module);
  json.kv("vpp_mv", pop.vpp_mv);
  json.key("members").begin_array();
  for (const harness::ScoredSpec& m : pop.members) {
    json.begin_object();
    json.kv("score", m.score);
    json.key("spec");
    harness::pattern_spec_json(json, m.spec);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

common::Result<FuzzPopulation> parse_population(const JsonValue& v) {
  if (!v.is_object()) {
    return Error{ErrorCode::kParseError, "fuzz population is not an object"};
  }
  FuzzPopulation pop;
  pop.module = v.string_or("module", "");
  pop.vpp_mv = v.uint_or("vpp_mv", 0);
  if (const JsonValue* members = v.find("members")) {
    for (const JsonValue& item : members->items()) {
      harness::ScoredSpec scored;
      scored.score = item.number_or("score", 0.0);
      const JsonValue* spec = item.find("spec");
      if (spec == nullptr) {
        return Error{ErrorCode::kParseError,
                     "fuzz population member lacks a spec"};
      }
      VPP_ASSIGN_OR_RETURN(scored.spec, harness::parse_pattern_spec(*spec));
      pop.members.push_back(std::move(scored));
    }
  }
  return pop;
}

}  // namespace

std::uint64_t fuzz_config_digest(const FuzzCampaignConfig& config) {
  std::uint64_t h = config.base.digest(JobPhase::kRowHammer);
  h = common::hash_accumulate(h, kFuzzCampaignDomain);
  h = common::hash_accumulate(h, config.generations);
  h = common::hash_accumulate(h, config.fuzzer.population);
  h = common::hash_accumulate(h, config.fuzzer.elites);
  h = common::hash_accumulate(h, config.fuzzer.limits.max_slots);
  h = common::hash_accumulate(h, config.fuzzer.limits.max_aggressors);
  h = common::hash_accumulate(h, config.fuzzer.limits.max_amplitude);
  h = common::hash_accumulate(
      h, static_cast<std::uint64_t>(
             static_cast<std::int64_t>(config.fuzzer.limits.max_offset)));
  // Corpus seeds shape generation 0, so they are part of the identity. The
  // fold is conditional on having any: seedless configs keep their digest.
  for (const harness::PatternSpec& seed_spec : config.fuzzer.seeds) {
    h = common::hash_accumulate(h, seed_spec.spec_hash());
  }
  return h;
}

std::string fuzz_generation_manifest_path(const std::string& manifest_path,
                                          std::uint32_t generation) {
  return manifest_path + ".gen" + std::to_string(generation) + ".json";
}

common::JsonWriter fuzz_manifest_json(const FuzzManifest& m) {
  common::JsonWriter json;
  json.begin_object();
  json.kv("schema", std::string(FuzzManifest::kSchemaPrefix) +
                        std::to_string(m.version));
  json.kv("config_hash", u64_hex(m.config_hash));
  json.kv("generations", static_cast<std::uint64_t>(m.generations));
  json.key("fuzzer").begin_object();
  json.kv("population", static_cast<std::uint64_t>(m.fuzzer.population));
  json.kv("elites", static_cast<std::uint64_t>(m.fuzzer.elites));
  json.key("limits").begin_object();
  json.kv("max_slots", static_cast<std::uint64_t>(m.fuzzer.limits.max_slots));
  json.kv("max_aggressors",
          static_cast<std::uint64_t>(m.fuzzer.limits.max_aggressors));
  json.kv("max_amplitude",
          static_cast<std::uint64_t>(m.fuzzer.limits.max_amplitude));
  json.kv("max_offset",
          static_cast<std::int64_t>(m.fuzzer.limits.max_offset));
  json.end_object();
  // Emitted only when present, so seedless manifests keep their bytes.
  if (!m.fuzzer.seeds.empty()) {
    json.key("seeds").begin_array();
    for (const harness::PatternSpec& seed_spec : m.fuzzer.seeds) {
      harness::pattern_spec_json(json, seed_spec);
    }
    json.end_array();
  }
  json.end_object();
  json.key("plan").raw(campaign_manifest_json(m.plan).str());
  json.end_object();
  return json;
}

common::Result<FuzzManifest> parse_fuzz_manifest(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Error{ErrorCode::kParseError, "fuzz manifest is not an object"};
  }
  const std::string schema = doc.string_or("schema", "");
  if (schema.rfind(FuzzManifest::kSchemaPrefix, 0) != 0) {
    return Error{ErrorCode::kParseError,
                 "not a fuzz manifest (schema '" + schema + "')"};
  }
  FuzzManifest m;
  m.version =
      std::atoi(schema.substr(FuzzManifest::kSchemaPrefix.size()).c_str());
  if (m.version != FuzzManifest::kVersion) {
    return Error{ErrorCode::kParseError,
                 "unsupported fuzz manifest version " + schema};
  }
  if (!parse_u64_hex(doc.string_or("config_hash", ""), m.config_hash)) {
    return Error{ErrorCode::kParseError, "fuzz manifest lacks a config hash"};
  }
  m.generations = static_cast<std::uint32_t>(doc.uint_or("generations", 0));
  if (const JsonValue* fuzzer = doc.find("fuzzer")) {
    m.fuzzer.population =
        static_cast<std::uint32_t>(fuzzer->uint_or("population", 8));
    m.fuzzer.elites = static_cast<std::uint32_t>(fuzzer->uint_or("elites", 2));
    if (const JsonValue* limits = fuzzer->find("limits")) {
      m.fuzzer.limits.max_slots =
          static_cast<std::uint32_t>(limits->uint_or("max_slots", 256));
      m.fuzzer.limits.max_aggressors =
          static_cast<std::uint32_t>(limits->uint_or("max_aggressors", 12));
      m.fuzzer.limits.max_amplitude =
          static_cast<std::uint32_t>(limits->uint_or("max_amplitude", 64));
      m.fuzzer.limits.max_offset =
          static_cast<std::int32_t>(limits->number_or("max_offset", 8));
    }
    if (const JsonValue* seeds = fuzzer->find("seeds")) {
      for (const JsonValue& item : seeds->items()) {
        VPP_ASSIGN_OR_RETURN(harness::PatternSpec seed_spec,
                             harness::parse_pattern_spec(item));
        m.fuzzer.seeds.push_back(std::move(seed_spec));
      }
    }
  }
  const JsonValue* plan = doc.find("plan");
  if (plan == nullptr) {
    return Error{ErrorCode::kParseError, "fuzz manifest lacks a plan"};
  }
  VPP_ASSIGN_OR_RETURN(m.plan, parse_campaign_manifest(*plan));
  return m;
}

namespace {

std::string generation_record(const std::vector<FuzzPopulation>& generation) {
  common::JsonWriter json;
  json.begin_object().key("generation").begin_array();
  for (const FuzzPopulation& pop : generation) population_json(json, pop);
  json.end_array().end_object();
  return json.str();
}

common::Result<FuzzManifest> replay_fuzz_manifest(
    const common::JournalContents& journal) {
  VPP_ASSIGN_OR_RETURN(JsonValue header, common::parse_json(journal.header));
  VPP_ASSIGN_OR_RETURN(FuzzManifest m, parse_fuzz_manifest(header));
  for (const std::string& record : journal.records) {
    VPP_ASSIGN_OR_RETURN(JsonValue doc, common::parse_json(record));
    const JsonValue* generation = doc.find("generation");
    if (generation == nullptr || !generation->is_array()) {
      return Error{ErrorCode::kParseError,
                   "fuzz manifest record is not a generation"};
    }
    std::vector<FuzzPopulation> pops;
    for (const JsonValue& item : generation->items()) {
      VPP_ASSIGN_OR_RETURN(FuzzPopulation pop, parse_population(item));
      pops.push_back(std::move(pop));
    }
    m.completed.push_back(std::move(pops));
  }
  return m;
}

}  // namespace

common::Result<FuzzManifest> load_fuzz_manifest(const std::string& path) {
  VPP_ASSIGN_OR_RETURN(common::JournalContents journal,
                       common::read_journal(path));
  return replay_fuzz_manifest(journal);
}

common::Result<FuzzCampaignConfig> config_from_fuzz_manifest(
    const FuzzManifest& m) {
  FuzzCampaignConfig config;
  VPP_ASSIGN_OR_RETURN(config.base, plan_from_manifest(m.plan));
  config.generations = m.generations;
  config.fuzzer = m.fuzzer;
  return config;
}

common::Expected<FuzzCampaignResult> run_fuzz_campaign(
    const FuzzCampaignConfig& config) {
  if (config.generations == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "fuzz campaign needs at least one generation"};
  }
  if (config.fuzzer.population < 2) {
    return Error{ErrorCode::kInvalidArgument,
                 "fuzz campaign needs a population of at least 2"};
  }
  if (!config.base.axes.patterns.empty()) {
    return Error{ErrorCode::kInvalidArgument,
                 "the fuzz campaign owns the pattern axis; base.axes.patterns "
                 "must be empty"};
  }
  VPP_ASSIGN_OR_RETURN(std::vector<PointKey> keys, plan_points(config));

  const std::uint64_t digest = fuzz_config_digest(config);
  FuzzManifest manifest;
  common::JournalWriter journal;
  const std::string& manifest_path = config.base.manifest_path;
  if (!manifest_path.empty() &&
      std::ifstream(manifest_path.c_str()).good()) {
    common::JournalContents contents;
    VPP_ASSIGN_OR_RETURN(
        journal, common::JournalWriter::open_for_append(manifest_path, contents));
    VPP_ASSIGN_OR_RETURN(manifest, replay_fuzz_manifest(contents));
    if (manifest.config_hash != digest) {
      return Error{ErrorCode::kInvalidArgument,
                   "fuzz manifest config hash mismatch (the config changed "
                   "since the checkpoint was written)"};
    }
    if (manifest.completed.size() > config.generations) {
      return Error{ErrorCode::kInvalidArgument,
                   "fuzz manifest has more generations than the config plans"};
    }
    for (const std::vector<FuzzPopulation>& generation : manifest.completed) {
      if (generation.size() != keys.size()) {
        return Error{ErrorCode::kInvalidArgument,
                     "fuzz manifest population layout mismatch"};
      }
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (generation[k].module != keys[k].module ||
            generation[k].vpp_mv != keys[k].vpp_mv) {
          return Error{ErrorCode::kInvalidArgument,
                       "fuzz manifest population layout mismatch"};
        }
      }
    }
  } else {
    manifest.config_hash = digest;
    manifest.generations = config.generations;
    manifest.fuzzer = config.fuzzer;
    manifest.plan = manifest_spec(config.base, JobPhase::kRowHammer);
    // Write the header up front: generation 0's engine checkpoints land
    // beside it, and a kill before the first generation completes must
    // still leave a file `fuzz resume` can load. It counts as a checkpoint,
    // so VPP_CAMPAIGN_KILL_AFTER boundaries land where they always did.
    if (!manifest_path.empty()) {
      VPP_ASSIGN_OR_RETURN(
          journal, common::JournalWriter::create(
                       manifest_path, fuzz_manifest_json(manifest).str()));
      campaign_checkpoint_written();
    }
  }

  const auto done = static_cast<std::uint32_t>(manifest.completed.size());
  std::vector<std::vector<harness::ScoredSpec>> scored(keys.size());
  std::vector<HammerGrid> grids;
  for (std::uint32_t g = 0; g < config.generations; ++g) {
    // This generation's populations: restored verbatim for completed
    // generations, evolved from the previous scores otherwise. Either way
    // they are the same specs -- evolution is a pure function of the stored
    // state, which is what makes resume bit-identical.
    std::vector<std::vector<harness::PatternSpec>> pops(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (g < done) {
        for (const harness::ScoredSpec& m : manifest.completed[g][k].members) {
          pops[k].push_back(m.spec);
        }
      } else {
        pops[k] = harness::evolve_population(
            scored[k], point_population_seed(config.base.seed, keys[k]), g,
            config.fuzzer);
      }
    }

    // A completed generation needs no session time; the engine only runs for
    // the last one (restoring from its checkpoint when there is one) so the
    // result carries the final grids.
    const bool run_engine = g >= done || g + 1 == config.generations;
    if (run_engine) {
      // One pattern axis for the whole grid: the uniform reference first
      // (the bench baseline), then the union of every point's population,
      // deduplicated by spec hash in point order.
      std::vector<harness::PatternSpec> axis;
      std::vector<std::uint64_t> seen;
      axis.push_back(harness::uniform_double_sided_spec());
      seen.push_back(axis.back().spec_hash());
      for (const std::vector<harness::PatternSpec>& pop : pops) {
        for (const harness::PatternSpec& spec : pop) {
          const std::uint64_t h = spec.spec_hash();
          if (std::find(seen.begin(), seen.end(), h) == seen.end()) {
            axis.push_back(spec);
            seen.push_back(h);
          }
        }
      }

      CampaignPlan plan = config.base;
      plan.axes.patterns = std::move(axis);
      plan.manifest_path =
          manifest_path.empty()
              ? std::string{}
              : fuzz_generation_manifest_path(manifest_path, g);
      CampaignEngine engine(std::move(plan));
      auto run = engine.run_hammer();
      if (!run) {
        return std::move(run).error().with_context(
            "fuzz generation " + std::to_string(g));
      }
      grids = std::move(*run);
    }

    if (g < done) {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        scored[k] = manifest.completed[g][k].members;
      }
      continue;
    }

    // Fitness: summed post-TRR flips (hc_first) of a spec's grid cells at
    // the population's (module, VPP) point, across all temperatures.
    std::vector<FuzzPopulation> generation(keys.size());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      scored[k].clear();
      for (const harness::PatternSpec& spec : pops[k]) {
        const std::uint64_t hash = spec.spec_hash();
        double total = 0.0;
        for (const HammerGrid& grid : grids) {
          if (grid.module_name != keys[k].module) continue;
          for (std::size_t p = 0; p < grid.points.size(); ++p) {
            const AxisPoint& point = grid.points[p];
            if (point.pattern_hash != hash ||
                vpp_millivolts(point.vpp_v) != keys[k].vpp_mv) {
              continue;
            }
            for (const harness::RowHammerRowResult& row : grid.cells[p]) {
              total += static_cast<double>(row.hc_first);
            }
          }
        }
        scored[k].push_back({spec, total});
      }
      generation[k].module = keys[k].module;
      generation[k].vpp_mv = keys[k].vpp_mv;
      generation[k].members = scored[k];
    }
    if (journal.is_open()) {
      VPP_RETURN_IF_ERROR(journal.append(generation_record(generation)));
      campaign_checkpoint_written();
    }
    manifest.completed.push_back(std::move(generation));
  }

  FuzzCampaignResult result;
  result.generations = config.generations;
  result.points.resize(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    result.points[k].module = keys[k].module;
    result.points[k].vpp_mv = keys[k].vpp_mv;
    result.points[k].members = scored[k];
    rank_members(result.points[k].members);
  }
  result.grids = std::move(grids);
  return result;
}

}  // namespace vppstudy::core
