#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <utility>

#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "harness/wcdp.hpp"
#include "softmc/session.hpp"

namespace vppstudy::core {

using common::Error;
using common::ErrorCode;
using common::JsonValue;

softmc::Session& SessionArena::acquire(const dram::ModuleProfile& profile) {
  auto& slot = sessions[profile.name];
  if (slot) {
    slot->reset_for_job();
  } else {
    slot = std::make_unique<softmc::Session>(profile);
  }
  return *slot;
}

std::string_view campaign_phase_name(JobPhase phase) noexcept {
  switch (phase) {
    case JobPhase::kWcdp: return "wcdp";
    case JobPhase::kRowHammer: return "rowhammer";
    case JobPhase::kTrcd: return "trcd";
    case JobPhase::kRetention: return "retention";
  }
  return "unknown";
}

bool campaign_phase_from_name(std::string_view name, JobPhase& out) noexcept {
  constexpr JobPhase kAll[] = {JobPhase::kWcdp, JobPhase::kRowHammer,
                               JobPhase::kTrcd, JobPhase::kRetention};
  for (const JobPhase p : kAll) {
    if (campaign_phase_name(p) == name) {
      out = p;
      return true;
    }
  }
  return false;
}

namespace {

void counts_json(common::JsonWriter& json, const softmc::CommandCounts& c) {
  json.begin_object();
  json.kv("activates", c.activates);
  json.kv("hammer_loops", c.hammer_loops);
  json.kv("hammer_activations", c.hammer_activations);
  json.kv("reads", c.reads);
  json.kv("writes", c.writes);
  json.kv("precharges", c.precharges);
  json.kv("refreshes", c.refreshes);
  json.kv("waits", c.waits);
  json.kv("timing_violations", c.timing_violations);
  json.kv("device_errors", c.device_errors);
  json.kv("simulated_ns", c.simulated_ns);
  json.end_object();
}

[[nodiscard]] softmc::CommandCounts counts_from_json(const JsonValue& v) {
  softmc::CommandCounts c;
  c.activates = v.uint_or("activates", 0);
  c.hammer_loops = v.uint_or("hammer_loops", 0);
  c.hammer_activations = v.uint_or("hammer_activations", 0);
  c.reads = v.uint_or("reads", 0);
  c.writes = v.uint_or("writes", 0);
  c.precharges = v.uint_or("precharges", 0);
  c.refreshes = v.uint_or("refreshes", 0);
  c.waits = v.uint_or("waits", 0);
  c.timing_violations = v.uint_or("timing_violations", 0);
  c.device_errors = v.uint_or("device_errors", 0);
  c.simulated_ns = v.number_or("simulated_ns", 0.0);
  return c;
}

void point_json(common::JsonWriter& json, const AxisPoint& p) {
  json.begin_object();
  json.kv("vpp_v", p.vpp_v);
  json.kv("temperature_c", p.temperature_c);
  json.kv("hammer_count", p.hammer_count);
  json.kv("act_to_act_ns", p.act_to_act_ns);
  // Emitted only for pattern points: pre-pattern manifests stay
  // byte-identical, and old readers ignore the extra key. Hex string because
  // JsonValue stores numbers as doubles (53-bit mantissa).
  if (p.pattern_hash != 0) json.kv("pattern_hash", u64_hex(p.pattern_hash));
  json.end_object();
}

[[nodiscard]] AxisPoint point_from_json(const JsonValue& v) {
  AxisPoint p;
  p.vpp_v = v.number_or("vpp_v", 0.0);
  p.temperature_c = v.number_or("temperature_c", 0.0);
  p.hammer_count = v.uint_or("hammer_count", 0);
  p.act_to_act_ns = v.number_or("act_to_act_ns", 0.0);
  if (const std::string hex = v.string_or("pattern_hash", ""); !hex.empty()) {
    (void)parse_u64_hex(hex, p.pattern_hash);
  }
  return p;
}

[[nodiscard]] bool pattern_from_uint(std::uint64_t v, dram::DataPattern& out) {
  if (v >= dram::kAllPatterns.size()) return false;
  out = static_cast<dram::DataPattern>(v);
  return true;
}

}  // namespace

void campaign_checkpoint_written() {
  static std::atomic<int> armed_writes{0};
  const char* env = std::getenv("VPP_CAMPAIGN_KILL_AFTER");
  const int budget = env != nullptr ? std::atoi(env) : -1;
  if (budget < 0) {
    armed_writes = 0;
    return;
  }
  if (++armed_writes >= budget) std::raise(SIGKILL);
}

std::string u64_hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_u64_hex(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

void manifest_wcdp_json(common::JsonWriter& json, const ManifestWcdp& record) {
  json.begin_object();
  json.kv("module", record.module);
  json.key("patterns").begin_array();
  for (const dram::DataPattern p : record.wcdp) {
    json.value(static_cast<std::uint64_t>(p));
  }
  json.end_array();
  json.kv("counted", record.counted);
  if (record.counted) {
    json.key("counts");
    counts_json(json, record.counts);
  }
  json.end_object();
}

void manifest_shard_json(common::JsonWriter& json, const ManifestShard& s,
                         JobPhase phase) {
  json.begin_object();
  json.kv("module", s.module);
  json.key("point");
  point_json(json, s.point);
  json.kv("row_begin", static_cast<std::uint64_t>(s.row_begin));
  json.kv("row_end", static_cast<std::uint64_t>(s.row_end));
  json.kv("counted", s.counted);
  if (s.counted) {
    json.key("counts");
    counts_json(json, s.counts);
  }
  json.key("rows").begin_array();
  switch (phase) {
    case JobPhase::kWcdp:
      break;
    case JobPhase::kRowHammer:
      for (const harness::RowHammerRowResult& rr : s.hammer) {
        json.begin_object();
        json.kv("row", static_cast<std::uint64_t>(rr.row));
        json.kv("wcdp", static_cast<std::uint64_t>(rr.wcdp));
        json.kv("hc_first", rr.hc_first);
        json.kv("ber", rr.ber);
        json.end_object();
      }
      break;
    case JobPhase::kTrcd:
      for (const harness::TrcdRowResult& rr : s.trcd) {
        json.begin_object();
        json.kv("row", static_cast<std::uint64_t>(rr.row));
        json.kv("wcdp", static_cast<std::uint64_t>(rr.wcdp));
        json.kv("trcd_min_ns", rr.trcd_min_ns);
        json.end_object();
      }
      break;
    case JobPhase::kRetention:
      for (const harness::RetentionRowResult& rr : s.retention) {
        json.begin_object();
        json.kv("row", static_cast<std::uint64_t>(rr.row));
        json.kv("wcdp", static_cast<std::uint64_t>(rr.wcdp));
        json.key("trefw_ms").begin_array();
        for (const double t : rr.trefw_ms) json.value(t);
        json.end_array();
        json.key("ber").begin_array();
        for (const double b : rr.ber) json.value(b);
        json.end_array();
        json.end_object();
      }
      break;
  }
  json.end_array();
  json.end_object();
}

common::Result<ManifestWcdp> parse_manifest_wcdp(const JsonValue& item) {
  const auto fail = [](std::string what) {
    return Error{ErrorCode::kParseError,
                 "campaign manifest: " + std::move(what)};
  };
  if (!item.is_object()) return fail("wcdp entry is not an object");
  ManifestWcdp record;
  record.module = item.string_or("module", "");
  if (record.module.empty()) return fail("wcdp entry missing module");
  const JsonValue* patterns = item.find("patterns");
  if (patterns == nullptr || !patterns->is_array()) {
    return fail("wcdp entry missing 'patterns'");
  }
  for (const JsonValue& p : patterns->items()) {
    dram::DataPattern pattern = dram::DataPattern::kCheckerAA;
    if (!p.is_number() ||
        !pattern_from_uint(static_cast<std::uint64_t>(p.as_number()),
                           pattern)) {
      return fail("wcdp entry has malformed pattern");
    }
    record.wcdp.push_back(pattern);
  }
  record.counted = item.bool_or("counted", false);
  if (const JsonValue* counts = item.find("counts")) {
    record.counts = counts_from_json(*counts);
  }
  return record;
}

common::Result<ManifestShard> parse_manifest_shard(const JsonValue& item,
                                                   JobPhase phase) {
  const auto fail = [](std::string what) {
    return Error{ErrorCode::kParseError,
                 "campaign manifest: " + std::move(what)};
  };
  if (!item.is_object()) return fail("shard entry is not an object");
  ManifestShard shard;
  shard.module = item.string_or("module", "");
  if (shard.module.empty()) return fail("shard entry missing module");
  const JsonValue* point = item.find("point");
  if (point == nullptr || !point->is_object()) {
    return fail("shard entry missing 'point'");
  }
  shard.point = point_from_json(*point);
  shard.row_begin = static_cast<std::uint32_t>(item.uint_or("row_begin", 0));
  shard.row_end = static_cast<std::uint32_t>(item.uint_or("row_end", 0));
  if (shard.row_end < shard.row_begin) {
    return fail("shard entry has inverted row range");
  }
  shard.counted = item.bool_or("counted", false);
  if (const JsonValue* counts = item.find("counts")) {
    shard.counts = counts_from_json(*counts);
  }
  const JsonValue* rows = item.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return fail("shard entry missing 'rows'");
  }
  for (const JsonValue& rv : rows->items()) {
    if (!rv.is_object()) return fail("shard row is not an object");
    dram::DataPattern pattern = dram::DataPattern::kCheckerAA;
    if (!pattern_from_uint(rv.uint_or("wcdp", 0), pattern)) {
      return fail("shard row has malformed wcdp");
    }
    switch (phase) {
      case JobPhase::kWcdp:
        return fail("wcdp phase cannot carry shard rows");
      case JobPhase::kRowHammer: {
        harness::RowHammerRowResult rr;
        rr.row = static_cast<std::uint32_t>(rv.uint_or("row", 0));
        rr.wcdp = pattern;
        rr.hc_first = rv.uint_or("hc_first", 0);
        rr.ber = rv.number_or("ber", 0.0);
        shard.hammer.push_back(rr);
        break;
      }
      case JobPhase::kTrcd: {
        harness::TrcdRowResult rr;
        rr.row = static_cast<std::uint32_t>(rv.uint_or("row", 0));
        rr.wcdp = pattern;
        rr.trcd_min_ns = rv.number_or("trcd_min_ns", 0.0);
        shard.trcd.push_back(rr);
        break;
      }
      case JobPhase::kRetention: {
        harness::RetentionRowResult rr;
        rr.row = static_cast<std::uint32_t>(rv.uint_or("row", 0));
        rr.wcdp = pattern;
        const JsonValue* windows = rv.find("trefw_ms");
        const JsonValue* bers = rv.find("ber");
        if (windows == nullptr || !windows->is_array() || bers == nullptr ||
            !bers->is_array()) {
          return fail("retention shard row missing window arrays");
        }
        for (const JsonValue& w : windows->items()) {
          rr.trefw_ms.push_back(w.as_number());
        }
        for (const JsonValue& b : bers->items()) {
          rr.ber.push_back(b.as_number());
        }
        if (rr.trefw_ms.size() != rr.ber.size()) {
          return fail("retention shard row window/ber size mismatch");
        }
        shard.retention.push_back(std::move(rr));
        break;
      }
    }
  }
  const std::size_t got =
      shard.hammer.size() + shard.trcd.size() + shard.retention.size();
  if (got != shard.row_end - shard.row_begin) {
    return fail("shard row payload does not match its row range");
  }
  return shard;
}

std::uint64_t CampaignPlan::digest(JobPhase phase) const {
  std::uint64_t h = common::hash_key(
      {0x766361706c616eULL,  // "vcaplan" domain separator
       static_cast<std::uint64_t>(phase), seed,
       static_cast<std::uint64_t>(rows_per_shard)});
  const auto acc = [&h](std::uint64_t w) { h = common::hash_accumulate(h, w); };
  const auto accd = [&acc](double v) { acc(std::bit_cast<std::uint64_t>(v)); };
  acc(sweep.sampling.bank);
  acc(sweep.sampling.chunks);
  acc(sweep.sampling.rows_per_chunk);
  acc(sweep.determine_wcdp ? 1 : 0);
  acc(sweep.hammer.initial_hc);
  acc(sweep.hammer.initial_step);
  acc(sweep.hammer.min_step);
  acc(sweep.hammer.ber_hc);
  acc(static_cast<std::uint64_t>(sweep.hammer.num_iterations));
  accd(sweep.hammer.act_to_act_ns);
  accd(sweep.trcd.start_ns);
  accd(sweep.trcd.step_ns);
  accd(sweep.trcd.max_ns);
  acc(static_cast<std::uint64_t>(sweep.trcd.num_iterations));
  acc(sweep.trcd.column_stride);
  accd(sweep.retention.min_trefw_ms);
  accd(sweep.retention.max_trefw_ms);
  acc(static_cast<std::uint64_t>(sweep.retention.num_iterations));
  acc(sweep.vpp_levels.size());
  for (const double v : sweep.vpp_levels) acc(vpp_millivolts(v));
  acc(axes.temperatures_c.size());
  for (const double t : axes.temperatures_c) {
    acc(static_cast<std::uint64_t>(temperature_millidegrees(t)));
  }
  acc(axes.hammer_counts.size());
  for (const std::uint64_t hc : axes.hammer_counts) acc(hc);
  acc(axes.act_to_act_ns.size());
  for (const double a : axes.act_to_act_ns) {
    acc(static_cast<std::uint64_t>(act_to_act_picoseconds(a)));
  }
  // Folded only when the pattern axis is populated: hash_key's left-fold
  // structure then keeps every pre-pattern plan digest unchanged.
  if (!axes.patterns.empty()) {
    acc(axes.patterns.size());
    for (const harness::PatternSpec& spec : axes.patterns) {
      acc(spec.spec_hash());
    }
  }
  acc(modules.size());
  for (const dram::ModuleProfile& mod : modules) {
    std::uint64_t name_hash = common::kHashInit;
    for (const char c : mod.name) {
      name_hash = common::hash_accumulate(
          name_hash, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    acc(name_hash);
    acc(mod.seed);
    acc(mod.rows_per_bank);
  }
  return h;
}

// --- Grid -> per-level sweep conversions -------------------------------------
// Byte-exact replicas of the pre-engine reductions: same iteration order,
// same float accumulation order.

ModuleSweepResult HammerGrid::to_sweep() const {
  ModuleSweepResult result;
  result.module_name = module_name;
  result.mfr = mfr;
  result.vppmin_v = vppmin_v;
  result.vpp_levels.reserve(points.size());
  for (const AxisPoint& p : points) result.vpp_levels.push_back(p.vpp_v);
  result.instrumentation = instrumentation;
  result.rows.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    result.rows[i].row = rows[i];
    result.rows[i].wcdp = wcdp[i];
  }
  for (const auto& cell : cells) {
    for (std::size_t i = 0; i < cell.size(); ++i) {
      result.rows[i].hc_first.push_back(cell[i].hc_first);
      result.rows[i].ber.push_back(cell[i].ber);
    }
  }
  return result;
}

TrcdSweepResult TrcdGrid::to_sweep() const {
  TrcdSweepResult result;
  result.module_name = module_name;
  result.vppmin_v = vppmin_v;
  result.vpp_levels.reserve(points.size());
  for (const AxisPoint& p : points) result.vpp_levels.push_back(p.vpp_v);
  result.instrumentation = instrumentation;
  for (const auto& cell : cells) {
    // Module tRCDmin is the max across sampled rows (Table 3 semantics).
    double trcd_min_ns = 0.0;
    for (const harness::TrcdRowResult& rr : cell) {
      trcd_min_ns = std::max(trcd_min_ns, rr.trcd_min_ns);
    }
    result.trcd_min_ns.push_back(trcd_min_ns);
  }
  return result;
}

RetentionSweepResult RetentionGrid::to_sweep() const {
  RetentionSweepResult result;
  result.module_name = module_name;
  result.mfr = mfr;
  result.vpp_levels.reserve(points.size());
  for (const AxisPoint& p : points) result.vpp_levels.push_back(p.vpp_v);
  result.instrumentation = instrumentation;
  const double row_count = static_cast<double>(rows.size());
  for (const auto& cell : cells) {
    std::vector<double> sums;
    std::vector<double> ref_bers;
    for (const harness::RetentionRowResult& rr : cell) {
      if (result.trefw_ms.empty()) result.trefw_ms = rr.trefw_ms;
      if (sums.empty()) sums.assign(rr.ber.size(), 0.0);
      for (std::size_t w = 0; w < rr.ber.size(); ++w) sums[w] += rr.ber[w];
      // Per-row BER at the reference window (closest probed window).
      std::size_t ref = 0;
      for (std::size_t w = 0; w < rr.trefw_ms.size(); ++w) {
        if (std::abs(rr.trefw_ms[w] - result.reference_trefw_ms) <
            std::abs(rr.trefw_ms[ref] - result.reference_trefw_ms)) {
          ref = w;
        }
      }
      ref_bers.push_back(rr.ber[ref]);
    }
    for (double& s : sums) s /= row_count;
    result.mean_ber.push_back(std::move(sums));
    result.row_ber_at_reference.push_back(std::move(ref_bers));
  }
  return result;
}

// --- Manifest serialization --------------------------------------------------

namespace {

/// The manifest document; without records it is the journal header.
common::JsonWriter render_manifest(const CampaignManifest& manifest,
                                   bool with_records) {
  common::JsonWriter json;
  json.begin_object();
  json.kv("schema", std::string(CampaignManifest::kSchemaPrefix) +
                        std::to_string(manifest.version));
  json.kv("phase", campaign_phase_name(manifest.phase));
  json.kv("plan_hash", u64_hex(manifest.plan_hash));
  json.kv("seed", u64_hex(manifest.seed));
  json.kv("rows_per_shard", static_cast<std::uint64_t>(manifest.rows_per_shard));
  json.kv("planned_shards", manifest.planned_shards);

  const SweepConfig& sweep = manifest.sweep;
  json.key("sweep").begin_object();
  json.key("vpp_levels").begin_array();
  for (const double v : sweep.vpp_levels) json.value(v);
  json.end_array();
  json.kv("bank", static_cast<std::uint64_t>(sweep.sampling.bank));
  json.kv("chunks", static_cast<std::uint64_t>(sweep.sampling.chunks));
  json.kv("rows_per_chunk",
          static_cast<std::uint64_t>(sweep.sampling.rows_per_chunk));
  json.kv("determine_wcdp", sweep.determine_wcdp);
  json.key("hammer").begin_object();
  json.kv("initial_hc", sweep.hammer.initial_hc);
  json.kv("initial_step", sweep.hammer.initial_step);
  json.kv("min_step", sweep.hammer.min_step);
  json.kv("ber_hc", sweep.hammer.ber_hc);
  json.kv("num_iterations", sweep.hammer.num_iterations);
  json.kv("act_to_act_ns", sweep.hammer.act_to_act_ns);
  json.end_object();
  json.key("trcd").begin_object();
  json.kv("start_ns", sweep.trcd.start_ns);
  json.kv("step_ns", sweep.trcd.step_ns);
  json.kv("max_ns", sweep.trcd.max_ns);
  json.kv("num_iterations", sweep.trcd.num_iterations);
  json.kv("column_stride", static_cast<std::uint64_t>(sweep.trcd.column_stride));
  json.end_object();
  json.key("retention").begin_object();
  json.kv("min_trefw_ms", sweep.retention.min_trefw_ms);
  json.kv("max_trefw_ms", sweep.retention.max_trefw_ms);
  json.kv("num_iterations", sweep.retention.num_iterations);
  json.end_object();
  json.end_object();

  json.key("axes").begin_object();
  json.key("temperatures_c").begin_array();
  for (const double t : manifest.axes.temperatures_c) json.value(t);
  json.end_array();
  json.key("hammer_counts").begin_array();
  for (const std::uint64_t hc : manifest.axes.hammer_counts) json.value(hc);
  json.end_array();
  json.key("act_to_act_ns").begin_array();
  for (const double a : manifest.axes.act_to_act_ns) json.value(a);
  json.end_array();
  // Key emitted only when populated: pre-pattern manifests stay
  // byte-identical.
  if (!manifest.axes.patterns.empty()) {
    json.key("patterns").begin_array();
    for (const harness::PatternSpec& spec : manifest.axes.patterns) {
      harness::pattern_spec_json(json, spec);
    }
    json.end_array();
  }
  json.end_object();

  json.key("modules").begin_array();
  for (const auto& [name, rows_per_bank] : manifest.modules) {
    json.begin_object();
    json.kv("name", name);
    json.kv("rows_per_bank", static_cast<std::uint64_t>(rows_per_bank));
    json.end_object();
  }
  json.end_array();

  json.key("wcdp").begin_array();
  if (with_records) {
    for (const ManifestWcdp& w : manifest.wcdp) manifest_wcdp_json(json, w);
  }
  json.end_array();

  json.key("shards").begin_array();
  if (with_records) {
    for (const ManifestShard& s : manifest.shards) {
      manifest_shard_json(json, s, manifest.phase);
    }
  }
  json.end_array();

  json.end_object();
  return json;
}

}  // namespace

common::JsonWriter campaign_manifest_json(const CampaignManifest& manifest) {
  return render_manifest(manifest, /*with_records=*/true);
}

common::Result<CampaignManifest> parse_campaign_manifest(const JsonValue& doc) {
  const auto fail = [](std::string what) {
    return Error{ErrorCode::kParseError,
                 "campaign manifest: " + std::move(what)};
  };
  if (!doc.is_object()) return fail("document is not an object");

  const std::string schema = doc.string_or("schema", "");
  if (schema.rfind(CampaignManifest::kSchemaPrefix, 0) != 0) {
    return fail("unrecognized schema '" + schema + "'");
  }
  CampaignManifest m;
  m.version = std::atoi(
      schema.substr(CampaignManifest::kSchemaPrefix.size()).c_str());
  if (m.version != CampaignManifest::kVersion) {
    return fail("unsupported version " + std::to_string(m.version));
  }
  if (!campaign_phase_from_name(doc.string_or("phase", ""), m.phase)) {
    return fail("unknown phase '" + doc.string_or("phase", "") + "'");
  }
  if (!parse_u64_hex(doc.string_or("plan_hash", ""), m.plan_hash)) {
    return fail("missing or malformed plan_hash");
  }
  if (!parse_u64_hex(doc.string_or("seed", ""), m.seed)) {
    return fail("missing or malformed seed");
  }
  m.rows_per_shard = static_cast<std::uint32_t>(doc.uint_or("rows_per_shard", 0));
  m.planned_shards = doc.uint_or("planned_shards", 0);

  const JsonValue* sweep = doc.find("sweep");
  if (sweep == nullptr || !sweep->is_object()) {
    return fail("missing 'sweep' object");
  }
  const JsonValue* levels = sweep->find("vpp_levels");
  if (levels == nullptr || !levels->is_array()) {
    return fail("missing 'vpp_levels' array");
  }
  for (const JsonValue& v : levels->items()) {
    if (!v.is_number()) return fail("non-numeric vpp level");
    m.sweep.vpp_levels.push_back(v.as_number());
  }
  m.sweep.sampling.bank = static_cast<std::uint32_t>(sweep->uint_or("bank", 0));
  m.sweep.sampling.chunks =
      static_cast<std::uint32_t>(sweep->uint_or("chunks", 4));
  m.sweep.sampling.rows_per_chunk =
      static_cast<std::uint32_t>(sweep->uint_or("rows_per_chunk", 1024));
  m.sweep.determine_wcdp = sweep->bool_or("determine_wcdp", true);
  if (const JsonValue* hammer = sweep->find("hammer")) {
    m.sweep.hammer.initial_hc =
        hammer->uint_or("initial_hc", m.sweep.hammer.initial_hc);
    m.sweep.hammer.initial_step =
        hammer->uint_or("initial_step", m.sweep.hammer.initial_step);
    m.sweep.hammer.min_step =
        hammer->uint_or("min_step", m.sweep.hammer.min_step);
    m.sweep.hammer.ber_hc = hammer->uint_or("ber_hc", m.sweep.hammer.ber_hc);
    m.sweep.hammer.num_iterations = static_cast<int>(
        hammer->uint_or("num_iterations",
                        static_cast<std::uint64_t>(
                            m.sweep.hammer.num_iterations)));
    m.sweep.hammer.act_to_act_ns =
        hammer->number_or("act_to_act_ns", m.sweep.hammer.act_to_act_ns);
  }
  if (const JsonValue* trcd = sweep->find("trcd")) {
    m.sweep.trcd.start_ns = trcd->number_or("start_ns", m.sweep.trcd.start_ns);
    m.sweep.trcd.step_ns = trcd->number_or("step_ns", m.sweep.trcd.step_ns);
    m.sweep.trcd.max_ns = trcd->number_or("max_ns", m.sweep.trcd.max_ns);
    m.sweep.trcd.num_iterations = static_cast<int>(trcd->uint_or(
        "num_iterations",
        static_cast<std::uint64_t>(m.sweep.trcd.num_iterations)));
    m.sweep.trcd.column_stride = static_cast<std::uint32_t>(
        trcd->uint_or("column_stride", m.sweep.trcd.column_stride));
  }
  if (const JsonValue* ret = sweep->find("retention")) {
    m.sweep.retention.min_trefw_ms =
        ret->number_or("min_trefw_ms", m.sweep.retention.min_trefw_ms);
    m.sweep.retention.max_trefw_ms =
        ret->number_or("max_trefw_ms", m.sweep.retention.max_trefw_ms);
    m.sweep.retention.num_iterations = static_cast<int>(ret->uint_or(
        "num_iterations",
        static_cast<std::uint64_t>(m.sweep.retention.num_iterations)));
  }

  if (const JsonValue* axes = doc.find("axes")) {
    if (const JsonValue* temps = axes->find("temperatures_c")) {
      for (const JsonValue& v : temps->items()) {
        m.axes.temperatures_c.push_back(v.as_number());
      }
    }
    if (const JsonValue* hcs = axes->find("hammer_counts")) {
      for (const JsonValue& v : hcs->items()) {
        m.axes.hammer_counts.push_back(
            static_cast<std::uint64_t>(v.as_number()));
      }
    }
    if (const JsonValue* acts = axes->find("act_to_act_ns")) {
      for (const JsonValue& v : acts->items()) {
        m.axes.act_to_act_ns.push_back(v.as_number());
      }
    }
    if (const JsonValue* pats = axes->find("patterns")) {
      for (const JsonValue& v : pats->items()) {
        VPP_ASSIGN_OR_RETURN(harness::PatternSpec spec,
                             harness::parse_pattern_spec(v));
        m.axes.patterns.push_back(std::move(spec));
      }
    }
  }

  const JsonValue* modules = doc.find("modules");
  if (modules == nullptr || !modules->is_array()) {
    return fail("missing 'modules' array");
  }
  for (const JsonValue& item : modules->items()) {
    if (!item.is_object()) return fail("module entry is not an object");
    const std::string name = item.string_or("name", "");
    if (name.empty()) return fail("module entry missing name");
    m.modules.emplace_back(
        name, static_cast<std::uint32_t>(item.uint_or("rows_per_bank", 0)));
  }
  return m;  // records live in the journal, after this header
}

// --- Manifest journal --------------------------------------------------------

CampaignManifest manifest_spec(const CampaignPlan& plan, JobPhase phase) {
  CampaignManifest spec;
  spec.phase = phase;
  spec.plan_hash = plan.digest(phase);
  spec.sweep = plan.sweep;
  spec.axes = plan.axes;
  spec.seed = plan.seed;
  spec.rows_per_shard = plan.rows_per_shard;
  for (const dram::ModuleProfile& mod : plan.modules) {
    spec.modules.emplace_back(mod.name, mod.rows_per_bank);
  }
  return spec;
}

common::Status check_manifest_binding(const CampaignManifest& manifest,
                                      JobPhase phase, std::uint64_t plan_hash) {
  if (manifest.phase != phase) {
    return Error{ErrorCode::kInvalidArgument,
                 "campaign manifest phase mismatch: checkpoint is " +
                     std::string(campaign_phase_name(manifest.phase)) +
                     ", plan wants " + std::string(campaign_phase_name(phase))};
  }
  if (manifest.plan_hash != plan_hash) {
    return Error{ErrorCode::kInvalidArgument,
                 "campaign manifest plan hash mismatch (the plan changed "
                 "since the checkpoint was written)"};
  }
  return common::Status::ok_status();
}

std::string campaign_journal_header(const CampaignManifest& manifest) {
  return render_manifest(manifest, /*with_records=*/false).str();
}

std::string campaign_wcdp_record(const ManifestWcdp& record) {
  common::JsonWriter json;
  json.begin_object().key("wcdp");
  manifest_wcdp_json(json, record);
  json.end_object();
  return json.str();
}

std::string campaign_shard_record(const ManifestShard& shard, JobPhase phase) {
  common::JsonWriter json;
  json.begin_object().key("shard");
  manifest_shard_json(json, shard, phase);
  json.end_object();
  return json.str();
}

namespace {

common::Result<CampaignManifest> replay_campaign_manifest(
    const common::JournalContents& journal) {
  VPP_ASSIGN_OR_RETURN(JsonValue header, common::parse_json(journal.header));
  VPP_ASSIGN_OR_RETURN(CampaignManifest m, parse_campaign_manifest(header));
  for (const std::string& text : journal.records) {
    VPP_ASSIGN_OR_RETURN(JsonValue record, common::parse_json(text));
    if (const JsonValue* shard = record.find("shard")) {
      VPP_ASSIGN_OR_RETURN(ManifestShard s,
                           parse_manifest_shard(*shard, m.phase));
      m.shards.push_back(std::move(s));
    } else if (const JsonValue* wcdp = record.find("wcdp")) {
      VPP_ASSIGN_OR_RETURN(ManifestWcdp w, parse_manifest_wcdp(*wcdp));
      m.wcdp.push_back(std::move(w));
    } else {
      return Error{ErrorCode::kParseError,
                   "campaign manifest: record is neither a shard nor a wcdp"};
    }
  }
  return m;
}

}  // namespace

common::Result<CampaignManifest> load_campaign_manifest(
    const std::string& path) {
  VPP_ASSIGN_OR_RETURN(common::JournalContents journal,
                       common::read_journal(path));
  return replay_campaign_manifest(journal);
}

common::Result<common::JournalWriter> open_campaign_manifest(
    const std::string& path, CampaignManifest& manifest) {
  common::JournalContents journal;
  VPP_ASSIGN_OR_RETURN(common::JournalWriter writer,
                       common::JournalWriter::open_for_append(path, journal));
  VPP_ASSIGN_OR_RETURN(manifest, replay_campaign_manifest(journal));
  return writer;
}

bool write_campaign_manifest(const std::string& path,
                             const CampaignManifest& manifest) {
  std::vector<std::string> records;
  records.reserve(manifest.wcdp.size() + manifest.shards.size());
  for (const ManifestWcdp& w : manifest.wcdp) {
    records.push_back(campaign_wcdp_record(w));
  }
  for (const ManifestShard& s : manifest.shards) {
    records.push_back(campaign_shard_record(s, manifest.phase));
  }
  if (!common::JournalWriter::create(path, campaign_journal_header(manifest),
                                     records)) {
    return false;
  }
  if (!records.empty()) campaign_checkpoint_written();
  return true;
}

common::Result<CampaignPlan> plan_from_manifest(
    const CampaignManifest& manifest) {
  CampaignPlan plan;
  plan.sweep = manifest.sweep;
  plan.axes = manifest.axes;
  plan.seed = manifest.seed;
  plan.rows_per_shard = manifest.rows_per_shard;
  plan.modules.reserve(manifest.modules.size());
  for (const auto& [name, rows_per_bank] : manifest.modules) {
    auto profile = chips::profile_by_name(name);
    if (!profile) {
      return Error{ErrorCode::kInvalidArgument,
                   "campaign manifest references unknown module '" + name +
                       "'"};
    }
    if (rows_per_bank != 0) profile->rows_per_bank = rows_per_bank;
    plan.modules.push_back(std::move(*profile));
  }
  return plan;
}

}  // namespace vppstudy::core
