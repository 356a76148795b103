// vppctl: command-line front end to the characterization stack.
//
//   vppctl list
//       Print the module catalog (Table 3 anchors).
//   vppctl hammer  --module B3 [--vpp 1.8] [--row 1500] [--hc 300000]
//                  [--counters] [--trace [N]]
//       Double-sided hammer one row and report BER + HCfirst.
//       --counters prints the rig session's command counts; --trace prints
//       the last N commands the rig issued (default 32).
//   vppctl sweep   --module B3 --test rowhammer|trcd|retention
//                  [--rows 16] [--step 0.2] [--seed 0] [--csv out.csv]
//                  [--counters] [--connect PORT]
//       Run a full VPP sweep and print (or export) the series. --counters
//       prints the aggregated instrumentation of every rig session the
//       sweep ran; --csv additionally writes the same instrumentation as a
//       machine-readable JSON sidecar at <out.csv>.json. --connect PORT
//       sends the sweep to a vppd daemon on 127.0.0.1:PORT instead of
//       running it in-process: same numbers, byte-identical CSV, but no
//       instrumentation sidecar (a cached response ran no rig sessions).
//       Both paths run the plan server::plan_from_sweep_request builds;
//       --seed is sent to the daemon only (in-process sweeps run seed 0).
//       Exit 0 on success, 3 on a typed error (local or remote).
//   vppctl profile --module B6 [--vpp 1.7] [--rows 128]
//       REAPER-style retention profile at a VPP level.
//   vppctl inject  --faults "seed=7;drop_act=0.001;spurious@5000"
//                  [--modules B3,A0] [--rows 8] [--retries 3] [--seed 1]
//                  [--trace-cap 4096] [--csv out.csv] [--dump-dir DIR]
//       Run a fault-injected RowHammer campaign under the harness retry
//       policy. Deterministic: the same invocation produces the same
//       quarantine set and byte-identical --csv/JSON exports. --dump-dir
//       writes a replayable trace dump per quarantined module. Exit 0 when
//       the campaign ran (quarantines included), 3 on a typed error.
//   vppctl replay  <dump.json> [--verbose] [--connect PORT]
//       Feed a captured trace dump through a fresh session and check that
//       it reproduces the recorded outcome. Exit 0 when reproduced, 4 when
//       the replay diverged, 3 on a typed error. --connect ships the dump
//       text to a vppd daemon and replays there.
//   vppctl serve   [--port N] [--port-file PATH] [--jobs N]
//                  [--rows-per-shard N] [--queue-cap N] [--quota N]
//                  [--dispatchers N] [--manifest-dir DIR]
//       Run the vppd daemon in-process (same server as tools/vppd): serves
//       sweep/inject/replay over the length-prefixed JSON protocol with a
//       content-addressed result cache. Runs until a client sends
//       `shutdown`. Exit 0 on clean shutdown, 3 on a startup error.
//   vppctl campaign run    [--manifest PATH] --module B3 [--modules B3,A0]
//                          [--test rowhammer|trcd|retention] [--rows 16]
//                          [--step 0.2] [--temps 50,65,80]
//                          [--hammer-counts 150000,300000] [--on-times 45,90]
//                          [--seed 0] [--jobs 1] [--rows-per-shard 4]
//                          [--max-shards N] [--csv out.csv] [--json out.json]
//   vppctl campaign resume --manifest PATH [--jobs N] [--max-shards N]
//                          [--csv out.csv] [--json out.json]
//   vppctl campaign status --manifest PATH
//   vppctl campaign distribute --manifest PATH [--workers N]
//                          [--port N] [--port-file PATH]
//                          [--lease-shards N] [--lease-ttl-ms N]
//                          [plus every `campaign run` plan flag]
//                          [--csv out.csv] [--json out.json]
//       Multi-axis characterization campaigns through core::CampaignEngine.
//       `run` compiles the flags into a CampaignPlan (VPP levels x optional
//       temperature / hammer-count / on-time axes), executes it, and prints
//       one grid summary per module; --csv/--json export the full grid
//       (per-module suffixed files when more than one module). With
//       --manifest, completed shards are checkpointed so a killed campaign
//       is resumable; --max-shards bounds fresh shard computations per
//       invocation (incremental fill-in). `resume` reconstructs the plan
//       from the manifest alone and continues it -- the merged result is
//       byte-identical to an uninterrupted run. `status` prints checkpoint
//       progress without running anything; when a lease ledger sits beside
//       the manifest (a distributed campaign) it also prints shard lease
//       state and per-worker leased/completed/expired counts. Exit 0 on
//       success (a completed campaign; for `status`, a readable manifest),
//       2 on usage errors, 3 on typed errors -- including the deliberate
//       kCancelled of an exhausted --max-shards budget, which leaves a
//       resumable manifest behind.
//       `distribute` runs the same plan across N workers (DESIGN.md section
//       11): it compiles the canonical shard grid, opens a coordinator on a
//       loopback daemon, and leases disjoint shard subsets to workers with
//       fencing tokens and lease expiry recorded in <manifest>.leases.json.
//       --workers N (default 2) runs N in-process workers; --workers 0
//       publishes the port (--port/--port-file) and waits for external
//       `vppd --connect` workers instead. Completed shard records stream
//       back over the lease/submit protocol and merge in canonical order,
//       so the final --csv/--json is byte-identical to a single-host run.
//       Exit 0 when the campaign completed, 2 on usage errors, 3 on typed
//       errors (including any worker's fatal error).
//
//   --connect PORT is also accepted by inject. Remote inject does not
//   support --csv or --dump-dir (the artifacts would land on the daemon's
//   filesystem); requesting them remotely is a usage error (exit 3).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chips/module_db.hpp"
#include "common/csv.hpp"
#include "common/journal.hpp"
#include "common/units.hpp"
#include "core/campaign.hpp"
#include "core/campaign_lease.hpp"
#include "core/export.hpp"
#include "core/fuzz_campaign.hpp"
#include "core/study.hpp"
#include "harness/rowhammer_test.hpp"
#include "harness/wcdp.hpp"
#include "memctrl/retention_profiler.hpp"
#include "server/client.hpp"
#include "server/coordinator.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "server/worker.hpp"
#include "softmc/trace_dump.hpp"
#include "softmc/trace_replayer.hpp"

namespace {

using namespace vppstudy;

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    std::string name(argv[i] + 2);
    // A flag followed by another flag (or by nothing) is boolean.
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      flags.insert_or_assign(std::move(name), std::string("1"));
    } else {
      flags.insert_or_assign(std::move(name), std::string(argv[i + 1]));
      ++i;
    }
  }
  return flags;
}

bool has_flag(const std::map<std::string, std::string>& flags,
              const std::string& key) {
  return flags.find(key) != flags.end();
}

std::string flag_or(const std::map<std::string, std::string>& flags,
                    const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::vector<std::string> split_csv_list(const std::string& text) {
  std::vector<std::string> parts;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find(',', pos), text.size());
    std::string part = text.substr(pos, end - pos);
    pos = end + 1;
    if (!part.empty()) parts.push_back(std::move(part));
  }
  return parts;
}

int cmd_list() {
  std::printf("%-4s %-26s %-6s %6s %6s %9s %10s %6s %8s\n", "name", "model",
              "mfr", "chips", "Gbit", "HCfirst", "BER@300K", "VPPmin",
              "VPP_rec");
  for (const auto& p : chips::all_profiles()) {
    std::printf("%-4s %-26s %-6c %6d %6d %9.0f %10.2e %6.1f %8.1f\n",
                p.name.c_str(), p.dimm_model.c_str(),
                dram::manufacturer_letter(p.mfr), p.num_chips, p.density_gbit,
                p.hc_first_nominal, p.ber_nominal, p.vppmin_v, p.vpp_rec_v);
  }
  return 0;
}

int cmd_hammer(const std::map<std::string, std::string>& flags) {
  const auto profile = chips::profile_by_name(flag_or(flags, "module", "B3"));
  if (!profile) {
    std::fprintf(stderr, "unknown module\n");
    return 1;
  }
  const double vpp = std::atof(flag_or(flags, "vpp", "2.5").c_str());
  const auto row =
      static_cast<std::uint32_t>(std::atoi(flag_or(flags, "row", "1500").c_str()));
  const auto hc = static_cast<std::uint64_t>(
      std::atoll(flag_or(flags, "hc", "300000").c_str()));

  softmc::Session session(*profile);
  session.set_auto_refresh(false);
  if (has_flag(flags, "trace")) {
    const int cap = std::atoi(flag_or(flags, "trace", "1").c_str());
    session.enable_trace(cap > 1 ? static_cast<std::size_t>(cap) : 32);
  }
  if (auto st = session.set_vpp(vpp); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.error().to_string().c_str());
    return 1;
  }
  auto wcdp = harness::find_wcdp_hammer(session, 0, row);
  if (!wcdp) {
    std::fprintf(stderr, "%s\n", wcdp.error().to_string().c_str());
    return 1;
  }
  harness::RowHammerConfig cfg;
  cfg.num_iterations = 1;
  cfg.ber_hc = hc;
  harness::RowHammerTest test(session, cfg);
  auto result = test.test_row(0, row, *wcdp);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 1;
  }
  std::printf("module %s row %u at VPP=%.2fV (WCDP %s):\n",
              profile->name.c_str(), row, vpp,
              std::string(dram::pattern_name(*wcdp)).c_str());
  std::printf("  HCfirst = %llu\n",
              static_cast<unsigned long long>(result->hc_first));
  std::printf("  BER at HC=%llu: %.4e\n", static_cast<unsigned long long>(hc),
              result->ber);
  if (has_flag(flags, "counters")) {
    std::printf("  counters: %s\n", session.counters().summary().c_str());
  }
  if (const auto* trace = session.trace()) {
    std::printf("  last %zu of %llu commands:\n", trace->entries().size(),
                static_cast<unsigned long long>(trace->total_recorded()));
    for (const auto& entry : trace->entries()) {
      std::printf("    %s\n", entry.to_string().c_str());
    }
  }
  return 0;
}

server::SweepRequest sweep_request_from_flags(
    const std::map<std::string, std::string>& flags) {
  server::SweepRequest request;
  request.module = flag_or(flags, "module", "B3");
  request.test = flag_or(flags, "test", "rowhammer");
  request.rows = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "rows", "16").c_str()));
  request.step = std::atof(flag_or(flags, "step", "0.2").c_str());
  request.seed = static_cast<std::uint64_t>(
      std::strtoull(flag_or(flags, "seed", "0").c_str(), nullptr, 10));
  return request;
}

// The render helpers below are shared by the in-process and --connect paths
// so both produce the same table and byte-identical CSV. `sidecar` is false
// for remote results: a cached response ran no rig sessions, so there is no
// meaningful instrumentation to write.
int render_sweep(const core::ModuleSweepResult& sweep,
                 const std::string& csv_path, bool sidecar) {
  common::CsvWriter csv({"vpp_v", "min_hc_first", "max_ber"});
  std::printf("%-8s %12s %12s\n", "VPP[V]", "minHCfirst", "maxBER");
  for (std::size_t l = 0; l < sweep.vpp_levels.size(); ++l) {
    std::printf("%-8.2f %12llu %12.4e\n", sweep.vpp_levels[l],
                static_cast<unsigned long long>(sweep.min_hc_first_at(l)),
                sweep.max_ber_at(l));
    csv.begin_row();
    csv.add(sweep.vpp_levels[l]);
    csv.add(static_cast<std::uint64_t>(sweep.min_hc_first_at(l)));
    csv.add(sweep.max_ber_at(l));
  }
  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 3;
    }
    if (sidecar && !core::write_instrumentation_sidecar(
                       csv_path, core::instrumentation_json(sweep))) {
      std::fprintf(stderr, "cannot write %s.json\n", csv_path.c_str());
      return 3;
    }
  }
  return 0;
}

int render_sweep(const core::TrcdSweepResult& sweep,
                 const std::string& csv_path, bool sidecar) {
  common::CsvWriter csv({"vpp_v", "trcd_min_ns"});
  std::printf("%-8s %12s\n", "VPP[V]", "tRCDmin[ns]");
  for (std::size_t l = 0; l < sweep.vpp_levels.size(); ++l) {
    std::printf("%-8.2f %12.1f\n", sweep.vpp_levels[l], sweep.trcd_min_ns[l]);
    csv.begin_row();
    csv.add(sweep.vpp_levels[l]);
    csv.add(sweep.trcd_min_ns[l]);
  }
  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 3;
    }
    if (sidecar && !core::write_instrumentation_sidecar(
                       csv_path, core::instrumentation_json(sweep))) {
      std::fprintf(stderr, "cannot write %s.json\n", csv_path.c_str());
      return 3;
    }
  }
  return 0;
}

int render_sweep(const core::RetentionSweepResult& sweep,
                 const std::string& csv_path, bool sidecar) {
  common::CsvWriter csv({"vpp_v", "trefw_ms", "mean_ber"});
  std::printf("%-8s %10s %12s\n", "VPP[V]", "tREFW[ms]", "meanBER");
  for (std::size_t l = 0; l < sweep.vpp_levels.size(); ++l) {
    for (std::size_t w = 0; w < sweep.trefw_ms.size(); ++w) {
      std::printf("%-8.2f %10.0f %12.4e\n", sweep.vpp_levels[l],
                  sweep.trefw_ms[w], sweep.mean_ber[l][w]);
      csv.begin_row();
      csv.add(sweep.vpp_levels[l]);
      csv.add(sweep.trefw_ms[w]);
      csv.add(sweep.mean_ber[l][w]);
    }
  }
  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 3;
    }
    if (sidecar && !core::write_instrumentation_sidecar(
                       csv_path, core::instrumentation_json(sweep))) {
      std::fprintf(stderr, "cannot write %s.json\n", csv_path.c_str());
      return 3;
    }
  }
  return 0;
}

int cmd_sweep_remote(const server::SweepRequest& request, std::uint16_t port,
                     const std::string& csv_path) {
  auto client = server::Client::connect(port);
  if (!client) {
    std::fprintf(stderr, "%s\n", client.error().to_string().c_str());
    return 3;
  }
  auto response = client->sweep(request);
  if (!response) {
    std::fprintf(stderr, "%s\n", response.error().to_string().c_str());
    return 3;
  }
  std::printf("vppd: %llu cells from cache, %llu computed\n",
              static_cast<unsigned long long>(response->stats.cache_hits),
              static_cast<unsigned long long>(response->stats.cache_misses));
  const std::string kind = response->result.string_or("kind", "");
  if (kind == "rowhammer") {
    auto sweep = server::hammer_sweep_from_json(response->result);
    if (!sweep) {
      std::fprintf(stderr, "%s\n", sweep.error().to_string().c_str());
      return 3;
    }
    return render_sweep(*sweep, csv_path, /*sidecar=*/false);
  }
  if (kind == "trcd") {
    auto sweep = server::trcd_sweep_from_json(response->result);
    if (!sweep) {
      std::fprintf(stderr, "%s\n", sweep.error().to_string().c_str());
      return 3;
    }
    return render_sweep(*sweep, csv_path, /*sidecar=*/false);
  }
  if (kind == "retention") {
    auto sweep = server::retention_sweep_from_json(response->result);
    if (!sweep) {
      std::fprintf(stderr, "%s\n", sweep.error().to_string().c_str());
      return 3;
    }
    return render_sweep(*sweep, csv_path, /*sidecar=*/false);
  }
  std::fprintf(stderr, "vppd returned unknown result kind '%s'\n",
               kind.c_str());
  return 3;
}

// In-process path: the first (only) grid of the plan, folded into the
// per-level series the remote path renders too.
template <typename Grid>
int render_local_sweep(common::Expected<std::vector<Grid>> grids,
                       bool counters, const std::string& csv_path) {
  if (!grids) {
    std::fprintf(stderr, "%s\n", grids.error().to_string().c_str());
    return 1;
  }
  const auto sweep = grids->front().to_sweep();
  if (counters) {
    std::printf("instrumentation: %s\n",
                sweep.instrumentation.summary().c_str());
  }
  return render_sweep(sweep, csv_path, /*sidecar=*/true);
}

int cmd_sweep(const std::map<std::string, std::string>& flags) {
  server::SweepRequest request = sweep_request_from_flags(flags);
  const std::string csv_path = flag_or(flags, "csv", "");
  const std::string connect = flag_or(flags, "connect", "");
  if (!connect.empty()) {
    return cmd_sweep_remote(
        request, static_cast<std::uint16_t>(std::atoi(connect.c_str())),
        csv_path);
  }
  // The in-process sweep has always run campaign seed 0; --seed reaches
  // only a daemon.
  request.seed = 0;
  // The same request -> plan expansion the daemon runs, so a remote sweep
  // is the same campaign (VPP levels quantized to the supply's millivolt
  // grid included).
  auto planned = server::plan_from_sweep_request(request);
  if (!planned) {
    std::fprintf(stderr, "%s\n", planned.error().to_string().c_str());
    return 1;
  }
  core::CampaignEngine engine(std::move(planned->plan));
  const bool counters = has_flag(flags, "counters");
  switch (planned->phase) {
    case core::JobPhase::kTrcd:
      return render_local_sweep(engine.run_trcd(), counters, csv_path);
    case core::JobPhase::kRetention:
      return render_local_sweep(engine.run_retention(), counters, csv_path);
    default:
      return render_local_sweep(engine.run_hammer(), counters, csv_path);
  }
}

int cmd_profile(const std::map<std::string, std::string>& flags) {
  const auto profile = chips::profile_by_name(flag_or(flags, "module", "B6"));
  if (!profile) {
    std::fprintf(stderr, "unknown module\n");
    return 1;
  }
  const double vpp =
      std::atof(flag_or(flags, "vpp", std::to_string(profile->vppmin_v))
                    .c_str());
  const auto rows =
      static_cast<std::uint32_t>(std::atoi(flag_or(flags, "rows", "128").c_str()));

  softmc::Session session(*profile);
  session.set_auto_refresh(false);
  if (auto st = session.set_temperature(common::kRetentionTestTempC); !st.ok())
    return 1;
  if (auto st = session.set_vpp(vpp); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.error().to_string().c_str());
    return 1;
  }
  memctrl::ProfilerOptions opts;
  opts.row_count = rows;
  auto prof = memctrl::profile_retention(session, opts);
  if (!prof) {
    std::fprintf(stderr, "%s\n", prof.error().to_string().c_str());
    return 1;
  }
  std::printf("module %s at VPP=%.2fV, 80C: %zu of %u rows need 2x refresh "
              "(%.1f%%)\n",
              profile->name.c_str(), vpp, prof->weak_rows.size(),
              prof->rows_scanned, 100.0 * prof->weak_fraction());
  for (const auto& addr : prof->weak_rows) {
    std::printf("  bank %u row %u\n", addr.bank, addr.row);
  }
  return 0;
}

server::InjectRequest inject_request_from_flags(
    const std::map<std::string, std::string>& flags) {
  server::InjectRequest request;
  request.faults = flag_or(flags, "faults", "seed=1");
  request.modules =
      split_csv_list(flag_or(flags, "modules", flag_or(flags, "module", "B3")));
  request.rows = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "rows", "8").c_str()));
  request.retries = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "retries", "3").c_str()));
  request.seed = static_cast<std::uint64_t>(
      std::strtoull(flag_or(flags, "seed", "1").c_str(), nullptr, 10));
  request.trace_cap = static_cast<std::uint64_t>(
      std::atoll(flag_or(flags, "trace-cap", "4096").c_str()));
  return request;
}

int cmd_inject_remote(const server::InjectRequest& request,
                      std::uint16_t port) {
  auto client = server::Client::connect(port);
  if (!client) {
    std::fprintf(stderr, "%s\n", client.error().to_string().c_str());
    return 3;
  }
  auto result = client->inject(request);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 3;
  }
  std::size_t total = 0;
  if (const common::JsonValue* modules = result->find("modules")) {
    total = modules->items().size();
    for (const auto& m : modules->items()) {
      std::printf("%-4s %-11s attempts=%llu injected=%llu",
                  m.string_or("module", "?").c_str(),
                  m.bool_or("completed", false) ? "completed" : "quarantined",
                  static_cast<unsigned long long>(m.uint_or("attempts", 0)),
                  static_cast<unsigned long long>(m.uint_or("injected", 0)));
      if (!m.bool_or("completed", false)) {
        std::printf("  %s", m.string_or("error", "").c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("completed %llu/%zu modules, HCfirst CV (completed only) = "
              "%.4f\n",
              static_cast<unsigned long long>(result->uint_or("completed", 0)),
              total, result->number_or("hc_first_cv", 0.0));
  return 0;
}

int cmd_inject(const std::map<std::string, std::string>& flags) {
  // Typed-error exit code contract (asserted by the replay-fuzz CI job):
  // 0 = campaign ran to completion (quarantined modules included),
  // 3 = typed error (bad spec, unknown module, export I/O failure).
  const server::InjectRequest request = inject_request_from_flags(flags);
  const std::string connect = flag_or(flags, "connect", "");
  if (!connect.empty()) {
    if (has_flag(flags, "csv") || has_flag(flags, "dump-dir")) {
      std::fprintf(stderr,
                   "--csv/--dump-dir are not supported with --connect (the "
                   "artifacts would land on the daemon's filesystem)\n");
      return 3;
    }
    return cmd_inject_remote(
        request, static_cast<std::uint16_t>(std::atoi(connect.c_str())));
  }
  auto result = server::run_inject_request(request);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 3;
  }
  const core::CampaignResult& campaign = *result;

  for (const auto& m : campaign.modules) {
    std::printf("%-4s %-11s attempts=%u injected=%llu", m.module_name.c_str(),
                m.completed ? "completed" : "quarantined", m.attempts,
                static_cast<unsigned long long>(m.injections.total()));
    if (!m.completed) {
      std::printf("  %s", m.error_message.c_str());
    }
    std::printf("\n");
  }
  std::printf("campaign: %s\n", campaign.instrumentation.summary().c_str());
  std::printf("completed %zu/%zu modules, HCfirst CV (completed only) = %.4f\n",
              campaign.completed_count(), campaign.modules.size(),
              campaign.hc_first_cv());

  const std::string dump_dir = flag_or(flags, "dump-dir", "");
  if (!dump_dir.empty()) {
    std::error_code dir_ec;
    std::filesystem::create_directories(dump_dir, dir_ec);
    if (dir_ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dump_dir.c_str(),
                   dir_ec.message().c_str());
      return 3;
    }
    for (const auto& m : campaign.modules) {
      if (!m.has_dump) continue;
      const std::string path =
          dump_dir + "/" + m.module_name + ".trace.json";
      if (!softmc::write_trace_dump(path, m.dump)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 3;
      }
      std::printf("wrote quarantine dump %s (%zu commands)\n", path.c_str(),
                  m.dump.entries.size());
    }
  }

  const std::string csv_path = flag_or(flags, "csv", "");
  if (!csv_path.empty()) {
    if (!core::campaign_to_csv(campaign).write_file(csv_path)) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 3;
    }
    if (!core::write_instrumentation_sidecar(csv_path,
                                             core::campaign_json(campaign))) {
      std::fprintf(stderr, "cannot write %s.json\n", csv_path.c_str());
      return 3;
    }
  }
  return 0;
}

int cmd_replay_remote(const std::string& path, std::uint16_t port) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 3;
  }
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);

  auto client = server::Client::connect(port);
  if (!client) {
    std::fprintf(stderr, "%s\n", client.error().to_string().c_str());
    return 3;
  }
  auto result = client->replay(text);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    return 3;
  }
  std::printf("replayed %llu commands on %s (%zu timing violations)\n",
              static_cast<unsigned long long>(
                  result->uint_or("commands_replayed", 0)),
              result->string_or("module", "?").c_str(),
              static_cast<std::size_t>(result->uint_or("timing_violations", 0)));
  if (result->bool_or("reproduced", false)) {
    std::printf("reproduced: yes\n");
    return 0;
  }
  std::printf("reproduced: NO\n");
  return 4;
}

int cmd_replay(const std::string& path,
               const std::map<std::string, std::string>& flags) {
  const std::string connect = flag_or(flags, "connect", "");
  if (!connect.empty()) {
    return cmd_replay_remote(
        path, static_cast<std::uint16_t>(std::atoi(connect.c_str())));
  }
  auto dump = softmc::load_trace_dump(path);
  if (!dump) {
    std::fprintf(stderr, "%s\n", dump.error().to_string().c_str());
    return 3;
  }
  const auto profile = chips::profile_by_name(dump->module);
  if (!profile) {
    std::fprintf(stderr, "dump names unknown module '%s'\n",
                 dump->module.c_str());
    return 3;
  }
  std::printf("replaying %zu of %llu commands on %s at VPP=%.2fV%s\n",
              dump->entries.size(),
              static_cast<unsigned long long>(dump->total_recorded),
              dump->module.c_str(), dump->vpp_v,
              dump->truncated() ? " (ring truncated: best-effort)" : "");

  softmc::TraceReplayer replayer(std::move(*dump));
  auto report = replayer.replay_on_profile(*profile);
  if (!report) {
    std::fprintf(stderr, "%s\n", report.error().to_string().c_str());
    return 3;
  }
  if (has_flag(flags, "verbose")) {
    std::printf("  replayed %llu commands, %zu timing violations\n",
                static_cast<unsigned long long>(report->commands_replayed),
                report->timing_violations);
    std::printf("  counters: %s\n", report->counters.summary().c_str());
  }
  std::printf("original: %s, replay: %s\n",
              report->original_failed
                  ? std::string(common::error_code_name(report->original_code))
                        .c_str()
                  : "clean",
              report->replay_failed ? report->replay_message.c_str() : "clean");
  if (report->reproduced()) {
    std::printf("reproduced: yes\n");
    return 0;
  }
  std::printf("reproduced: NO\n");
  return 4;
}

std::vector<double> parse_double_list(const std::string& text) {
  std::vector<double> values;
  for (const std::string& part : split_csv_list(text)) {
    values.push_back(std::atof(part.c_str()));
  }
  return values;
}

std::vector<std::uint64_t> parse_uint_list(const std::string& text) {
  std::vector<std::uint64_t> values;
  for (const std::string& part : split_csv_list(text)) {
    values.push_back(
        static_cast<std::uint64_t>(std::strtoull(part.c_str(), nullptr, 10)));
  }
  return values;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// Exports of a multi-module campaign get a per-module suffix before the
/// extension (grid-B3.csv) so one invocation never overwrites itself.
std::string per_module_path(const std::string& path, const std::string& module,
                            bool multi) {
  if (!multi) return path;
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "-" + module;
  }
  return path.substr(0, dot) + "-" + module + path.substr(dot);
}

template <typename Grid>
int render_campaign_grids(core::JobPhase phase, const std::vector<Grid>& grids,
                          const std::string& csv_path,
                          const std::string& json_path) {
  const bool multi = grids.size() > 1;
  for (const Grid& grid : grids) {
    std::printf("%-4s %s grid: %zu points x %zu rows  (%s)\n",
                grid.module_name.c_str(),
                std::string(core::campaign_phase_name(phase)).c_str(),
                grid.points.size(), grid.rows.size(),
                grid.instrumentation.summary().c_str());
    if (!csv_path.empty()) {
      const std::string path =
          per_module_path(csv_path, grid.module_name, multi);
      if (!core::grid_csv(grid).write_file(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 3;
      }
    }
    if (!json_path.empty()) {
      const std::string path =
          per_module_path(json_path, grid.module_name, multi);
      if (!write_text_file(path, core::grid_json(grid).str())) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 3;
      }
    }
  }
  return 0;
}

int run_campaign(core::CampaignPlan plan, core::JobPhase phase,
                 const std::string& csv_path, const std::string& json_path) {
  const std::string manifest = plan.manifest_path;
  core::CampaignEngine engine(std::move(plan));
  int rc = 3;
  common::Error error{common::ErrorCode::kUnknown, ""};
  switch (phase) {
    case core::JobPhase::kTrcd: {
      auto grids = engine.run_trcd();
      if (grids) {
        rc = render_campaign_grids(phase, *grids, csv_path, json_path);
      } else {
        error = std::move(grids).error();
      }
      break;
    }
    case core::JobPhase::kRetention: {
      auto grids = engine.run_retention();
      if (grids) {
        rc = render_campaign_grids(phase, *grids, csv_path, json_path);
      } else {
        error = std::move(grids).error();
      }
      break;
    }
    default: {
      auto grids = engine.run_hammer();
      if (grids) {
        rc = render_campaign_grids(phase, *grids, csv_path, json_path);
      } else {
        error = std::move(grids).error();
      }
      break;
    }
  }
  if (rc == 3 && !error.message.empty()) {
    std::fprintf(stderr, "%s\n", error.to_string().c_str());
    if (!manifest.empty()) {
      std::fprintf(stderr,
                   "completed shards are checkpointed; continue with: vppctl "
                   "campaign resume --manifest %s\n",
                   manifest.c_str());
    }
  }
  return rc;
}

/// Shared flag -> plan compiler of `campaign run` and `campaign
/// distribute`. Returns 0 and fills plan/phase, or a nonzero exit code
/// (message already printed).
int campaign_plan_from_flags(const std::map<std::string, std::string>& flags,
                             core::CampaignPlan& plan,
                             core::JobPhase& phase) {
  // The sweep config comes through the daemon's request expander so a
  // campaign's VPP grid is millivolt-quantized exactly like `vppctl sweep`
  // (and the stream seeds therefore agree across all front ends).
  const server::SweepRequest request = sweep_request_from_flags(flags);
  if (!core::campaign_phase_from_name(request.test, phase) ||
      phase == core::JobPhase::kWcdp) {
    std::fprintf(stderr, "unknown --test '%s'\n", request.test.c_str());
    return 2;
  }

  plan.sweep = server::sweep_config_from_request(request);
  plan.axes.temperatures_c = parse_double_list(flag_or(flags, "temps", ""));
  plan.axes.hammer_counts = parse_uint_list(flag_or(flags, "hammer-counts", ""));
  plan.axes.act_to_act_ns = parse_double_list(flag_or(flags, "on-times", ""));
  plan.seed = request.seed;
  plan.jobs = std::atoi(flag_or(flags, "jobs", "1").c_str());
  plan.rows_per_shard = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "rows-per-shard", "4").c_str()));
  plan.max_new_shards = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "max-shards", "0").c_str()));
  plan.manifest_path = flag_or(flags, "manifest", "");

  const std::string names =
      flag_or(flags, "modules", flag_or(flags, "module", "B3"));
  for (const std::string& name : split_csv_list(names)) {
    auto profile = chips::profile_by_name(name);
    if (!profile) {
      std::fprintf(stderr, "unknown module '%s'\n", name.c_str());
      return 3;
    }
    plan.modules.push_back(std::move(*profile));
  }
  return 0;
}

int cmd_campaign_run(const std::map<std::string, std::string>& flags) {
  core::CampaignPlan plan;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  if (const int rc = campaign_plan_from_flags(flags, plan, phase); rc != 0) {
    return rc;
  }
  return run_campaign(std::move(plan), phase, flag_or(flags, "csv", ""),
                      flag_or(flags, "json", ""));
}

int cmd_campaign_distribute(const std::map<std::string, std::string>& flags) {
  core::CampaignPlan plan;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  if (const int rc = campaign_plan_from_flags(flags, plan, phase); rc != 0) {
    return rc;
  }
  const std::string manifest_path = plan.manifest_path;
  if (manifest_path.empty()) {
    std::fprintf(stderr, "campaign distribute requires --manifest PATH\n");
    return 2;
  }
  const int workers = std::atoi(flag_or(flags, "workers", "2").c_str());
  if (workers < 0) {
    std::fprintf(stderr, "--workers must be >= 0\n");
    return 2;
  }
  const std::uint64_t lease_shards = static_cast<std::uint64_t>(
      std::atoll(flag_or(flags, "lease-shards", "4").c_str()));
  const std::int64_t ttl_ms =
      std::atoll(flag_or(flags, "lease-ttl-ms", "30000").c_str());
  if (ttl_ms <= 0) {
    std::fprintf(stderr, "--lease-ttl-ms must be positive\n");
    return 2;
  }

  // The coordinator owns the manifest at the exact path the user named;
  // the final export resumes the engine over it, so keep a plan copy.
  core::CampaignPlan export_plan = plan;
  auto coordinator =
      server::CampaignCoordinator::open(std::move(plan), phase, manifest_path);
  if (!coordinator) {
    std::fprintf(stderr, "%s\n", coordinator.error().to_string().c_str());
    return 3;
  }
  std::shared_ptr<server::CampaignCoordinator> coord = std::move(*coordinator);

  server::DaemonOptions daemon;
  daemon.config.port = static_cast<std::uint16_t>(
      std::atoi(flag_or(flags, "port", "0").c_str()));
  daemon.port_file = flag_or(flags, "port-file", "");
  auto started = server::Server::start(daemon.config);
  if (!started) {
    std::fprintf(stderr, "%s\n", started.error().to_string().c_str());
    return 3;
  }
  std::unique_ptr<server::Server> srv = std::move(*started);
  srv->service().adopt_campaign(coord);
  if (!daemon.port_file.empty() &&
      !common::atomic_replace_file(daemon.port_file,
                                   std::to_string(srv->port()) + "\n")) {
    std::fprintf(stderr, "cannot publish %s\n", daemon.port_file.c_str());
    return 3;
  }
  std::printf("coordinator on 127.0.0.1:%u: %llu shard(s), manifest %s\n",
              static_cast<unsigned>(srv->port()),
              static_cast<unsigned long long>(coord->status().planned),
              manifest_path.c_str());
  std::fflush(stdout);

  int rc = 0;
  if (workers == 0) {
    // External-worker mode: wait for `vppd --connect` workers to finish the
    // grid. The coordinator fences crashed workers, so polling completeness
    // is the only job left here.
    while (!coord->complete()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  } else {
    struct WorkerOutcome {
      bool ok = false;
      server::CampaignWorker::Summary summary;
      std::string error;
    };
    std::vector<WorkerOutcome> outcomes(static_cast<std::size_t>(workers));
    std::vector<std::thread> threads;
    threads.reserve(outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      server::CampaignWorker::Options options;
      options.port = srv->port();
      options.worker_id = "w" + std::to_string(i + 1);
      options.lease_shards = lease_shards;
      options.ttl_ms = ttl_ms;
      options.jobs = std::atoi(flag_or(flags, "jobs", "1").c_str());
      threads.emplace_back([&outcomes, i, options] {
        auto summary = server::CampaignWorker::run(options);
        if (summary) {
          outcomes[i].ok = true;
          outcomes[i].summary = *summary;
        } else {
          outcomes[i].error = summary.error().to_string();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].ok) {
        std::fprintf(stderr, "worker w%zu: %s\n", i + 1,
                     outcomes[i].error.c_str());
        rc = 3;
      }
    }
  }
  srv->stop();
  srv.reset();

  for (const core::LeaseWorkerStats& w : coord->worker_stats()) {
    std::printf("  worker %-8s leased %llu  completed %llu  expired %llu\n",
                w.worker.c_str(), static_cast<unsigned long long>(w.leased),
                static_cast<unsigned long long>(w.completed),
                static_cast<unsigned long long>(w.expired));
  }
  if (rc != 0) return rc;
  if (!coord->complete()) {
    std::fprintf(stderr,
                 "campaign incomplete after all workers exited; continue "
                 "with: vppctl campaign distribute --manifest %s\n",
                 manifest_path.c_str());
    return 3;
  }

  // Final export: resume the single-host engine over the complete merged
  // manifest. Every shard restores from the checkpoint (zero compute), and
  // the rendered CSV/JSON is byte-identical to an undistributed run.
  export_plan.manifest_path = manifest_path;
  return run_campaign(std::move(export_plan), phase, flag_or(flags, "csv", ""),
                      flag_or(flags, "json", ""));
}

int cmd_campaign_resume(const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = flag_or(flags, "manifest", "");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "campaign resume requires --manifest PATH\n");
    return 2;
  }
  auto manifest = core::load_campaign_manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "%s\n", manifest.error().to_string().c_str());
    return 3;
  }
  auto plan = core::plan_from_manifest(*manifest);
  if (!plan) {
    std::fprintf(stderr, "%s\n", plan.error().to_string().c_str());
    return 3;
  }
  // Execution knobs are not part of the plan identity; they may be re-chosen
  // at resume time without perturbing a single result bit.
  plan->manifest_path = manifest_path;
  plan->jobs = std::atoi(flag_or(flags, "jobs", "1").c_str());
  plan->max_new_shards = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "max-shards", "0").c_str()));
  std::printf("resuming %s campaign (%zu of %llu shards checkpointed)\n",
              std::string(core::campaign_phase_name(manifest->phase)).c_str(),
              manifest->shards.size(),
              static_cast<unsigned long long>(manifest->planned_shards));
  return run_campaign(*std::move(plan), manifest->phase,
                      flag_or(flags, "csv", ""), flag_or(flags, "json", ""));
}

int cmd_campaign_status(const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = flag_or(flags, "manifest", "");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "campaign status requires --manifest PATH\n");
    return 2;
  }
  auto manifest = core::load_campaign_manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "%s\n", manifest.error().to_string().c_str());
    return 3;
  }
  std::printf("manifest: %s\n", manifest_path.c_str());
  std::printf("phase: %s  plan: 0x%016llx  seed: %llu\n",
              std::string(core::campaign_phase_name(manifest->phase)).c_str(),
              static_cast<unsigned long long>(manifest->plan_hash),
              static_cast<unsigned long long>(manifest->seed));
  std::printf("shards: %zu of %llu complete, wcdp preps: %zu of %zu\n",
              manifest->shards.size(),
              static_cast<unsigned long long>(manifest->planned_shards),
              manifest->wcdp.size(), manifest->modules.size());
  for (const auto& [name, rows_per_bank] : manifest->modules) {
    std::size_t done = 0;
    for (const auto& shard : manifest->shards) {
      if (shard.module == name) ++done;
    }
    std::printf("  %-4s %zu shards done (rows_per_bank=%u)\n", name.c_str(),
                done, rows_per_bank);
  }
  // A distributed campaign keeps its lease ledger beside the manifest;
  // surface shard lease state and per-worker accounting when present.
  const std::string ledger_path = core::campaign_ledger_path(manifest_path);
  if (std::filesystem::exists(ledger_path)) {
    auto ledger = core::load_campaign_ledger(ledger_path);
    if (!ledger) {
      std::fprintf(stderr, "%s\n", ledger.error().to_string().c_str());
      return 3;
    }
    std::printf("leases: %llu open, %llu leased, %llu done\n",
                static_cast<unsigned long long>(
                    ledger->count(core::LeaseState::kOpen)),
                static_cast<unsigned long long>(
                    ledger->count(core::LeaseState::kLeased)),
                static_cast<unsigned long long>(
                    ledger->count(core::LeaseState::kDone)));
    for (const core::LeaseWorkerStats& w : ledger->workers) {
      std::printf("  worker %-8s leased %llu  completed %llu  expired %llu\n",
                  w.worker.c_str(), static_cast<unsigned long long>(w.leased),
                  static_cast<unsigned long long>(w.completed),
                  static_cast<unsigned long long>(w.expired));
    }
  }
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: vppctl campaign <run|resume|status|distribute> "
                 "[--flag value ...]\n");
    return 2;
  }
  const std::string verb = argv[2];
  const auto flags = parse_flags(argc, argv, 3);
  if (verb == "run") return cmd_campaign_run(flags);
  if (verb == "resume") return cmd_campaign_resume(flags);
  if (verb == "status") return cmd_campaign_status(flags);
  if (verb == "distribute") return cmd_campaign_distribute(flags);
  std::fprintf(stderr, "unknown campaign verb '%s'\n", verb.c_str());
  return 2;
}

// --- fuzz --------------------------------------------------------------------
// `vppctl fuzz run/resume/status`: the attack-pattern fuzzer
// (core/fuzz_campaign) on the campaign exit-code contract -- 0 a completed
// campaign, 2 usage errors, 3 typed errors (killed/cancelled runs leave a
// resumable manifest behind).

/// The summed post-TRR flip score of one pattern at one (module, VPP) grid
/// point, straight from the final generation's grids.
double fuzz_grid_score(const std::vector<core::HammerGrid>& grids,
                       const std::string& module, std::uint64_t vpp_mv,
                       std::uint64_t pattern_hash) {
  double total = 0.0;
  for (const core::HammerGrid& grid : grids) {
    if (grid.module_name != module) continue;
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

int render_fuzz_result(const core::FuzzCampaignResult& result,
                       const std::string& csv_path,
                       const std::string& json_path) {
  const std::uint64_t uniform_hash =
      harness::uniform_double_sided_spec().spec_hash();
  std::printf("%u generation(s) complete\n", result.generations);
  std::printf("%-4s %-8s %-24s %12s %12s\n", "mod", "VPP[V]", "best pattern",
              "best flips", "uniform");
  for (const core::FuzzPopulation& point : result.points) {
    if (point.members.empty()) continue;
    const harness::ScoredSpec& best = point.members.front();
    std::printf("%-4s %-8.2f %-24s %12.0f %12.0f\n", point.module.c_str(),
                static_cast<double>(point.vpp_mv) / 1000.0,
                best.spec.name.c_str(), best.score,
                fuzz_grid_score(result.grids, point.module, point.vpp_mv,
                                uniform_hash));
  }
  return render_campaign_grids(core::JobPhase::kRowHammer, result.grids,
                               csv_path, json_path);
}

int run_fuzz(const core::FuzzCampaignConfig& config,
             const std::string& csv_path, const std::string& json_path) {
  auto result = core::run_fuzz_campaign(config);
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().to_string().c_str());
    if (!config.base.manifest_path.empty()) {
      std::fprintf(stderr,
                   "completed work is checkpointed; continue with: vppctl "
                   "fuzz resume --manifest %s\n",
                   config.base.manifest_path.c_str());
    }
    return 3;
  }
  return render_fuzz_result(*result, csv_path, json_path);
}

/// Load every *.json pattern-spec document in `dir` (sorted by filename, so
/// the seed order -- part of the config digest -- is stable across
/// filesystems) into `seeds`. Sibling documents carrying a different schema
/// tag (the corpus keeps GOLDENS.json beside its specs) are skipped; files
/// that claim the pattern-spec schema but fail to parse are hard errors.
/// Returns 0, or 2/3 per the exit-code contract.
int load_seed_corpus(const std::string& dir,
                     std::vector<harness::PatternSpec>* seeds) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read corpus directory %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  std::size_t loaded = 0;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in.good() && !in.eof()) {
      std::fprintf(stderr, "cannot read %s\n", file.c_str());
      return 3;
    }
    auto doc = common::parse_json(text.str());
    if (!doc) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   doc.error().to_string().c_str());
      return 3;
    }
    if (doc->string_or("schema", "")
            .rfind(harness::PatternSpec::kSchemaPrefix, 0) != 0) {
      continue;  // goldens, manifests, ... -- not a seed
    }
    auto spec = harness::parse_pattern_spec_document(*doc);
    if (!spec) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   spec.error().to_string().c_str());
      return 3;
    }
    seeds->push_back(*std::move(spec));
    ++loaded;
  }
  if (loaded == 0) {
    std::fprintf(stderr, "no pattern-spec documents in %s\n", dir.c_str());
    return 2;
  }
  return 0;
}

int cmd_fuzz_run(const std::map<std::string, std::string>& flags) {
  if (flag_or(flags, "test", "rowhammer") != std::string("rowhammer")) {
    std::fprintf(stderr, "fuzz campaigns score rowhammer only\n");
    return 2;
  }
  core::FuzzCampaignConfig config;
  core::JobPhase phase = core::JobPhase::kRowHammer;
  if (const int rc = campaign_plan_from_flags(flags, config.base, phase);
      rc != 0) {
    return rc;
  }
  config.generations = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "generations", "4").c_str()));
  config.fuzzer.population = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "population", "8").c_str()));
  config.fuzzer.elites = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "elites", "2").c_str()));
  if (config.generations == 0 || config.fuzzer.population < 2 ||
      config.fuzzer.elites >= config.fuzzer.population) {
    std::fprintf(stderr,
                 "need --generations >= 1 and --elites < --population "
                 "(population >= 2)\n");
    return 2;
  }
  if (const std::string corpus = flag_or(flags, "corpus", ""); !corpus.empty()) {
    if (const int rc = load_seed_corpus(corpus, &config.fuzzer.seeds); rc != 0) {
      return rc;
    }
  }
  return run_fuzz(config, flag_or(flags, "csv", ""),
                  flag_or(flags, "json", ""));
}

int cmd_fuzz_resume(const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = flag_or(flags, "manifest", "");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "fuzz resume requires --manifest PATH\n");
    return 2;
  }
  auto manifest = core::load_fuzz_manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "%s\n", manifest.error().to_string().c_str());
    return 3;
  }
  auto config = core::config_from_fuzz_manifest(*manifest);
  if (!config) {
    std::fprintf(stderr, "%s\n", config.error().to_string().c_str());
    return 3;
  }
  // Execution knobs are not part of the config identity (same rule as
  // campaign resume): re-chosen freely without perturbing a result bit.
  config->base.manifest_path = manifest_path;
  config->base.jobs = std::atoi(flag_or(flags, "jobs", "1").c_str());
  std::printf("resuming fuzz campaign (%zu of %u generations complete)\n",
              manifest->completed.size(), manifest->generations);
  return run_fuzz(*config, flag_or(flags, "csv", ""),
                  flag_or(flags, "json", ""));
}

int cmd_fuzz_status(const std::map<std::string, std::string>& flags) {
  const std::string manifest_path = flag_or(flags, "manifest", "");
  if (manifest_path.empty()) {
    std::fprintf(stderr, "fuzz status requires --manifest PATH\n");
    return 2;
  }
  auto manifest = core::load_fuzz_manifest(manifest_path);
  if (!manifest) {
    std::fprintf(stderr, "%s\n", manifest.error().to_string().c_str());
    return 3;
  }
  std::printf("manifest: %s\n", manifest_path.c_str());
  std::printf("config: 0x%016llx  generations: %zu of %u complete\n",
              static_cast<unsigned long long>(manifest->config_hash),
              manifest->completed.size(), manifest->generations);
  if (!manifest->completed.empty()) {
    for (const core::FuzzPopulation& point : manifest->completed.back()) {
      const harness::ScoredSpec* best = nullptr;
      for (const harness::ScoredSpec& m : point.members) {
        if (best == nullptr || m.score > best->score ||
            (m.score == best->score &&
             m.spec.spec_hash() < best->spec.spec_hash())) {
          best = &m;
        }
      }
      if (best != nullptr) {
        std::printf("  %-4s VPP=%.2fV best %-24s score %.0f\n",
                    point.module.c_str(),
                    static_cast<double>(point.vpp_mv) / 1000.0,
                    best->spec.name.c_str(), best->score);
      }
    }
  }
  // An interrupted generation leaves its engine checkpoint beside the fuzz
  // manifest; surface its shard progress.
  const std::string generation_path = core::fuzz_generation_manifest_path(
      manifest_path, static_cast<std::uint32_t>(manifest->completed.size()));
  if (std::filesystem::exists(generation_path)) {
    if (auto gen = core::load_campaign_manifest(generation_path)) {
      std::printf(
          "generation %zu in flight: %zu of %llu shards checkpointed\n",
          manifest->completed.size(), gen->shards.size(),
          static_cast<unsigned long long>(gen->planned_shards));
    }
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: vppctl fuzz <run|resume|status> [--flag value ...]\n");
    return 2;
  }
  const std::string verb = argv[2];
  const auto flags = parse_flags(argc, argv, 3);
  if (verb == "run") return cmd_fuzz_run(flags);
  if (verb == "resume") return cmd_fuzz_resume(flags);
  if (verb == "status") return cmd_fuzz_status(flags);
  std::fprintf(stderr, "unknown fuzz verb '%s'\n", verb.c_str());
  return 2;
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  server::DaemonOptions options;
  options.config.port = static_cast<std::uint16_t>(
      std::atoi(flag_or(flags, "port", "0").c_str()));
  options.port_file = flag_or(flags, "port-file", "");
  options.config.service.jobs = std::atoi(flag_or(flags, "jobs", "0").c_str());
  options.config.service.rows_per_shard = static_cast<std::uint32_t>(
      std::atoi(flag_or(flags, "rows-per-shard", "4").c_str()));
  options.config.queue.capacity = static_cast<std::size_t>(
      std::atoll(flag_or(flags, "queue-cap", "16").c_str()));
  options.config.queue.per_client_quota = static_cast<std::size_t>(
      std::atoll(flag_or(flags, "quota", "8").c_str()));
  options.config.service.manifest_dir = flag_or(flags, "manifest-dir", "");
  options.config.service.cache_max_cells = static_cast<std::uint64_t>(
      std::atoll(flag_or(flags, "cache-max-cells", "0").c_str()));
  options.config.queue.dispatchers = static_cast<unsigned>(
      std::atoi(flag_or(flags, "dispatchers", "2").c_str()));
  return server::run_daemon(options);
}

int usage() {
  std::fprintf(stderr,
               "usage: vppctl "
               "<list|hammer|sweep|campaign|fuzz|profile|inject|replay|serve> "
               "[--flag value ...]\n"
               "see the header comment of tools/vppctl.cpp for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  if (cmd == "list") return cmd_list();
  if (cmd == "hammer") return cmd_hammer(flags);
  if (cmd == "sweep") return cmd_sweep(flags);
  if (cmd == "campaign") return cmd_campaign(argc, argv);
  if (cmd == "fuzz") return cmd_fuzz(argc, argv);
  if (cmd == "profile") return cmd_profile(flags);
  if (cmd == "inject") return cmd_inject(flags);
  if (cmd == "serve") return cmd_serve(flags);
  if (cmd == "replay") {
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) return usage();
    return cmd_replay(argv[2], parse_flags(argc, argv, 3));
  }
  return usage();
}
