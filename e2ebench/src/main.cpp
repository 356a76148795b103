// e2ebench: the end-to-end benchmark binary of the vppstudy stack.
//
//   e2ebench --workload <campaign_grid|campaign_checkpointed|vppd_mix>
//            --seed N --seconds S --trace <0|1>
//            [--digests FILE] [--workdir DIR]
//   e2ebench --pin --digests FILE [--workdir DIR]
//
// A run builds its inputs from the seed, runs rounds of the workload for S
// seconds, checks every output against pinned digests, and prints each
// metric by name with its unit, then one JSON result object as the last
// line of standard output. The exit code is 0 only when every output was
// correct. With --trace 1 the run instead records spans around every call
// into a layer, probes L0-L3 apart from their callers, and reports the
// per-layer metrics (see README.md). All times are host time.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "digest.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace e2ebench;
using vppstudy::common::JsonWriter;

constexpr int kTracedVppdRounds = 2;
/// Rounds per side of each traced comparison (medians are reported).
constexpr int kTracedPairs = 3;
constexpr std::size_t kWireProbeCalls = 50;
/// Requests per connection and round whose spans go to the Chrome trace.
constexpr std::uint32_t kExportedRequests = 500;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool pin = false;
  std::string digests = "e2ebench/digests.txt";
  std::string workdir = ".bench_build/e2ebench-work";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      args.pin = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--digests") {
      args.digests = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return args.pin || args.workload == "campaign_grid" ||
         args.workload == "campaign_checkpointed" ||
         args.workload == "vppd_mix";
}

/// Metrics in print order, each with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed as "# " lines

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
  void count(const Round& round) {
    attempted += round.operations;
    failed += round.failed_operations;
    if (!round.ok) error(round.error);
  }
};

/// Per-workload run state shared by the untraced and traced paths.
struct Runner {
  Inputs inputs;
  DigestTable digests;
  VppdCheck vppd_check;
  std::string manifest_path;
  Outcome out;
  /// Work of the campaign_grid rounds run with tracing on: the probe-based
  /// estimates inside their l4.run_hammer spans scale with it.
  std::uint64_t traced_grid_cells = 0;
  DispatchCounts traced_grid_cmds;

  void check_grid(const std::string& workload, const CampaignRound& round) {
    if (!round.ok) return;
    if (!digests.check(workload, inputs.index, "grid",
                       grid_output(round.grids))) {
      out.error(digests.mismatches().back());
    }
  }

  CampaignRound grid_round() {
    CampaignRound r = run_grid_round(inputs);
    out.count(r);
    check_grid("campaign_grid", r);
    if (tracer().enabled()) {
      const DispatchCounts c = dispatched_commands(r.grids);
      traced_grid_cells += r.cells;
      traced_grid_cmds.commands += c.commands;
      traced_grid_cmds.column_commands += c.column_commands;
    }
    return r;
  }

  CampaignRound checkpoint_round() {
    CampaignRound r = run_checkpoint_round(inputs, manifest_path);
    out.count(r);
    check_grid("campaign_checkpointed", r);
    return r;
  }

  VppdRound vppd_round(std::size_t probe_calls = 0) {
    const std::size_t before = vppd_check.errors.size();
    VppdRound r = run_vppd_round(inputs, vppd_check, probe_calls);
    out.count(r);
    for (std::size_t i = before; i < vppd_check.errors.size(); ++i) {
      out.error(vppd_check.errors[i]);
    }
    return r;
  }
};

template <typename R>
std::vector<double> field(const std::vector<R>& rounds,
                          const std::function<double(const R&)>& fn) {
  std::vector<double> values;
  for (const R& r : rounds) values.push_back(fn(r));
  return values;
}

/// The end-to-end metrics of rounds of one workload.
template <typename R>
void end_to_end(Outcome& out, const std::vector<R>& rounds) {
  out.metric("setup_s", median(field<R>(rounds, [](const R& r) {
               return r.setup_s;
             })),
             "s");
  out.metric("cells_per_s", median(field<R>(rounds, [](const R& r) {
               return r.wall_s > 0.0 ? r.cells / r.wall_s : 0.0;
             })),
             "1/s");
  out.metric("cpu_ms_per_cell", median(field<R>(rounds, [](const R& r) {
               return r.cells > 0 ? r.cpu_s * 1e3 / r.cells : 0.0;
             })),
             "ms");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const std::vector<double> rates = field<R>(rounds, [](const R& r) {
    return r.wall_s > 0.0 ? r.cells / r.wall_s : 0.0;
  });
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu rounds: cells_per_s min %.6g, median %.6g, max %.6g",
                rates.size(), percentile(rates, 0.0), median(rates),
                percentile(rates, 100.0));
  out.notes.push_back(line);
}

/// Rounds until the time budget is spent: a new round starts only when the
/// median round so far still fits.
template <typename Fn>
void run_for(double seconds, Fn&& round) {
  const double start = now_s();
  std::vector<double> lengths;
  do {
    const double t0 = now_s();
    round();
    lengths.push_back(now_s() - t0);
  } while (now_s() - start + median(lengths) <= seconds);
}

std::string samples_note(const char* name,
                         const std::vector<double>& samples) {
  const Tail tail = tail_of(samples);
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s sweeps: n=%zu p50=%.3f ms, tail p%g=%.3f ms "
                "(highest percentile with >=10 samples beyond)",
                name, samples.size(), median(samples), tail.percentile,
                tail.value);
  return line;
}

void failures_note(Outcome& out, const RequestTally& tally) {
  out.notes.push_back("sweeps attempted " + std::to_string(tally.attempted) +
                      ", failed " + std::to_string(tally.failed) +
                      " (refused by the queue " +
                      std::to_string(tally.refused) + ")");
}

void tally_notes(Outcome& out, const RequestTally& tally) {
  out.notes.push_back(samples_note("cold", tally.cold_ms));
  out.notes.push_back(samples_note("warm", tally.warm_ms));
  failures_note(out, tally);
}

void untraced(const Args& args, Runner& run) {
  if (args.workload == "vppd_mix") {
    std::vector<VppdRound> rounds;
    RequestTally all;
    std::string last_warm;
    run_for(args.seconds, [&] {
      VppdRound r = run.vppd_round();
      // Pool cold samples only. A round serves thousands of warm requests;
      // pooling their samples would make peak RSS grow with warm speed.
      last_warm = samples_note("warm", r.tally.warm_ms);
      r.tally.warm_ms = {};
      all.merge(r.tally);
      rounds.push_back(std::move(r));
    });
    end_to_end(run.out, rounds);
    char line[160];
    std::snprintf(
        line, sizeof(line),
        "per round (median): wall %.3f s, cold phase %.3f s, warm phase "
        "%.3f s",
        median(field<VppdRound>(rounds,
                                [](const VppdRound& r) { return r.wall_s; })),
        median(field<VppdRound>(
            rounds, [](const VppdRound& r) { return r.cold_phase_s; })),
        median(field<VppdRound>(
            rounds, [](const VppdRound& r) { return r.warm_phase_s; })));
    run.out.notes.push_back(line);
    run.out.notes.push_back(samples_note("cold", all.cold_ms));
    run.out.notes.push_back("last round: " + last_warm);
    failures_note(run.out, all);
    return;
  }
  std::vector<CampaignRound> rounds;
  const bool grid = args.workload == "campaign_grid";
  run_for(args.seconds, [&] {
    rounds.push_back(grid ? run.grid_round() : run.checkpoint_round());
    rounds.back().grids.clear();  // checked; keep memory flat across rounds
  });
  end_to_end(run.out, rounds);
}

/// The traced run: every per-layer metric, whichever workload was named
/// (per-layer metrics describe layers, and each is measured on the
/// workload the README assigns it to).
void traced(const Args& args, Runner& run) {
  Outcome& out = run.out;
  // Tracing overhead: untraced and traced rounds of the named workload,
  // alternated so host drift hits both sides alike.
  const auto one_round = [&]() -> double {
    if (args.workload == "vppd_mix") return run.vppd_round().wall_s;
    if (args.workload == "campaign_grid") return run.grid_round().wall_s;
    return run.checkpoint_round().wall_s;
  };
  std::vector<double> untraced_wall, traced_wall;
  for (int i = 0; i < kTracedPairs; ++i) {
    tracer().set_enabled(false);
    untraced_wall.push_back(one_round());
    tracer().set_enabled(true);
    traced_wall.push_back(one_round());
  }

  // L4 + L2 counts: traced campaign_grid rounds (the grid's command counts
  // are exact and the same every round).
  std::vector<double> grid_wall, grid_cpu;
  CampaignRound grid;
  for (int i = 0; i < kTracedPairs; ++i) {
    grid = run.grid_round();
    grid_wall.push_back(grid.wall_s);
    grid_cpu.push_back(grid.cpu_s);
  }
  const DispatchCounts cmds = dispatched_commands(grid.grids);

  // L5: checkpointed rounds vs the same plan with no manifest, alternated.
  std::vector<double> ckpt_wall, bare_wall;
  CampaignRound ckpt;
  for (int i = 0; i < kTracedPairs; ++i) {
    ckpt = run.checkpoint_round();
    const CampaignRound bare = run_grid_round(run.inputs, 1);
    out.count(bare);
    if (bare.ok && ckpt.ok &&
        grid_output(bare.grids) != grid_output(ckpt.grids)) {
      out.error("campaign_checkpointed: resumed output differs from the "
                "same plan run with no manifest");
    }
    ckpt_wall.push_back(ckpt.wall_s);
    bare_wall.push_back(bare.wall_s);
  }
  const ManifestReplay replay = replay_manifest(
      run.manifest_path, run.manifest_path + ".replay", 1000);
  if (!replay.ok) out.error("manifest replay failed");
  std::remove(run.manifest_path.c_str());

  // L6: traced vppd rounds, pooled so the cold-sweep tail has samples
  // beyond it; the last one also probes in-process vs wire.
  std::vector<VppdRound> vppd_rounds;
  RequestTally t;
  for (int i = 0; i < kTracedVppdRounds; ++i) {
    vppd_rounds.push_back(
        run.vppd_round(i + 1 == kTracedVppdRounds ? kWireProbeCalls : 0));
    t.merge(vppd_rounds.back().tally);
  }
  const VppdRound& vppd = vppd_rounds.back();
  double vppd_wall = 0.0;
  std::uint64_t response_bytes = 0;
  for (const VppdRound& r : vppd_rounds) {
    vppd_wall += r.wall_s;
    response_bytes += r.response_bytes;
  }

  // L0-L3 probes.
  const LayerProbes probes = run_probes(run.inputs);
  if (!probes.ok) out.error("a layer probe call failed");

  // Probe-based attribution inside the campaign spans (no spans live in the
  // library): the traced grid rounds' cells at the probed per-row cost, their
  // exact dispatched commands at the probed per-command cost, and their
  // column commands at the probed L1 per-column cost, as wall-equivalent
  // time across the engine's workers.
  const double grid_cpu_s = median(grid_cpu);
  const DispatchCounts& traced_cmds = run.traced_grid_cmds;
  tracer().add_estimate(
      {"l3.test_row[grid]", "l4.run_hammer", run.traced_grid_cells,
       static_cast<double>(run.traced_grid_cells) * probes.hammer_row_ms /
           kJobs});
  tracer().add_estimate({"l2.dispatch[grid]", "l3.test_row[grid]",
                         traced_cmds.commands,
                         static_cast<double>(traced_cmds.commands) *
                             probes.host_ns_per_cmd * 1e-6 / kJobs});
  tracer().add_estimate({"l1.columns[grid]", "l2.dispatch[grid]",
                         traced_cmds.column_commands,
                         static_cast<double>(traced_cmds.column_commands) *
                             probes.column_op_ns * 1e-6 / kJobs});
  tracer().set_enabled(false);
  // L2's own share of one grid round's CPU: its dispatched commands at the
  // probed per-command cost, less the L1 column work those commands include.
  const double l2_self_s =
      std::max(0.0, (static_cast<double>(cmds.commands) *
                         probes.host_ns_per_cmd -
                     static_cast<double>(cmds.column_commands) *
                         probes.column_op_ns) *
                        1e-9);

  out.metric("l0.sense_us", probes.sense_us, "us");
  out.metric("l0.flips", static_cast<double>(probes.flips), "count");
  out.metric("l0.row_params_ns", probes.row_params_ns, "ns");
  out.metric("l1.column_op_ns", probes.column_op_ns, "ns");
  out.metric("l2.read_row_us", probes.read_row_us, "us");
  out.metric("l2.write_row_us", probes.write_row_us, "us");
  out.metric("l2.cmds", static_cast<double>(cmds.commands), "count");
  out.metric("l2.host_ns_per_cmd", probes.host_ns_per_cmd, "ns");
  out.metric("l2.cmd_share", grid_cpu_s > 0.0 ? l2_self_s / grid_cpu_s : 0.0,
             "ratio");
  out.metric("l3.measure_ber_us", probes.measure_ber_us, "us");
  out.metric("l3.hammer_row_ms", probes.hammer_row_ms, "ms");
  out.metric("l3.wcdp_ms", probes.wcdp_ms, "ms");
  out.metric("l3.trcd_row_ms", probes.trcd_row_ms, "ms");
  out.metric("l3.retention_row_ms", probes.retention_row_ms, "ms");
  const double grid_wall_s = median(grid_wall);
  out.metric("l4.run_s", grid_wall_s, "s");
  out.metric("l4.cpu_s", grid_cpu_s, "s");
  out.metric("l4.utilization",
             grid_wall_s > 0.0 ? grid_cpu_s / (grid_wall_s * kJobs) : 0.0,
             "ratio");
  out.metric("l4.shards", static_cast<double>(grid.shards), "count");
  out.metric("l4.cells", static_cast<double>(grid.cells), "count");
  const double ckpt_s = median(ckpt_wall);
  const double overhead = ckpt_s - median(bare_wall);
  out.metric("l5.overhead_s", overhead, "s");
  out.metric("l5.share", ckpt_s > 0.0 ? overhead / ckpt_s : 0.0, "ratio");
  out.metric("l5.write_ms_p50", percentile(replay.write_ms, 50.0), "ms");
  out.metric("l5.write_ms_p99", percentile(replay.write_ms, 99.0), "ms");
  out.metric("l5.load_ms", replay.load_ms, "ms");
  out.metric("l5.bytes", static_cast<double>(ckpt.manifest_bytes), "bytes");
  const double service = median(vppd.service_ms);
  const double roundtrip = median(vppd.roundtrip_ms);
  out.metric("l6.service_ms", service, "ms");
  out.metric("l6.roundtrip_ms", roundtrip, "ms");
  out.metric("l6.wire_ms", roundtrip - service, "ms");
  out.metric("l6.cache_hit_ratio",
             t.hits + t.misses > 0
                 ? static_cast<double>(t.hits) /
                       static_cast<double>(t.hits + t.misses)
                 : 0.0,
             "ratio");
  out.metric("l6.evictions", static_cast<double>(vppd.evictions), "count");
  out.metric("l6.response_bytes",
             t.attempted > 0 ? static_cast<double>(response_bytes) /
                                   static_cast<double>(t.attempted)
                             : 0.0,
             "bytes");
  out.metric("l6.queue_rejects", static_cast<double>(vppd.queue_rejects),
             "count");
  const Tail cold = tail_of(t.cold_ms);
  const Tail warm = tail_of(t.warm_ms);
  out.metric("vppd.cold_sweep_p50_ms", median(t.cold_ms), "ms");
  out.metric("vppd.cold_sweep_tail_ms", cold.value, "ms");
  out.metric("vppd.warm_sweep_p50_ms", median(t.warm_ms), "ms");
  out.metric("vppd.warm_sweep_tail_ms", warm.value, "ms");
  out.metric("vppd.warm_share",
             median(field<VppdRound>(vppd_rounds,
                                     [](const VppdRound& r) {
                                       return r.wall_s > 0.0
                                                  ? r.warm_phase_s / r.wall_s
                                                  : 0.0;
                                     })),
             "ratio");
  out.metric("vppd.sweeps_per_s",
             vppd_wall > 0.0 ? static_cast<double>(t.attempted) / vppd_wall
                             : 0.0,
             "1/s");
  const double off = median(untraced_wall);
  out.metric("trace.overhead_pct",
             off > 0.0 ? (median(traced_wall) - off) / off * 100.0 : 0.0, "%");
  tally_notes(out, t);

  // The per-layer table beside the metrics, and the Chrome trace export.
  const auto rows = tracer().layer_table();
  std::string table = format_layer_table(rows);
  std::size_t from = 0;
  while (from < table.size()) {
    const std::size_t nl = table.find('\n', from);
    out.notes.push_back(table.substr(from, nl - from));
    from = nl + 1;
  }
  const std::string trace_path = args.workdir + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed) + ".trace.json";
  std::ofstream(trace_path) << tracer().chrome_trace_json(kExportedRequests);
  out.notes.push_back("chrome trace: " + trace_path + " (of " +
                      std::to_string(tracer().span_count()) +
                      " spans, those of the first " +
                      std::to_string(kExportedRequests) +
                      " requests per connection and round)");
}

/// Pin mode: record the digest of every output of every pinned input,
/// computed the plain way (no manifest, no cache), so a run checks that
/// checkpointing and caching leave outputs byte-identical.
int pin(const Args& args) {
  DigestTable table;
  table.set_pin_mode(true);
  for (std::uint64_t i = 0; i < kPinnedInputs; ++i) {
    const Inputs in = make_inputs(i);
    const CampaignRound grid = run_grid_round(in);
    const CampaignRound bare = run_grid_round(in, 1);
    if (!grid.ok || !bare.ok) {
      std::fprintf(stderr, "pin: input %llu failed: %s%s\n",
                   static_cast<unsigned long long>(i), grid.error.c_str(),
                   bare.error.c_str());
      return 1;
    }
    (void)table.check("campaign_grid", i, "grid", grid_output(grid.grids));
    (void)table.check("campaign_checkpointed", i, "grid",
                      grid_output(bare.grids));
    for (const Shape& shape : vppd_shapes()) {
      const std::string text = fresh_result(shape, in);
      if (text.empty()) {
        std::fprintf(stderr, "pin: vppd shape %s failed\n", shape.key);
        return 1;
      }
      (void)table.check("vppd_mix", i, shape.key, text);
    }
    std::fprintf(stderr, "pinned input %llu\n",
                 static_cast<unsigned long long>(i));
  }
  if (!table.save(args.digests)) {
    std::fprintf(stderr, "cannot write %s\n", args.digests.c_str());
    return 1;
  }
  return 0;
}

std::string result_json(const Outcome& out) {
  JsonWriter w;
  w.begin_object()
      .kv("correct", out.correct)
      .kv("attempted", out.attempted)
      .kv("failed", out.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : out.metrics) {
    w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <campaign_grid|"
                 "campaign_checkpointed|vppd_mix> --seed N --seconds S "
                 "--trace <0|1> [--digests FILE] [--workdir DIR]\n"
                 "       e2ebench --pin --digests FILE\n");
    return 2;
  }
  ::mkdir(args.workdir.c_str(), 0755);
  if (args.pin) return pin(args);

  Runner run;
  run.inputs = make_inputs(args.seed);
  run.manifest_path = args.workdir + "/" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".manifest.json";
  std::string error;
  if (!run.digests.load(args.digests, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 2;
  }
  run.vppd_check.digests = &run.digests;

  const HostInfo host = host_info();
  std::printf("# host %s\n", host.json().c_str());
  std::printf("# workload %s seed %llu (input %llu of %llu) trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(run.inputs.index),
              static_cast<unsigned long long>(kPinnedInputs), args.trace);
  if (args.trace) {
    traced(args, run);
  } else {
    untraced(args, run);
  }
  std::remove(run.manifest_path.c_str());

  Outcome& out = run.out;
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("%-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "e2ebench: output check failed: %s\n", e.c_str());
  }
  std::printf("# outputs checked against %llu pinned digests: %s\n",
              static_cast<unsigned long long>(run.digests.checked()),
              out.correct ? "all match" : "MISMATCH");

  // The result set, with its host class, for later comparison.
  const std::string result = result_json(out);
  std::ofstream(args.workdir + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                std::to_string(args.trace ? 1 : 0) + ".result.json")
      << "{\"host\":" << host.json() << ",\"result\":" << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
