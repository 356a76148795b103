#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "chips/module_db.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "core/export.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "trace.hpp"

namespace e2ebench {

using namespace vppstudy;

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.index = seed % kPinnedInputs;
  in.bank = static_cast<std::uint32_t>(in.index % dram::kBanksPerRank);
  // Keep request seeds inside the 2^53 range the JSON wire format carries
  // exactly.
  in.plan_seed = common::hash_key({0x65326562656e6368ull, in.index}) >> 12;
  return in;
}

// --- Campaigns ---------------------------------------------------------------

core::CampaignPlan grid_plan(const Inputs& inputs,
                             std::uint32_t rows_per_shard) {
  core::CampaignPlan plan;
  for (double v = 2.5; v >= 1.4 - 1e-9; v -= 0.2) {
    plan.sweep.vpp_levels.push_back(v);
  }
  plan.sweep.sampling.bank = inputs.bank;
  plan.sweep.sampling.chunks = 4;
  plan.sweep.sampling.rows_per_chunk = 2;
  plan.sweep.hammer.num_iterations = 1;
  plan.axes.temperatures_c = {50.0, 65.0, 80.0};
  for (const char* name : {"B3", "A0", "C9", "B6"}) {
    plan.modules.push_back(*chips::profile_by_name(name));
  }
  plan.seed = inputs.plan_seed;
  plan.jobs = kJobs;
  plan.rows_per_shard = rows_per_shard;
  return plan;
}

dram::RowMapping row_mapping(const dram::ModuleProfile& profile) {
  return dram::RowMapping(dram::scheme_for(profile.mfr), profile.rows_per_bank,
                          profile.row_repairs);
}

std::vector<std::uint32_t> sampled_rows(const dram::ModuleProfile& profile,
                                        const harness::RowSampling& sampling) {
  return sampling.sample(row_mapping(profile));
}

std::uint64_t planned_shards(const core::CampaignPlan& plan) {
  std::uint64_t total = 0;
  for (const dram::ModuleProfile& profile : plan.modules) {
    const auto points = plan.axes.points_for(
        core::usable_vpp_levels(plan.sweep, profile.vppmin_v),
        core::JobPhase::kRowHammer, plan.sweep.hammer.ber_hc);
    const std::uint64_t rows =
        sampled_rows(profile, plan.sweep.sampling).size();
    const std::uint64_t shards =
        (rows + plan.rows_per_shard - 1) / plan.rows_per_shard;
    total += points.size() * shards;
  }
  return total;
}

std::string grid_output(const std::vector<core::HammerGrid>& grids) {
  std::string out;
  for (const core::HammerGrid& grid : grids) {
    std::vector<double> levels;
    for (const core::AxisPoint& p : grid.points) levels.push_back(p.vpp_v);
    out += core::grid_csv(grid).str();
    out += core::grid_json(grid).str();
    out += '\n';
    out += core::instrumentation_json("rowhammer_grid", grid.module_name,
                                      levels, grid.instrumentation)
               .str();
    out += '\n';
  }
  return out;
}

std::uint64_t grid_cells(const std::vector<core::HammerGrid>& grids) {
  std::uint64_t cells = 0;
  for (const core::HammerGrid& grid : grids) {
    for (const auto& point_cells : grid.cells) cells += point_cells.size();
  }
  return cells;
}

namespace {

/// Run `fn` as the round's timed work, filling wall and CPU time.
template <typename Fn>
void timed(Round& round, Fn&& fn) {
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  fn();
  round.wall_s = now_s() - t0;
  round.cpu_s = process_cpu_s() - cpu0;
}

void fail(Round& round, std::string error) {
  if (round.error.empty()) round.error = std::move(error);
  round.ok = false;
}

/// Build a round's fixture kSetupRepeats times, timing each build; keeps
/// the last fixture and records the median build time as the round's
/// set-up. (Tearing down an earlier fixture is not set-up and is not timed.)
template <typename Make>
auto timed_setup(Round& round, const char* span_name, Make&& make) {
  std::vector<double> times;
  decltype(make()) fixture{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    decltype(make()) built;
    {
      ScopedSpan span(span_name);
      built = make();
    }
    times.push_back(now_s() - t0);
    fixture = std::move(built);
  }
  round.setup_s = median(times);
  return fixture;
}

}  // namespace

CampaignRound run_grid_round(const Inputs& inputs,
                             std::uint32_t rows_per_shard) {
  const bool grid = rows_per_shard == kGridRowsPerShard;
  CampaignRound round;
  auto engine = timed_setup(
      round, grid ? "setup.campaign_grid" : "setup.no_manifest", [&] {
        core::CampaignPlan plan = grid_plan(inputs, rows_per_shard);
        round.shards = planned_shards(plan);
        return std::make_unique<core::CampaignEngine>(std::move(plan));
      });

  common::Expected<std::vector<core::HammerGrid>> grids =
      std::vector<core::HammerGrid>{};
  timed(round, [&] {
    ScopedSpan span(grid ? "l4.run_hammer" : "l4.run_hammer.no_manifest");
    grids = engine->run_hammer();
  });
  round.operations = 1;
  round.ok = true;
  if (!grids) {
    round.failed_operations = 1;
    fail(round, "run_hammer: " + grids.error().to_string());
    return round;
  }
  round.grids = std::move(*grids);
  round.cells = grid_cells(round.grids);
  return round;
}

CampaignRound run_checkpoint_round(const Inputs& inputs,
                                   const std::string& manifest_path) {
  CampaignRound round;
  // A stale manifest would turn the round into a pure resume.
  std::remove(manifest_path.c_str());
  std::remove((manifest_path + ".tmp").c_str());
  std::uint32_t budget = 0;
  auto engine = timed_setup(round, "setup.campaign_checkpointed", [&] {
    core::CampaignPlan plan = grid_plan(inputs, 1);
    round.shards = planned_shards(plan);
    plan.manifest_path = manifest_path;
    budget = static_cast<std::uint32_t>(round.shards / 2);
    plan.max_new_shards = budget;
    return std::make_unique<core::CampaignEngine>(std::move(plan));
  });
  round.ok = true;

  common::Expected<std::vector<core::HammerGrid>> grids =
      std::vector<core::HammerGrid>{};
  timed(round, [&] {
    {
      ScopedSpan span("l4.run_hammer.budgeted");
      auto partial = engine->run_hammer();
      ++round.operations;
      // The budget must end the first run with the planned kCancelled.
      if (partial || partial.error().code != common::ErrorCode::kCancelled) {
        ++round.failed_operations;
        fail(round, partial ? "budgeted run completed; expected kCancelled"
                            : "budgeted run: " + partial.error().to_string());
      }
    }
    common::Result<core::CampaignManifest> doc =
        core::CampaignManifest{};
    {
      ScopedSpan span("l5.load_campaign_manifest");
      doc = core::load_campaign_manifest(manifest_path);
    }
    if (!doc) {
      fail(round, "load manifest: " + doc.error().to_string());
      return;
    }
    if (doc->shards.size() != budget) {
      fail(round, "manifest holds " + std::to_string(doc->shards.size()) +
                      " shards after a budget of " + std::to_string(budget));
    }
    common::Result<core::CampaignPlan> resumed = core::CampaignPlan{};
    {
      ScopedSpan span("l5.plan_from_manifest");
      resumed = core::plan_from_manifest(*doc);
    }
    if (!resumed) {
      fail(round, "plan_from_manifest: " + resumed.error().to_string());
      return;
    }
    resumed->jobs = kJobs;
    resumed->manifest_path = manifest_path;
    {
      ScopedSpan span("l4.run_hammer.resume");
      grids = core::CampaignEngine(std::move(*resumed)).run_hammer();
      ++round.operations;
    }
  });
  if (!round.ok) return round;
  if (!grids) {
    ++round.failed_operations;
    fail(round, "run_hammer: " + grids.error().to_string());
    return round;
  }
  round.grids = std::move(*grids);
  round.cells = grid_cells(round.grids);
  if (FILE* f = std::fopen(manifest_path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    round.manifest_bytes = static_cast<std::uint64_t>(std::ftell(f));
    std::fclose(f);
  }
  return round;
}

// --- vppd_mix ----------------------------------------------------------------

const std::vector<Shape>& vppd_shapes() {
  // The scan connection cycles through shapes whose distinct cells (about
  // 340) exceed kCacheMaxCells by more than its largest request, so LRU has
  // evicted every scan request's cells before it recurs: each scan request
  // misses in full and runs rowhammer, trcd or retention compute. The hot
  // connection then repeats two large overlapping trcd sweeps (160 distinct
  // cells, resident once answered): h1 is the 0.1 V superset of h0's
  // levels, so its first touch is a partial hit, and every later request is
  // warm. Warm requests are large so that a round trip carries codec and
  // cache work of the same order as its loopback wake-ups. These shapes,
  // the split between the connections and the cache bound are design
  // constants that load the cold and the warm path every round; no record
  // of real vppd traffic stands behind them.
  static const std::vector<Shape> shapes = {
      {"h0", "B3", "trcd", 16, 0.2, {}, Role::kHot},
      {"h1", "B3", "trcd", 16, 0.1, {}, Role::kHot},
      {"s0", "A0", "rowhammer", 8, 0.2, {}, Role::kScan},
      {"s1", "C9", "rowhammer", 8, 0.2, {50.0, 65.0}, Role::kScan},
      {"s2", "A0", "trcd", 8, 0.2, {}, Role::kScan},
      {"s3", "C9", "trcd", 8, 0.2, {50.0, 80.0}, Role::kScan},
      {"s4", "A0", "retention", 8, 0.2, {}, Role::kScan},
      {"s5", "B3", "retention", 8, 0.2, {65.0, 80.0}, Role::kScan},
  };
  return shapes;
}

server::SweepRequest request_for(const Shape& shape, const Inputs& inputs) {
  server::SweepRequest req;
  req.module = shape.module;
  req.test = shape.test;
  req.rows = shape.rows;
  req.step = shape.step;
  req.seed = inputs.plan_seed;
  req.temps = shape.temps;
  return req;
}

namespace {

std::vector<std::size_t> cycle_of(Role role) {
  const auto& shapes = vppd_shapes();
  std::vector<std::size_t> cycle;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].role == role) cycle.push_back(i);
  }
  return cycle;
}

}  // namespace

std::vector<std::size_t> client_stream(const Inputs& inputs,
                                       unsigned client) {
  const std::vector<std::size_t> hot = cycle_of(Role::kHot);
  std::vector<std::size_t> stream;
  if (client == 0) {
    // The seed orders the scan cycle once; every repetition keeps that
    // order, so a shape's reuse distance is always the rest of the cycle.
    std::vector<std::size_t> scan = cycle_of(Role::kScan);
    std::mt19937_64 rng(common::hash_key({inputs.plan_seed, 0x7363616eull}));
    std::shuffle(scan.begin(), scan.end(), rng);
    for (std::size_t i = 0; i < kScanCycles * scan.size(); ++i) {
      stream.push_back(scan[i % scan.size()]);
    }
  }
  // Both connections send kHotRequests / 2 hot requests; the hot
  // connection's first cycle fills the cache.
  for (std::size_t i = 0; i < kHotRequests / kClients; ++i) {
    stream.push_back(hot[i % hot.size()]);
  }
  return stream;
}

void VppdCheck::result(const Inputs& inputs, const std::string& key,
                       const std::string& text) {
  const auto [it, inserted] = first.emplace(key, text);
  if (!inserted && it->second != text) {
    errors.push_back("vppd_mix " + key +
                     ": repeated request returned different bytes");
  }
  if (inserted && digests != nullptr &&
      !digests->check("vppd_mix", inputs.index, key, text)) {
    errors.push_back(digests->mismatches().back());
  }
}

namespace {

/// The "result" member text of a successful response frame: the server
/// splices it verbatim between `"result":` and the trailing `,"stats":`.
std::string result_text(const std::string& payload) {
  const std::size_t begin = payload.find(",\"result\":");
  const std::size_t end = payload.rfind(",\"stats\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return {};
  }
  const std::size_t from = begin + 10;
  return payload.substr(from, end - from);
}

struct ClientLog {
  RequestTally tally;
  std::uint64_t response_bytes = 0;
  double cold_end_s = 0.0;  ///< when its cold part was answered
  /// First result text of each shape. Later responses are compared with it
  /// as they arrive and kept only when they differ, so memory does not grow
  /// with the number of requests a round serves.
  std::map<std::size_t, std::string> first;
  std::vector<std::pair<std::size_t, std::string>> changed;
  std::string error;
};

/// Counts a latch down exactly once: at arrive(), or on every exit path of
/// a client that fails before it gets there.
class LatchOnce {
 public:
  explicit LatchOnce(std::latch& latch) : latch_(latch) {}
  ~LatchOnce() { arrive(); }
  LatchOnce(const LatchOnce&) = delete;
  LatchOnce& operator=(const LatchOnce&) = delete;

  void arrive() {
    if (!done_) latch_.count_down();
    done_ = true;
  }

 private:
  std::latch& latch_;
  bool done_ = false;
};

/// One closed-loop connection: send a request, wait for its response, send
/// the next. Speaks the wire protocol through write_frame/read_frame and
/// does the same encode/frame/parse work as server::Client::sweep, but
/// keeps the raw response so the result bytes can be checked.
///
/// Two latches phase the round. The scan connection sends its cold stream
/// and opens `scan_done`; the hot connection, waiting on it, answers its
/// first hot cycle (the hot set is now resident) and opens `hot_ready`; the
/// scan connection, waiting on that, then joins it, and both send warm
/// requests to the end. Cold and warm work do not overlap, so neither
/// path's share of the round depends on how they compete for CPU, and
/// which requests hit, miss and evict is fixed by the streams alone.
void run_client(const Inputs& inputs, unsigned client, common::Socket socket,
                std::latch& scan_done, std::latch& hot_ready, ClientLog& log) {
  const auto& shapes = vppd_shapes();
  const std::vector<std::size_t> stream = client_stream(inputs, client);
  const bool scan = client == 0;
  const std::size_t cold_part =
      scan ? kScanCycles * cycle_of(Role::kScan).size()
           : cycle_of(Role::kHot).size();
  // Each connection opens its latch at the end of its cold part.
  LatchOnce open(scan ? scan_done : hot_ready);
  if (!scan) scan_done.wait();
  for (std::size_t n = 0; n < stream.size(); ++n) {
    if (n == cold_part) {
      log.cold_end_s = now_s();
      open.arrive();
      if (scan) hot_ready.wait();
    }
    const std::uint64_t id = n + 1;
    const std::size_t s = stream[n];
    const std::uint64_t request_id = (std::uint64_t{client + 1} << 32) | id;
    ScopedSpan span("l6.request", request_id);
    RequestOutcome outcome;
    const double t0 = now_s();
    std::string frame;
    {
      ScopedSpan s1("l6.encode");
      frame = server::encode_sweep_request(id, request_for(shapes[s], inputs));
    }
    std::string payload;
    bool io_ok = false;
    {
      ScopedSpan s2("l6.write_frame");
      io_ok = server::write_frame(socket, frame).ok();
    }
    if (io_ok) {
      ScopedSpan s3("l6.read_frame");
      auto more = server::read_frame(socket, payload);
      io_ok = more && *more;
    }
    if (!io_ok) {
      log.tally.add(outcome);
      if (log.error.empty()) log.error = "connection lost";
      break;
    }
    common::Result<common::JsonValue> doc = common::JsonValue{};
    {
      ScopedSpan s4("l6.parse");
      doc = common::parse_json(payload);
    }
    outcome.latency_ms = (now_s() - t0) * 1e3;
    log.response_bytes += payload.size();
    auto result = doc ? server::response_result(*doc)
                      : common::Result<common::JsonValue>(doc.error());
    if (result) {
      outcome.ok = true;
      if (const common::JsonValue* stats = doc->find("stats")) {
        outcome.cache_hits = stats->uint_or("cache_hits", 0);
        outcome.cache_misses = stats->uint_or("cache_misses", 0);
      }
      std::string text = result_text(payload);
      const auto [it, inserted] = log.first.emplace(s, text);
      if (!inserted && it->second != text) {
        log.changed.emplace_back(s, std::move(text));
      }
    } else {
      // A refusal is a failed request; any other error is a wrong output.
      const auto code = result.error().code;
      outcome.refused = code == common::ErrorCode::kQueueFull ||
                        code == common::ErrorCode::kQuotaExceeded;
      if (!outcome.refused && log.error.empty()) {
        log.error = result.error().to_string();
      }
    }
    log.tally.add(outcome);
  }
}

}  // namespace

VppdRound run_vppd_round(const Inputs& inputs, VppdCheck& check,
                         std::size_t probe_calls) {
  VppdRound round;
  struct Fixture {
    std::unique_ptr<server::Server> srv;
    std::vector<common::Socket> sockets;
    std::optional<server::Client> control;
    std::string error;
  };
  Fixture fx = timed_setup(round, "setup.vppd_mix", [&] {
    Fixture f;
    server::Server::Config config;
    config.service.jobs = kJobs;
    config.service.cache_max_cells = kCacheMaxCells;
    config.queue.dispatchers = 2;
    auto started = server::Server::start(config);
    if (!started) {
      f.error = "Server::start: " + started.error().to_string();
      return f;
    }
    f.srv = std::move(*started);
    for (unsigned c = 0; c < kClients; ++c) {
      auto sock = common::connect_loopback(f.srv->port());
      if (!sock) {
        f.error = "connect: " + sock.error().to_string();
        return f;
      }
      f.sockets.push_back(std::move(*sock));
    }
    auto client = server::Client::connect(f.srv->port());
    if (!client) {
      f.error = "Client::connect: " + client.error().to_string();
      return f;
    }
    f.control.emplace(std::move(*client));
    return f;
  });
  round.ok = true;
  if (!fx.error.empty()) {
    fail(round, fx.error);
    return round;
  }
  server::Server* srv = fx.srv.get();
  std::vector<common::Socket>& sockets = fx.sockets;
  std::optional<server::Client>& control = fx.control;

  std::vector<ClientLog> logs(kClients);
  double start = 0.0;
  timed(round, [&] {
    start = now_s();
    std::latch scan_done(1);
    std::latch hot_ready(1);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(run_client, std::cref(inputs), c,
                           std::move(sockets[c]), std::ref(scan_done),
                           std::ref(hot_ready), std::ref(logs[c]));
    }
    for (std::thread& t : threads) t.join();
  });

  const auto& shapes = vppd_shapes();
  for (ClientLog& log : logs) {
    round.tally.merge(log.tally);
    round.response_bytes += log.response_bytes;
    for (const auto& [shape, text] : log.first) {
      check.result(inputs, shapes[shape].key, text);
    }
    for (const auto& [shape, text] : log.changed) {
      check.result(inputs, shapes[shape].key, text);
    }
    if (!log.error.empty()) fail(round, log.error);
  }
  round.operations = round.tally.attempted;
  round.failed_operations = round.tally.failed;
  round.cells = round.tally.cells;
  round.cold_phase_s = logs[0].cold_end_s - start;
  round.warm_phase_s = start + round.wall_s - logs[1].cold_end_s;

  const std::uint64_t stats_id = control->next_id();
  auto stats =
      control->call_result(stats_id, server::encode_stats_request(stats_id));
  if (stats) {
    if (const common::JsonValue* cache = stats->find("cache")) {
      round.evictions = cache->uint_or("evictions", 0);
    }
  } else {
    fail(round, "stats: " + stats.error().to_string());
  }
  const auto queue = srv->queue_stats();
  round.queue_rejects = queue.rejected_full + queue.rejected_quota;

  if (probe_calls > 0) {
    // One warm request: a hot shape, re-run here first so its cells are
    // resident.
    const server::SweepRequest warm = request_for(shapes[0], inputs);
    common::CancelToken token;
    bool ok = static_cast<bool>(srv->service().sweep(warm, token));
    for (std::size_t i = 0; ok && i < probe_calls; ++i) {
      double t = now_s();
      {
        ScopedSpan span("l6.service_sweep");
        ok = static_cast<bool>(srv->service().sweep(warm, token));
      }
      round.service_ms.push_back((now_s() - t) * 1e3);
      t = now_s();
      {
        ScopedSpan span("l6.client_sweep");
        ok = ok && static_cast<bool>(control->sweep(warm));
      }
      round.roundtrip_ms.push_back((now_s() - t) * 1e3);
    }
    if (!ok) fail(round, "warm-request probe failed");
  }
  srv->stop();
  return round;
}

std::string fresh_result(const Shape& shape, const Inputs& inputs) {
  server::Service::Config config;
  config.jobs = kJobs;
  server::Service service(config);
  common::CancelToken token;
  auto out = service.sweep(request_for(shape, inputs), token);
  return out ? out->result_json : std::string();
}

}  // namespace e2ebench
