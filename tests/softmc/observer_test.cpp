// Tests for the instrumented command dispatch: observer registration order,
// the timing-checker-first contract, SessionCounters against hand-computed
// programs, the trace ring buffer's wrap behavior, and the typed error codes
// the session surfaces for each rig failure mode.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "dram/data_pattern.hpp"
#include "dram/types.hpp"
#include "softmc/counters.hpp"
#include "softmc/row_ops.hpp"
#include "softmc/session.hpp"
#include "softmc/trace_recorder.hpp"

namespace vppstudy::softmc {
namespace {

dram::ModuleProfile small_profile(const char* name = "B3") {
  auto p = chips::profile_by_name(name).value();
  p.rows_per_bank = 4096;
  return p;
}

/// Appends "<name>:<command>" to a shared log on every command issue, so a
/// test can read off the interleaving across observers.
class RecordingObserver final : public SessionObserver {
 public:
  RecordingObserver(std::vector<std::string>& log, std::string name)
      : log_(log), name_(std::move(name)) {}

  void on_command(const Instruction& inst, double now_ns) override {
    (void)now_ns;
    log_.push_back(name_ + ":" +
                   std::string(dram::command_name(inst.kind)));
  }
  void on_violation(const TimingViolation& violation) override {
    violations_.push_back(violation);
  }
  void on_error(const common::Error& error, double now_ns) override {
    (void)now_ns;
    errors_.push_back(error);
  }

  [[nodiscard]] const std::vector<TimingViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] const std::vector<common::Error>& errors() const {
    return errors_;
  }

 private:
  std::vector<std::string>& log_;
  std::string name_;
  std::vector<TimingViolation> violations_;
  std::vector<common::Error> errors_;
};

TEST(Observers, NotifiedInRegistrationOrderPerCommand) {
  Session s(small_profile());
  std::vector<std::string> log;
  RecordingObserver first(log, "first");
  RecordingObserver second(log, "second");
  s.add_observer(&first);
  s.add_observer(&second);

  Program p(s.timing());
  p.act(0, 1).pre(0);
  ASSERT_TRUE(s.execute(p).status.ok());

  const std::vector<std::string> expected = {"first:ACT", "second:ACT",
                                             "first:PRE", "second:PRE"};
  EXPECT_EQ(log, expected);
}

TEST(Observers, TimingCheckerRunsBeforeExternalObservers) {
  // The checker is registered first, so by the time an external observer's
  // on_violation fires, the session's violation log already holds the entry.
  class ViolationWatcher final : public SessionObserver {
   public:
    explicit ViolationWatcher(const Session& session) : session_(session) {}
    void on_violation(const TimingViolation& violation) override {
      rules.push_back(violation.rule);
      log_sizes_at_callback.push_back(session_.violations().size());
    }
    std::vector<std::string> rules;
    std::vector<std::size_t> log_sizes_at_callback;

   private:
    const Session& session_;
  };

  Session s(small_profile("A0"));
  ViolationWatcher watcher(s);
  s.add_observer(&watcher);
  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  ASSERT_TRUE(s.init_row(0, 50, image).ok());
  s.clear_violations();
  ASSERT_TRUE(s.read_column_with_trcd(0, 50, 3, 6.0).has_value());

  ASSERT_FALSE(watcher.rules.empty());
  EXPECT_EQ(watcher.rules.front(), "tRCD");
  for (const std::size_t size : watcher.log_sizes_at_callback) {
    EXPECT_GE(size, 1u);
  }
}

TEST(Observers, RemoveObserverStopsDelivery) {
  Session s(small_profile());
  std::vector<std::string> log;
  RecordingObserver obs(log, "obs");
  s.add_observer(&obs);

  Program p(s.timing());
  p.act(0, 1).pre(0);
  ASSERT_TRUE(s.execute(p).status.ok());
  const std::size_t seen_while_registered = log.size();
  EXPECT_EQ(seen_while_registered, 2u);

  s.remove_observer(&obs);
  ASSERT_TRUE(s.execute(p).status.ok());
  EXPECT_EQ(log.size(), seen_while_registered);
}

TEST(Observers, OnErrorDeliversTypedErrorAndAbortsExecution) {
  Session s(small_profile());
  std::vector<std::string> log;
  RecordingObserver obs(log, "obs");
  s.add_observer(&obs);

  Program p(s.timing());
  p.rd(0, 0).pre(0);  // RD with no open row: device protocol error
  const auto result = s.execute(p);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.error().code, common::ErrorCode::kDeviceProtocol);

  ASSERT_EQ(obs.errors().size(), 1u);
  EXPECT_EQ(obs.errors().front().code, common::ErrorCode::kDeviceProtocol);
  EXPECT_EQ(obs.errors().front().context.op, "RD");
  // Execution aborted at the failing RD; the PRE never issued.
  const std::vector<std::string> expected = {"obs:RD"};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(s.counters().device_errors, 1u);
}

TEST(Observers, DefaultOnBurstReplaysTheColumnStream) {
  // An observer that does not override on_burst sees the row bursts of
  // init_row / read_row as the exact clock-advance + command stream of the
  // single-column programs they replaced.
  class StreamLog final : public SessionObserver {
   public:
    void on_clock_advance(double from_ns, double to_ns) override {
      advances.emplace_back(from_ns, to_ns);
    }
    void on_command(const Instruction& inst, double now_ns) override {
      commands.push_back(inst);
      at_ns.push_back(now_ns);
    }
    std::vector<std::pair<double, double>> advances;
    std::vector<Instruction> commands;
    std::vector<double> at_ns;
  };

  const auto image =
      dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
  Session bursts(small_profile());
  StreamLog burst_log;
  bursts.add_observer(&burst_log);
  ASSERT_TRUE(bursts.init_row(0, 9, image).ok());
  ASSERT_TRUE(bursts.read_row(0, 9, 20.0).has_value());

  Session columns(small_profile());
  StreamLog column_log;
  columns.add_observer(&column_log);
  const dram::Ddr4Timing& t = columns.timing();
  const double spacing = RowOps(t).column_spacing_ns();
  Program w(t);
  w.act(0, 9);
  for (std::uint32_t c = 0; c < dram::kColumnsPerRow; ++c) {
    std::array<std::uint8_t, dram::kBytesPerColumn> word{};
    std::copy_n(image.begin() + c * dram::kBytesPerColumn,
                dram::kBytesPerColumn, word.begin());
    w.wr(0, c, word, c == 0 ? t.t_rcd_ns : spacing);
  }
  w.pre(0, t.t_wr_ns + spacing);
  ASSERT_TRUE(columns.execute(w).status.ok());
  Program r(t);
  r.act(0, 9);
  for (std::uint32_t c = 0; c < dram::kColumnsPerRow; ++c) {
    r.rd(0, c, c == 0 ? 20.0 : spacing);
  }
  r.pre(0, t.t_rtp_ns);
  ASSERT_TRUE(columns.execute(r).status.ok());

  EXPECT_EQ(burst_log.commands.size(), 4u + 2u * dram::kColumnsPerRow);
  EXPECT_EQ(burst_log.commands, column_log.commands);
  EXPECT_EQ(burst_log.at_ns, column_log.at_ns);
  EXPECT_EQ(burst_log.advances, column_log.advances);
}

TEST(Counters, MatchHandComputedRowPrograms) {
  Session s(small_profile());
  const auto image =
      dram::pattern_row(dram::DataPattern::kChecker55, dram::kBytesPerRow);
  // init_row is ACT + a 1024-column WR burst + PRE; read_row is ACT + a
  // 1024-column RD burst + PRE. Counters count the burst's columns.
  ASSERT_TRUE(s.init_row(0, 7, image).ok());
  ASSERT_TRUE(s.read_row(0, 7).has_value());

  const CommandCounts& c = s.counters();
  EXPECT_EQ(c.activates, 2u);
  EXPECT_EQ(c.writes, static_cast<std::uint64_t>(dram::kColumnsPerRow));
  EXPECT_EQ(c.reads, static_cast<std::uint64_t>(dram::kColumnsPerRow));
  EXPECT_EQ(c.precharges, 2u);
  EXPECT_EQ(c.refreshes, 0u);
  EXPECT_EQ(c.hammer_loops, 0u);
  EXPECT_EQ(c.total_commands(), 4u + 2u * dram::kColumnsPerRow);
  // The counters observe every clock advance, so the simulated time equals
  // the session clock (which started at zero).
  EXPECT_DOUBLE_EQ(c.simulated_ns, s.clock_ns());
}

TEST(Counters, HammerLoopExpandsToPerAggressorActivations) {
  Session s(small_profile());
  const auto n = s.module().mapping().physical_neighbors(500);
  ASSERT_TRUE(n.valid);
  ASSERT_TRUE(s.hammer_double_sided(0, n.below, n.above, 1000).ok());

  const CommandCounts& c = s.counters();
  EXPECT_EQ(c.hammer_loops, 1u);
  EXPECT_EQ(c.hammer_activations, 2000u);  // two aggressors, 1000 ACTs each
  EXPECT_EQ(c.activates, 0u);              // no explicit ACTs issued
  EXPECT_EQ(c.total_commands(), 2000u);
}

TEST(Counters, ResetClearsEveryField) {
  Session s(small_profile());
  const auto image =
      dram::pattern_row(dram::DataPattern::kAllOnes, dram::kBytesPerRow);
  ASSERT_TRUE(s.init_row(0, 3, image).ok());
  ASSERT_NE(s.counters(), CommandCounts{});
  s.reset_counters();
  EXPECT_EQ(s.counters(), CommandCounts{});
}

TEST(Trace, RingWrapsKeepingNewestOldestFirst) {
  Session s(small_profile());
  s.enable_trace(4);
  ASSERT_NE(s.trace(), nullptr);
  EXPECT_EQ(s.trace()->capacity(), 4u);

  Program p(s.timing());
  // Six commands through a four-slot ring: ACT RD0 RD1 RD2 RD3 PRE.
  p.act(0, 1).rd(0, 0).rd(0, 1).rd(0, 2).rd(0, 3).pre(0);
  ASSERT_TRUE(s.execute(p).status.ok());

  EXPECT_EQ(s.trace()->total_recorded(), 6u);
  const auto entries = s.trace()->entries();
  ASSERT_EQ(entries.size(), 4u);
  // The first two commands (ACT, RD col 0) were overwritten.
  EXPECT_EQ(entries[0].kind, dram::CommandKind::kRead);
  EXPECT_EQ(entries[0].column, 1u);
  EXPECT_EQ(entries[1].column, 2u);
  EXPECT_EQ(entries[2].column, 3u);
  EXPECT_EQ(entries[3].kind, dram::CommandKind::kPrecharge);
  // Timestamps are the issue clock: strictly increasing oldest to newest.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].at_ns, entries[i - 1].at_ns);
  }
}

TEST(Trace, DisableDetachesAndEnableReplaces) {
  Session s(small_profile());
  EXPECT_EQ(s.trace(), nullptr);  // off by default: tracing is opt-in
  s.enable_trace(2);
  Program p(s.timing());
  p.act(0, 1).pre(0);
  ASSERT_TRUE(s.execute(p).status.ok());
  EXPECT_EQ(s.trace()->total_recorded(), 2u);

  s.disable_trace();
  EXPECT_EQ(s.trace(), nullptr);
  ASSERT_TRUE(s.execute(p).status.ok());  // runs fine with no recorder

  s.enable_trace(8);  // a fresh recorder, empty again
  EXPECT_EQ(s.trace()->capacity(), 8u);
  EXPECT_EQ(s.trace()->total_recorded(), 0u);
}

TEST(Session, SurfacesTypedCodesPerFailureMode) {
  Session s(small_profile());  // B3: VPPmin 1.6V

  auto out_of_range = s.set_vpp(9.0);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.error().code, common::ErrorCode::kVppOutOfRange);

  auto unresponsive = s.set_vpp(1.5);  // in instrument range, below VPPmin
  ASSERT_FALSE(unresponsive.ok());
  EXPECT_EQ(unresponsive.error().code,
            common::ErrorCode::kModuleUnresponsive);
  EXPECT_EQ(unresponsive.error().context.module, "B3");
  EXPECT_EQ(unresponsive.error().context.vpp_mv, 1500);

  ASSERT_TRUE(s.set_vpp(2.5).ok());  // recover for the next probes

  auto bad_image = s.init_row(0, 1, std::vector<std::uint8_t>(16, 0xFF));
  ASSERT_FALSE(bad_image.ok());
  EXPECT_EQ(bad_image.error().code, common::ErrorCode::kBadRowImage);
  EXPECT_EQ(bad_image.error().context.module, "B3");

  Program p(s.timing());
  p.rd(0, 0);  // read with no open row
  const auto result = s.execute(p);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.error().code, common::ErrorCode::kDeviceProtocol);
}

}  // namespace
}  // namespace vppstudy::softmc
