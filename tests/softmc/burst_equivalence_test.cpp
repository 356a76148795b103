// Burst equivalence: a row-granularity RD/WR burst (Program::rd_burst /
// wr_burst) must be indistinguishable from the loop of single-column rd()/
// wr() commands it stands for. Each case runs the per-column program and
// the burst program on two fresh sessions and compares everything a caller
// can observe: read bytes, status code and rendering, command clock, device
// stats, command counters (simulated_ns bit-exact), the timing-violation
// log, the trace ring and its dump JSON, and -- under a fault injector --
// the injection log. The cases cover the fast path (nominal timing), the
// per-column sensing path (violating first tRCD at reduced VPP), and every
// fallback: device rejections and installed interceptors.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chips/module_db.hpp"
#include "common/error.hpp"
#include "dram/data_pattern.hpp"
#include "dram/types.hpp"
#include "softmc/counters.hpp"
#include "softmc/fault_injector.hpp"
#include "softmc/row_ops.hpp"
#include "softmc/session.hpp"
#include "softmc/trace_dump.hpp"

namespace vppstudy::softmc {
namespace {

constexpr std::uint32_t kBank = 1;
constexpr std::uint32_t kRow = 700;

dram::ModuleProfile small_profile() {
  auto p = chips::profile_by_name("B3").value();
  p.rows_per_bank = 4096;
  return p;
}

std::vector<std::uint8_t> test_image() {
  return dram::pattern_row(dram::DataPattern::kCheckerAA, dram::kBytesPerRow);
}

/// Builds the RD/WR columns of a program either as one burst or as the
/// equivalent loop of single-column commands.
struct Builder {
  bool burst = false;

  void write(Program& p, std::uint32_t first,
             std::span<const std::uint8_t> bytes, double first_delay_ns,
             double spacing_ns) const {
    if (burst) {
      p.wr_burst(kBank, first, bytes, first_delay_ns, spacing_ns);
      return;
    }
    const std::size_t n = bytes.size() / dram::kBytesPerColumn;
    for (std::uint32_t c = 0; c < n; ++c) {
      std::array<std::uint8_t, dram::kBytesPerColumn> word{};
      std::copy_n(bytes.begin() + c * dram::kBytesPerColumn,
                  dram::kBytesPerColumn, word.begin());
      p.wr(kBank, first + c, word, c == 0 ? first_delay_ns : spacing_ns);
    }
  }

  void read(Program& p, std::uint32_t first, std::uint32_t n,
            double first_delay_ns, double spacing_ns) const {
    if (burst) {
      p.rd_burst(kBank, first, n, first_delay_ns, spacing_ns);
      return;
    }
    for (std::uint32_t c = 0; c < n; ++c) {
      p.rd(kBank, first + c, c == 0 ? first_delay_ns : spacing_ns);
    }
  }
};

/// Everything a caller can observe after running a scenario.
struct Outcome {
  std::vector<std::array<std::uint8_t, dram::kBytesPerColumn>> reads;
  std::vector<std::string> statuses;  ///< "ok" or code + to_string per run
  double clock_ns = 0.0;
  dram::ModuleStats stats;
  CommandCounts counts;
  std::vector<TimingViolation> violations;
  std::vector<TraceEntry> trace;
  std::string dump_json;
  std::vector<FaultInjector::InjectionEvent> injections;
};

struct Scenario {
  std::optional<double> vpp;  ///< rail setting before the programs run
  std::string fault_plan;     ///< empty: no injector
  /// The programs, run in order through Session::execute.
  std::function<std::vector<Program>(const Builder&, const dram::Ddr4Timing&)>
      programs;
};

Outcome run(const Scenario& scenario, bool burst) {
  Session s(small_profile());
  if (scenario.vpp) (void)s.set_vpp(*scenario.vpp);
  s.enable_trace(8192);
  std::optional<FaultInjector> injector;
  if (!scenario.fault_plan.empty()) {
    injector.emplace(FaultPlan::parse(scenario.fault_plan).value());
    s.set_fault_injector(&*injector);
  }
  Outcome out;
  std::optional<common::Error> failure;
  for (const Program& p : scenario.programs(Builder{burst}, s.timing())) {
    ExecutionResult r = s.execute(p);
    out.reads.insert(out.reads.end(), r.reads.begin(), r.reads.end());
    if (r.status.ok()) {
      out.statuses.push_back("ok");
    } else {
      failure = r.status.error();
      out.statuses.push_back(
          std::to_string(static_cast<int>(r.status.error().code)) + " " +
          r.status.error().to_string());
    }
  }
  out.clock_ns = s.clock_ns();
  out.stats = s.module().stats();
  out.counts = s.counters();
  out.violations = s.violations();
  out.trace = s.trace()->entries();
  out.dump_json =
      trace_dump_json(capture_trace_dump(s, failure ? &*failure : nullptr))
          .str();
  if (injector) out.injections = injector->log();
  s.set_fault_injector(nullptr);
  return out;
}

void expect_equivalent(const Scenario& scenario) {
  const Outcome column = run(scenario, /*burst=*/false);
  const Outcome burst = run(scenario, /*burst=*/true);
  EXPECT_EQ(column.reads, burst.reads);
  EXPECT_EQ(column.statuses, burst.statuses);
  EXPECT_EQ(column.clock_ns, burst.clock_ns);  // bit-exact
  EXPECT_EQ(column.stats, burst.stats);
  EXPECT_EQ(column.counts, burst.counts);      // simulated_ns bit-exact
  ASSERT_EQ(column.violations.size(), burst.violations.size());
  for (std::size_t i = 0; i < column.violations.size(); ++i) {
    const TimingViolation& a = column.violations[i];
    const TimingViolation& b = burst.violations[i];
    EXPECT_EQ(a.rule, b.rule) << i;
    EXPECT_EQ(a.bank, b.bank) << i;
    EXPECT_EQ(a.required_ns, b.required_ns) << i;
    EXPECT_EQ(a.actual_ns, b.actual_ns) << i;
    EXPECT_EQ(a.at_ns, b.at_ns) << i;
  }
  EXPECT_EQ(column.trace, burst.trace);
  EXPECT_EQ(column.dump_json, burst.dump_json);
  EXPECT_EQ(column.injections, burst.injections);
}

/// ACT + full-row write + PRE, then ACT + full-row read at `read_trcd_ns`
/// + PRE: the shape of RowOps::init_row / read_row.
Scenario init_and_read(double read_trcd_ns) {
  Scenario sc;
  sc.programs = [read_trcd_ns](const Builder& b, const dram::Ddr4Timing& t) {
    const RowOps ops(t);
    const double spacing = ops.column_spacing_ns();
    const auto image = test_image();
    std::vector<Program> ps;
    Program& w = ps.emplace_back(t);
    w.act(kBank, kRow);
    b.write(w, 0, image, t.t_rcd_ns, spacing);
    w.pre(kBank, t.t_wr_ns + spacing);
    Program& r = ps.emplace_back(t);
    r.act(kBank, kRow);
    b.read(r, 0, dram::kColumnsPerRow, read_trcd_ns, spacing);
    r.pre(kBank, t.t_rtp_ns);
    return ps;
  };
  return sc;
}

TEST(BurstEquivalence, NominalInitAndRead) {
  const Scenario sc = init_and_read(13.5);
  expect_equivalent(sc);
  const Outcome burst = run(sc, /*burst=*/true);
  EXPECT_EQ(burst.reads.size(), dram::kColumnsPerRow);
  EXPECT_EQ(burst.counts.writes, dram::kColumnsPerRow);
  EXPECT_EQ(burst.counts.reads, dram::kColumnsPerRow);
  EXPECT_TRUE(burst.violations.empty());
}

TEST(BurstEquivalence, RowOpsBuildTheBurstPrograms) {
  // RowOps' row programs are the burst side of the nominal case.
  Session column(small_profile());
  Session burst(small_profile());
  const auto image = test_image();
  Program w(column.timing());
  const RowOps ops(column.timing());
  const double spacing = ops.column_spacing_ns();
  w.act(kBank, kRow);
  Builder{false}.write(w, 0, image, column.timing().t_rcd_ns, spacing);
  w.pre(kBank, column.timing().t_wr_ns + spacing);
  ASSERT_TRUE(column.execute(w).status.ok());
  ASSERT_TRUE(burst.init_row(kBank, kRow, image).ok());
  Program r(column.timing());
  r.act(kBank, kRow);
  Builder{false}.read(r, 0, dram::kColumnsPerRow, 20.0, spacing);
  r.pre(kBank, column.timing().t_rtp_ns);
  const auto column_reads = column.execute(r).reads;
  const auto burst_row = burst.read_row(kBank, kRow, 20.0);
  ASSERT_TRUE(burst_row.has_value());
  ASSERT_EQ(column_reads.size(), dram::kColumnsPerRow);
  for (std::uint32_t c = 0; c < dram::kColumnsPerRow; ++c) {
    ASSERT_TRUE(std::equal(column_reads[c].begin(), column_reads[c].end(),
                           burst_row->begin() + c * dram::kBytesPerColumn))
        << c;
  }
  EXPECT_EQ(column.clock_ns(), burst.clock_ns());
  EXPECT_EQ(column.counters(), burst.counters());
  EXPECT_EQ(column.module().stats(), burst.module().stats());
}

TEST(BurstEquivalence, ViolatingFirstTrcdAtReducedVpp) {
  // A 3 ns first tRCD at reduced VPP: the leading columns violate tRCD
  // (the checker's prefix loop) and sense through sense_column.
  Scenario sc = init_and_read(3.0);
  sc.vpp = 1.7;
  expect_equivalent(sc);
  const Outcome burst = run(sc, /*burst=*/true);
  EXPECT_GT(burst.violations.size(), 1u);
  EXPECT_GT(burst.stats.trcd_read_errors, 0u);
}

TEST(BurstEquivalence, ReadAndWriteToClosedBank) {
  for (const bool write : {false, true}) {
    Scenario sc;
    sc.programs = [write](const Builder& b, const dram::Ddr4Timing& t) {
      std::vector<Program> ps;
      Program& p = ps.emplace_back(t);
      if (write) {
        b.write(p, 0, test_image(), t.t_rcd_ns, 4 * t.t_ck_ns);
      } else {
        b.read(p, 0, dram::kColumnsPerRow, t.t_rcd_ns, 4 * t.t_ck_ns);
      }
      return ps;
    };
    expect_equivalent(sc);
    const Outcome burst = run(sc, /*burst=*/true);
    ASSERT_EQ(burst.statuses.size(), 1u);
    EXPECT_NE(burst.statuses[0].find(std::to_string(static_cast<int>(
                  common::ErrorCode::kDeviceProtocol))),
              std::string::npos)
        << burst.statuses[0];
  }
}

TEST(BurstEquivalence, ModuleBelowVppMin) {
  const double below = small_profile().vppmin_v - 0.1;
  for (const bool write : {false, true}) {
    Scenario sc;
    sc.vpp = below;
    sc.programs = [write](const Builder& b, const dram::Ddr4Timing& t) {
      std::vector<Program> ps;
      Program& p = ps.emplace_back(t);
      if (write) {
        b.write(p, 0, test_image(), t.t_rcd_ns, 4 * t.t_ck_ns);
      } else {
        b.read(p, 0, dram::kColumnsPerRow, t.t_rcd_ns, 4 * t.t_ck_ns);
      }
      return ps;
    };
    expect_equivalent(sc);
    const Outcome burst = run(sc, /*burst=*/true);
    EXPECT_EQ(burst.statuses[0].rfind(
                  std::to_string(static_cast<int>(
                      common::ErrorCode::kModuleUnresponsive)) + " ",
                  0),
              0u)
        << burst.statuses[0];
  }
}

TEST(BurstEquivalence, BurstRunningOffTheRowLandsItsPrefix) {
  // Columns 1000..1099: 24 land, then column 1024 is kInvalidArgument --
  // exactly as the per-column program fails.
  for (const bool write : {false, true}) {
    Scenario sc;
    sc.programs = [write](const Builder& b, const dram::Ddr4Timing& t) {
      const std::vector<std::uint8_t> bytes(100 * dram::kBytesPerColumn, 0x5a);
      std::vector<Program> ps;
      Program& p = ps.emplace_back(t);
      p.act(kBank, kRow);
      if (write) {
        b.write(p, 1000, bytes, t.t_rcd_ns, 4 * t.t_ck_ns);
      } else {
        b.read(p, 1000, 100, t.t_rcd_ns, 4 * t.t_ck_ns);
      }
      p.pre(kBank);
      return ps;
    };
    expect_equivalent(sc);
    const Outcome burst = run(sc, /*burst=*/true);
    EXPECT_EQ(burst.stats.writes + burst.stats.reads, 24u);
    EXPECT_EQ(burst.reads.size(), write ? 0u : 24u);
    EXPECT_EQ(burst.statuses[0].rfind(
                  std::to_string(static_cast<int>(
                      common::ErrorCode::kInvalidArgument)) + " ",
                  0),
              0u)
        << burst.statuses[0];
  }
}

TEST(BurstEquivalence, FaultInjectorPlansReplayPerColumn) {
  // Command indices count columns: index 0 is the first ACT, 1..1024 the
  // writes, 1025 the PRE, 1026 the second ACT, 1027.. the reads.
  for (const char* plan :
       {"seed=5;drop_read=0.01", "seed=5;flip_read=0.02,bits=3",
        "seed=5;delay_pre@1025,ns=12", "seed=5;spurious@500",
        "seed=5;spurious@1500,code=kDeviceProtocol"}) {
    Scenario sc = init_and_read(13.5);
    sc.fault_plan = plan;
    SCOPED_TRACE(plan);
    expect_equivalent(sc);
    EXPECT_FALSE(run(sc, /*burst=*/true).injections.empty());
  }
}

}  // namespace
}  // namespace vppstudy::softmc
