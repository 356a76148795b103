// CommandDispatcher: the per-instruction dispatch loop extracted from
// Session::execute. It owns nothing but references -- the device under test
// and the observer list -- and is deliberately dumb: it advances the command
// clock, issues each instruction to the module, and notifies observers. The
// timing checker is the first observer, so every command is timing-checked
// before the device acts on it, exactly as in the pre-refactor monolith; the
// dispatcher must not change command ordering or clock arithmetic (sweep
// output is bit-identical by construction). A row burst (Program::rd_burst /
// wr_burst) is the one exception to check-then-act: it is one device call,
// then one on_burst per observer. It runs column by column instead -- the
// stream an rd()/wr() loop would issue -- when an interceptor is installed
// or the device rejects it.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/expected.hpp"
#include "dram/module.hpp"
#include "softmc/observer.hpp"
#include "softmc/program.hpp"

namespace vppstudy::softmc {

/// Result of executing a Program.
struct ExecutionResult {
  std::vector<std::array<std::uint8_t, dram::kBytesPerColumn>> reads;
  std::size_t timing_violations = 0;
  common::Status status;  ///< first device error aborts execution
};

class CommandDispatcher {
 public:
  /// `violation_log` is the checker's violation vector; the dispatcher
  /// watches it for growth so new violations fan out to observers.
  CommandDispatcher(dram::Module& module,
                    const std::vector<TimingViolation>& violation_log);

  /// Observers are notified in registration order. The timing checker must
  /// be registered first (Session does this) so it sees commands before any
  /// derived metric does. Observers are borrowed, never owned.
  void add_observer(SessionObserver* observer);
  void remove_observer(SessionObserver* observer);

  /// Install (or clear, with nullptr) the active command interceptor. At
  /// most one is consulted; it is borrowed, never owned. With none
  /// installed the dispatch loop is byte-identical to the pre-interceptor
  /// code path (no per-instruction copy).
  void set_interceptor(CommandInterceptor* interceptor) noexcept {
    interceptor_ = interceptor;
  }
  [[nodiscard]] const CommandInterceptor* interceptor() const noexcept {
    return interceptor_;
  }

  /// Execute `program` against the module, advancing `clock_ns` in place.
  [[nodiscard]] ExecutionResult execute(const Program& program,
                                        double& clock_ns);

 private:
  void advance(double& clock_ns, double ns);
  void notify_command(const Instruction& inst, double now_ns);
  /// Fan out violations appended to the log since `watermark`.
  void notify_new_violations(std::size_t watermark);
  /// Issue one instruction to the device (observers notified first). On a
  /// device rejection fills `result.status`, fans out on_error, and returns
  /// false to abort the program.
  bool issue_one(const Instruction& inst, ExecutionResult& result,
                 double& clock_ns);
  /// One single-column (or loop) instruction: consult the interceptor,
  /// advance the clock to its issue time, issue it. Returns false to abort.
  bool step(const Instruction& original, ExecutionResult& result,
            double& clock_ns);
  /// A burst as one device call and one on_burst per observer; falls back
  /// to replay_burst when the device rejects it.
  bool issue_burst(const Instruction& burst,
                   std::span<const std::uint8_t> data,
                   ExecutionResult& result, double& clock_ns);
  /// A burst column by column through step(), exactly as the equivalent
  /// single-column program would run.
  bool replay_burst(const Instruction& burst,
                    std::span<const std::uint8_t> data,
                    ExecutionResult& result, double& clock_ns);

  dram::Module& module_;
  const std::vector<TimingViolation>& violation_log_;
  std::vector<SessionObserver*> observers_;
  CommandInterceptor* interceptor_ = nullptr;
};

}  // namespace vppstudy::softmc
