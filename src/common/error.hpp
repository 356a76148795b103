// Typed error for the whole stack. Every fallible layer (softmc rig, dram
// device model, harness, core sweep engine) reports failures as an Error:
// a machine-readable ErrorCode plus structured context (module name,
// bank/row, VPP in millivolts, command kind) and a breadcrumb chain added
// via with_context() as the error propagates upward. By the time a failure
// surfaces in core::CampaignEngine we still know which module, VPP level,
// and command produced it -- the paper's methodology depends on the host
// software being able to attribute every failure (sections 4.1-4.3).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace vppstudy::common {

/// Machine-readable failure taxonomy. Codes survive every re-wrap: layers
/// add context, they never replace the code (except kUnknown, which any
/// layer may refine).
enum class ErrorCode : std::uint8_t {
  kUnknown = 0,
  /// Caller passed an out-of-range bank/row/column or malformed argument.
  kInvalidArgument,
  /// Requested VPP is outside the bench supply's output range (section 4.1).
  kVppOutOfRange,
  /// The module stopped communicating -- VPP below VPPmin (section 7).
  kModuleUnresponsive,
  /// The thermal chamber failed to settle at the setpoint.
  kThermalTimeout,
  /// A timing violation that the device cannot survive (reserved for a
  /// future strict-dispatch mode; deliberate violations are observations,
  /// not errors).
  kTimingViolationFatal,
  /// A row image of the wrong size was handed to init_row.
  kBadRowImage,
  /// A row/column readout returned fewer bursts than the program issued.
  kReadUnderrun,
  /// A command sequence the DDR4 state machine rejects (RD with no open
  /// row, REF with open banks, hammer on an open bank, ...).
  kDeviceProtocol,
  /// The circuit solver diverged or hit a singular matrix.
  kSolverDiverged,
  /// A SoftMC program text failed to parse.
  kParseError,
  /// A sweep had no VPP level at or above the module's VPPmin.
  kNoUsableLevels,
  /// Row sampling produced an empty set.
  kEmptySample,
  /// A socket/file operation failed (connect, accept, short read/write).
  kIoError,
  /// A protocol frame declared a length above the server's cap, or a frame
  /// ended mid-payload (src/server/protocol.hpp).
  kFrameTooLarge,
  /// A well-formed request named a type the daemon does not serve.
  kUnknownRequest,
  /// The daemon's bounded job queue is full (backpressure, try again later).
  kQueueFull,
  /// One client exceeded its in-flight request quota.
  kQuotaExceeded,
  /// The request was cancelled before it completed.
  kCancelled,
  /// A campaign shard lease's fencing token is stale: the lease expired and
  /// was re-granted to another worker, so the submission must be dropped
  /// (src/core/campaign_lease.hpp).
  kLeaseExpired,
};

/// Stable short name, e.g. "kVppOutOfRange".
[[nodiscard]] std::string_view error_code_name(ErrorCode code) noexcept;

/// Reverse of error_code_name (used when deserializing trace dumps and
/// fault-plan specs); kUnknown for unrecognized names.
[[nodiscard]] ErrorCode error_code_from_name(std::string_view name) noexcept;

/// Structured context attached to an Error as it crosses layers. Fields are
/// optional: negative numeric values / empty strings mean "not set".
struct ErrorContext {
  std::string module;       ///< module (DIMM) name, e.g. "B3"
  std::string op;           ///< command kind / operation, e.g. "RD", "hammer"
  std::int32_t bank = -1;
  std::int64_t row = -1;
  std::int64_t vpp_mv = -1; ///< VPP setpoint in millivolts
  std::string notes;        ///< breadcrumb chain, outermost first

  [[nodiscard]] bool empty() const noexcept {
    return module.empty() && op.empty() && bank < 0 && row < 0 &&
           vpp_mv < 0 && notes.empty();
  }
};

/// Error payload carried by Expected<T> / Status. `message` stays a public
/// field (a large body of tests and examples reads it directly); rich
/// rendering including code and context lives in to_string().
struct Error {
  Error() = default;
  Error(std::string msg) : message(std::move(msg)) {}  // NOLINT
  Error(const char* msg) : message(msg) {}             // NOLINT
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
  ErrorContext context;

  // --- with_context() chain --------------------------------------------------
  // Chainers take *this by rvalue so propagation sites read as one
  // expression:
  //   return std::move(st).error().with_module(name).with_context("phase B");
  // Existing fields win: an inner layer's module/bank/row is closer to the
  // failure than an outer layer's guess, so chainers only fill blanks.
  Error&& with_context(std::string_view note) &&;
  [[nodiscard]] Error with_context(std::string_view note) const&;
  Error&& with_module(std::string_view name) &&;
  Error&& with_op(std::string_view op) &&;
  Error&& with_bank(std::int32_t bank) &&;
  Error&& with_row(std::int64_t row) &&;
  Error&& with_bank_row(std::int32_t bank, std::int64_t row) &&;
  Error&& with_vpp_mv(std::int64_t vpp_mv) &&;
  /// Refine kUnknown to a concrete code; never overwrites a concrete code.
  Error&& with_code(ErrorCode c) &&;

  /// "[kReadUnderrun] message (module=B3 op=RD bank=0 row=17 vpp=1700mV)
  ///  {ctx: read verification <- phase B}"
  [[nodiscard]] std::string to_string() const;
};

}  // namespace vppstudy::common
