// In-memory span recorder of the traced benchmark run.
//
// Spans are opened in the benchmark's own code around each call into a
// layer of the program (no span lives inside the library). Each span keeps
// its name, start, end, the span that caused it and a request id; nothing is
// written until the run ends, when the recorder produces the per-layer
// {count, total, p50, p99, self} table and a Chrome trace-event document
// (opens in Perfetto or chrome://tracing).
//
// When tracing is off a ScopedSpan costs one branch and records nothing, so
// the untraced runs that give the end-to-end metrics carry no recorder work.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this id; its
                              ///< low 32 bits number the request within
                              ///< its connection and round
  std::uint64_t thread = 0;
};

/// A layer cost that the benchmark measured with a probe instead of a span:
/// `count` calls at the probe's per-call cost, attributed under `parent`.
struct Estimate {
  std::string name;
  std::string parent;
  std::uint64_t count = 0;
  double total_ms = 0.0;
};

struct LayerRow {
  std::string name;
  std::string parent;  ///< name of the parent span ("" for roots)
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double self_ms = 0.0;
  bool estimated = false;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Thread-safe; returns the new span id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t request);
  void close(std::uint64_t id);

  void add_estimate(Estimate estimate);

  /// Self time of a measured span: its duration minus the union of the
  /// intervals its children cover. Self time of a span with estimated
  /// children: its duration minus their totals (never below zero).
  [[nodiscard]] std::vector<LayerRow> layer_table() const;
  /// Every span, except those of requests numbered above `max_request`
  /// (a vppd_mix round serves tens of thousands of warm requests; their
  /// spans all count in the layer table but would swamp the trace file).
  [[nodiscard]] std::string chrome_trace_json(std::uint32_t max_request) const;
  [[nodiscard]] std::size_t span_count() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< index = id - 1
  std::vector<Estimate> estimates_;
  double origin_s_ = -1.0;
};

/// The process-wide recorder the benchmark's spans report to.
Tracer& tracer();

/// RAII span. Nested ScopedSpans on one thread become parent and child.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t outer_request_ = 0;
};

/// Render a layer table as aligned text (printed beside the metrics).
[[nodiscard]] std::string format_layer_table(const std::vector<LayerRow>& rows);

}  // namespace e2ebench
