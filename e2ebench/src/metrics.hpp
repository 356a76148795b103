// Sample statistics, request classification and host metadata of the
// end-to-end benchmark. Everything here is host-time bookkeeping; nothing
// feeds back into the program under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Linear-interpolation percentile (numpy's default) of `samples`, `p` in
/// [0, 100]. 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that leaves at least
/// ten of `n` samples beyond it, or 0 when even the median does not (a tail
/// read from fewer samples is a single observation, not a percentile).
[[nodiscard]] double tail_percentile(std::size_t n);

/// A tail reported by the rule above: the percentile chosen, its value and
/// the sample count it was read from.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& samples);

/// How one sweep request ended, as the closed-loop client saw it.
struct RequestOutcome {
  bool ok = false;       ///< a result came back
  bool refused = false;  ///< the queue turned it away (kQueueFull/kQuota)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double latency_ms = 0.0;
};

/// A request is cold when any of its cells missed the result cache: it
/// paid for harness compute, not only framing, codec and cache lookups.
[[nodiscard]] bool is_cold(const RequestOutcome& outcome) noexcept;

/// Latency and failure accounting of a request stream. A refused or failed
/// request counts as failed and misses every latency limit, so it is kept
/// out of the warm/cold latency sets rather than dragging them down.
struct RequestTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t cells = 0;  ///< cells served by successful requests
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;

  void add(const RequestOutcome& outcome);
  void merge(const RequestTally& other);
};

/// CPU time (user + system) of the whole process, in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Monotonic host time in seconds.
[[nodiscard]] double now_s();

/// What a result set needs to be compared with another: two sets are
/// comparable only when their host classes are equal.
struct HostInfo {
  unsigned nproc = 0;
  std::string simd;
  std::string compiler;
  std::string build_type;
  [[nodiscard]] std::string host_class() const;
  [[nodiscard]] std::string json() const;
};
[[nodiscard]] HostInfo host_info();

}  // namespace e2ebench
