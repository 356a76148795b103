#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/json.hpp"
#include "common/simd.hpp"

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2ebench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100). Compare
    // in integer tenths of a percent so 99.9 does not round the wrong way.
    const auto tenths = static_cast<std::uint64_t>(std::llround(p * 10.0));
    if (static_cast<std::uint64_t>(n) * (1000 - tenths) >= 10 * 1000) {
      return p;
    }
  }
  return 0.0;
}

Tail tail_of(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = tail_percentile(samples.size());
  if (tail.percentile > 0.0) tail.value = percentile(samples, tail.percentile);
  return tail;
}

bool is_cold(const RequestOutcome& outcome) noexcept {
  return outcome.cache_misses > 0;
}

void RequestTally::add(const RequestOutcome& outcome) {
  ++attempted;
  if (!outcome.ok) {
    ++failed;
    if (outcome.refused) ++refused;
    return;
  }
  cells += outcome.cache_hits + outcome.cache_misses;
  hits += outcome.cache_hits;
  misses += outcome.cache_misses;
  (is_cold(outcome) ? cold_ms : warm_ms).push_back(outcome.latency_ms);
}

void RequestTally::merge(const RequestTally& other) {
  attempted += other.attempted;
  failed += other.failed;
  refused += other.refused;
  cells += other.cells;
  hits += other.hits;
  misses += other.misses;
  cold_ms.insert(cold_ms.end(), other.cold_ms.begin(), other.cold_ms.end());
  warm_ms.insert(warm_ms.end(), other.warm_ms.begin(), other.warm_ms.end());
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string HostInfo::host_class() const {
  return "nproc=" + std::to_string(nproc) + " simd=" + simd +
         " compiler=" + compiler + " build=" + build_type;
}

std::string HostInfo::json() const {
  vppstudy::common::JsonWriter w;
  w.begin_object()
      .kv("nproc", static_cast<std::uint64_t>(nproc))
      .kv("simd", simd)
      .kv("compiler", compiler)
      .kv("build_type", build_type)
      .kv("host_class", host_class())
      .end_object();
  return w.str();
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = std::thread::hardware_concurrency();
  info.simd = vppstudy::common::simd::active_impl_name();
  info.compiler = E2EBENCH_COMPILER;
  info.build_type = E2EBENCH_BUILD_TYPE;
  return info;
}

}  // namespace e2ebench
