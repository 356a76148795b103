#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "common/json.hpp"
#include "metrics.hpp"

namespace e2ebench {

namespace {

/// The innermost open span of this thread: the parent of the next one.
thread_local std::uint64_t t_current = 0;
thread_local std::uint64_t t_request = 0;

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

}  // namespace

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_s = now_s();
  span.parent = t_current;
  span.request = request != 0 ? request : t_request;
  span.thread = thread_tag();
  std::lock_guard lock(mu_);
  if (origin_s_ < 0.0) origin_s_ = span.start_s;
  span.id = spans_.size() + 1;
  spans_.push_back(span);
  return span.id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  const double end = now_s();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_s = end;
}

void Tracer::add_estimate(Estimate estimate) {
  std::lock_guard lock(mu_);
  estimates_.push_back(std::move(estimate));
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<LayerRow> Tracer::layer_table() const {
  std::lock_guard lock(mu_);
  // Children of every span, to compute covered time.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent - 1].push_back(i);
  }
  struct Acc {
    std::string parent;
    std::vector<double> durations_ms;
    double self_ms = 0.0;
  };
  std::map<std::string, Acc> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = std::max(0.0, s.end_s - s.start_s);
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> cover;
    for (const std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start_s, s.start_s),
                         std::min(spans_[c].end_s, s.end_s));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [b, e] : cover) {
      const double from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    Acc& acc = by_name[s.name];
    if (s.parent != 0) acc.parent = spans_[s.parent - 1].name;
    acc.durations_ms.push_back(dur * 1e3);
    acc.self_ms += (dur - covered) * 1e3;
  }
  std::vector<LayerRow> rows;
  for (auto& [name, acc] : by_name) {
    LayerRow row;
    row.name = name;
    row.parent = acc.parent;
    row.count = acc.durations_ms.size();
    for (const double d : acc.durations_ms) row.total_ms += d;
    row.p50_ms = percentile(acc.durations_ms, 50.0);
    row.p99_ms = percentile(acc.durations_ms, 99.0);
    row.self_ms = acc.self_ms;
    rows.push_back(std::move(row));
  }
  for (const Estimate& e : estimates_) {
    LayerRow row;
    row.name = e.name;
    row.parent = e.parent;
    row.count = e.count;
    row.total_ms = e.total_ms;
    const double per_call =
        e.count == 0 ? 0.0 : e.total_ms / static_cast<double>(e.count);
    row.p50_ms = per_call;
    row.p99_ms = per_call;
    row.self_ms = e.total_ms;
    row.estimated = true;
    rows.push_back(std::move(row));
  }
  // An estimated child's time comes out of its parent's self time.
  for (const LayerRow& child : std::vector<LayerRow>(rows)) {
    if (!child.estimated) continue;
    for (LayerRow& parent : rows) {
      if (parent.name == child.parent) {
        parent.self_ms = std::max(0.0, parent.self_ms - child.total_ms);
      }
    }
  }
  return rows;
}

std::string Tracer::chrome_trace_json(std::uint32_t max_request) const {
  std::lock_guard lock(mu_);
  vppstudy::common::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const Span& s : spans_) {
    if ((s.request & 0xffffffffu) > max_request) continue;
    w.begin_object()
        .kv("name", s.name)
        .kv("ph", "X")
        .kv("ts", (s.start_s - origin_s_) * 1e6)
        .kv("dur", std::max(0.0, s.end_s - s.start_s) * 1e6)
        .kv("pid", std::uint64_t{1})
        .kv("tid", s.thread);
    w.key("args")
        .begin_object()
        .kv("id", s.id)
        .kv("parent", s.parent)
        .kv("request", s.request)
        .end_object();
    w.end_object();
  }
  w.end_array().kv("displayTimeUnit", "ms").end_object();
  return w.str();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  parent_ = t_current;
  outer_request_ = t_request;
  id_ = t.open(name, request);
  t_current = id_;
  if (request != 0) t_request = request;
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  tracer().close(id_);
  t_current = parent_;
  t_request = outer_request_;
}

std::string format_layer_table(const std::vector<LayerRow>& rows) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %-22s %9s %12s %10s %10s %12s\n",
                "span", "parent", "count", "total_ms", "p50_ms", "p99_ms",
                "self_ms");
  out += line;
  for (const LayerRow& r : rows) {
    std::string name = r.estimated ? r.name + " (est)" : r.name;
    std::snprintf(line, sizeof(line),
                  "%-28s %-22s %9llu %12.3f %10.4f %10.4f %12.3f\n",
                  name.c_str(), r.parent.empty() ? "-" : r.parent.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_ms,
                  r.p50_ms, r.p99_ms, r.self_ms);
    out += line;
  }
  return out;
}

}  // namespace e2ebench
