// Span recording, self time, percentiles and the bounded rate search.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t SpanRecorder::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::uint64_t SpanRecorder::begin(const std::string& name, std::uint64_t parent,
                                  std::uint64_t request) {
  const std::int64_t now = ns(Clock::now());
  std::scoped_lock lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint64_t id) {
  const std::int64_t now = ns(Clock::now());
  std::scoped_lock lock(mutex_);
  spans_.at(id - 1).end_ns = now;
}

std::uint64_t SpanRecorder::record(const std::string& name, std::uint64_t parent,
                                   std::uint64_t request, Clock::time_point start,
                                   Clock::time_point end) {
  if (!enabled_) return 0;
  std::scoped_lock lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::scoped_lock lock(mutex_);
  return spans_;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans())
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns << "}\n";
}

namespace {

/// Length of the union of the given intervals (any order).
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open_start = 0, open_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > open_end) {
      if (open) total += open_end - open_start;
      open_start = start;
      open_end = end;
      open = true;
    } else {
      open_end = std::max(open_end, end);
    }
  }
  if (open) total += open_end - open_start;
  return total;
}

}  // namespace

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = index.find(span.parent);
    if (span.parent == 0 || parent == index.end()) continue;
    const Span& p = spans[parent->second];
    const std::int64_t start = std::max(span.start_ns, p.start_ns);
    const std::int64_t end = std::min(span.end_ns, p.end_ns);
    if (end > start) children[parent->second].emplace_back(start, end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t own = spans[i].end_ns - spans[i].start_ns;
    self[i] = static_cast<double>(own - union_length(children[i])) * 1e-9;
  }
  return self;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = fraction * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

bool percentile_supported(std::size_t samples, double fraction, std::size_t beyond) {
  if (samples == 0) return false;
  // Samples above the interpolated value: every index past floor(rank).
  const double rank = fraction * static_cast<double>(samples - 1);
  return samples - 1 - static_cast<std::size_t>(std::floor(rank)) >= beyond;
}

double search_max_rate(const std::function<bool(double)>& ok, double lo, double hi,
                       double resolution, int max_probes, int* probes_used) {
  int probes = 0;
  auto probe = [&](double rate) {
    ++probes;
    return ok(rate);
  };
  double best = 0.0;
  double fail = hi;
  double rate = lo;
  // Doubling phase: find a bracket [best, fail).
  while (probes < max_probes) {
    if (!probe(rate)) {
      fail = rate;
      break;
    }
    best = rate;
    if (rate >= hi) {
      fail = hi;
      break;
    }
    rate = std::min(rate * 2.0, hi);
  }
  // Bisection phase.
  while (probes < max_probes && best > 0.0 && (fail - best) / best > resolution) {
    const double mid = 0.5 * (best + fail);
    if (probe(mid))
      best = mid;
    else
      fail = mid;
  }
  if (probes_used != nullptr) *probes_used = probes;
  return best;
}

}  // namespace perfbench
