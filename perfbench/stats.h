// Order statistics and registry-counter deltas for the benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace perfbench {

using zncache::u64;

// Nearest-rank percentile: the smallest sample x such that at least a
// fraction q of the samples are <= x (q in (0, 1]). Reorders `v` partially
// (nth_element); 0 for an empty vector.
template <typename T>
T Percentile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t k = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// The q-quantile (q in [0, 1]), interpolated linearly between the two
// closest ranks; 0 for no values.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Middle value; mean of the two middle values for an even count.
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// Readings of named registry counters at one instant.
using CounterValues = std::map<std::string, u64, std::less<>>;

// Reads each named counter. A name not registered yet reads 0 (and is
// registered, at 0, so later readings see the same set of names).
inline CounterValues ReadCounters(zncache::obs::Registry& reg,
                                  std::span<const std::string> names) {
  CounterValues out;
  for (const std::string& name : names) {
    const zncache::obs::Counter* c = reg.GetCounter(name);
    out[name] = c == nullptr ? 0 : c->value();
  }
  return out;
}

// after - before for every counter in `after` (absent from `before` reads
// as 0). Counters are monotonic, so one that went backwards means it was
// reset between the readings; that is an error, not a huge delta.
inline zncache::Result<CounterValues> CounterDelta(const CounterValues& before,
                                                   const CounterValues& after) {
  CounterValues out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const u64 base = it == before.end() ? 0 : it->second;
    if (value < base) {
      return zncache::Status::Internal("counter " + name + " went backwards");
    }
    out[name] = value - base;
  }
  return out;
}

inline u64 Get(const CounterValues& values, std::string_view name) {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

// Sum of "<prefix><suffix>" over the prefixes (per-shard counters).
inline u64 SumOver(const CounterValues& values,
                   std::span<const std::string> prefixes,
                   std::string_view suffix) {
  u64 total = 0;
  for (const std::string& p : prefixes) {
    total += Get(values, p + std::string(suffix));
  }
  return total;
}

}  // namespace perfbench
