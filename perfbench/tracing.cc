#include "tracing.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr const char* kNames[kSpanNameCount] = {
    "cache.get",          "cache.set",        "cache.delete",
    "backend.write",      "backend.submit",   "backend.complete",
    "backend.read",       "backend.invalidate", "backend.pump",
};

constexpr const char* kColumns =
    "thread\tspan\tparent\tname\tstart_ns\tend_ns\tbytes";

}  // namespace

const char* SpanNameStr(SpanName n) { return kNames[static_cast<size_t>(n)]; }

void RebuildFrontEnd(zncache::backends::ShardedSchemeInstance& scheme,
                     const zncache::backends::SchemeParams& params,
                     zncache::cache::RegionDevice* device,
                     zncache::sim::VirtualClock* clock) {
  zncache::cache::ShardedCacheConfig cc;
  cc.shards = params.shards == 0 ? 1 : params.shards;
  cc.engine = params.cache_config;
  cc.engine.store_values = params.store_data || params.persistent;
  cc.engine.persistent = params.persistent;
  cc.engine.metrics = params.metrics;
  cc.engine.tracer = params.tracer;
  cc.engine.attribution = params.attribution;
  scheme.cache.reset();
  scheme.cache =
      std::make_unique<zncache::cache::ShardedCache>(cc, device, clock);
}

std::vector<SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<u64, u64> child_ns;  // parent id -> time children cover
  child_ns.reserve(spans.size());
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<SpanTotals> out(kSpanNameCount);
  for (const Span& s : spans) {
    SpanTotals& t = out[static_cast<size_t>(s.name)];
    const u64 dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const u64 children = it == child_ns.end() ? 0 : it->second;
    t.calls++;
    t.total_ns += dur;
    t.self_ns += children < dur ? dur - children : 0;
    t.bytes += s.bytes;
  }
  return out;
}

zncache::Status WriteTrace(const std::string& path, const std::string& header,
                           u64 epoch_ns,
                           const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return zncache::Status::Unavailable("cannot write " + path);
  std::fprintf(f, "# %s\n%s\n", header.c_str(), kColumns);
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      std::fprintf(f, "%u\t%llu\t%llu\t%s\t%llu\t%llu\t%llu\n", s.thread,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   SpanNameStr(s.name),
                   static_cast<unsigned long long>(s.start_ns - epoch_ns),
                   static_cast<unsigned long long>(s.end_ns - epoch_ns),
                   static_cast<unsigned long long>(s.bytes));
    }
  }
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return zncache::Status::Unavailable("short write to " + path);
  }
  return zncache::Status::Ok();
}

zncache::Result<std::vector<Span>> ReadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return zncache::Status::Unavailable("cannot read " + path);
  std::unordered_map<std::string, SpanName> by_name;
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    by_name[kNames[i]] = static_cast<SpanName>(i);
  }
  std::vector<Span> spans;
  std::string line;
  if (!std::getline(in, line) || line.rfind("# ", 0) != 0 ||
      !std::getline(in, line) || line != kColumns) {
    return zncache::Status::Corruption(path + ": not a perfbench trace");
  }
  while (std::getline(in, line)) {
    std::istringstream cols(line);
    Span s;
    std::string name;
    if (!(cols >> s.thread >> s.id >> s.parent >> name >> s.start_ns >>
          s.end_ns >> s.bytes)) {
      return zncache::Status::Corruption(path + ": bad line: " + line);
    }
    auto it = by_name.find(name);
    if (it == by_name.end() || s.end_ns < s.start_ns) {
      return zncache::Status::Corruption(path + ": bad span: " + line);
    }
    s.name = it->second;
    spans.push_back(s);
  }
  return spans;
}

}  // namespace perfbench
