// perfbench: steady-state benchmark of the sharded cache front-end over the
// real scheme stacks (backends::MakeShardedScheme with payload bytes
// stored), timed from outside around the public ShardedCache calls.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload with a TimingDevice between ShardedCache and the scheme's
// device, records spans, and reports the per-layer metrics. Every run
// checks every Get hit byte for byte, checks the harness's op counts
// against the engine stats and the registry counters, and asserts the
// workload's regime; the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "backends/schemes.h"
#include "cache/sharded_cache.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/optimeline.h"
#include "obs/trace.h"
#include "stats.h"
#include "tracing.h"
#include "workload/cachebench.h"
#include "workload/scenario.h"
#include "workload/scenario_catalog.h"

namespace perfbench {
namespace {

using zncache::kKiB;
using zncache::kMiB;
using zncache::Result;
using zncache::Rng;
using zncache::SimNanos;
using zncache::Status;
using zncache::u32;
using zncache::backends::SchemeKind;
using zncache::backends::SchemeParams;
using zncache::cache::OpResult;
using zncache::cache::ShardedCache;
namespace obs = zncache::obs;
namespace sim = zncache::sim;
namespace workload = zncache::workload;

// --- workloads ----------------------------------------------------------

enum class Loop { kClosed, kOpenVirtual };

struct Workload {
  const char* name;
  SchemeKind scheme;
  Loop loop;
  u32 clients;
  u32 shards;
  double get_frac;        // closed loops; delete = 1 - get - set
  double set_frac;
  double key_bytes_x;     // key-space bytes / Region-Cache cache bytes
  // Closed loops: the v* metrics come from the one-client probe
  // (kProbeOps) rather than from the measured phase's shared clock.
  bool probe_virtual;
  const char* why;
};

// The closed loops run 2 clients over 4 shards on a 4-core host shared with
// other tenants. With a client on every core, one busy core elsewhere moved
// Zone-Cache get p99 by +59% and throughput by -17%. With 3 clients, whole
// runs lost a quarter of their throughput while a neighbour held a core:
// over 5 seeds zone_mixed's ops/s and get p99 spread by 0.24 and 0.29 of
// their medians (quartile distance), against 0.06 and 0.07 with 2 clients.
//
// zone_mixed takes no probe: one client alone on Zone-Cache pays only the
// buffer copy on a set (1 set in about 5000 flushes a zone), so the probe's
// vset p50 and p99 are the copy costs of fixed sizes: 0.78 and 1.58 us on
// every seed tried.
constexpr Workload kWorkloads[] = {
    {"mixed", SchemeKind::kRegion, Loop::kClosed, 2, 4, 0.50, 0.30, 2.0, true,
     "write path: region seal/flush under the shard lock, ZTL writes, GC "
     "migration, zone resets"},
    {"readmostly", SchemeKind::kRegion, Loop::kClosed, 2, 4, 0.95, 0.05, 0.4,
     true,
     "read path: lock-free Get, index lookup, ZTL seqlock read, device read"},
    {"zone_mixed", SchemeKind::kZone, Loop::kClosed, 2, 4, 0.50, 0.30, 2.0,
     false,
     "Zone-Cache: zone-sized flush under the shard lock and zone resets, no "
     "ZTL"},
    {"scenario_serial", SchemeKind::kRegion, Loop::kOpenVirtual, 1, 1, 0, 0, 0,
     false,
     "open loop in virtual time: exact virtual latency, admission, TTL, scan"},
};

// Closed-loop geometry: the bench_mt device (64 MiB zones, 1 MiB regions,
// 4 channels x 2 planes). Region-Cache caches 20 zones on a 26-zone device
// (the 4 shards open one zone each, plus the GC reserve); Zone-Cache caches
// all 25 zones of its device.
constexpr u64 kZoneSize = 64 * kMiB;
constexpr u64 kRegionSize = 1 * kMiB;
constexpr u64 kRegionCacheZones = 20;
constexpr u64 kRegionDeviceZones = 26;
constexpr u64 kZoneCacheZones = 25;
constexpr u32 kChannels = 4;
constexpr u32 kPlanes = 2;
constexpr u32 kUnits = kChannels * kPlanes;
constexpr u64 kValueMin = 4 * kKiB;
constexpr u64 kValueMax = 32 * kKiB;
constexpr double kZipfTheta = 0.85;

// Open-loop geometry: the bench_scenarios cache (4 MiB zones, 512 KiB
// regions, 48 MiB), on a 16-zone device with the same 4x2 topology.
constexpr u64 kScnZoneSize = 4 * kMiB;
constexpr u64 kScnRegionSize = 512 * kKiB;
constexpr u64 kScnCacheBytes = 48 * kMiB;
constexpr u64 kScnDeviceZones = kScnCacheBytes / kScnZoneSize + 4;
// One pass replays cdn_mix scaled by kScnScale: its first kScnWarmOps ops
// are the warm-up (set-up), the rest are measured and write >= 5x the
// cache. The device keeps little slack past the cache, so GC migrates.
constexpr double kScnScale = 3.0;
constexpr u64 kScnWarmOps = 30'000;
constexpr double kScnMinWriteX = 5.0;

// Set-up: fresh scheme; one set-only sweep writes every key; set-only Zipf
// writes continue until the device has reset as many zones as it has (every
// zone recycled once, so free zones have run out and GC, if the scheme has
// one, is in its steady regime); then kSettleOps ops of the workload's own
// mix. kSetups set-ups per end-to-end run (median).
constexpr double kWarmLimitSec = 60;
constexpr u64 kSettleOps = 200'000;
constexpr int kSetups = 3;

// Measured phase: windows of kWindowSec; in a traced run windows alternate
// untraced / traced, and one op in kSampleEvery of a traced window records
// its spans.
constexpr double kWindowSec = 0.5;
constexpr u64 kSampleEvery = 8;

// Wall-clock figures are taken over the windows (open loop: passes) at the
// quartile on the fast side: ops_per_s at the upper quartile, CPU per op and
// each window's latency percentile at the lower one. Load from outside the
// process only slows a window down, and it came in episodes of seconds
// (zone_mixed: 6 windows in a row 25% slower, p99 up by a third), which
// move a median once they cover half the run. The program's own stalls
// (flushes, GC) recur in every window; the open loop's passes replay the
// same ops.
constexpr double kFastQuartile = 0.25;

// Closed-loop virtual latency (Workload::probe_virtual): between set-up
// and the measured phase one client alone runs kProbeOps ops of the
// workload's mix on the measured stack, in kProbeWindows windows, so each
// op's virtual latency is its own. In the measured phase several clients
// share one virtual clock, and an op's virtual latency takes in the device
// time the other clients charged meanwhile, which follows how the host
// schedules the threads: readmostly's vget p999 there moved by a quarter
// between runs of one build. 10k-op windows hold at least 1000 samples
// (ten beyond p99) of each kind, except readmostly's sets (pooled).
constexpr u64 kProbeOps = 160'000;
constexpr u64 kProbeWindows = 16;

constexpr size_t kPoolOffsets = 1 << 20;

// --- values: a pure function of (seed, key) -------------------------------
//
// A key's value is the slice pool[offset(key), offset(key) + size(key)) of a
// seeded random byte pool. Sets pass the slice without copying; a Get hit
// must equal it byte for byte and in length.
class Values {
 public:
  Values(u64 seed, u64 max_size) : seed_(seed), pool_(kPoolOffsets + max_size) {
    Rng rng(seed ^ 0x5EEDBA5Eull);
    for (size_t i = 0; i < pool_.size(); i += 8) {
      const u64 w = rng.Next();
      std::memcpy(pool_.data() + i, &w, std::min<size_t>(8, pool_.size() - i));
    }
  }

  std::string_view Value(u64 key, u64 size) const {
    return std::string_view(pool_.data() + Offset(key), size);
  }
  bool Matches(u64 key, u64 size, const std::string& got) const {
    return got.size() == size &&
           std::memcmp(got.data(), pool_.data() + Offset(key), size) == 0;
  }
  // Closed loops: log-uniform in [kValueMin, kValueMax] per key.
  u64 LogUniformSize(u64 key) const {
    const double u = static_cast<double>(Mix(key * 2 + 1) >> 11) * 0x1.0p-53;
    return static_cast<u64>(static_cast<double>(kValueMin) *
                            std::pow(static_cast<double>(kValueMax) /
                                         static_cast<double>(kValueMin),
                                     u));
  }

 private:
  u64 Mix(u64 x) const {
    u64 z = x + seed_ * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Offset(u64 key) const { return Mix(key * 2) % kPoolOffsets; }

  u64 seed_;
  std::vector<char> pool_;
};

double MeanLogUniform() {  // mean value size, bytes
  const double lo = static_cast<double>(kValueMin);
  const double hi = static_cast<double>(kValueMax);
  return (hi - lo) / std::log(hi / lo);
}

// --- the stack under test -------------------------------------------------

// Members are declared in dependency order: the scheme (front-end, then
// device) is destroyed first, the registry it reports into last.
struct Stack {
  obs::Registry registry;
  obs::Tracer tracer;
  sim::VirtualClock clock;
  std::unique_ptr<obs::OpAttribution> attribution;  // traced runs
  std::unique_ptr<TimingDevice> timing;             // traced runs
  zncache::backends::ShardedSchemeInstance scheme;
  std::vector<std::string> shard_prefixes;  // "cache.s<i>." or "cache."

  ShardedCache& cache() { return *scheme.cache; }
};

SchemeParams ParamsFor(const Workload& wl, u64 key_space,
                       const workload::ScenarioSpec* spec) {
  SchemeParams p;
  p.store_data = true;
  p.topology.channels = kChannels;
  p.topology.planes_per_channel = kPlanes;
  p.topology.queue_depth = wl.shards;
  p.min_empty_zones = 2;
  p.shards = wl.shards;
  p.cache_config.policy = zncache::cache::EvictionPolicy::kLru;
  p.cache_config.lru_sample = 512;
  p.cache_config.index_reserve = key_space;
  if (spec != nullptr) {
    p.zone_size = kScnZoneSize;
    p.region_size = kScnRegionSize;
    p.cache_bytes = kScnCacheBytes;
    p.device_zones = kScnDeviceZones;
    p.cache_config.doorkeeper_bits = spec->admission_doorkeeper_bits;
    p.cache_config.doorkeeper_rotate_ns = spec->admission_rotate_ns;
    p.cache_config.admit_max_size = spec->admission_max_size;
    return p;
  }
  p.zone_size = kZoneSize;
  p.region_size = kRegionSize;
  if (wl.scheme == SchemeKind::kZone) {
    p.cache_bytes = kZoneCacheZones * kZoneSize;
  } else {
    p.cache_bytes = kRegionCacheZones * kZoneSize;
    p.device_zones = kRegionDeviceZones;
  }
  return p;
}

Result<std::unique_ptr<Stack>> BuildStack(const Workload& wl, u64 key_space,
                                          const workload::ScenarioSpec* spec,
                                          bool traced) {
  auto s = std::make_unique<Stack>();
  SchemeParams p = ParamsFor(wl, key_space, spec);
  p.metrics = &s->registry;
  p.tracer = &s->tracer;
  if (traced) {
    s->attribution = std::make_unique<obs::OpAttribution>();
    p.attribution = s->attribution.get();
  }
  auto scheme = zncache::backends::MakeShardedScheme(wl.scheme, p, &s->clock);
  if (!scheme.ok()) return scheme.status();
  s->scheme = std::move(*scheme);
  if (traced) {
    s->timing = std::make_unique<TimingDevice>(s->scheme.device.get());
    RebuildFrontEnd(s->scheme, p, s->timing.get(), &s->clock);
  }
  const u32 shards = s->scheme.cache->shard_count();
  for (u32 i = 0; i < shards; ++i) {
    s->shard_prefixes.push_back(shards == 1 ? "cache."
                                            : "cache.s" + std::to_string(i) +
                                                  ".");
  }
  return s;
}

// Every registry counter the metrics and checks read.
std::vector<std::string> CounterNames(const Stack& s) {
  std::vector<std::string> names;
  for (const std::string& p : s.shard_prefixes) {
    for (const char* c :
         {"gets", "hits", "sets", "deletes", "admission_rejects",
          "flushed_regions", "evicted_regions", "evicted_items",
          "reinserted_items", "ttl_expired_items", "shard_ops",
          "get_lockfree", "lock_waits", "lock_wait_ns"}) {
      names.push_back(p + c);
    }
  }
  for (const char* c :
       {"middle.host_bytes", "middle.gc.runs",
        "middle.gc.migrated_bytes", "middle.gc.migrated_regions",
        "middle.gc.skipped_rewritten", "middle.zones.reset",
        "middle.zones.finished", "middle.read.seqlock_retries",
        "middle.epoch_defer", "middle.write_races_lost",
        "middle.write_retries", "zns.host_bytes", "zns.bytes_read",
        "zns.write_ops", "zns.append_ops", "zns.zone.resets",
        "zns.zone.finishes", "zns.io.submitted"}) {
    names.emplace_back(c);
  }
  for (u32 u = 0; u < kUnits; ++u) {
    names.push_back("zns.io.u" + std::to_string(u) + ".busy_ns");
  }
  return names;
}

// Everything read from the stack at the edges of the measured phase.
struct Snapshot {
  CounterValues counters;
  zncache::cache::CacheStats stats;
  zncache::cache::WaStats wa;
  SimNanos clock = 0;
};

Snapshot TakeSnapshot(Stack& s) {
  Snapshot snap;
  const std::vector<std::string> names = CounterNames(s);
  snap.counters = ReadCounters(s.registry, names);
  snap.stats = s.cache().TotalStats();
  snap.wa = s.scheme.device->wa_stats();
  snap.clock = s.clock.Now();
  return snap;
}

// --- per-client op accounting ---------------------------------------------

struct OpCounts {
  u64 ops = 0;  // ShardedCache calls
  u64 gets = 0;
  u64 hits = 0;
  u64 sets = 0;
  u64 set_admitted = 0;
  u64 set_rejected = 0;
  u64 deletes = 0;
  u64 failed = 0;      // calls that returned an error
  u64 bad_values = 0;  // hits whose bytes differ from the key's value
  u64 set_bytes = 0;   // payload bytes of admitted sets
  u64 call_ns = 0;     // wall time inside cache calls
  u64 loop_ns = 0;     // wall time of the client loop

  void Add(const OpCounts& o) {
    ops += o.ops;
    gets += o.gets;
    hits += o.hits;
    sets += o.sets;
    set_admitted += o.set_admitted;
    set_rejected += o.set_rejected;
    deletes += o.deletes;
    failed += o.failed;
    bad_values += o.bad_values;
    set_bytes += o.set_bytes;
    call_ns += o.call_ns;
    loop_ns += o.loop_ns;
  }
};

// Latency samples in ns. Wall: around each Get / Set call. Virtual: per
// request, as CacheBench counts them -- a get request is the Get plus its
// look-aside refill Set on a miss, a set request an explicit Set; the
// open loop counts from the request's due instant.
enum Lat { kGetWall, kSetWall, kGetVirt, kSetVirt, kLatKinds };
constexpr const char* kLatName[kLatKinds] = {"get", "set", "vget", "vset"};

// Samples by kind, split by the measurement window they were taken in.
struct Samples {
  std::array<std::vector<std::vector<u64>>, kLatKinds> windows;

  void Add(Lat k, u64 window, u64 ns) {
    auto& w = windows[k];
    if (w.size() <= window) w.resize(window + 1);
    w[window].push_back(ns);
  }
  // Window-wise append of another client's samples.
  void Merge(const Samples& o) {
    for (size_t k = 0; k < kLatKinds; ++k) {
      auto& w = windows[k];
      if (w.size() < o.windows[k].size()) w.resize(o.windows[k].size());
      for (size_t i = 0; i < o.windows[k].size(); ++i) {
        w[i].insert(w[i].end(), o.windows[k][i].begin(), o.windows[k][i].end());
      }
    }
  }
};

// One load-generator thread's view of the cache: issues a timed call,
// records the samples, checks hits. A `sampled` call (one op in
// kSampleEvery of a traced window) records a cache span, and the
// TimingDevice nests its backend spans under it.
class alignas(64) Client {
 public:
  // `window` is the measurement-window clock the samples are filed under
  // (null: all in window 0).
  Client(u32 index, ShardedCache* cache, const Values* values,
         const std::vector<std::string>* keys,
         const std::atomic<u64>* window = nullptr)
      : spans(index), index_(index), cache_(cache), values_(values),
        keys_(keys), window_clock_(window) {}

  OpCounts counts;
  Samples samples;
  SpanBuffer spans;
  std::atomic<u64> progress{0};  // ops so far, read by the window clock

  // Each call records its wall latency and returns the OpResult's virtual
  // latency through `virt_ns`.
  bool Get(u64 key, u64 size, bool sampled, SimNanos* virt_ns) {
    const auto r = Timed(SpanName::kCacheGet, sampled,
                         [&] { return cache_->Get((*keys_)[key], &value_); });
    counts.gets++;
    if (!r.ok()) return false;
    Record(kGetWall, last_wall_ns_);
    *virt_ns = r->latency;
    if (r->hit) {
      counts.hits++;
      if (!values_->Matches(key, size, value_)) counts.bad_values++;
    }
    return r->hit;
  }
  void Set(u64 key, u64 size, SimNanos ttl_ns, bool sampled,
           SimNanos* virt_ns) {
    const std::string_view v = values_->Value(key, size);
    const auto r = Timed(SpanName::kCacheSet, sampled, [&] {
      return cache_->Set((*keys_)[key], v, ttl_ns);
    });
    counts.sets++;
    if (!r.ok()) return;
    Record(kSetWall, last_wall_ns_);
    *virt_ns = r->latency;
    if (r->hit) {
      counts.set_admitted++;
      counts.set_bytes += size;
    } else {
      counts.set_rejected++;
    }
  }
  void Delete(u64 key, bool sampled) {
    (void)Timed(SpanName::kCacheDelete, sampled,
                [&] { return cache_->Delete((*keys_)[key]); });
    counts.deletes++;
  }
  u32 index() const { return index_; }
  // Files a sample under the window of the client's latest call.
  void Record(Lat k, u64 ns) { samples.Add(k, window_, ns); }

 private:
  template <typename F>
  Result<OpResult> Timed(SpanName name, bool sampled, F&& call) {
    u64 id = 0;
    if (sampled) {
      id = spans.NextId();
      tls_trace = ThreadTrace{&spans, id};
    }
    if (window_clock_ != nullptr) {
      window_ = window_clock_->load(std::memory_order_relaxed);
    }
    const u64 t0 = WallNs();
    Result<OpResult> r = call();
    const u64 t1 = WallNs();
    if (sampled) {
      tls_trace = ThreadTrace{};
      spans.Add(id, 0, name, t0, t1, 0);
    }
    last_wall_ns_ = t1 - t0;
    counts.ops++;
    counts.call_ns += last_wall_ns_;
    if (!r.ok()) counts.failed++;
    progress.store(counts.ops, std::memory_order_relaxed);
    return r;
  }

  u32 index_;
  ShardedCache* cache_;
  const Values* values_;
  const std::vector<std::string>* keys_;
  const std::atomic<u64>* window_clock_;
  std::string value_;  // Get output, reused
  u64 last_wall_ns_ = 0;
  u64 window_ = 0;
};

// --- closed loops -----------------------------------------------------------

struct ClosedSetup {
  const Workload* wl;
  u64 key_space;
  const Values* values;
  const std::vector<std::string>* keys;
};

// One set-only sweep: client c writes keys c, c+C, c+2C, ...
void SweepClient(const ClosedSetup& cs, Client& c, u32 clients) {
  SimNanos v = 0;
  for (u64 key = c.index(); key < cs.key_space; key += clients) {
    c.Set(key, cs.values->LogUniformSize(key), 0, false, &v);
  }
}

// Zipf keys, get (look-aside refill on a miss) / set / delete in the
// proportions get_frac / set_frac / rest. Runs `budget` ops, or until
// `stop` when budget is 0. `tracing` selects which ops record spans.
void MixClient(const ClosedSetup& cs, Client& c, double get_frac,
               double set_frac, u64 seed, u64 budget,
               const std::atomic<bool>& stop,
               const std::atomic<bool>& tracing) {
  Rng rng(seed);
  zncache::ZipfianGenerator zipf(cs.key_space, kZipfTheta);
  const u64 loop_start = WallNs();
  for (u64 i = 0; budget == 0 ? !stop.load(std::memory_order_relaxed)
                              : i < budget;
       ++i) {
    const u64 key = zipf.Next(rng);
    const u64 size = cs.values->LogUniformSize(key);
    const double u = rng.NextDouble();
    const bool sampled = tracing.load(std::memory_order_relaxed) &&
                         c.counts.ops % kSampleEvery == 0;
    SimNanos v = 0;
    if (u < get_frac) {
      SimNanos fill = 0;
      if (!c.Get(key, size, sampled, &v)) c.Set(key, size, 0, sampled, &fill);
      c.Record(kGetVirt, v + fill);
    } else if (u < get_frac + set_frac) {
      c.Set(key, size, 0, sampled, &v);
      c.Record(kSetVirt, v);
    } else {
      c.Delete(key, sampled);
    }
  }
  c.counts.loop_ns += WallNs() - loop_start;
}

// --- open loop in virtual time ------------------------------------------

workload::ScenarioSpec CdnMix(u64 seed, double scale) {
  workload::ScenarioSpec spec;
  for (const auto& s : workload::BuiltinScenarios()) {
    if (s.name == "cdn_mix") spec = *workload::ScenarioSpec::Parse(s.text);
  }
  spec.seed = seed;
  // TTL churn on a tenth of the sets, so the lazy-expiry path runs.
  spec.ttl_fraction = 0.1;
  spec.ttl_min_ns = 200 * sim::kMillisecond;
  spec.ttl_max_ns = 2 * sim::kSecond;
  return spec.Scaled(scale);
}

// Replays the next `max_ops` ops of `stream` (the rest when 0) open-loop
// on a stack whose clock started with the stream: the clock jumps to each
// op's due instant, and each op's virtual latency counts from that due
// instant (so a stall shows up on every op queued behind it). `lateness`
// gets each op's start minus its due instant.
void ReplayScenario(workload::ScenarioStream& stream, u64 max_ops, Stack& s,
                    Client& c, bool sample_spans, std::vector<u64>* lateness) {
  workload::ScenarioOp op;
  const u64 loop_start = WallNs();
  for (u64 n = 0; (max_ops == 0 || n < max_ops) && stream.Next(&op); ++n) {
    const SimNanos due = op.when;
    const SimNanos now = s.clock.Now();
    const SimNanos late = now > due ? now - due : 0;
    lateness->push_back(late);
    s.clock.AdvanceTo(due);
    const bool sampled = sample_spans && c.counts.ops % kSampleEvery == 0;
    SimNanos v = 0;
    switch (op.kind) {
      case workload::ScenarioOp::Kind::kGet: {
        SimNanos fill = 0;
        if (!c.Get(op.key_id, op.size, sampled, &v)) {
          c.Set(op.key_id, op.size, op.ttl_ns, sampled, &fill);
        }
        c.Record(kGetVirt, late + v + fill);
        break;
      }
      case workload::ScenarioOp::Kind::kSet:
        c.Set(op.key_id, op.size, op.ttl_ns, sampled, &v);
        c.Record(kSetVirt, late + v);
        break;
      case workload::ScenarioOp::Kind::kDelete:
        c.Delete(op.key_id, sampled);
        break;
    }
  }
  c.counts.loop_ns += WallNs() - loop_start;
}

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  u64 samples = 0;
  bool in_result = true;  // false: printed, but not in the result object
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, u64 samples,
           bool in_result = true) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples, in_result});
  }
  void Check(bool ok, const std::string& why) {
    if (ok) return;
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  // Human-readable lines, then the result object as the last line.
  void Print(u64 attempted, u64 failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-40s %18.6f %-8s n=%llu\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.in_result) continue;
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (!first) out += ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Adds "<name>_p50_us" and "<name>_<tail_name>_us": the `over_windows`
// quantile over the measurement windows of each window's percentile, so
// one slow window (a GC burst, a busy neighbour on the host) moves it less
// than a percentile over all samples would. Only windows with at least ten
// samples beyond the tail percentile count; with fewer than three such
// windows the samples are pooled into one.
void AddLatency(Report& rep, Lat kind, const Samples& s, double tail,
                const char* tail_name, double over_windows) {
  const auto& windows = s.windows[kind];
  const size_t need = static_cast<size_t>(std::ceil(10.0 / (1.0 - tail)));
  u64 n = 0;
  std::vector<std::vector<u64>> use;
  for (const auto& w : windows) {
    n += w.size();
    if (w.size() >= need) use.push_back(w);
  }
  if (use.size() < 3) {
    use.assign(1, {});
    for (const auto& w : windows) {
      use[0].insert(use[0].end(), w.begin(), w.end());
    }
  }
  std::vector<double> p50, pt;
  for (auto& w : use) {
    p50.push_back(static_cast<double>(Percentile(w, 0.5)) / 1000.0);
    pt.push_back(static_cast<double>(Percentile(w, tail)) / 1000.0);
  }
  const std::string name = kLatName[kind];
  rep.Add(name + "_p50_us", Quantile(p50, over_windows), "us", n);
  rep.Add(name + "_" + tail_name + "_us", Quantile(pt, over_windows), "us",
          n);
  if (n < need) {
    std::printf("note: %s_%s rests on fewer than 10 samples beyond it\n",
                name.c_str(), tail_name);
  }
}

// Engine-count checks: the harness's counts must equal the TotalStats
// deltas and the summed per-shard registry counters.
void CheckCounts(Report& rep, const OpCounts& h, const Snapshot& a,
                 const Snapshot& b, const CounterValues& d,
                 const std::vector<std::string>& shards) {
  struct Row {
    const char* what;
    u64 harness, stats, registry;
  } rows[] = {
      {"gets", h.gets, b.stats.gets - a.stats.gets, SumOver(d, shards, "gets")},
      {"hits", h.hits, b.stats.hits - a.stats.hits, SumOver(d, shards, "hits")},
      {"sets", h.set_admitted, b.stats.sets - a.stats.sets,
       SumOver(d, shards, "sets")},
      {"admission_rejects", h.set_rejected,
       b.stats.admission_rejects - a.stats.admission_rejects,
       SumOver(d, shards, "admission_rejects")},
      {"deletes", h.deletes, b.stats.deletes - a.stats.deletes,
       SumOver(d, shards, "deletes")},
  };
  for (const Row& r : rows) {
    rep.Check(r.harness == r.stats && r.stats == r.registry,
              std::string(r.what) + ": harness " + std::to_string(r.harness) +
                  ", stats " + std::to_string(r.stats) + ", registry " +
                  std::to_string(r.registry));
  }
  rep.Check(h.bad_values == 0,
            std::to_string(h.bad_values) + " hits returned wrong bytes");
}

// End-to-end metrics shared by both loops.
struct EndToEnd {
  std::vector<double> window_ops_per_s;
  std::vector<double> window_cpu_us_per_op;
  std::vector<double> setup_s;
  Samples samples;
  OpCounts counts;
  double hit_ratio = 0;
  double wa = 0;
};

void AddEndToEnd(Report& rep, const EndToEnd& e) {
  rep.Add("ops_per_s", Quantile(e.window_ops_per_s, 1 - kFastQuartile),
          "1/s", e.window_ops_per_s.size());
  rep.Add("cpu_us_per_op", Quantile(e.window_cpu_us_per_op, kFastQuartile),
          "us", e.window_cpu_us_per_op.size());
  AddLatency(rep, kGetWall, e.samples, 0.99, "p99", kFastQuartile);
  AddLatency(rep, kSetWall, e.samples, 0.99, "p99", kFastQuartile);
  rep.Add("hit_ratio", e.hit_ratio, "frac", e.counts.gets);
  rep.Add("wa", e.wa, "x", 1);
  // Virtual latencies, median over windows: the open loop's and the
  // probe's (kProbeOps) are exact; zone_mixed's are the measured phase's,
  // on the shared clock.
  AddLatency(rep, kGetVirt, e.samples, 0.99, "p99", 0.5);
  AddLatency(rep, kSetVirt, e.samples, 0.99, "p99", 0.5);
  rep.Add("setup_s", Median(e.setup_s), "s", e.setup_s.size());
  rep.Add("rss_mb", PeakRssMb(), "MiB", 1);
  // Zero at every seed, so no bound can be set on it: printed, and carried
  // in the result as "failed" / "attempted", but not a result metric.
  rep.Add("fail_frac",
          Ratio(static_cast<double>(e.counts.failed),
                static_cast<double>(e.counts.ops)),
          "frac", e.counts.ops, /*in_result=*/false);
}

// Per-layer metrics from the counter deltas, the spans and the op
// attribution totals.
struct LayerInputs {
  const CounterValues* d;
  const std::vector<std::string>* shards;
  u64 ops = 0;         // cache calls over the counter window
  u64 gets = 0;
  SimNanos virt_elapsed = 0;
  double max_inflight = 0;
  // Spans (traced windows): totals per name, the ops they sampled, and the
  // client time of the traced windows.
  std::vector<SpanTotals> spans;
  u64 sampled_ops = 0;
  u64 traced_ops = 0;
  double traced_client_ns = 0;
  const obs::OpAttribution* attribution = nullptr;
  double load_gen_ns_per_op = 0;
  double late_frac = 0;
  double lag_p99_us = 0;
  double overhead_frac = 0;
};

void AddPerLayer(Report& rep, const LayerInputs& in) {
  const CounterValues& d = *in.d;
  const auto& sh = *in.shards;
  const double kops = static_cast<double>(in.ops) / 1000.0;
  auto per_kop = [&](u64 v) { return Ratio(static_cast<double>(v), kops); };
  auto span = [&](SpanName n) -> const SpanTotals& {
    return in.spans[static_cast<size_t>(n)];
  };
  // Spans sample one op in kSampleEvery; scale sampled time to all ops of
  // the traced windows for the busy fractions.
  const double scale = Ratio(static_cast<double>(in.traced_ops),
                             static_cast<double>(in.sampled_ops));

  // cache (spans)
  const SpanName cache_spans[] = {SpanName::kCacheGet, SpanName::kCacheSet,
                                  SpanName::kCacheDelete};
  double cache_self = 0;
  for (SpanName n : cache_spans) {
    const SpanTotals& t = span(n);
    rep.Add(std::string(SpanNameStr(n)) + ".self_ns",
            Ratio(static_cast<double>(t.self_ns), static_cast<double>(t.calls)),
            "ns", t.calls);
    cache_self += static_cast<double>(t.self_ns);
  }
  rep.Add("cache.busy_frac", Ratio(cache_self * scale, in.traced_client_ns),
          "frac", in.sampled_ops);

  // cache (counters)
  u64 max_ops = 0, sum_ops = 0;
  for (const std::string& p : sh) {
    max_ops = std::max(max_ops, Get(d, p + "shard_ops"));
    sum_ops += Get(d, p + "shard_ops");
  }
  const u64 sets = SumOver(d, sh, "sets");
  const u64 rejects = SumOver(d, sh, "admission_rejects");
  rep.Add("cache.lock_waits_per_kop", per_kop(SumOver(d, sh, "lock_waits")),
          "1/kop", in.ops);
  rep.Add("cache.lock_wait_ns_per_op",
          Ratio(static_cast<double>(SumOver(d, sh, "lock_wait_ns")),
                static_cast<double>(in.ops)),
          "ns", in.ops);
  rep.Add("cache.get_lockfree_frac",
          Ratio(static_cast<double>(SumOver(d, sh, "get_lockfree")),
                static_cast<double>(SumOver(d, sh, "gets"))),
          "frac", SumOver(d, sh, "gets"));
  rep.Add("cache.shard_imbalance",
          Ratio(static_cast<double>(max_ops) * static_cast<double>(sh.size()),
                static_cast<double>(sum_ops)),
          "x", sum_ops);
  rep.Add("cache.flushed_regions_per_kop",
          per_kop(SumOver(d, sh, "flushed_regions")), "1/kop", in.ops);
  rep.Add("cache.evicted_regions_per_kop",
          per_kop(SumOver(d, sh, "evicted_regions")), "1/kop", in.ops);
  rep.Add("cache.evicted_items_per_kop",
          per_kop(SumOver(d, sh, "evicted_items")), "1/kop", in.ops);
  rep.Add("cache.reinserted_items_per_kop",
          per_kop(SumOver(d, sh, "reinserted_items")), "1/kop", in.ops);
  rep.Add("cache.admission_reject_frac",
          Ratio(static_cast<double>(rejects),
                static_cast<double>(sets + rejects)),
          "frac", sets + rejects);
  rep.Add("cache.ttl_expired_per_kop",
          per_kop(SumOver(d, sh, "ttl_expired_items")), "1/kop", in.ops);

  // backend (spans)
  const SpanName backend_spans[] = {
      SpanName::kBackendWrite,  SpanName::kBackendSubmit,
      SpanName::kBackendComplete, SpanName::kBackendRead,
      SpanName::kBackendInvalidate, SpanName::kBackendPump};
  double backend_total = 0;
  for (SpanName n : backend_spans) {
    const SpanTotals& t = span(n);
    const std::string name = SpanNameStr(n);
    rep.Add(name + ".ns",
            Ratio(static_cast<double>(t.total_ns),
                  static_cast<double>(t.calls)),
            "ns", t.calls);
    rep.Add(name + ".calls",
            Ratio(static_cast<double>(t.calls) * 1000.0,
                  static_cast<double>(in.sampled_ops)),
            "1/kop", in.sampled_ops);
    backend_total += static_cast<double>(t.total_ns);
  }
  rep.Add("backend.write.bytes_per_call",
          Ratio(static_cast<double>(span(SpanName::kBackendWrite).bytes),
                static_cast<double>(span(SpanName::kBackendWrite).calls)),
          "B", span(SpanName::kBackendWrite).calls);
  rep.Add("backend.read.bytes_per_call",
          Ratio(static_cast<double>(span(SpanName::kBackendRead).bytes),
                static_cast<double>(span(SpanName::kBackendRead).calls)),
          "B", span(SpanName::kBackendRead).calls);
  rep.Add("backend.busy_frac",
          Ratio(backend_total * scale, in.traced_client_ns), "frac",
          in.sampled_ops);

  // middle (counters)
  rep.Add("middle.gc.runs_per_kop", per_kop(Get(d, "middle.gc.runs")), "1/kop",
          in.ops);
  rep.Add("middle.gc.migrated_regions_per_kop",
          per_kop(Get(d, "middle.gc.migrated_regions")), "1/kop", in.ops);
  rep.Add("middle.gc.migrated_bytes_per_host_byte",
          Ratio(static_cast<double>(Get(d, "middle.gc.migrated_bytes")),
                static_cast<double>(Get(d, "middle.host_bytes"))),
          "B/B", Get(d, "middle.host_bytes"));
  rep.Add("middle.gc.skipped_rewritten",
          static_cast<double>(Get(d, "middle.gc.skipped_rewritten")), "count",
          1);
  rep.Add("middle.zones.reset_per_kop", per_kop(Get(d, "middle.zones.reset")),
          "1/kop", in.ops);
  rep.Add("middle.zones.finished_per_kop",
          per_kop(Get(d, "middle.zones.finished")), "1/kop", in.ops);
  rep.Add("middle.read.seqlock_retry_frac",
          Ratio(static_cast<double>(Get(d, "middle.read.seqlock_retries")),
                static_cast<double>(in.gets)),
          "frac", in.gets);
  rep.Add("middle.epoch_defer_per_kop", per_kop(Get(d, "middle.epoch_defer")),
          "1/kop", in.ops);
  rep.Add("middle.write_races_lost",
          static_cast<double>(Get(d, "middle.write_races_lost")), "count", 1);
  rep.Add("middle.write_retries",
          static_cast<double>(Get(d, "middle.write_retries")), "count", 1);

  // io (counters)
  double busy_sum = 0, busy_max = 0;
  for (u32 u = 0; u < kUnits; ++u) {
    const double b = static_cast<double>(
        Get(d, "zns.io.u" + std::to_string(u) + ".busy_ns"));
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double elapsed = static_cast<double>(in.virt_elapsed);
  rep.Add("io.submitted_per_op",
          Ratio(static_cast<double>(Get(d, "zns.io.submitted")),
                static_cast<double>(in.ops)),
          "1/op", in.ops);
  rep.Add("io.max_inflight", in.max_inflight, "count", 1);
  rep.Add("io.unit_util", Ratio(busy_sum, elapsed * kUnits), "frac", kUnits);
  rep.Add("io.unit_util_max", Ratio(busy_max, elapsed), "frac", kUnits);

  // zns (counters)
  const u64 appends = Get(d, "zns.append_ops");
  rep.Add("zns.host_bytes_per_op",
          Ratio(static_cast<double>(Get(d, "zns.host_bytes")),
                static_cast<double>(in.ops)),
          "B", in.ops);
  rep.Add("zns.read_bytes_per_get",
          Ratio(static_cast<double>(Get(d, "zns.bytes_read")),
                static_cast<double>(in.gets)),
          "B", in.gets);
  rep.Add("zns.append_frac",
          Ratio(static_cast<double>(appends),
                static_cast<double>(appends + Get(d, "zns.write_ops"))),
          "frac", appends + Get(d, "zns.write_ops"));
  rep.Add("zns.zone.resets_per_kop", per_kop(Get(d, "zns.zone.resets")),
          "1/kop", in.ops);
  rep.Add("zns.zone.finishes_per_kop", per_kop(Get(d, "zns.zone.finishes")),
          "1/kop", in.ops);

  // phases (virtual ns per op, OpAttribution)
  for (obs::OpType t : {obs::OpType::kGet, obs::OpType::kSet}) {
    const u64 n = in.attribution->op_count(t);
    const std::vector<u64> totals = in.attribution->MergedPhaseTotals(t);
    for (size_t p = 0; p < obs::kPhaseCount; ++p) {
      rep.Add(std::string("phase.") + obs::OpTypeName(t) + "." +
                  obs::PhaseName(static_cast<obs::Phase>(p)),
              Ratio(static_cast<double>(totals[p]), static_cast<double>(n)),
              "ns", n);
    }
  }

  // load, trace
  rep.Add("load.gen_ns_per_op", in.load_gen_ns_per_op, "ns", in.ops);
  rep.Add("load.late_frac", in.late_frac, "frac", in.ops);
  rep.Add("load.lag_p99_us", in.lag_p99_us, "us", in.ops);
  rep.Add("trace.overhead_frac", in.overhead_frac, "frac", 2);
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

std::string TraceHeader(const Options& o, const Workload& wl) {
  return "perfbench trace v1 workload=" + std::string(wl.name) +
         " seed=" + std::to_string(o.seed) +
         " clients=" + std::to_string(wl.clients) +
         " sample_every=" + std::to_string(kSampleEvery);
}

// Writes the spans, reads them back, and sums them per name: the per-layer
// span metrics come from the trace file, not from the in-memory buffers.
Result<std::vector<SpanTotals>> TraceTotals(
    const Options& o, const Workload& wl, u64 epoch,
    const std::vector<std::unique_ptr<Client>>& clients) {
  std::vector<const SpanBuffer*> buffers;
  for (const auto& c : clients) buffers.push_back(&c->spans);
  ZN_RETURN_IF_ERROR(WriteTrace(o.trace_file, TraceHeader(o, wl), epoch,
                                buffers));
  auto spans = ReadTrace(o.trace_file);
  if (!spans.ok()) return spans.status();
  std::printf("trace: %zu spans in %s\n", spans->size(), o.trace_file.c_str());
  return SummarizeSpans(*spans);
}

// --- closed-loop run --------------------------------------------------------

int RunClosed(const Options& o, const Workload& wl) {
  const u64 region_cache_bytes = kRegionCacheZones * kZoneSize;
  const u64 key_space = static_cast<u64>(
      wl.key_bytes_x * static_cast<double>(region_cache_bytes) /
      MeanLogUniform());
  const Values values(o.seed, kValueMax);
  std::vector<std::string> keys(key_space);
  for (u64 k = 0; k < key_space; ++k) {
    keys[k] = workload::CacheBenchRunner::KeyName(k);
  }
  const ClosedSetup cs{&wl, key_space, &values, &keys};
  const u32 nc = wl.clients;
  Report rep;
  EndToEnd e;

  auto run_clients = [&](std::vector<std::unique_ptr<Client>>& clients,
                         auto&& body) {
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&, ptr = c.get()] { body(*ptr); });
    }
    for (auto& t : threads) t.join();
  };
  // Runs `body` on every client until `done()` holds (polled every 10 ms);
  // false when it still does not after kWarmLimitSec.
  auto run_until = [&](std::vector<std::unique_ptr<Client>>& clients,
                       std::atomic<bool>& stop, auto&& body, auto&& done) {
    stop.store(false);
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&, ptr = c.get()] { body(*ptr); });
    }
    const u64 t0 = WallNs();
    bool ok = true;
    while (!done()) {
      if (static_cast<double>(WallNs() - t0) * 1e-9 > kWarmLimitSec) {
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true);
    for (auto& t : threads) t.join();
    return ok;
  };
  auto make_clients = [&](Stack& s, const std::atomic<u64>* window) {
    std::vector<std::unique_ptr<Client>> clients;
    for (u32 i = 0; i < nc; ++i) {
      clients.push_back(
          std::make_unique<Client>(i, &s.cache(), &values, &keys, window));
    }
    return clients;
  };

  // Set-up: build, sweep, drive into the GC regime, settle; repeated for
  // the median in an end-to-end run, once in a traced run. Only the last
  // stack is measured.
  std::unique_ptr<Stack> stack;
  OpCounts setup_counts;
  const int setups = o.trace ? 1 : kSetups;
  const std::atomic<bool> never{false};
  for (int r = 0; r < setups; ++r) {
    stack.reset();
    const u64 t0 = WallNs();
    auto built = BuildStack(wl, key_space, nullptr, o.trace);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return 2;
    }
    stack = std::move(*built);
    auto clients = make_clients(*stack, nullptr);
    run_clients(clients, [&](Client& c) { SweepClient(cs, c, nc); });
    const obs::Counter* resets = stack->registry.GetCounter("zns.zone.resets");
    const u64 target =
        resets->value() + (wl.scheme == SchemeKind::kZone ? kZoneCacheZones
                                                          : kRegionDeviceZones);
    std::atomic<bool> stop{false};
    const bool steady = run_until(
        clients, stop,
        [&](Client& c) {
          MixClient(cs, c, 0, 1, o.seed * 1000 + 100 * r + c.index(), 0, stop,
                    never);
        },
        [&] { return resets->value() >= target; });
    if (!steady) {
      std::fprintf(stderr, "set-up: device not recycled after %.0f s\n",
                   kWarmLimitSec);
      return 2;
    }
    run_clients(clients, [&](Client& c) {
      MixClient(cs, c, wl.get_frac, wl.set_frac,
                o.seed * 1000 + 100 * r + 50 + c.index(), kSettleOps / nc,
                never, never);
    });
    e.setup_s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    for (const auto& c : clients) setup_counts.Add(c->counts);
  }
  Stack& s = *stack;
  rep.Check(setup_counts.bad_values == 0,
            std::to_string(setup_counts.bad_values) +
                " hits returned wrong bytes during set-up");
  rep.Check(s.cache().TotalStats().evicted_regions > 0,
            "cache not full before the measured phase (no region evicted)");

  // The one-client virtual-latency probe runs on the set-up's end state,
  // which a fixed number of ops reached (the state after the measured
  // phase depends on how many ops the host ran in it).
  Samples probe_samples;
  u64 probe_ops = 0;
  if (!o.trace && wl.probe_virtual) {
    std::atomic<u64> probe_window{0};
    Client probe(nc, &s.cache(), &values, &keys, &probe_window);
    for (u64 w = 0; w < kProbeWindows; ++w) {
      probe_window.store(w, std::memory_order_relaxed);
      MixClient(cs, probe, wl.get_frac, wl.set_frac, o.seed * 7919 + 1000 + w,
                kProbeOps / kProbeWindows, never, never);
    }
    rep.Check(probe.counts.bad_values == 0 && probe.counts.failed == 0,
              "virtual-latency probe: " +
                  std::to_string(probe.counts.bad_values) + " wrong hits, " +
                  std::to_string(probe.counts.failed) + " failed ops");
    probe_samples = std::move(probe.samples);
    probe_ops = probe.counts.ops;
  }

  // Measured phase: `window` files each sample under its window; the
  // samples of the trailing partial window (index `windows`) are dropped.
  const int windows =
      std::max(2, static_cast<int>(std::lround(o.seconds / kWindowSec)));
  std::atomic<u64> window{0};
  auto clients = make_clients(s, &window);
  const Snapshot before = TakeSnapshot(s);
  if (s.attribution) s.attribution->Reset();
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  const u64 epoch = WallNs();
  std::vector<std::thread> threads;
  for (u32 i = 0; i < nc; ++i) {
    threads.emplace_back([&, i] {
      MixClient(cs, *clients[i], wl.get_frac, wl.set_frac,
                o.seed * 7919 + i + 1, 0, stop, tracing);
    });
  }
  std::vector<double> traced_ops_per_s, untraced_ops_per_s;
  u64 traced_ops = 0;
  double traced_wall_ns = 0;
  u64 last_ops = 0;
  double last_cpu = CpuSeconds();
  u64 last_t = WallNs();
  for (int w = 0; w < windows; ++w) {
    const bool traced_window = o.trace && w % 2 == 1;
    tracing.store(traced_window, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWindowSec));
    window.store(static_cast<u64>(w) + 1, std::memory_order_relaxed);
    u64 ops = 0;
    for (const auto& c : clients) {
      ops += c->progress.load(std::memory_order_relaxed);
    }
    const u64 t = WallNs();
    const double cpu = CpuSeconds();
    const double dt = static_cast<double>(t - last_t) * 1e-9;
    const double rate = static_cast<double>(ops - last_ops) / dt;
    if (traced_window) {
      traced_ops_per_s.push_back(rate);
      traced_ops += ops - last_ops;
      traced_wall_ns += static_cast<double>(t - last_t);
    } else {
      untraced_ops_per_s.push_back(rate);
      e.window_ops_per_s.push_back(rate);
      e.window_cpu_us_per_op.push_back(
          Ratio((cpu - last_cpu) * 1e6, static_cast<double>(ops - last_ops)));
    }
    last_ops = ops;
    last_cpu = cpu;
    last_t = t;
  }
  tracing.store(false);
  stop.store(true);
  for (auto& t : threads) t.join();
  const Snapshot after = TakeSnapshot(s);

  for (u32 i = 0; i < nc; ++i) {
    e.counts.Add(clients[i]->counts);
    e.samples.Merge(clients[i]->samples);
  }
  for (auto& k : e.samples.windows) {
    if (k.size() > static_cast<size_t>(windows)) k.resize(windows);
  }
  if (!o.trace && wl.probe_virtual) {
    for (Lat k : {kGetVirt, kSetVirt}) {
      e.samples.windows[k] = std::move(probe_samples.windows[k]);
    }
  }
  auto delta = CounterDelta(before.counters, after.counters);
  if (!delta.ok()) {
    std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
    return 2;
  }
  const CounterValues& d = *delta;
  CheckCounts(rep, e.counts, before, after, d, s.shard_prefixes);
  e.hit_ratio = Ratio(static_cast<double>(e.counts.hits),
                      static_cast<double>(e.counts.gets));
  const zncache::cache::WaStats wa{
      after.wa.host_bytes - before.wa.host_bytes,
      after.wa.flash_bytes - before.wa.flash_bytes};
  e.wa = wa.Factor();

  // Regime assertions.
  const std::string regime = std::string("regime (") + wl.name + "): ";
  if (std::string_view(wl.name) == "mixed") {
    rep.Check(Get(d, "middle.gc.migrated_regions") > 0,
              regime + "no GC migration in the measured phase");
  } else if (std::string_view(wl.name) == "readmostly") {
    rep.Check(e.hit_ratio >= 0.9,
              regime + "hit ratio " + std::to_string(e.hit_ratio) + " < 0.9");
  } else if (std::string_view(wl.name) == "zone_mixed") {
    rep.Check(Get(d, "zns.zone.resets") > 0,
              regime + "no zone reset in the measured phase");
    u64 middle = 0;
    for (const auto& [name, v] : after.counters) {
      if (name.rfind("middle.", 0) == 0) middle += v;
    }
    rep.Check(middle == 0, regime + "middle layer active on Zone-Cache");
  }

  std::printf("ops: measured %llu (%llu gets, %llu sets, %llu deletes), "
              "set-up %llu, virtual-latency probe %llu\n",
              static_cast<unsigned long long>(e.counts.ops),
              static_cast<unsigned long long>(e.counts.gets),
              static_cast<unsigned long long>(e.counts.sets),
              static_cast<unsigned long long>(e.counts.deletes),
              static_cast<unsigned long long>(setup_counts.ops),
              static_cast<unsigned long long>(probe_ops));

  if (!o.trace) {
    AddEndToEnd(rep, e);
  } else {
    auto totals = TraceTotals(o, wl, epoch, clients);
    if (!totals.ok()) {
      std::fprintf(stderr, "trace: %s\n", totals.status().ToString().c_str());
      return 2;
    }
    LayerInputs in;
    in.d = &d;
    in.shards = &s.shard_prefixes;
    in.ops = e.counts.ops;
    in.gets = e.counts.gets;
    in.virt_elapsed = after.clock - before.clock;
    in.max_inflight = s.registry.GetGauge("zns.io.max_inflight")->value();
    in.spans = std::move(*totals);
    for (SpanName n : {SpanName::kCacheGet, SpanName::kCacheSet,
                       SpanName::kCacheDelete}) {
      in.sampled_ops += in.spans[static_cast<size_t>(n)].calls;
    }
    in.traced_ops = traced_ops;
    in.traced_client_ns = traced_wall_ns * nc;
    in.attribution = s.attribution.get();
    in.load_gen_ns_per_op =
        Ratio(static_cast<double>(e.counts.loop_ns - e.counts.call_ns),
              static_cast<double>(e.counts.ops));
    in.overhead_frac =
        1.0 - Ratio(Median(traced_ops_per_s), Median(untraced_ops_per_s));
    AddPerLayer(rep, in);
  }
  rep.Print(e.counts.ops, e.counts.failed);
  return rep.correct() ? 0 : 1;
}

// --- open-loop run ----------------------------------------------------------

struct PassResult {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  OpCounts counts;
  Samples samples;
  std::vector<u64> lateness;
  Snapshot before, after;
  CounterValues delta;
  std::vector<std::string> shard_prefixes;
  u64 evicted_before = 0;
  double max_inflight = 0;
  std::unique_ptr<Stack> stack;  // kept for the traced pass's attribution
  std::vector<std::unique_ptr<Client>> clients;  // kept for its spans
  u64 epoch = 0;
  // Determinism witness: FNV-1a over every virtual latency of the pass.
  u64 virtual_digest = 0;
};

u64 Digest(const Samples& s) {
  u64 h = 14695981039346656037ull;
  auto mix = [&](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (Lat k : {kGetVirt, kSetVirt}) {
    for (const auto& w : s.windows[k]) {
      for (u64 v : w) mix(v);
    }
    mix(~0ull);
  }
  return h;
}

Result<PassResult> RunPass(const Workload& wl,
                           const workload::ScenarioSpec& spec,
                           const Values& values,
                           const std::vector<std::string>& keys, bool traced) {
  PassResult pr;
  const u64 t0 = WallNs();
  auto built = BuildStack(wl, spec.key_space, &spec, traced);
  if (!built.ok()) return built.status();
  pr.stack = std::move(*built);
  Stack& s = *pr.stack;
  workload::ScenarioStream stream(spec);
  {
    Client warm_client(0, &s.cache(), &values, &keys);
    std::vector<u64> lateness;
    ReplayScenario(stream, kScnWarmOps, s, warm_client, false, &lateness);
    if (warm_client.counts.bad_values != 0 || warm_client.counts.failed != 0) {
      return Status::Internal("warm-up stream: wrong bytes or failed ops");
    }
  }
  pr.setup_s = static_cast<double>(WallNs() - t0) * 1e-9;
  pr.evicted_before = s.cache().TotalStats().evicted_regions;

  pr.clients.push_back(std::make_unique<Client>(0, &s.cache(), &values, &keys));
  Client& c = *pr.clients[0];
  pr.before = TakeSnapshot(s);
  if (s.attribution) s.attribution->Reset();
  const double cpu0 = CpuSeconds();
  pr.epoch = WallNs();
  ReplayScenario(stream, 0, s, c, traced, &pr.lateness);
  pr.wall_s = static_cast<double>(WallNs() - pr.epoch) * 1e-9;
  pr.cpu_s = CpuSeconds() - cpu0;
  pr.after = TakeSnapshot(s);
  pr.max_inflight = s.registry.GetGauge("zns.io.max_inflight")->value();
  pr.counts = c.counts;
  pr.samples = std::move(c.samples);
  pr.shard_prefixes = s.shard_prefixes;
  auto delta = CounterDelta(pr.before.counters, pr.after.counters);
  if (!delta.ok()) return delta.status();
  pr.delta = std::move(*delta);
  pr.virtual_digest = Digest(pr.samples);
  if (!traced) {
    pr.stack.reset();
    pr.clients.clear();
  }
  return pr;
}

int RunOpen(const Options& o, const Workload& wl) {
  const workload::ScenarioSpec spec = CdnMix(o.seed, kScnScale);
  const Values values(o.seed, spec.size.max);
  std::vector<std::string> keys(spec.key_space);
  for (u64 k = 0; k < spec.key_space; ++k) {
    keys[k] = workload::CacheBenchRunner::KeyName(k);
  }
  Report rep;

  // Passes: each builds a fresh stack, replays the stream's warm-up prefix
  // (set-up), then the rest of the stream (measured). Repeated until
  // --seconds pass (at least two, which the determinism check compares); a
  // traced run alternates untraced and traced passes and keeps the stack
  // and spans of its last traced pass only.
  std::vector<PassResult> passes;
  const u64 start = WallNs();
  while (passes.size() < 2 ||
         static_cast<double>(WallNs() - start) * 1e-9 < o.seconds) {
    const bool traced = o.trace && passes.size() % 2 == 1;
    if (traced) {
      for (PassResult& p : passes) {
        p.stack.reset();
        p.clients.clear();
      }
    }
    auto pr = RunPass(wl, spec, values, keys, traced);
    if (!pr.ok()) {
      std::fprintf(stderr, "pass: %s\n", pr.status().ToString().c_str());
      return 2;
    }
    passes.push_back(std::move(*pr));
  }

  // Determinism: every pass replays the same seed, so every virtual
  // latency, the WA and the hit counts must repeat exactly; another seed
  // must change the stream.
  const u64 fp = workload::ScenarioFingerprint(spec);
  const u64 fp_other =
      workload::ScenarioFingerprint(CdnMix(o.seed + 1, kScnScale));
  rep.Check(fp != fp_other, "another seed gives the same stream fingerprint");
  const PassResult& first = passes.front();
  for (const PassResult& p : passes) {
    rep.Check(p.virtual_digest == first.virtual_digest &&
                  p.counts.hits == first.counts.hits &&
                  p.after.wa.flash_bytes - p.before.wa.flash_bytes ==
                      first.after.wa.flash_bytes - first.before.wa.flash_bytes,
              "determinism: a pass with the same seed diverged");
  }
  std::printf("scenario: cdn_mix x%.1f, %llu ops/pass (%llu warm-up), "
              "fingerprint %016llx, %zu passes, virtual digest %016llx\n",
              kScnScale, static_cast<unsigned long long>(spec.TotalOps()),
              static_cast<unsigned long long>(kScnWarmOps),
              static_cast<unsigned long long>(fp), passes.size(),
              static_cast<unsigned long long>(first.virtual_digest));

  EndToEnd e;
  std::vector<double> traced_rate, untraced_rate;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    CheckCounts(rep, p.counts, p.before, p.after, p.delta, p.shard_prefixes);
    const double rate = static_cast<double>(p.counts.ops) / p.wall_s;
    e.setup_s.push_back(p.setup_s);
    if (o.trace && i % 2 == 1) {
      traced_rate.push_back(rate);
      continue;
    }
    untraced_rate.push_back(rate);
    e.window_ops_per_s.push_back(rate);
    e.window_cpu_us_per_op.push_back(
        Ratio(p.cpu_s * 1e6, static_cast<double>(p.counts.ops)));
    e.counts.Add(p.counts);
    // Each pass is one window of wall samples. Virtual latencies repeat
    // exactly across passes: keep one copy.
    for (Lat k : {kGetWall, kSetWall}) {
      e.samples.windows[k].push_back(p.samples.windows[k].at(0));
    }
    if (i == 0) {
      for (Lat k : {kGetVirt, kSetVirt}) {
        e.samples.windows[k] = p.samples.windows[k];
      }
    }
  }
  e.hit_ratio = Ratio(static_cast<double>(first.counts.hits),
                      static_cast<double>(first.counts.gets));
  const zncache::cache::WaStats wa{
      first.after.wa.host_bytes - first.before.wa.host_bytes,
      first.after.wa.flash_bytes - first.before.wa.flash_bytes};
  e.wa = wa.Factor();

  // Regime assertions (identical on every pass; checked on the first).
  const std::string regime = "regime (scenario_serial): ";
  rep.Check(first.evicted_before > 0,
            regime + "cache not full after the warm-up stream");
  rep.Check(Get(first.delta, "middle.gc.migrated_regions") > 0,
            regime + "no GC migration in the measured stream");
  rep.Check(first.counts.set_rejected > 0, regime + "no admission reject");
  rep.Check(static_cast<double>(first.counts.set_bytes) >=
                kScnMinWriteX * static_cast<double>(kScnCacheBytes),
            regime + "measured stream wrote < 5x the cache");

  u64 attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.counts.ops;
    failed += p.counts.failed;
  }
  std::printf("ops: %llu measured over %zu passes (%llu gets, %llu sets, "
              "%llu deletes per pass)\n",
              static_cast<unsigned long long>(attempted), passes.size(),
              static_cast<unsigned long long>(first.counts.gets),
              static_cast<unsigned long long>(first.counts.sets),
              static_cast<unsigned long long>(first.counts.deletes));

  if (!o.trace) {
    AddEndToEnd(rep, e);
  } else {
    // Per-layer numbers from the last traced pass.
    const PassResult* tp = nullptr;
    for (const PassResult& p : passes) {
      if (p.stack) tp = &p;
    }
    auto totals = TraceTotals(o, wl, tp->epoch, tp->clients);
    if (!totals.ok()) {
      std::fprintf(stderr, "trace: %s\n", totals.status().ToString().c_str());
      return 2;
    }
    LayerInputs in;
    in.d = &tp->delta;
    in.shards = &tp->stack->shard_prefixes;
    in.ops = tp->counts.ops;
    in.gets = tp->counts.gets;
    in.virt_elapsed = tp->after.clock - tp->before.clock;
    in.max_inflight = tp->max_inflight;
    in.spans = std::move(*totals);
    for (SpanName n : {SpanName::kCacheGet, SpanName::kCacheSet,
                       SpanName::kCacheDelete}) {
      in.sampled_ops += in.spans[static_cast<size_t>(n)].calls;
    }
    in.traced_ops = tp->counts.ops;
    in.traced_client_ns = tp->wall_s * 1e9;
    in.attribution = tp->stack->attribution.get();
    in.load_gen_ns_per_op =
        Ratio(static_cast<double>(tp->counts.loop_ns - tp->counts.call_ns),
              static_cast<double>(tp->counts.ops));
    std::vector<u64> lateness = tp->lateness;
    const auto late = std::count_if(lateness.begin(), lateness.end(),
                                    [](u64 v) { return v > 0; });
    in.late_frac = Ratio(static_cast<double>(late),
                         static_cast<double>(lateness.size()));
    in.lag_p99_us = static_cast<double>(Percentile(lateness, 0.99)) / 1000.0;
    in.overhead_frac = 1.0 - Ratio(Median(traced_rate), Median(untraced_rate));
    AddPerLayer(rep, in);
  }
  rep.Print(attempted, failed);
  return rep.correct() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o->trace = std::string_view(v) == "1";
    } else if (flag == "--trace-file") {
      o->trace_file = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  if (o.trace_file.empty()) o.trace_file = "perfbench-" + o.workload + ".trace";
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  std::printf("perfbench workload=%s scheme=%s seed=%llu seconds=%g trace=%d "
              "clients=%u shards=%u host_cores=%u build=%s\n",
              wl->name,
              std::string(zncache::backends::SchemeName(wl->scheme)).c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, wl->clients, wl->shards,
              std::thread::hardware_concurrency(), build);
  std::printf("why: %s\n", wl->why);
  std::fflush(stdout);
  return wl->loop == Loop::kClosed ? RunClosed(o, *wl) : RunOpen(o, *wl);
}
