// Tests for the benchmark's own code: percentile math, the counter-delta
// helper, span self time and the trace file, and the TimingDevice
// decorator's pass-through guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "backends/schemes.h"
#include "common/random.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {
namespace {

using zncache::kKiB;
using zncache::kMiB;
using zncache::Rng;

// Definition-level reference: the first sorted value that at least a
// fraction q of the samples do not exceed.
u64 ReferencePercentile(std::vector<u64> v, double q) {
  std::sort(v.begin(), v.end());
  const double need = q * static_cast<double>(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    if (static_cast<double>(i + 1) >= need) return v[i];
  }
  return v.back();
}

TEST(PercentileTest, MatchesSortedReference) {
  Rng rng(7);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<u64> v(n);
    for (u64& x : v) x = rng.Uniform(500);  // plenty of ties
    for (double q : {0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<u64> work = v;
      EXPECT_EQ(Percentile(work, q), ReferencePercentile(v, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, EdgeCases) {
  std::vector<u64> empty;
  EXPECT_EQ(Percentile(empty, 0.5), 0u);
  std::vector<u64> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3u);
  EXPECT_EQ(Percentile(v, 0.0), 1u);
  EXPECT_EQ(Percentile(v, 1.0), 5u);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(QuantileTest, InterpolatesBetweenRanks) {
  EXPECT_EQ(Quantile({}, 0.25), 0.0);
  EXPECT_EQ(Quantile({7.0}, 0.75), 7.0);
  // Sorted 10 20 30 40 50: q = 0.25 is rank 1, q = 0.1 is 0.4 of the way
  // from rank 0 to rank 1.
  const std::vector<double> v = {50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_EQ(Quantile(v, 0.25), 20.0);
  EXPECT_EQ(Quantile(v, 0.75), 40.0);
  EXPECT_EQ(Quantile(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.1), 14.0);
}

TEST(CounterDeltaTest, DeltasMissingAndReset) {
  zncache::obs::Registry reg;
  reg.GetCounter("a")->Inc(5);
  const std::vector<std::string> names = {"a", "b"};
  const CounterValues before = ReadCounters(reg, names);
  EXPECT_EQ(Get(before, "a"), 5u);
  EXPECT_EQ(Get(before, "b"), 0u);  // registered on first read
  reg.GetCounter("a")->Inc(2);
  reg.GetCounter("b")->Inc(9);
  reg.GetCounter("c")->Inc(1);
  const std::vector<std::string> more = {"a", "b", "c"};
  auto d = CounterDelta(before, ReadCounters(reg, more));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(Get(*d, "a"), 2u);
  EXPECT_EQ(Get(*d, "b"), 9u);
  EXPECT_EQ(Get(*d, "c"), 1u);  // absent before: counts from 0
  EXPECT_EQ(Get(*d, "zzz"), 0u);

  const std::vector<std::string> prefixes = {"s0.", "s1."};
  reg.GetCounter("s0.ops")->Inc(3);
  reg.GetCounter("s1.ops")->Inc(4);
  const std::vector<std::string> shard_names = {"s0.ops", "s1.ops"};
  EXPECT_EQ(SumOver(ReadCounters(reg, shard_names), prefixes, "ops"), 7u);

  reg.Reset();
  EXPECT_FALSE(CounterDelta(before, ReadCounters(reg, names)).ok());
}

TEST(SpanTest, SelfTimeSubtractsDirectChildren) {
  SpanBuffer b(0);
  const u64 root = b.NextId();
  const u64 child = b.NextId();
  const u64 grandchild = b.NextId();
  const u64 child2 = b.NextId();
  b.Add(root, 0, SpanName::kCacheSet, 1000, 1100, 0);
  b.Add(child, root, SpanName::kBackendWrite, 1010, 1030, 4096);
  b.Add(grandchild, child, SpanName::kBackendPump, 1012, 1020, 0);
  b.Add(child2, root, SpanName::kBackendRead, 1040, 1050, 512);
  const auto t = SummarizeSpans(b.spans());
  const auto& set = t[static_cast<size_t>(SpanName::kCacheSet)];
  EXPECT_EQ(set.calls, 1u);
  EXPECT_EQ(set.total_ns, 100u);
  EXPECT_EQ(set.self_ns, 70u);
  const auto& write = t[static_cast<size_t>(SpanName::kBackendWrite)];
  EXPECT_EQ(write.self_ns, 12u);
  EXPECT_EQ(write.bytes, 4096u);
  EXPECT_EQ(t[static_cast<size_t>(SpanName::kBackendPump)].self_ns, 8u);
}

TEST(SpanTest, TraceFileRoundTrips) {
  SpanBuffer a(0), b(1);
  a.Add(a.NextId(), 0, SpanName::kCacheGet, 500, 900, 0);
  b.Add(b.NextId(), 0, SpanName::kCacheDelete, 600, 700, 0);
  b.Add(b.NextId(), b.spans()[0].id, SpanName::kBackendInvalidate, 610, 650,
        0);
  const std::string path = ::testing::TempDir() + "perfbench_roundtrip.trace";
  ASSERT_TRUE(WriteTrace(path, "test", 400, {&a, &b}).ok());
  auto spans = ReadTrace(path);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_EQ(spans->size(), 3u);
  EXPECT_EQ((*spans)[0].name, SpanName::kCacheGet);
  EXPECT_EQ((*spans)[0].start_ns, 100u);
  EXPECT_EQ((*spans)[0].end_ns, 500u);
  EXPECT_EQ((*spans)[2].parent, (*spans)[1].id);
  EXPECT_EQ((*spans)[2].thread, 1u);
  std::remove(path.c_str());
}

// The decorator must not change what the stack does: one client replays
// the same stream against a plain MakeShardedScheme stack and against one
// whose front-end sits on a recording TimingDevice, and every op result,
// the final virtual clock and the whole registry must match exactly.
using zncache::backends::SchemeKind;

class PassThroughTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(PassThroughTest, VirtualTimeAndCountersMatchUndecorated) {
  struct Run {
    zncache::obs::Registry registry;
    zncache::obs::Tracer tracer;
    zncache::sim::VirtualClock clock;
    std::unique_ptr<TimingDevice> timing;
    zncache::backends::ShardedSchemeInstance scheme;
  };
  auto build = [&](Run& r, bool decorated) {
    zncache::backends::SchemeParams p;
    p.zone_size = 4 * kMiB;
    p.region_size = 512 * kKiB;
    p.cache_bytes = 48 * kMiB;
    p.device_zones = GetParam() == SchemeKind::kRegion ? 18 : 0;
    p.min_empty_zones = 2;
    p.store_data = true;
    p.shards = 4;
    p.topology.channels = 4;
    p.topology.planes_per_channel = 2;
    p.metrics = &r.registry;
    p.tracer = &r.tracer;
    auto s = zncache::backends::MakeShardedScheme(GetParam(), p, &r.clock);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    r.scheme = std::move(*s);
    if (decorated) {
      r.timing = std::make_unique<TimingDevice>(r.scheme.device.get());
      RebuildFrontEnd(r.scheme, p, r.timing.get(), &r.clock);
    }
  };
  Run plain, decorated;
  build(plain, false);
  build(decorated, true);

  SpanBuffer spans(0);
  std::vector<char> bytes(32 * kKiB);
  Rng fill(3);
  for (char& c : bytes) c = static_cast<char>(fill.Next());
  Rng rng(11);
  std::string got_plain, got_decorated;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = std::to_string(rng.Uniform(6000));
    const double u = rng.NextDouble();
    const std::string_view value(bytes.data(),
                                 4 * kKiB + rng.Uniform(28 * kKiB));
    auto op = [&](Run& r, std::string* out) {
      if (u < 0.5) return r.scheme.cache->Get(key, out);
      if (u < 0.85) return r.scheme.cache->Set(key, value);
      return r.scheme.cache->Delete(key);
    };
    const auto a = op(plain, &got_plain);
    tls_trace = ThreadTrace{&spans, spans.NextId()};
    const auto b = op(decorated, &got_decorated);
    tls_trace = ThreadTrace{};
    ASSERT_EQ(a.ok(), b.ok()) << i;
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_EQ(a->hit, b->hit) << i;
    ASSERT_EQ(a->latency, b->latency) << i;
    if (u < 0.5 && a->hit) {
      ASSERT_EQ(got_plain, got_decorated) << i;
    }
    ASSERT_EQ(plain.clock.Now(), decorated.clock.Now()) << i;
  }
  EXPECT_EQ(plain.registry.ToJson(), decorated.registry.ToJson());
  EXPECT_GT(plain.scheme.cache->TotalStats().evicted_regions, 0u);

  const auto t = SummarizeSpans(spans.spans());
  EXPECT_GT(t[static_cast<size_t>(SpanName::kBackendRead)].calls, 0u);
  EXPECT_GT(t[static_cast<size_t>(SpanName::kBackendWrite)].calls, 0u);
  EXPECT_GT(t[static_cast<size_t>(SpanName::kBackendInvalidate)].calls, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, PassThroughTest,
                         ::testing::Values(SchemeKind::kRegion,
                                           SchemeKind::kZone));

}  // namespace
}  // namespace perfbench
