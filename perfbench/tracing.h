// Wall-clock spans for the traced run: one span around each ShardedCache
// call the load generator makes, and one around each call that crosses the
// RegionDevice boundary below it (TimingDevice). A span names its parent,
// so a layer's self time is its duration minus the time its children
// cover. Spans live in per-thread memory buffers while the run measures and
// are written to a trace file at exit, from which the self times are
// computed.
#pragma once

#include <chrono>
#include <string>
#include <type_traits>
#include <vector>

#include "backends/schemes.h"
#include "cache/region_device.h"
#include "common/status.h"
#include "common/types.h"

namespace perfbench {

using zncache::u32;
using zncache::u64;

enum class SpanName : zncache::u8 {
  kCacheGet,
  kCacheSet,
  kCacheDelete,
  kBackendWrite,
  kBackendSubmit,
  kBackendComplete,
  kBackendRead,
  kBackendInvalidate,
  kBackendPump,
};
inline constexpr size_t kSpanNameCount =
    static_cast<size_t>(SpanName::kBackendPump) + 1;

const char* SpanNameStr(SpanName n);

struct Span {
  u64 id = 0;      // unique in the trace: ((thread + 1) << 40) | sequence
  u64 parent = 0;  // 0 = root (a cache call)
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 bytes = 0;  // payload bytes the call moved (read/write only)
  u32 thread = 0;
  SpanName name = SpanName::kCacheGet;
};

inline u64 WallNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One client thread's spans. Not synchronized: only its thread appends,
// and it is read after the thread has been joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(u32 thread) : thread_(thread) {}

  u64 NextId() { return (static_cast<u64>(thread_ + 1) << 40) | ++seq_; }
  void Add(u64 id, u64 parent, SpanName name, u64 start_ns, u64 end_ns,
           u64 bytes) {
    spans_.push_back(Span{id, parent, start_ns, end_ns, bytes, thread_, name});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  u32 thread_;
  u64 seq_ = 0;
  std::vector<Span> spans_;
};

// The calling thread's recording state. A client sets `buffer` and
// `parent` around a sampled cache call; TimingDevice records into it only
// while `buffer` is set, so calls outside a sampled op cost one TLS load.
struct ThreadTrace {
  SpanBuffer* buffer = nullptr;
  u64 parent = 0;
};
inline thread_local ThreadTrace tls_trace;

// RegionDevice decorator that times every call crossing the boundary
// between the cache front-end and the scheme's device. Every virtual
// method forwards to the wrapped device unchanged (all four WriteRegion /
// SubmitWriteRegion overloads included), so the stack below sees the
// exact call sequence it would see undecorated.
class TimingDevice final : public zncache::cache::RegionDevice {
 public:
  using RegionId = zncache::cache::RegionId;
  using RegionIo = zncache::cache::RegionIo;
  template <typename T>
  using Result = zncache::Result<T>;
  using Status = zncache::Status;
  using IoMode = zncache::sim::IoMode;
  using TempClass = zncache::TempClass;
  using Bytes = std::span<const std::byte>;

  explicit TimingDevice(zncache::cache::RegionDevice* inner) : inner_(inner) {}

  u64 region_size() const override { return inner_->region_size(); }
  u64 region_count() const override { return inner_->region_count(); }

  Result<RegionIo> WriteRegion(RegionId id, Bytes data,
                               IoMode mode) override {
    return Timed(SpanName::kBackendWrite, data.size(),
                 [&] { return inner_->WriteRegion(id, data, mode); });
  }
  Result<RegionIo> WriteRegion(RegionId id, Bytes data, IoMode mode,
                               TempClass temp) override {
    return Timed(SpanName::kBackendWrite, data.size(),
                 [&] { return inner_->WriteRegion(id, data, mode, temp); });
  }
  PendingRegionIo SubmitWriteRegion(RegionId id, Bytes data,
                                    IoMode mode) override {
    return Timed(SpanName::kBackendSubmit, data.size(),
                 [&] { return inner_->SubmitWriteRegion(id, data, mode); });
  }
  PendingRegionIo SubmitWriteRegion(RegionId id, Bytes data, IoMode mode,
                                    TempClass temp) override {
    return Timed(SpanName::kBackendSubmit, data.size(), [&] {
      return inner_->SubmitWriteRegion(id, data, mode, temp);
    });
  }
  Result<RegionIo> CompleteWriteRegion(const PendingRegionIo& p,
                                       IoMode mode) override {
    return Timed(SpanName::kBackendComplete, 0,
                 [&] { return inner_->CompleteWriteRegion(p, mode); });
  }
  Result<RegionIo> ReadRegion(RegionId id, u64 offset,
                              std::span<std::byte> out) override {
    return Timed(SpanName::kBackendRead, out.size(),
                 [&] { return inner_->ReadRegion(id, offset, out); });
  }
  Status InvalidateRegion(RegionId id) override {
    return Timed(SpanName::kBackendInvalidate, 0,
                 [&] { return inner_->InvalidateRegion(id); });
  }
  Status PumpBackground() override {
    return Timed(SpanName::kBackendPump, 0,
                 [&] { return inner_->PumpBackground(); });
  }
  Status Restart() override { return inner_->Restart(); }
  bool RegionUsable(RegionId id) const override {
    return inner_->RegionUsable(id);
  }
  zncache::cache::WaStats wa_stats() const override {
    return inner_->wa_stats();
  }
  std::string name() const override { return inner_->name(); }

 private:
  template <typename F>
  std::invoke_result_t<F&> Timed(SpanName name, u64 bytes, F&& call) {
    ThreadTrace& t = tls_trace;
    if (t.buffer == nullptr) return call();
    const u64 id = t.buffer->NextId();
    const u64 parent = t.parent;
    t.parent = id;
    const u64 start = WallNs();
    auto result = call();
    const u64 end = WallNs();
    t.parent = parent;
    t.buffer->Add(id, parent, name, start, end, bytes);
    return result;
  }

  zncache::cache::RegionDevice* inner_;  // not owned
};

// Replaces `scheme`'s front-end with one over `device` (a decorator of
// scheme.device), configured exactly as MakeShardedScheme configures it
// from `params`.
void RebuildFrontEnd(zncache::backends::ShardedSchemeInstance& scheme,
                     const zncache::backends::SchemeParams& params,
                     zncache::cache::RegionDevice* device,
                     zncache::sim::VirtualClock* clock);

// Per-name totals over a trace. Self time is a span's duration minus the
// part its direct children cover (children of one span run on its thread,
// nested inside it, so they never overlap each other).
struct SpanTotals {
  u64 calls = 0;
  u64 total_ns = 0;
  u64 self_ns = 0;
  u64 bytes = 0;
};
std::vector<SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

// Trace file: a '#' header line with `header` (free text), a column line,
// then one tab-separated line per span, times relative to `epoch_ns`.
zncache::Status WriteTrace(const std::string& path, const std::string& header,
                           u64 epoch_ns,
                           const std::vector<const SpanBuffer*>& buffers);
// Reads a file written by WriteTrace back (times stay epoch-relative).
zncache::Result<std::vector<Span>> ReadTrace(const std::string& path);

}  // namespace perfbench
