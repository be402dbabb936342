// In-memory span recording for the traced run.
//
// Each timing decorator call and each driver op records one span: its kind
// (which names the layer), start, end, the recording thread, and the driver
// op id when the call happens on the driver thread. Spans go to per-thread
// buffers (no shared lock on the record path) and are collected once the run
// is quiescent, then analysed: a span's self time is its duration minus the
// child spans nested inside it on the same thread.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kOpRead,         // driver: CcmCluster::read
  kOpWrite,        // driver: CcmCluster::write
  kOpInvalidate,   // driver: CcmCluster::invalidate
  kDirSingle,      // DirectoryClient single-op call
  kDirBatch,       // DirectoryClient::batch round trip
  kNetCall,        // Transport::call round trip
  kHandler,        // protocol thread: receive() returning -> reply post()
  kStorageRead,    // Storage::read
  kStorageWrite,   // WritableStorage::write
  kTraceGenerate,  // trace::generate
  kSimL2s,         // run_simulation, L2S
  kSimCcNem,       // run_simulation, CC-NEM
  kCount
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

/// "layer/name" label of a span kind (trace file and report).
const char* span_label(SpanKind kind);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;  // driver op id, 0 off the driver thread
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::kCount;
};

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();

/// The driver op in progress on this thread (0 = none); spans recorded on
/// this thread carry it.
void set_current_op(std::uint64_t op);

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Spans beyond this are counted in dropped() instead of stored.
  static constexpr std::size_t kCapacity = 4u << 20;

  void record(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Every recorded span; call once recording threads are quiescent.
  [[nodiscard]] std::vector<Span> collect() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct ThreadBuf {
    std::uint32_t index = 0;
    std::vector<Span> spans;
  };
  ThreadBuf& local();

  const std::uint64_t id_;
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

/// Records one span from construction to destruction, so a call that
/// throws is still timed.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind)
      : log_(log), kind_(kind), t0_(now_ns()) {}
  ~ScopedSpan() { log_.record(kind_, t0_, now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  SpanKind kind_;
  std::uint64_t t0_;
};

/// Per-kind aggregate of a span set.
struct KindStats {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> dur_us;
  /// The subset not nested (at any depth) inside a handler span: calls a
  /// node makes on its own behalf, as opposed to work it serves for a peer.
  std::uint64_t direct_count = 0;
  double direct_self_us = 0.0;
  std::vector<double> direct_dur_us;
};

struct SpanAnalysis {
  std::array<KindStats, kSpanKinds> kinds;
  [[nodiscard]] const KindStats& operator[](SpanKind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
};

/// Nests each thread's spans by interval containment and aggregates
/// duration, self time and the direct/served split per kind.
SpanAnalysis analyze(std::vector<Span> spans);

/// Writes the earliest `limit` spans as Chrome trace-event JSON (opens in Perfetto
/// or chrome://tracing). Returns false when the file cannot be written.
bool write_trace_json(const std::vector<Span>& spans, std::size_t limit,
                      const std::string& path);

}  // namespace perfbench
