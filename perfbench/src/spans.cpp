#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_log_id{1};

thread_local std::uint64_t t_current_op = 0;

// One-entry cache of this thread's buffer in the most recent log it wrote
// to. Log ids are never reused, so a stale entry can never match.
struct LocalCache {
  std::uint64_t log_id = 0;
  void* buf = nullptr;
};
thread_local LocalCache t_cache;

}  // namespace

const char* span_label(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOpRead: return "ccm.api/read";
    case SpanKind::kOpWrite: return "ccm.api/write";
    case SpanKind::kOpInvalidate: return "ccm.api/invalidate";
    case SpanKind::kDirSingle: return "proto.dir/single";
    case SpanKind::kDirBatch: return "proto.dir/batch";
    case SpanKind::kNetCall: return "net/call";
    case SpanKind::kHandler: return "ccm/handler";
    case SpanKind::kStorageRead: return "ccm.storage/read";
    case SpanKind::kStorageWrite: return "ccm.storage/write";
    case SpanKind::kTraceGenerate: return "trace/generate";
    case SpanKind::kSimL2s: return "server/l2s";
    case SpanKind::kSimCcNem: return "server/cc-nem";
    case SpanKind::kCount: break;
  }
  return "?";
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_current_op(std::uint64_t op) { t_current_op = op; }

SpanLog::SpanLog()
    : id_(g_next_log_id.fetch_add(1, std::memory_order_relaxed)) {}

SpanLog::ThreadBuf& SpanLog::local() {
  if (t_cache.log_id == id_) return *static_cast<ThreadBuf*>(t_cache.buf);
  std::scoped_lock lock(mu_);
  auto buf = std::make_unique<ThreadBuf>();
  buf->index = static_cast<std::uint32_t>(bufs_.size());
  t_cache = {id_, buf.get()};
  bufs_.push_back(std::move(buf));
  return *bufs_.back();
}

void SpanLog::record(SpanKind kind, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= kCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuf& buf = local();
  buf.spans.push_back({start_ns, end_ns, t_current_op, buf.index, kind});
}

std::vector<Span> SpanLog::collect() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> out;
  for (const auto& b : bufs_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

SpanAnalysis analyze(std::vector<Span> spans) {
  // Per thread, parents sort before the children they contain.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  const std::size_t n = spans.size();
  std::vector<std::uint64_t> child_ns(n, 0);
  std::vector<bool> served(n, false);  // inside a handler span

  struct Open {
    std::size_t index;
    bool served;
  };
  std::vector<Open> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].thread != s.thread) stack.clear();
    // Close every open span that does not contain this one.
    while (!stack.empty()) {
      const Span& top = spans[stack.back().index];
      if (top.start_ns <= s.start_ns && s.end_ns <= top.end_ns) break;
      stack.pop_back();
    }
    bool in_handler = false;
    if (!stack.empty()) {
      child_ns[stack.back().index] += s.end_ns - s.start_ns;
      in_handler = stack.back().served;
    }
    served[i] = in_handler;
    stack.push_back({i, in_handler || s.kind == SpanKind::kHandler});
  }

  SpanAnalysis out;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    KindStats& k = out.kinds[static_cast<std::size_t>(s.kind)];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const double dur_us = static_cast<double>(dur) / 1e3;
    const double self_us =
        static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e3;
    ++k.count;
    k.total_us += dur_us;
    k.self_us += self_us;
    k.dur_us.push_back(dur_us);
    if (!served[i]) {
      ++k.direct_count;
      k.direct_self_us += self_us;
      k.direct_dur_us.push_back(dur_us);
    }
  }
  return out;
}

bool write_trace_json(const std::vector<Span>& spans, std::size_t limit,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  // The earliest `limit` spans across all threads.
  std::vector<Span> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const std::uint64_t t0 = sorted.empty() ? 0 : sorted.front().start_ns;
  out << "{\"traceEvents\":[";
  const std::size_t count = std::min(limit, sorted.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = sorted[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << span_label(s.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"op\":" << s.op << "}}";
  }
  out << "\n],\"otherData\":{\"spans\":" << spans.size()
      << ",\"written\":" << count << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
