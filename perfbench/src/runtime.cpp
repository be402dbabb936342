#include "runtime.hpp"

#include <algorithm>
#include <exception>
#include <latch>
#include <numeric>
#include <span>
#include <thread>

#include "ccm/directory_client.hpp"
#include "ccm/remote_storage.hpp"
#include "net/tcp_transport.hpp"
#include "proc.hpp"
#include "timed.hpp"
#include "util/audit.hpp"

namespace perfbench {

using coop::cache::NodeId;

// ---- shapes and op streams ----

std::uint64_t RuntimeShape::total_blocks() const {
  return std::accumulate(file_blocks.begin(), file_blocks.end(),
                         std::uint64_t{0});
}

std::uint32_t RuntimeShape::write_target(std::size_t d,
                                         std::uint32_t f) const {
  const auto per_driver = static_cast<std::uint32_t>(file_blocks.size() /
                                                     drivers);
  return (f % per_driver) * static_cast<std::uint32_t>(drivers) +
         static_cast<std::uint32_t>(d);
}

std::optional<RuntimeShape> runtime_shape(const std::string& workload,
                                          std::uint64_t seed) {
  RuntimeShape s;
  s.name = workload;
  coop::sim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  if (workload == "read-zipf-spill") {
    // 224 files of 1-8 blocks (1008 blocks) over 4 x 128 cached blocks: the
    // working set is about twice the aggregate cache.
    s.blocks_per_node = 128;
    s.file_blocks.assign(224, 0);
    s.zipf_alpha = 0.75;
    s.warmup_ops = 800;
  } else if (workload == "write-mix") {
    // 96 files x 4 blocks = 384 blocks: 3/4 of the 512-block aggregate cache.
    s.blocks_per_node = 128;
    s.file_blocks.assign(96, 4);
    s.write_pct = 30;
    s.invalidate_pct = 5;
    s.warmup_ops = 600;
  } else if (workload == "tcp-mix") {
    // The ccm_stress default mix on 3 nodes, one per TcpTransport.
    s.nodes = 3;
    s.drivers = 3;
    s.blocks_per_node = 64;
    s.file_blocks.assign(48, 4);
    s.write_pct = 20;
    s.invalidate_pct = 2;
    s.tcp = true;
    s.warmup_ops = 200;
  } else {
    return std::nullopt;
  }
  if (s.zipf_alpha > 0) {
    s.zipf = std::make_shared<coop::sim::ZipfSampler>(s.file_blocks.size(),
                                                      s.zipf_alpha);
    s.by_rank.resize(s.file_blocks.size());
    std::iota(s.by_rank.begin(), s.by_rank.end(), 0u);
    for (std::size_t i = s.by_rank.size(); i > 1; --i) {
      std::swap(s.by_rank[i - 1], s.by_rank[rng.uniform_int(i)]);
    }
    // Sizes follow popularity rank, so every seed has the same hot-set
    // volume; the seed decides which files and which op streams.
    for (std::size_t r = 0; r < s.by_rank.size(); ++r) {
      s.file_blocks[s.by_rank[r]] = 1 + static_cast<std::uint32_t>(r * 3 % 8);
    }
  }
  return s;
}

OpStream::OpStream(const RuntimeShape& shape, std::uint64_t seed,
                   std::size_t driver)
    : shape_(shape), driver_(driver), rng_(seed * 1000 + driver) {}

Op OpStream::next() {
  Op op;
  ++issued_;
  op.file = shape_.zipf
                ? shape_.by_rank[shape_.zipf->sample(rng_)]
                : static_cast<std::uint32_t>(
                      rng_.uniform_int(shape_.file_blocks.size()));
  op.via = static_cast<NodeId>(rng_.uniform_int(shape_.nodes));
  if (shape_.tcp) op.via = static_cast<NodeId>(driver_);
  const auto roll = static_cast<int>(rng_.uniform_int(100));
  if (roll < shape_.write_pct) {
    op.kind = OpKind::kWrite;
    op.file = shape_.write_target(driver_, op.file);
    op.block = static_cast<std::uint32_t>(
        rng_.uniform_int(shape_.file_blocks[op.file]));
    op.version = issued_;
  } else if (roll < shape_.write_pct + shape_.invalidate_pct) {
    op.kind = OpKind::kInvalidate;
  }
  return op;
}

std::vector<BlockWrite> replay_writes(const RuntimeShape& shape,
                                      std::uint64_t seed,
                                      const std::vector<std::uint64_t>& ops) {
  std::vector<BlockWrite> writes;
  for (std::size_t d = 0; d < ops.size(); ++d) {
    OpStream stream(shape, seed, d);
    for (std::uint64_t i = 0; i < ops[d]; ++i) {
      const Op op = stream.next();
      if (op.kind == OpKind::kWrite) {
        writes.push_back({op.file, op.block, op.version});
      }
    }
  }
  return writes;
}

namespace {

// ---- deployments ----

/// Decorators' shared state in the traced phase.
struct Seams {
  SpanLog log;
  NetCounts net;
  DirCounts dir;
};

void add_stats(coop::ccm::CcmStats& into, const coop::ccm::CcmStats& s) {
  into.local_hits += s.local_hits;
  into.remote_hits += s.remote_hits;
  into.disk_reads += s.disk_reads;
  into.forwards_attempted += s.forwards_attempted;
  into.forwards_accepted += s.forwards_accepted;
  into.master_drops += s.master_drops;
  into.copy_drops += s.copy_drops;
  into.hint_misdirects += s.hint_misdirects;
  into.writes += s.writes;
  into.invalidations += s.invalidations;
  into.ownership_migrations += s.ownership_migrations;
  into.shards.resize(std::max(into.shards.size(), s.shards.size()));
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    into.shards[i].lock_acquired += s.shards[i].lock_acquired;
    into.shards[i].lock_contended += s.shards[i].lock_contended;
    into.shards[i].local_reads += s.shards[i].local_reads;
    into.shards[i].messages_sent += s.shards[i].messages_sent;
    into.shards[i].messages_handled += s.shards[i].messages_handled;
  }
  into.transport.sent += s.transport.sent;
  into.transport.rpcs += s.transport.rpcs;
  into.transport.flushes += s.transport.flushes;
  into.transport.payload_copies += s.transport.payload_copies;
  into.transport.rpc_retries += s.transport.rpc_retries;
  into.transport.rpc_timeouts += s.transport.rpc_timeouts;
  into.transport.rpc_failures += s.transport.rpc_failures;
  into.dir_client.singles += s.dir_client.singles;
  into.dir_client.batches += s.dir_client.batches;
  into.dir_client.batched_ops += s.dir_client.batched_ops;
  into.hint_hits += s.hint_hits;
  into.hint_stale += s.hint_stale;
}

/// One set-up of a runtime workload: the backing storage, seeded, and the
/// cluster (or, for TCP, one cluster per node over its own TcpTransport).
class Deployment {
 public:
  Deployment(const RuntimeShape& shape, std::uint64_t seed, Seams* seams)
      : storage_(std::make_shared<coop::ccm::BufferStorage>(
            file_sizes(shape.file_blocks))) {
    seed_storage(*storage_, shape.file_blocks, seed);
    coop::ccm::CcmConfig cfg;
    cfg.nodes = shape.nodes;
    cfg.block_bytes = kBlockBytes;
    cfg.capacity_bytes = shape.blocks_per_node * kBlockBytes;
    cfg.workers_per_node = shape.workers_per_node;

    // The storage, transport and directory the cluster is handed: the
    // plain objects, or the same objects inside timing decorators.
    const auto storage = [&](std::shared_ptr<coop::ccm::WritableStorage> s)
        -> std::shared_ptr<coop::ccm::WritableStorage> {
      if (!seams) return s;
      return std::make_shared<TimedStorage>(std::move(s), seams->log);
    };
    const auto transport = [&](std::shared_ptr<coop::net::Transport> t)
        -> std::shared_ptr<coop::net::Transport> {
      if (!seams) return t;
      return std::make_shared<TimedTransport>(std::move(t), seams->log,
                                              seams->net);
    };
    const auto directory = [&](std::shared_ptr<coop::ccm::DirectoryClient> d)
        -> std::shared_ptr<coop::ccm::DirectoryClient> {
      if (!seams) return d;
      return std::make_shared<TimedDirectory>(std::move(d), seams->log,
                                              seams->dir);
    };
    const auto local_directory = [&] {
      return std::make_shared<coop::ccm::LocalDirectory>(
          cfg.nodes, cfg.directory,
          coop::cache::CoopCacheConfig{}.hint_staleness);
    };

    if (!shape.tcp) {
      coop::ccm::CcmHosting hosting;
      if (seams) {
        hosting.transport = transport(
            std::make_shared<coop::net::InProcTransport>(cfg.nodes));
        hosting.directory = directory(local_directory());
      }
      clusters_.push_back(std::make_unique<coop::ccm::CcmCluster>(
          cfg, storage(storage_), hosting));
      return;
    }

    std::vector<coop::net::TcpPeer> peers;
    for (std::size_t n = 0; n < shape.nodes; ++n) {
      coop::net::TcpConfig tc;
      tc.local_node = static_cast<NodeId>(n);
      tc.nodes = shape.nodes;
      tcp_.push_back(std::make_shared<coop::net::TcpTransport>(tc));
      peers.push_back({"127.0.0.1", tcp_.back()->listen_port()});
    }
    std::vector<std::exception_ptr> errors(shape.nodes);
    {
      std::vector<std::thread> mesh;
      for (std::size_t n = 0; n < shape.nodes; ++n) {
        mesh.emplace_back([&, n] {
          try {
            tcp_[n]->connect_peers(peers);
          } catch (...) {
            errors[n] = std::current_exception();
          }
        });
      }
      for (auto& t : mesh) t.join();
    }
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    const auto sizes = file_sizes(shape.file_blocks);
    for (std::size_t n = 0; n < shape.nodes; ++n) {
      const auto node = static_cast<NodeId>(n);
      coop::ccm::CcmHosting hosting;
      hosting.transport = transport(tcp_[n]);
      hosting.local_nodes = {node};
      hosting.home = 0;
      std::shared_ptr<coop::ccm::WritableStorage> s;
      if (n == 0) {
        s = storage(storage_);
        if (seams) hosting.directory = directory(local_directory());
      } else {
        s = storage(std::make_shared<coop::ccm::RemoteStorage>(
            hosting.transport, node, 0, sizes));
        hosting.directory = directory(std::make_shared<coop::ccm::RemoteDirectory>(
            hosting.transport, node, 0));
      }
      clusters_.push_back(
          std::make_unique<coop::ccm::CcmCluster>(cfg, s, hosting));
    }
  }

  ~Deployment() {
    // Peers first: their shutdown still talks to the home node.
    while (!clusters_.empty()) clusters_.pop_back();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  coop::ccm::CcmCluster& cluster_for(std::size_t driver) {
    return clusters_.size() == 1 ? *clusters_[0] : *clusters_[driver];
  }
  [[nodiscard]] const std::shared_ptr<coop::ccm::BufferStorage>& storage()
      const {
    return storage_;
  }

  [[nodiscard]] coop::ccm::CcmStats stats() const {
    coop::ccm::CcmStats total;
    for (const auto& c : clusters_) add_stats(total, c->stats());
    // Directory ops are counted where the directory lives: node 0.
    total.directory = clusters_.front()->stats().directory;
    return total;
  }
  [[nodiscard]] coop::obs::MetricsSnapshot snapshot() const {
    coop::obs::MetricsSnapshot s = clusters_.front()->metrics().snapshot();
    for (std::size_t i = 1; i < clusters_.size(); ++i) {
      s.merge(clusters_[i]->metrics().snapshot());
    }
    return s;
  }
  void reset_stats() {
    for (const auto& c : clusters_) c->reset_stats();
  }
  std::size_t audit() const {
    return clusters_.front()->audit("perfbench-final");
  }

 private:
  std::shared_ptr<coop::ccm::BufferStorage> storage_;
  std::vector<std::shared_ptr<coop::net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<coop::ccm::CcmCluster>> clusters_;
};

// ---- drivers ----

/// One timed op, packed so the pre-touched sample buffers stay small.
struct Sample {
  std::uint32_t ns;      // op wall time, saturating
  std::uint16_t window;  // throughput window it completed in
  OpKind kind;
};

struct DriverOut {
  std::uint64_t ops = 0;  // every op issued, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;  // timed reads
  /// Fixed buffer allocated and touched before set-up, so the process's
  /// peak RSS does not grow with the number of ops measured.
  std::span<Sample> samples;
  std::size_t recorded = 0;
  std::uint64_t dropped = 0;  // timed ops beyond the buffer
  std::vector<std::uint64_t> windows;
  std::uint64_t last_end_ns = 0;
  std::string first_error;
};

std::string check_read(const RuntimeShape& shape, std::uint64_t seed,
                       const Op& op, const std::vector<std::byte>& bytes) {
  const std::uint32_t blocks = shape.file_blocks[op.file];
  if (bytes.size() != static_cast<std::size_t>(blocks) * kBlockBytes) {
    return "read of file " + std::to_string(op.file) + " returned " +
           std::to_string(bytes.size()) + " bytes";
  }
  const std::span<const std::byte> all(bytes);
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const auto version = check_block(
        all.subspan(static_cast<std::size_t>(b) * kBlockBytes, kBlockBytes),
        seed, op.file, b);
    if (!version || (shape.write_pct == 0 && *version != 0)) {
      return "read of file " + std::to_string(op.file) +
             " returned wrong bytes in block " + std::to_string(b);
    }
  }
  return {};
}

/// When a driver stops: after `count` ops, or (count == 0) at `deadline`.
struct Stop {
  std::uint64_t count = 0;
  std::uint64_t deadline_ns = 0;
};

/// Issues driver `d`'s next ops until `stop`; timed ops (`t_start` != 0)
/// record latency samples and throughput windows.
void drive(Deployment& dep, const RuntimeShape& shape, std::uint64_t seed,
           std::size_t d, OpStream& stream, Stop stop, std::uint64_t t_start,
           std::uint64_t window_ns, SpanLog* log, DriverOut& out) {
  coop::ccm::CcmCluster& cluster = dep.cluster_for(d);
  std::vector<std::byte> bytes;
  std::vector<std::byte> block(kBlockBytes);
  for (std::uint64_t i = 0;; ++i) {
    if (stop.count ? i >= stop.count : now_ns() >= stop.deadline_ns) break;
    const Op op = stream.next();
    ++out.ops;
    if (op.kind == OpKind::kWrite) {
      fill_block(block, seed, op.file, op.block, op.version);
    }
    if (log) set_current_op((static_cast<std::uint64_t>(d) << 40) | out.ops);
    std::string error;
    const std::uint64_t t0 = now_ns();
    try {
      switch (op.kind) {
        case OpKind::kRead:
          bytes = cluster.read(op.via, op.file);
          break;
        case OpKind::kWrite:
          cluster.write(op.via, op.file,
                        static_cast<std::uint64_t>(op.block) * kBlockBytes,
                        block);
          break;
        case OpKind::kInvalidate:
          cluster.invalidate(op.file);
          break;
      }
    } catch (const std::exception& e) {
      error = std::string("op threw: ") + e.what();
    }
    const std::uint64_t t1 = now_ns();
    if (log) {
      static constexpr SpanKind kKinds[] = {
          SpanKind::kOpRead, SpanKind::kOpWrite, SpanKind::kOpInvalidate};
      log->record(kKinds[static_cast<int>(op.kind)], t0, t1);
      set_current_op(0);
    }
    if (error.empty() && op.kind == OpKind::kRead) {
      error = check_read(shape, seed, op, bytes);
    }
    if (!error.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = error;
    }
    if (t_start == 0) continue;
    if (op.kind == OpKind::kRead) ++out.reads;
    out.last_end_ns = t1;
    const std::uint64_t w =
        std::min<std::uint64_t>((t1 - t_start) / window_ns, out.windows.size());
    if (w < out.windows.size()) ++out.windows[w];
    if (out.recorded < out.samples.size()) {
      out.samples[out.recorded++] = {
          static_cast<std::uint32_t>(std::min<std::uint64_t>(t1 - t0, UINT32_MAX)),
          static_cast<std::uint16_t>(w), op.kind};
    } else {
      ++out.dropped;
    }
  }
}

/// Runs `fn(d)` on one thread per driver and joins them.
template <typename F>
void on_drivers(std::size_t drivers, F&& fn) {
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < drivers; ++d) threads.emplace_back(fn, d);
  for (auto& t : threads) t.join();
}

}  // namespace

PhaseResult run_runtime_phase(const RuntimeShape& shape, std::uint64_t seed,
                              const RuntimeOptions& options) {
  PhaseResult r;
  // Violations any thread reports during the phase are collected, not
  // fatal: they mark the run failed with their text.
  coop::audit::Recorder recorder;
  std::unique_ptr<Seams> seams;
  std::unique_ptr<Deployment> dep;
  std::vector<OpStream> streams;
  std::vector<DriverOut> outs;
  std::uint64_t warmup_failed = 0;
  const std::size_t capacity =
      options.ops_per_driver
          ? options.ops_per_driver
          : static_cast<std::size_t>(options.seconds * kSamplesPerSecond) + 1;
  std::vector<std::vector<Sample>> buffers(
      shape.drivers, std::vector<Sample>(capacity, Sample{1, 1, OpKind::kRead}));

  for (int k = 0; k < std::max(1, options.setups); ++k) {
    dep.reset();
    seams.reset();
    const std::uint64_t t0 = now_ns();
    if (options.traced) seams = std::make_unique<Seams>();
    dep = std::make_unique<Deployment>(shape, seed, seams.get());
    streams.clear();
    for (std::size_t d = 0; d < shape.drivers; ++d) {
      streams.emplace_back(shape, seed, d);
    }
    outs.assign(shape.drivers, DriverOut{});
    on_drivers(shape.drivers, [&](std::size_t d) {
      drive(*dep, shape, seed, d, streams[d], Stop{shape.warmup_ops, 0}, 0, 1,
            nullptr, outs[d]);
    });
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (const DriverOut& o : outs) {
      r.attempted += o.ops;
      warmup_failed += o.failed;
      if (!o.first_error.empty()) r.violations.push_back(o.first_error);
    }
  }
  // Ops each driver issued against the measured set-up (the replay input).
  std::vector<std::uint64_t> executed(shape.drivers);
  for (std::size_t d = 0; d < shape.drivers; ++d) executed[d] = outs[d].ops;
  r.failed = warmup_failed;

  const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const auto windows = static_cast<std::size_t>(options.seconds / kWindowSeconds);
  for (std::size_t d = 0; d < shape.drivers; ++d) {
    outs[d] = DriverOut{};
    outs[d].windows.assign(windows, 0);
    outs[d].samples = buffers[d];
  }
  std::latch go(static_cast<std::ptrdiff_t>(shape.drivers) + 1);
  std::uint64_t t_start = 0;
  Stop stop{options.ops_per_driver, 0};
  SpanLog* log = seams ? &seams->log : nullptr;
  dep->reset_stats();
  if (seams) {
    seams->net.reset();
    seams->dir.reset();
  }
  Usage u0;
  {
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < shape.drivers; ++d) {
      threads.emplace_back([&, d] {
        go.arrive_and_wait();
        drive(*dep, shape, seed, d, streams[d], stop, t_start, window_ns, log,
              outs[d]);
      });
    }
    u0 = usage_now();
    t_start = now_ns();
    stop.deadline_ns =
        t_start + static_cast<std::uint64_t>(options.seconds * 1e9);
    go.arrive_and_wait();
    for (auto& t : threads) t.join();
  }
  const Usage u1 = usage_now();
  std::uint64_t t_end = t_start;
  std::vector<std::uint64_t> window_total(windows, 0);
  for (std::size_t d = 0; d < shape.drivers; ++d) {
    const DriverOut& o = outs[d];
    executed[d] += o.ops;
    r.attempted += o.ops;
    r.failed += o.failed;
    r.reads += o.reads;
    if (!o.first_error.empty()) r.violations.push_back(o.first_error);
    r.samples_dropped += o.dropped;
    for (const Sample& s : o.samples.first(o.recorded)) {
      const double us = static_cast<double>(s.ns) / 1e3;
      r.op_us.push_back(us);
      r.op_window.push_back(s.window);
      if (s.kind == OpKind::kRead) r.read_us.push_back(us);
      if (s.kind == OpKind::kWrite) r.write_us.push_back(us);
    }
    t_end = std::max(t_end, o.last_end_ns);
    for (std::size_t w = 0; w < windows; ++w) window_total[w] += o.windows[w];
  }
  r.wall_s = static_cast<double>(t_end - t_start) / 1e9;
  for (const std::uint64_t n : window_total) {
    r.window_ops_per_s.push_back(static_cast<double>(n) / kWindowSeconds);
  }
  r.user_s = u1.user_s - u0.user_s;
  r.sys_s = u1.sys_s - u0.sys_s;
  r.vol_ctx_switches = u1.vol_ctx_switches - u0.vol_ctx_switches;
  r.peak_rss_mb = u1.peak_rss_mb;
  r.protocol_threads = shape.nodes;
  r.stats = dep->stats();
  r.snapshot = dep->snapshot();
  // The whole-cluster audit needs every node in one cluster object.
  if (!shape.tcp) r.audit_violations = dep->audit();

  const auto storage = dep->storage();
  dep.reset();
  if (seams) {
    // Keep the timed phase only: set-up and warm-up spans are dropped.
    for (const Span& s : seams->log.collect()) {
      if (s.start_ns >= t_start) r.spans.push_back(s);
    }
    r.spans_dropped = seams->log.dropped();
    r.seams.net_calls = seams->net.calls.load();
    r.seams.net_messages = seams->net.messages.load();
    r.seams.net_bytes = seams->net.bytes.load();
    r.seams.dir_singles = seams->dir.singles.load();
    r.seams.dir_batches = seams->dir.batches.load();
    r.seams.dir_batched_ops = seams->dir.batched_ops.load();
  }

  if (const auto mismatch = replay_mismatch(
          *storage, shape.file_blocks, seed,
          replay_writes(shape, seed, executed))) {
    r.violations.push_back(*mismatch);
    r.final_check_failed = true;
  }
  for (const auto& v : recorder.violations()) {
    r.violations.push_back("[" + v.invariant + "]: " + v.detail);
    r.final_check_failed = true;
  }
  if (options.keep_storage) {
    for (std::uint32_t f = 0; f < storage->file_count(); ++f) {
      std::vector<std::byte> bytes(storage->file_size(f));
      storage->read(f, 0, bytes);
      r.final_storage.insert(r.final_storage.end(), bytes.begin(),
                             bytes.end());
    }
  }
  return r;
}

}  // namespace perfbench
