// Timing decorators for the three objects CcmCluster takes by injection:
// WritableStorage, net::Transport and DirectoryClient. Each forwards every
// call to the wrapped object and records one span per call (plus counts at
// the same seam) into a SpanLog. They exist only in the traced run; the
// runs that produce end-to-end metrics never construct them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "ccm/directory_client.hpp"
#include "ccm/storage.hpp"
#include "net/transport.hpp"
#include "spans.hpp"

namespace perfbench {

/// Message counts at the transport seam (summed over every decorated
/// transport of a cluster).
struct NetCounts {
  std::atomic<std::uint64_t> calls{0};     // call() round trips
  std::atomic<std::uint64_t> messages{0};  // requests + replies + posts
  /// Logical wire bytes: proto::kWireSize per message plus ready payloads.
  std::atomic<std::uint64_t> bytes{0};

  void reset() {
    for (auto* c : {&calls, &messages, &bytes}) c->store(0);
  }
};

/// Directory round trips at the DirectoryClient seam.
struct DirCounts {
  std::atomic<std::uint64_t> singles{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_ops{0};

  void reset() {
    for (auto* c : {&singles, &batches, &batched_ops}) c->store(0);
  }
};

class TimedStorage final : public coop::ccm::WritableStorage {
 public:
  TimedStorage(std::shared_ptr<coop::ccm::WritableStorage> inner,
               SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::size_t file_count() const override {
    return inner_->file_count();
  }
  [[nodiscard]] std::uint64_t file_size(
      coop::cache::FileId file) const override {
    return inner_->file_size(file);
  }
  void read(coop::cache::FileId file, std::uint64_t offset,
            std::span<std::byte> out) const override;
  void write(coop::cache::FileId file, std::uint64_t offset,
             std::span<const std::byte> data) override;

 private:
  std::shared_ptr<coop::ccm::WritableStorage> inner_;
  SpanLog& log_;
};

class TimedTransport final : public coop::net::Transport {
 public:
  TimedTransport(std::shared_ptr<coop::net::Transport> inner, SpanLog& log,
                 NetCounts& counts)
      : inner_(std::move(inner)), log_(log), counts_(counts) {}

  bool post(coop::net::Envelope env) override;
  std::optional<coop::net::Envelope> receive(
      coop::cache::NodeId node) override;
  void close() override { inner_->close(); }
  [[nodiscard]] coop::net::TransportStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t peer_oldest_age(
      coop::cache::NodeId n) const override {
    return inner_->peer_oldest_age(n);
  }
  [[nodiscard]] bool peer_full(coop::cache::NodeId n) const override {
    return inner_->peer_full(n);
  }

 protected:
  coop::net::Envelope call_impl(coop::net::Envelope env) override;

 private:
  void count_message(const coop::net::Envelope& env);

  std::shared_ptr<coop::net::Transport> inner_;
  SpanLog& log_;
  NetCounts& counts_;
};

class TimedDirectory final : public coop::ccm::DirectoryClient {
 public:
  TimedDirectory(std::shared_ptr<coop::ccm::DirectoryClient> inner,
                 SpanLog& log, DirCounts& counts)
      : inner_(std::move(inner)), log_(log), counts_(counts) {}

  coop::proto::DirectoryService::Ops ops() override { return inner_->ops(); }
  void reset_ops() override { inner_->reset_ops(); }
  double hint_accuracy() override { return inner_->hint_accuracy(); }
  coop::cache::NodeId hint_truth(const coop::cache::BlockId& b) override {
    return inner_->hint_truth(b);
  }
  std::size_t master_count() override { return inner_->master_count(); }
  std::size_t audit(const char* context) override {
    return inner_->audit(context);
  }
  coop::proto::DirectoryService* service() override {
    return inner_->service();
  }

 protected:
  coop::proto::DirectoryService::ReadLookup lookup_for_read_impl(
      coop::cache::NodeId node, const coop::cache::BlockId& b) override;
  coop::cache::NodeId lookup_impl(const coop::cache::BlockId& b) override;
  bool try_claim_impl(const coop::cache::BlockId& b,
                      coop::cache::NodeId node) override;
  std::optional<std::uint64_t> begin_forward_impl(
      const coop::cache::BlockId& b, coop::cache::NodeId from) override;
  bool claim_forwarded_impl(const coop::cache::BlockId& b,
                            coop::cache::NodeId to, coop::cache::NodeId from,
                            std::uint64_t epoch) override;
  void forward_rejected_impl(const coop::cache::BlockId& b,
                             coop::cache::NodeId from) override;
  void master_dropped_impl(const coop::cache::BlockId& b,
                           coop::cache::NodeId node) override;
  coop::cache::NodeId write_claim_impl(const coop::cache::BlockId& b,
                                       coop::cache::NodeId writer) override;
  void invalidate_file_impl(coop::cache::FileId file) override;
  void write_begin_impl(coop::cache::FileId file) override;
  void write_end_impl(coop::cache::FileId file) override;
  bool read_cacheable_impl(coop::cache::FileId file,
                           std::uint64_t epoch) override;
  std::size_t purge_node_impl(coop::cache::NodeId node) override;
  std::vector<coop::proto::DirBatchResult> batch_impl(
      coop::cache::NodeId node,
      std::span<const coop::proto::DirBatchItem> items) override;

 private:
  /// Times one single-op call to the wrapped client.
  template <typename F>
  auto single(F&& f) {
    counts_.singles.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(log_, SpanKind::kDirSingle);
    return f(*inner_);
  }

  std::shared_ptr<coop::ccm::DirectoryClient> inner_;
  SpanLog& log_;
  DirCounts& counts_;
};

}  // namespace perfbench
