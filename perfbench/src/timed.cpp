#include "timed.hpp"

#include "proto/message.hpp"

namespace perfbench {
namespace {

// When this (protocol) thread last got a request out of receive(); the
// reply it posts next closes the handler span. 0 = no request in hand.
thread_local std::uint64_t t_handler_start = 0;

}  // namespace

// ---- storage ----

void TimedStorage::read(coop::cache::FileId file, std::uint64_t offset,
                        std::span<std::byte> out) const {
  ScopedSpan span(log_, SpanKind::kStorageRead);
  inner_->read(file, offset, out);
}

void TimedStorage::write(coop::cache::FileId file, std::uint64_t offset,
                         std::span<const std::byte> data) {
  ScopedSpan span(log_, SpanKind::kStorageWrite);
  inner_->write(file, offset, data);
}

// ---- transport ----

void TimedTransport::count_message(const coop::net::Envelope& env) {
  std::uint64_t bytes = coop::proto::kWireSize;
  // An unready payload is still being filled by its producer; its size is
  // not safe to read yet.
  if (env.data && env.data->is_ready()) bytes += env.data->bytes.size();
  counts_.messages.fetch_add(1, std::memory_order_relaxed);
  counts_.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

coop::net::Envelope TimedTransport::call_impl(coop::net::Envelope env) {
  counts_.calls.fetch_add(1, std::memory_order_relaxed);
  count_message(env);
  ScopedSpan span(log_, SpanKind::kNetCall);
  coop::net::Envelope reply = inner_->call(std::move(env));
  count_message(reply);
  return reply;
}

bool TimedTransport::post(coop::net::Envelope env) {
  count_message(env);
  if (t_handler_start != 0 && coop::proto::is_reply(env.msg.kind)) {
    log_.record(SpanKind::kHandler, t_handler_start, now_ns());
    t_handler_start = 0;
  }
  return inner_->post(std::move(env));
}

std::optional<coop::net::Envelope> TimedTransport::receive(
    coop::cache::NodeId node) {
  t_handler_start = 0;
  auto env = inner_->receive(node);
  if (env) t_handler_start = now_ns();
  return env;
}

// ---- directory ----

using coop::cache::BlockId;
using coop::cache::FileId;
using coop::cache::NodeId;
using coop::ccm::DirectoryClient;

coop::proto::DirectoryService::ReadLookup TimedDirectory::lookup_for_read_impl(
    NodeId node, const BlockId& b) {
  return single([&](DirectoryClient& d) { return d.lookup_for_read(node, b); });
}
NodeId TimedDirectory::lookup_impl(const BlockId& b) {
  return single([&](DirectoryClient& d) { return d.lookup(b); });
}
bool TimedDirectory::try_claim_impl(const BlockId& b, NodeId node) {
  return single([&](DirectoryClient& d) { return d.try_claim(b, node); });
}
std::optional<std::uint64_t> TimedDirectory::begin_forward_impl(
    const BlockId& b, NodeId from) {
  return single([&](DirectoryClient& d) { return d.begin_forward(b, from); });
}
bool TimedDirectory::claim_forwarded_impl(const BlockId& b, NodeId to,
                                          NodeId from, std::uint64_t epoch) {
  return single([&](DirectoryClient& d) {
    return d.claim_forwarded(b, to, from, epoch);
  });
}
void TimedDirectory::forward_rejected_impl(const BlockId& b, NodeId from) {
  single([&](DirectoryClient& d) { d.forward_rejected(b, from); });
}
void TimedDirectory::master_dropped_impl(const BlockId& b, NodeId node) {
  single([&](DirectoryClient& d) { d.master_dropped(b, node); });
}
NodeId TimedDirectory::write_claim_impl(const BlockId& b, NodeId writer) {
  return single([&](DirectoryClient& d) { return d.write_claim(b, writer); });
}
void TimedDirectory::invalidate_file_impl(FileId file) {
  single([&](DirectoryClient& d) { d.invalidate_file(file); });
}
void TimedDirectory::write_begin_impl(FileId file) {
  single([&](DirectoryClient& d) { d.write_begin(file); });
}
void TimedDirectory::write_end_impl(FileId file) {
  single([&](DirectoryClient& d) { d.write_end(file); });
}
bool TimedDirectory::read_cacheable_impl(FileId file, std::uint64_t epoch) {
  return single(
      [&](DirectoryClient& d) { return d.read_cacheable(file, epoch); });
}
std::size_t TimedDirectory::purge_node_impl(NodeId node) {
  return single([&](DirectoryClient& d) { return d.purge_node(node); });
}

std::vector<coop::proto::DirBatchResult> TimedDirectory::batch_impl(
    NodeId node, std::span<const coop::proto::DirBatchItem> items) {
  counts_.batches.fetch_add(1, std::memory_order_relaxed);
  counts_.batched_ops.fetch_add(items.size(), std::memory_order_relaxed);
  ScopedSpan span(log_, SpanKind::kDirBatch);
  return inner_->batch(node, items);
}

}  // namespace perfbench
