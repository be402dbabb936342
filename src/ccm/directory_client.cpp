#include "ccm/directory_client.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace coop::ccm {

proto::DirBatchResult RemoteDirectory::ask_one(cache::NodeId node,
                                               proto::DirBatchOp op,
                                               const cache::BlockId& b,
                                               cache::NodeId peer,
                                               std::uint64_t arg) {
  const proto::DirBatchItem item{op, b, arg, peer};
  return batch_impl(node, std::span(&item, 1)).front();
}

proto::DirectoryService::ReadLookup RemoteDirectory::lookup_for_read_impl(
    cache::NodeId node, const cache::BlockId& b) {
  const auto r = ask_one(node, proto::DirBatchOp::kLookupRead, b);
  return {r.node, r.has(proto::kFlagMisdirected), r.epoch};
}

cache::NodeId RemoteDirectory::lookup_impl(const cache::BlockId& b) {
  return ask_one(local_, proto::DirBatchOp::kValidate, b).node;
}

bool RemoteDirectory::try_claim_impl(const cache::BlockId& b,
                                     cache::NodeId node) {
  return ask_one(node, proto::DirBatchOp::kTryClaim, b)
      .has(proto::kFlagGranted);
}

std::optional<std::uint64_t> RemoteDirectory::begin_forward_impl(
    const cache::BlockId& b, cache::NodeId from) {
  const auto r = ask_one(from, proto::DirBatchOp::kBeginForward, b);
  if (!r.has(proto::kFlagGranted)) return std::nullopt;
  return r.epoch;
}

bool RemoteDirectory::claim_forwarded_impl(const cache::BlockId& b,
                                           cache::NodeId to, cache::NodeId from,
                                           std::uint64_t epoch) {
  return ask_one(to, proto::DirBatchOp::kClaimForwarded, b, from, epoch)
      .has(proto::kFlagGranted);
}

void RemoteDirectory::forward_rejected_impl(const cache::BlockId& b,
                                            cache::NodeId from) {
  ask_one(from, proto::DirBatchOp::kForwardRejected, b);
}

void RemoteDirectory::master_dropped_impl(const cache::BlockId& b,
                                          cache::NodeId node) {
  ask_one(node, proto::DirBatchOp::kMasterDropped, b);
}

cache::NodeId RemoteDirectory::write_claim_impl(const cache::BlockId& b,
                                                cache::NodeId writer) {
  return ask_one(writer, proto::DirBatchOp::kWriteClaim, b).node;
}

void RemoteDirectory::invalidate_file_impl(cache::FileId file) {
  ask_one(local_, proto::DirBatchOp::kInvalidateFile, {file, 0});
}

void RemoteDirectory::write_begin_impl(cache::FileId file) {
  ask_one(local_, proto::DirBatchOp::kWriteBegin, {file, 0});
}

void RemoteDirectory::write_end_impl(cache::FileId file) {
  ask_one(local_, proto::DirBatchOp::kWriteEnd, {file, 0});
}

bool RemoteDirectory::read_cacheable_impl(cache::FileId file,
                                          std::uint64_t epoch) {
  // kValidate answers the file epoch and kFlagGranted iff no write is in
  // flight — read_cacheable's two conditions.
  const auto r = ask_one(local_, proto::DirBatchOp::kValidate, {file, 0});
  return r.has(proto::kFlagGranted) && r.epoch == epoch;
}

std::size_t RemoteDirectory::purge_node_impl(cache::NodeId node) {
  // The purged count rides back in the result's epoch slot.
  return static_cast<std::size_t>(
      ask_one(local_, proto::DirBatchOp::kPurgeNode, {0, 0}, node).epoch);
}

std::vector<proto::DirBatchResult> RemoteDirectory::batch_impl(
    cache::NodeId node, std::span<const proto::DirBatchItem> items) {
  // The home answers the batch's issuing node, so only a node this process
  // hosts would ever see the reply.
  if (node != local_) {
    throw std::invalid_argument(
        "RemoteDirectory: node " + std::to_string(node) +
        " is not hosted here (this process hosts node " +
        std::to_string(local_) + ")");
  }
  std::vector<std::byte> payload = proto::encode_dir_batch_request(node, items);
  net::Envelope env;
  env.msg = proto::Message::dir_batch_request(
      node, home_, static_cast<std::uint32_t>(items.size()), payload.size());
  env.data = net::make_ready_block(std::move(payload));
  // Bounded retry: a directory RPC must never hang on a lossy or slow link.
  // A re-sent batch re-executes its ops exactly as re-sending each op singly
  // would; proto::replay_safe names the ops for which that is not harmless.
  net::Envelope reply =
      net::call_with_retry(*transport_, env, net::RetryPolicy{}, retry_stats_);
  if (reply.msg.kind == proto::MsgKind::kDirBatchReply && reply.data) {
    reply.data->wait_ready();
    auto results = proto::decode_dir_batch_reply(reply.data->bytes);
    if (results && results->size() == items.size()) {
      return std::move(*results);
    }
  }
  // A well-formed home answers every item; re-asking a home that does not
  // would only loop.
  throw std::runtime_error("RemoteDirectory: malformed kDirBatch reply from "
                           "home node " +
                           std::to_string(home_));
}

}  // namespace coop::ccm
