// Batched directory operations: the payload vocabulary of
// kDirBatchRequest/kDirBatchReply, the only directory messages on the wire.
//
// One envelope carries a length-prefixed vector of directory ops, so a read
// path touching N blocks of a file costs one RPC and one directory-lock
// acquisition instead of N of each. The batch is *not* a transaction: each
// item applies exactly the operation of the matching DirectoryService call.
// Every directory op the runtime issues singly travels as a batch of one.
//
// Payload layout (little-endian; independent of the fixed Message wire):
//
//   request  [version u8][node u16][count u32]
//            then per item:  [op u8][file u32][index u32][arg u64][peer u16]
//   reply    [version u8][count u32]
//            then per item:  [node u16][epoch u64][flags u8]
//
// `node` is the issuing node: the service applies every item as that node's
// call. `arg` and `peer` are op-specific (docs/MIDDLEWARE.md has the per-op
// table); file-level ops name their file as `block = {file, 0}`. Reply
// flags reuse the Message flag bits (kFlagGranted, kFlagMisdirected).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/message.hpp"

namespace coop::proto {

/// Bump when the batch payload layout changes (checked by decode; the frame
/// layer's kProtocolVersion guards whole-process mixing, this guards the
/// payload inside it).
inline constexpr std::uint8_t kDirBatchVersion = 2;

/// Decode-side allocation bound: a well-formed peer never sends more items
/// than this (the cluster batches per-file block runs, far smaller).
inline constexpr std::uint32_t kDirBatchMaxItems = 1u << 16;

/// One directory operation. Which of them may be received twice is
/// replay_safe()'s answer, the one place that knows it.
enum class DirBatchOp : std::uint8_t {
  kLookupRead = 0,  // lookup_for_read(node, block)
  kTryClaim,        // try_claim(block, node)
  kMasterDropped,   // master_dropped(block, node)
  /// Authoritative re-validation for the hint fast path: returns the current
  /// master, the current file epoch, and kFlagGranted iff no write to the
  /// file is in flight. The *caller* compares these against the hint it
  /// fetched under (master unchanged, epoch unchanged, write-free) — the
  /// same predicate as lookup() + read_cacheable() — and refreshes its hint
  /// slot from the authoritative answer either way.
  kValidate,
  kBeginForward,     // begin_forward(block, node): epoch, kFlagGranted if begun
  kClaimForwarded,   // claim_forwarded(block, node, peer, arg = epoch)
  kForwardRejected,  // forward_rejected(block, node)
  kWriteClaim,       // write_claim(block, node): previous holder in `node`
  kWriteBegin,       // write_begin(block.file)
  kWriteEnd,         // write_end(block.file)
  kInvalidateFile,   // invalidate_file(block.file)
  kPurgeNode,        // purge_node(peer): purged count in `epoch`
};

inline constexpr std::uint8_t kDirBatchOpCount =
    static_cast<std::uint8_t>(DirBatchOp::kPurgeNode) + 1;

/// False for the ops that must not be received twice: a write claim and the
/// write-span brackets change state on every delivery (epoch bumps, the
/// in-flight write count). The rest are idempotent or conditional at the
/// service, so receiving them twice is harmless, and the fault pools
/// (net/fault.cpp) may duplicate them or drop their replies.
[[nodiscard]] constexpr bool replay_safe(DirBatchOp op) {
  return op != DirBatchOp::kWriteClaim && op != DirBatchOp::kWriteBegin &&
         op != DirBatchOp::kWriteEnd;
}

struct DirBatchItem {
  DirBatchOp op = DirBatchOp::kLookupRead;
  BlockId block{0, 0};
  std::uint64_t arg = 0;                 // kClaimForwarded: the epoch
  NodeId peer = cache::kInvalidNode;     // kClaimForwarded: the forwarder;
                                         // kPurgeNode: the node to purge

  friend bool operator==(const DirBatchItem&, const DirBatchItem&) = default;
};

struct DirBatchResult {
  NodeId node = cache::kInvalidNode;
  std::uint64_t epoch = 0;
  std::uint8_t flags = 0;  // kFlagGranted / kFlagMisdirected as per op

  [[nodiscard]] bool has(std::uint8_t flag) const {
    return (flags & flag) != 0;
  }

  friend bool operator==(const DirBatchResult&, const DirBatchResult&) = default;
};

/// Encoded payload sizes (used by tests and the framing layer).
inline constexpr std::size_t kDirBatchRequestHeader = 1 + 2 + 4;
inline constexpr std::size_t kDirBatchItemWire = 1 + 4 + 4 + 8 + 2;
inline constexpr std::size_t kDirBatchReplyHeader = 1 + 4;
inline constexpr std::size_t kDirBatchResultWire = 2 + 8 + 1;

/// Encodes a batch request payload issued by `node`.
std::vector<std::byte> encode_dir_batch_request(
    NodeId node, std::span<const DirBatchItem> items);

/// Decodes a batch request payload. nullopt on version mismatch, unknown op,
/// oversized count, or any length mismatch (short *or* trailing bytes).
struct DirBatchRequest {
  NodeId node = cache::kInvalidNode;
  std::vector<DirBatchItem> items;
};
std::optional<DirBatchRequest> decode_dir_batch_request(
    std::span<const std::byte> payload);

/// Encodes a batch reply payload (one result per request item, in order).
std::vector<std::byte> encode_dir_batch_reply(
    std::span<const DirBatchResult> results);

/// Decodes a batch reply payload; same strictness as the request decoder.
std::optional<std::vector<DirBatchResult>> decode_dir_batch_reply(
    std::span<const std::byte> payload);

/// True unless an encoded request payload carries an op that is not
/// replay_safe(). Reads only the op bytes (no allocation); a payload too
/// short for its count is checked as far as it goes.
[[nodiscard]] bool dir_batch_replay_safe(std::span<const std::byte> payload);

}  // namespace coop::proto
