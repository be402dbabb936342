// The vocabulary of the paper's block-based cooperative caching algorithm
// (§3): its configuration, the actions one access produces, and the policy
// counters. The algorithm itself runs in src/proto — proto::NodeState holds
// one node's transitions, proto::DirectoryService the master directory — and
// both the simulator (proto::ClusterCache, a serial driver) and the threaded
// runtime (ccm::CcmCluster) execute those same transitions and charge the
// actions they report.
//
// Algorithm summary (from the paper):
//  * The first in-memory copy of a block (read from its home node's disk) is
//    the *master*; a global directory tracks master locations.
//  * A node missing a block fetches a non-master copy from the master holder
//    if one exists, otherwise asks the file's home node to read it from disk
//    and becomes the new master holder.
//  * Replacement is approximate global LRU. When a full node evicts:
//      - a non-master or the globally-oldest block is dropped;
//      - otherwise a master is *forwarded* to the peer holding the oldest
//        block; the receiver drops its own oldest block to make room (no
//        cascaded evictions), and drops the forwarded block instead if all
//        its blocks are now younger.
//  * CC-NEM modification (§5): never evict a master while the node still
//    holds any non-master copy; evict the oldest non-master first.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/types.hpp"

namespace coop::cache {

/// Replacement policy variants evaluated in the paper.
enum class Policy {
  kBasic,            // CC-Basic: global LRU with master second chance
  kNeverEvictMaster  // CC-NEM: evict oldest non-master first
};

/// Directory implementations: the paper's optimistic perfect directory, or
/// the hint-based scheme of its §6 future work.
enum class DirectoryMode { kPerfect, kHinted };

struct CoopCacheConfig {
  std::size_t nodes = 8;
  std::uint64_t capacity_bytes = 64ull * 1024 * 1024;  // per node
  std::uint32_t block_bytes = 8 * 1024;
  Policy policy = Policy::kNeverEvictMaster;
  DirectoryMode directory = DirectoryMode::kPerfect;
  std::uint32_t hint_staleness = 1;
  /// Whole-file adaptation (§6: "whether [CCM] can easily be adapted for
  /// servers that always use whole files"): each file is cached, fetched,
  /// forwarded, and evicted as a single entry spanning its block footprint.
  bool whole_file = false;
};

/// Where one block of an access was satisfied from.
enum class Source { kLocalHit, kRemoteHit, kDiskRead };

struct BlockFetch {
  BlockId block;
  Source source = Source::kLocalHit;
  /// Peer for remote hits, home node for disk reads, self for local hits.
  NodeId provider = kInvalidNode;
  /// Hinted mode only: the hint pointed at the wrong node and an extra
  /// network round trip was wasted before reaching `provider`.
  bool misdirected = false;
};

struct Forward {
  BlockId block;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  /// False when the destination dropped the forwarded block (it would have
  /// been the destination's oldest).
  bool accepted = true;
};

struct Drop {
  BlockId block;
  NodeId node = kInvalidNode;
  bool was_master = false;
};

/// Everything that happened during one access; callers charge the costs.
struct AccessResult {
  std::vector<BlockFetch> fetches;
  std::vector<Forward> forwards;
  std::vector<Drop> drops;
};

/// Aggregate policy statistics.
struct CacheStats {
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t forwards_attempted = 0;
  std::uint64_t forwards_accepted = 0;
  std::uint64_t master_drops = 0;
  std::uint64_t copy_drops = 0;
  std::uint64_t hint_misdirects = 0;
  // Write-protocol extension (the paper's §6 future work).
  std::uint64_t writes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t ownership_migrations = 0;

  /// Adds every counter of `o` (summing per-node slices).
  CacheStats& operator+=(const CacheStats& o);

  [[nodiscard]] std::uint64_t block_accesses() const {
    return local_hits + remote_hits + disk_reads;
  }
  [[nodiscard]] double local_hit_rate() const;
  [[nodiscard]] double remote_hit_rate() const;
  [[nodiscard]] double global_hit_rate() const;
};

}  // namespace coop::cache
