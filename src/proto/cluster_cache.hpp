// The simulator's policy engine: the paper's block-based cooperative caching
// algorithm (see cache/coop_cache.hpp) driven serially, for one cluster, one
// access at a time.
//
// ClusterCache is a thin serial driver over N proto::NodeState and one
// proto::DirectoryService — the same transitions the threaded runtime
// (ccm::CcmCluster) runs under its shard locks, minus the locks and the
// messages. It tracks which node caches which block, decides where each
// block of an access comes from (local memory, a peer's memory, or a home
// node's disk), and reports the resulting fetches, forwards and drops in the
// order they happen. It performs no I/O and knows nothing about time; the
// event-driven simulator in src/server executes and charges the actions.
//
// Tick conventions (the runtime's): a local hit takes one tick; a remote hit
// two — the holder's touch, then the requester's insert, with the eviction
// work between them; a miss one; evictions and forwards take none. Every
// transition re-publishes its node's summary, so the PeerView the policy
// reads is always exact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/coop_cache.hpp"
#include "cache/node_cache.hpp"
#include "cache/types.hpp"
#include "proto/directory_service.hpp"
#include "proto/node_state.hpp"

namespace coop::proto {

class ClusterCache final : private PeerView {
 public:
  /// `home_of` maps a file to the node whose disk stores it ("the general
  /// case of files being distributed across all nodes", §3); defaults to
  /// file-id modulo node count.
  ClusterCache(const cache::CoopCacheConfig& config,
               std::function<cache::NodeId(cache::FileId)> home_of = {});

  /// Accesses all blocks of `file` (of size `file_bytes`) at `node`,
  /// applying cache-state transitions and reporting the resulting actions.
  cache::AccessResult access(cache::NodeId node, cache::FileId file,
                             std::uint64_t file_bytes);

  /// Accesses a single cache entry; appends actions to `result`. `slots` is
  /// the entry's block-slot footprint (1 in block mode; the file's block
  /// count in whole-file mode).
  void access_block(cache::NodeId node, const cache::BlockId& block,
                    cache::AccessResult& result, std::uint32_t slots = 1);

  [[nodiscard]] const cache::CoopCacheConfig& config() const {
    return config_;
  }
  [[nodiscard]] cache::NodeId home_of(cache::FileId file) const {
    return home_of_(file);
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const cache::NodeCache& node(cache::NodeId n) const {
    return nodes_[n]->cache();
  }
  [[nodiscard]] const DirectoryService& directory() const { return dir_; }

  /// Every node's counters summed; hint misdirects come from the directory.
  [[nodiscard]] cache::CacheStats stats() const;
  void reset_stats();

  /// Hinted mode only: observed hint accuracy (paper cites ~98% for [18]).
  [[nodiscard]] double hint_accuracy() const { return dir_.hint_accuracy(); }

  /// Sweeps every protocol invariant (proto/cache_audit.hpp), reporting each
  /// violation through coop::audit with `context` in the detail string.
  /// Returns the number of violations (0 = healthy). Always compiled;
  /// audited builds (CCM_AUDIT_ENABLED) also run it after every block access.
  std::size_t audit(const char* context) const;

  /// Convenience wrapper: audit("check_invariants") == 0.
  [[nodiscard]] bool check_invariants() const;

 private:
  friend struct ClusterCacheTestPeer;  // test-only state corruption (audit tests)

  // PeerView over the nodes' published summaries.
  [[nodiscard]] std::uint64_t peer_oldest_age(
      cache::NodeId n) const override {
    return nodes_[n]->published_oldest_age();
  }
  [[nodiscard]] bool peer_full(cache::NodeId n) const override {
    return nodes_[n]->published_full();
  }

  void access_block_impl(cache::NodeId node, const cache::BlockId& block,
                         cache::AccessResult& result, std::uint32_t slots);
  /// Evicts at `st` until `slots` fit, shipping every master that earns a
  /// second chance.
  void make_room(NodeState& st, std::uint32_t slots,
                 cache::AccessResult& result);
  /// Offers an evicted master to the peer the policy picks.
  void forward(NodeState& st, const PendingForward& pf,
               cache::AccessResult& result);
  /// Unregisters the masters among `result.drops[first..]`.
  void unregister_masters(const cache::AccessResult& result,
                          std::size_t first);

  cache::CoopCacheConfig config_;
  std::function<cache::NodeId(cache::FileId)> home_of_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  DirectoryService dir_;
  cache::LogicalClock clock_;
};

}  // namespace coop::proto
