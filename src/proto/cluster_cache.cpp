#include "proto/cluster_cache.hpp"

#include <cassert>
#include <string>

#include "proto/cache_audit.hpp"

namespace coop::proto {

ClusterCache::ClusterCache(const cache::CoopCacheConfig& config,
                           std::function<cache::NodeId(cache::FileId)> home_of)
    : config_(config),
      home_of_(std::move(home_of)),
      dir_(config.nodes, config.directory, config.hint_staleness) {
  assert(config_.nodes > 0);
  if (!home_of_) {
    const auto n = config_.nodes;
    home_of_ = [n](cache::FileId f) {
      return static_cast<cache::NodeId>(f % n);
    };
  }
  nodes_.reserve(config_.nodes);
  for (std::size_t n = 0; n < config_.nodes; ++n) {
    nodes_.push_back(
        std::make_unique<NodeState>(static_cast<cache::NodeId>(n), config_));
    nodes_.back()->publish();
  }
}

cache::AccessResult ClusterCache::access(cache::NodeId node,
                                         cache::FileId file,
                                         std::uint64_t file_bytes) {
  cache::AccessResult result;
  const std::uint32_t nblocks =
      cache::blocks_for(file_bytes, config_.block_bytes);
  if (config_.whole_file) {
    // Whole-file adaptation: the file is one cache entry spanning its full
    // block footprint.
    access_block(node, cache::BlockId{file, 0}, result, nblocks);
    return result;
  }
  result.fetches.reserve(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    access_block(node, cache::BlockId{file, i}, result);
  }
  return result;
}

void ClusterCache::access_block(cache::NodeId node,
                                const cache::BlockId& block,
                                cache::AccessResult& result,
                                std::uint32_t slots) {
  access_block_impl(node, block, result, slots);
  CCM_AUDIT_HOOK(audit("access_block"));
}

void ClusterCache::access_block_impl(cache::NodeId node,
                                     const cache::BlockId& block,
                                     cache::AccessResult& result,
                                     std::uint32_t slots) {
  assert(node < nodes_.size());
  NodeState& st = *nodes_[node];

  // Local hit: master or copy already here.
  if (st.contains(block)) {
    st.touch(block, clock_.next());
    st.publish();
    ++st.stats().local_hits;
    result.fetches.push_back(
        cache::BlockFetch{block, cache::Source::kLocalHit, node, false});
    return;
  }

  // Locate the master. In hinted mode a wrong or missing hint costs an extra
  // round trip before the request is chained to the true holder.
  const auto lk = dir_.lookup_for_read(node, block);
  if (lk.master != cache::kInvalidNode) {
    // Remote hit: fetch a non-master copy from the master holder. Touch the
    // master first so the incoming copy's eviction work cannot victimize it.
    NodeState& holder = *nodes_[lk.master];
    assert(lk.master != node && holder.is_master(block));
    holder.touch(block, clock_.next());
    holder.publish();
    ++st.stats().remote_hits;
    result.fetches.push_back(cache::BlockFetch{
        block, cache::Source::kRemoteHit, lk.master, lk.misdirected});
    make_room(st, slots, result);
    st.insert_copy(block, clock_.next(), slots);
    st.publish();
    return;
  }

  // Miss everywhere: the home node reads the block from disk and the
  // requester becomes the master holder.
  ++st.stats().disk_reads;
  result.fetches.push_back(cache::BlockFetch{
      block, cache::Source::kDiskRead, home_of_(block.file), lk.misdirected});
  make_room(st, slots, result);
  [[maybe_unused]] const bool claimed = dir_.try_claim(block, node);
  assert(claimed);  // serial claims cannot conflict
  st.insert_master(block, clock_.next(), slots);
  st.publish();
}

void ClusterCache::make_room(NodeState& st, std::uint32_t slots,
                             cache::AccessResult& result) {
  for (;;) {
    const std::size_t first = result.drops.size();
    const auto pf = st.make_room(slots, *this, result.drops);
    unregister_masters(result, first);
    st.publish();
    if (!pf) return;
    forward(st, *pf, result);
  }
}

void ClusterCache::forward(NodeState& st, const PendingForward& pf,
                           cache::AccessResult& result) {
  const cache::NodeId from = st.id();
  const cache::NodeId to = pick_forward_target(from, nodes_.size(), *this);
  bool accepted = false;
  if (to != cache::kInvalidNode) {
    // A serial forward cannot be superseded: the directory still names
    // `from`, so begin_forward always yields the epoch.
    const std::uint64_t epoch = dir_.begin_forward(pf.block, from).value();
    NodeState& dest = *nodes_[to];
    const std::size_t first = result.drops.size();
    const ForwardOutcome outcome = dest.handle_forward(pf, result.drops);
    unregister_masters(result, first);
    dest.publish();
    accepted = outcome != ForwardOutcome::kRejected &&
               dir_.claim_forwarded(pf.block, to, from, epoch);
    assert(accepted || outcome == ForwardOutcome::kRejected);
  }
  result.forwards.push_back(cache::Forward{pf.block, from, to, accepted});
  if (accepted) {
    ++st.stats().forwards_accepted;
    return;
  }
  // The master is lost: nothing to forward to (a single-node cluster), or
  // everything at the destination is younger.
  if (to == cache::kInvalidNode) {
    dir_.master_dropped(pf.block, from);
  } else {
    dir_.forward_rejected(pf.block, from);
  }
  ++st.stats().master_drops;
  result.drops.push_back(cache::Drop{pf.block, from, true});
}

void ClusterCache::unregister_masters(const cache::AccessResult& result,
                                      std::size_t first) {
  for (std::size_t i = first; i < result.drops.size(); ++i) {
    const cache::Drop& d = result.drops[i];
    if (d.was_master) dir_.master_dropped(d.block, d.node);
  }
}

cache::CacheStats ClusterCache::stats() const {
  cache::CacheStats total;
  for (const auto& n : nodes_) total += n->stats();
  total.hint_misdirects = dir_.ops().hint_misdirects;
  return total;
}

void ClusterCache::reset_stats() {
  for (auto& n : nodes_) n->stats() = cache::CacheStats{};
  dir_.reset_ops();
}

std::size_t ClusterCache::audit(const char* context) const {
  const std::string ctx = std::string(" [") + context + "]";
  std::size_t failures = 0;
  for (const auto& st : nodes_) {
    failures += audit_node_cache(st->cache(), st->id(), ctx);
  }
  return failures +
         audit_cross_node(nodes_, dir_,
                          config_.directory == cache::DirectoryMode::kHinted,
                          /*complete=*/true, context);
}

bool ClusterCache::check_invariants() const {
  return audit("check_invariants") == 0;
}

}  // namespace coop::proto
