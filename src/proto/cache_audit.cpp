#include "proto/cache_audit.hpp"

namespace coop::proto {

std::size_t audit_node_cache(const cache::NodeCache& cache,
                             cache::NodeId node, const std::string& ctx) {
  std::size_t ccm_audit_failures = 0;
  CCM_AUDIT(cache.used_blocks() <= cache.capacity_blocks() ||
                cache.entry_count() <= 1,
            "cache-occupancy",
            "node " + std::to_string(node) + " uses " +
                std::to_string(cache.used_blocks()) + " of " +
                std::to_string(cache.capacity_blocks()) + " blocks" + ctx);
  std::uint64_t slots = 0;
  for (const auto& e : cache.masters()) slots += cache.slots_of(e.block);
  for (const auto& e : cache.copies()) slots += cache.slots_of(e.block);
  CCM_AUDIT(slots == cache.used_blocks(), "cache-slot-accounting",
            "node " + std::to_string(node) + " books " +
                std::to_string(cache.used_blocks()) +
                " used blocks but entries cover " + std::to_string(slots) +
                ctx);
  return ccm_audit_failures;
}

}  // namespace coop::proto
