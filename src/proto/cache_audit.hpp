// The cooperative cache's protocol invariants, written once for both of its
// drivers: proto::ClusterCache (the simulator's serial driver) and
// ccm::CcmCluster (the threaded runtime) sweep their node caches and their
// directory through these rules. Every violation is reported through
// coop::audit under the rule names listed in docs/STATIC_ANALYSIS.md.
#pragma once

#include <cstddef>
#include <string>

#include "cache/node_cache.hpp"
#include "cache/types.hpp"
#include "util/audit.hpp"

namespace coop::proto {

/// Per-node rules over one node's books: cache-occupancy (a single entry
/// wider than the whole capacity is admitted degenerately — whole-file mode —
/// anything else is a real overflow) and cache-slot-accounting. `ctx` is the
/// " [context]" suffix of every detail string. Returns the violation count.
std::size_t audit_node_cache(const cache::NodeCache& cache,
                             cache::NodeId node, const std::string& ctx);

/// Cross-node rules over `nodes` (a range of pointers to NodeState) and the
/// master directory `dir` (proto::DirectoryService or ccm::DirectoryClient):
///  * cache-master-registered: every cached master is in the directory,
///    pointing at its holder;
///  * cache-hint-truth (hinted mode): the hint layer's authoritative view
///    agrees with the directory;
///  * cache-single-master: the directory tracks as many masters as the nodes
///    cache. With the rule above this makes the correspondence a bijection,
///    which rules out duplicate masters and dangling directory entries.
/// The last two need every node's cache, so they run only when `complete`
/// (`nodes` covers the whole cluster). Ends with the directory's own audit.
/// Returns the violation count.
template <class Nodes, class Directory>
std::size_t audit_cross_node(const Nodes& nodes, Directory& dir, bool hinted,
                             bool complete, const char* context) {
  std::size_t ccm_audit_failures = 0;
  const std::string ctx = std::string(" [") + context + "]";
  std::size_t cached_masters = 0;
  for (const auto& st : nodes) {
    const cache::NodeId n = st->id();
    const cache::NodeCache& cache = st->cache();
    cached_masters += cache.master_count();
    for (const auto& e : cache.masters()) {
      CCM_AUDIT(dir.lookup(e.block) == n, "cache-master-registered",
                "master of file " + std::to_string(e.block.file) + " block " +
                    std::to_string(e.block.index) + " cached at node " +
                    std::to_string(n) + " but directory says node " +
                    std::to_string(dir.lookup(e.block)) + ctx);
      if (hinted && complete) {
        CCM_AUDIT(dir.hint_truth(e.block) == n, "cache-hint-truth",
                  "hint truth for file " + std::to_string(e.block.file) +
                      " block " + std::to_string(e.block.index) + " is node " +
                      std::to_string(dir.hint_truth(e.block)) +
                      " but the master is cached at node " +
                      std::to_string(n) + ctx);
      }
    }
  }
  if (complete) {
    CCM_AUDIT(dir.master_count() == cached_masters, "cache-single-master",
              "directory tracks " + std::to_string(dir.master_count()) +
                  " masters but nodes cache " +
                  std::to_string(cached_masters) + ctx);
  }
  ccm_audit_failures += dir.audit(context);
  return ccm_audit_failures;
}

}  // namespace coop::proto
