#include "cache/coop_cache.hpp"

namespace coop::cache {

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  local_hits += o.local_hits;
  remote_hits += o.remote_hits;
  disk_reads += o.disk_reads;
  forwards_attempted += o.forwards_attempted;
  forwards_accepted += o.forwards_accepted;
  master_drops += o.master_drops;
  copy_drops += o.copy_drops;
  hint_misdirects += o.hint_misdirects;
  writes += o.writes;
  invalidations += o.invalidations;
  ownership_migrations += o.ownership_migrations;
  return *this;
}

double CacheStats::local_hit_rate() const {
  const auto total = block_accesses();
  return total ? static_cast<double>(local_hits) / static_cast<double>(total)
               : 0.0;
}

double CacheStats::remote_hit_rate() const {
  const auto total = block_accesses();
  return total ? static_cast<double>(remote_hits) / static_cast<double>(total)
               : 0.0;
}

double CacheStats::global_hit_rate() const {
  return local_hit_rate() + remote_hit_rate();
}

}  // namespace coop::cache
