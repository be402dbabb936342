// The simulator workload: serial server::run_simulation of L2S and CC-NEM
// on a rutgers-shaped trace, every result checked.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "server/cluster.hpp"
#include "spans.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

/// Requests per generated trace. Small enough that a run holds tens of
/// simulation pairs; large enough that L2S and CC-NEM results differ.
inline constexpr std::size_t kSimRequests = 12000;

/// The rutgers preset's shape with `kSimRequests` requests, drawn from a
/// trace seed derived from the benchmark seed.
coop::trace::SyntheticSpec sim_trace_spec(std::uint64_t seed);

/// 8 nodes at 32 MB each: a memory size where L2S and CC-NEM differ.
coop::server::ClusterConfig sim_config(coop::server::SystemKind system);

/// Stable 64-bit hash of every RunMetrics field.
std::uint64_t fingerprint(const coop::server::RunMetrics& m);

/// Runs the preset's own trace seed (cut to kSimRequests) under L2S and
/// CC-NEM and compares the results with the pinned fingerprints. Returns
/// the difference, or nullopt when both match.
std::optional<std::string> golden_mismatch();

struct SimOptions {
  double seconds = 1.0;
  int setups = 1;  // trace generations timed (set-up)
  bool traced = false;
  /// When > 0, run exactly this many L2S + CC-NEM pairs.
  int pairs = 0;
};

struct SimResult {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  std::uint64_t requests = 0;  // simulated requests in the timed phase
  std::uint64_t calls = 0;     // run_simulation calls, each checked
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  /// The pinned-results check failed: the whole run counts as failed.
  bool final_check_failed = false;
  /// One sample per pair: wall microseconds per simulated request.
  std::vector<double> us_per_request;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t vol_ctx_switches = 0;
  coop::server::RunMetrics l2s;
  coop::server::RunMetrics ccnem;
  std::vector<Span> spans;  // traced only

  [[nodiscard]] double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(requests) / wall_s : 0.0;
  }
};

SimResult run_sim_phase(std::uint64_t seed, const SimOptions& options);

}  // namespace perfbench
