// The runtime workloads: closed-loop driver threads issuing
// CcmCluster::read / write / invalidate against an in-process cluster or a
// 3-node cluster over loopback TCP, every output checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccm/cluster.hpp"
#include "content.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "spans.hpp"

namespace perfbench {

enum class OpKind : std::uint8_t { kRead, kWrite, kInvalidate };

struct Op {
  OpKind kind = OpKind::kRead;
  std::uint32_t file = 0;
  coop::cache::NodeId via = 0;
  std::uint32_t block = 0;    // kWrite: block index written
  std::uint32_t version = 0;  // kWrite: version written
};

/// Everything that defines one runtime workload's inputs.
struct RuntimeShape {
  std::string name;
  std::size_t nodes = 4;
  std::size_t drivers = 4;
  std::uint64_t blocks_per_node = 128;
  std::size_t workers_per_node = 2;
  std::vector<std::uint32_t> file_blocks;  // blocks of each file
  /// Zipf popularity exponent; 0 means uniform popularity.
  double zipf_alpha = 0.0;
  std::shared_ptr<const coop::sim::ZipfSampler> zipf;
  std::vector<std::uint32_t> by_rank;  // file at each popularity rank
  int write_pct = 0;
  int invalidate_pct = 0;
  /// One TcpTransport per node over 127.0.0.1 and one driver pinned to each
  /// node; node 0 holds the directory and the storage.
  bool tcp = false;
  /// Untimed ops each driver issues during set-up (the warm-up).
  std::size_t warmup_ops = 0;

  [[nodiscard]] std::uint64_t total_blocks() const;
  /// The file driver `d` writes when it draws a write against `f`: every
  /// driver owns a disjoint slice of the files, so the final storage bytes
  /// do not depend on the thread schedule.
  [[nodiscard]] std::uint32_t write_target(std::size_t d,
                                           std::uint32_t f) const;
};

/// The shape of a named runtime workload for `seed`; nullopt for a name
/// that is not a runtime workload.
std::optional<RuntimeShape> runtime_shape(const std::string& workload,
                                          std::uint64_t seed);

/// Driver `d`'s deterministic op sequence.
class OpStream {
 public:
  OpStream(const RuntimeShape& shape, std::uint64_t seed, std::size_t driver);
  Op next();

 private:
  const RuntimeShape& shape_;
  std::size_t driver_;
  coop::sim::Rng rng_;
  std::uint32_t issued_ = 0;
};

/// The writes drivers issued, given how many ops each executed: the input
/// of the serial replay.
std::vector<BlockWrite> replay_writes(const RuntimeShape& shape,
                                      std::uint64_t seed,
                                      const std::vector<std::uint64_t>& ops);

/// Length of a throughput window.
inline constexpr double kWindowSeconds = 0.5;

/// Latency sample slots per driver per measured second. Timed ops beyond
/// them are counted (PhaseResult::samples_dropped), not sampled.
inline constexpr double kSamplesPerSecond = 20000;

struct RuntimeOptions {
  double seconds = 1.0;
  /// When > 0, each driver runs exactly this many timed ops instead of
  /// running for `seconds` (makes the final storage bytes a pure function
  /// of the inputs).
  std::uint64_t ops_per_driver = 0;
  int setups = 1;         // set-ups timed; the last one is measured
  bool traced = false;    // wrap storage, transport, directory in decorators
  bool keep_storage = false;
};

/// Counts at the decorator seams, as plain numbers.
struct SeamCounts {
  std::uint64_t net_calls = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t dir_singles = 0;
  std::uint64_t dir_batches = 0;
  std::uint64_t dir_batched_ops = 0;
};

struct PhaseResult {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;
  /// Op errors (first per driver) and failed end-of-run checks.
  std::vector<std::string> violations;
  /// The replay oracle or an audit failed: the whole run counts as failed.
  bool final_check_failed = false;
  std::vector<double> window_ops_per_s;
  std::vector<double> op_us;
  /// Throughput window each op completed in (== window count when it
  /// completed after the last full window).
  std::vector<std::uint32_t> op_window;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::uint64_t samples_dropped = 0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t vol_ctx_switches = 0;
  /// Process peak RSS when the timed phase ends (before its samples are
  /// post-processed).
  double peak_rss_mb = 0.0;
  std::size_t protocol_threads = 0;
  coop::ccm::CcmStats stats;
  coop::obs::MetricsSnapshot snapshot;
  std::size_t audit_violations = 0;
  // Traced phase only.
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  SeamCounts seams;
  std::vector<std::byte> final_storage;  // RuntimeOptions::keep_storage

  /// Timed ops per wall second over the whole timed phase.
  [[nodiscard]] double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(op_us.size()) / wall_s : 0.0;
  }
};

/// Sets the workload up `options.setups` times, then drives the last set-up
/// for the timed phase and checks every output: each read's bytes, the
/// final storage against the serial replay of the writes, and (in-process)
/// check_consistency().
PhaseResult run_runtime_phase(const RuntimeShape& shape, std::uint64_t seed,
                              const RuntimeOptions& options);

}  // namespace perfbench
