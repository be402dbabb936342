// Metric catalogue and the arithmetic that turns a run's samples, counters
// and spans into named metrics. Every ratio's base is stated next to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime.hpp"
#include "sim.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // events the value is computed from
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics the benchmark gates on (printed with --trace 0), in order.
const std::vector<MetricDef>& end_to_end_defs();
/// The per-layer metrics (printed with --trace 1), in order.
const std::vector<MetricDef>& layer_defs();

/// A full set of one catalogue's metrics; each starts at 0 with no samples
/// (a layer the workload does not exercise).
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs);
  /// Throws std::out_of_range for a name outside the catalogue.
  void set(const std::string& name, double value, std::uint64_t samples);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return m_; }
  [[nodiscard]] const Metric& get(const std::string& name) const;

 private:
  std::vector<Metric> m_;
};

MetricSet runtime_end_to_end(const PhaseResult& r);
MetricSet sim_end_to_end(const SimResult& r, double peak_rss_mb);

/// Per-layer metrics of a traced phase; `untraced_ops_per_s` is the same
/// workload's throughput without decorators (for trace.overhead_share).
MetricSet runtime_layers(const PhaseResult& traced, double untraced_ops_per_s);
MetricSet sim_layers(const SimResult& traced, double untraced_ops_per_s);

/// Workload-specific end-to-end figures the report prints beside the gated
/// ones: read and write latency split, failed-op share, simulated requests
/// per second.
std::vector<Metric> runtime_extras(const PhaseResult& r);
std::vector<Metric> sim_extras(const SimResult& r);

}  // namespace perfbench
