#include "sim.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "proc.hpp"
#include "trace/presets.hpp"

namespace perfbench {

using coop::server::RunMetrics;
using coop::server::SystemKind;

namespace {

// Fingerprints of the preset-seed trace (kSimRequests requests) under
// sim_config(). The simulator is deterministic, so any change to these is a
// change in simulated behaviour, not noise.
constexpr std::uint64_t kGoldenL2s = 17015847625458801649ull;
constexpr std::uint64_t kGoldenCcNem = 10029083613498549876ull;

class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001B3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

coop::trace::SyntheticSpec preset_spec() {
  auto spec = coop::trace::rutgers_spec();
  spec.num_requests = kSimRequests;
  return spec;
}

}  // namespace

coop::trace::SyntheticSpec sim_trace_spec(std::uint64_t seed) {
  auto spec = preset_spec();
  spec.seed ^= seed * 0x9E3779B97F4A7C15ull;
  return spec;
}

coop::server::ClusterConfig sim_config(SystemKind system) {
  coop::server::ClusterConfig c;
  c.system = system;
  c.nodes = 8;
  c.memory_per_node = 32ull * 1024 * 1024;
  // The figure benches' closed-loop client pool (harness::figure_config).
  c.clients.clients = 16 * c.nodes;
  c.clients.warmup_fraction = 0.4;
  return c;
}

std::uint64_t fingerprint(const RunMetrics& m) {
  Fnv f;
  f.add(m.requests);
  f.add(m.bytes_served);
  f.add(m.duration_ms);
  f.add(m.throughput_rps);
  f.add(m.throughput_mbps);
  f.add(m.mean_response_ms);
  f.add(m.p50_response_ms);
  f.add(m.p95_response_ms);
  f.add(m.p99_response_ms);
  f.add(m.local_hit_rate);
  f.add(m.remote_hit_rate);
  f.add(m.cpu_utilization);
  f.add(m.disk_utilization);
  f.add(m.nic_utilization);
  f.add(m.max_disk_utilization);
  f.add(m.router_utilization);
  f.add(m.disk_block_reads);
  f.add(m.disk_seeks);
  f.add(m.remote_block_fetches);
  f.add(m.master_forwards);
  f.add(m.replications);
  f.add(m.handoffs);
  f.add(m.hint_misdirects);
  return f.value();
}

std::optional<std::string> golden_mismatch() {
  const auto trace = coop::trace::generate(preset_spec());
  const std::uint64_t l2s =
      fingerprint(coop::server::run_simulation(sim_config(SystemKind::kL2S), trace));
  const std::uint64_t ccnem = fingerprint(
      coop::server::run_simulation(sim_config(SystemKind::kCcNem), trace));
  if (l2s == kGoldenL2s && ccnem == kGoldenCcNem) return std::nullopt;
  return "simulator results on the preset trace changed: L2S fingerprint " +
         std::to_string(l2s) + " (pinned " + std::to_string(kGoldenL2s) +
         "), CC-NEM " + std::to_string(ccnem) + " (pinned " +
         std::to_string(kGoldenCcNem) + ")";
}

SimResult run_sim_phase(std::uint64_t seed, const SimOptions& options) {
  SimResult r;
  SpanLog log;
  SpanLog* spans = options.traced ? &log : nullptr;
  const auto timed = [&](SpanKind kind, auto&& fn) {
    const std::uint64_t t0 = now_ns();
    auto out = fn();
    if (spans) spans->record(kind, t0, now_ns());
    return out;
  };

  coop::trace::Trace trace;
  for (int k = 0; k < std::max(1, options.setups); ++k) {
    const std::uint64_t t0 = now_ns();
    trace = timed(SpanKind::kTraceGenerate,
                  [&] { return coop::trace::generate(sim_trace_spec(seed)); });
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const auto per_call = static_cast<std::uint64_t>(trace.requests.size());
  const auto l2s_cfg = sim_config(SystemKind::kL2S);
  const auto ccnem_cfg = sim_config(SystemKind::kCcNem);

  const Usage u0 = usage_now();
  const std::uint64_t t_start = now_ns();
  const std::uint64_t deadline =
      t_start + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (int pair = 0;; ++pair) {
    if (options.pairs ? pair >= options.pairs
                      : (pair > 0 && now_ns() >= deadline)) {
      break;
    }
    const std::uint64_t t0 = now_ns();
    const RunMetrics l2s = timed(SpanKind::kSimL2s, [&] {
      return coop::server::run_simulation(l2s_cfg, trace);
    });
    const RunMetrics ccnem = timed(SpanKind::kSimCcNem, [&] {
      return coop::server::run_simulation(ccnem_cfg, trace);
    });
    const std::uint64_t t1 = now_ns();
    r.calls += 2;
    r.requests += 2 * per_call;
    r.us_per_request.push_back(static_cast<double>(t1 - t0) / 1e3 /
                               static_cast<double>(2 * per_call));
    if (pair == 0) {
      r.l2s = l2s;
      r.ccnem = ccnem;
      if (l2s.requests == 0 || ccnem.requests == 0) {
        r.failed += 2;
        r.violations.push_back("a simulation measured no requests");
      } else if (l2s.throughput_rps == ccnem.throughput_rps) {
        r.failed += 2;
        r.violations.push_back(
            "L2S and CC-NEM throughputs are equal; the memory size no longer "
            "separates them");
      }
      continue;
    }
    // The simulator is deterministic: every repeat must reproduce pair 0.
    for (const auto& [got, want, name] :
         {std::tuple{&l2s, &r.l2s, "L2S"},
          std::tuple{&ccnem, &r.ccnem, "CC-NEM"}}) {
      if (!(*got == *want)) {
        ++r.failed;
        if (r.violations.size() < 4) {
          r.violations.push_back(std::string(name) + " repeat " +
                                 std::to_string(pair) +
                                 " differs from the first run");
        }
      }
    }
  }
  r.wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  const Usage u1 = usage_now();
  r.user_s = u1.user_s - u0.user_s;
  r.sys_s = u1.sys_s - u0.sys_s;
  r.vol_ctx_switches = u1.vol_ctx_switches - u0.vol_ctx_switches;

  r.calls += 2;
  if (const auto mismatch = golden_mismatch()) {
    r.final_check_failed = true;
    r.violations.push_back(*mismatch);
  }
  if (spans) r.spans = log.collect();
  return r;
}

}  // namespace perfbench
