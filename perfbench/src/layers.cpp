#include "layers.hpp"

#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "ops/s"},    {"op_p50_us", "us"},
      {"op_p90_us", "us"},       {"cpu_us_per_op", "us/op"},
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_defs() {
  static const std::vector<MetricDef> defs = {
      // ccm: read path
      {"ccm.local_hit_share", "ratio"},
      {"ccm.remote_hit_share", "ratio"},
      {"ccm.disk_read_share", "ratio"},
      {"ccm.hint_hits_per_read", "ratio"},
      {"ccm.hint_stale_share", "ratio"},
      {"ccm.handler_p50_us", "us"},
      // ccm: replacement
      {"ccm.forward_accept_share", "ratio"},
      {"ccm.master_drops_per_kop", "count/kop"},
      // ccm: shards
      {"ccm.shard_lock_contention", "ratio"},
      {"ccm.one_shard_read_share", "ratio"},
      {"ccm.handler_busy_share", "ratio"},
      {"proc.vol_ctx_switches_per_op", "count/op"},
      // ccm: writes
      {"ccm.ownership_migrations_per_kop", "count/kop"},
      {"ccm.invalidations_per_kop", "count/kop"},
      // ccm.storage
      {"ccm.storage.reads_per_op", "count/op"},
      {"ccm.storage.read_p50_us", "us"},
      {"ccm.storage.writes_per_op", "count/op"},
      {"ccm.storage.write_p50_us", "us"},
      {"ccm.storage.busy_us_per_op", "us/op"},
      // proto: directory
      {"proto.dir.trips_per_op", "count/op"},
      {"proto.dir.ops_per_trip", "count"},
      {"proto.dir.claim_conflicts_per_kop", "count/kop"},
      {"proto.dir.forward_rejects_per_kop", "count/kop"},
      {"proto.dir.call_p50_us", "us"},
      {"proto.dir.busy_us_per_op", "us/op"},
      // net
      {"net.msgs_per_op", "count/op"},
      {"net.rpcs_per_op", "count/op"},
      {"net.bytes_per_op", "B/op"},
      {"net.msgs_per_flush", "count"},
      {"net.call_p50_us", "us"},
      {"net.call_p99_us", "us"},
      {"net.transit_share", "ratio"},
      {"proc.sys_cpu_share", "ratio"},
      // safety
      {"net.payload_copies", "count"},
      {"net.rpc_retries", "count"},
      {"net.rpc_timeouts", "count"},
      {"ccm.uncached_fallbacks", "count"},
      {"ccm.audit_violations", "count"},
      // simulator
      {"trace.generate_s", "s"},
      {"server.l2s_wall_s", "s"},
      {"server.ccnem_wall_s", "s"},
      {"cache.disk_block_reads", "count"},
      {"cache.remote_block_fetches", "count"},
      {"cache.master_forwards", "count"},
      {"server.handoffs", "count"},
      // the traced run itself
      {"trace.overhead_share", "ratio"},
  };
  return defs;
}

MetricSet::MetricSet(const std::vector<MetricDef>& defs) {
  for (const MetricDef& d : defs) m_.push_back({d.name, 0.0, d.unit, 0});
}

void MetricSet::set(const std::string& name, double value,
                    std::uint64_t samples) {
  for (Metric& m : m_) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  }
  throw std::out_of_range("unknown metric " + name);
}

const Metric& MetricSet::get(const std::string& name) const {
  for (const Metric& m : m_) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("unknown metric " + name);
}

namespace {

double as_d(std::uint64_t v) { return static_cast<double>(v); }

/// Median of per-window throughputs; the whole-phase rate when the phase
/// was too short for a window.
double window_rate(const PhaseResult& r) {
  return r.window_ops_per_s.empty() ? r.ops_per_s()
                                    : median(r.window_ops_per_s);
}

/// Median over throughput windows of each window's `p`th percentile: the
/// tail of a typical window, so one stalled window does not set the run's
/// figure. Windows with fewer than 100 samples are skipped; with no usable
/// window it is the percentile of all samples.
double window_percentile(const PhaseResult& r, double p) {
  std::vector<std::vector<double>> by_window(r.window_ops_per_s.size());
  for (std::size_t i = 0; i < r.op_us.size() && i < r.op_window.size(); ++i) {
    if (r.op_window[i] < by_window.size()) {
      by_window[r.op_window[i]].push_back(r.op_us[i]);
    }
  }
  std::vector<double> per_window;
  for (auto& w : by_window) {
    if (w.size() >= 100) per_window.push_back(percentile(w, p));
  }
  if (per_window.empty()) {
    std::vector<double> all = r.op_us;
    return percentile(all, p);
  }
  return median(per_window);
}

void set_overhead(MetricSet& m, double untraced, double traced) {
  // Base: the untraced throughput.
  m.set("trace.overhead_share", ratio(untraced - traced, untraced), 2);
}

void set_latency(std::vector<Metric>& out, const std::string& prefix,
                 const std::vector<double>& us) {
  const LatencySummary s = summarize(us);
  out.push_back({prefix + "_p50_us", s.p50_us, "us", s.count});
  out.push_back({prefix + "_p99_us", s.p99_us, "us", s.count});
}

}  // namespace

MetricSet runtime_end_to_end(const PhaseResult& r) {
  MetricSet m(end_to_end_defs());
  const auto ops = static_cast<std::uint64_t>(r.op_us.size());
  const LatencySummary lat = summarize(r.op_us);
  m.set("ops_per_s", window_rate(r), r.window_ops_per_s.size());
  m.set("op_p50_us", lat.p50_us, lat.count);
  m.set("op_p90_us", window_percentile(r, 90), lat.count);
  // Base: timed ops; CPU of every thread in the process.
  m.set("cpu_us_per_op", ratio((r.user_s + r.sys_s) * 1e6, as_d(ops)), ops);
  m.set("setup_s", median(r.setup_s), r.setup_s.size());
  m.set("peak_rss_mb", r.peak_rss_mb, 1);
  return m;
}

MetricSet sim_end_to_end(const SimResult& r, double peak_rss_mb) {
  MetricSet m(end_to_end_defs());
  std::vector<double> pairs = r.us_per_request;
  // An op here is one simulated request.
  m.set("ops_per_s", r.ops_per_s(), r.requests);
  m.set("op_p50_us", percentile(pairs, 50), pairs.size());
  m.set("op_p90_us", percentile(pairs, 90), pairs.size());
  m.set("cpu_us_per_op", ratio((r.user_s + r.sys_s) * 1e6, as_d(r.requests)),
        r.requests);
  m.set("setup_s", median(r.setup_s), r.setup_s.size());
  m.set("peak_rss_mb", peak_rss_mb, 1);
  return m;
}

MetricSet runtime_layers(const PhaseResult& t, double untraced_ops_per_s) {
  MetricSet m(layer_defs());
  const SpanAnalysis spans = analyze(t.spans);
  const auto& s = t.stats;
  const auto ops = static_cast<std::uint64_t>(t.op_us.size());
  const double kops = as_d(ops) / 1e3;
  const std::uint64_t reads = t.reads;

  // ccm read path. Base: block accesses (local + remote + disk).
  const std::uint64_t accesses = s.block_accesses();
  m.set("ccm.local_hit_share", ratio(s.local_hits, accesses), accesses);
  m.set("ccm.remote_hit_share", ratio(s.remote_hits, accesses), accesses);
  m.set("ccm.disk_read_share", ratio(s.disk_reads, accesses), accesses);
  // Base: driver reads.
  m.set("ccm.hint_hits_per_read", ratio(s.hint_hits, reads), reads);
  // Base: hint hits.
  m.set("ccm.hint_stale_share", ratio(s.hint_stale, s.hint_hits), s.hint_hits);
  const KindStats& handler = spans[SpanKind::kHandler];
  {
    std::vector<double> d = handler.dur_us;
    m.set("ccm.handler_p50_us", percentile(d, 50), handler.count);
  }

  // ccm replacement. Base: forwards attempted; driver ops.
  m.set("ccm.forward_accept_share",
        ratio(s.forwards_accepted, s.forwards_attempted), s.forwards_attempted);
  m.set("ccm.master_drops_per_kop", ratio(as_d(s.master_drops), kops), ops);

  // ccm shards. Base: lock acquisitions; driver reads; protocol-thread time.
  std::uint64_t acquired = 0;
  std::uint64_t contended = 0;
  std::uint64_t one_shard = 0;
  for (const auto& sh : s.shards) {
    acquired += sh.lock_acquired;
    contended += sh.lock_contended;
    one_shard += sh.local_reads;
  }
  m.set("ccm.shard_lock_contention", ratio(contended, acquired), acquired);
  m.set("ccm.one_shard_read_share", ratio(one_shard, reads), reads);
  m.set("ccm.handler_busy_share",
        ratio(handler.total_us,
              t.wall_s * 1e6 * as_d(t.protocol_threads)),
        handler.count);
  m.set("proc.vol_ctx_switches_per_op", ratio(t.vol_ctx_switches, ops), ops);

  // ccm writes. Base: driver ops.
  m.set("ccm.ownership_migrations_per_kop",
        ratio(as_d(s.ownership_migrations), kops), ops);
  m.set("ccm.invalidations_per_kop", ratio(as_d(s.invalidations), kops), ops);

  // ccm.storage: calls a node makes on its own behalf (not those it serves
  // for a peer over TCP). Base: driver ops.
  const KindStats& sr = spans[SpanKind::kStorageRead];
  const KindStats& sw = spans[SpanKind::kStorageWrite];
  {
    std::vector<double> r = sr.direct_dur_us;
    std::vector<double> w = sw.direct_dur_us;
    m.set("ccm.storage.reads_per_op", ratio(sr.direct_count, ops), ops);
    m.set("ccm.storage.read_p50_us", percentile(r, 50), sr.direct_count);
    m.set("ccm.storage.writes_per_op", ratio(sw.direct_count, ops), ops);
    m.set("ccm.storage.write_p50_us", percentile(w, 50), sw.direct_count);
    m.set("ccm.storage.busy_us_per_op",
          ratio(sr.direct_self_us + sw.direct_self_us, as_d(ops)), ops);
  }

  // proto directory, at the DirectoryClient seam. Base: driver ops; trips.
  const SeamCounts& c = t.seams;
  const std::uint64_t trips = c.dir_singles + c.dir_batches;
  m.set("proto.dir.trips_per_op", ratio(trips, ops), ops);
  m.set("proto.dir.ops_per_trip",
        ratio(c.dir_singles + c.dir_batched_ops, trips), trips);
  m.set("proto.dir.claim_conflicts_per_kop",
        ratio(as_d(s.directory.claim_conflicts), kops), ops);
  m.set("proto.dir.forward_rejects_per_kop",
        ratio(as_d(s.directory.forward_rejects), kops), ops);
  {
    const KindStats& ds = spans[SpanKind::kDirSingle];
    const KindStats& db = spans[SpanKind::kDirBatch];
    std::vector<double> d = ds.dur_us;
    d.insert(d.end(), db.dur_us.begin(), db.dur_us.end());
    m.set("proto.dir.call_p50_us", percentile(d, 50), d.size());
    m.set("proto.dir.busy_us_per_op",
          ratio(ds.self_us + db.self_us, as_d(ops)), ops);
  }

  // net, at the Transport seam. Base: driver ops; flushes; call time.
  const KindStats& calls = spans[SpanKind::kNetCall];
  m.set("net.msgs_per_op", ratio(c.net_messages, ops), ops);
  m.set("net.rpcs_per_op", ratio(c.net_calls, ops), ops);
  m.set("net.bytes_per_op", ratio(c.net_bytes, ops), ops);
  m.set("net.msgs_per_flush", ratio(s.transport.sent, s.transport.flushes),
        s.transport.flushes);
  {
    std::vector<double> d = calls.dur_us;
    m.set("net.call_p50_us", percentile(d, 50), calls.count);
    m.set("net.call_p99_us", percentile(d, 99), calls.count);
  }
  m.set("net.transit_share",
        calls.total_us > 0 ? 1.0 - ratio(handler.total_us, calls.total_us)
                           : 0.0,
        calls.count);
  // Base: process CPU (user + sys).
  m.set("proc.sys_cpu_share", ratio(t.sys_s, t.user_s + t.sys_s), ops);

  // safety counters (whole timed phase)
  m.set("net.payload_copies", as_d(s.transport.payload_copies), ops);
  m.set("net.rpc_retries", as_d(s.transport.rpc_retries), ops);
  m.set("net.rpc_timeouts", as_d(s.transport.rpc_timeouts), ops);
  m.set("ccm.uncached_fallbacks",
        as_d(t.snapshot.counters[static_cast<std::size_t>(
            coop::obs::RtCounter::kUncachedFallback)]),
        ops);
  m.set("ccm.audit_violations", as_d(t.audit_violations), 1);

  set_overhead(m, untraced_ops_per_s, t.ops_per_s());
  return m;
}

MetricSet sim_layers(const SimResult& t, double untraced_ops_per_s) {
  MetricSet m(layer_defs());
  const SpanAnalysis spans = analyze(t.spans);
  const auto med = [&](SpanKind k) {
    std::vector<double> d = spans[k].dur_us;
    return median(d) / 1e6;
  };
  m.set("trace.generate_s", med(SpanKind::kTraceGenerate),
        spans[SpanKind::kTraceGenerate].count);
  m.set("server.l2s_wall_s", med(SpanKind::kSimL2s),
        spans[SpanKind::kSimL2s].count);
  m.set("server.ccnem_wall_s", med(SpanKind::kSimCcNem),
        spans[SpanKind::kSimCcNem].count);
  // Exact simulated counts of one call (every repeat is identical).
  m.set("cache.disk_block_reads", as_d(t.ccnem.disk_block_reads), 1);
  m.set("cache.remote_block_fetches", as_d(t.ccnem.remote_block_fetches), 1);
  m.set("cache.master_forwards", as_d(t.ccnem.master_forwards), 1);
  m.set("server.handoffs", as_d(t.l2s.handoffs), 1);
  // Base: simulated requests; process CPU.
  m.set("proc.vol_ctx_switches_per_op",
        ratio(t.vol_ctx_switches, t.requests), t.requests);
  m.set("proc.sys_cpu_share", ratio(t.sys_s, t.user_s + t.sys_s),
        t.requests);
  set_overhead(m, untraced_ops_per_s, t.ops_per_s());
  return m;
}

std::vector<Metric> runtime_extras(const PhaseResult& r) {
  std::vector<Metric> out = {
      {"op_p99_us", window_percentile(r, 99), "us", r.op_us.size()}};
  set_latency(out, "read", r.read_us);
  set_latency(out, "write", r.write_us);
  const std::uint64_t failed = r.final_check_failed ? r.attempted : r.failed;
  out.push_back({"failed_op_share", ratio(failed, r.attempted), "ratio",
                 r.attempted});
  out.push_back({"latency_samples_dropped", as_d(r.samples_dropped), "count",
                 r.op_us.size() + r.samples_dropped});
  return out;
}

std::vector<Metric> sim_extras(const SimResult& r) {
  const std::uint64_t failed = r.final_check_failed ? r.calls : r.failed;
  std::vector<double> pairs = r.us_per_request;
  return {{"op_p99_us", percentile(pairs, 99), "us", pairs.size()},
          {"sim_requests_per_s", r.ops_per_s(), "req/s", r.requests},
          {"failed_op_share", ratio(failed, r.calls), "ratio", r.calls}};
}

}  // namespace perfbench
