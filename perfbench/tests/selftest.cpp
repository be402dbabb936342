// Tests of the benchmark itself: its statistics, the base of every ratio it
// reports, that the timing decorators leave results unchanged, and that its
// oracles catch corruption.
#include <gtest/gtest.h>

#include <numeric>

#include "content.hpp"
#include "layers.hpp"
#include "runtime.hpp"
#include "sim.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// ---- percentiles and sample counts ----

TEST(Stats, NearestRankPercentiles) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 99), 99.0);
  EXPECT_EQ(percentile(v, 100), 100.0);
  EXPECT_EQ(percentile(v, 0.5), 1.0);

  std::vector<double> one = {7.0};
  EXPECT_EQ(percentile(one, 99), 7.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0.0);

  // 1000 samples: p99 is the 990th smallest, with ten samples above it.
  std::vector<double> k(1000);
  std::iota(k.rbegin(), k.rend(), 0.0);  // descending input order
  EXPECT_EQ(percentile(k, 99), 989.0);
}

TEST(Stats, SummaryCountsEverySample) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.p50_us, 3.0);
  EXPECT_EQ(s.p99_us, 5.0);
}

TEST(Stats, MedianMatchesPythonStatistics) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// ---- the base of every ratio ----

PhaseResult synthetic_phase() {
  PhaseResult t;
  t.op_us.assign(2000, 10.0);  // 2000 timed ops = 2 kop
  t.reads = 1600;
  t.wall_s = 2.0;
  t.protocol_threads = 4;
  t.user_s = 3.0;
  t.sys_s = 1.0;
  t.vol_ctx_switches = 500;
  auto& s = t.stats;
  s.local_hits = 600;
  s.remote_hits = 300;
  s.disk_reads = 100;
  s.hint_hits = 800;
  s.hint_stale = 200;
  s.forwards_attempted = 40;
  s.forwards_accepted = 30;
  s.master_drops = 10;
  s.ownership_migrations = 6;
  s.invalidations = 4;
  s.shards.resize(2);
  s.shards[0] = {.lock_acquired = 300, .lock_contended = 30, .local_reads = 400};
  s.shards[1] = {.lock_acquired = 100, .lock_contended = 10, .local_reads = 400};
  s.directory.claim_conflicts = 8;
  s.directory.forward_rejects = 2;
  s.transport.sent = 900;
  s.transport.flushes = 300;
  t.seams.net_messages = 5000;
  t.seams.net_calls = 2000;
  t.seams.net_bytes = 400000;
  t.seams.dir_singles = 1000;
  t.seams.dir_batches = 500;
  t.seams.dir_batched_ops = 2500;
  // One handler of 100us nested in a 400us call; one direct storage read.
  t.spans = {{1000, 401000, 0, 0, SpanKind::kNetCall},
             {0, 100000, 0, 1, SpanKind::kHandler},
             {10000, 30000, 0, 1, SpanKind::kStorageRead},
             {0, 50000, 0, 2, SpanKind::kStorageRead}};
  return t;
}

TEST(Ratios, EachMetricUsesItsStatedBase) {
  const MetricSet m = runtime_layers(synthetic_phase(), 1000.0);
  const auto v = [&](const char* name) { return m.get(name).value; };
  // Base: block accesses (1000).
  EXPECT_DOUBLE_EQ(v("ccm.local_hit_share"), 0.6);
  EXPECT_DOUBLE_EQ(v("ccm.remote_hit_share"), 0.3);
  EXPECT_DOUBLE_EQ(v("ccm.disk_read_share"), 0.1);
  EXPECT_EQ(m.get("ccm.local_hit_share").samples, 1000u);
  // Base: driver reads (1600), not ops.
  EXPECT_DOUBLE_EQ(v("ccm.hint_hits_per_read"), 0.5);
  EXPECT_DOUBLE_EQ(v("ccm.one_shard_read_share"), 0.5);
  // Base: hint hits, not reads.
  EXPECT_DOUBLE_EQ(v("ccm.hint_stale_share"), 0.25);
  // Base: forwards attempted.
  EXPECT_DOUBLE_EQ(v("ccm.forward_accept_share"), 0.75);
  // Base: thousands of driver ops (2).
  EXPECT_DOUBLE_EQ(v("ccm.master_drops_per_kop"), 5.0);
  EXPECT_DOUBLE_EQ(v("ccm.ownership_migrations_per_kop"), 3.0);
  EXPECT_DOUBLE_EQ(v("ccm.invalidations_per_kop"), 2.0);
  EXPECT_DOUBLE_EQ(v("proto.dir.claim_conflicts_per_kop"), 4.0);
  EXPECT_DOUBLE_EQ(v("proto.dir.forward_rejects_per_kop"), 1.0);
  // Base: lock acquisitions (400).
  EXPECT_DOUBLE_EQ(v("ccm.shard_lock_contention"), 0.1);
  // Base: protocol-thread time (2 s x 4 threads).
  EXPECT_DOUBLE_EQ(v("ccm.handler_busy_share"), 100.0 / 8e6);
  // Base: driver ops (2000).
  EXPECT_DOUBLE_EQ(v("proc.vol_ctx_switches_per_op"), 0.25);
  EXPECT_DOUBLE_EQ(v("net.msgs_per_op"), 2.5);
  EXPECT_DOUBLE_EQ(v("net.rpcs_per_op"), 1.0);
  EXPECT_DOUBLE_EQ(v("net.bytes_per_op"), 200.0);
  EXPECT_DOUBLE_EQ(v("proto.dir.trips_per_op"), 0.75);
  // Only the storage read made on the node's own behalf counts.
  EXPECT_DOUBLE_EQ(v("ccm.storage.reads_per_op"), 1.0 / 2000);
  EXPECT_DOUBLE_EQ(v("ccm.storage.read_p50_us"), 50.0);
  // Base: directory trips (1500); single ops plus batched ops ride them.
  EXPECT_DOUBLE_EQ(v("proto.dir.ops_per_trip"), 3500.0 / 1500);
  // Base: write syscalls.
  EXPECT_DOUBLE_EQ(v("net.msgs_per_flush"), 3.0);
  // Base: call time (400us), of which 100us was handling.
  EXPECT_DOUBLE_EQ(v("net.transit_share"), 0.75);
  // Base: process CPU.
  EXPECT_DOUBLE_EQ(v("proc.sys_cpu_share"), 0.25);
  // Base: untraced throughput (1000 ops/s); traced ran 2000 ops in 2 s.
  EXPECT_DOUBLE_EQ(v("trace.overhead_share"), 0.0);
}

TEST(Ratios, AnEmptyBaseGivesZeroNotNaN) {
  PhaseResult empty;
  const MetricSet m = runtime_layers(empty, 0.0);
  for (const Metric& x : m.metrics()) {
    EXPECT_EQ(x.value, 0.0) << x.name;
  }
  EXPECT_EQ(m.metrics().size(), layer_defs().size());
}

TEST(Ratios, EndToEndUsesTimedOps) {
  PhaseResult r = synthetic_phase();
  r.window_ops_per_s = {900, 1100, 1000};
  r.setup_s = {0.3, 0.1, 0.2};
  r.peak_rss_mb = 12.0;
  const MetricSet m = runtime_end_to_end(r);
  EXPECT_DOUBLE_EQ(m.get("ops_per_s").value, 1000.0);
  EXPECT_EQ(m.get("ops_per_s").samples, 3u);
  // (3 s user + 1 s sys) over 2000 timed ops.
  EXPECT_DOUBLE_EQ(m.get("cpu_us_per_op").value, 2000.0);
  EXPECT_DOUBLE_EQ(m.get("setup_s").value, 0.2);
  EXPECT_EQ(m.get("op_p50_us").samples, 2000u);
}

TEST(Ratios, TailIsTheMedianOfWindowPercentiles) {
  PhaseResult r;
  r.window_ops_per_s = {200, 200, 100};
  for (int i = 1; i <= 100; ++i) {
    r.op_us.push_back(i);  // window 0: p90 = 90
    r.op_window.push_back(0);
    r.op_us.push_back(100 + i);  // window 1: p90 = 190
    r.op_window.push_back(1);
  }
  for (int i = 0; i < 50; ++i) {  // window 2: too few samples, skipped
    r.op_us.push_back(1e6);
    r.op_window.push_back(2);
  }
  const MetricSet m = runtime_end_to_end(r);
  EXPECT_DOUBLE_EQ(m.get("op_p90_us").value, 140.0);
  EXPECT_EQ(m.get("op_p90_us").samples, 250u);
}

// ---- spans ----

TEST(Spans, SelfTimeSubtractsNestedChildrenOnTheSameThread) {
  const SpanAnalysis a = analyze({
      {0, 100000, 0, 1, SpanKind::kHandler},      // 100us
      {10000, 40000, 0, 1, SpanKind::kNetCall},   // 30us, inside handler
      {20000, 30000, 0, 1, SpanKind::kDirSingle}, // 10us, inside the call
      {20000, 30000, 0, 2, SpanKind::kDirSingle}, // other thread: no parent
  });
  EXPECT_DOUBLE_EQ(a[SpanKind::kHandler].self_us, 70.0);
  EXPECT_DOUBLE_EQ(a[SpanKind::kNetCall].self_us, 20.0);
  EXPECT_DOUBLE_EQ(a[SpanKind::kDirSingle].self_us, 20.0);
  // The thread-1 directory call is served work; thread 2's is direct.
  EXPECT_EQ(a[SpanKind::kDirSingle].count, 2u);
  EXPECT_EQ(a[SpanKind::kDirSingle].direct_count, 1u);
}

// ---- the decorators change nothing ----

PhaseResult fixed_run(const std::string& workload, bool traced) {
  const auto shape = runtime_shape(workload, 11);
  RuntimeOptions opt;
  opt.ops_per_driver = 400;
  opt.traced = traced;
  opt.keep_storage = true;
  return run_runtime_phase(*shape, 11, opt);
}

TEST(Decorators, SameFinalStorageInProcess) {
  const PhaseResult plain = fixed_run("write-mix", false);
  const PhaseResult traced = fixed_run("write-mix", true);
  EXPECT_TRUE(plain.violations.empty()) << plain.violations.front();
  EXPECT_TRUE(traced.violations.empty()) << traced.violations.front();
  EXPECT_EQ(plain.failed + traced.failed, 0u);
  EXPECT_FALSE(plain.final_storage.empty());
  EXPECT_EQ(plain.final_storage, traced.final_storage);
  EXPECT_GT(traced.spans.size(), 0u);
  EXPECT_GT(traced.seams.dir_singles + traced.seams.dir_batches, 0u);
}

TEST(Decorators, SameFinalStorageOverTcp) {
  const PhaseResult plain = fixed_run("tcp-mix", false);
  const PhaseResult traced = fixed_run("tcp-mix", true);
  EXPECT_TRUE(plain.violations.empty()) << plain.violations.front();
  EXPECT_TRUE(traced.violations.empty()) << traced.violations.front();
  EXPECT_EQ(plain.final_storage, traced.final_storage);
  EXPECT_GT(traced.seams.net_calls, 0u);
}

TEST(Decorators, SameSimulatorFingerprint) {
  SimOptions opt;
  opt.pairs = 1;
  const SimResult plain = run_sim_phase(5, opt);
  opt.traced = true;
  const SimResult traced = run_sim_phase(5, opt);
  EXPECT_TRUE(plain.violations.empty()) << plain.violations.front();
  EXPECT_EQ(fingerprint(plain.l2s), fingerprint(traced.l2s));
  EXPECT_EQ(fingerprint(plain.ccnem), fingerprint(traced.ccnem));
  EXPECT_NE(fingerprint(plain.l2s), fingerprint(plain.ccnem));
  EXPECT_GT(traced.spans.size(), 0u);
}

// ---- oracles ----

TEST(Oracle, ReplayCatchesASingleFlippedByte) {
  const std::vector<std::uint32_t> blocks = {2, 3, 1};
  const std::vector<BlockWrite> writes = {{1, 2, 5}, {0, 0, 6}, {1, 2, 9}};
  coop::ccm::BufferStorage store(file_sizes(blocks));
  seed_storage(store, blocks, 3);
  for (const BlockWrite& w : writes) {
    store.write(w.file, w.index * kBlockBytes,
                make_block(3, w.file, w.index, w.version));
  }
  EXPECT_EQ(replay_mismatch(store, blocks, 3, writes), std::nullopt);

  std::vector<std::byte> b(1);
  store.read(2, 4321, b);
  b[0] ^= std::byte{0x10};
  store.write(2, 4321, b);
  const auto mismatch = replay_mismatch(store, blocks, 3, writes);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_NE(mismatch->find("file 2 byte 4321"), std::string::npos);
}

TEST(Oracle, ReplayCatchesAMissingWrite) {
  const std::vector<std::uint32_t> blocks = {2};
  coop::ccm::BufferStorage store(file_sizes(blocks));
  seed_storage(store, blocks, 3);
  EXPECT_NE(replay_mismatch(store, blocks, 3, {{0, 1, 4}}), std::nullopt);
}

TEST(Oracle, TornOrMisplacedBlocksFailTheReadCheck) {
  const auto v1 = make_block(9, 4, 1, 1);
  const auto v2 = make_block(9, 4, 1, 2);
  EXPECT_EQ(check_block(v1, 9, 4, 1), 1u);
  EXPECT_EQ(check_block(v1, 9, 4, 2), std::nullopt);  // wrong block
  EXPECT_EQ(check_block(v1, 8, 4, 1), std::nullopt);  // wrong seed
  std::vector<std::byte> torn = v1;
  std::copy(v2.begin() + 4096, v2.end(), torn.begin() + 4096);
  EXPECT_EQ(check_block(torn, 9, 4, 1), std::nullopt);
}

TEST(Workloads, SameSeedSameInputs) {
  const auto a = runtime_shape("read-zipf-spill", 4);
  const auto b = runtime_shape("read-zipf-spill", 4);
  const auto c = runtime_shape("read-zipf-spill", 5);
  EXPECT_EQ(a->file_blocks, b->file_blocks);
  EXPECT_EQ(a->by_rank, b->by_rank);
  EXPECT_NE(a->file_blocks, c->file_blocks);
  // About twice the aggregate cache.
  const double spill = static_cast<double>(a->total_blocks()) /
                       static_cast<double>(a->nodes * a->blocks_per_node);
  EXPECT_GT(spill, 1.7);
  EXPECT_LT(spill, 2.3);
  EXPECT_FALSE(runtime_shape("no-such-workload", 1).has_value());
}

}  // namespace
}  // namespace perfbench
