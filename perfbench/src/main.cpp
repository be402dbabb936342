// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Workloads: read-zipf-spill, write-mix, tcp-mix (CcmCluster through its
// public API) and sim-rutgers (server::run_simulation). --trace 0 measures
// the end-to-end metrics with no instrumentation; --trace 1 runs the same
// workload twice (two phases of half the run, at most 5 s each), without
// and then with the timing decorators, and prints
// the per-layer metrics (--trace-out also writes the spans as Chrome
// trace-event JSON). Every output is checked. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "proc.hpp"
#include "runtime.hpp"
#include "sim.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--trace-out") a.trace_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string host_json() {
  utsname u{};
  uname(&u);
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"kernel\":" + quote(std::string(u.sysname) + " " + u.release) +
         ",\"machine\":" + quote(u.machine) + "}";
}

std::string metrics_json(const std::vector<Metric>& ms, bool with_samples) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    out += quote(m.name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + quote(m.unit);
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

struct Outcome {
  std::vector<Metric> gated;   // the final line's metrics
  std::vector<Metric> extras;  // printed, not gated
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::size_t spans = 0;
};

void absorb(Outcome& o, std::uint64_t attempted, std::uint64_t failed,
            bool final_failed, const std::vector<std::string>& violations) {
  o.attempted += attempted;
  // A run whose end-of-run check fails counts every op as failed.
  o.failed += final_failed ? attempted : failed;
  o.violations.insert(o.violations.end(), violations.begin(),
                      violations.end());
}

/// Length of each half of a traced run: half the run, at most 5 s. The
/// per-layer figures need far fewer samples than the end-to-end ones, and
/// the spans of a longer traced half would take hundreds of MiB.
double traced_phase_seconds(double seconds) {
  return std::min(seconds / 2, 5.0);
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  if (!write_trace_json(spans, 200000, path)) {
    std::cerr << "perfbench: cannot write " << path << "\n";
  }
}

Outcome run_runtime(const RuntimeShape& shape, const Args& a) {
  Outcome o;
  if (!a.trace) {
    RuntimeOptions opt;
    opt.seconds = a.seconds;
    opt.setups = 7;
    const PhaseResult r = run_runtime_phase(shape, a.seed, opt);
    o.gated = runtime_end_to_end(r).metrics();
    o.extras = runtime_extras(r);
    absorb(o, r.attempted, r.failed, r.final_check_failed, r.violations);
    return o;
  }
  RuntimeOptions opt;
  opt.seconds = traced_phase_seconds(a.seconds);
  const PhaseResult plain = run_runtime_phase(shape, a.seed, opt);
  opt.traced = true;
  const PhaseResult traced = run_runtime_phase(shape, a.seed, opt);
  o.gated = runtime_layers(traced, plain.ops_per_s()).metrics();
  o.extras = runtime_extras(traced);
  o.spans = traced.spans.size();
  absorb(o, plain.attempted, plain.failed, plain.final_check_failed,
         plain.violations);
  absorb(o, traced.attempted, traced.failed, traced.final_check_failed,
         traced.violations);
  o.extras.push_back({"trace.spans_dropped",
                      static_cast<double>(traced.spans_dropped), "count",
                      traced.spans.size() + traced.spans_dropped});
  write_spans(traced.spans, a.trace_out);
  return o;
}

Outcome run_sim(const Args& a) {
  Outcome o;
  if (!a.trace) {
    SimOptions opt;
    opt.seconds = a.seconds;
    // A trace generates in a few ms; more set-ups steady the median.
    opt.setups = 21;
    const SimResult r = run_sim_phase(a.seed, opt);
    o.gated = sim_end_to_end(r, usage_now().peak_rss_mb).metrics();
    o.extras = sim_extras(r);
    absorb(o, r.calls, r.failed, r.final_check_failed, r.violations);
    return o;
  }
  SimOptions opt;
  opt.seconds = traced_phase_seconds(a.seconds);
  const SimResult plain = run_sim_phase(a.seed, opt);
  opt.traced = true;
  const SimResult traced = run_sim_phase(a.seed, opt);
  o.gated = sim_layers(traced, plain.ops_per_s()).metrics();
  o.extras = sim_extras(traced);
  o.spans = traced.spans.size();
  absorb(o, plain.calls, plain.failed, plain.final_check_failed,
         plain.violations);
  absorb(o, traced.calls, traced.failed, traced.final_check_failed,
         traced.violations);
  write_spans(traced.spans, a.trace_out);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload <read-zipf-spill|write-mix|"
                 "tcp-mix|sim-rutgers> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n";
    return 2;
  }
  const auto shape = runtime_shape(a.workload, a.seed);
  if (!shape && a.workload != "sim-rutgers") {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }

  Outcome o;
  try {
    o = shape ? run_runtime(*shape, a) : run_sim(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
  const bool correct = o.failed == 0 && o.violations.empty();

  std::cout << "perfbench " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << "\nhost " << host_json() << "\n";
  for (const auto* set : {&o.gated, &o.extras}) {
    for (const Metric& m : *set) {
      std::cout << (set == &o.gated ? "metric " : "extra  ") << m.name << " = "
                << num(m.value) << " " << m.unit << " (n=" << m.samples
                << ")\n";
    }
  }
  if (a.trace) std::cout << "spans " << o.spans << "\n";
  for (const std::string& v : o.violations) {
    std::cout << "violation " << v << "\n";
  }
  std::string violations = "[";
  for (const std::string& v : o.violations) {
    violations += (violations.size() > 1 ? "," : "") + quote(v);
  }
  violations += "]";
  std::cout << "report {\"workload\":" << quote(a.workload)
            << ",\"seed\":" << a.seed << ",\"seconds\":" << num(a.seconds)
            << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"host\":" << host_json()
            << ",\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
            << ",\"metrics\":" << metrics_json(o.gated, true)
            << ",\"extras\":" << metrics_json(o.extras, true)
            << ",\"violations\":" << violations << "}\n";
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
            << ",\"metrics\":" << metrics_json(o.gated, false) << "}"
            << std::endl;
  return 0;
}
