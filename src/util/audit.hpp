// CCM_AUDIT — compile-time-gated protocol invariant auditing.
//
// Two layers:
//
//  1. *Audit entry points* (ClusterCache::audit, WholeFileCache::audit,
//     Engine::audit_state, CcmCluster::audit, ...) are always compiled. They
//     sweep a component's state, report every violated invariant through
//     coop::audit::report, and return the number of violations. Tests install
//     a collecting handler (audit::Recorder) and corrupt state deliberately
//     to prove each invariant trips.
//
//  2. *Auto hooks* — the calls that run those sweeps after every protocol
//     event — are compiled in only when the build defines CCM_AUDIT_ENABLED=1
//     (CMake option -DCOOPCACHE_AUDIT=ON). A normal build pays nothing; the
//     audit CI job replays the tier-1 suites with every event audited.
//
// Threading: report() first consults a per-thread handler overlay
// (set_thread_handler — e.g. a sweep worker dumping its own tracer's
// in-flight spans), then the process-global slot (set_handler, guarded by a
// mutex). Concurrent reporters are safe: the Recorder serializes its own
// collection internally.
//
// Without an installed handler a violation prints to stderr and aborts: an
// audited build must not keep simulating from a corrupt state, because every
// figure depends on the protocol accounting being exact.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#ifndef CCM_AUDIT_ENABLED
#define CCM_AUDIT_ENABLED 0
#endif

// Expands `expr` only in audited builds. Use at protocol-event sites:
//   CCM_AUDIT_HOOK(audit("access_block"));
#if CCM_AUDIT_ENABLED
#define CCM_AUDIT_HOOK(expr) \
  do {                       \
    expr;                    \
  } while (false)
#else
#define CCM_AUDIT_HOOK(expr) \
  do {                       \
  } while (false)
#endif

namespace coop::audit {

/// One violated invariant: which rule, and the state that violated it.
struct Violation {
  std::string invariant;  // stable id, e.g. "cache-single-master"
  std::string detail;     // human-readable specifics
};

using Handler = std::function<void(const Violation&)>;

/// True when the build compiles the per-event auto hooks.
constexpr bool hooks_compiled_in() { return CCM_AUDIT_ENABLED != 0; }

/// Installs `h` as the process-global violation handler and returns the
/// previous one. Passing nullptr restores the default print-and-abort
/// handler. Thread-safe.
Handler set_handler(Handler h);

/// Installs `h` as this thread's handler overlay and returns the previous
/// overlay. While set, violations reported *on this thread* go to `h`
/// instead of the global handler; `h` may defer by calling report_global.
/// Passing nullptr removes the overlay.
Handler set_thread_handler(Handler h);

/// Routes a violation to the calling thread's overlay if one is installed,
/// else to the global handler (or print-and-abort). Thread-safe.
void report(std::string invariant, std::string detail);

/// Routes a violation directly to the global handler (or print-and-abort),
/// bypassing the calling thread's overlay — the overlay's defer path.
void report_global(const Violation& v);

/// RAII collector for tests: while alive, violations are recorded instead of
/// aborting; the previous global handler is restored on destruction.
/// Collection is internally serialized, so ops and message handlers on any
/// thread may report concurrently; violations()/count()/saw() are meant for
/// quiescent inspection after the audited operation returns.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::size_t count() const {
    std::scoped_lock lock(mu_);
    return violations_.size();
  }
  [[nodiscard]] bool saw(const std::string& invariant) const;
  void clear() {
    std::scoped_lock lock(mu_);
    violations_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Violation> violations_;
  Handler previous_;
};

}  // namespace coop::audit

// Always-compiled invariant check, used *inside* audit entry points:
// evaluates `cond`; on failure reports through the handler and bumps the
// caller's violation counter (a local named `ccm_audit_failures`).
#define CCM_AUDIT(cond, invariant, detail)         \
  do {                                             \
    if (!(cond)) {                                 \
      ++ccm_audit_failures;                        \
      ::coop::audit::report((invariant), (detail)); \
    }                                              \
  } while (false)
