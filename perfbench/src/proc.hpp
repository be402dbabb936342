// Process resource usage (getrusage) for CPU, context-switch and memory
// metrics.
#pragma once

#include <sys/resource.h>

#include <cstdint>

namespace perfbench {

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t vol_ctx_switches = 0;
  double peak_rss_mb = 0.0;
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  // ru_maxrss is in KiB on Linux.
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

}  // namespace perfbench
