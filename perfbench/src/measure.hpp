// Clocks, process counters and order statistics shared by the timed and
// traced runs.
#pragma once

#include <string>
#include <vector>

namespace h4d::perfbench {

/// Monotonic wall clock, seconds.
double wall_seconds();

/// CPU seconds of the whole process (all threads, joined ones included).
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes process_cpu_times();

/// Reset the kernel's resident-set high-water mark to the current RSS, so
/// peak_rss_mib() reports the peak of what runs next.
void reset_peak_rss();
double peak_rss_mib();

/// The 1-, 5- and 15-minute load averages as printed by /proc/loadavg.
std::string load_average();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace h4d::perfbench
