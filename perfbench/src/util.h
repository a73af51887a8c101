// Small helpers shared by the benchmark program: clocks, order
// statistics, process memory, directory sizes and the JSON result line.
#ifndef MICROPROV_PERFBENCH_UTIL_H_
#define MICROPROV_PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double NowSec();

/// The p-th percentile (0..100) of `values` by the nearest-rank rule;
/// 0 when `values` is empty. Takes a copy: callers keep their order.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Resident and peak resident memory of this process, in bytes (VmRSS,
/// VmHWM from /proc/self/status; 0 where unavailable).
uint64_t RssBytes();
uint64_t PeakRssBytes();

/// Bytes of every regular file under `path` (0 when it does not exist).
uint64_t TreeBytes(const std::string& path);

/// Bytes of the regular files directly in `dir` whose names start with
/// `prefix`.
uint64_t FilesBytes(const std::string& dir, const std::string& prefix);

void RemoveTree(const std::string& path);

constexpr double kMiB = 1024.0 * 1024.0;

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Prints the benchmark's result object as one line on stdout.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics);

}  // namespace perfbench

#endif  // MICROPROV_PERFBENCH_UTIL_H_
