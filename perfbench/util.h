// Shared pieces of perfbench: command-line options, the result
// report printed as the last stdout line, timing and percentile helpers,
// and the seeded inputs every workload draws from.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  /// Seeds the inputs: the serve_hot working set and request stream, and
  /// the order table1 checks its corpus in.
  std::uint64_t seed = 20170529;
  /// Generator seed of the table1 corpus (and its traced run). The default
  /// is the paper's Table I corpus; see perfbench/README.md for why --seed
  /// does not change it.
  std::uint64_t corpus_seed = 20170529;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the chpl-uaf-serve binary the serve_* workloads launch.
  std::string serve_bin;
};

/// Counts operations and collects metrics; print() emits the one-line JSON
/// result, which is always the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records `n` attempted operations of which `failed` failed a check.
  void ops(std::uint64_t n, std::uint64_t failed = 0);
  /// One failed correctness check; `what` goes to stdout for the reader.
  void fail(const std::string& what);
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] inline double usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (`q` in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set size (VmHWM) of `pid` in MB; 0 = this process.
/// Returns 0 when /proc cannot be read.
[[nodiscard]] double peakRssMb(pid_t pid = 0);

/// One generated program plus its generator ground truth.
struct Program {
  std::string name;
  std::string source;
  unsigned intended_unsafe_tasks = 0;
};

/// `count` programs from the generator stream `seed`. `skip_widened` drops
/// programs with a task whose wait sits in a widened sync loop (generator
/// ground truth intended_fp_tasks > 0): the PPS tail, about 0.5% of
/// programs, each costing up to seconds to analyze.
[[nodiscard]] std::vector<Program> generatePrograms(std::uint64_t seed,
                                                    std::size_t count,
                                                    bool skip_widened = false);

/// One `analyze` request line (no trailing newline) with default options.
[[nodiscard]] std::string analyzeLine(std::uint64_t id, const Program& p);

/// Hash of a response with its volatile fields removed: two responses with
/// equal hashes are byte-identical modulo stripVolatile().
[[nodiscard]] std::uint64_t stableHash(std::string_view response);

}  // namespace perfbench
