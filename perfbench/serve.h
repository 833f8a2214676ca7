// Driving a live chpl-uaf-serve daemon: launch and readiness, closed-loop
// socket load with per-request latency, and the serve_hot workload.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util.h"

namespace perfbench {

/// A chpl-uaf-serve child process listening on a Unix socket in the
/// working directory. The destructor SIGKILLs and reaps it if stop() did
/// not run, so no daemon outlives the benchmark.
class Daemon {
 public:
  static constexpr const char* kSocket = "daemon.sock";

  /// Launches the daemon and waits for its first `ping` reply; setupSeconds()
  /// is that launch-to-reply time. Throws std::runtime_error on failure.
  Daemon(const std::string& bin, const std::vector<std::string>& args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] double setupSeconds() const { return setup_s_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// One `stats` round trip; returns the value of `stats.<field>`.
  [[nodiscard]] std::uint64_t stat(const std::string& field) const;
  /// Sends `shutdown` and reaps the process; false unless it exits 0.
  bool stop();

 private:
  /// SIGKILLs and reaps the process if it is still ours.
  void kill();

  pid_t pid_ = -1;
  double setup_s_ = 0.0;
};

/// Launches `kSetupReps` daemons in turn and keeps the last one running;
/// `setup_s` receives the median launch-to-first-ping time.
[[nodiscard]] std::unique_ptr<Daemon> launchDaemon(
    const std::string& bin, const std::vector<std::string>& args,
    double& setup_s);

/// A request stream for runLoad, called from client threads. `next` returns
/// the next request line for a client thread and sets its index, or returns
/// null when the stream is exhausted; the line must stay alive until the
/// load ends. `check` validates the response to request `idx`.
struct Stream {
  std::function<const std::string*(std::size_t thread, std::size_t& idx)> next;
  std::function<bool(std::size_t idx, std::string_view response)> check;
};

/// A stream that sends every line of `lines` once, in order.
[[nodiscard]] Stream sendEachOnce(
    const std::vector<std::string>& lines,
    std::function<bool(std::size_t idx, std::string_view response)> check);

struct LoadStats {
  double rps = 0.0;      ///< responses completed per second of the load
  double p50_us = 0.0;   ///< latency percentiles over every response
  double p99_us = 0.0;
  double seconds = 0.0;  ///< measured duration
  std::vector<double> window_rps;  ///< responses per whole 1 s window
  std::size_t sent = 0;
  std::size_t failed = 0;   ///< error, mismatched or unanswered responses
};

/// Closed loop: `conns` client threads, one connection each, every one
/// keeping `depth` requests outstanding. Runs for `seconds`, or until the
/// stream is exhausted when `seconds` <= 0.
[[nodiscard]] LoadStats runLoad(const Stream& stream, double seconds,
                                std::size_t conns, std::size_t depth);

/// What the traced run reuses from a serve workload run.
struct ServeOutcome {
  LoadStats load;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t analyzed = 0;
  double hit_ratio = 0.0;
};

/// serve_hot, checked and counted into `report`.
ServeOutcome serveWorkload(const Options& options, Report& report);

}  // namespace perfbench
