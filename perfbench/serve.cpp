// serve_hot: a live chpl-uaf-serve daemon on a Unix socket, loaded by a
// closed loop of 2 connections x 8 outstanding single `analyze` requests.
// Every response is compared, after stripVolatile, with a serial
// in-process Server::handleLine reference.
#include "serve.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <latch>
#include <stdexcept>
#include <thread>

#include "src/net/shard_client.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kConns = 2;
constexpr std::size_t kDepth = 8;

cuaf::net::Address daemonAddress() {
  return cuaf::net::Address::makeUnix(Daemon::kSocket);
}

void expect(Report& report, const char* what, std::uint64_t value,
            std::uint64_t want) {
  if (value != want) {
    report.fail(std::string(what) + " = " + std::to_string(value) +
                ", expected " + std::to_string(want));
  }
}

bool isOk(std::string_view response) {
  return response.find("\"status\":\"ok\"") != std::string_view::npos;
}

/// Waits up to `timeout_s` for `pid` to exit; its wait status, or -1.
int reap(pid_t pid, double timeout_s) {
  const auto start = Clock::now();
  int status = 0;
  while (true) {
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (secondsSince(start) > timeout_s) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

Daemon::Daemon(const std::string& bin, const std::vector<std::string>& args) {
  ::unlink(kSocket);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const auto launched = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  // Ready = the first `ping` answered. The probe fails until the socket is
  // bound; the reply waits for the event loop to come up.
  const cuaf::net::Address address = daemonAddress();
  while (secondsSince(launched) < 60.0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    if (cuaf::net::probeAddress(address, 5000)) {
      setup_s_ = secondsSince(launched);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  kill();
  throw std::runtime_error("daemon did not answer ping within 60 s");
}

Daemon::~Daemon() { kill(); }

void Daemon::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10.0);
    pid_ = -1;
  }
}

std::uint64_t Daemon::stat(const std::string& field) const {
  cuaf::net::ShardConnection conn(daemonAddress());
  const std::string reply = conn.roundTrip("{\"op\":\"stats\",\"id\":0}");
  cuaf::service::JsonValue doc;
  std::string error;
  if (!cuaf::service::parseJson(reply, doc, error)) {
    throw std::runtime_error("bad stats reply: " + error);
  }
  const cuaf::service::JsonValue* stats = doc.find("stats");
  const cuaf::service::JsonValue* value =
      stats != nullptr ? stats->find(field) : nullptr;
  if (value == nullptr) throw std::runtime_error("stats lacks " + field);
  return static_cast<std::uint64_t>(value->number);
}

bool Daemon::stop() {
  bool acked = false;
  try {
    cuaf::net::ShardConnection conn(daemonAddress());
    acked = isOk(conn.roundTrip("{\"op\":\"shutdown\",\"id\":0}"));
  } catch (const std::exception&) {
    // Reaped below either way; not acknowledged.
  }
  const int status = reap(pid_, 30.0);
  if (status < 0) return false;  // the destructor kills it
  pid_ = -1;
  return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::unique_ptr<Daemon> launchDaemon(const std::string& bin,
                                     const std::vector<std::string>& args,
                                     double& setup_s) {
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < kSetupReps; ++r) {
    if (daemon && !daemon->stop()) {
      throw std::runtime_error("daemon did not shut down cleanly");
    }
    daemon = std::make_unique<Daemon>(bin, args);
    setup.push_back(daemon->setupSeconds());
  }
  setup_s = median(setup);
  return daemon;
}

LoadStats runLoad(const Stream& stream, double seconds, std::size_t conns,
                  std::size_t depth) {
  struct Sample {
    float at_s;    ///< completion time since the start of the load
    float lat_us;  ///< send-to-response latency
  };
  struct ThreadResult {
    std::vector<Sample> samples;
    std::size_t sent = 0;
    std::size_t failed = 0;
  };
  std::vector<ThreadResult> results(conns);
  const bool timed = seconds > 0;
  std::latch ready(static_cast<std::ptrdiff_t>(conns) + 1);
  std::atomic<bool> go{false};
  Clock::time_point begin;
  Clock::time_point end;

  auto client = [&](std::size_t t) {
    ThreadResult& out = results[t];
    out.samples.reserve(timed ? 1u << 20 : 1u << 14);
    std::unique_ptr<cuaf::net::ShardConnection> conn;
    try {
      conn = std::make_unique<cuaf::net::ShardConnection>(daemonAddress());
    } catch (const std::exception&) {
      // Counted as a failure once the load starts.
    }
    ready.count_down();
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    if (!conn) {
      out.failed = 1;
      return;
    }
    std::deque<std::pair<std::size_t, Clock::time_point>> inflight;
    bool exhausted = false;
    std::string batch;
    // Tops the connection up to `depth` outstanding requests, sent as one
    // pipelined write.
    auto refill = [&](Clock::time_point now) {
      if (exhausted || (timed && now >= end)) return;
      batch.clear();
      const std::size_t before = inflight.size();
      std::size_t idx = 0;
      while (inflight.size() < depth) {
        const std::string* request = stream.next(t, idx);
        if (request == nullptr) {
          exhausted = true;
          break;
        }
        if (!batch.empty()) batch += '\n';
        batch += *request;
        inflight.emplace_back(idx, Clock::time_point{});
      }
      const auto sent_at = Clock::now();
      for (std::size_t i = before; i < inflight.size(); ++i) {
        inflight[i].second = sent_at;
      }
      out.sent += inflight.size() - before;
      if (!batch.empty()) conn->sendLine(batch);
    };
    try {
      refill(Clock::now());
      while (!inflight.empty()) {
        const std::string line = conn->readLine();
        const auto now = Clock::now();
        const auto [idx, sent_at] = inflight.front();
        inflight.pop_front();
        if (!isOk(line) || !stream.check(idx, line)) ++out.failed;
        if (!timed || now < end) {
          out.samples.push_back(
              {static_cast<float>(std::chrono::duration<double>(now - begin).count()),
               static_cast<float>(usBetween(sent_at, now))});
        }
        refill(now);
      }
    } catch (const std::exception&) {
      // The daemon went away; what is still in flight is unanswered.
    }
    out.failed += inflight.size();
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < conns; ++t) threads.emplace_back(client, t);
  ready.arrive_and_wait();
  begin = Clock::now();
  end = begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(timed ? seconds : 0.0));
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  LoadStats stats;
  std::vector<Sample> all;
  for (ThreadResult& r : results) {
    stats.sent += r.sent;
    stats.failed += r.failed;
    all.insert(all.end(), r.samples.begin(), r.samples.end());
  }
  double duration = timed ? seconds : 0.0;
  for (const Sample& s : all) {
    if (!timed) duration = std::max(duration, static_cast<double>(s.at_s));
  }
  stats.seconds = duration;
  std::vector<double> lat;
  lat.reserve(all.size());
  for (const Sample& s : all) lat.push_back(s.lat_us);
  stats.rps = static_cast<double>(lat.size()) / std::max(duration, 1e-9);
  stats.p50_us = percentile(lat, 0.50);
  stats.p99_us = percentile(lat, 0.99);
  // Responses per whole 1 s window, for the reader.
  stats.window_rps.assign(static_cast<std::size_t>(duration), 0.0);
  for (const Sample& s : all) {
    const auto w = static_cast<std::size_t>(s.at_s);
    if (w < stats.window_rps.size()) ++stats.window_rps[w];
  }
  return stats;
}

Stream sendEachOnce(
    const std::vector<std::string>& lines,
    std::function<bool(std::size_t idx, std::string_view response)> check) {
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  Stream stream;
  stream.next = [&lines, cursor](std::size_t, std::size_t& idx) {
    idx = cursor->fetch_add(1);
    return idx < lines.size() ? &lines[idx] : nullptr;
  };
  stream.check = std::move(check);
  return stream;
}

ServeOutcome serveWorkload(const Options& options, Report& report) {
  double setup_s = 0.0;
  std::unique_ptr<Daemon> daemon =
      launchDaemon(options.serve_bin, {"--socket", Daemon::kSocket}, setup_s);

  const std::vector<Program> programs =
      generatePrograms(options.seed, kHotWorkingSet, true);
  std::vector<std::string> lines;
  std::vector<std::uint64_t> ref;
  cuaf::service::Server reference;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    lines.push_back(analyzeLine(i, programs[i]));
    ref.push_back(stableHash(reference.handleLine(lines.back())));
  }
  auto check = [&](std::size_t idx, std::string_view r) {
    return stableHash(r) == ref[idx];
  };
  // Untimed pre-warm: the whole working set once, in order.
  const LoadStats warm = runLoad(sendEachOnce(lines, check), 0.0, 1, 64);
  report.ops(warm.sent, warm.failed);

  // Timed load: uniform draws from the working set.
  std::vector<cuaf::Rng> rngs;
  for (std::size_t t = 0; t < kConns; ++t) rngs.emplace_back(options.seed * 31 + t + 1);
  Stream stream;
  stream.next = [&](std::size_t t, std::size_t& idx) {
    idx = static_cast<std::size_t>(rngs[t].below(lines.size()));
    return &lines[idx];
  };
  stream.check = check;
  ServeOutcome o;
  o.setup_s = setup_s;
  o.load = runLoad(stream, options.seconds, kConns, kDepth);
  report.ops(o.load.sent, o.load.failed);

  o.analyzed = daemon->stat("analyzed");
  const std::uint64_t hits = daemon->stat("hits");
  const std::uint64_t misses = daemon->stat("misses");
  o.hit_ratio = static_cast<double>(hits) / static_cast<double>(hits + misses);
  o.rss_mb = peakRssMb(daemon->pid());
  if (!daemon->stop()) report.fail("daemon did not shut down cleanly");
  expect(report, "pre-warm requests", warm.sent, kHotWorkingSet);
  expect(report, "daemon analyzed", o.analyzed, kHotWorkingSet);
  expect(report, "daemon cache hits", hits, o.load.sent);

  std::printf("serve_hot: %zu timed requests over %.1f s, %zu failed; daemon "
              "analyzed %llu, hit ratio %.4f; responses per 1 s window:",
              o.load.sent, o.load.seconds, o.load.failed,
              static_cast<unsigned long long>(o.analyzed), o.hit_ratio);
  for (double r : o.load.window_rps) std::printf(" %.0f", r);
  std::printf("\n");
  return o;
}

void runServe(const Options& options, Report& report) {
  const ServeOutcome o = serveWorkload(options, report);
  report.metric("setup_s", o.setup_s, "s");
  report.metric("throughput_ops_per_s", o.load.rps, "ops/s");
  report.metric("latency_p50_us", o.load.p50_us, "us");
  report.metric("latency_p99_us", o.load.p99_us, "us");
  report.metric("peak_rss_mb", o.rss_mb, "MB");
}

}  // namespace perfbench
