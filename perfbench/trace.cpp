// The traced run (--trace 1). It times calls into each layer's public
// functions from outside the program, over the workload's own inputs:
//
//   * pipeline layers: a replica of corpus::runProgram that calls
//     parseString -> analyze -> ir::lower, then per top-level proc
//     ccfg::buildGraph -> pps::explore -> witness::buildWitnesses, and on
//     warned programs rt::exploreAll and hb::checkAll, timing each call.
//     table1 runs it under its own options; serve_hot under the daemon's
//     (default AnalysisOptions: no witnesses, oracle or ablation re-runs),
//     so those layers read 0 there. Its warning count must equal
//     runProgram's on every program. Passes of the replica alternate with
//     untraced runProgram passes; the ratio of their times is the tracing
//     overhead.
//   * service layers: the workload's request stream replayed in process
//     through Server::handleLine, parseRequest, ResultCache::lookup,
//     analyzeToSnapshot, AnalysisSnapshot::serialize, DiskCache::append
//     (fsync on) and DiskCache::load.
//   * the daemon: serve_hot run against a live daemon (table1 sends its
//     corpus through one once), for net.overhead_us and the daemon's stats.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numeric>

#include "src/analysis/pipeline.h"
#include "src/analysis/snapshot.h"
#include "src/hb/hb.h"
#include "src/runtime/explore.h"
#include "src/service/cache.h"
#include "src/service/disk_cache.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "serve.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kTracePasses = 3;
/// serve_hot requests replayed in process, drawn from the working set.
constexpr std::size_t kHotReplay = 20000;

/// (cache key, serialized snapshot) per program.
using Records = std::vector<std::pair<std::uint64_t, std::string>>;

/// corpus::runProgram options equivalent to what the daemon runs per
/// request: analyzeToSnapshot with default AnalysisOptions.
cuaf::corpus::RunnerOptions daemonOptions() {
  cuaf::corpus::RunnerOptions run;
  run.classify_with_oracle = false;
  return run;
}

/// Per-layer counters and busy time of one replica pass.
struct Layers {
  double parser_us = 0, sema_us = 0, ir_us = 0, ccfg_us = 0, pps_us = 0,
         witness_us = 0, runtime_us = 0, hb_us = 0, ablation_us = 0;
  std::size_t ccfg_nodes = 0, pruned_tasks = 0;
  std::size_t pps_calls = 0, pps_states = 0, pps_merged = 0, por_bunches = 0;
  std::vector<double> pps_call_us;
  std::vector<double> pps_program_us;  ///< PPS time per program
  std::vector<double> program_us;      ///< replica time per program
  std::size_t witnesses = 0, replayed = 0, confirmed = 0;
  std::size_t schedules = 0, unsupported = 0;
  std::size_t agreements = 0, disagreements = 0;
};

/// Times `f` and adds the elapsed microseconds to `acc`.
template <typename F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  auto result = f();
  acc += usBetween(t0, Clock::now());
  return result;
}

bool irHasBegin(const cuaf::ir::Stmt& stmt) {
  if (stmt.kind == cuaf::ir::StmtKind::Begin) return true;
  for (const auto& s : stmt.body) {
    if (irHasBegin(*s)) return true;
  }
  for (const auto& s : stmt.else_body) {
    if (irHasBegin(*s)) return true;
  }
  return false;
}

/// corpus::runProgram, call by call; returns the warning count.
std::size_t replicaProgram(const Program& p,
                           const cuaf::corpus::RunnerOptions& run, Layers& l) {
  const auto start = Clock::now();
  const double pps_before = l.pps_us;
  cuaf::AnalysisOptions options = run.analysis;
  if (run.classify_with_witness) {
    options.witness.enabled = true;
    options.witness.replay = true;
  }
  cuaf::pps::Options pps_options = options.pps;
  if (options.witness.enabled) pps_options.record_trace = true;

  cuaf::SourceManager sm;
  cuaf::StringInterner interner;
  cuaf::DiagnosticEngine diags;
  std::size_t warnings = 0;
  bool has_begin = false;
  auto finish = [&] {
    l.pps_program_us.push_back(l.pps_us - pps_before);
    l.program_us.push_back(usBetween(start, Clock::now()));
    return warnings;
  };

  auto program = timed(l.parser_us, [&] {
    return cuaf::parseString(sm, interner, diags, p.name, p.source);
  });
  if (diags.hasErrors()) return finish();
  auto sema = timed(l.sema_us,
                    [&] { return cuaf::analyze(*program, interner, diags); });
  if (diags.hasErrors()) return finish();
  auto module = timed(l.ir_us,
                      [&] { return cuaf::ir::lower(*program, *sema, diags); });
  if (diags.hasErrors()) return finish();

  std::vector<cuaf::SourceLoc> warned;
  for (const auto& proc : module->procs) {
    if (proc->is_nested) continue;
    auto graph = timed(l.ccfg_us, [&] {
      return cuaf::ccfg::buildGraph(*module, proc->id, diags, options.build);
    });
    l.ccfg_nodes += graph->nodeCount();
    l.pruned_tasks += graph->stats().pruned_tasks;
    const bool proc_begin = graph->taskCount() > 1 || irHasBegin(*proc->body);
    has_begin |= proc_begin;
    if (graph->unsupported()) continue;
    if (!proc_begin ||
        (graph->accessCount() == 0 &&
         !(options.pps.report_deadlocks && !graph->syncVars().empty()))) {
      continue;
    }
    const double before = l.pps_us;
    cuaf::pps::Result result = timed(
        l.pps_us, [&] { return cuaf::pps::explore(*graph, pps_options); });
    l.pps_call_us.push_back(l.pps_us - before);
    ++l.pps_calls;
    l.pps_states += result.states_generated;
    l.pps_merged += result.states_merged;
    l.por_bunches += result.por_bunches;
    warnings += result.unsafe.size();
    for (cuaf::AccessId a : result.unsafe) warned.push_back(graph->access(a).loc);
    if (!options.witness.enabled) continue;
    auto witnesses = timed(l.witness_us, [&] {
      return cuaf::witness::buildWitnesses(*graph, result, program.get(),
                                           options.witness);
    });
    for (const cuaf::witness::Witness& w : witnesses) {
      ++l.witnesses;
      l.replayed += w.replayed ? 1 : 0;
      l.confirmed += w.verdict == cuaf::witness::Verdict::Confirmed ? 1 : 0;
    }
  }

  if (run.measure_fp_reduction && has_begin) {
    // The two static-only ablation re-runs runProgram makes, as one span.
    timed(l.ablation_us, [&] {
      cuaf::AnalysisOptions ablation = run.analysis;
      ablation.build.model_atomics = false;
      cuaf::Pipeline(ablation).runSource(p.name, p.source);
      ablation = run.analysis;
      ablation.build.model_sync_loops = false;
      cuaf::Pipeline(ablation).runSource(p.name, p.source);
      return 0;
    });
  }

  if (warnings > 0 && run.classify_with_oracle) {
    cuaf::rt::ExploreOptions eo;
    eo.max_schedules = run.oracle_max_schedules;
    eo.random_schedules = run.oracle_random_schedules;
    const cuaf::rt::ExploreResult oracle = timed(
        l.runtime_us, [&] { return cuaf::rt::exploreAll(*module, *program, eo); });
    cuaf::hb::Options ho;
    ho.random_schedules = run.hb_random_schedules;
    const cuaf::hb::Result hb = timed(
        l.hb_us, [&] { return cuaf::hb::checkAll(*module, *program, ho); });
    l.schedules += oracle.schedules_run;
    l.unsupported += oracle.unsupported ? 1 : 0;
    if (!oracle.unsupported && !hb.unsupported) {
      for (cuaf::SourceLoc loc : warned) {
        if (oracle.sawUafAt(loc) == hb.sawUafAt(loc)) {
          ++l.agreements;
        } else {
          ++l.disagreements;
        }
      }
    }
  }
  return finish();
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Sum of the `k` largest values over the sum of all.
double topShare(std::vector<double> v, std::size_t k) {
  const double total = std::accumulate(v.begin(), v.end(), 0.0);
  k = std::min(k, v.size());
  std::partial_sort(v.begin(), v.begin() + static_cast<long>(k), v.end(),
                    std::greater<>());
  return total > 0 ? std::accumulate(v.begin(), v.begin() + static_cast<long>(k), 0.0) / total
                   : 0.0;
}

void pipelineLayers(const std::vector<Program>& programs,
                    const cuaf::corpus::RunnerOptions& run, Report& report) {
  std::vector<Layers> passes(kTracePasses);
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<std::size_t> expected(programs.size());
  for (int pass = 0; pass < kTracePasses; ++pass) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < programs.size(); ++i) {
      expected[i] = cuaf::corpus::runProgram(programs[i].name,
                                             programs[i].source, run)
                        .warnings;
    }
    untraced_s.push_back(secondsSince(t0));
    t0 = Clock::now();
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      if (replicaProgram(programs[i], run, passes[pass]) != expected[i]) {
        std::printf("replica warning count differs on %s\n",
                    programs[i].name.c_str());
        ++mismatched;
      }
    }
    traced_s.push_back(secondsSince(t0));
    report.ops(programs.size(), mismatched);
  }

  auto busy = [&](double Layers::*field) {
    std::vector<double> v;
    for (const Layers& l : passes) v.push_back(l.*field / 1000.0);
    return median(v);
  };
  auto perPass = [&](const std::function<double(const Layers&)>& f) {
    std::vector<double> v;
    for (const Layers& l : passes) v.push_back(f(l));
    return median(v);
  };
  std::vector<double> program_us(programs.size(), 0.0);
  std::vector<double> pps_program_us(programs.size(), 0.0);
  for (const Layers& l : passes) {
    for (std::size_t i = 0; i < programs.size(); ++i) {
      program_us[i] += l.program_us[i] / kTracePasses;
      pps_program_us[i] += l.pps_program_us[i] / kTracePasses;
    }
  }
  const Layers& l = passes.front();
  const double n = static_cast<double>(programs.size());
  std::printf("tracing overhead: %.1f programs/s traced vs %.1f untraced "
              "(median of %d passes each)\n",
              n / median(traced_s), n / median(untraced_s), kTracePasses);
  printTopK("slowest programs (traced)", programs, program_us, 6);
  printTopK("programs with the most PPS time", programs, pps_program_us, 6);

  report.metric("parser.busy_ms", busy(&Layers::parser_us), "ms");
  report.metric("sema.busy_ms", busy(&Layers::sema_us), "ms");
  report.metric("ir.busy_ms", busy(&Layers::ir_us), "ms");
  report.metric("ccfg.busy_ms", busy(&Layers::ccfg_us), "ms");
  report.metric("ccfg.nodes", static_cast<double>(l.ccfg_nodes), "count");
  report.metric("ccfg.pruned_tasks", static_cast<double>(l.pruned_tasks), "count");
  report.metric("pps.busy_ms", busy(&Layers::pps_us), "ms");
  report.metric("pps.calls", static_cast<double>(l.pps_calls), "count");
  report.metric("pps.states", static_cast<double>(l.pps_states), "count");
  report.metric("pps.merged", static_cast<double>(l.pps_merged), "count");
  report.metric("pps.por_bunches", static_cast<double>(l.por_bunches), "count");
  report.metric("pps.p99_us",
                perPass([](const Layers& x) { return percentile(x.pps_call_us, 0.99); }),
                "us");
  report.metric("pps.max_us",
                perPass([](const Layers& x) { return percentile(x.pps_call_us, 1.0); }),
                "us");
  report.metric("pps.top6_share", topShare(pps_program_us, 6), "ratio");
  report.metric("witness.busy_ms", busy(&Layers::witness_us), "ms");
  report.metric("witness.replayed", static_cast<double>(l.replayed), "count");
  report.metric("witness.confirmed_ratio", ratio(l.confirmed, l.witnesses), "ratio");
  report.metric("runtime.busy_ms", busy(&Layers::runtime_us), "ms");
  report.metric("runtime.schedules", static_cast<double>(l.schedules), "count");
  report.metric("runtime.unsupported", static_cast<double>(l.unsupported), "count");
  report.metric("hb.busy_ms", busy(&Layers::hb_us), "ms");
  report.metric("hb.agreement_ratio",
                ratio(l.agreements, l.agreements + l.disagreements), "ratio");
  report.metric("ablation.busy_ms", busy(&Layers::ablation_us), "ms");
  report.metric("trace.slowdown", median(traced_s) / median(untraced_s), "ratio");
}

struct Replay {
  /// Hash of the in-process response to each line.
  std::vector<std::uint64_t> refs;
  double handle_p50_us = 0.0;
};

/// Replays `lines` (requests for `programs`, by index) through the service
/// layers in process. `hot`: the server and cache hold every program first,
/// as serve_hot's daemon does after its pre-warm.
Replay serviceLayers(bool hot, const std::vector<Program>& programs,
                     const std::vector<std::string>& lines, Report& report) {
  const cuaf::AnalysisOptions defaults;
  const std::string disk_dir = "trace-disk";
  std::filesystem::remove_all(disk_dir);

  // analyzeToSnapshot and serialize over the workload's programs.
  std::vector<double> analysis_us;
  std::vector<double> serialize_us;
  Records snapshots;
  for (const Program& p : programs) {
    const auto t0 = Clock::now();
    cuaf::AnalysisSnapshot snap = cuaf::analyzeToSnapshot(p.name, p.source, defaults);
    const auto t1 = Clock::now();
    std::string payload = snap.serialize();
    serialize_us.push_back(usBetween(t1, Clock::now()));
    analysis_us.push_back(usBetween(t0, t1));
    snapshots.emplace_back(cuaf::analysisCacheKey(p.name, p.source, defaults),
                           std::move(payload));
  }

  // Server::handleLine, configured as the daemon.
  Replay replay;
  replay.refs.resize(lines.size());
  std::vector<double> handle_us;
  std::size_t failed_requests = 0;
  {
    cuaf::service::Server server;
    if (hot) {
      for (std::size_t i = 0; i < programs.size(); ++i) {
        (void)server.handleLine(analyzeLine(i, programs[i]));
      }
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto t0 = Clock::now();
      const std::string response = server.handleLine(lines[i]);
      handle_us.push_back(usBetween(t0, Clock::now()));
      if (response.find("\"status\":\"ok\"") == std::string::npos) {
        ++failed_requests;
      }
      replay.refs[i] = stableHash(response);
    }
  }
  report.ops(lines.size(), failed_requests);

  // parseRequest and ResultCache::lookup over the same stream.
  cuaf::service::ResultCache cache(cuaf::service::ServerOptions{}.cache_budget_bytes);
  if (hot) {
    for (const auto& [key, payload] : snapshots) cache.insert(key, payload);
  }
  std::vector<double> parse_us;
  std::vector<double> lookup_us;
  std::size_t bad_requests = 0;
  for (const std::string& line : lines) {
    auto t0 = Clock::now();
    auto parsed = cuaf::service::parseRequest(line, 8u << 20);
    parse_us.push_back(usBetween(t0, Clock::now()));
    const auto* request = std::get_if<cuaf::service::Request>(&parsed);
    if (request == nullptr || request->items.size() != 1) {
      ++bad_requests;
      continue;
    }
    const std::uint64_t key = cuaf::analysisCacheKey(
        request->items[0].name, request->items[0].source, request->options);
    t0 = Clock::now();
    (void)cache.lookup(key);
    lookup_us.push_back(usBetween(t0, Clock::now()));
  }
  report.ops(lines.size(), bad_requests);

  // DiskCache::append with fsync on, then recovery of the whole directory.
  std::vector<double> append_us;
  std::size_t failed_appends = 0;
  {
    cuaf::service::DiskCache disk(disk_dir);
    for (const auto& [key, payload] : snapshots) {
      const auto t0 = Clock::now();
      const bool ok = disk.append(key, payload);
      append_us.push_back(usBetween(t0, Clock::now()));
      failed_appends += ok ? 0 : 1;
    }
  }
  report.ops(snapshots.size(), failed_appends);
  double recover_ms = 0;
  std::uint64_t bytes = 0;
  std::size_t recovered = 0;
  {
    cuaf::service::DiskCache disk(disk_dir);
    const auto t0 = Clock::now();
    disk.load([&](std::uint64_t, std::string_view payload) {
      const bool ok = cuaf::AnalysisSnapshot::deserialize(payload).has_value();
      recovered += ok ? 1 : 0;
      return ok;
    });
    recover_ms = usBetween(t0, Clock::now()) / 1000.0;
    bytes = disk.stats().bytes;
  }
  if (recovered != snapshots.size()) {
    report.fail("recovered " + std::to_string(recovered) + " records, expected " +
                std::to_string(snapshots.size()));
  }
  std::filesystem::remove_all(disk_dir);

  replay.handle_p50_us = percentile(handle_us, 0.50);
  report.metric("server.handle_p50_us", replay.handle_p50_us, "us");
  report.metric("server.handle_p99_us", percentile(handle_us, 0.99), "us");
  report.metric("protocol.parse_us", median(parse_us), "us");
  report.metric("cache.lookup_us", median(lookup_us), "us");
  report.metric("analysis.p50_us", percentile(analysis_us, 0.50), "us");
  report.metric("analysis.p99_us", percentile(analysis_us, 0.99), "us");
  report.metric("snapshot.serialize_us", median(serialize_us), "us");
  report.metric("disk_cache.append_p50_us", percentile(append_us, 0.50), "us");
  report.metric("disk_cache.append_p99_us", percentile(append_us, 0.99), "us");
  report.metric("disk_cache.appends", static_cast<double>(append_us.size()), "count");
  report.metric("disk_cache.recover_ms", recover_ms, "ms");
  report.metric("disk_cache.bytes", static_cast<double>(bytes), "bytes");
  return replay;
}

}  // namespace

void runTrace(const Options& options, Report& report) {
  const std::string& w = options.workload;
  // The workload's programs; generating them is the corpus layer.
  std::vector<double> generate_ms;
  std::vector<Program> programs;
  for (int r = 0; r < kSetupReps; ++r) {
    programs.clear();
    const auto t0 = Clock::now();
    programs = w == "table1"
                   ? table1Corpus(options.corpus_seed)
                   : generatePrograms(options.seed, kHotWorkingSet, true);
    generate_ms.push_back(usBetween(t0, Clock::now()) / 1000.0);
  }
  report.metric("corpus.generate_ms", median(generate_ms), "ms");

  // The request stream: every program once (table1), or uniform draws
  // from the working set (serve_hot).
  const bool hot = w == "serve_hot";
  std::vector<std::string> lines;
  if (hot) {
    cuaf::Rng rng(options.seed * 31 + 1);
    for (std::size_t i = 0; i < kHotReplay; ++i) {
      const std::size_t idx = static_cast<std::size_t>(rng.below(programs.size()));
      lines.push_back(analyzeLine(idx, programs[idx]));
    }
  } else {
    for (std::size_t i = 0; i < programs.size(); ++i) {
      lines.push_back(analyzeLine(i, programs[i]));
    }
  }

  // The daemon first, so the in-process replay cannot disturb it.
  ServeOutcome daemon;
  if (hot) daemon = serveWorkload(options, report);

  pipelineLayers(programs, hot ? daemonOptions() : table1Options(), report);
  const Replay replay = serviceLayers(hot, programs, lines, report);

  if (!hot) {
    // The corpus through a live daemon, each program once.
    std::unique_ptr<Daemon> d =
        launchDaemon(options.serve_bin, {"--socket", Daemon::kSocket}, daemon.setup_s);
    const Stream stream = sendEachOnce(lines, [&](std::size_t idx, std::string_view r) {
      return stableHash(r) == replay.refs[idx];
    });
    daemon.load = runLoad(stream, 0.0, 2, 8);
    report.ops(daemon.load.sent, daemon.load.failed);
    daemon.analyzed = d->stat("analyzed");
    const std::uint64_t hits = d->stat("hits");
    daemon.hit_ratio = ratio(hits, hits + d->stat("misses"));
    if (!d->stop()) report.fail("daemon did not shut down cleanly");
  }

  report.metric("net.overhead_us",
                daemon.load.p50_us - replay.handle_p50_us, "us");
  report.metric("cache.hit_ratio", daemon.hit_ratio, "ratio");
  report.metric("server.analyzed", static_cast<double>(daemon.analyzed), "count");
}

}  // namespace perfbench
