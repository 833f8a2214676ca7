// table1: the paper's experiment. Every corpus program goes through
// corpus::runProgram in process with jobs=1, pass after pass, until the
// run's time is up; each pass visits the programs in a fresh order drawn
// from the seed. The run reports programs checked per second over all its
// passes and percentiles of every verdict time it took.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/support/rng.h"

#include "src/corpus/curated.h"
#include "workloads.h"

namespace perfbench {

using cuaf::corpus::ProgramOutcome;
using cuaf::corpus::Table1Stats;

std::vector<Program> table1Corpus(std::uint64_t seed) {
  const auto& curated = cuaf::corpus::curatedPrograms();
  std::vector<Program> out;
  out.reserve(kTable1Programs);
  for (const auto& c : curated) out.push_back({c.name, c.source, 0});
  for (Program& p :
       generatePrograms(seed, kTable1Programs - curated.size())) {
    out.push_back(std::move(p));
  }
  return out;
}

cuaf::corpus::RunnerOptions table1Options() {
  cuaf::corpus::RunnerOptions run;
  run.classify_with_witness = true;
  run.measure_fp_reduction = true;
  run.oracle_mode = cuaf::corpus::OracleMode::Both;
  run.jobs = 1;
  return run;
}

void foldOutcome(Table1Stats& stats, const ProgramOutcome& o) {
  if (!o.parse_ok) return;
  if (o.skipped_unsupported || o.warnings_unconfirmed > 0) ++stats.cases_skipped;
  ++stats.total_cases;
  if (o.has_begin) ++stats.cases_with_begin;
  if (o.warnings > 0) ++stats.cases_with_warnings;
  stats.warnings_reported += o.warnings;
  stats.true_positives += o.true_positives;
  stats.warnings_classified += o.warnings_classified;
  stats.warnings_confirmed += o.warnings_confirmed;
  stats.warnings_unconfirmed += o.warnings_unconfirmed;
  stats.warnings_tail += o.warnings_tail;
  stats.pps_states_explored += o.pps_states;
  stats.hb_agreements += o.hb_agreements;
  stats.hb_disagreements += o.hb_disagreements;
  stats.fp_atomics_removed += o.fp_atomics_removed;
  stats.fp_loops_removed += o.fp_loops_removed;
}

void checkTable1(const Table1Stats& stats, std::uint64_t corpus_seed,
                 Report& report) {
  auto expect = [&](const char* row, std::size_t got, std::size_t want) {
    if (got != want) {
      report.fail(std::string("Table I ") + row + " = " + std::to_string(got) +
                  ", expected " + std::to_string(want));
    }
  };
  expect("total cases", stats.total_cases, kTable1Programs);
  expect("HB/enumeration disagreements", stats.hb_disagreements, 0);
  if (corpus_seed == kDefaultSeed) {
    // The seed commit's Table I for the default seed.
    expect("cases with begin", stats.cases_with_begin, 248);
    expect("cases with warnings", stats.cases_with_warnings, 50);
    expect("warnings reported", stats.warnings_reported, 393);
    expect("true positives", stats.true_positives, 86);
    expect("PPS states explored", stats.pps_states_explored, 21201);
  }
}

void printTopK(const char* title, const std::vector<Program>& programs,
               const std::vector<double>& cost, std::size_t k) {
  std::vector<std::size_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(),
                    [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  const double total = std::accumulate(cost.begin(), cost.end(), 0.0);
  std::printf("%s (share of the total):\n", title);
  for (std::size_t r = 0; r < k; ++r) {
    const std::size_t i = order[r];
    std::printf("  %-16s %10.1f us  %5.1f%%\n", programs[i].name.c_str(),
                cost[i], total > 0 ? 100.0 * cost[i] / total : 0.0);
  }
}

void runTable1(const Options& options, Report& report) {
  // Set-up: materialize the corpus sources (a few milliseconds each) over
  // and over for kSetupSeconds, keep the last; setup_s is the mean time
  // per materialization.
  std::vector<Program> corpus;
  std::size_t materialized = 0;
  const auto setup_start = Clock::now();
  do {
    corpus.clear();
    corpus = table1Corpus(options.corpus_seed);
    ++materialized;
  } while (secondsSince(setup_start) < kSetupSeconds);
  const double setup_s =
      secondsSince(setup_start) / static_cast<double>(materialized);

  const cuaf::corpus::RunnerOptions run = table1Options();
  const std::size_t n = corpus.size();
  std::vector<ProgramOutcome> first(n);
  std::vector<double> mean_us(n, 0.0);
  std::vector<double> pass_rate;
  std::vector<double> verdict_us;  ///< every runProgram call of the run
  double rss_mb = 0.0;
  Table1Stats first_stats;

  cuaf::Rng rng(options.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto start = Clock::now();
  do {
    const bool first_pass = pass_rate.empty();
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
    }
    Table1Stats stats;
    std::size_t failed = 0;
    const auto pass_start = Clock::now();
    for (const std::size_t i : order) {
      const auto t0 = Clock::now();
      ProgramOutcome o =
          cuaf::corpus::runProgram(corpus[i].name, corpus[i].source, run);
      const double us = usBetween(t0, Clock::now());
      verdict_us.push_back(us);
      mean_us[i] += us;
      foldOutcome(stats, o);  // the sums do not depend on the order
      std::string bad;
      if (!o.parse_ok) bad = "front end rejected it";
      if (corpus[i].intended_unsafe_tasks > 0 && o.warnings == 0) {
        bad = "generator marks it unsafe but it got no warning";
      }
      if (o.hb_disagreements > 0) bad = "HB and enumeration disagree";
      if (!first_pass && !(o == first[i])) bad = "outcome differs between passes";
      if (!bad.empty()) {
        std::printf("program %s: %s\n", corpus[i].name.c_str(), bad.c_str());
        ++failed;
      }
      if (first_pass) first[i] = std::move(o);
    }
    const double pass_s = secondsSince(pass_start);
    report.ops(n, failed);
    checkTable1(stats, options.corpus_seed, report);
    if (first_pass) {
      first_stats = stats;
      // Every pass analyzes the same programs, so later passes raise the
      // high-water mark only by verdict_us, which grows with throughput.
      rss_mb = peakRssMb();
    }
    pass_rate.push_back(static_cast<double>(n) / pass_s);
  } while (secondsSince(start) < options.seconds);
  const double run_s = secondsSince(start);

  for (double& v : mean_us) v /= static_cast<double>(pass_rate.size());
  std::printf("%s", first_stats.render().c_str());
  std::printf("%zu passes of %zu programs (%zu verdict times); programs/s "
              "per pass:", pass_rate.size(), n, verdict_us.size());
  for (double r : pass_rate) std::printf(" %.0f", r);
  std::printf("\n");
  printTopK("slowest programs by mean verdict time", corpus, mean_us, 6);

  report.metric("setup_s", setup_s, "s");
  report.metric("throughput_ops_per_s",
                static_cast<double>(verdict_us.size()) / run_s, "ops/s");
  report.metric("latency_p50_us", percentile(verdict_us, 0.50), "us");
  report.metric("latency_p99_us", percentile(verdict_us, 0.99), "us");
  report.metric("peak_rss_mb", rss_mb, "MB");
}

}  // namespace perfbench
