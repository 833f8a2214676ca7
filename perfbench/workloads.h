// The workloads (see perfbench/README.md) and the inputs they share
// with the traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "src/corpus/runner.h"
#include "util.h"

namespace perfbench {

/// Table I corpus size and default seed (the paper's 5127 programs).
constexpr std::size_t kTable1Programs = 5127;
constexpr std::uint64_t kDefaultSeed = 20170529;
/// serve_hot working set size.
constexpr std::size_t kHotWorkingSet = 4096;
/// Daemon launches per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// How long table1 repeats its corpus materialization to time it.
constexpr double kSetupSeconds = 1.0;

/// The curated suite followed by the generated programs, in the order
/// corpus::runCorpus materializes them for the same seed.
[[nodiscard]] std::vector<Program> table1Corpus(std::uint64_t seed);

/// bench_table1's options (witness replay, FP-reduction re-runs) with both
/// dynamic oracles.
[[nodiscard]] cuaf::corpus::RunnerOptions table1Options();

/// Folds one outcome into Table I statistics exactly as the corpus runner
/// does with its default options.
void foldOutcome(cuaf::corpus::Table1Stats& stats,
                 const cuaf::corpus::ProgramOutcome& o);

/// Correctness checks of one table1 pass over the corpus of `corpus_seed`.
void checkTable1(const cuaf::corpus::Table1Stats& stats,
                 std::uint64_t corpus_seed, Report& report);

/// Prints the `k` programs with the largest `cost`, with their share.
void printTopK(const char* title, const std::vector<Program>& programs,
               const std::vector<double>& cost, std::size_t k);

void runTable1(const Options& options, Report& report);
void runServe(const Options& options, Report& report);
void runTrace(const Options& options, Report& report);

}  // namespace perfbench
