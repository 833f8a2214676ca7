#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/corpus/generator.h"
#include "src/service/protocol.h"
#include "src/support/json.h"

namespace perfbench {

namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::ops(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::fail(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  ++attempted_;
  ++failed_;
}

void Report::print() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double peakRssMb(pid_t pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::vector<Program> generatePrograms(std::uint64_t seed, std::size_t count,
                                      bool skip_widened) {
  cuaf::corpus::ProgramGenerator gen(seed);
  std::vector<Program> out;
  out.reserve(count);
  while (out.size() < count) {
    cuaf::corpus::GeneratedProgram g = gen.next();
    if (skip_widened && g.intended_fp_tasks > 0) continue;
    out.push_back({std::move(g.name), std::move(g.source),
                   g.intended_unsafe_tasks});
  }
  return out;
}

std::string analyzeLine(std::uint64_t id, const Program& p) {
  return "{\"op\":\"analyze\",\"id\":" + std::to_string(id) + ",\"name\":\"" +
         cuaf::jsonEscape(p.name) + "\",\"source\":\"" +
         cuaf::jsonEscape(p.source) + "\"}";
}

std::uint64_t stableHash(std::string_view response) {
  return fnv1a(cuaf::service::stripVolatile(response));
}

}  // namespace perfbench
