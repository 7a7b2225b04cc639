// perfbench: the repo's standing scoreboard. Runs one workload on an
// in-process cluster with default configuration and prints, as its last
// stdout line, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
//
// Without --trace (or --trace 0) the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones. A run-metadata line precedes it.
// Exits 1 when any oracle check failed.
//
//   perfbench --workload classroom-wc|bulk-wc|hdfs-staging --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <system_error>

#include "bench.h"
#include "mh/common/log.h"

namespace {

using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "classroom-wc|bulk-wc|hdfs-staging --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

template <typename T>
T parseNumber(const std::string& text, const std::string& flag) {
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    usage(("bad value for " + flag + ": " + text).c_str());
  }
  return value;
}

Args parseArgs(int argc, char** argv) {
  Args args;
  args.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parseNumber<uint64_t>(value, flag);
    } else if (flag == "--seconds") {
      args.seconds = parseNumber<double>(value, flag);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) usage("--seconds must be positive");
  // One work directory per process: two runs never share a journal.
  args.work_dir /= "perfbench-" + std::to_string(::getpid());
  return args;
}

/// Shortest decimal that round-trips: every digit the measurement has.
std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void print(const Outcome& out) {
  std::string meta = "{\"meta\": {";
  for (size_t i = 0; i < out.meta.size(); ++i) {
    meta += (i ? ", \"" : "\"") + out.meta[i].first + "\": " +
            out.meta[i].second;
  }
  std::puts((meta + "}}").c_str());

  std::string line = std::string("{\"correct\": ") +
                     (out.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::puts((line + "}}").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  mh::setLogLevel(mh::LogLevel::kWarn);
  const Args args = parseArgs(argc, argv);
  Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "classroom-wc") {
      out = perfbench::runClassroomWc(args);
    } else if (args.workload == "bulk-wc") {
      out = perfbench::runBulkWc(args);
    } else if (args.workload == "hdfs-staging") {
      out = perfbench::runHdfsStaging(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(args.work_dir);
    return 1;
  }
  std::filesystem::remove_all(args.work_dir);
  for (auto& metric : out.metrics) {
    // A NaN or infinity means a window measured nothing: a bug, not a value.
    if (!std::isfinite(metric.value)) {
      out.check(false, metric.name + " is finite");
      metric.value = 0;
    }
  }
  print(out);
  return out.failed == 0 ? 0 : 1;
}
