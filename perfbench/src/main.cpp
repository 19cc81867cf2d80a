// perfbench — one run of one workload.
//
//   perfbench --workload decode_closed|prefill_closed|mixed_open
//             --seed N --seconds S --trace 0|1 [--trace-out trace.json]
//
// Prints the run identity and per-workload accounting as one JSON line,
// then the result as the last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Exits 1 when an output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 9;  // set-up repeats; setup_s is their median

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (opt.workload == "decode_closed" || opt.workload == "prefill_closed" ||
          opt.workload == "mixed_open");
}

void print_json_map(const std::map<std::string, std::string>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", json_escape(k).c_str(),
                json_escape(v).c_str());
    first = false;
  }
  std::printf("}");
}

int run(const Options& opt) {
  Report report;
  auto identity = run_identity();
  identity["engine_threads"] = std::to_string(server_options().engine.num_threads);
  identity["seed"] = std::to_string(opt.seed);
  identity["workload"] = opt.workload;
  identity["trace"] = std::to_string(opt.trace ? 1 : 0);

  // Set-up (weights, server start, plan build and packing) is repeated
  // and the median reported, so set-up time regressions show.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = setup(opt.workload, opt.seed);
    setup_s.push_back(us_between(t0, Clock::now()) / 1e6);
  }
  if (!opt.trace) report.set("setup_s", median(setup_s), "s");

  run_workload(*rig, opt, report);
  if (report.attempted == 0) report.fail("no request was attempted");
  for (auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail("metric " + name + " is not finite");
      m.value = 0.0;  // JSON has no NaN or infinity
    }
  }

  std::printf("{\"identity\": ");
  print_json_map(identity);
  std::printf(", \"accounting\": ");
  print_json_map(report.notes);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload decode_closed|prefill_closed|"
                 "mixed_open --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
