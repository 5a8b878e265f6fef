// siwa_perfbench: the end-to-end benchmark harness (see ../README.md).
//
//   siwa_perfbench prepare --workload W --seed N --dir D
//       Generate W's seeded inputs and their oracle truth into D.
//   siwa_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --dir D --farm-worker PATH [--source-id ID]
//       Measure W on the inputs in D. Prints a fingerprint line, an info
//       line, and the result JSON as the last line of stdout.
//   siwa_perfbench self-test
//       Check the benchmark's own gates and the inputs' byte stability.
//
// Exit codes: 0 result printed and every gate passed, 1 result printed with
// "correct": false (a gate failed) or self-test failed, 2 usage error or
// refused build.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "common.h"
#include "gates.h"
#include "inputs.h"
#include "lint/render.h"
#include "workloads.h"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;
#endif
#else
constexpr bool kSanitized = PERFBENCH_SANITIZED != 0;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: siwa_perfbench prepare --workload W --seed N --dir D\n"
               "       siwa_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D --farm-worker PATH [--source-id ID]\n"
               "       siwa_perfbench self-test\n"
               "workloads: corpus, large, edit\n");
  return 2;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

// First "key : value" line of /proc/cpuinfo with the given key.
std::string cpuinfo(const std::string& key) {
  std::ifstream file("/proc/cpuinfo");
  std::string line;
  while (std::getline(file, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

struct Args {
  std::string command;
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<bool> trace;
  std::string dir;
  std::string farm_worker;
  std::string source_id = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return std::nullopt;
      args.seed = v;
    } else if (flag == "--seconds") {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(v > 0 && v <= 600))
        return std::nullopt;
      args.seconds = v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--farm-worker") {
      args.farm_worker = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return std::nullopt;
    }
  }
  return args;
}

void print_result(const RunResult& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) out += ',';
    out += '"' + siwa::lint::json_escape(m.name) +
           "\":{\"value\":" + json_number(m.value) + ",\"unit\":\"" +
           siwa::lint::json_escape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  if (!known_workload(args.workload) || !args.seed || !args.seconds ||
      !args.trace || args.dir.empty() || args.farm_worker.empty())
    return usage();
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr,
                 "siwa_perfbench: refusing to report from a %s build "
                 "(build type %s); rebuild optimized without sanitizers\n",
                 kSanitized ? "sanitizer" : "non-optimized",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::string error;
  const std::optional<InputSet> inputs = load_inputs(args.dir, &error);
  if (!inputs) {
    std::fprintf(stderr, "siwa_perfbench: %s\n", error.c_str());
    return 2;
  }

  RunConfig config;
  config.workload = args.workload;
  config.seed = *args.seed;
  config.seconds = *args.seconds;
  config.trace = *args.trace;
  config.dir = args.dir;
  config.farm_worker = args.farm_worker;
  config.nproc = online_cpus();

  std::printf(
      "fingerprint {\"nproc\":%zu,\"cpu_model\":\"%s\",\"cpu_mhz\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"source\":\"%s\","
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"inputs_digest\":\"%016llx\"}\n",
      config.nproc, siwa::lint::json_escape(cpuinfo("model name")).c_str(),
      siwa::lint::json_escape(cpuinfo("cpu MHz")).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, siwa::lint::json_escape(args.source_id).c_str(),
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      json_number(config.seconds).c_str(), config.trace ? 1 : 0,
      static_cast<unsigned long long>(inputs->digest()));
  std::fflush(stdout);

  RunResult result = config.workload == "corpus" ? run_corpus(config, *inputs)
                     : config.workload == "edit" ? run_edit(config, *inputs)
                                                 : run_large(config, *inputs);
  if (result.attempted == 0) {
    result.attempted = 1;
    result.failed = 1;
    result.fail("no operation ran");
  }
  if (!config.trace)
    result.add("ok_share",
               1.0 - static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");

  std::string info = "info {";
  for (std::size_t i = 0; i < result.info.size(); ++i) {
    if (i != 0) info += ',';
    info += '"' + result.info[i].first + "\":\"" +
            siwa::lint::json_escape(result.info[i].second) + '"';
  }
  info += '}';
  std::printf("%s\n", info.c_str());
  print_result(result);
  return result.correct ? 0 : 1;
}

int prepare(const Args& args) {
  if (!known_workload(args.workload) || !args.seed || args.dir.empty())
    return usage();
  const InputSet inputs = generate_inputs(args.workload, *args.seed, true);
  std::string error;
  if (!write_inputs(args.dir, inputs, &error)) {
    std::fprintf(stderr, "siwa_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("prepared %zu inputs for %s seed %llu (digest %016llx, "
              "%zu unsettled by the oracle)\n",
              inputs.items.size(), args.workload.c_str(),
              static_cast<unsigned long long>(*args.seed),
              static_cast<unsigned long long>(inputs.digest()),
              inputs.count_unsettled());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return usage();
  if (args->command == "self-test") {
    if (!self_test()) return 1;
    std::printf("self-test passed\n");
    return 0;
  }
  if (args->command == "prepare") return prepare(*args);
  if (args->command == "run") return run(*args);
  return usage();
}
