#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime);
}

double peak_rss_mb_self() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

void pin_to_fastest_cpu() {
  // The CPUs the process may use, captured before the first pin narrows the
  // calling thread's own mask.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  int best = -1;
  std::uint64_t best_iterations = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    volatile std::uint64_t sink = 0;
    std::uint64_t iterations = 0;
    const auto end = Clock::now() + std::chrono::milliseconds(4);
    while (Clock::now() < end) {
      for (std::uint64_t i = 0; i < 256; ++i) sink = sink + i * i;
      ++iterations;
    }
    if (iterations > best_iterations) {
      best_iterations = iterations;
      best = cpu;
    }
  }
  cpu_set_t target = allowed;
  if (best >= 0) {
    CPU_ZERO(&target);
    CPU_SET(best, &target);
  }
  sched_setaffinity(0, sizeof target, &target);
}

ColdRun run_forked(const std::function<bool()>& op) {
  ColdRun run;
  int fds[2];
  if (pipe(fds) != 0) return run;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run;
  }
  if (pid == 0) {
    close(fds[0]);
    const auto start = Clock::now();
    ColdRun child;
    if (op()) child.seconds = seconds_between(start, Clock::now());
    child.peak_rss_mb = peak_rss_mb_self();
    const ssize_t written = write(fds[1], &child, sizeof child);
    _exit(written == sizeof child ? 0 : 1);
  }
  close(fds[1]);
  if (read(fds[0], &run, sizeof run) != static_cast<ssize_t>(sizeof run))
    run = ColdRun{};
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) run.seconds = -1;
  return run;
}

ColdRunner::ColdRunner(const std::function<bool()>& op) {
  int command[2];
  int reply[2];
  if (pipe(command) != 0) return;
  if (pipe(reply) != 0) {
    close(command[0]);
    close(command[1]);
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    for (int fd : {command[0], command[1], reply[0], reply[1]}) close(fd);
    return;
  }
  if (pid == 0) {
    close(command[1]);
    close(reply[0]);
    cpu_set_t cpus;
    while (read(command[0], &cpus, sizeof cpus) ==
           static_cast<ssize_t>(sizeof cpus)) {
      sched_setaffinity(0, sizeof cpus, &cpus);
      const ColdRun run = run_forked(op);
      if (write(reply[1], &run, sizeof run) !=
          static_cast<ssize_t>(sizeof run))
        break;
    }
    _exit(0);
  }
  close(command[0]);
  close(reply[1]);
  zygote_ = pid;
  command_ = command[1];
  reply_ = reply[0];
}

ColdRunner::~ColdRunner() {
  if (zygote_ < 0) return;
  close(command_);  // the zygote reads end-of-file and exits
  close(reply_);
  int status = 0;
  waitpid(zygote_, &status, 0);
}

void ColdRunner::sample(RunResult& result, const std::string& what) {
  ColdRun run;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof cpus, &cpus);
  if (zygote_ < 0 ||
      write(command_, &cpus, sizeof cpus) != static_cast<ssize_t>(sizeof cpus) ||
      read(reply_, &run, sizeof run) != static_cast<ssize_t>(sizeof run))
    run = ColdRun{};
  ++result.attempted;
  if (run.seconds < 0) {
    ++result.failed;
    result.fail(what);
  }
  seconds_.push_back(run.seconds);
}

double ColdRunner::median_seconds() const { return median(seconds_); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  *out = buffer.str();
  return true;
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(file);
}

bool make_dirs(const std::string& path) {
  std::string prefix;
  std::size_t at = 0;
  while (at != std::string::npos) {
    at = path.find('/', at + 1);
    prefix = path.substr(0, at);
    if (prefix.empty()) continue;
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t index) {
  // splitmix64 over a combination of the three inputs.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
                    index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::note(std::string key, std::string value) {
  info.emplace_back(std::move(key), std::move(value));
}

void RunResult::fail(const std::string& why) {
  correct = false;
  if (echo) std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", why.c_str());
}

void Timing::record(double seconds, double cpu_seconds,
                    std::size_t operations) {
  latency_ms.push_back(seconds * 1000.0);
  cpu_ms.push_back(cpu_seconds * 1000.0);
  ops.push_back(static_cast<double>(operations));
}

double Timing::mean_throughput() const {
  double busy_ms = 0;
  double total = 0;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    busy_ms += latency_ms[i];
    total += ops[i];
  }
  return busy_ms > 0 ? total * 1000.0 / busy_ms : 0;
}

void add_end_to_end(RunResult& result, const Timing& timing,
                    double certified_clean_share) {
  const std::size_t n = timing.latency_ms.size();
  if (n == 0) {
    result.fail("the timed loop completed no operation");
    return;
  }
  // Throughput and CPU per operation: medians over all blocks.
  const std::size_t per_block = std::max<std::size_t>(1, timing.block_samples);
  const std::size_t count = std::max<std::size_t>(1, n / per_block);
  std::vector<double> throughput;
  std::vector<double> cpu_per_op;
  for (std::size_t b = 0; b < count; ++b) {
    // The last block absorbs the remainder (or is the whole run when the
    // run is shorter than one block).
    const std::size_t end = b + 1 == count ? n : (b + 1) * per_block;
    double busy_ms = 0;
    double cpu_ms = 0;
    double ops = 0;
    for (std::size_t i = b * per_block; i < end; ++i) {
      busy_ms += timing.latency_ms[i];
      cpu_ms += timing.cpu_ms[i];
      ops += timing.ops[i];
    }
    throughput.push_back(busy_ms > 0 ? ops * 1000.0 / busy_ms : 0);
    cpu_per_op.push_back(cpu_ms / ops);
  }

  result.add("setup_s", timing.setup_s, "s");
  result.add("throughput_ops_s", median(throughput), "1/s");
  result.add("latency_ms_p50", percentile(timing.latency_ms, 0.5), "ms");
  result.add("latency_ms_p99", percentile(timing.latency_ms, 0.99), "ms");
  result.add("cpu_ms_per_op", median(cpu_per_op), "ms");
  result.add("peak_rss_mb", timing.peak_rss_mb, "MB");
  result.add("certified_clean_share", certified_clean_share, "ratio");
  result.note("latency_samples", std::to_string(n));
  result.note("blocks", std::to_string(count));
  result.note("mean_throughput_ops_s", json_number(timing.mean_throughput()));
  double operations = 0;
  for (double o : timing.ops) operations += o;
  result.note("operations", json_number(operations));
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
