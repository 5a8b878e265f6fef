// Shared plumbing for the SIWA benchmark: clocks, resource usage,
// percentiles, file I/O, input digests and the run's result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

// User+system CPU seconds of this process (all threads) plus its waited-for
// children (farm workers are reaped inside run_farm, so their CPU lands here
// when the farm returns).
[[nodiscard]] double cpu_seconds();

// Peak resident set of this process (VmHWM: unlike getrusage's ru_maxrss it
// does not inherit the high-water mark of the process that exec'd us).
[[nodiscard]] double peak_rss_mb_self();

// Moves the calling thread to the CPU that currently runs a fixed spin loop
// fastest. On an overcommitted VM some vCPUs share their core with a busy
// neighbour for long spells; single-threaded loops call this between timing
// blocks so a whole run does not sit on a slow vCPU. Threads created later
// inherit the single-CPU affinity, so multi-threaded workloads must not call
// it.
void pin_to_fastest_cpu();

// Runs `op` in a freshly forked child: its wall time (negative when `op`
// returned false or the child failed) and the child's peak RSS. Cold
// first operations are measured this way, one fork per repetition. Fork
// only from a single-threaded process.
struct ColdRun {
  double seconds = -1;
  double peak_rss_mb = 0;
};
[[nodiscard]] ColdRun run_forked(const std::function<bool()>& op);

// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] bool read_file(const std::string& path, std::string* out);
[[nodiscard]] bool write_file(const std::string& path, std::string_view text);
[[nodiscard]] bool make_dirs(const std::string& path);

// FNV-1a, for byte-stability digests of generated inputs.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 1469598103934665603ull);

// Seed derivation: independent 64-bit streams from (seed, salt, index).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt,
                                     std::uint64_t index);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One benchmark run's verdict. `correct` turns false on any gate failure;
// `failed` counts failed operations (error results, quarantines, exceeded
// budgets, "ok":false responses and gate mismatches) out of `attempted`.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Free-form facts for the info line (sample counts, unsettled programs,
  // growth table); printed before the result line, never part of it.
  std::vector<std::pair<std::string, std::string>> info;
  // Print gate failures to stderr (the self-test silences its deliberate
  // failures).
  bool echo = true;

  void add(std::string name, double value, std::string unit);
  void note(std::string key, std::string value);
  // Records a gate failure: the run is incorrect and the message goes to
  // stderr so it is visible without parsing the result.
  void fail(const std::string& why);
};

// Repeats a cold set-up operation throughout a run. The constructor forks a
// zygote process before the workload has run anything; each run() has the
// zygote fork a child that performs `op` once, on the CPUs the caller is
// pinned to. Every repetition is therefore as cold as the first even when
// taken late in the run, so set-up can be sampled between timing blocks
// like everything else instead of in one burst at the start, where a slow
// spell of the host would hit every repetition. Construct it while the
// process is single-threaded; the destructor stops the zygote and waits.
class ColdRunner {
 public:
  explicit ColdRunner(const std::function<bool()>& op);
  ~ColdRunner();
  ColdRunner(const ColdRunner&) = delete;
  ColdRunner& operator=(const ColdRunner&) = delete;

  // One repetition, counted in `result`; a failed one fails the run with
  // `what`.
  void sample(RunResult& result, const std::string& what);
  [[nodiscard]] double median_seconds() const;
  [[nodiscard]] std::size_t sample_count() const { return seconds_.size(); }

 private:
  int zygote_ = -1;   // pid
  int command_ = -1;  // write end: the caller's CPU set per repetition
  int reply_ = -1;    // read end: one ColdRun per repetition
  std::vector<double> seconds_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;          // prepared inputs (see inputs.h)
  std::string farm_worker;  // path of the built siwa_farm binary
  std::size_t nproc = 1;
};

// What one workload measured in its untraced timed loop: one sample per
// timed call (one operation, or a farm run over a chunk of jobs).
//
// Shared, overcommitted virtual machines lose 0-25% of their CPU time to
// neighbours (steal) and run the rest slower, in spells lasting seconds to
// minutes (measured on a 4-vCPU Xeon VM). The loop is therefore cut into
// blocks of `block_samples` consecutive samples that do comparable work:
// throughput and CPU per operation are medians over all blocks, so a spell
// that hits less than half of a run does not move them. The latency
// percentiles are taken over every sample of the run.
struct Timing {
  double setup_s = 0;
  std::vector<double> latency_ms;  // per sample
  std::vector<double> cpu_ms;      // user+sys CPU per sample
  std::vector<double> ops;         // operations per sample
  std::size_t block_samples = 1;
  double peak_rss_mb = 0;

  void record(double seconds, double cpu_seconds, std::size_t operations = 1);
  // Operations per second over the whole loop (the untraced side of the
  // traced run's overhead ratio).
  [[nodiscard]] double mean_throughput() const;
};

// Appends the end-to-end metrics every workload reports (ok_share is added
// by main once every gate has run).
void add_end_to_end(RunResult& result, const Timing& timing,
                    double certified_clean_share);

// Fraction of `seconds` spent on the untraced phase of a traced run; the
// rest replays the decomposed pipeline under spans.
inline constexpr double kTraceUntracedShare = 0.4;

[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench
