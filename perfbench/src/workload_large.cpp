// large: one user running deadlock_audit on big programs, closed loop.
// An operation is parse + sema -> certify_program (deadlock_audit's
// defaults: RefinedSingle, 1 thread) -> check_stall_balance.
//
// Operations cycle through the seeded pool. setup_s is the first, cold
// operation on the pool's fixed first program, repeated in fresh processes
// at the start of every timing block (ColdRunner) and reported as the
// median; it is not part of the percentiles. peak_rss_mb is a
// deadlock_audit process's: see run_large.
#include <algorithm>
#include <optional>

#include "gates.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "pipeline.h"
#include "stall/balance.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace siwa;

namespace {

// Cold set-up repetitions at the start of every timing block.
constexpr int kSetupPerBlock = 2;

struct Outcome {
  bool ok = false;
  Verdict verdict;
  bool stall_free = false;
  std::size_t stall_issues = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::optional<lang::Program> parse(const std::string& text) {
  DiagnosticSink sink;
  std::optional<lang::Program> program = lang::parse_program(text, sink);
  if (program) lang::check_program(*program, sink);
  if (!program || sink.has_errors()) return std::nullopt;
  return program;
}

// One operation.
Outcome run_op(const InputItem& item) {
  Outcome out;
  const std::optional<lang::Program> program = parse(item.text);
  if (!program) return out;
  const core::CertifyResult r = core::certify_program(*program, {});
  if (r.budget_exceeded) return out;
  out.verdict = verdict_of(r);
  const stall::BalanceVerdict balance = stall::check_stall_balance(*program);
  out.stall_free = balance.stall_free;
  out.stall_issues = balance.issues.size();
  out.ok = true;
  return out;
}

// The same operation through the decomposed pipeline, under spans.
Outcome traced_op(const InputItem& item, TraceLog& log) {
  obs::Span root(log.sink(), "large.op");
  Outcome out;
  std::optional<lang::Program> program;
  {
    obs::Span span(log.sink(), "lang.parse");
    program = parse(item.text);
  }
  log.sample("lang.bytes", static_cast<double>(item.text.size()));
  if (!program) return out;
  // Growth samples for the random E9 programs, keyed by size.
  const std::size_t size_class = item.family == "e9" ? item.size : 0;
  out.verdict = traced_certify_program(*program, {}, log, size_class);
  {
    obs::Span span(log.sink(), "stall.balance");
    const stall::BalanceVerdict balance = stall::check_stall_balance(*program);
    out.stall_free = balance.stall_free;
    out.stall_issues = balance.issues.size();
  }
  out.ok = true;
  return out;
}

}  // namespace

RunResult run_large(const RunConfig& config, const InputSet& inputs) {
  RunResult result;
  const std::vector<InputItem>& items = inputs.items;
  // setup_s: the first operation on the pool's fixed first program in a
  // fresh process, sampled between timing blocks.
  ColdRunner setup_runner([&] { return run_op(items[0]).ok; });

  // Forked cold operations, before anything else runs in-process.
  auto cold = [&](std::size_t k) {
    // Nothing in the forked child has run before, so every repetition is
    // a cold first operation, and its peak RSS is what one deadlock_audit
    // process on that program holds.
    const ColdRun run = run_forked([&] { return run_op(items[k]).ok; });
    ++result.attempted;
    if (run.seconds < 0) {
      ++result.failed;
      result.fail("cold operation failed on " + items[k].file);
    }
    return run;
  };
  // Peak RSS is per deadlock_audit process, the largest over the biggest
  // programs. The long-running measuring process is no stand-in:
  // the thread's scratch arena keeps every oversized block it ever
  // allocates, so its RSS grows with each new largest request and depends
  // on the order the pool happens to visit the programs.
  double per_process_rss_mb = 0;
  for (std::size_t k = 0; k < items.size(); ++k)
    if (items[k].family == "e9" && items[k].size == 384)
      per_process_rss_mb = std::max(per_process_rss_mb, cold(k).peak_rss_mb);

  // Reference pass (untimed, also the warm-up): one verdict per program,
  // gated against ground truth. Every later operation must reproduce it.
  VerdictTally tally;
  std::vector<Outcome> reference(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    reference[k] = run_op(items[k]);
    ++result.attempted;
    if (!reference[k].ok) {
      ++result.failed;
      result.fail("operation failed on " + items[k].file);
      continue;
    }
    verdict_gate(items[k], reference[k].verdict.certified_free, tally, result);
  }

  auto check = [&](std::size_t k, const Outcome& got, const char* what) {
    ++result.attempted;
    if (!got.ok) {
      ++result.failed;
      result.fail(std::string(what) + " operation failed on " + items[k].file);
    } else if (!(got == reference[k])) {
      ++result.failed;
      result.fail(std::string(what) + " verdict differs from the reference on " +
                  items[k].file);
    }
  };

  Timing timing;
  // A block is whole passes over the pool (~1-2.5 s), so every block times
  // the same mix of programs.
  timing.block_samples = items.size();
  const double untraced_s =
      config.trace ? config.seconds * kTraceUntracedShare : config.seconds;
  std::size_t next = 0;
  const auto loop_end =
      Clock::now() + std::chrono::duration<double>(untraced_s);
  while (Clock::now() < loop_end) {
    if (timing.latency_ms.size() % timing.block_samples == 0) {
      pin_to_fastest_cpu();
      for (int r = 0; r < kSetupPerBlock; ++r)
        setup_runner.sample(result, "cold operation failed on " + items[0].file);
    }
    const std::size_t k = next++ % items.size();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const Outcome got = run_op(items[k]);
    const auto t1 = Clock::now();
    timing.record(seconds_between(t0, t1), cpu_seconds() - cpu0);
    check(k, got, "untraced");
  }
  timing.setup_s = setup_runner.median_seconds();
  timing.peak_rss_mb = per_process_rss_mb;
  result.note("setup_samples", std::to_string(setup_runner.sample_count()));

  result.note("programs", std::to_string(items.size()));
  result.note("process_peak_rss_mb", json_number(peak_rss_mb_self()));
  result.note("known_deadlock", std::to_string(tally.known_deadlock));
  result.note("known_free", std::to_string(tally.known_free));
  result.note("unsettled", std::to_string(tally.unsettled));

  if (!config.trace) {
    add_end_to_end(result, timing, tally.certified_clean_share());
    return result;
  }

  // Traced phase: the decomposed pipeline over the same pool, each verdict
  // asserted equal to the untraced reference.
  TraceLog log;
  const auto trace_end =
      Clock::now() +
      std::chrono::duration<double>(config.seconds - untraced_s);
  next = 0;
  while (Clock::now() < trace_end || next < items.size()) {
    const std::size_t k = next++ % items.size();
    check(k, traced_op(items[k], log), "traced");
    if (next % 32 == 0) log.flush();
  }
  log.flush();
  const double untraced_tp = timing.mean_throughput();
  const double traced_tp =
      static_cast<double>(log.operations()) / (log.operation_us() * 1e-6);
  log.sample("trace.overhead_share", traced_tp / untraced_tp);
  add_layer_metrics(log, result);

  // Growth check of the refined sweep against section 4.2's
  // O(|N_CLG| * (|N_CLG| + |E_CLG|)): the time per bound unit must not grow
  // with program size.
  const double r96 = log.mean("core.sweep_bound_ratio.n96");
  const double r384 = log.mean("core.sweep_bound_ratio.n384");
  result.note("sweep_bound_ratio_384_over_96",
              json_number(r96 > 0 ? r384 / r96 : 0));
  return result;
}

}  // namespace perfbench
