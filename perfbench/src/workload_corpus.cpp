// corpus: CI certifying a corpus with siwa_farm, closed loop.
//
// One operation is one job; the timed loop runs run_farm over chunks of
// ~50 jobs of the manifest again and again. The chunking is a measurement
// device, not a model of CI traffic: run_farm hides per-job timing, so the
// latency percentiles are per farm run, and small chunks give a 30 s run
// several thousand of them, enough for a p99 with well over ten samples
// beyond it. setup_s is the first, cold farm run over the whole manifest in
// a fresh process (median over repetitions between timing blocks).
//
// The timed loop runs the jobs in-process (FarmOptions without a worker
// command: the farm master feeding FarmWorker::run_job). With nproc - 1
// subprocess workers the run time swung 25-50% from run to run on a shared
// 4-vCPU Xeon VM (up to 22% of CPU time stolen by the hypervisor, and every
// job is a master/worker wake-up round trip), more than any bound absorbs.
// The subprocess farm still runs in every measurement and must
// reproduce the in-process report job for job; the traced run times it
// (farm.subprocess_jobs_s, farm.spawn_ms) without a bound.
//
// The in-process report is itself gated against the oracle (no known
// deadlock certified free; lint Error only on programs with an
// oracle-confirmed anomaly).
#include <optional>

#include "farm/manifest.h"
#include "farm/master.h"
#include "farm/protocol.h"
#include "farm/worker.h"
#include "gates.h"
#include "graph/scc.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "lint/lint.h"
#include "lint/render.h"
#include "pipeline.h"
#include "syncgraph/serialize.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace siwa;

namespace {

constexpr int kSpawnRepeats = 9;
// A cold set-up repetition at the start of every kSetupEvery-th block.
constexpr std::size_t kSetupEvery = 6;
// Chunks the timed loop farms the corpus in; a timing block is one pass
// over all of them (~0.5 s).
constexpr std::size_t kChunks = 64;

std::size_t error_count(const std::vector<Diagnostic>& diagnostics) {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Error) ++n;
  return n;
}

// The comparable part of a job result: what a farm user reads.
std::string job_fingerprint(const farm::JobResult& r) {
  std::string out = farm::job_status_name(r.status);
  out += '|' + r.detail + '|' + lint::json_diagnostic_array(r.diagnostics);
  for (const std::string& w : r.witness) out += '|' + w;
  return out;
}

// FarmWorker::run_job, decomposed into layer calls under spans.
farm::JobResult traced_job(const farm::ManifestEntry& entry,
                           const farm::WorkerOptions& options, TraceLog& log) {
  obs::Span root(log.sink(), "farm.job");
  farm::JobResult result;
  result.id = entry.index;
  auto error = [&](std::string detail) {
    result.status = farm::JobStatus::Error;
    result.detail = std::move(detail);
    return result;
  };
  std::string text;
  {
    obs::Span span(log.sink(), "farm.read");
    if (!read_file(entry.path, &text)) return error("cannot read " + entry.path);
  }
  if (entry.kind == farm::EntryKind::MiniAda) {
    DiagnosticSink sink;
    std::optional<lang::Program> program;
    {
      obs::Span span(log.sink(), "lang.parse");
      program = lang::parse_program(text, sink);
      if (program) lang::check_program(*program, sink);
    }
    log.sample("lang.bytes", static_cast<double>(text.size()));
    if (!program || sink.has_errors()) {
      result.status = farm::JobStatus::Flagged;
      result.diagnostics = sink.sorted_diagnostics();
    } else {
      obs::Span span(log.sink(), "lint.run");
      lint::LintResult lint =
          lint::run_lint(*program, text, options.lint, sink.diagnostics());
      result.status = lint.has_errors() ? farm::JobStatus::Flagged
                                        : farm::JobStatus::Free;
      result.diagnostics = std::move(lint.diagnostics);
    }
    log.sample("lint.diagnostics",
               static_cast<double>(result.diagnostics.size()));
  } else {
    std::optional<sg::SyncGraph> graph;
    std::string parse_error;
    {
      obs::Span span(log.sink(), "syncgraph.sg_parse");
      graph = sg::parse_sync_graph(text, &parse_error);
    }
    log.sample("syncgraph.sg_bytes", static_cast<double>(text.size()));
    if (!graph) return error("parse error: " + parse_error);
    std::vector<std::string> problems;
    bool cyclic = false;
    {
      obs::Span span(log.sink(), "syncgraph.validate");
      cyclic = graph::has_cycle(graph->control_graph());
      if (!cyclic) problems = graph->validate(false);
    }
    if (cyclic) return error("cyclic control flow");
    if (!problems.empty()) return error("invalid graph: " + problems.front());
    const Verdict v = traced_certify_graph(*graph, options.certify, log);
    result.status = v.certified_free ? farm::JobStatus::Free
                                     : farm::JobStatus::Flagged;
    result.witness = v.witness;
  }
  {
    obs::Span span(log.sink(), "farm.render");
    (void)farm::job_response_line(result);
  }
  return result;
}

}  // namespace

RunResult run_corpus(const RunConfig& config, const InputSet& inputs) {
  RunResult result;
  std::string listing;
  for (const InputItem& item : inputs.items) listing += item.file + '\n';
  const farm::Manifest manifest = farm::parse_manifest(listing, config.dir);
  std::size_t first_sg = 0;
  while (!inputs.items[first_sg].is_sg()) ++first_sg;
  const farm::Manifest one =
      farm::parse_manifest(inputs.items[first_sg].file + '\n', config.dir);

  const farm::FarmOptions in_process;  // no worker command: jobs in-process
  farm::FarmOptions subprocess;
  subprocess.workers = config.nproc > 1 ? config.nproc - 1 : 1;
  subprocess.worker_command = {config.farm_worker, "--worker"};

  const std::uint64_t jobs = manifest.entries.size();
  auto gate_report = [&](const farm::FarmReport& report) {
    result.attempted += report.results.size();
    if (report.internal_error) {
      ++result.failed;
      result.fail("farm internal error: " + report.error);
    }
    for (const farm::JobResult& r : report.results)
      if (r.status == farm::JobStatus::Error || r.budget_exceeded) {
        ++result.failed;
        result.fail("job " + std::to_string(r.id) + " errored: " + r.detail);
      }
    result.failed += report.quarantined.size();
  };

  // setup_s: the first, cold farm run over the whole manifest (every file
  // read and every arena grown for the first time) in a fresh process,
  // sampled between timing blocks.
  ColdRunner setup_runner(
      [&] { return !farm::run_farm(manifest, in_process).internal_error; });
  Timing timing;
  // The reference report, gated against truth.
  const farm::FarmReport reference = farm::run_farm(manifest, in_process);
  gate_report(reference);
  VerdictTally tally;
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    const InputItem& item = inputs.items[i];
    const farm::JobResult& r = reference.results[i];
    if (item.is_sg())
      verdict_gate(item, r.status == farm::JobStatus::Free, tally, result);
    else
      lint_gate(item, error_count(r.diagnostics), result);
  }

  // The subprocess farm must reproduce the in-process report job for job.
  std::vector<double> subprocess_s;
  farm::FarmStats stats;
  auto run_subprocess = [&] {
    const auto t0 = Clock::now();
    const farm::FarmReport report = farm::run_farm(manifest, subprocess);
    subprocess_s.push_back(seconds_between(t0, Clock::now()));
    stats.steals += report.stats.steals;
    stats.retries += report.stats.retries;
    gate_report(report);
    farm_gate(reference, report, result);
  };
  run_subprocess();

  // The timed loop farms the corpus in interleaved chunks (entry i goes to
  // chunk i % kChunks, so every chunk has the same family mix): enough farm
  // runs per measurement for a p99 over all of them. Each chunk's first
  // report is its reference and must agree job for job with the
  // whole-corpus reference.
  std::vector<farm::Manifest> chunks(kChunks);
  std::vector<farm::FarmReport> chunk_reference;
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::string chunk_listing;
    for (std::size_t i = c; i < inputs.items.size(); i += kChunks)
      chunk_listing += inputs.items[i].file + '\n';
    chunks[c] = farm::parse_manifest(chunk_listing, config.dir);
    chunk_reference.push_back(farm::run_farm(chunks[c], in_process));
    gate_report(chunk_reference.back());
    for (std::size_t j = 0; j < chunk_reference.back().results.size(); ++j)
      if (job_fingerprint(chunk_reference.back().results[j]) !=
          job_fingerprint(reference.results[c + j * kChunks])) {
        ++result.failed;
        result.fail("chunked job differs from the reference: " +
                    chunks[c].entries[j].path);
      }
  }

  timing.block_samples = kChunks;
  const double untraced_s =
      config.trace ? config.seconds * kTraceUntracedShare : config.seconds;
  const auto loop_end =
      Clock::now() + std::chrono::duration<double>(untraced_s);
  while (Clock::now() < loop_end) {
    const std::size_t c = timing.latency_ms.size() % kChunks;
    if (c == 0) {
      pin_to_fastest_cpu();
      if (timing.latency_ms.size() % (kChunks * kSetupEvery) == 0)
        setup_runner.sample(result, "cold farm run failed");
    }
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const farm::FarmReport report = farm::run_farm(chunks[c], in_process);
    timing.record(seconds_between(t0, Clock::now()), cpu_seconds() - cpu0,
                  chunks[c].entries.size());
    gate_report(report);
    farm_gate(chunk_reference[c], report, result);
  }
  timing.setup_s = setup_runner.median_seconds();
  timing.peak_rss_mb = peak_rss_mb_self();
  result.note("setup_samples", std::to_string(setup_runner.sample_count()));

  result.note("jobs", std::to_string(jobs));
  result.note("chunks", std::to_string(kChunks));
  result.note("known_deadlock", std::to_string(tally.known_deadlock));
  result.note("known_free", std::to_string(tally.known_free));
  result.note("unsettled", std::to_string(inputs.count_unsettled()));

  if (!config.trace) {
    add_end_to_end(result, timing, tally.certified_clean_share());
    return result;
  }

  // The subprocess farm is timed here, under no bound: its run time swings
  // with every scheduling delay of the master/worker round trips.
  const double remaining = config.seconds - untraced_s;
  std::vector<double> spawn_s;
  for (int r = 0; r < kSpawnRepeats; ++r) {
    const auto t0 = Clock::now();
    gate_report(farm::run_farm(one, subprocess));
    spawn_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto subprocess_end =
      Clock::now() + std::chrono::duration<double>(remaining * 0.3);
  while (Clock::now() < subprocess_end) run_subprocess();
  TraceLog log;
  const double runs = static_cast<double>(subprocess_s.size());
  log.sample("farm.steals", static_cast<double>(stats.steals) / runs);
  log.sample("farm.retries", static_cast<double>(stats.retries) / runs);
  log.sample("farm.spawn_ms", median(spawn_s) * 1000.0);
  log.sample("farm.subprocess_jobs_s",
             static_cast<double>(jobs) / median(subprocess_s));

  // In-process job time (FarmWorker::run_job, no IPC): farm.job_us, the
  // untraced side of the overhead ratio, and the workers' busy share.
  const farm::FarmWorker worker;
  double job_s = 0;
  std::uint64_t job_count = 0;
  const auto job_end =
      Clock::now() + std::chrono::duration<double>(remaining * 0.2);
  while (Clock::now() < job_end || job_count < jobs) {
    const farm::ManifestEntry& entry =
        manifest.entries[job_count % manifest.entries.size()];
    farm::JobRequest request;
    request.id = entry.index;
    request.path = entry.path;
    request.kind = entry.kind;
    const auto t0 = Clock::now();
    const farm::JobResult r = worker.run_job(request);
    job_s += seconds_between(t0, Clock::now());
    ++job_count;
    ++result.attempted;
    if (job_fingerprint(r) != job_fingerprint(reference.results[entry.index])) {
      ++result.failed;
      result.fail("in-process job differs from the reference: " + entry.path);
    }
  }
  const double job_us = job_s * 1e6 / static_cast<double>(job_count);
  log.sample("farm.job_us", job_us);
  log.sample("farm.worker_busy_share",
             job_us * 1e-6 * static_cast<double>(jobs) /
                 (static_cast<double>(subprocess.workers) *
                  median(subprocess_s)));

  // Traced phase: decomposed jobs, each asserted equal to the reference.
  const farm::WorkerOptions worker_options;
  const auto trace_end =
      Clock::now() + std::chrono::duration<double>(remaining * 0.5);
  std::size_t next = 0;
  while (Clock::now() < trace_end || next < jobs) {
    const farm::ManifestEntry& entry =
        manifest.entries[next++ % manifest.entries.size()];
    const farm::JobResult r = traced_job(entry, worker_options, log);
    ++result.attempted;
    if (job_fingerprint(r) != job_fingerprint(reference.results[entry.index])) {
      ++result.failed;
      result.fail("decomposed job differs from the reference: " + entry.path);
    }
    if (next % 256 == 0) log.flush();
  }
  log.flush();
  const double traced_tp =
      static_cast<double>(log.operations()) / (log.operation_us() * 1e-6);
  log.sample("trace.overhead_share", traced_tp / (1e6 / job_us));
  add_layer_metrics(log, result);
  return result;
}

}  // namespace perfbench
