#include "pipeline.h"

#include <chrono>
#include <limits>
#include <optional>

#include "common.h"
#include "core/analysis_context.h"
#include "core/coexec.h"
#include "core/precedence.h"
#include "core/refined_detector.h"
#include "syncgraph/builder.h"
#include "syncgraph/clg.h"
#include "transform/unroll.h"

namespace perfbench {

using namespace siwa;

namespace {

constexpr std::size_t kNoHit = std::numeric_limits<std::size_t>::max();

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

core::HypothesisMode mode_of(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::RefinedHeadPair: return core::HypothesisMode::HeadPair;
    case core::Algorithm::RefinedHeadTail: return core::HypothesisMode::HeadTail;
    case core::Algorithm::RefinedHeadTailPairs:
      return core::HypothesisMode::HeadTailPairs;
    default: return core::HypothesisMode::SingleHead;
  }
}

std::size_t count_rendezvous(const std::vector<lang::Stmt>& body) {
  std::size_t n = 0;
  for (const lang::Stmt& s : body)
    n += (s.is_rendezvous() ? 1 : 0) + count_rendezvous(s.body) +
         count_rendezvous(s.orelse);
  return n;
}

// Rendezvous statements in a program, counting every branch and loop body.
std::size_t rendezvous_statements(const lang::Program& program) {
  std::size_t n = 0;
  for (const lang::TaskDecl& task : program.tasks)
    n += count_rendezvous(task.body);
  for (const lang::ProcDecl& proc : program.procedures)
    n += count_rendezvous(proc.body);
  return n;
}

struct SweepOutcome {
  std::size_t first_hit = kNoHit;
  std::size_t tested = 0;
  std::vector<ClgNodeId> witness_clg;
};

// detect_refined's serial sweep over the public evaluate_hypothesis. The
// benchmark certifies with one sweep thread (the CertifyOptions default),
// so the serial path is the one certify_program takes.
SweepOutcome sweep(const core::AnalysisContext& ctx, const sg::Clg& clg,
                   const core::Precedence& precedence,
                   const core::CoExec& coexec,
                   const std::vector<core::Hypothesis>& hyps,
                   const core::CertifyOptions& options) {
  SweepOutcome out;
  core::MarkedSearch scratch(clg);
  for (std::size_t i = 0; i < hyps.size(); ++i) {
    core::HypothesisOutcome o = core::evaluate_hypothesis(
        ctx, clg, precedence, coexec, hyps[i], scratch);
    ++out.tested;
    if (o.hit && out.first_hit == kNoHit) {
      out.first_hit = i;
      out.witness_clg = std::move(o.witness_clg);
      if (options.stop_at_first_hit) break;
    }
  }
  return out;
}

}  // namespace

Verdict verdict_of(const core::CertifyResult& result) {
  return {result.certified_free, result.stats.hypotheses_tested,
          result.witness};
}

Verdict traced_certify_graph(const sg::SyncGraph& graph,
                             const core::CertifyOptions& options, TraceLog& log,
                             std::size_t size_class) {
  obs::MetricsSink* sink = log.sink();
  std::optional<core::AnalysisContext> ctx;
  {
    obs::Span span(sink, "core.context");
    ctx.emplace(graph);
  }
  const sg::Clg* clg = nullptr;
  {
    obs::Span span(sink, "syncgraph.clg");
    clg = &ctx->clg();
  }
  const dataflow::GuardFeasibility* feas = nullptr;
  if (options.use_guard_dataflow) {
    obs::Span span(sink, "dataflow.guard");
    const dataflow::GuardFeasibility& engine = ctx->guard_feasibility();
    if (engine.has_conditions()) feas = &engine;
    log.sample("dataflow.infeasible_nodes",
               static_cast<double>(engine.infeasible_count()));
  }
  core::PrecedenceOptions prec_options = options.precedence;
  prec_options.feasibility = feas;
  std::optional<core::Precedence> precedence;
  const auto prec_start = Clock::now();
  {
    obs::Span span(sink, "core.precedence");
    precedence.emplace(*ctx, prec_options);
  }
  const double precedence_us = us_since(prec_start);
  std::optional<core::CoExec> coexec;
  {
    obs::Span span(sink, "core.coexec");
    coexec.emplace(*ctx, options.extra_not_coexec, feas);
  }
  core::RefinedOptions refined;
  refined.mode = mode_of(options.algorithm);
  refined.apply_constraint4 = options.apply_constraint4;
  refined.stop_at_first_hit = options.stop_at_first_hit;
  refined.parallel = options.parallel;
  refined.feasibility = feas;
  std::vector<core::Hypothesis> hyps;
  {
    obs::Span span(sink, "core.enumerate");
    hyps = core::enumerate_hypotheses(*ctx, *precedence, *coexec, refined);
  }
  SweepOutcome swept;
  const auto sweep_start = Clock::now();
  {
    obs::Span span(sink, "core.sweep");
    swept = sweep(*ctx, *clg, *precedence, *coexec, hyps, options);
  }
  const double sweep_us = us_since(sweep_start);

  Verdict verdict;
  verdict.certified_free = swept.first_hit == kNoHit;
  verdict.hypotheses_tested = swept.tested;
  NodeId last = NodeId::invalid();
  for (ClgNodeId v : swept.witness_clg) {
    const NodeId origin = clg->origin(v);
    if (!origin.valid() || origin == last) continue;
    verdict.witness.push_back(graph.describe(origin));
    last = origin;
  }

  const double n = static_cast<double>(clg->node_count());
  const double e = static_cast<double>(clg->edge_count());
  log.sample("syncgraph.sync_nodes", static_cast<double>(graph.node_count()));
  log.sample("syncgraph.clg_nodes", n);
  log.sample("syncgraph.clg_edges", e);
  log.sample("core.hypotheses", static_cast<double>(hyps.size()));
  log.sample("core.hypotheses_tested", static_cast<double>(swept.tested));
  if (swept.first_hit != kNoHit && !hyps.empty())
    log.sample("core.first_hit_index_share",
               static_cast<double>(swept.first_hit + 1) /
                   static_cast<double>(hyps.size()));
  if (size_class != 0) {
    const std::string suffix = ".n" + std::to_string(size_class);
    log.sample("core.precedence_us" + suffix, precedence_us);
    const double ratio = sweep_us / (n * (n + e));
    log.sample("core.sweep_bound_ratio", ratio);
    log.sample("core.sweep_bound_ratio" + suffix, ratio);
  }
  return verdict;
}

Verdict traced_certify_program(const lang::Program& program,
                               const core::CertifyOptions& options,
                               TraceLog& log, std::size_t size_class) {
  obs::MetricsSink* sink = log.sink();
  const lang::Program* source = &program;
  lang::Program unrolled;
  if (transform::has_loops(program)) {
    obs::Span span(sink, "transform.unroll");
    unrolled = transform::unroll_loops_twice(program);
    source = &unrolled;
  }
  if (source == &unrolled)
    log.sample("transform.unroll_growth",
               static_cast<double>(rendezvous_statements(unrolled)) /
                   static_cast<double>(rendezvous_statements(program)));
  std::optional<sg::SyncGraph> graph;
  {
    obs::Span span(sink, "syncgraph.build");
    graph.emplace(sg::build_sync_graph(*source));
  }
  return traced_certify_graph(*graph, options, log, size_class);
}

}  // namespace perfbench
