// The decomposed analysis pipeline of the traced run.
//
// certify_program/certify_graph run the layers behind one call. Here the
// benchmark calls them one by one, each under its own span:
//
//   transform.unroll -> syncgraph.build -> core.context -> syncgraph.clg
//   -> [dataflow.guard] -> core.precedence -> core.coexec
//   -> core.enumerate -> core.sweep
//
// The sweep mirrors detect_refined's serial path over the public
// enumerate_hypotheses/evaluate_hypothesis split, so the decomposed
// verdict, tested count and witness must equal the untraced certify result
// exactly; the workloads assert that for every traced operation. Options
// asking for more than one sweep thread are outside its scope.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/certifier.h"
#include "lang/ast.h"
#include "syncgraph/sync_graph.h"
#include "trace.h"

namespace perfbench {

// The comparable part of a certification.
struct Verdict {
  bool certified_free = false;
  std::size_t hypotheses_tested = 0;
  std::vector<std::string> witness;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

[[nodiscard]] Verdict verdict_of(const siwa::core::CertifyResult& result);

// Decomposed certify_graph for the refined algorithms. `size_class` keys
// the per-size growth samples (core.precedence_us.n<size>,
// core.sweep_bound_ratio.n<size>); 0 records none.
[[nodiscard]] Verdict traced_certify_graph(
    const siwa::sg::SyncGraph& graph, const siwa::core::CertifyOptions& options,
    TraceLog& log, std::size_t size_class = 0);

// Decomposed certify_program: Lemma 1 unroll (when the program loops),
// sync-graph build, then traced_certify_graph.
[[nodiscard]] Verdict traced_certify_program(
    const siwa::lang::Program& program,
    const siwa::core::CertifyOptions& options, TraceLog& log,
    std::size_t size_class = 0);

}  // namespace perfbench
