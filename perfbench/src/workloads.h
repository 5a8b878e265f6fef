// The three workloads. Each runs closed loop with one client for
// RunConfig::seconds and fills a RunResult: the end-to-end metrics when
// untraced, the per-layer metrics (from TraceLog) when traced.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "inputs.h"
#include "server/lint_server.h"

namespace perfbench {

// corpus: run_farm over the whole manifest with nproc - 1 workers.
[[nodiscard]] RunResult run_corpus(const RunConfig& config,
                                   const InputSet& inputs);
// large: parse + RefinedSingle certify + stall balance.
[[nodiscard]] RunResult run_large(const RunConfig& config,
                                  const InputSet& inputs);
// edit: LintServer::handle_line over a seeded stream of editor requests.
[[nodiscard]] RunResult run_edit(const RunConfig& config,
                                 const InputSet& inputs);

// Digest of the first `steps` requests of the edit stream, for the
// byte-stability self-test.
[[nodiscard]] std::uint64_t edit_stream_digest(const InputSet& sessions,
                                               std::uint64_t seed,
                                               std::size_t steps);

// The JSON report a cold, cache-less run_lint produces for `text`, rendered
// the way LintServer renders a "diagnostics" request. The edit gate
// compares the server's published set against it.
[[nodiscard]] std::string cold_lint_report(const std::string& uri,
                                           const std::string& text);

// The published report of `uri` on `server`, via an untimed "diagnostics"
// (json) request; empty on an "ok":false response.
[[nodiscard]] std::string server_report(siwa::server::LintServer& server,
                                        const std::string& uri);

}  // namespace perfbench
