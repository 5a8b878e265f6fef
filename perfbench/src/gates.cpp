#include "gates.h"

#include <cstdio>

#include "core/certifier.h"
#include "farm/protocol.h"
#include "gen/patterns.h"
#include "lint/render.h"
#include "workloads.h"

namespace perfbench {

using namespace siwa;

double VerdictTally::certified_clean_share() const {
  return known_free == 0 ? 1.0
                         : static_cast<double>(known_free_certified) /
                               static_cast<double>(known_free);
}

void verdict_gate(const InputItem& item, bool certified_free,
                  VerdictTally& tally, RunResult& result) {
  switch (item.deadlock) {
    case Truth::Yes:
      ++tally.known_deadlock;
      if (certified_free) {
        ++result.failed;
        result.fail("missed deadlock: " + item.file + " (" + item.family +
                    ") deadlocks (" + item.truth_source +
                    ") but was certified free");
      }
      break;
    case Truth::No:
      ++tally.known_free;
      if (certified_free) ++tally.known_free_certified;
      break;
    case Truth::Unknown:
      ++tally.unsettled;
      break;
  }
}

void lint_gate(const InputItem& item, std::size_t error_count,
               RunResult& result) {
  if (item.anomaly == Truth::No && error_count > 0) {
    ++result.failed;
    result.fail("lint soundness: " + item.file +
                " is oracle-certified anomaly-free but lint reported " +
                std::to_string(error_count) + " error(s)");
  }
}

void identity_gate(std::string_view what, std::string_view expected,
                   std::string_view actual, RunResult& result) {
  if (expected == actual) return;
  ++result.failed;
  result.fail(std::string(what) + ": reports differ");
}

void farm_gate(const farm::FarmReport& reference,
               const farm::FarmReport& candidate, RunResult& result) {
  std::size_t mismatches = 0;
  if (reference.results.size() != candidate.results.size()) {
    mismatches = reference.results.size();
  } else {
    for (std::size_t i = 0; i < reference.results.size(); ++i)
      if (farm::job_response_line(reference.results[i]) !=
          farm::job_response_line(candidate.results[i]))
        ++mismatches;
  }
  if (mismatches == 0 && reference.quarantined == candidate.quarantined &&
      reference.merged_counters == candidate.merged_counters &&
      candidate.internal_error == reference.internal_error)
    return;
  result.failed += mismatches == 0 ? 1 : mismatches;
  result.fail("farm report differs from the in-process reference (" +
              std::to_string(mismatches) + " job(s), quarantined " +
              std::to_string(candidate.quarantined.size()) + ")");
}

namespace {

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "perfbench: self-test FAILED: %s\n", what);
  return ok;
}

// A gate run on a scratch result: reports whether the gate failed it.
template <typename F>
bool gate_rejects(F&& gate) {
  RunResult scratch;
  scratch.echo = false;
  gate(scratch);
  return !scratch.correct && scratch.failed > 0;
}

}  // namespace

bool self_test() {
  bool ok = true;

  // Seeded inputs are byte-stable, and the seed actually matters.
  for (const char* workload : {"corpus", "large", "edit"}) {
    const std::uint64_t a = generate_inputs(workload, 7, false).digest();
    const std::uint64_t b = generate_inputs(workload, 7, false).digest();
    const std::uint64_t c = generate_inputs(workload, 8, false).digest();
    ok &= expect(a == b, "inputs are not byte-stable for one seed");
    ok &= expect(a != c, "inputs do not depend on the seed");
  }
  const InputSet sessions = generate_inputs("edit", 7, false);
  ok &= expect(edit_stream_digest(sessions, 7, 300) ==
                   edit_stream_digest(sessions, 7, 300),
               "edit stream is not byte-stable for one seed");

  // A real deadlock, certified honestly, passes; its flipped verdict fails.
  InputItem ring;
  ring.file = "self-test";
  ring.family = "ring-dl";
  ring.deadlock = Truth::Yes;
  const bool certified =
      core::certify_program(gen::token_ring(6, true)).certified_free;
  VerdictTally tally;
  ok &= expect(!certified, "token ring deadlock not reported");
  ok &= expect(!gate_rejects([&](RunResult& r) {
                 verdict_gate(ring, certified, tally, r);
               }),
               "soundness gate rejects a correct verdict");
  ok &= expect(gate_rejects([&](RunResult& r) {
                 verdict_gate(ring, !certified, tally, r);
               }),
               "soundness gate accepts a flipped verdict");

  InputItem clean;
  clean.anomaly = Truth::No;
  ok &= expect(gate_rejects([&](RunResult& r) { lint_gate(clean, 1, r); }),
               "lint gate accepts an Error on an anomaly-free program");
  ok &= expect(!gate_rejects([&](RunResult& r) { lint_gate(clean, 0, r); }),
               "lint gate rejects a clean report");

  // edit: the server's published report equals a cold lint; a mismatched
  // report fails the gate.
  {
    const InputItem& session = sessions.items.front();
    server::LintServer server;
    (void)server.handle_line("{\"method\":\"open\",\"uri\":\"s\",\"text\":\"" +
                             lint::json_escape(session.text) + "\"}");
    const std::string published = server_report(server, "s");
    const std::string cold = cold_lint_report("s", session.text);
    ok &= expect(!published.empty(), "server report missing");
    ok &= expect(!gate_rejects([&](RunResult& r) {
                   identity_gate("edit", cold, published, r);
                 }),
                 "edit gate rejects identical reports");
    std::string tampered = published;
    tampered.back() = tampered.back() == ' ' ? '\n' : ' ';
    ok &= expect(gate_rejects([&](RunResult& r) {
                   identity_gate("edit", cold, tampered, r);
                 }),
                 "edit gate accepts a mismatched report");
  }

  // corpus: a flipped job status fails the farm gate.
  {
    farm::FarmReport reference;
    reference.results.resize(2);
    reference.results[0].status = farm::JobStatus::Flagged;
    reference.results[1].id = 1;
    farm::FarmReport flipped = reference;
    flipped.results[0].status = farm::JobStatus::Free;
    ok &= expect(!gate_rejects([&](RunResult& r) {
                   farm_gate(reference, reference, r);
                 }),
                 "farm gate rejects an identical report");
    ok &= expect(gate_rejects([&](RunResult& r) {
                   farm_gate(reference, flipped, r);
                 }),
                 "farm gate accepts a flipped job verdict");
  }
  return ok;
}

}  // namespace perfbench
