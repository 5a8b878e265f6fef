// Correctness gates. Every workload routes its checks through these
// functions, and the self-test feeds them deliberately wrong answers, so a
// gate that stopped failing would be caught before any timing is trusted.
//
// A failed gate marks the run incorrect (RunResult::fail) and counts one
// failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common.h"
#include "farm/master.h"
#include "inputs.h"

namespace perfbench {

// Verdict tally against ground truth: soundness (no known deadlock
// certified free) and precision (known deadlock-free programs certified).
struct VerdictTally {
  std::uint64_t known_free = 0;
  std::uint64_t known_free_certified = 0;
  std::uint64_t known_deadlock = 0;
  std::uint64_t unsettled = 0;

  // 1 - false_alarm_share: certified verdicts among known deadlock-free
  // programs.
  [[nodiscard]] double certified_clean_share() const;
};

// Soundness gate for one certification of `item`.
void verdict_gate(const InputItem& item, bool certified_free,
                  VerdictTally& tally, RunResult& result);

// Lint soundness: Error severity only where the oracle finds an anomaly.
void lint_gate(const InputItem& item, std::size_t error_count,
               RunResult& result);

// Byte identity of two reports (edit: server vs cold run_lint; traced
// run: decomposed vs untraced).
void identity_gate(std::string_view what, std::string_view expected,
                   std::string_view actual, RunResult& result);

// A subprocess farm report must equal the in-process reference: every job
// line (status, detail, diagnostics, witness, counters), the quarantine
// list and the merged counters.
void farm_gate(const siwa::farm::FarmReport& reference,
               const siwa::farm::FarmReport& candidate, RunResult& result);

// The benchmark's own checker, exercised with correct and deliberately
// wrong inputs, plus byte-stability of every workload's seeded inputs.
// Returns true when every check behaves.
[[nodiscard]] bool self_test();

}  // namespace perfbench
