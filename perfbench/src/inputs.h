// Seeded benchmark inputs and their ground truth.
//
// Every input derives from the run's --seed through gen::random_program and
// gen/patterns.h; nothing else feeds the generators, so one seed always
// yields the same bytes (the self-test checks this). Inputs are written to
// a directory by `siwa_perfbench prepare` and read back by the measuring
// process, so the oracle's memory never shows in the measured peak RSS.
//
// Ground truth never comes from the detector under test. A program's
// deadlock verdict is either settled by the wavesim oracle (explore_shared
// when the program has shared conditions, WaveExplorer otherwise) or holds
// by construction (the clean/buggy variants of gen/patterns.h). Programs
// the oracle cannot settle within its state cap stay Unknown and are
// counted in the run's info line, never dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Truth : char { Unknown = 'u', Yes = 'y', No = 'n' };

struct InputItem {
  std::string file;    // file name inside the input directory
  std::string family;  // generator family, e.g. "e9", "ring-ok", "e10-branch"
  std::size_t size = 0;  // rendezvous pairs (random) or pattern n
  std::string text;      // MiniAda source, or a serialized sync graph (.sg)
  Truth deadlock = Truth::Unknown;  // some run deadlocks
  Truth anomaly = Truth::Unknown;   // some run deadlocks or stalls
  std::string truth_source;  // "oracle", "construction" or "unsettled"

  [[nodiscard]] bool is_sg() const;
};

struct InputSet {
  std::vector<InputItem> items;

  // Digest over file names and bytes, for the byte-stability check.
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::size_t count_unsettled() const;
};

[[nodiscard]] bool known_workload(const std::string& workload);

// Generates `workload`'s inputs for `seed`. With `with_truth` the oracle
// settles each program's verdict (the expensive part); without it the
// items carry only by-construction truth, which is enough for the
// byte-stability self-test.
[[nodiscard]] InputSet generate_inputs(const std::string& workload,
                                       std::uint64_t seed, bool with_truth);

[[nodiscard]] bool write_inputs(const std::string& dir, const InputSet& inputs,
                                std::string* error);
[[nodiscard]] std::optional<InputSet> load_inputs(const std::string& dir,
                                                  std::string* error);

}  // namespace perfbench
