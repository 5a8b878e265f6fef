#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>
#include <sstream>

#include "common.h"
#include "gen/patterns.h"
#include "gen/random_program.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "syncgraph/builder.h"
#include "syncgraph/serialize.h"
#include "transform/unroll.h"
#include "wavesim/explorer.h"
#include "wavesim/shared.h"

namespace perfbench {

using namespace siwa;

bool InputItem::is_sg() const {
  return file.size() >= 3 && file.compare(file.size() - 3, 3, ".sg") == 0;
}

std::uint64_t InputSet::digest() const {
  std::uint64_t h = fnv1a("");
  for (const InputItem& item : items) {
    h = fnv1a(item.file, h);
    h = fnv1a(item.text, h);
  }
  return h;
}

std::size_t InputSet::count_unsettled() const {
  return static_cast<std::size_t>(
      std::count_if(items.begin(), items.end(), [](const InputItem& item) {
        return item.truth_source == "unsettled";
      }));
}

bool known_workload(const std::string& workload) {
  return workload == "corpus" || workload == "large" || workload == "edit";
}

namespace {

// The probe tasks appended to every edit-workload session: a docstring and
// two sends guarded by distinct shared conditions, which the edit stream
// (workload_edit.cpp) rewrites.
const char* const kProbeTasks =
    "task prober is\n"
    "begin\n"
    "  \"edit cursor 0\";\n"
    "  if gc1 then\n"
    "    send probe.tick;\n"
    "  end if;\n"
    "  if gc2 then\n"
    "    send probe.tock;\n"
    "  end if;\n"
    "end prober;\n"
    "\n"
    "task probe is\n"
    "begin\n"
    "  accept tick;\n"
    "  accept tock;\n"
    "end probe;\n";

// Oracle state cap. Large enough to settle every E10-scale program and most
// E9-96/192 ones within milliseconds; E9-384 programs usually reveal a
// deadlock before the cap. What stays open is reported as unsettled.
constexpr std::size_t kOracleStates = 5000;

struct Verdict {
  Truth deadlock = Truth::Unknown;
  Truth anomaly = Truth::Unknown;
};

// A deadlock found by an exhaustive-semantics explorer is a real deadlock
// even when the search was cut short; freedom needs a complete search.
// Past explore_shared's condition cap the plain explorer over-approximates
// shared guards, so there only freedom is trustworthy.
Verdict run_oracle(const lang::Program& program) {
  wavesim::ExploreOptions options;
  options.max_states = kOracleStates;
  options.collect_witness_trace = false;
  options.max_reports = 1;
  wavesim::ExploreResult r;
  bool overapprox = false;
  if (!program.shared_conditions.empty()) {
    const wavesim::SharedExploreResult shared =
        wavesim::explore_shared(program, options);
    r = shared.combined;
    overapprox = shared.condition_cap_hit;
  } else {
    r = wavesim::WaveExplorer(sg::build_sync_graph(program), options).explore();
  }
  Verdict v;
  if (r.any_deadlock && !overapprox) v.deadlock = Truth::Yes;
  else if (r.complete && !r.any_deadlock) v.deadlock = Truth::No;
  if ((r.any_deadlock || r.any_stall) && !overapprox) v.anomaly = Truth::Yes;
  else if (r.complete && !r.any_deadlock && !r.any_stall) v.anomaly = Truth::No;
  return v;
}

std::string indexed_name(const char* prefix, std::size_t index,
                         const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%04zu%s", prefix, index, ext);
  return buf;
}

// E9-style random program (the bench_parallel/bench_scaling generator):
// pairs/8 tasks, four message types per receiver.
gen::RandomProgramConfig e9_config(std::size_t pairs, double loop,
                                   std::uint64_t seed) {
  gen::RandomProgramConfig config;
  config.tasks = std::max<std::size_t>(3, pairs / 8);
  config.rendezvous_pairs = pairs;
  config.message_types = 4;
  config.branch_probability = 0.15;
  config.loop_probability = loop;
  config.seed = seed;
  return config;
}

struct Pattern {
  const char* family;
  std::size_t n;
  bool deadlocks;
  std::function<lang::Program()> make;
};

Pattern barrier(std::size_t n) {
  return {"barrier", n, false, [n] { return gen::barrier(n); }};
}
Pattern ring(std::size_t n, bool dl) {
  return {dl ? "ring-dl" : "ring-ok", n, dl,
          [n, dl] { return gen::token_ring(n, dl); }};
}
Pattern client_server(std::size_t n, bool dl) {
  return {dl ? "cs-dl" : "cs-ok", n, dl,
          [n, dl] { return gen::client_server(n, dl); }};
}
Pattern philosophers(std::size_t n, bool dl) {
  return {dl ? "phil-dl" : "phil-ok", n, dl,
          [n, dl] { return gen::dining_philosophers(n, dl); }};
}

Pattern pipeline(std::size_t n) {
  return {"pipeline", n, false, [n] { return gen::pipeline(n, 2); }};
}
Pattern master_worker(std::size_t n, bool dl) {
  return {dl ? "mw-dl" : "mw-ok", n, dl,
          [n, dl] { return gen::master_worker(n, 2, dl); }};
}
Pattern readers_writer(std::size_t n, bool dl) {
  return {dl ? "rw-dl" : "rw-ok", n, dl,
          [n, dl] { return gen::readers_writer(n, dl); }};
}
Pattern two_resource(bool ordered) {
  return {ordered ? "ab-ok" : "ab-dl", 2, !ordered,
          [ordered] { return gen::two_resource(ordered); }};
}

// Source text of a program exactly as the benchmark feeds it to SIWA, with
// the oracle run on the re-parsed text (the program the tool will see).
InputItem program_item(std::string file, std::string family, std::size_t size,
                       const lang::Program& program, bool with_truth) {
  InputItem item;
  item.file = std::move(file);
  item.family = std::move(family);
  item.size = size;
  item.text = lang::print_program(program);
  if (with_truth) {
    const Verdict v = run_oracle(lang::parse_and_check_or_throw(item.text));
    item.deadlock = v.deadlock;
    item.anomaly = v.anomaly;
    item.truth_source = v.deadlock == Truth::Unknown ? "unsettled" : "oracle";
  }
  return item;
}

InputItem pattern_item(std::string file, const Pattern& p) {
  InputItem item;
  item.file = std::move(file);
  item.family = p.family;
  item.size = p.n;
  item.text = lang::print_program(p.make());
  item.deadlock = p.deadlocks ? Truth::Yes : Truth::No;
  item.truth_source = "construction";
  return item;
}

// Keeps items[0] (the fixed cold-operation program) in place and shuffles
// the rest, so operations cycle through a seeded mix of sizes.
void shuffle_tail(std::vector<InputItem>& items, std::uint64_t seed) {
  std::mt19937_64 rng(mix_seed(seed, 99, 0));
  std::shuffle(items.begin() + 1, items.end(), rng);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string ext = items[i].is_sg() ? ".sg" : ".mada";
    items[i].file = indexed_name("p", i, ext.c_str());
  }
}

// large: one user running deadlock_audit on big programs. E9-scale random
// programs at 96/192/384 pairs (with a few loops so Lemma 1 runs) plus
// scaled clean and buggy patterns. Many programs per size, so percentiles
// are taken over a broad mix and stay steady from seed to seed.
InputSet large_inputs(std::uint64_t seed, bool with_truth) {
  InputSet set;
  // Cold-operation program: fixed, so setup_s does not depend on the seed.
  set.items.push_back(pattern_item("", philosophers(32, false)));
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {96, 120}, {192, 80}, {384, 40}};
  std::size_t index = 0;
  for (const auto& [pairs, count] : sizes)
    for (std::size_t i = 0; i < count; ++i, ++index)
      set.items.push_back(program_item(
          "", "e9", pairs,
          gen::random_program(e9_config(pairs, 0.03, mix_seed(seed, 1, index))),
          with_truth));
  for (std::size_t n : {24, 48})
    for (const Pattern& p :
         {barrier(n), ring(n, false), ring(n, true), client_server(n, false),
          client_server(n, true), philosophers(n / 2, false),
          philosophers(n / 2, true)})
      set.items.push_back(pattern_item("", p));
  shuffle_tail(set.items, seed);
  return set;
}

// corpus: CI certifying a corpus through siwa_farm. The four E10 families
// of bench_parallel plus a shared-guards family as serialized sync graphs
// (loops unrolled first: the farm certifies raw graphs, which must be
// acyclic), a fixed family of small clean and deadlocking patterns, and
// ~20% small .mada programs with loops and shared conditions that go
// through the lint pipeline.
//
// The pattern family is the same for every seed. Random E10 programs that
// the oracle proves deadlock-free are few (~25%) and the refined detector
// certifies only ~15% of them, so on their own they would make
// certified_clean_share swing by ~20% from seed to seed; the patterns give
// the precision metric a large, fixed base.
InputSet corpus_inputs(std::uint64_t seed, bool with_truth) {
  struct Family {
    const char* name;
    double branch;
    double loop;
    std::size_t unmatched;
    std::size_t shared;
    bool mada;
    std::size_t count;
  };
  const Family families[] = {
      {"e10-straight", 0.0, 0.0, 0, 0, false, 300},
      {"e10-branch", 0.35, 0.0, 0, 0, false, 300},
      {"e10-stalls", 0.3, 0.0, 1, 0, false, 300},
      {"e10-mixed", 0.2, 0.0, 0, 0, false, 300},
      {"shared-guards", 0.3, 0.2, 0, 2, false, 300},
      {"mada", 0.3, 0.2, 0, 2, true, 650},
  };
  InputSet set;
  // Serialized from the re-parsed text, i.e. the program the oracle saw.
  auto add_graph = [&](InputItem item) {
    const lang::Program program = lang::parse_and_check_or_throw(item.text);
    item.text = sg::serialize_sync_graph(sg::build_sync_graph(
        transform::has_loops(program) ? transform::unroll_loops_twice(program)
                                      : program));
    set.items.push_back(std::move(item));
  };
  std::uint64_t salt = 10;
  for (const Family& family : families) {
    for (std::size_t i = 0; i < family.count; ++i) {
      gen::RandomProgramConfig config;
      config.tasks = 3;
      config.rendezvous_pairs = 5;
      config.branch_probability = family.branch;
      config.loop_probability = family.loop;
      config.unmatched_rendezvous = family.unmatched;
      config.shared_conditions = family.shared;
      config.seed = mix_seed(seed, salt, i);
      const lang::Program program = gen::random_program(config);
      InputItem item = program_item("", family.name, 5, program, with_truth);
      if (family.mada)
        set.items.push_back(std::move(item));
      else
        add_graph(std::move(item));
    }
    ++salt;
  }
  for (std::size_t copy = 0; copy < 10; ++copy)
    for (std::size_t n = 2; n <= 9; ++n)
      for (const Pattern& p :
           {barrier(n), ring(n, false), ring(n, true), client_server(n, false),
            client_server(n, true), philosophers(n, false),
            philosophers(n, true), pipeline(n), master_worker(n, false),
            master_worker(n, true), readers_writer(n, false),
            readers_writer(n, true), two_resource(n % 2 == 0)})
        add_graph(pattern_item("", p));
  std::mt19937_64 rng(mix_seed(seed, 98, 0));
  std::shuffle(set.items.begin(), set.items.end(), rng);
  for (std::size_t i = 0; i < set.items.size(); ++i)
    set.items[i].file =
        indexed_name("j", i, set.items[i].family == "mada" ? ".mada" : ".sg");
  return set;
}

// edit: the sessions an editor opens on siwa_lintd. Six E9-96-scale random
// programs with shared conditions (deadlocking, settled by the oracle) and
// two clean patterns (deadlock-free by construction, so every verdict on
// them counts toward certified_clean_share), each with the probe tasks
// appended as edit targets. Several sessions per kind keep the request mix
// from hinging on one generated program.
InputSet edit_inputs(std::uint64_t seed, bool with_truth) {
  InputSet set;
  const Pattern clean[] = {barrier(32), ring(48, false)};
  for (std::size_t s = 0; s < 8; ++s) {
    InputItem item;
    std::string body;
    if (s < 6) {
      gen::RandomProgramConfig config = e9_config(96, 0.0, mix_seed(seed, 3, s));
      config.shared_conditions = 2;
      body = lang::print_program(gen::random_program(config));
      item.family = "e9-shared";
      item.size = 96;
    } else {
      const Pattern& p = clean[s - 6];
      body = lang::print_program(p.make());
      item.family = p.family;
      item.size = p.n;
      item.deadlock = Truth::No;
      item.truth_source = "construction";
    }
    item.file = indexed_name("s", s, ".mada");
    item.text = "shared condition gc1, gc2;\n" + body + "\n" + kProbeTasks;
    if (s < 6 && with_truth) {
      const Verdict v = run_oracle(lang::parse_and_check_or_throw(item.text));
      item.deadlock = v.deadlock;
      item.anomaly = v.anomaly;
      item.truth_source = v.deadlock == Truth::Unknown ? "unsettled" : "oracle";
    }
    set.items.push_back(std::move(item));
  }
  return set;
}

}  // namespace

InputSet generate_inputs(const std::string& workload, std::uint64_t seed,
                         bool with_truth) {
  if (workload == "large") return large_inputs(seed, with_truth);
  if (workload == "corpus") return corpus_inputs(seed, with_truth);
  return edit_inputs(seed, with_truth);
}

bool write_inputs(const std::string& dir, const InputSet& inputs,
                  std::string* error) {
  if (!make_dirs(dir)) {
    *error = "cannot create " + dir;
    return false;
  }
  std::ostringstream index;
  for (const InputItem& item : inputs.items) {
    if (!write_file(dir + "/" + item.file, item.text)) {
      *error = "cannot write " + dir + "/" + item.file;
      return false;
    }
    index << item.file << '\t' << item.family << '\t' << item.size << '\t'
          << static_cast<char>(item.deadlock) << '\t'
          << static_cast<char>(item.anomaly) << '\t'
          << (item.truth_source.empty() ? "-" : item.truth_source) << '\n';
  }
  if (!write_file(dir + "/inputs.tsv", index.str())) {
    *error = "cannot write " + dir + "/inputs.tsv";
    return false;
  }
  return true;
}

std::optional<InputSet> load_inputs(const std::string& dir, std::string* error) {
  std::string index;
  if (!read_file(dir + "/inputs.tsv", &index)) {
    *error = "cannot read " + dir + "/inputs.tsv (run prepare first)";
    return std::nullopt;
  }
  InputSet set;
  std::istringstream lines(index);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    InputItem item;
    std::string deadlock;
    std::string anomaly;
    if (!(fields >> item.file >> item.family >> item.size >> deadlock >>
          anomaly >> item.truth_source) ||
        deadlock.size() != 1 || anomaly.size() != 1) {
      *error = "malformed inputs.tsv line: " + line;
      return std::nullopt;
    }
    item.deadlock = static_cast<Truth>(deadlock[0]);
    item.anomaly = static_cast<Truth>(anomaly[0]);
    if (!read_file(dir + "/" + item.file, &item.text)) {
      *error = "cannot read " + dir + "/" + item.file;
      return std::nullopt;
    }
    set.items.push_back(std::move(item));
  }
  if (set.items.empty()) {
    *error = "no inputs in " + dir;
    return std::nullopt;
  }
  return set;
}

}  // namespace perfbench
