// edit: an editor driving siwa_lintd, closed loop with one client.
//
// LintServer::handle_line receives the sessions' `open` requests (setup_s:
// a fresh process's server opening them, median over repetitions between
// timing blocks) and then a seeded, cumulative stream of requests in fixed
// shares, 10 : 2 : 2 : 1 out of every 15:
//
//   docstring edits              zero graph delta: memoized verdict
//   guard swaps                  guard-only delta: restricted refresh
//   renames / inserted rendezvous structural: context rebuild
//   "diagnostics" SARIF requests render only
//
// The three edit shares are those of bench_incremental's hand-written
// edit script (10 docstring, 2 guard-swap and 2 rename steps after the
// open). One diagnostics request per 14 edits is an assumption. Neither
// comes from recorded editor traffic.
//
// Every edit keeps each session's deadlock status: the random sessions
// deadlock in their generated part, which no edit touches, and the clean
// barrier session stays deadlock-free because the probe edits rename
// consistently and insert matched rendezvous at the top of both probe
// tasks. So every verdict the server publishes is gated against truth.
//
// Outside the timed path, sampled published reports (every SARIF response
// and an untimed json "diagnostics" probe every few edits) are compared
// byte-for-byte against a cold, cache-less run_lint of the same text.
#include <map>
#include <optional>
#include <random>

#include "gates.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "lint/cache.h"
#include "lint/lint.h"
#include "lint/render.h"
#include "obs/json.h"
#include "pipeline.h"
#include "server/jsonl.h"
#include "syncgraph/builder.h"
#include "syncgraph/graph_edits.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace siwa;

namespace {

// A cold set-up repetition at the start of every kSetupEvery-th block.
constexpr std::size_t kSetupEvery = 4;
// Published-report samples checked against a cold lint per run.
constexpr std::size_t kSarifChecks = 48;
constexpr std::size_t kJsonChecks = 96;
constexpr std::size_t kJsonCheckEvery = 24;
// Requests per timing block (~0.5 s of editing).
constexpr std::size_t kBlockRequests = 500;

enum class Kind { Doc, Guard, Struct, Diagnostics };

const char* kind_metric(Kind kind) {
  switch (kind) {
    case Kind::Doc: return "server.edit_doc_us";
    case Kind::Guard: return "server.edit_guard_us";
    case Kind::Struct: return "server.edit_struct_us";
    case Kind::Diagnostics: return "server.diagnostics_us";
  }
  return "";
}

struct Request {
  Kind kind = Kind::Doc;
  std::size_t session = 0;
  std::string line;
};

bool replace_first(std::string& text, std::string_view from,
                   std::string_view to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) return false;
  text.replace(at, from.size(), to);
  return true;
}

std::string uri_of(std::size_t session) {
  return "file:///session" + std::to_string(session) + ".mada";
}

std::string edit_line(const char* method, const std::string& uri,
                      const std::string& text) {
  return std::string("{\"method\":\"") + method + "\",\"uri\":\"" +
         lint::json_escape(uri) + "\",\"text\":\"" + lint::json_escape(text) +
         "\"}";
}

// The seeded request stream. Each session's text evolves cumulatively;
// toggling edits (guard swap, rename, insert) keep its size bounded.
class EditStream {
 public:
  EditStream(const InputSet& sessions, std::uint64_t seed)
      : rng_(mix_seed(seed, 4, 0)) {
    for (const InputItem& item : sessions.items) states_.push_back({item.text});
  }

  [[nodiscard]] const std::string& text(std::size_t session) const {
    return states_[session].text;
  }

  Request next() {
    Request req;
    req.session = std::uniform_int_distribution<std::size_t>(
        0, states_.size() - 1)(rng_);
    const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
    req.kind = u < 10.0 / 15 ? Kind::Doc
               : u < 12.0 / 15 ? Kind::Guard
               : u < 14.0 / 15 ? Kind::Struct
                               : Kind::Diagnostics;
    State& s = states_[req.session];
    const std::string uri = uri_of(req.session);
    switch (req.kind) {
      case Kind::Doc: {
        const std::string from = "\"edit cursor " + std::to_string(s.cursor);
        const std::string to = "\"edit cursor " + std::to_string(++s.cursor);
        replace_first(s.text, from, to);
        break;
      }
      case Kind::Guard:
        replace_first(s.text,
                      s.swapped ? "if gc2 then\n    send probe.tick"
                                : "if gc1 then\n    send probe.tick",
                      s.swapped ? "if gc1 then\n    send probe.tick"
                                : "if gc2 then\n    send probe.tick");
        s.swapped = !s.swapped;
        break;
      case Kind::Struct:
        if (s.structural++ % 2 == 0) {
          replace_first(s.text, s.renamed ? "probe.knock" : "probe.tock",
                        s.renamed ? "probe.tock" : "probe.knock");
          replace_first(s.text, s.renamed ? "accept knock" : "accept tock",
                        s.renamed ? "accept tock" : "accept knock");
          s.renamed = !s.renamed;
        } else if (!s.inserted) {
          replace_first(s.text, "begin\n  \"edit cursor",
                        "begin\n  send probe.extra;\n  \"edit cursor");
          replace_first(s.text, "  accept tick;",
                        "  accept extra;\n  accept tick;");
          s.inserted = true;
        } else {
          replace_first(s.text, "  send probe.extra;\n", "");
          replace_first(s.text, "  accept extra;\n", "");
          s.inserted = false;
        }
        break;
      case Kind::Diagnostics:
        req.line = "{\"method\":\"diagnostics\",\"uri\":\"" +
                   lint::json_escape(uri) + "\",\"format\":\"sarif\"}";
        return req;
    }
    req.line = edit_line("edit", uri, s.text);
    return req;
  }

 private:
  struct State {
    std::string text;
    std::size_t cursor = 0;
    std::size_t structural = 0;
    bool swapped = false;
    bool renamed = false;
    bool inserted = false;
  };
  std::vector<State> states_;
  std::mt19937_64 rng_;
};

// What the client reads back from one response.
struct Response {
  bool ok = false;
  std::optional<bool> certified_free;
  bool reused_context = false;
  std::string report;  // diagnostics responses only
};

Response read_response(const std::string& line) {
  Response r;
  const std::optional<obs::json::Value> doc = obs::json::parse(line);
  if (!doc || !doc->is_object()) return r;
  const obs::json::Value* ok = doc->find("ok");
  r.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
  if (const obs::json::Value* v = doc->find("certified_free"); v && v->is_bool())
    r.certified_free = v->as_bool();
  if (const obs::json::Value* v = doc->find("reused_context"); v && v->is_bool())
    r.reused_context = v->as_bool();
  if (const obs::json::Value* v = doc->find("report"); v && v->is_string())
    r.report = v->as_string();
  return r;
}

std::vector<Diagnostic> cold_diagnostics(const std::string& text,
                                         std::optional<bool>* certified) {
  DiagnosticSink sink;
  std::optional<lang::Program> program = lang::parse_program(text, sink);
  if (program) lang::check_program(*program, sink);
  if (!program || sink.has_errors()) return sink.sorted_diagnostics();
  lint::LintResult result =
      lint::run_lint(*program, text, lint::LintOptions{}, sink.diagnostics());
  if (certified != nullptr) *certified = result.certified_free;
  return std::move(result.diagnostics);
}

std::string render_report(const std::string& uri, std::vector<Diagnostic> diags,
                          lint::OutputFormat format) {
  lint::FileDiagnostics file;
  file.path = uri;
  file.diagnostics = std::move(diags);
  return lint::render(format, {&file, 1});
}

// One session of the decomposed edit pipeline: the lint engine with its
// cache (what the server runs), plus a shadow sync graph and analysis
// context that the benchmark diffs and refreshes itself so the incremental
// layers get their own spans.
struct TracedSession {
  lint::LintCache cache;
  std::unique_ptr<sg::SyncGraph> graph;
  std::unique_ptr<core::AnalysisContext> ctx;
  std::vector<Diagnostic> published;
};

// LintServer::handle_line for open/edit/diagnostics, decomposed into layer
// calls under spans. Returns the published report (json) after an edit,
// or the SARIF report of a diagnostics request.
std::string traced_request(const std::string& line, TracedSession& session,
                           TraceLog& log, std::optional<bool>* certified) {
  obs::Span root(log.sink(), "edit.op");
  std::optional<obs::json::Value> doc;
  std::string method;
  std::string uri;
  std::string text;
  {
    obs::Span span(log.sink(), "server.frame");
    std::string error;
    doc = server::jsonl::parse_request(line, &error);
    if (!doc) return {};
    method = server::jsonl::method(*doc);
    if (const obs::json::Value* v = doc->find("uri"); v && v->is_string())
      uri = v->as_string();
    if (const obs::json::Value* v = doc->find("text"); v && v->is_string())
      text = v->as_string();
  }
  if (method == "diagnostics") {
    obs::Span span(log.sink(), "lint.render");
    return render_report(uri, session.published, lint::OutputFormat::Sarif);
  }
  DiagnosticSink sink;
  std::optional<lang::Program> program;
  {
    obs::Span span(log.sink(), "lang.parse");
    program = lang::parse_program(text, sink);
    if (program) lang::check_program(*program, sink);
  }
  log.sample("lang.bytes", static_cast<double>(text.size()));
  if (!program || sink.has_errors()) {
    session.published = sink.sorted_diagnostics();
  } else {
    auto fresh = std::make_unique<sg::SyncGraph>([&] {
      obs::Span span(log.sink(), "syncgraph.build");
      return sg::build_sync_graph(*program);
    }());
    log.sample("syncgraph.sync_nodes",
               static_cast<double>(fresh->node_count()));
    std::optional<sg::GraphEdits> edits;
    if (session.graph) {
      obs::Span span(log.sink(), "syncgraph.diff");
      edits = sg::diff_graphs(*session.graph, *fresh);
    }
    if (edits) {
      obs::Span span(log.sink(), "core.refresh");
      session.ctx->refresh(*fresh, *edits);
    } else {
      obs::Span span(log.sink(), "core.context");
      session.ctx = std::make_unique<core::AnalysisContext>(*fresh);
    }
    session.graph = std::move(fresh);
    {
      obs::Span span(log.sink(), "dataflow.guard");
      log.sample("dataflow.infeasible_nodes",
                 static_cast<double>(
                     session.ctx->guard_feasibility().infeasible_count()));
    }
    obs::Span span(log.sink(), "lint.run");
    lint::LintResult result = lint::run_lint(
        *program, text, lint::LintOptions{}, sink.diagnostics(), &session.cache);
    *certified = result.certified_free;
    session.published = std::move(result.diagnostics);
  }
  log.sample("lint.diagnostics", static_cast<double>(session.published.size()));
  obs::Span span(log.sink(), "lint.render");
  return render_report(uri, session.published, lint::OutputFormat::Json);
}

}  // namespace

std::string cold_lint_report(const std::string& uri, const std::string& text) {
  return render_report(uri, cold_diagnostics(text, nullptr),
                       lint::OutputFormat::Json);
}

std::string server_report(server::LintServer& server, const std::string& uri) {
  return read_response(server.handle_line("{\"method\":\"diagnostics\",\"uri\":\"" +
                                          lint::json_escape(uri) +
                                          "\",\"format\":\"json\"}"))
      .report;
}

std::uint64_t edit_stream_digest(const InputSet& sessions, std::uint64_t seed,
                                 std::size_t steps) {
  EditStream stream(sessions, seed);
  std::uint64_t h = fnv1a("");
  for (std::size_t i = 0; i < steps; ++i) h = fnv1a(stream.next().line, h);
  return h;
}

RunResult run_edit(const RunConfig& config, const InputSet& inputs) {
  RunResult result;
  const std::vector<InputItem>& sessions = inputs.items;
  // setup_s: a fresh process starts a server and opens every session,
  // sampled between timing blocks.
  ColdRunner setup_runner([&] {
    server::LintServer fresh;
    bool ok = true;
    for (std::size_t i = 0; i < sessions.size(); ++i)
      ok &= read_response(fresh.handle_line(
                              edit_line("open", uri_of(i), sessions[i].text)))
                .ok;
    return ok;
  });
  VerdictTally tally;
  auto gate_verdict = [&](std::size_t session, const Response& r) {
    if (!r.certified_free.has_value()) {
      ++result.failed;
      result.fail("no detector verdict for " + sessions[session].file);
      return;
    }
    verdict_gate(sessions[session], *r.certified_free, tally, result);
  };

  // The server that serves the stream, started with the sessions' open
  // requests (untimed here: setup_s times them in fresh processes).
  obs::MetricsSink counters;
  const obs::SinkRef server_metrics =
      config.trace ? obs::SinkRef{&counters}.counters_only() : obs::SinkRef{};
  const auto server = std::make_unique<server::LintServer>(
      lint::LintOptions{}, server_metrics);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const std::string response =
        server->handle_line(edit_line("open", uri_of(i), sessions[i].text));
    ++result.attempted;
    const Response parsed = read_response(response);
    if (!parsed.ok) {
      ++result.failed;
      result.fail("open failed: " + response.substr(0, 200));
    } else {
      gate_verdict(i, parsed);
    }
  }

  struct Sample {
    std::size_t session;
    std::string text;
    std::string report;
    lint::OutputFormat format;
  };
  std::vector<Sample> samples;
  std::size_t sarif_samples = 0;
  std::size_t json_samples = 0;

  EditStream stream(inputs, config.seed);
  Timing timing;
  timing.block_samples = kBlockRequests;
  std::map<std::string, std::pair<double, std::uint64_t>> by_kind;
  std::uint64_t edits = 0;
  std::uint64_t reused = 0;
  const double untraced_s =
      config.trace ? config.seconds * kTraceUntracedShare : config.seconds;
  const auto loop_end =
      Clock::now() + std::chrono::duration<double>(untraced_s);
  while (Clock::now() < loop_end) {
    if (timing.latency_ms.size() % kBlockRequests == 0) {
      pin_to_fastest_cpu();
      if (timing.latency_ms.size() % (kBlockRequests * kSetupEvery) == 0)
        setup_runner.sample(result, "an open request failed in a fresh server");
    }
    const Request req = stream.next();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const std::string response = server->handle_line(req.line);
    const auto t1 = Clock::now();
    const double s = seconds_between(t0, t1);
    timing.record(s, cpu_seconds() - cpu0);
    ++result.attempted;
    auto& kind = by_kind[kind_metric(req.kind)];
    kind.first += s * 1e6;
    ++kind.second;

    const Response r = read_response(response);
    if (!r.ok) {
      ++result.failed;
      result.fail("request failed: " + response.substr(0, 200));
      continue;
    }
    if (req.kind == Kind::Diagnostics) {
      if (sarif_samples < kSarifChecks) {
        ++sarif_samples;
        samples.push_back({req.session, stream.text(req.session), r.report,
                           lint::OutputFormat::Sarif});
      }
      continue;
    }
    ++edits;
    if (r.reused_context) ++reused;
    gate_verdict(req.session, r);
    if (edits % kJsonCheckEvery == 0 && json_samples < kJsonChecks) {
      ++json_samples;
      samples.push_back({req.session, stream.text(req.session),
                         server_report(*server, uri_of(req.session)),
                         lint::OutputFormat::Json});
    }
  }
  timing.setup_s = setup_runner.median_seconds();
  timing.peak_rss_mb = peak_rss_mb_self();
  result.note("setup_samples", std::to_string(setup_runner.sample_count()));

  // Published reports against a cold lint of the same text.
  for (const Sample& sample : samples) {
    const std::string uri = uri_of(sample.session);
    identity_gate("edit report of " + uri,
                  render_report(uri, cold_diagnostics(sample.text, nullptr),
                                sample.format),
                  sample.report, result);
  }
  result.note("reports_checked", std::to_string(samples.size()));
  result.note("known_deadlock", std::to_string(tally.known_deadlock));
  result.note("known_free", std::to_string(tally.known_free));
  result.note("unsettled", std::to_string(tally.unsettled));

  if (!config.trace) {
    add_end_to_end(result, timing, tally.certified_clean_share());
    return result;
  }

  TraceLog log;
  for (const auto& [name, total] : by_kind)
    log.sample(name, total.first / static_cast<double>(total.second));
  log.sample("server.context_reuse_share",
             edits == 0 ? 0.0
                        : static_cast<double>(reused) /
                              static_cast<double>(edits));
  const double hits =
      static_cast<double>(counters.total("lint.cache.certify_hits"));
  const double misses =
      static_cast<double>(counters.total("lint.cache.certify_misses"));
  log.sample("server.certify_hit_share",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);

  // Traced phase: a fresh server and the decomposed pipeline take the same
  // continuing stream in lockstep; every decomposed report and verdict must
  // equal the server's.
  server::LintServer reference;
  std::vector<TracedSession> traced(sessions.size());
  auto lockstep = [&](std::size_t session, const std::string& line,
                      bool diagnostics) {
    std::optional<bool> certified;
    const std::string mine = traced_request(line, traced[session], log,
                                            &certified);
    const Response theirs = read_response(reference.handle_line(line));
    ++result.attempted;
    const std::string uri = uri_of(session);
    const std::string expected =
        diagnostics ? theirs.report : server_report(reference, uri);
    identity_gate("decomposed edit report of " + uri, expected, mine, result);
    if (diagnostics) return;
    gate_verdict(session, theirs);
    if (certified != theirs.certified_free) {
      ++result.failed;
      result.fail("decomposed verdict differs for " + uri);
    }
  };
  for (std::size_t i = 0; i < sessions.size(); ++i)
    lockstep(i, edit_line("open", uri_of(i), stream.text(i)), false);
  const auto trace_end =
      Clock::now() + std::chrono::duration<double>(config.seconds - untraced_s);
  std::size_t traced_ops = 0;
  while (Clock::now() < trace_end) {
    const Request req = stream.next();
    lockstep(req.session, req.line, req.kind == Kind::Diagnostics);
    if (++traced_ops % 64 == 0) log.flush();
  }
  log.flush();
  const double untraced_tp = timing.mean_throughput();
  const double traced_tp =
      static_cast<double>(log.operations()) / (log.operation_us() * 1e-6);
  log.sample("trace.overhead_share", traced_tp / untraced_tp);
  add_layer_metrics(log, result);
  return result;
}

}  // namespace perfbench
