#include "trace.h"

#include <vector>

namespace perfbench {

TraceLog::TraceLog() : sink_(std::make_unique<siwa::obs::MetricsSink>(1)) {}

void TraceLog::flush() {
  const std::vector<siwa::obs::SpanRecord> spans = sink_->spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const siwa::obs::SpanRecord& span : spans)
    if (span.parent >= 0)
      child_us[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.dur_us);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].dur_us);
    if (spans[i].parent < 0) {
      ++roots_;
      root_us_ += dur;
      covered_us_ += child_us[i];
    }
    Layer& layer = layers_[spans[i].name];
    ++layer.calls;
    layer.total_us += dur;
    layer.self_us += dur - child_us[i];
  }
  sink_ = std::make_unique<siwa::obs::MetricsSink>(1);
}

void TraceLog::sample(std::string_view name, double value) {
  auto it = samples_.find(name);
  if (it == samples_.end())
    it = samples_.emplace(std::string(name), std::make_pair(0.0, 0ull)).first;
  it->second.first += value;
  ++it->second.second;
}

const TraceLog::Layer& TraceLog::layer(const std::string& name) const {
  static const Layer kNone;
  const auto it = layers_.find(name);
  return it == layers_.end() ? kNone : it->second;
}

double TraceLog::self_us_per_call(const std::string& name) const {
  const Layer& l = layer(name);
  return l.calls == 0 ? 0.0 : l.self_us / static_cast<double>(l.calls);
}

double TraceLog::mean(const std::string& name) const {
  const auto it = samples_.find(name);
  if (it == samples_.end() || it->second.second == 0) return 0.0;
  return it->second.first / static_cast<double>(it->second.second);
}

double TraceLog::sum(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : it->second.first;
}

double TraceLog::coverage_share() const {
  return root_us_ > 0 ? covered_us_ / root_us_ : 0.0;
}

void add_layer_metrics(const TraceLog& log, RunResult& result) {
  // Self time per call of each layer span.
  const char* const self_times[] = {
      "lang.parse",       "transform.unroll", "syncgraph.build",
      "syncgraph.sg_parse", "syncgraph.validate", "syncgraph.clg",
      "syncgraph.diff",   "core.context",     "core.refresh",
      "dataflow.guard",   "core.precedence",  "core.coexec",
      "core.enumerate",   "core.sweep",       "stall.balance",
      "lint.run",         "lint.render",      "farm.render",
  };
  for (const char* layer : self_times)
    result.add(std::string(layer) + "_us", log.self_us_per_call(layer), "us");

  // Throughput of the byte-parsing layers: bytes over summed self time.
  auto rate = [&](const char* bytes, const char* layer) {
    const double us = log.layer(layer).self_us;
    return us > 0 ? log.sum(bytes) / us : 0.0;  // bytes/us == MB/s
  };
  result.add("lang.parse_mb_s", rate("lang.bytes", "lang.parse"), "MB/s");
  result.add("syncgraph.sg_parse_mb_s",
             rate("syncgraph.sg_bytes", "syncgraph.sg_parse"), "MB/s");
  const double sweep_ms = log.layer("core.sweep").self_us / 1000.0;
  result.add("core.hypotheses_per_ms",
             sweep_ms > 0 ? log.sum("core.hypotheses_tested") / sweep_ms : 0.0,
             "1/ms");

  // Running means of layer quantities, recorded where the work happens.
  const std::pair<const char*, const char*> means[] = {
      {"transform.unroll_growth", "ratio"},
      {"syncgraph.sync_nodes", "count"},
      {"syncgraph.clg_nodes", "count"},
      {"syncgraph.clg_edges", "count"},
      {"dataflow.infeasible_nodes", "count"},
      {"core.hypotheses", "count"},
      {"core.first_hit_index_share", "ratio"},
      {"core.sweep_bound_ratio", "us"},
      {"core.sweep_bound_ratio.n96", "us"},
      {"core.sweep_bound_ratio.n192", "us"},
      {"core.sweep_bound_ratio.n384", "us"},
      {"core.precedence_us.n96", "us"},
      {"core.precedence_us.n192", "us"},
      {"core.precedence_us.n384", "us"},
      {"lint.diagnostics", "count"},
      {"server.edit_doc_us", "us"},
      {"server.edit_guard_us", "us"},
      {"server.edit_struct_us", "us"},
      {"server.diagnostics_us", "us"},
      {"server.context_reuse_share", "ratio"},
      {"server.certify_hit_share", "ratio"},
      {"farm.job_us", "us"},
      {"farm.worker_busy_share", "ratio"},
      {"farm.steals", "count"},
      {"farm.retries", "count"},
      {"farm.spawn_ms", "ms"},
      {"farm.subprocess_jobs_s", "1/s"},
      {"trace.overhead_share", "ratio"},
  };
  for (const auto& [name, unit] : means) result.add(name, log.mean(name), unit);
  result.add("trace.coverage_share", log.coverage_share(), "ratio");
}

}  // namespace perfbench
