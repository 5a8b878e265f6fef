// Per-layer accounting for the traced run.
//
// The decomposed pipelines (pipeline.h) open one obs::Span per operation
// (the root) and one per layer call beneath it, all from the benchmark's
// own files. TraceLog owns the MetricsSink the spans go to, folds closed
// spans into per-name totals and self times (a span's duration minus what
// its child spans cover), and keeps the non-time layer quantities (node
// counts, hypotheses, growth ratios) as running means. Spans record whole
// microseconds (obs::SpanRecord), so a layer call shorter than ~10 us
// carries up to ~10% truncation error; the README says which layers that
// affects.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common.h"
#include "obs/metrics.h"

namespace perfbench {

class TraceLog {
 public:
  struct Layer {
    std::uint64_t calls = 0;
    double total_us = 0;
    double self_us = 0;
  };

  TraceLog();

  [[nodiscard]] siwa::obs::MetricsSink* sink() { return sink_.get(); }

  // Folds every closed span into the totals and starts a fresh sink, which
  // keeps memory flat over a long run. Call between operations only.
  void flush();

  // Running mean of a non-time layer quantity.
  void sample(std::string_view name, double value);

  [[nodiscard]] const Layer& layer(const std::string& name) const;
  [[nodiscard]] double self_us_per_call(const std::string& name) const;
  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double sum(const std::string& name) const;
  [[nodiscard]] std::uint64_t operations() const { return roots_; }
  // Wall time of all operation (root) spans, in microseconds.
  [[nodiscard]] double operation_us() const { return root_us_; }
  // Share of operation wall time covered by layer spans.
  [[nodiscard]] double coverage_share() const;

 private:
  std::unique_ptr<siwa::obs::MetricsSink> sink_;
  std::map<std::string, Layer, std::less<>> layers_;
  std::map<std::string, std::pair<double, std::uint64_t>, std::less<>> samples_;
  std::uint64_t roots_ = 0;
  double root_us_ = 0;
  double covered_us_ = 0;
};

// Appends every per-layer metric of the benchmark to `result`, in a fixed
// order and with its unit. Layers a workload does not exercise read 0.
void add_layer_metrics(const TraceLog& log, RunResult& result);

}  // namespace perfbench
