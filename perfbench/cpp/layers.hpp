// Per-layer accounting for traced runs.
//
// A traced run records two kinds of spans into the program's own tracer:
// the benchmark's "bench.*" spans around each public call it makes, and the
// spans the program already records inside calls the benchmark cannot
// split (pipeline.*, validation.*, infer.*, stream.*, "http <route>",
// pool.drain.*). SpanIndex nests them per thread and derives each span's
// self time: its duration minus the part its direct children cover.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order. A workload on which a layer
/// does no work reports it as 0.
inline constexpr LayerMetricSpec kPerLayer[] = {
    {"topology.generate_ms", "ms"},
    {"bgp.collect_paths_ms", "ms"},
    {"infer.sanitize_ms", "ms"},
    {"validation.extract_ms", "ms"},
    {"infer.asrank_ms", "ms"},
    {"infer.problink_ms", "ms"},
    {"infer.toposcope_ms", "ms"},
    {"core.bias_audit_ms", "ms"},
    {"eval.render_ms", "ms"},
    {"core.pool_tasks", "count"},
    {"core.pool_serial_tasks", "count"},
    {"core.pool_busy_ratio", "ratio"},
    {"reproduce.uncovered_ms", "ms"},
    {"stream.apply_ms", "ms"},
    {"stream.reconverge_ms", "ms"},
    {"stream.origins_redone", "count"},
    {"stream.origins_scanned", "count"},
    {"stream.publish_ms", "ms"},
    {"core.snapshot_sections_ms", "ms"},
    {"stream.publish_uncovered_ms", "ms"},
    {"core.build_snapshot_ms", "ms"},
    {"io.flat_save_ms", "ms"},
    {"serve.hub_publish_ms", "ms"},
    {"io.flat_open_us", "us"},
    {"serve.hub_reload_us", "us"},
    {"serve.parse_ns", "ns"},
    {"serve.handle_us", "us"},
    {"serve.server_us", "us"},
    {"serve.outside_server_us", "us"},
    {"serve.report_inflate_ms", "ms"},
    {"serve.rel_cache_hit_ratio", "ratio"},
    {"serve.rel_cache_lookups", "count"},
    {"serve.report_cache_hit_ratio", "ratio"},
    {"serve.report_cache_lookups", "count"},
    {"trace.spans", "count"},
};

/// A time interval in tracer microseconds.
struct Window {
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
};

class SpanIndex {
 public:
  explicit SpanIndex(std::vector<asrel::obs::SpanRecord> spans);

  [[nodiscard]] const std::vector<asrel::obs::SpanRecord>& spans() const {
    return spans_;
  }
  /// Indices of the spans called `name`, optionally only those lying
  /// inside one of `within`.
  [[nodiscard]] std::vector<std::size_t> named(
      std::string_view name, const std::vector<Window>* within = nullptr) const;
  /// Summed duration (ms) of the spans called `name`.
  [[nodiscard]] double total_ms(std::string_view name,
                                const std::vector<Window>* within = nullptr) const;
  /// Summed duration (ms) of the spans whose name starts with `prefix`.
  [[nodiscard]] double prefix_total_ms(std::string_view prefix,
                                       const std::vector<Window>* within) const;
  [[nodiscard]] double self_ms(std::size_t span) const;
  /// Direct children of `span`, in start order.
  [[nodiscard]] std::vector<std::size_t> children(std::size_t span) const;

  /// Writes one row per span name: count, inclusive and self milliseconds.
  [[nodiscard]] std::string layer_table_json() const;

 private:
  std::vector<asrel::obs::SpanRecord> spans_;
  std::vector<std::size_t> parent_;      ///< kNone for roots
  std::vector<std::uint64_t> child_us_;  ///< time covered by direct children
};

[[nodiscard]] bool inside(const asrel::obs::SpanRecord& span,
                          const std::vector<Window>& windows);

/// The shared thread pool's task counters (asrel_pool_*_total).
struct PoolCounters {
  std::uint64_t tasks = 0;
  std::uint64_t serial_tasks = 0;
  [[nodiscard]] static PoolCounters read();
};

/// core.pool_* metrics over the windows: tasks run on the pool, tasks run
/// serially, and drain time / (window time x executors).
struct PoolUse {
  PoolCounters before;
  void report(const SpanIndex& index, const std::vector<Window>& windows,
              unsigned executors, Outcome& outcome) const;
};

/// Adds trace.spans and writes the per-span self-time table next to the
/// Chrome trace (<out-dir>/<workload>.layers.json).
void finish_trace(const Options& options, const SpanIndex& index,
                  Outcome& outcome);

/// Current tracer time, for window bounds.
[[nodiscard]] std::uint64_t trace_now_us();

}  // namespace perfbench
