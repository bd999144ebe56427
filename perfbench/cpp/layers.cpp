#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <numeric>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNone = ~std::size_t{0};

std::uint64_t end_of(const asrel::obs::SpanRecord& span) {
  return span.start_us + span.dur_us;
}

}  // namespace

SpanIndex::SpanIndex(std::vector<asrel::obs::SpanRecord> spans)
    : spans_(std::move(spans)),
      parent_(spans_.size(), kNone),
      child_us_(spans_.size(), 0) {
  // Per thread, in start order (parents before the children they enclose,
  // which may start in the same microsecond), the open span at each depth
  // is the parent of the next span one level deeper.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const auto& a = spans_[x];
    const auto& b = spans_[y];
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.depth < b.depth;
  });
  std::vector<std::size_t> open;
  std::uint32_t tid = ~0u;
  for (const std::size_t i : order) {
    const auto& span = spans_[i];
    if (span.tid != tid) {
      open.clear();
      tid = span.tid;
    }
    if (open.size() <= span.depth) open.resize(span.depth + 1, kNone);
    if (span.depth > 0) {
      const std::size_t candidate = open[span.depth - 1];
      // Microsecond stamps are truncated, so allow one tick of slack.
      if (candidate != kNone &&
          end_of(span) <= end_of(spans_[candidate]) + 1) {
        parent_[i] = candidate;
        child_us_[candidate] += span.dur_us;
      }
    }
    open[span.depth] = i;
  }
}

std::vector<std::size_t> SpanIndex::named(
    std::string_view name, const std::vector<Window>* within) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (within != nullptr && !inside(spans_[i], *within)) continue;
    out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].start_us < spans_[b].start_us;
  });
  return out;
}

double SpanIndex::total_ms(std::string_view name,
                           const std::vector<Window>* within) const {
  std::uint64_t us = 0;
  for (const std::size_t i : named(name, within)) us += spans_[i].dur_us;
  return static_cast<double>(us) / 1e3;
}

double SpanIndex::prefix_total_ms(std::string_view prefix,
                                  const std::vector<Window>* within) const {
  std::uint64_t us = 0;
  for (const auto& span : spans_) {
    if (!span.name.starts_with(prefix)) continue;
    if (within != nullptr && !inside(span, *within)) continue;
    us += span.dur_us;
  }
  return static_cast<double>(us) / 1e3;
}

double SpanIndex::self_ms(std::size_t span) const {
  const std::uint64_t dur = spans_[span].dur_us;
  const std::uint64_t covered = std::min(dur, child_us_[span]);
  return static_cast<double>(dur - covered) / 1e3;
}

std::vector<std::size_t> SpanIndex::children(std::size_t span) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (parent_[i] == span) out.push_back(i);
  }
  std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].start_us < spans_[b].start_us;
  });
  return out;
}

std::string SpanIndex::layer_table_json() const {
  struct Row {
    std::uint64_t count = 0;
    std::uint64_t inclusive_us = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.inclusive_us += spans_[i].dur_us;
    row.self_ms += self_ms(i);
  }
  std::string out = "{";
  for (const auto& [name, row] : rows) {
    if (out.size() > 1) out += ",";
    out += quoted(name) + ":{\"count\":" + std::to_string(row.count) +
           ",\"inclusive_ms\":" +
           number(static_cast<double>(row.inclusive_us) / 1e3) +
           ",\"self_ms\":" + number(row.self_ms) + "}";
  }
  return out + "}";
}

bool inside(const asrel::obs::SpanRecord& span,
            const std::vector<Window>& windows) {
  for (const auto& window : windows) {
    if (span.start_us >= window.begin_us && end_of(span) <= window.end_us + 1) {
      return true;
    }
  }
  return false;
}

PoolCounters PoolCounters::read() {
  auto& registry = asrel::obs::MetricsRegistry::global();
  return {registry.counter("asrel_pool_tasks_total").value(),
          registry.counter("asrel_pool_serial_tasks_total").value()};
}

void PoolUse::report(const SpanIndex& index, const std::vector<Window>& windows,
                     unsigned executors, Outcome& outcome) const {
  const PoolCounters after = PoolCounters::read();
  std::uint64_t wall_us = 0;
  for (const auto& window : windows) wall_us += window.end_us - window.begin_us;
  const double busy_ms = index.prefix_total_ms("pool.drain.", &windows);
  const double capacity_ms =
      static_cast<double>(wall_us) / 1e3 * static_cast<double>(executors);
  outcome.layer("core.pool_tasks",
                static_cast<double>(after.tasks - before.tasks), "count");
  outcome.layer("core.pool_serial_tasks",
                static_cast<double>(after.serial_tasks - before.serial_tasks),
                "count");
  outcome.layer("core.pool_busy_ratio",
                capacity_ms > 0 ? busy_ms / capacity_ms : 0.0, "ratio");
}

void finish_trace(const Options& options, const SpanIndex& index,
                  Outcome& outcome) {
  outcome.layer("trace.spans", static_cast<double>(index.spans().size()),
                "count");
  const std::string path =
      options.out_dir + "/" + options.workload + ".layers.json";
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << index.layer_table_json() << "\n";
}

std::uint64_t trace_now_us() { return asrel::obs::Tracer::instance().now_us(); }

}  // namespace perfbench
