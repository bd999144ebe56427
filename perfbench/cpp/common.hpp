// Shared plumbing of the benchmark: clocks, sample statistics, the result
// every workload hands back, and the host/build record.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank quantile over raw samples (q in [0, 1]).
template <typename T>
double quantile(std::vector<T> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[std::min(rank, samples.size() - 1)]);
}
template <typename T>
double median(std::vector<T> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// Resident set size of this process now, in MiB.
double resident_mb();

/// splitmix64: the benchmark's only source of randomness, keyed by --seed.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 0;  ///< pipeline worker count; 0 = hardware threads
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back. `attempted`/`failed` count operations; a
/// failed output check is a failed operation and also clears `correct`.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  ///< printed by untraced runs
  std::vector<Metric> per_layer;   ///< printed by traced runs
  /// Workload-specific facts for the run record (sizes, seeds, figures
  /// under their own names), as "key": JSON-value pairs.
  std::vector<std::pair<std::string, std::string>> record;

  /// One checked output: counts an operation, and a failure.
  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, const std::string& json_value) {
    record.emplace_back(std::move(key), json_value);
  }
  void note(std::string key, double value);
};

/// Shortest round-trip decimal form of a double (all its digits).
std::string number(double value);
std::string quoted(const std::string& text);

/// The end-to-end metric names every workload reports, in order.
inline constexpr const char* kEndToEnd[] = {
    "setup_s",        "throughput_per_s", "latency_p50_ms",
    "latency_tail_ms", "refresh_p50_ms",  "peak_rss_mb"};

Outcome run_reproduce(const Options& options);
Outcome run_churn(const Options& options);
Outcome run_serve(const Options& options);

}  // namespace perfbench
