// asrel_perfbench: one benchmark for the three paths of the system.
//
//   asrel_perfbench --workload reproduce_12k|churn_4k|serve_4k --seed N
//                   --seconds S --trace 0|1 [--threads T] [--out-dir DIR]
//
// Untraced runs print every end-to-end metric; traced runs print every
// per-layer metric and write a Chrome trace plus a per-span self-time
// table into --out-dir. Either way the last line of standard output is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// and a run record (host, build, sizes, seeds) is printed just before it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/parallel.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: asrel_perfbench --workload "
               "reproduce_12k|churn_4k|serve_4k --seed N --seconds S "
               "--trace 0|1 [--threads T] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = static_cast<unsigned>(std::atoi(value.c_str()));
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (options.seconds <= 0) usage("--seconds must be positive");
  return options;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& metric : metrics) {
    if (out.size() > 1) out += ",";
    out += quoted(metric.name) + ":{\"value\":" + number(metric.value) +
           ",\"unit\":" + quoted(metric.unit) + "}";
  }
  return out + "}";
}

/// Orders the workload's metrics by the declared list; a per-layer metric
/// the workload did not exercise reads 0.
std::vector<Metric> declared(const Options& options, const Outcome& outcome) {
  std::vector<Metric> out;
  const auto find = [](const std::vector<Metric>& list, const char* name) {
    for (const auto& metric : list) {
      if (metric.name == name) return &metric;
    }
    return static_cast<const Metric*>(nullptr);
  };
  if (options.trace) {
    for (const auto& spec : kPerLayer) {
      const Metric* found = find(outcome.per_layer, spec.name);
      out.push_back(found != nullptr ? *found
                                     : Metric{spec.name, 0.0, spec.unit});
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* found = find(outcome.end_to_end, name);
      if (found == nullptr) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n", name);
        std::exit(3);
      }
      out.push_back(*found);
    }
  }
  return out;
}

std::string record_json(const Options& options, const Outcome& outcome) {
  std::string out = "{\"workload\":" + quoted(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "true" : "false") +
                    ",\"hardware_threads\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"pipeline_threads\":" +
                    std::to_string(asrel::core::ThreadPool::effective_threads(
                        options.threads)) +
                    ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
                    ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
                    ",\"cxx_flags\":" + quoted(PERFBENCH_CXX_FLAGS);
  for (const auto& [key, value] : outcome.record) {
    out += ',';
    out += quoted(key);
    out += ':';
    out += value;
  }
  return out + "}";
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << body;
  if (!out) std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Register the pool (and its counters) before anything is measured.
  (void)asrel::core::ThreadPool::shared();
  auto& tracer = asrel::obs::Tracer::instance();
  if (options.trace) {
    tracer.set_capacity_per_thread(std::size_t{1} << 21);
    tracer.set_enabled(true);
  }

  Outcome outcome;
  try {
    if (options.workload == "reproduce_12k") {
      outcome = run_reproduce(options);
    } else if (options.workload == "churn_4k") {
      outcome = run_churn(options);
    } else if (options.workload == "serve_4k") {
      outcome = run_serve(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  if (options.trace) {
    tracer.set_enabled(false);
    const std::string base = options.out_dir + "/" + options.workload;
    std::string error;
    if (!tracer.write_chrome_trace(base + ".trace.json", &error)) {
      std::fprintf(stderr, "perfbench: trace not written: %s\n", error.c_str());
    }
  }
  const std::string record = record_json(options, outcome);
  write_file(options.out_dir + "/" + options.workload +
                 (options.trace ? ".traced" : "") + ".record.json",
             record + "\n");
  std::printf("record %s\n", record.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(declared(options, outcome)).c_str());
  return 0;
}
