// churn_4k: the incremental path. A StreamSession on the 4000-AS world of
// seed 42 is fed a churn feed generated from --seed in a closed loop; every
// kBatch events the epoch ends exactly as `asrel_serve --stream-events`
// ends it: StreamSession::publish, the flat epoch file written with the
// crash-safe protocol, and EngineHub::publish.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/parallel.hpp"
#include "io/flat_snapshot.hpp"
#include "io/snapshot.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "serve/engine_hub.hpp"
#include "stream/churn.hpp"
#include "stream/session.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kAsCount = 4000;
constexpr std::uint64_t kWorldSeed = 42;
constexpr int kBootstraps = 3;
/// A round: kEpochs epochs of kBatch events. 100 events leave ten beyond
/// the p90 of event-to-served latency.
constexpr std::size_t kBatch = 25;
constexpr std::size_t kEpochs = 4;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

}  // namespace

Outcome run_churn(const Options& options) {
  Outcome outcome;
  core::ScenarioParams params;
  params.topology.as_count = kAsCount;
  params.topology.seed = kWorldSeed;
  params.threads = options.threads;

  // ---- set-up: session bootstrap and the hub serving epoch 1 ----
  std::vector<double> setup_s;
  std::unique_ptr<stream::StreamSession> session;
  std::unique_ptr<serve::EngineHub> hub;
  for (int i = 0; i < kBootstraps; ++i) {
    hub.reset();
    session.reset();
    const auto began = Clock::now();
    {
      obs::TraceSpan span{"bench.stream.bootstrap"};
      session = std::make_unique<stream::StreamSession>(params);
      hub = std::make_unique<serve::EngineHub>(
          std::make_shared<const serve::QueryEngine>(
              io::Snapshot{session->snapshot()}));
    }
    setup_s.push_back(seconds_between(began, Clock::now()));
  }

  // The feed is generated from --seed; the session only receives events.
  const std::size_t round_events = kBatch * kEpochs;
  std::vector<stream::ChurnEvent> feed =
      stream::generate_churn(session->world(), options.seed, round_events);

  // ---- measured: closed-loop feed, one epoch per kBatch events ----
  const PoolUse pool{PoolCounters::read()};
  const stream::StreamSession::Stats stats_before = session->stats();
  std::vector<double> event_to_served_ms;
  std::vector<double> epoch_ms;
  std::vector<std::string> epoch_files;
  std::uint64_t published = 0;
  std::size_t fed = 0;
  const std::uint64_t began_us = trace_now_us();
  const auto began = Clock::now();
  Clock::time_point last_served = began;
  const auto deadline =
      began + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  do {
    if (fed == feed.size()) {
      // Whole rounds only: the next round continues the seeded feed.
      const auto more = stream::generate_churn(
          session->world(), options.seed + feed.size(), round_events);
      feed.insert(feed.end(), more.begin(), more.end());
    }
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      std::vector<Clock::time_point> applied_at;
      for (std::size_t i = 0; i < kBatch; ++i, ++fed) {
        applied_at.push_back(Clock::now());
        ++outcome.attempted;
        try {
          session->apply(feed[fed]);
        } catch (const std::exception& error) {
          ++outcome.failed;
          std::fprintf(stderr, "perfbench: apply failed: %s\n", error.what());
        }
      }
      ++outcome.attempted;
      const auto epoch_began = Clock::now();
      const io::Snapshot& snapshot = session->publish(published + 2);
      const std::string path = options.out_dir + "/churn_4k.epoch-" +
                               std::to_string(published + 2) + ".flat";
      std::string error;
      bool saved = false;
      {
        obs::TraceSpan span{"bench.io.save_flat_snapshot_file"};
        saved = io::save_flat_snapshot_file(snapshot, path, &error);
      }
      serve::EngineHub::ReloadResult swapped;
      {
        obs::TraceSpan span{"bench.serve.hub_publish"};
        swapped = hub->publish(io::Snapshot{snapshot});
      }
      last_served = Clock::now();
      ++published;
      epoch_files.push_back(path);
      if (!saved || !swapped.ok) {
        ++outcome.failed;
        std::fprintf(stderr, "perfbench: epoch %llu not served: %s%s\n",
                     static_cast<unsigned long long>(published + 1),
                     error.c_str(), swapped.error.c_str());
      }
      epoch_ms.push_back(seconds_between(epoch_began, last_served) * 1e3);
      for (const auto& at : applied_at) {
        event_to_served_ms.push_back(seconds_between(at, last_served) * 1e3);
      }
    }
  } while (Clock::now() < deadline);
  const std::uint64_t done_us = trace_now_us();
  const double wall_s = seconds_between(began, last_served);
  const stream::StreamSession::Stats stats_after = session->stats();
  // Read before the checks: the reference rebuild below holds a second
  // copy of the pipeline's state beside the session's.
  const double peak_rss = peak_rss_mb();

  // ---- output checks ----
  for (const auto& path : epoch_files) {
    std::string error;
    const auto view = io::FlatView::open_file(path, &error, /*deep_verify=*/true);
    outcome.check(view != nullptr, "epoch file " + path + " deep-verifies: " + error);
  }
  {
    const io::Snapshot reference =
        session->reference_snapshot(session->snapshot().meta.built_unix_ms);
    outcome.check(io::to_snapshot_bytes(session->snapshot()) ==
                      io::to_snapshot_bytes(reference),
                  "final epoch equals the from-scratch reference");
    outcome.check(read_file(epoch_files.back()) ==
                      io::to_flat_snapshot_bytes(reference),
                  "final epoch file equals the reference's flat image");
  }
  outcome.check(hub->epoch() == published + 1 &&
                    session->epoch() == published + 1,
                "hub epoch is the published epochs plus one");
  for (const auto& path : epoch_files) std::remove(path.c_str());

  outcome.e2e("setup_s", median(setup_s), "s");
  outcome.e2e("throughput_per_s", static_cast<double>(fed) / wall_s, "1/s");
  outcome.e2e("latency_p50_ms", quantile(event_to_served_ms, 0.5), "ms");
  outcome.e2e("latency_tail_ms", quantile(event_to_served_ms, 0.9), "ms");
  outcome.e2e("refresh_p50_ms", median(epoch_ms), "ms");
  outcome.e2e("peak_rss_mb", peak_rss, "MiB");

  outcome.note("as_count", kAsCount);
  outcome.note("world_seed", static_cast<double>(kWorldSeed));
  outcome.note("churn_seed", static_cast<double>(options.seed));
  outcome.note("events", static_cast<double>(fed));
  outcome.note("epochs", static_cast<double>(published));
  outcome.note("epoch_batch", static_cast<double>(kBatch));
  outcome.note("events_applied", static_cast<double>(stats_after.events_applied -
                                                    stats_before.events_applied));
  outcome.note("events_per_s", static_cast<double>(fed) / wall_s);
  outcome.note("epoch_p50_ms", median(epoch_ms));
  outcome.note("event_to_served_p50_ms", quantile(event_to_served_ms, 0.5));
  outcome.note("event_to_served_p90_ms", quantile(event_to_served_ms, 0.9));

  if (options.trace) {
    const SpanIndex index{obs::Tracer::instance().collect()};
    const std::vector<Window> run{{began_us, done_us}};
    const double events = static_cast<double>(fed);
    const double epochs = static_cast<double>(published);
    const auto per_epoch = [&](const char* name) {
      return index.total_ms(name, &run) / epochs;
    };
    outcome.layer("stream.apply_ms", index.total_ms("stream.apply", &run) / events,
                  "ms");
    outcome.layer("stream.reconverge_ms",
                  index.total_ms("stream.reconverge", &run) / events, "ms");
    outcome.layer("stream.origins_redone",
                  static_cast<double>(stats_after.origins_redone -
                                      stats_before.origins_redone),
                  "count");
    // Origins the rib_affected scan looked at: every origin per touching
    // event, less those the cone prefilter excluded before the scan.
    const auto considered = (stats_after.origins_redone +
                             stats_after.origins_skipped) -
                            (stats_before.origins_redone +
                             stats_before.origins_skipped);
    const auto cone = stats_after.origins_skipped_cone -
                      stats_before.origins_skipped_cone;
    outcome.layer("stream.origins_scanned",
                  static_cast<double>(considered - cone), "count");
    outcome.layer("stream.publish_ms", per_epoch("stream.publish"), "ms");
    outcome.layer("infer.sanitize_ms", per_epoch("pipeline.sanitize"), "ms");
    outcome.layer("validation.extract_ms",
                  per_epoch("validation.extract_communities"), "ms");
    outcome.layer("infer.asrank_ms", per_epoch("infer.asrank"), "ms");
    outcome.layer("infer.problink_ms", per_epoch("infer.problink"), "ms");
    outcome.layer("infer.toposcope_ms", per_epoch("infer.toposcope"), "ms");
    outcome.layer("io.flat_save_ms",
                  per_epoch("bench.io.save_flat_snapshot_file"), "ms");
    outcome.layer("serve.hub_publish_ms", per_epoch("bench.serve.hub_publish"),
                  "ms");
    // Publish attribution. The snapshot sections run after the last
    // Scenario::from_parts stage (pipeline.regions); their cost is that
    // tail less the inference stages inside it. Uncovered time is publish
    // time that no child span covers at all.
    double sections = 0;
    double uncovered = 0;
    for (const std::size_t p : index.named("stream.publish", &run)) {
      uncovered += index.self_ms(p);
      const auto& publish = index.spans()[p];
      std::uint64_t tail_from = publish.start_us;
      std::uint64_t inner_us = 0;
      for (const std::size_t c : index.children(p)) {
        const auto& child = index.spans()[c];
        if (child.name == "pipeline.regions") {
          tail_from = child.start_us + child.dur_us;
          inner_us = 0;
        } else if (child.start_us >= tail_from) {
          inner_us += child.dur_us;
        }
      }
      const std::uint64_t tail_us =
          publish.start_us + publish.dur_us - tail_from;
      sections += static_cast<double>(tail_us - std::min(tail_us, inner_us)) / 1e3;
    }
    outcome.layer("core.snapshot_sections_ms", sections / epochs, "ms");
    outcome.layer("stream.publish_uncovered_ms", uncovered / epochs, "ms");
    pool.report(index, run,
                core::ThreadPool::effective_threads(options.threads), outcome);
    finish_trace(options, index, outcome);
  }
  return outcome;
}

}  // namespace perfbench
