// reproduce_12k: the researcher's path. One cold reproduction of Fig. 1/2
// and Tables 1-3 on the 12 000-AS world of seed --seed.
//
// Set-up generates the world (topo::generate, 25 times, median
// reported): it is the input the reproduction receives. The reproduction
// then runs vantage-point selection, all-origin propagation and path
// collection, the downstream pipeline (sanitize, schemes, community
// extraction, cleaning, regions), the three inferences, BiasAudit and the
// rendered reports, each call wrapped in a bench.* span.
#include <algorithm>
#include <memory>

#include "common.hpp"
#include "core/bias_audit.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "eval/coverage.hpp"
#include "eval/report.hpp"
#include "infer/asrank.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using namespace asrel;

constexpr int kAsCount = 12000;
constexpr int kWorldRepeats = 25;

const eval::CoverageRow* row_named(const eval::CoverageReport& report,
                                   std::string_view name) {
  for (const auto& row : report.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

const eval::ClassMetrics* row_named(const eval::ValidationTable& table,
                                    std::string_view name) {
  for (const auto& row : table.rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// Fig. 1 shape (EXPERIMENTS.md): L° holds a real share of the links at
/// essentially zero coverage, the lowest of every class holding at least
/// 5% of the links, and AR° is covered better than R°. (Minor classes such
/// as AF° can sit at zero coverage too, as in the paper.)
void check_fig1(const eval::CoverageReport& report, Outcome& outcome) {
  constexpr double kMajorShare = 0.05;
  const auto* lacnic = row_named(report, "L°");
  const auto* arin = row_named(report, "AR°");
  const auto* ripe = row_named(report, "R°");
  bool lowest = lacnic != nullptr && lacnic->share >= kMajorShare &&
                lacnic->coverage < 0.01;
  if (lowest) {
    for (const auto& row : report.rows) {
      if (row.share >= kMajorShare && row.coverage < lacnic->coverage) {
        lowest = false;
      }
    }
  }
  outcome.check(lowest, "Fig. 1: L° coverage is the lowest of the major classes");
  outcome.check(arin != nullptr && ripe != nullptr &&
                    arin->coverage > ripe->coverage,
                "Fig. 1: AR° coverage above R°");
}

/// Fig. 2 shape: S-TR and TR° hold most links, and the Tier-1 classes
/// S-T1 and T1-TR are covered several (>= 3) times better than either.
void check_fig2(const eval::CoverageReport& report, Outcome& outcome) {
  const auto* s_tr = row_named(report, "S-TR");
  const auto* tr = row_named(report, "TR°");
  const auto* s_t1 = row_named(report, "S-T1");
  const auto* t1_tr = row_named(report, "T1-TR");
  const bool present = s_tr && tr && s_t1 && t1_tr;
  outcome.check(present && s_tr->share + tr->share > 0.5,
                "Fig. 2: S-TR and TR° hold most links");
  outcome.check(present && std::min(s_t1->coverage, t1_tr->coverage) >
                               3.0 * std::max(s_tr->coverage, tr->coverage),
                "Fig. 2: S-T1 and T1-TR covered >= 3x better than S-TR, TR°");
}

/// Table 1 shape: ASRank's S-T1 peering precision collapses.
void check_table1(const eval::ValidationTable& table, Outcome& outcome) {
  const auto* s_t1 = row_named(table, "S-T1");
  outcome.check(s_t1 != nullptr && s_t1->p2p.ppv() < 0.25 &&
                    table.total.p2p.ppv() > 0.75,
                "Table 1: ASRank S-T1 PPV_P collapses against Total°");
}

/// Properties every inference must have: it labels exactly the observed
/// link set, and its table's Total° row is the confusion matrix of its
/// labels against the cleaned validation labels (P2P positive), counted
/// here without eval::.
void check_inference(const char* algo, const infer::ObservedPaths& observed,
                     const std::vector<val::CleanLabel>& validation,
                     const infer::Inference& inference,
                     const eval::ValidationTable& table, Outcome& outcome) {
  bool same_links = inference.size() == observed.link_count();
  for (const auto& link : observed.link_order()) {
    if (!same_links) break;
    same_links = inference.find(link) != nullptr;
  }
  outcome.check(same_links,
                std::string{algo} + " labels exactly the observed links");

  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  for (const auto& label : validation) {
    const infer::InferredRel* inferred = inference.find(label.link);
    if (inferred == nullptr) continue;
    const bool truth_p2p = label.rel == topo::RelType::kP2P;
    const bool said_p2p = inferred->rel == topo::RelType::kP2P;
    if (truth_p2p) {
      said_p2p ? ++tp : ++fn;
    } else {
      said_p2p ? ++fp : ++tn;
    }
  }
  const auto& total = table.total;
  outcome.check(total.p2p.tp == tp && total.p2p.fp == fp &&
                    total.p2p.tn == tn && total.p2p.fn == fn &&
                    total.p2p_links == tp + fn && total.p2c_links == fp + tn,
                std::string{algo} + " Total° row equals the counted confusion");
}

}  // namespace

Outcome run_reproduce(const Options& options) {
  Outcome outcome;
  core::ScenarioParams params;
  params.topology.as_count = kAsCount;
  params.topology.seed = options.seed;
  params.threads = options.threads;
  core::ScenarioParams effective = params;
  if (params.threads != 0) {
    effective.propagation.threads = params.threads;
    effective.extract.threads = params.threads;
  }

  // ---- set-up: the world the reproduction receives ----
  std::vector<Window> setup;
  std::vector<double> setup_s;
  topo::World world;
  for (int i = 0; i < kWorldRepeats; ++i) {
    const auto began = Clock::now();
    const std::uint64_t began_us = trace_now_us();
    {
      obs::TraceSpan span{"bench.topology.generate"};
      world = topo::generate(params.topology);
    }
    setup.push_back({began_us, trace_now_us()});
    setup_s.push_back(seconds_between(began, Clock::now()));
  }
  const std::size_t world_edges = world.graph.edge_count();

  // ---- the reproduction ----
  const PoolUse pool{PoolCounters::read()};
  const std::uint64_t began_us = trace_now_us();
  const auto began = Clock::now();
  Clock::time_point paths_ready;
  std::unique_ptr<core::Scenario> scenario;
  std::unique_ptr<infer::AsRankResult> asrank;
  std::unique_ptr<infer::ProbLinkResult> problink;
  std::unique_ptr<infer::TopoScopeResult> toposcope;
  eval::CoverageReport regional;
  eval::CoverageReport topological;
  eval::ValidationTable tables[3];
  std::size_t rendered_bytes = 0;
  {
    obs::TraceSpan root{"bench.reproduce"};
    std::vector<bgp::VantagePoint> vps;
    {
      obs::TraceSpan span{"bench.bgp.select_vantage_points"};
      vps = bgp::select_vantage_points(world, params.vantage);
    }
    bgp::PathTable paths;
    {
      obs::TraceSpan span{"bench.bgp.collect_paths"};
      const bgp::Propagator propagator{world, effective.propagation};
      paths = bgp::collect_paths(propagator, vps);
    }
    paths_ready = Clock::now();
    {
      obs::TraceSpan span{"bench.core.scenario_from_parts"};
      scenario = core::Scenario::from_parts(params, std::move(world),
                                            std::move(vps), std::move(paths));
    }
    {
      obs::TraceSpan span{"bench.infer.asrank"};
      asrank = std::make_unique<infer::AsRankResult>(
          infer::run_asrank(scenario->observed()));
    }
    {
      obs::TraceSpan span{"bench.infer.problink"};
      infer::ProbLinkParams problink_params;
      problink_params.threads = scenario->params().threads;
      problink = std::make_unique<infer::ProbLinkResult>(infer::run_problink(
          scenario->observed(), *asrank, scenario->validation(),
          problink_params));
    }
    {
      obs::TraceSpan span{"bench.infer.toposcope"};
      infer::TopoScopeParams toposcope_params;
      toposcope_params.threads = scenario->params().threads;
      toposcope = std::make_unique<infer::TopoScopeResult>(
          infer::run_toposcope(scenario->observed(), *asrank,
                               scenario->validation(), toposcope_params));
    }
    {
      obs::TraceSpan span{"bench.core.bias_audit"};
      const core::BiasAudit audit{*scenario};
      regional = audit.regional_coverage();
      topological = audit.topological_coverage();
      tables[0] = audit.validation_table(asrank->inference);
      tables[1] = audit.validation_table(problink->inference);
      tables[2] = audit.validation_table(toposcope->inference);
    }
    {
      obs::TraceSpan span{"bench.eval.render"};
      rendered_bytes += eval::render_coverage(regional).size();
      rendered_bytes += eval::render_coverage(topological).size();
      for (const auto& table : tables) {
        rendered_bytes += eval::render_validation_table(table).size();
      }
    }
  }
  const auto done = Clock::now();
  const std::uint64_t done_us = trace_now_us();
  const double reproduce_s = seconds_between(began, done);
  const double downstream_ms = seconds_between(paths_ready, done) * 1e3;
  const double peak_rss = peak_rss_mb();  // before the checks' own counts

  // ---- output checks ----
  check_fig1(regional, outcome);
  check_fig2(topological, outcome);
  check_table1(tables[0], outcome);
  const char* names[] = {"asrank", "problink", "toposcope"};
  const infer::Inference* inferences[] = {
      &asrank->inference, &problink->inference, &toposcope->inference};
  for (int i = 0; i < 3; ++i) {
    check_inference(names[i], scenario->observed(), scenario->validation(),
                    *inferences[i], tables[i], outcome);
  }
  outcome.check(rendered_bytes > 0, "reports rendered");

  // One reproduction per run: its wall time is the median and the tail.
  outcome.e2e("setup_s", median(setup_s), "s");
  outcome.e2e("throughput_per_s", 1.0 / reproduce_s, "1/s");
  outcome.e2e("latency_p50_ms", reproduce_s * 1e3, "ms");
  outcome.e2e("latency_tail_ms", reproduce_s * 1e3, "ms");
  outcome.e2e("refresh_p50_ms", downstream_ms, "ms");
  outcome.e2e("peak_rss_mb", peak_rss, "MiB");

  outcome.note("as_count", kAsCount);
  outcome.note("world_seed", static_cast<double>(options.seed));
  outcome.note("world_edges", static_cast<double>(world_edges));
  outcome.note("observed_links",
               static_cast<double>(scenario->observed().link_count()));
  outcome.note("validated_links",
               static_cast<double>(scenario->validation().size()));
  outcome.note("reproduce_s", reproduce_s);
  outcome.note("paths_to_tables_ms", downstream_ms);

  if (options.trace) {
    const SpanIndex index{obs::Tracer::instance().collect()};
    const std::vector<Window> run{{began_us, done_us}};
    outcome.layer("topology.generate_ms",
                  index.total_ms("bench.topology.generate", &setup) /
                      kWorldRepeats,
                  "ms");
    outcome.layer("bgp.collect_paths_ms",
                  index.total_ms("bench.bgp.collect_paths", &run), "ms");
    outcome.layer("infer.sanitize_ms",
                  index.total_ms("pipeline.sanitize", &run), "ms");
    outcome.layer("validation.extract_ms",
                  index.total_ms("validation.extract_communities", &run),
                  "ms");
    outcome.layer("infer.asrank_ms", index.total_ms("bench.infer.asrank", &run),
                  "ms");
    outcome.layer("infer.problink_ms",
                  index.total_ms("bench.infer.problink", &run), "ms");
    outcome.layer("infer.toposcope_ms",
                  index.total_ms("bench.infer.toposcope", &run), "ms");
    outcome.layer("core.bias_audit_ms",
                  index.total_ms("bench.core.bias_audit", &run), "ms");
    outcome.layer("eval.render_ms", index.total_ms("bench.eval.render", &run),
                  "ms");
    double uncovered = 0;
    for (const std::size_t i : index.named("bench.reproduce")) {
      uncovered += index.self_ms(i);
    }
    outcome.layer("reproduce.uncovered_ms", uncovered, "ms");
    pool.report(index, run,
                core::ThreadPool::effective_threads(options.threads), outcome);
    finish_trace(options, index, outcome);
    outcome.note("traced_reproduce_s", reproduce_s);
  }
  return outcome;
}

}  // namespace perfbench
