#include "expected.hpp"

#include <algorithm>

#include "infer/asrank.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "rir/region.hpp"
#include "serve/json.hpp"
#include "topology/cone.hpp"

namespace perfbench {

namespace {

using namespace asrel;
using serve::JsonWriter;

void rel_side(JsonWriter& json, topo::RelType rel, asn::Asn provider) {
  json.field("rel", to_string(rel));
  if (rel == topo::RelType::kP2C) {
    json.field("provider", std::uint64_t{provider.value()});
  }
}

void class_metrics(JsonWriter& json, const eval::ClassMetrics& metrics) {
  json.begin_object();
  json.field("class", metrics.name);
  json.key("p2p").begin_object();
  json.field("ppv", metrics.p2p.ppv());
  json.field("tpr", metrics.p2p.tpr());
  json.field("links", metrics.p2p_links);
  json.end_object();
  json.key("p2c").begin_object();
  json.field("ppv", metrics.p2c.ppv());
  json.field("tpr", metrics.p2c.tpr());
  json.field("links", metrics.p2c_links);
  json.end_object();
  json.field("mcc", metrics.mcc);
  json.field("orientation_accuracy", metrics.orientation_accuracy);
  json.end_object();
}

}  // namespace

ServeTruth::ServeTruth(const core::Scenario& scenario)
    : scenario_(scenario), audit_(scenario) {
  const auto& observed = scenario.observed();
  infer::ProbLinkParams problink_params;
  problink_params.threads = scenario.params().threads;
  infer::TopoScopeParams toposcope_params;
  toposcope_params.threads = scenario.params().threads;
  const auto asrank = infer::run_asrank(observed);
  inferences_.push_back(asrank.inference);
  inferences_.push_back(infer::run_problink(observed, asrank,
                                            scenario.validation(),
                                            problink_params)
                            .inference);
  inferences_.push_back(infer::run_toposcope(observed, asrank,
                                             scenario.validation(),
                                             toposcope_params)
                            .inference);

  for (const auto& label : scenario.validation()) {
    validated_.emplace(label.link, label);
    ++neighbors_[label.link.a].validated_links;
    ++neighbors_[label.link.b].validated_links;
  }
  const auto& graph = scenario.world().graph;
  for (const auto& edge : graph.edges()) {
    if (edge.removed) continue;
    Neighbors& u = neighbors_[graph.asn_of(edge.u)];
    Neighbors& v = neighbors_[graph.asn_of(edge.v)];
    switch (edge.rel) {
      case topo::RelType::kP2C:
        ++u.customers;
        ++v.providers;
        break;
      case topo::RelType::kP2P:
        ++u.peers;
        ++v.peers;
        break;
      case topo::RelType::kS2S:
        ++u.siblings;
        ++v.siblings;
        break;
    }
  }
  for (const auto& link : observed.link_order()) {
    ++neighbors_[link.a].observed_links;
    ++neighbors_[link.b].observed_links;
  }
  cone_sizes_ = topo::customer_cone_sizes(graph);
}

std::string ServeTruth::rel(asn::Asn a, asn::Asn b) const {
  const val::AsLink link{a, b};
  const auto& graph = scenario_.world().graph;
  const auto edge_id = graph.find_edge(a, b);
  const bool observed = scenario_.observed().link(link) != nullptr;
  const auto validated = validated_.find(link);
  bool any_verdict = false;
  for (const auto& inference : inferences_) {
    any_verdict = any_verdict || inference.find(link) != nullptr;
  }

  JsonWriter json;
  json.begin_object();
  json.field("a", std::uint64_t{link.a.value()});
  json.field("b", std::uint64_t{link.b.value()});
  json.field("found", edge_id.has_value() || observed ||
                          validated != validated_.end() || any_verdict);
  if (edge_id) {
    const topo::Edge& edge = graph.edge(*edge_id);
    json.key("ground_truth").begin_object();
    rel_side(json, edge.rel, graph.asn_of(edge.u));
    json.field("export_scope", to_string(edge.scope));
    json.field("scope_via_community", edge.scope_via_community);
    json.field("misdocumented", edge.misdocumented);
    if (edge.hybrid_rel) json.field("hybrid_rel", to_string(*edge.hybrid_rel));
    json.end_object();
  } else {
    json.key("ground_truth").null();
  }
  json.field("observed", observed);
  if (observed) {
    json.field("regional_class", audit_.regional_class_of(link));
    json.field("topological_class", audit_.topological_class_of(link));
  }
  json.key("verdicts").begin_object();
  for (std::size_t i = 0; i < inferences_.size(); ++i) {
    const infer::InferredRel* verdict = inferences_[i].find(link);
    if (verdict == nullptr) continue;
    json.key(kAlgorithms[i]).begin_object();
    rel_side(json, verdict->rel, verdict->provider);
    json.end_object();
  }
  json.end_object();
  if (validated != validated_.end()) {
    json.key("validation").begin_object();
    rel_side(json, validated->second.rel, validated->second.provider);
    json.end_object();
  } else {
    json.key("validation").null();
  }
  json.end_object();
  return std::move(json).str();
}

std::string ServeTruth::as(asn::Asn asn) const {
  const auto& world = scenario_.world();
  const auto node = world.graph.node_of(asn);
  const topo::AsAttributes& attrs = world.attrs.at(asn);
  const auto& observed = scenario_.observed();
  std::uint32_t transit_degree = 0;
  std::uint32_t node_degree = 0;
  if (const auto index = observed.index_of(asn)) {
    transit_degree = observed.transit_degree(*index);
    node_degree = observed.node_degree(*index);
  }
  Neighbors counts;
  if (const auto it = neighbors_.find(asn); it != neighbors_.end()) {
    counts = it->second;
  }
  JsonWriter json;
  json.begin_object();
  json.field("asn", std::uint64_t{asn.value()});
  json.field("region", rir::abbreviation(attrs.region));
  json.field("country", std::string_view{attrs.country});
  json.field("tier", to_string(attrs.tier));
  json.field("hypergiant", attrs.hypergiant);
  json.field("transit_degree", transit_degree);
  json.field("node_degree", node_degree);
  json.field("cone_size", node ? cone_sizes_[*node] : std::uint32_t{0});
  json.key("neighbors").begin_object();
  json.field("providers", counts.providers);
  json.field("customers", counts.customers);
  json.field("peers", counts.peers);
  json.field("siblings", counts.siblings);
  json.end_object();
  json.field("observed_links", counts.observed_links);
  json.field("validated_links", counts.validated_links);
  json.end_object();
  return std::move(json).str();
}

std::string ServeTruth::links(std::size_t limit) const {
  const auto order = scenario_.observed().link_order();
  const std::size_t take = std::min(limit, order.size());
  const std::size_t stride = take == 0 ? 0 : order.size() / take;
  JsonWriter json;
  json.begin_object();
  json.field("count", take);
  json.key("links").begin_array();
  for (std::size_t i = 0; i < take; ++i) {
    json.begin_array();
    json.value(std::uint64_t{order[i * stride].a.value()});
    json.value(std::uint64_t{order[i * stride].b.value()});
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string ServeTruth::snapshot() const {
  const auto& params = scenario_.params();
  JsonWriter json;
  json.begin_object();
  json.field("as_count_param", std::int64_t{params.topology.as_count});
  json.field("seed", std::uint64_t{params.topology.seed});
  json.field("scheme_seed", std::uint64_t{params.scheme_seed});
  json.field("ases", scenario_.world().graph.node_count());
  json.field("edges", scenario_.world().graph.live_edge_count());
  json.field("observed_links", scenario_.observed().link_count());
  json.field("validation_labels", scenario_.validation().size());
  json.key("algorithms").begin_array();
  for (const char* name : kAlgorithms) json.value(name);
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string ServeTruth::coverage(bool regional) const {
  const eval::CoverageReport report =
      regional ? audit_.regional_coverage() : audit_.topological_coverage();
  JsonWriter json;
  json.begin_object();
  json.field("report", regional ? "regional" : "topological");
  json.field("total_inferred", report.total_inferred);
  json.field("total_validated", report.total_validated);
  json.key("rows").begin_array();
  for (const auto& row : report.rows) {
    json.begin_object();
    json.field("class", row.name);
    json.field("inferred_links", row.inferred_links);
    json.field("validated_links", row.validated_links);
    json.field("share", row.share);
    json.field("coverage", row.coverage);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

std::string ServeTruth::table(std::size_t algorithm) const {
  constexpr std::size_t kMinLinks = 500;  // the service's Tables 1-3 cut
  const eval::ValidationTable table =
      audit_.validation_table(inferences_[algorithm], kMinLinks);
  JsonWriter json;
  json.begin_object();
  json.field("report", "validation-table");
  json.field("algorithm", kAlgorithms[algorithm]);
  json.field("min_links", kMinLinks);
  json.key("total");
  class_metrics(json, table.total);
  json.key("rows").begin_array();
  for (const auto& row : table.rows) class_metrics(json, row);
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

}  // namespace perfbench
