#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "bgp/propagation.hpp"
#include "bgp/vantage.hpp"
#include "infer/asrank.hpp"
#include "infer/clique.hpp"
#include "infer/gao.hpp"
#include "infer/inference.hpp"
#include "infer/observed.hpp"
#include "infer/problink.hpp"
#include "infer/toposcope.hpp"
#include "test_support.hpp"

namespace asrel::infer {
namespace {

using asn::Asn;

// A tiny hand-rolled path table:
//   vp0 = AS1 (full feed), vp1 = AS5
//   paths as annotated below.
bgp::PathTable tiny_table() {
  bgp::PathTable table;
  table.set_vantage_points({{Asn{1}, true, false}, {Asn{5}, true, false}});
  table.resize_origins(8);
  const auto add = [&](topo::NodeId origin, std::uint32_t vp,
                       std::initializer_list<std::uint32_t> hops) {
    std::vector<Asn> path;
    for (const auto value : hops) path.push_back(Asn{value});
    table.add_path(origin, vp, path);
  };
  add(0, 0, {1, 2, 3});        // AS1 -> AS2 -> AS3
  add(1, 0, {1, 2, 4});        // AS1 -> AS2 -> AS4
  add(2, 0, {1, 2, 2, 2, 4});  // prepending on AS2
  add(3, 1, {5, 2, 3});        // AS5 -> AS2 -> AS3
  add(4, 0, {1, 6, 1, 3});     // loop: dropped
  add(5, 0, {1, 2, 23456});    // AS_TRANS: dropped
  add(6, 0, {1, 2, 64512});    // private ASN: dropped
  table.recount();
  return table;
}

TEST(ObservedPaths, SanitizesLoopsReservedAndPrepending) {
  SanitizeStats stats;
  const auto observed = ObservedPaths::build(tiny_table(), &stats);
  EXPECT_EQ(stats.input_paths, 7u);
  EXPECT_EQ(stats.dropped_loop, 1u);
  EXPECT_EQ(stats.dropped_reserved, 2u);
  EXPECT_EQ(stats.kept, 4u);
  EXPECT_EQ(observed.path_count(), 4u);
  // The prepended path collapsed to 3 hops.
  EXPECT_EQ(observed.path(2).size(), 3u);
}

TEST(ObservedPaths, TransitDegreeCountsMiddleNeighbors) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  // AS2 appears in the middle next to {1, 3, 4, 5}: transit degree 4.
  const auto as2 = observed.index_of(Asn{2});
  ASSERT_TRUE(as2);
  EXPECT_EQ(observed.transit_degree(*as2), 4u);
  // Path-end ASes have transit degree 0.
  EXPECT_EQ(observed.transit_degree(*observed.index_of(Asn{3})), 0u);
  EXPECT_EQ(observed.transit_degree(*observed.index_of(Asn{1})), 0u);
}

TEST(ObservedPaths, NodeDegreeCountsDistinctNeighbors) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  EXPECT_EQ(observed.node_degree(*observed.index_of(Asn{2})), 4u);
  EXPECT_EQ(observed.node_degree(*observed.index_of(Asn{3})), 1u);
}

TEST(ObservedPaths, LinkStatisticsTrackVps) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  const auto* info = observed.link(val::AsLink{Asn{2}, Asn{3}});
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->vp_count, 2u);       // seen from both VPs
  EXPECT_EQ(info->occurrences, 2u);
  const auto* single = observed.link(val::AsLink{Asn{2}, Asn{4}});
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(single->vp_count, 1u);
  EXPECT_EQ(observed.link(val::AsLink{Asn{1}, Asn{9}}), nullptr);
}

TEST(ObservedPaths, RankOrderIsTransitDegreeFirst) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  const auto rank = observed.rank_order();
  EXPECT_EQ(observed.asn_at(rank[0]), Asn{2});  // highest transit degree
}

TEST(ObservedPaths, FirstHopCoverage) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  EXPECT_EQ(observed.first_hop_count(0, Asn{2}), 3u);
  EXPECT_EQ(observed.origin_count(0), 3u);  // after sanitization
  EXPECT_EQ(observed.first_hop_count(1, Asn{2}), 1u);
}

// ---------------------------------------------------- dense ids (hop arena) --

/// The micro-world seen from every AS as a full-feed vantage point.
bgp::PathTable micro_table() {
  const test::MicroWorld mw = test::micro_world();
  bgp::PropagationParams params;
  params.threads = 1;
  const bgp::Propagator propagator{mw.world, params};
  std::vector<bgp::VantagePoint> vps;
  for (const Asn asn : mw.world.graph.nodes()) vps.push_back({asn, true, false});
  return bgp::collect_paths(propagator, std::move(vps));
}

/// Paths of an `as_count`-AS world; world, VP and propagation seeds follow
/// `seed`.
bgp::PathTable world_table(std::size_t as_count, std::uint64_t seed) {
  topo::TopologyParams topo_params;
  topo_params.as_count = as_count;
  topo_params.seed = seed;
  const topo::World world = topo::generate(topo_params);
  bgp::VantageParams vantage_params;
  vantage_params.seed = seed;
  vantage_params.target_count = 40;
  bgp::PropagationParams prop_params;
  prop_params.threads = 2;
  const bgp::Propagator propagator{world, prop_params};
  return bgp::collect_paths(propagator,
                            bgp::select_vantage_points(world, vantage_params));
}

const ObservedPaths& observed_800() {
  static const ObservedPaths observed =
      ObservedPaths::build(world_table(800, 42), nullptr);
  return observed;
}

void expect_hops_match_paths(const ObservedPaths& observed) {
  const auto links = observed.link_order();
  ASSERT_EQ(links.size(), observed.link_count());
  std::uint32_t next_new_id = 0;
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    const auto hops = observed.hops(p);
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(hops.size(), path.size() - 1) << "path " << p;
    for (std::size_t k = 0; k < hops.size(); ++k) {
      const std::uint32_t id = ObservedPaths::hop_link(hops[k]);
      ASSERT_LT(id, links.size());
      // First-seen order: a hop names an existing link or the next new id.
      ASSERT_LE(id, next_new_id) << "path " << p << " hop " << k;
      if (id == next_new_id) ++next_new_id;
      const AsLink link{path[k], path[k + 1]};
      EXPECT_EQ(links[id], link) << "path " << p << " hop " << k;
      EXPECT_EQ(ObservedPaths::hop_forward(hops[k]), path[k] == link.a);
      EXPECT_EQ(observed.asn_at(observed.hop_from(hops[k])), path[k]);
      EXPECT_EQ(observed.asn_at(observed.hop_to(hops[k])), path[k + 1]);
    }
  }
  EXPECT_EQ(next_new_id, links.size());
  for (std::uint32_t id = 0; id < links.size(); ++id) {
    const LinkEnds& ends = observed.link_ends(id);
    EXPECT_EQ(observed.asn_at(ends.a), links[id].a);
    EXPECT_EQ(observed.asn_at(ends.b), links[id].b);
    const auto* info = observed.link(links[id]);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->link_id, id);
    EXPECT_EQ(observed.link_info(id).occurrences, info->occurrences);
    EXPECT_EQ(observed.link_info(id).vp_count, info->vp_count);
  }
}

/// Node and transit degrees recomputed from path() with neighbor sets.
void expect_degrees_match_sets(const ObservedPaths& observed) {
  std::map<Asn, std::set<Asn>> neighbors;
  std::map<Asn, std::set<Asn>> transit;
  std::map<AsLink, std::set<std::uint16_t>> vps;
  std::map<AsLink, std::uint32_t> occurrences;
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto path = observed.path(p);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      neighbors[path[i]].insert(path[i + 1]);
      neighbors[path[i + 1]].insert(path[i]);
      if (i + 2 < path.size()) {
        transit[path[i + 1]].insert(path[i]);
        transit[path[i + 1]].insert(path[i + 2]);
      }
      const AsLink link{path[i], path[i + 1]};
      vps[link].insert(observed.vp_of_path(p));
      ++occurrences[link];
    }
  }
  for (AsIndex i = 0; i < observed.as_count(); ++i) {
    const Asn asn = observed.asn_at(i);
    EXPECT_EQ(observed.node_degree(i), neighbors[asn].size()) << asn.value();
    EXPECT_EQ(observed.transit_degree(i), transit[asn].size()) << asn.value();
  }
  for (const AsLink& link : observed.link_order()) {
    EXPECT_EQ(observed.link(link)->vp_count, vps[link].size());
    EXPECT_EQ(observed.link(link)->occurrences, occurrences[link]);
  }
}

TEST(ObservedPaths, HopArenaMatchesPathsOnTinyTable) {
  const auto observed = ObservedPaths::build(tiny_table(), nullptr);
  expect_hops_match_paths(observed);
  expect_degrees_match_sets(observed);
}

TEST(ObservedPaths, HopArenaMatchesPathsOnMicroWorld) {
  const auto observed = ObservedPaths::build(micro_table(), nullptr);
  ASSERT_GT(observed.path_count(), 100u);
  expect_hops_match_paths(observed);
  expect_degrees_match_sets(observed);
}

TEST(ObservedPaths, HopArenaMatchesPathsOn800AsWorld) {
  ASSERT_GT(observed_800().link_count(), 1000u);
  expect_hops_match_paths(observed_800());
  expect_degrees_match_sets(observed_800());
}

TEST(ObservedPaths, DropsEmptyPaths) {
  bgp::PathTable table;
  table.set_vantage_points({{Asn{1}, true, false}});
  table.resize_origins(2);
  table.add_path(0, 0, {});
  const std::vector<Asn> lone{Asn{1}};
  table.add_path(1, 0, lone);
  table.recount();
  SanitizeStats stats;
  const auto observed = ObservedPaths::build(table, &stats);
  EXPECT_EQ(stats.dropped_empty, 1u);
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_EQ(observed.path_count(), 1u);
  EXPECT_TRUE(observed.hops(0).empty());
  EXPECT_EQ(observed.as_count(), 1u);
}

// ----------------------------------------------------------------- clique --

/// The clique search as first written: every evidence query re-scans all
/// paths. infer_clique must agree with it on every input.
std::vector<Asn> reference_clique(const ObservedPaths& observed,
                                  const CliqueParams& params) {
  const auto rank = observed.rank_order();
  const std::size_t pool = std::min(params.seed_pool, rank.size());
  if (pool == 0) return {};
  const auto linked = [&](Asn a, Asn b) {
    return observed.link(AsLink{a, b}) != nullptr;
  };
  // Largest clique among the seed pool, ties to the lexicographically
  // smallest rank set: every clique is grown in ascending rank order, so
  // the first one of maximal size found is the smallest.
  std::vector<std::size_t> best;
  std::vector<std::size_t> members;
  const auto grow = [&](const auto& self, std::size_t from) -> void {
    if (members.size() > best.size()) best = members;
    for (std::size_t i = from; i < pool; ++i) {
      if (!std::all_of(members.begin(), members.end(), [&](std::size_t m) {
            return linked(observed.asn_at(rank[m]), observed.asn_at(rank[i]));
          })) {
        continue;
      }
      members.push_back(i);
      self(self, i + 1);
      members.pop_back();
    }
  };
  grow(grow, 0);
  std::set<Asn> clique;
  for (const std::size_t i : best) clique.insert(observed.asn_at(rank[i]));

  const auto evidence = [&](Asn z) {
    std::uint32_t count = 0;
    for (std::size_t p = 0; p < observed.path_count(); ++p) {
      const auto path = observed.path(p);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        if (clique.contains(path[i]) && clique.contains(path[i + 1]) &&
            path[i + 2] == z) {
          ++count;
        }
      }
    }
    return count;
  };
  const auto purify = [&] {
    bool removed_any = false;
    while (clique.size() > 1) {
      Asn worst;
      std::uint32_t worst_count = 0;
      for (const Asn member : clique) {
        const std::uint32_t count = evidence(member);
        if (count > worst_count) {
          worst_count = count;
          worst = member;
        }
      }
      if (worst_count < 2) break;
      clique.erase(worst);
      removed_any = true;
    }
    return removed_any;
  };
  const std::size_t extension = std::min(params.extension_pool, rank.size());
  const auto extend = [&] {
    bool added_any = false;
    for (std::size_t i = 0; i < extension; ++i) {
      const Asn candidate = observed.asn_at(rank[i]);
      if (clique.contains(candidate)) continue;
      if (!std::all_of(clique.begin(), clique.end(),
                       [&](Asn member) { return linked(candidate, member); })) {
        continue;
      }
      if (evidence(candidate) >= 2) continue;
      clique.insert(candidate);
      added_any = true;
    }
    return added_any;
  };
  purify();
  for (int round = 0; round < 4; ++round) {
    const bool grew = extend();
    const bool shrank = purify();
    if (!grew && !shrank) break;
  }
  return {clique.begin(), clique.end()};
}

TEST(Clique, TripletTableMatchesPerQueryScanAcrossSeeds) {
  for (const std::uint64_t seed : {3, 17, 2021}) {
    const auto observed = ObservedPaths::build(world_table(600, seed), nullptr);
    for (const CliqueParams params :
         {CliqueParams{}, CliqueParams{8, 30}, CliqueParams{12, 5},
          CliqueParams{30, 120}, CliqueParams{24, 100}}) {
      EXPECT_EQ(infer_clique(observed, params),
                reference_clique(observed, params))
          << "seed " << seed << ", pools " << params.seed_pool << "/"
          << params.extension_pool;
    }
  }
}

TEST(Clique, TripletTableMatchesPerQueryScanOnSmallInputs) {
  const CliqueParams seed_pool_larger{10, 3};
  for (const auto& observed :
       {ObservedPaths::build(tiny_table(), nullptr),
        ObservedPaths::build(micro_table(), nullptr)}) {
    for (const CliqueParams params : {CliqueParams{}, seed_pool_larger}) {
      EXPECT_EQ(infer_clique(observed, params),
                reference_clique(observed, params));
    }
  }
}

/// A path table with one VP and the given ASN paths, one origin each.
bgp::PathTable table_of(
    std::initializer_list<std::initializer_list<std::uint32_t>> paths) {
  bgp::PathTable table;
  table.set_vantage_points({{Asn{1}, true, false}});
  table.resize_origins(paths.size());
  topo::NodeId origin = 0;
  for (const auto& hops : paths) {
    std::vector<Asn> path;
    for (const auto value : hops) path.push_back(Asn{value});
    table.add_path(origin++, 0, path);
  }
  table.recount();
  return table;
}

TEST(Clique, EvidenceCountsBothOrdersOfAMemberPair) {
  // 10, 20 and 30 form the seed clique. 40 links to all three but is
  // transited once through (10, 20) and once through (20, 10): evidence 2,
  // so it must not join.
  const auto observed = ObservedPaths::build(
      table_of({{10, 20, 40}, {20, 10, 40}, {30, 40}, {10, 30}, {20, 30}}),
      nullptr);
  const CliqueParams params{3, 4};
  const std::vector<Asn> expected{Asn{10}, Asn{20}, Asn{30}};
  EXPECT_EQ(infer_clique(observed, params), expected);
  EXPECT_EQ(reference_clique(observed, params), expected);
}

TEST(Clique, PurifyRemovesTheSmallerAsnOnATie) {
  // 10 and 20 are each transited twice through the other members; 30 never.
  // The tie purges 10, which leaves 20 without evidence, and 10 cannot
  // rejoin because (20, 30) and (30, 20) still transit it.
  const auto observed = ObservedPaths::build(
      table_of({{20, 30, 10}, {30, 20, 10}, {10, 30, 20}, {30, 10, 20}}),
      nullptr);
  const CliqueParams params{3, 3};
  const std::vector<Asn> expected{Asn{20}, Asn{30}};
  EXPECT_EQ(infer_clique(observed, params), expected);
  EXPECT_EQ(reference_clique(observed, params), expected);
}

TEST(Clique, DegenerateInputs) {
  // No paths at all: no AS, no clique.
  bgp::PathTable empty;
  empty.set_vantage_points({{Asn{1}, true, false}});
  empty.resize_origins(1);
  empty.recount();
  const auto none = ObservedPaths::build(empty, nullptr);
  EXPECT_TRUE(infer_clique(none, {}).empty());
  EXPECT_TRUE(run_asrank(none).inference.size() == 0);

  // Only single-AS paths: no links, so the clique is the top-ranked AS.
  bgp::PathTable lone;
  lone.set_vantage_points({{Asn{7}, true, false}, {Asn{3}, true, false}});
  lone.resize_origins(2);
  const std::vector<Asn> seven{Asn{7}};
  const std::vector<Asn> three{Asn{3}};
  lone.add_path(0, 0, seven);
  lone.add_path(1, 1, three);
  lone.recount();
  const auto singles = ObservedPaths::build(lone, nullptr);
  EXPECT_EQ(singles.link_count(), 0u);
  for (const CliqueParams params : {CliqueParams{}, CliqueParams{5, 1}}) {
    const auto clique = infer_clique(singles, params);
    EXPECT_EQ(clique, reference_clique(singles, params));
    EXPECT_EQ(clique, std::vector<Asn>{Asn{3}});
  }
}

// ----------------------------------------------------------------- clique --

TEST(Clique, RecoversGroundTruthTier1s) {
  const auto& scenario = test::shared_scenario();
  const auto clique = infer_clique(scenario.observed(), {});
  std::unordered_set<Asn> truth(scenario.world().clique.begin(),
                                scenario.world().clique.end());
  std::size_t correct = 0;
  for (const Asn member : clique) {
    if (truth.contains(member)) ++correct;
  }
  ASSERT_FALSE(clique.empty());
  // High precision; recall may miss a few members in small worlds.
  EXPECT_GE(static_cast<double>(correct),
            0.9 * static_cast<double>(clique.size()));
  EXPECT_GE(correct, truth.size() / 2);
}

// ----------------------------------------------------------------- asrank --

TEST(AsRank, LabelsEveryVisibleLink) {
  const auto& scenario = test::shared_scenario();
  const auto result = run_asrank(scenario.observed());
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
}

TEST(AsRank, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto a = run_asrank(scenario.observed());
  const auto b = run_asrank(scenario.observed());
  EXPECT_EQ(a.clique, b.clique);
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);
}

TEST(AsRank, CliqueMeshInferredAsPeering) {
  const auto& scenario = test::shared_scenario();
  const auto result = run_asrank(scenario.observed());
  for (std::size_t i = 0; i < result.clique.size(); ++i) {
    for (std::size_t j = i + 1; j < result.clique.size(); ++j) {
      const auto* rel =
          result.inference.find(val::AsLink{result.clique[i],
                                            result.clique[j]});
      if (rel == nullptr) continue;
      EXPECT_EQ(rel->rel, topo::RelType::kP2P);
    }
  }
}

TEST(AsRank, TaggedPartialTransitLinksInferredAsPeering) {
  // The §6.1 mechanism: community-tagged customers of the Cogent analogue
  // lack clique triplets and must overwhelmingly be inferred P2P.
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  int p2p = 0;
  int p2c = 0;
  for (const auto& edge : world.graph.edges()) {
    if (!edge.scope_via_community) continue;
    const auto* rel = result.inference.find(val::AsLink{
        world.graph.asn_of(edge.u), world.graph.asn_of(edge.v)});
    if (rel == nullptr) continue;
    rel->rel == topo::RelType::kP2P ? ++p2p : ++p2c;
  }
  ASSERT_GT(p2p + p2c, 0);
  EXPECT_GT(p2p, 2 * p2c);
}

TEST(AsRank, OrdinaryTier1CustomersInferredAsCustomers) {
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  std::unordered_set<Asn> clique(world.clique.begin(), world.clique.end());
  int correct = 0;
  int wrong = 0;
  for (const auto& edge : world.graph.edges()) {
    if (edge.rel != topo::RelType::kP2C) continue;
    if (edge.scope != topo::ExportScope::kFull) continue;
    const Asn provider = world.graph.asn_of(edge.u);
    const Asn customer = world.graph.asn_of(edge.v);
    if (!clique.contains(provider)) continue;
    if (world.attrs.at(customer).tier == topo::Tier::kStub) continue;
    const auto* rel = result.inference.find(val::AsLink{provider, customer});
    if (rel == nullptr) continue;
    const bool ok =
        rel->rel == topo::RelType::kP2C && rel->provider == provider;
    ok ? ++correct : ++wrong;
  }
  ASSERT_GT(correct, 0);
  EXPECT_GT(correct, 4 * wrong);
}

TEST(AsRank, OverallAccuracyAgainstGroundTruth) {
  const auto& scenario = test::shared_scenario();
  const auto& world = scenario.world();
  const auto result = run_asrank(scenario.observed());
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& link : scenario.observed().link_order()) {
    const auto edge_id = world.graph.find_edge(link.a, link.b);
    if (!edge_id) continue;
    const auto& edge = world.graph.edge(*edge_id);
    if (edge.hybrid_rel || edge.rel == topo::RelType::kS2S) continue;
    const auto* rel = result.inference.find(link);
    ASSERT_NE(rel, nullptr);
    ++total;
    if (rel->rel == edge.rel &&
        (edge.rel != topo::RelType::kP2C ||
         rel->provider == world.graph.asn_of(edge.u))) {
      ++correct;
    }
  }
  ASSERT_GT(total, 1000u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.9);
}

TEST(AsRank, SubsetModeLabelsOnlySubsetLinks) {
  const auto& scenario = test::shared_scenario();
  std::vector<std::uint32_t> half;
  for (std::uint32_t p = 0; p < scenario.observed().path_count(); p += 2) {
    half.push_back(p);
  }
  const auto global = run_asrank(scenario.observed());
  const auto subset = run_asrank_subset(scenario.observed(), {}, half,
                                        global.clique);
  EXPECT_LT(subset.inference.size(), global.inference.size());
  EXPECT_GT(subset.inference.size(), 0u);
}

// -------------------------------------------------------------------- gao --

TEST(Gao, LabelsEverythingAndIsDeterministic) {
  const auto& scenario = test::shared_scenario();
  const auto a = run_gao(scenario.observed());
  const auto b = run_gao(scenario.observed());
  EXPECT_EQ(a.size(), scenario.observed().link_count());
  EXPECT_EQ(a.agreement_with(b), 1.0);
}

TEST(Gao, ReasonableAgreementWithAsRank) {
  const auto& scenario = test::shared_scenario();
  const auto gao = run_gao(scenario.observed());
  const auto asrank = run_asrank(scenario.observed());
  EXPECT_GT(gao.agreement_with(asrank.inference), 0.6);
}

// --------------------------------------------------------------- problink --

TEST(ProbLink, ConvergesAndLabelsEverything) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
  EXPECT_GT(result.training_links, 100u);
  EXPECT_GT(result.iterations_used, 0);
}

TEST(ProbLink, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto a =
      run_problink(scenario.observed(), asrank, scenario.validation());
  const auto b =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);
}

TEST(ProbLink, StaysCloseToInitialLabeling) {
  // ProbLink refines ASRank; it should not rewrite the world wholesale.
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  EXPECT_GT(result.inference.agreement_with(asrank.inference), 0.7);
}

// -------------------------------------------------------------- toposcope --

TEST(TopoScope, UsesRequestedGroups) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  TopoScopeParams params;
  params.vp_groups = 4;
  const auto result = run_toposcope(scenario.observed(), asrank,
                                    scenario.validation(), params);
  EXPECT_EQ(result.groups_used, 4);
  EXPECT_EQ(result.inference.size(), scenario.observed().link_count());
}

TEST(TopoScope, HiddenLinksAreActuallyHidden) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  for (const auto& hidden : result.hidden_links) {
    EXPECT_EQ(scenario.observed().link(hidden.link), nullptr);
    EXPECT_GT(hidden.confidence, 0.0);
    EXPECT_LE(hidden.confidence, 1.0);
  }
}

TEST(TopoScope, SomeHiddenLinksAreRealGroundTruthLinks) {
  // The whole point of the stage: links the collectors miss often exist.
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  if (result.hidden_links.empty()) GTEST_SKIP() << "no hidden predictions";
  std::size_t real = 0;
  for (const auto& hidden : result.hidden_links) {
    if (scenario.world().graph.find_edge(hidden.link.a, hidden.link.b)) {
      ++real;
    }
  }
  EXPECT_GT(real, 0u);
}

TEST(TopoScope, Deterministic) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto a =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  const auto b =
      run_toposcope(scenario.observed(), asrank, scenario.validation());
  EXPECT_EQ(a.inference.agreement_with(b.inference), 1.0);
  EXPECT_EQ(a.hidden_links.size(), b.hidden_links.size());
}

// ---------------------------------------------------------------- common --

TEST(Inference, AgreementWithSelfIsOne) {
  Inference inference;
  InferredRel rel;
  rel.rel = topo::RelType::kP2P;
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  EXPECT_EQ(inference.agreement_with(inference), 1.0);
}

TEST(Inference, SetOverwrites) {
  Inference inference;
  InferredRel rel;
  rel.rel = topo::RelType::kP2P;
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  rel.rel = topo::RelType::kP2C;
  rel.provider = Asn{1};
  inference.set(val::AsLink{Asn{1}, Asn{2}}, rel);
  EXPECT_EQ(inference.size(), 1u);
  EXPECT_EQ(inference.find(val::AsLink{Asn{1}, Asn{2}})->rel,
            topo::RelType::kP2C);
}

}  // namespace
}  // namespace asrel::infer

namespace asrel::infer {
namespace {

TEST(ProbLink, ConfidenceCoversAllLinksAndIsCalibratedish) {
  const auto& scenario = test::shared_scenario();
  const auto asrank = run_asrank(scenario.observed());
  const auto result =
      run_problink(scenario.observed(), asrank, scenario.validation());
  ASSERT_EQ(result.confidence.size(), scenario.observed().link_count());
  double low = 1.0;
  for (const auto& [link, confidence] : result.confidence) {
    EXPECT_GE(confidence, 1.0 / 3.0 - 1e-9);  // argmax of a 3-class softmax
    EXPECT_LE(confidence, 1.0 + 1e-9);
    low = std::min(low, confidence);
  }
  // Hard links exist: not everything is certain.
  EXPECT_LT(low, 0.9);
}

}  // namespace
}  // namespace asrel::infer
