#include "infer/problink.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "core/parallel.hpp"
#include "infer/link_class.hpp"
#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

using asn::Asn;

/// Feature value counts per feature family (categorical naive Bayes).
struct FeatureSpec {
  int cardinality;
};
constexpr std::array<FeatureSpec, 5> kFeatures{{
    {16},  // 0: triplet context (4 predecessor categories x 2 orientations)
    {4},   // 1: distance to clique {adjacent,1,2,3+/none}
    {5},   // 2: VP visibility bucket
    {9},   // 3: signed transit-degree log-ratio bucket
    {3},   // 4: path position {origin-side, mixed, middle}
}};

struct LinkFeatures {
  std::array<int, kFeatures.size()> value{};
};

/// Predecessor category for the triplet feature.
enum Pred : int { kPredNone = 0, kPredDown = 1, kPredUp = 2, kPredPeer = 3 };

int bucket_visibility(std::uint32_t vp_count) {
  if (vp_count <= 1) return 0;
  if (vp_count <= 3) return 1;
  if (vp_count <= 7) return 2;
  if (vp_count <= 15) return 3;
  return 4;
}

int bucket_ratio(std::uint32_t td_a, std::uint32_t td_b) {
  const double r = std::log2(static_cast<double>(td_a + 1) /
                             static_cast<double>(td_b + 1));
  const int clamped = static_cast<int>(std::clamp(std::round(r), -4.0, 4.0));
  return clamped + 4;
}

}  // namespace

ProbLinkResult run_problink(const ObservedPaths& observed,
                            const AsRankResult& initial,
                            std::span<const val::CleanLabel> training,
                            const ProbLinkParams& params) {
  obs::StageScope stage{"infer.problink"};
  ProbLinkResult result;
  const auto& links = observed.link_order();
  const std::size_t link_count = links.size();
  core::ThreadPool& pool = core::ThreadPool::shared();
  const unsigned threads = core::ThreadPool::effective_threads(params.threads);

  // Current labels, indexed like link_order.
  std::vector<InferredRel> current(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    const auto* rel = initial.inference.find(links[i]);
    current[i] = rel != nullptr ? *rel : InferredRel{};
  }

  // ---- Static features -----------------------------------------------------
  std::vector<bool> clique_set(observed.as_count(), false);
  for (const Asn member : initial.clique) {
    if (const auto index = observed.index_of(member)) clique_set[*index] = true;
  }

  // Distance to clique and position statistics, one path sweep.
  std::vector<int> clique_distance(link_count, 3);  // 3 == "3+/none"
  std::vector<std::uint32_t> end_occurrences(link_count, 0);

  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto hops = observed.hops(p);
    int last_clique = -1;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      const std::uint32_t hop = hops[i];
      if (clique_set[observed.hop_from(hop)]) {
        last_clique = static_cast<int>(i);
      }
      const std::uint32_t id = ObservedPaths::hop_link(hop);

      if (i + 1 == hops.size()) ++end_occurrences[id];
      const int distance =
          last_clique < 0 ? 3
                          : std::min(3, static_cast<int>(i) - last_clique);
      clique_distance[id] = std::min(clique_distance[id], distance);
    }
  }

  // Assemble static feature parts.
  std::vector<LinkFeatures> features(link_count);
  for (std::size_t i = 0; i < link_count; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    const LinkEnds& ends = observed.link_ends(id);
    features[i].value[1] = clique_distance[i];
    features[i].value[2] = bucket_visibility(observed.link_info(id).vp_count);
    features[i].value[3] = bucket_ratio(observed.transit_degree(ends.a),
                                        observed.transit_degree(ends.b));
    const std::uint32_t occurrences = observed.link_info(id).occurrences;
    const double end_share =
        occurrences == 0
            ? 0.0
            : static_cast<double>(end_occurrences[i]) / occurrences;
    features[i].value[4] = end_share > 0.8 ? 0 : end_share > 0.2 ? 1 : 2;
  }

  // Dynamic feature 0 (triplet context) from the current labeling: per
  // (link, orientation), how often each predecessor category precedes it
  // on a path. Orientation 1 = traversed a->b, i.e. a forward hop entry.
  using TripletCounts =
      std::vector<std::array<std::array<std::uint32_t, 4>, 2>>;
  std::vector<std::uint8_t> category(2 * link_count);
  const auto refresh_triplet_feature = [&] {
    // The category a hop entry gives the hop after it, from the current
    // label of its link and its direction of travel.
    for (std::uint32_t hop = 0; hop < category.size(); ++hop) {
      const auto& link = links[ObservedPaths::hop_link(hop)];
      const auto& rel = current[ObservedPaths::hop_link(hop)];
      const Asn from = ObservedPaths::hop_forward(hop) ? link.a : link.b;
      Pred pred = kPredPeer;
      if (rel.rel == topo::RelType::kP2C) {
        pred = rel.provider == from ? kPredDown : kPredUp;
      }
      category[hop] = static_cast<std::uint8_t>(pred);
    }
    // Path ranges chunk across workers; integer sums are merge-order
    // independent, so the result matches the serial accumulation exactly.
    const std::size_t paths = observed.path_count();
    const std::size_t chunks =
        std::max<std::size_t>(1, std::min<std::size_t>(threads, paths));
    const TripletCounts counts = core::parallel_reduce_ordered(
        pool, chunks, threads,
        TripletCounts(link_count, {{{0, 0, 0, 0}, {0, 0, 0, 0}}}),
        [&](std::size_t chunk) {
          obs::TraceSpan span{"infer.problink.triplet_chunk"};
          TripletCounts local(link_count, {{{0, 0, 0, 0}, {0, 0, 0, 0}}});
          for (std::size_t p = chunk * paths / chunks;
               p < (chunk + 1) * paths / chunks; ++p) {
            const auto hops = observed.hops(p);
            for (std::size_t i = 1; i < hops.size(); ++i) {
              ++local[ObservedPaths::hop_link(hops[i])]
                     [ObservedPaths::hop_forward(hops[i]) ? 1 : 0]
                     [category[hops[i - 1]]];
            }
          }
          return local;
        },
        [&](TripletCounts& acc, TripletCounts&& partial) {
          for (std::size_t i = 0; i < link_count; ++i) {
            for (int orient = 0; orient < 2; ++orient) {
              for (int c = 0; c < 4; ++c) {
                acc[i][orient][c] += partial[i][orient][c];
              }
            }
          }
        });
    pool.run_indexed(link_count, threads, [&](std::size_t i) {
      std::array<int, 2> dominant{kPredNone, kPredNone};
      for (int orient = 0; orient < 2; ++orient) {
        std::uint32_t best = 0;
        for (int c = 1; c < 4; ++c) {
          if (counts[i][orient][c] > best) {
            best = counts[i][orient][c];
            dominant[orient] = c;
          }
        }
      }
      features[i].value[0] = dominant[0] * 4 + dominant[1];
    });
  };

  // ---- Training labels ------------------------------------------------------
  std::vector<std::pair<std::uint32_t, LinkClass>> train;
  for (const auto& label : training) {
    const auto* info = observed.link(label.link);
    if (info == nullptr) continue;
    InferredRel rel;
    rel.rel = label.rel;
    rel.provider = label.provider;
    train.emplace_back(info->link_id, link_class_of(label.link, rel));
  }
  result.training_links = train.size();

  // ---- Iterative classification ---------------------------------------------
  int iteration = 0;
  for (; iteration < params.max_iterations; ++iteration) {
    refresh_triplet_feature();

    // Estimate priors and conditionals from the training set under the
    // *current* dynamic features.
    std::array<double, kLinkClassCount> prior{};
    std::array<std::vector<std::array<double, kLinkClassCount>>,
               kFeatures.size()>
        conditional;
    for (std::size_t f = 0; f < kFeatures.size(); ++f) {
      conditional[f].assign(kFeatures[f].cardinality, {});
    }
    for (const auto& [index, cls] : train) {
      prior[cls] += 1.0;
      for (std::size_t f = 0; f < kFeatures.size(); ++f) {
        conditional[f][features[index].value[f]][cls] += 1.0;
      }
    }
    std::array<double, kLinkClassCount> log_prior{};
    const double total = prior[0] + prior[1] + prior[2];
    for (int c = 0; c < kLinkClassCount; ++c) {
      log_prior[c] = std::log((prior[c] + params.laplace) /
                              (total + kLinkClassCount * params.laplace));
    }
    std::array<std::vector<std::array<double, kLinkClassCount>>,
               kFeatures.size()>
        log_cond;
    for (std::size_t f = 0; f < kFeatures.size(); ++f) {
      log_cond[f].assign(kFeatures[f].cardinality, {});
      for (int v = 0; v < kFeatures[f].cardinality; ++v) {
        for (int c = 0; c < kLinkClassCount; ++c) {
          log_cond[f][v][c] =
              std::log((conditional[f][v][c] + params.laplace) /
                       (prior[c] + kFeatures[f].cardinality * params.laplace));
        }
      }
    }

    // Re-classify every link. Each link's verdict reads only the frozen
    // model and its own features, so the scores parallelize; the verdicts
    // are applied on the caller thread in link order below.
    struct Verdict {
      LinkClass best;
      double confidence;
    };
    const auto verdicts = core::parallel_map_ordered<Verdict>(
        pool, link_count, threads, [&](std::size_t i) {
          std::array<double, kLinkClassCount> score = log_prior;
          for (std::size_t f = 0; f < kFeatures.size(); ++f) {
            for (int c = 0; c < kLinkClassCount; ++c) {
              score[c] += log_cond[f][features[i].value[f]][c];
            }
          }
          const auto best = static_cast<LinkClass>(
              std::max_element(score.begin(), score.end()) - score.begin());
          // Normalized posterior of the winning class (softmax over the
          // three log scores, stabilized by the max).
          const double peak = score[best];
          double exp_total = 0;
          for (int c = 0; c < kLinkClassCount; ++c) {
            exp_total += std::exp(score[c] - peak);
          }
          return Verdict{best, 1.0 / exp_total};
        });

    std::size_t changed = 0;
    for (std::size_t i = 0; i < link_count; ++i) {
      result.confidence[links[i]] = verdicts[i].confidence;
      const InferredRel updated = rel_of_link_class(links[i], verdicts[i].best);
      const bool same = updated.rel == current[i].rel &&
                        (updated.rel != topo::RelType::kP2C ||
                         updated.provider == current[i].provider);
      if (!same) {
        current[i] = updated;
        ++changed;
      }
    }
    if (static_cast<double>(changed) <
        params.convergence_fraction * static_cast<double>(link_count)) {
      ++iteration;
      break;
    }
  }
  result.iterations_used = iteration;

  for (std::size_t i = 0; i < link_count; ++i) {
    result.inference.set(links[i], current[i]);
  }
  return result;
}

}  // namespace asrel::infer
