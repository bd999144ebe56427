#include "infer/asrank.hpp"

#include <algorithm>
#include <numeric>

#include "obs/trace.hpp"

namespace asrel::infer {

namespace {

using asn::Asn;

AsRankResult run_impl(const ObservedPaths& observed,
                      const AsRankParams& params,
                      std::span<const std::uint32_t> path_ids,
                      std::span<const asn::Asn> clique_override,
                      bool subset_mode) {
  AsRankResult result;
  if (clique_override.empty()) {
    result.clique = infer_clique(observed, params.clique);
  } else {
    result.clique.assign(clique_override.begin(), clique_override.end());
  }
  std::vector<bool> clique_set(observed.as_count(), false);
  for (const Asn member : result.clique) {
    if (const auto index = observed.index_of(member)) clique_set[*index] = true;
  }

  // Everything below is indexed by hop entry (DESIGN.md, "Dense ids of the
  // observed view"): entry e = link_id << 1 | forward names the directed pair
  // a hop traverses, and e ^ 1 its reverse. One state byte per directed
  // pair keeps what a sweep reads next to what it writes.
  //
  // Directed provider->customer evidence: `kInferred` marks pairs accepted
  // as descents (continuation triggers); `votes` counts supporting path
  // positions for majority resolution. A pair inferred in *both* directions
  // (siblings, mutual-transit artifacts) is ambiguous and must never act as
  // a descent trigger: treating it as one lets an ascending occurrence start
  // a bogus descent that cascades up entire provider chains.
  constexpr std::uint8_t kInferred = 1;
  constexpr std::uint8_t kFromClique = 2;  // the pair starts at a member
  constexpr std::uint8_t kToClique = 4;    // the pair ends at a member
  constexpr std::uint8_t kCliquePair = kFromClique | kToClique;
  const std::size_t link_count = observed.link_count();
  std::vector<std::uint8_t> state(2 * link_count, 0);
  for (std::uint32_t id = 0; id < link_count; ++id) {
    const LinkEnds& ends = observed.link_ends(id);
    const bool a = clique_set[ends.a];
    const bool b = clique_set[ends.b];
    state[id << 1 | 1] =  // a -> b
        static_cast<std::uint8_t>((a ? kFromClique : 0) | (b ? kToClique : 0));
    state[id << 1] =  // b -> a
        static_cast<std::uint8_t>((b ? kFromClique : 0) | (a ? kToClique : 0));
  }
  std::vector<std::uint32_t> votes(2 * link_count, 0);

  // Full runs sweep every path in order; subset runs sweep `path_ids`.
  const auto for_each_path = [&](auto&& visit) {
    if (subset_mode) {
      for (const std::uint32_t p : path_ids) visit(p);
    } else {
      const auto count = static_cast<std::uint32_t>(observed.path_count());
      for (std::uint32_t p = 0; p < count; ++p) visit(p);
    }
  };

  // One sweep over the paths. Always extends the inferred set; only counts
  // votes when `record` is set (the final sweep, once the trigger set is
  // stable and self-consistent — early sweeps can contain transient bad
  // triggers). The sweep is Gauss-Seidel: a pair inferred early in the
  // sweep already triggers (or, inferred in reverse, disarms) descents later
  // in the same sweep, so the path order is part of the result.
  const auto descent_pass = [&](bool record) {
    std::size_t newly_inferred = 0;
    for_each_path([&](std::uint32_t p) {
      bool descending = false;
      for (const std::uint32_t hop : observed.hops(p)) {
        const std::uint8_t pair = state[hop];
        if (descending) {
          // Consistency guard: no valley-free descent ever enters a clique
          // member (it is provider-free). Hitting one means the descent was
          // started by a bad trigger — abandon it instead of voting
          // "x provides a Tier-1" and cascading garbage.
          if ((pair & kToClique) != 0) {
            descending = false;
            continue;
          }
          if ((pair & kInferred) == 0) {
            state[hop] = pair | kInferred;
            ++newly_inferred;
          }
          if (record) ++votes[hop];
          continue;
        }
        if ((pair & kCliquePair) == kCliquePair) {
          descending = true;  // peak crossed; votes start at the next pair
          continue;
        }
        if ((pair & kInferred) != 0 && (state[hop ^ 1] & kInferred) == 0) {
          descending = true;  // known descent continues after this pair
        }
      }
    });
    return newly_inferred != 0;
  };

  // ---- Step 4: clique-pair seeded descents, to a fixpoint ----------------
  int pass = 0;
  for (; pass < params.max_passes; ++pass) {
    if (!descent_pass(/*record=*/false)) break;
  }
  result.passes_used = pass + 1;

  const double widely_seen_vps =
      params.stub_provider_vp_share * static_cast<double>(observed.vp_count());

  // ---- Step 5: dominant peaks of clique-free paths -----------------------
  {
    bool seeded = false;
    for_each_path([&](std::uint32_t p) {
      const auto hops = observed.hops(p);
      if (hops.size() < 2) return;
      bool touches_clique = false;
      for (const std::uint32_t hop : hops) {
        if ((state[hop] & kCliquePair) != 0) {
          touches_clique = true;
          break;
        }
      }
      if (touches_clique) return;

      // The peak is the first position of maximal transit degree; position
      // k > 0 is the far end of hop k - 1.
      std::size_t peak = 0;
      std::uint32_t peak_td =
          observed.transit_degree(observed.hop_from(hops[0]));
      for (std::size_t k = 0; k < hops.size(); ++k) {
        const std::uint32_t td =
            observed.transit_degree(observed.hop_to(hops[k]));
        if (td > peak_td) {
          peak_td = td;
          peak = k + 1;
        }
      }
      if (peak >= hops.size()) return;
      if (peak_td < params.peak_min_transit_degree) return;
      const std::uint32_t right_td =
          observed.transit_degree(observed.hop_to(hops[peak]));
      if (static_cast<double>(peak_td) <
          params.peak_degree_ratio * std::max(1u, right_td)) {
        return;
      }
      // Visibility gate: a transit link below a peak is seen by most
      // collectors; a peering link is only seen from inside the peak's
      // customer cone. Without this, IXP peers of regional transits would
      // be swallowed as customers.
      const std::uint32_t hop = hops[peak];
      if (static_cast<double>(
              observed.link_info(ObservedPaths::hop_link(hop)).vp_count) <
          widely_seen_vps) {
        return;
      }
      state[hop] |= kInferred;
      ++votes[hop];
      seeded = true;
    });
    if (seeded) {
      for (int extra = 0; extra < params.max_passes; ++extra) {
        if (!descent_pass(/*record=*/false)) break;
      }
    }
  }

  // ---- Final vote sweep: the trigger set is stable, count the evidence ----
  descent_pass(/*record=*/true);

  // ---- Step 6: relationships of vantage points from feed sizes ------------
  // A VP's first-hop coverage tells how much of a table each neighbor gives
  // it: a (near) full table marks a provider, a small slice marks a peer
  // announcing only its own cone (Luckie et al. classify collector-peer
  // sessions the same way). Customer sessions are left to the descent votes.
  // No sweep follows, so this step adds votes and peer marks only, without
  // growing the inferred set. Step 7 reads them for observed links alone,
  // so a (neighbor, VP) pair that is not an observed link is skipped.
  std::vector<bool> vp_peer_links(subset_mode ? 0 : link_count, false);
  if (!subset_mode) {
    for (std::uint16_t vp = 0; vp < observed.vp_count(); ++vp) {
      const Asn vp_asn = observed.vp_asns()[vp];
      const std::uint32_t origins = observed.origin_count(vp);
      if (origins == 0) continue;
      const auto vp_index = observed.index_of(vp_asn);
      if (!vp_index || clique_set[*vp_index]) continue;
      for (const FirstHop& first : observed.first_hops(vp)) {
        // Clique neighbors are judged by triplet evidence only: a Tier-1
        // peer's customer cone can rival a backup provider's selected share,
        // so feed size cannot separate the two.
        if (clique_set[first.neighbor]) continue;
        if (first.count < params.vp_min_first_hops) continue;
        const Asn neighbor = observed.asn_at(first.neighbor);
        const auto* info = observed.link(AsLink{vp_asn, neighbor});
        if (info == nullptr) continue;
        const double share =
            static_cast<double>(first.count) / static_cast<double>(origins);
        if (share >= params.vp_full_table_share) {
          // neighbor -> VP: forward iff the neighbor is the link's `a` end.
          const std::uint32_t hop =
              info->link_id << 1 | (neighbor < vp_asn ? 1U : 0U);
          votes[hop] += 2;  // full table: provider
        } else if (share <= params.vp_peer_max_share) {
          vp_peer_links[info->link_id] = true;
        }
      }
    }
  }

  // ---- Step 7: per-link resolution ----------------------------------------
  // Subset runs label only the links their paths actually contain, in
  // first-seen order over their paths.
  std::vector<std::uint32_t> scope;
  if (subset_mode) {
    std::vector<bool> seen(link_count, false);
    for (const std::uint32_t p : path_ids) {
      for (const std::uint32_t hop : observed.hops(p)) {
        const std::uint32_t id = ObservedPaths::hop_link(hop);
        if (!seen[id]) {
          seen[id] = true;
          scope.push_back(id);
        }
      }
    }
  } else {
    scope.resize(link_count);
    std::iota(scope.begin(), scope.end(), 0u);
  }

  const auto links = observed.link_order();
  for (const std::uint32_t id : scope) {
    const AsLink& link = links[id];
    const LinkEnds& ends = observed.link_ends(id);
    InferredRel rel;
    const bool a_clique = clique_set[ends.a];
    const bool b_clique = clique_set[ends.b];
    if (a_clique && b_clique) {
      rel.rel = topo::RelType::kP2P;
      result.inference.set(link, rel);
      continue;
    }
    const std::uint32_t va = votes[id << 1 | 1];  // a -> b
    const std::uint32_t vb = votes[id << 1];      // b -> a
    if (va > vb) {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.a;
    } else if (vb > va) {
      rel.rel = topo::RelType::kP2C;
      rel.provider = link.b;
    } else if (va > 0) {
      rel.rel = topo::RelType::kP2P;  // perfectly conflicting evidence
    } else if (!subset_mode && vp_peer_links[id]) {
      rel.rel = topo::RelType::kP2P;  // small feed into a collector peer
    } else {
      // No votes at all.
      const std::uint32_t ta = observed.transit_degree(ends.a);
      const std::uint32_t tb = observed.transit_degree(ends.b);
      const bool widely_seen =
          static_cast<double>(observed.link_info(id).vp_count) >=
          widely_seen_vps;
      if ((a_clique && tb <= params.clique_customer_td_max) ||
          (b_clique && ta <= params.clique_customer_td_max)) {
        // Clique-adjacent small AS: assumed customer. This is precisely the
        // aggregation error behind the paper's S-T1 finding.
        rel.rel = topo::RelType::kP2C;
        rel.provider = a_clique ? link.a : link.b;
      } else if (ta == 0 && tb > 0 && widely_seen) {
        rel.rel = topo::RelType::kP2C;  // broadly visible stub uplink
        rel.provider = link.b;
      } else if (tb == 0 && ta > 0 && widely_seen) {
        rel.rel = topo::RelType::kP2C;
        rel.provider = link.a;
      } else {
        rel.rel = topo::RelType::kP2P;
      }
    }
    result.inference.set(link, rel);
  }
  return result;
}

}  // namespace

AsRankResult run_asrank(const ObservedPaths& observed,
                        const AsRankParams& params) {
  obs::StageScope stage{"infer.asrank"};
  return run_impl(observed, params, {}, {}, /*subset_mode=*/false);
}

AsRankResult run_asrank_subset(const ObservedPaths& observed,
                               const AsRankParams& params,
                               std::span<const std::uint32_t> path_ids,
                               std::span<const asn::Asn> clique_override) {
  return run_impl(observed, params, path_ids, clique_override,
                  /*subset_mode=*/true);
}

}  // namespace asrel::infer
