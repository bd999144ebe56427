#include "infer/clique.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

namespace asrel::infer {

namespace {

/// Exact Bron-Kerbosch (no pivoting; the pool is tiny) collecting the
/// largest clique in the pool.
void bron_kerbosch(const std::vector<std::vector<bool>>& adjacent,
                   std::vector<std::size_t>& current,
                   std::vector<std::size_t> candidates,
                   std::vector<std::size_t> excluded,
                   std::vector<std::size_t>& best) {
  if (candidates.empty() && excluded.empty()) {
    // Largest clique wins; ties resolve to the lexicographically smallest
    // (by pool rank) member set for determinism.
    if (current.size() > best.size() ||
        (current.size() == best.size() && current < best)) {
      best = current;
    }
    return;
  }
  // Iterate over a copy; candidates shrinks as we go.
  const std::vector<std::size_t> iteration = candidates;
  for (const std::size_t v : iteration) {
    std::vector<std::size_t> next_candidates;
    std::vector<std::size_t> next_excluded;
    for (const std::size_t u : candidates) {
      if (adjacent[v][u]) next_candidates.push_back(u);
    }
    for (const std::size_t u : excluded) {
      if (adjacent[v][u]) next_excluded.push_back(u);
    }
    current.push_back(v);
    bron_kerbosch(adjacent, current, std::move(next_candidates),
                  std::move(next_excluded), best);
    current.pop_back();
    candidates.erase(std::find(candidates.begin(), candidates.end(), v));
    excluded.push_back(v);
  }
}

constexpr std::uint32_t kTransitedThreshold = 2;

}  // namespace

std::vector<asn::Asn> infer_clique(const ObservedPaths& observed,
                                   const CliqueParams& params) {
  const auto rank = observed.rank_order();
  const std::size_t seed =
      std::min(params.seed_pool, static_cast<std::size_t>(rank.size()));
  if (seed == 0) return {};
  const std::size_t extension =
      std::min(params.extension_pool, static_cast<std::size_t>(rank.size()));
  // Every AS the search ever looks at, by rank position.
  const std::size_t pool = std::max(seed, extension);

  std::vector<std::vector<bool>> adjacent(pool, std::vector<bool>(pool));
  for (std::size_t i = 0; i < pool; ++i) {
    for (std::size_t j = i + 1; j < pool; ++j) {
      adjacent[i][j] = adjacent[j][i] =
          observed.link(AsLink{observed.asn_at(rank[i]),
                               observed.asn_at(rank[j])}) != nullptr;
    }
  }

  // Transit evidence: triplets[(u * pool + v) * pool + z] counts the path
  // positions where pool members u, v, z follow each other. How often z is
  // transited through two consecutive clique members is then the sum over
  // member pairs (u, v), for any clique, from this one scan of the paths.
  // Provider-free ASes never are; customers of clique members are.
  std::vector<std::int32_t> pool_position(observed.as_count(), -1);
  for (std::size_t i = 0; i < pool; ++i) {
    pool_position[rank[i]] = static_cast<std::int32_t>(i);
  }
  std::vector<std::array<std::int32_t, 2>> link_positions(
      observed.link_count());
  for (std::uint32_t id = 0; id < link_positions.size(); ++id) {
    const LinkEnds& ends = observed.link_ends(id);
    link_positions[id] = {pool_position[ends.a], pool_position[ends.b]};
  }
  const auto position_to = [&](std::uint32_t hop) {
    const auto& ends = link_positions[ObservedPaths::hop_link(hop)];
    return ObservedPaths::hop_forward(hop) ? ends[1] : ends[0];
  };
  std::vector<std::uint32_t> triplets(pool * pool * pool, 0);
  for (std::size_t p = 0; p < observed.path_count(); ++p) {
    const auto hops = observed.hops(p);
    if (hops.size() < 2) continue;
    const auto& first = link_positions[ObservedPaths::hop_link(hops[0])];
    std::int32_t u = ObservedPaths::hop_forward(hops[0]) ? first[0] : first[1];
    std::int32_t v = position_to(hops[0]);
    for (std::size_t k = 1; k < hops.size(); ++k) {
      const std::int32_t z = position_to(hops[k]);
      if (u >= 0 && v >= 0 && z >= 0) {
        ++triplets[(static_cast<std::size_t>(u) * pool +
                    static_cast<std::size_t>(v)) *
                       pool +
                   static_cast<std::size_t>(z)];
      }
      u = v;
      v = z;
    }
  }

  std::vector<std::size_t> current;
  std::vector<std::size_t> candidates(seed);
  for (std::size_t i = 0; i < seed; ++i) candidates[i] = i;
  std::vector<std::size_t> best;
  bron_kerbosch(adjacent, current, std::move(candidates), {}, best);
  if (best.empty()) best.push_back(0);  // degenerate: just the top AS

  // The clique as pool positions.
  std::vector<bool> in_clique(pool, false);
  std::vector<std::size_t> clique;
  for (const std::size_t i : best) in_clique[i] = true;
  const auto members = [&] {
    clique.clear();
    for (std::size_t i = 0; i < pool; ++i) {
      if (in_clique[i]) clique.push_back(i);
    }
  };
  members();
  const auto evidence = [&](std::size_t z) {
    std::uint32_t count = 0;
    for (const std::size_t u : clique) {
      for (const std::size_t v : clique) {
        count += triplets[(u * pool + v) * pool + z];
      }
    }
    return count;
  };

  // A member that receives transit *through* two other members is not
  // provider-free; purge the worst offender at a time so the evidence gets
  // cleaner as the seed purifies. Ties go to the smaller ASN.
  const auto purify = [&] {
    bool removed_any = false;
    while (clique.size() > 1) {
      std::size_t worst = 0;
      std::uint32_t worst_count = 0;
      for (const std::size_t member : clique) {
        const std::uint32_t count = evidence(member);
        if (count > worst_count ||
            (count == worst_count && count > 0 &&
             observed.asn_at(rank[member]) < observed.asn_at(rank[worst]))) {
          worst_count = count;
          worst = member;
        }
      }
      if (worst_count < kTransitedThreshold) break;
      in_clique[worst] = false;
      members();
      removed_any = true;
    }
    return removed_any;
  };

  // Greedy extension over the next ranks: fully linked to the current
  // clique and never transited through it.
  const auto extend = [&] {
    bool added_any = false;
    for (std::size_t i = 0; i < extension; ++i) {
      if (in_clique[i]) continue;
      const bool connected_to_all =
          std::all_of(clique.begin(), clique.end(),
                      [&](std::size_t member) { return adjacent[i][member]; });
      if (!connected_to_all) continue;
      if (evidence(i) >= kTransitedThreshold) continue;
      in_clique[i] = true;
      members();
      added_any = true;
    }
    return added_any;
  };

  // Alternate purification and extension until stable: a new member's
  // peering paths can expose an earlier member as a customer, and a purge
  // can unblock a candidate that failed the fully-linked test before.
  purify();
  for (int round = 0; round < 4; ++round) {
    const bool grew = extend();
    const bool shrank = purify();
    if (!grew && !shrank) break;
  }

  std::vector<asn::Asn> out;
  for (const std::size_t member : clique) {
    out.push_back(observed.asn_at(rank[member]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace asrel::infer
