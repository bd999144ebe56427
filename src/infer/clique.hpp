// Clique (provider-free Tier-1 core) inference, Luckie et al. 2013 style:
// run Bron-Kerbosch over the visible links among the top transit-degree
// ASes, keep the largest clique containing the #1 AS, then greedily extend
// with further ASes (in rank order) that link to every member.
#pragma once

#include <vector>

#include "asn/asn.hpp"
#include "infer/observed.hpp"

namespace asrel::infer {

/// The search keeps a triplet table over the top max(seed_pool,
/// extension_pool) ranks: 4 bytes per entry, ~844 KiB for the defaults.
struct CliqueParams {
  std::size_t seed_pool = 14;      ///< BK runs on the top-N by transit degree
  std::size_t extension_pool = 60; ///< ranks considered for greedy extension
};

/// Returns clique ASNs sorted ascending. Deterministic.
[[nodiscard]] std::vector<asn::Asn> infer_clique(const ObservedPaths& observed,
                                                 const CliqueParams& params);

}  // namespace asrel::infer
