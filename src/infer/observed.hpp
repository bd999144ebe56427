// The observed world: sanitized collector paths and the statistics every
// inference algorithm consumes (visible links, node/transit degrees, VP
// visibility). Inference algorithms operate on *this* view only — they never
// touch the ground-truth graph, mirroring how the real tools consume
// Route Views / RIS dumps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "asn/asn.hpp"
#include "bgp/propagation.hpp"
#include "validation/label.hpp"

namespace asrel::infer {

using val::AsLink;

struct SanitizeStats {
  std::size_t input_paths = 0;
  std::size_t dropped_loop = 0;
  std::size_t dropped_reserved = 0;  ///< AS_TRANS / private / documentation
  std::size_t dropped_empty = 0;     ///< paths without a single AS
  std::size_t kept = 0;
};

/// Dense AS index local to the observed data set.
using AsIndex = std::uint32_t;
inline constexpr AsIndex kNoAs = ~AsIndex{0};

struct LinkInfo {
  std::uint32_t link_id = 0;      ///< dense id
  std::uint32_t occurrences = 0;  ///< path positions where the link appears
  std::uint16_t vp_count = 0;     ///< distinct VPs that observed the link
};

/// Dense endpoints of a link: `a` is the AsIndex of `link_order()[id].a`
/// (the smaller ASN), `b` that of `.b`. Since AsIndex ascends with the ASN,
/// `a < b` always holds.
struct LinkEnds {
  AsIndex a = kNoAs;
  AsIndex b = kNoAs;
};

/// One first-hop neighbor of a vantage point and the number of kept paths
/// of that VP that leave through it.
struct FirstHop {
  AsIndex neighbor = kNoAs;
  std::uint32_t count = 0;
};

// Dense ids (DESIGN.md, "Dense ids of the observed view"):
//  * AsIndex numbers the observed ASes in ascending ASN order.
//  * link_id numbers the links in first-seen order: kept paths in
//    for_each_path order, hops of a path left to right.
//  * Hop k of path p (joining path(p)[k] and path(p)[k+1]) is stored as one
//    u32, `link_id << 1 | forward`, where forward means path(p)[k] is the
//    link's `a` end. The entry doubles as the index of the *directed* pair
//    (path(p)[k] -> path(p)[k+1]) over 2 x link_count(); `entry ^ 1` is the
//    reverse direction.

class ObservedPaths {
 public:
  /// Sanitization (the first step of every published pipeline):
  ///  * prepending collapsed,
  ///  * paths with loops (non-consecutive repeats) dropped,
  ///  * paths containing reserved ASNs or AS_TRANS dropped.
  [[nodiscard]] static ObservedPaths build(const bgp::PathTable& table,
                                           SanitizeStats* stats = nullptr);

  // ---- paths ----
  [[nodiscard]] std::size_t path_count() const { return offsets_.size() - 1; }
  [[nodiscard]] std::span<const asn::Asn> path(std::size_t i) const {
    return std::span{arena_}.subspan(offsets_[i],
                                     offsets_[i + 1] - offsets_[i]);
  }
  [[nodiscard]] std::uint16_t vp_of_path(std::size_t i) const {
    return path_vp_[i];
  }
  /// Hop entries of path i, one per adjacent pair: path(i).size() - 1 of
  /// them. Kept paths are never empty, so hop k of path i sits at arena
  /// position offsets[i] - i + k.
  [[nodiscard]] std::span<const std::uint32_t> hops(std::size_t i) const {
    return std::span{hops_}.subspan(offsets_[i] - i,
                                    offsets_[i + 1] - offsets_[i] - 1);
  }
  [[nodiscard]] static std::uint32_t hop_link(std::uint32_t hop) {
    return hop >> 1;
  }
  [[nodiscard]] static bool hop_forward(std::uint32_t hop) {
    return (hop & 1U) != 0;
  }
  /// AsIndex of the AS a hop leaves from / arrives at.
  [[nodiscard]] AsIndex hop_from(std::uint32_t hop) const {
    const LinkEnds& ends = link_ends_[hop >> 1];
    return hop_forward(hop) ? ends.a : ends.b;
  }
  [[nodiscard]] AsIndex hop_to(std::uint32_t hop) const {
    const LinkEnds& ends = link_ends_[hop >> 1];
    return hop_forward(hop) ? ends.b : ends.a;
  }

  // ---- AS universe ----
  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] asn::Asn asn_at(AsIndex index) const { return ases_[index]; }
  [[nodiscard]] std::optional<AsIndex> index_of(asn::Asn asn) const;
  [[nodiscard]] std::span<const asn::Asn> ases() const { return ases_; }

  /// Number of distinct neighbors observed next to this AS while it is in
  /// the middle of a path — Luckie et al.'s "transit degree".
  [[nodiscard]] std::uint32_t transit_degree(AsIndex index) const {
    return transit_degree_[index];
  }
  [[nodiscard]] std::uint32_t node_degree(AsIndex index) const {
    return node_degree_[index];
  }

  /// ASes sorted by (transit degree desc, node degree desc, asn asc) — the
  /// processing order of the ASRank pipeline.
  [[nodiscard]] std::span<const AsIndex> rank_order() const { return rank_; }

  // ---- links ----
  [[nodiscard]] const std::unordered_map<AsLink, LinkInfo>& links() const {
    return links_;
  }
  [[nodiscard]] const LinkInfo* link(const AsLink& link) const;
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Links in deterministic (first-observed) order.
  [[nodiscard]] std::span<const AsLink> link_order() const {
    return link_order_;
  }
  [[nodiscard]] const LinkEnds& link_ends(std::uint32_t link_id) const {
    return link_ends_[link_id];
  }
  [[nodiscard]] const LinkInfo& link_info(std::uint32_t link_id) const {
    return link_info_[link_id];
  }

  // ---- vantage points ----
  [[nodiscard]] std::span<const asn::Asn> vp_asns() const { return vp_asns_; }
  [[nodiscard]] std::size_t vp_count() const { return vp_asns_.size(); }

  /// Distinct origins for which `neighbor` is the VP's first hop — the
  /// "full table?" signal used to infer VP-adjacent relationships.
  [[nodiscard]] std::uint32_t first_hop_count(std::uint16_t vp,
                                              asn::Asn neighbor) const;
  [[nodiscard]] std::uint32_t origin_count(std::uint16_t vp) const;
  /// Every first-hop neighbor of `vp`, ascending AsIndex.
  [[nodiscard]] std::span<const FirstHop> first_hops(std::uint16_t vp) const {
    return first_hops_[vp];
  }

 private:
  std::vector<asn::Asn> arena_;
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::uint16_t> path_vp_;
  std::vector<std::uint32_t> hops_;  // link_id << 1 | forward, per hop

  std::vector<asn::Asn> ases_;  // sorted
  std::vector<std::uint32_t> transit_degree_;
  std::vector<std::uint32_t> node_degree_;
  std::vector<AsIndex> rank_;

  std::unordered_map<AsLink, LinkInfo> links_;
  std::vector<AsLink> link_order_;
  std::vector<LinkEnds> link_ends_;
  std::vector<LinkInfo> link_info_;

  std::vector<asn::Asn> vp_asns_;
  std::vector<std::vector<FirstHop>> first_hops_;
  std::vector<std::uint32_t> origins_per_vp_;
};

}  // namespace asrel::infer
