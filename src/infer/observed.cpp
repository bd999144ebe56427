#include "infer/observed.hpp"

#include <algorithm>
#include <bit>

namespace asrel::infer {

namespace {

using asn::Asn;

/// Open-addressing (linear probing) map from 64-bit keys to u32 values for
/// the per-hop interning loop, where std::unordered_map's node allocations
/// and bucket chains cost more than the work itself. `kEmpty` is never a
/// valid key: link keys pack two distinct 32-bit ASNs, first-hop keys a
/// 16-bit VP index.
class FlatIndex {
 public:
  FlatIndex() { rehash(std::size_t{1} << 10); }

  /// The value stored under `key`; inserts `fresh` first when absent.
  std::uint32_t& find_or_insert(std::uint64_t key, std::uint32_t fresh,
                                bool& inserted) {
    if (2 * (size_ + 1) > slots_.size()) rehash(slots_.size() * 2);
    std::size_t index = index_of(key);
    while (slots_[index].key != kEmpty) {
      if (slots_[index].key == key) {
        inserted = false;
        return slots_[index].value;
      }
      index = (index + 1) & mask_;
    }
    slots_[index] = Slot{key, fresh};
    ++size_;
    inserted = true;
    return slots_[index].value;
  }

  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) visit(slot.key, slot.value);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  // Key and value share a slot, so a probe touches one cache line.
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t value = 0;
  };

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    bool inserted = false;
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) find_or_insert(slot.key, slot.value, inserted);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

/// True when some AS occurs twice in `hops` (prepending already collapsed).
/// Quadratic, which beats hashing for the few hops a path has.
bool has_loop(std::span<const Asn> hops) {
  for (std::size_t i = 1; i < hops.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (hops[i] == hops[j]) return true;
    }
  }
  return false;
}

}  // namespace

ObservedPaths ObservedPaths::build(const bgp::PathTable& table,
                                   SanitizeStats* stats) {
  ObservedPaths out;
  SanitizeStats local;

  const auto vps = table.vantage_points();
  out.vp_asns_.reserve(vps.size());
  for (const auto& vp : vps) out.vp_asns_.push_back(vp.asn);
  out.origins_per_vp_.assign(vps.size(), 0);

  // Reserving the input's size up front keeps the arenas from doubling
  // (and copying) while they fill; capacity beyond the kept hops is never
  // touched, so it costs address space, not resident memory.
  std::size_t input_positions = 0;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    input_positions += ref.path.size();
  });
  out.arena_.reserve(input_positions);
  out.hops_.reserve(input_positions);
  out.offsets_.reserve(table.path_count() + 1);
  out.path_vp_.reserve(table.path_count());

  // One pass: sanitize, store the path, and intern its links. Per link:
  // occurrences, a VP bitmap (distinct VPs), and one "middle of a path" bit
  // per side (bit 0: the `a` end had a neighbor on both sides, bit 1: the
  // `b` end), from which transit degrees follow.
  const std::size_t vp_words = (vps.size() + 63) / 64;
  FlatIndex link_ids;
  FlatIndex first_hop_counts;  // vp << 32 | neighbor ASN -> paths
  std::vector<std::uint32_t> occurrences;
  std::vector<std::uint64_t> link_vps;
  std::vector<std::uint8_t> middle;
  std::vector<Asn> lone_ases;  // ASes of single-AS paths
  std::vector<Asn> hops;
  bool inserted = false;
  table.for_each_path([&](const bgp::PathTable::PathRef& ref) {
    ++local.input_paths;
    hops.clear();
    for (const Asn hop : ref.path) {
      if (hops.empty() || hops.back() != hop) hops.push_back(hop);
    }
    if (hops.empty()) {
      ++local.dropped_empty;
      return;
    }
    if (std::any_of(hops.begin(), hops.end(),
                    [](Asn hop) { return asn::is_reserved(hop); })) {
      ++local.dropped_reserved;
      return;
    }
    if (has_loop(hops)) {
      ++local.dropped_loop;
      return;
    }
    ++local.kept;
    const auto vp = static_cast<std::uint16_t>(ref.vp_index);
    out.arena_.insert(out.arena_.end(), hops.begin(), hops.end());
    out.offsets_.push_back(static_cast<std::uint32_t>(out.arena_.size()));
    out.path_vp_.push_back(vp);
    ++out.origins_per_vp_[vp];
    if (hops.size() == 1) {
      lone_ases.push_back(hops[0]);
      return;
    }
    ++first_hop_counts.find_or_insert(
        std::uint64_t{vp} << 32 | hops[1].value(), 0, inserted);

    const std::size_t last = hops.size() - 1;
    for (std::size_t k = 0; k < last; ++k) {
      const Asn x = hops[k];
      const Asn y = hops[k + 1];
      const bool forward = x < y;
      const std::uint64_t key =
          forward ? std::uint64_t{x.value()} << 32 | y.value()
                  : std::uint64_t{y.value()} << 32 | x.value();
      const std::uint32_t id = link_ids.find_or_insert(
          key, static_cast<std::uint32_t>(out.link_order_.size()), inserted);
      if (inserted) {
        out.link_order_.emplace_back(x, y);
        occurrences.push_back(0);
        middle.push_back(0);
        link_vps.resize(link_vps.size() + vp_words);
      }
      ++occurrences[id];
      link_vps[id * vp_words + vp / 64] |= std::uint64_t{1} << (vp % 64);
      if (k > 0) middle[id] |= forward ? 1 : 2;         // x is in the middle
      if (k + 1 < last) middle[id] |= forward ? 2 : 1;  // y is in the middle
      out.hops_.push_back(id << 1 | (forward ? 1U : 0U));
    }
  });

  // The AS universe: every link end and every AS of a single-AS path.
  out.ases_ = std::move(lone_ases);
  out.ases_.reserve(out.ases_.size() + 2 * out.link_order_.size());
  for (const AsLink& link : out.link_order_) {
    out.ases_.push_back(link.a);
    out.ases_.push_back(link.b);
  }
  std::sort(out.ases_.begin(), out.ases_.end());
  out.ases_.erase(std::unique(out.ases_.begin(), out.ases_.end()),
                  out.ases_.end());
  out.ases_.shrink_to_fit();
  const auto index_of = [&](Asn asn) {
    return static_cast<AsIndex>(
        std::lower_bound(out.ases_.begin(), out.ases_.end(), asn) -
        out.ases_.begin());
  };

  // Per-link tables; degrees follow from the link list, since every
  // distinct neighbor pair is exactly one link.
  const std::size_t n = out.ases_.size();
  const std::size_t link_count = out.link_order_.size();
  out.node_degree_.assign(n, 0);
  out.transit_degree_.assign(n, 0);
  out.link_ends_.resize(link_count);
  out.link_info_.resize(link_count);
  out.links_.reserve(link_count);
  for (std::uint32_t id = 0; id < link_count; ++id) {
    const AsLink& link = out.link_order_[id];
    LinkEnds& ends = out.link_ends_[id];
    ends.a = index_of(link.a);
    ends.b = index_of(link.b);
    ++out.node_degree_[ends.a];
    ++out.node_degree_[ends.b];
    if ((middle[id] & 1) != 0) ++out.transit_degree_[ends.a];
    if ((middle[id] & 2) != 0) ++out.transit_degree_[ends.b];
    int vp_count = 0;
    for (std::size_t w = 0; w < vp_words; ++w) {
      vp_count += std::popcount(link_vps[id * vp_words + w]);
    }
    LinkInfo& info = out.link_info_[id];
    info.link_id = id;
    info.occurrences = occurrences[id];
    info.vp_count = static_cast<std::uint16_t>(vp_count);
    out.links_.emplace(link, info);
  }

  out.first_hops_.resize(vps.size());
  first_hop_counts.for_each([&](std::uint64_t key, std::uint32_t count) {
    out.first_hops_[key >> 32].push_back(
        FirstHop{index_of(Asn{static_cast<std::uint32_t>(key)}), count});
  });
  for (auto& list : out.first_hops_) {
    std::sort(list.begin(), list.end(),
              [](const FirstHop& x, const FirstHop& y) {
                return x.neighbor < y.neighbor;
              });
  }

  out.rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.rank_[i] = static_cast<AsIndex>(i);
  std::sort(out.rank_.begin(), out.rank_.end(), [&](AsIndex a, AsIndex b) {
    if (out.transit_degree_[a] != out.transit_degree_[b]) {
      return out.transit_degree_[a] > out.transit_degree_[b];
    }
    if (out.node_degree_[a] != out.node_degree_[b]) {
      return out.node_degree_[a] > out.node_degree_[b];
    }
    return out.ases_[a] < out.ases_[b];
  });

  if (stats != nullptr) *stats = local;
  return out;
}

std::optional<AsIndex> ObservedPaths::index_of(asn::Asn asn) const {
  const auto it = std::lower_bound(ases_.begin(), ases_.end(), asn);
  if (it == ases_.end() || *it != asn) return std::nullopt;
  return static_cast<AsIndex>(it - ases_.begin());
}

const LinkInfo* ObservedPaths::link(const AsLink& link) const {
  const auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

std::uint32_t ObservedPaths::first_hop_count(std::uint16_t vp,
                                             asn::Asn neighbor) const {
  const auto index = index_of(neighbor);
  if (!index) return 0;
  const auto& list = first_hops_[vp];
  const auto it = std::lower_bound(
      list.begin(), list.end(), *index,
      [](const FirstHop& hop, AsIndex value) { return hop.neighbor < value; });
  return it == list.end() || it->neighbor != *index ? 0 : it->count;
}

std::uint32_t ObservedPaths::origin_count(std::uint16_t vp) const {
  return origins_per_vp_[vp];
}

}  // namespace asrel::infer
