// The answers serve_4k checks its responses against, computed straight
// from the Scenario, the three inference results and BiasAudit — never
// through QueryEngine, the snapshot builder or the flat image the server
// answers from. Bodies are laid out with the service's JSON writer, so a
// mismatch is a wrong value, not a formatting difference.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bias_audit.hpp"
#include "core/scenario.hpp"
#include "infer/inference.hpp"

namespace perfbench {

class ServeTruth {
 public:
  explicit ServeTruth(const asrel::core::Scenario& scenario);

  [[nodiscard]] std::string rel(asrel::asn::Asn a, asrel::asn::Asn b) const;
  [[nodiscard]] std::string as(asrel::asn::Asn asn) const;
  [[nodiscard]] std::string links(std::size_t limit) const;
  [[nodiscard]] std::string snapshot() const;
  [[nodiscard]] std::string coverage(bool regional) const;
  /// Tables 1-3: algorithm 0 = asrank, 1 = problink, 2 = toposcope.
  [[nodiscard]] std::string table(std::size_t algorithm) const;

  static constexpr const char* kAlgorithms[] = {"asrank", "problink",
                                                "toposcope"};

 private:
  struct Neighbors {
    std::uint32_t providers = 0, customers = 0, peers = 0, siblings = 0;
    std::uint32_t observed_links = 0, validated_links = 0;
  };

  const asrel::core::Scenario& scenario_;
  asrel::core::BiasAudit audit_;
  std::vector<asrel::infer::Inference> inferences_;
  std::unordered_map<asrel::val::AsLink, asrel::val::CleanLabel> validated_;
  std::unordered_map<asrel::asn::Asn, Neighbors> neighbors_;
  std::vector<std::uint32_t> cone_sizes_;
};

}  // namespace perfbench
