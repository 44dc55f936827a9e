/// \file fully_adaptive.hpp
/// \brief Unrestricted minimal fully-adaptive routing — the deliberately
///        deadlock-PRONE baseline.
///
/// Every productive direction is allowed at every switch. Its port
/// dependency graph contains cycles on any mesh with a 2x2 sub-block, so
/// Theorem 1's sufficiency direction applies: from any such cycle the
/// witness builder constructs a concrete deadlock configuration, which the
/// simulator confirms (Ω holds). This closes the loop on the paper's
/// "deadlock-free iff acyclic" equivalence from the negative side.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class FullyAdaptiveRouting final : public RoutingFunction {
 public:
  explicit FullyAdaptiveRouting(const Mesh2D& mesh) : RoutingFunction(mesh) {}

  std::string name() const override { return "Fully-Adaptive"; }
  bool is_deterministic() const override { return false; }

  /// Every productive direction from every in-port: node-level by
  /// definition.
  bool node_uniform() const override { return true; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;
};

}  // namespace genoc
