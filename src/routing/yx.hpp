/// \file yx.hpp
/// \brief YX routing: the mirror of the paper's Rxy (vertical phase first,
///        then horizontal). Also deterministic, minimal, and deadlock-free;
///        used by the routing-comparison ablation and as a second instance
///        exercising the generic proof obligations.
#pragma once

#include "routing/dimension_order.hpp"

namespace genoc {

class YXRouting final : public DimensionOrderRouting {
 public:
  explicit YXRouting(const Mesh2D& mesh)
      : DimensionOrderRouting(mesh, AxisOrder::kYFirst, false) {}

  std::string name() const override { return "YX"; }
};

}  // namespace genoc
