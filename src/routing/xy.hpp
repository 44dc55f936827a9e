/// \file xy.hpp
/// \brief The paper's XY routing function Rxy (Section V.3).
#pragma once

#include "routing/dimension_order.hpp"

namespace genoc {

/// Packets are routed first along the x-axis to the correct column, then
/// along the y-axis to the correct node (HERMES' deterministic minimal
/// policy). At port level:
///
///   Rxy(p, d) = next_in(p)      if dir(p) = OUT
///             | trans(p, W,OUT) if x(d) < x(p)
///             | trans(p, E,OUT) if x(d) > x(p)
///             | trans(p, N,OUT) if y(d) < y(p)
///             | trans(p, S,OUT) if y(d) > y(p)
///             | trans(p, L,OUT) otherwise
///
/// On a wrapped grid XY ignores the wrap links (the escape lane of the
/// torus presets), so it never enters a wrap-fed port such as <0,y,W,IN>.
class XYRouting final : public DimensionOrderRouting {
 public:
  explicit XYRouting(const Mesh2D& mesh)
      : DimensionOrderRouting(mesh, AxisOrder::kXFirst, false) {}

  std::string name() const override { return "XY"; }
};

}  // namespace genoc
