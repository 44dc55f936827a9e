/// \file torus_xy.hpp
/// \brief Dimension-order routing on a torus: XY with shortest-way wrap.
///
/// On wrapped dimensions the packet takes the shorter ring direction (ties
/// break East/South, keeping the function deterministic). This is the
/// textbook example of a TOPOLOGY-induced deadlock: even though the routing
/// is dimension-ordered, the wrap links close each ring's dependency cycle,
/// so (C-3) fails and Theorem 1's sufficiency direction yields concrete
/// wormhole deadlocks. The classic fixes are dateline virtual channels or —
/// in this library's terms — an escape lane routed by plain (non-wrapping)
/// mesh XY, which analyze_escape() proves sufficient.
#pragma once

#include "routing/dimension_order.hpp"
#include "util/require.hpp"

namespace genoc {

class TorusXYRouting final : public DimensionOrderRouting {
 public:
  /// Requires the mesh to wrap in at least one dimension (otherwise this
  /// is exactly XYRouting — use that instead).
  explicit TorusXYRouting(const Mesh2D& mesh)
      : DimensionOrderRouting(mesh, AxisOrder::kXFirst, true) {
    GENOC_REQUIRE(mesh.wraps_x() || mesh.wraps_y(),
                  "TorusXYRouting needs a wrapped dimension; use XYRouting "
                  "on plain meshes");
  }

  std::string name() const override { return "Torus-XY"; }
};

}  // namespace genoc
