/// \file dimension_order.hpp
/// \brief Dimension-order routing on 2D grids: XY, YX and Torus-XY as one
///        class.
///
/// A message first corrects its displacement along one axis, then along the
/// other, then is delivered. Per axis the displacement is either plain
/// (x(d) - x(s)) or, on a wrapped axis whose wrap links the routing follows,
/// the shortest way round with ties forward (East/South). Everything below —
/// the node mask, the in-port unions (the paper's Sec. V.6 next_outs table,
/// generalized) and the closed-form s R d — derives from that one signed
/// displacement per axis and the range of displacements an in-port can hold.
#pragma once

#include <array>

#include "routing/routing.hpp"

namespace genoc {

/// Which axis dimension order corrects first.
enum class AxisOrder : std::uint8_t { kXFirst, kYFirst };

class DimensionOrderRouting : public RoutingFunction {
 public:
  /// \p follow_wraps: take the grid's wrap links (shortest way on every
  /// wrapped axis) or ignore them (plain displacement, as on a mesh).
  DimensionOrderRouting(const Mesh2D& mesh, AxisOrder order,
                        bool follow_wraps);

  bool is_deterministic() const override { return true; }

  /// True iff the routing follows the wrap on every wrapped axis of the
  /// grid: one that ignores a wrap link takes the long way round whenever
  /// the wrap is shorter.
  bool is_minimal() const override;

  /// The choice reads only the node coordinates; the hops derive from it.
  bool node_uniform() const override { return true; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;

  /// Closed-form s R d on unfaulted grids: an IN port reaches d iff d's
  /// displacement lies in the in-port's span rectangle (see
  /// in_port_union); a cardinal OUT port reaches what the in-port across
  /// its link reaches; a Local OUT port only itself. Faulted grids fall
  /// back to the semantic closure (routes dead-end at the fault). Cross-
  /// validated against closure_reachable() in the test suite.
  bool reachable(const Port& s, const Port& d) const override;

  /// The union is what dimension order selects over the rectangle of
  /// displacements the in-port can hold: any on the injection port; on a
  /// first-axis in-port the arrival range along that axis (one hop off
  /// the upstream node's forward or backward range) and any on the other;
  /// on a second-axis in-port the arrival range with the first axis
  /// already corrected. Exact on every unfaulted grid; on a faulted grid
  /// routes dead-end at the fault and the full-grid ranges would
  /// over-approximate (faulted variants take the delta build).
  bool has_in_port_unions() const override { return !mesh().has_faults(); }
  std::uint64_t in_port_union(std::size_t node,
                              std::size_t in_name) const override;

 private:
  /// An inclusive range [lo, hi] of signed displacements along one axis;
  /// empty when lo > hi.
  struct Span {
    std::int32_t lo;
    std::int32_t hi;
    bool contains(std::int32_t v) const { return lo <= v && v <= hi; }
  };
  using Rect = std::array<Span, 2>;  ///< indexed by axis: 0 = x, 1 = y

  /// The displacements a message can hold in in-port \p name of (x, y).
  Rect in_port_rect(std::int32_t x, std::int32_t y, PortName name) const;

  std::int32_t extent_[2];
  bool wrap_[2];       ///< the routing follows this axis's wrap
  std::size_t first_;  ///< the axis corrected first
};

}  // namespace genoc
