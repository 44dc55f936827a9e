#include "routing/torus_xy.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace genoc {

namespace {

/// An inclusive range [lo, hi] of signed displacements along one axis;
/// empty when lo > hi.
struct Span {
  std::int32_t lo;
  std::int32_t hi;
};

/// Every displacement a destination can have from position \p pos: the
/// shortest-way range (ties forward) on a wrapped axis, the boundary range
/// on a plain one.
Span full_span(std::int32_t pos, std::int32_t extent, bool wrap) {
  if (wrap) {
    return {extent / 2 + 1 - extent, extent / 2};
  }
  return {-pos, extent - 1 - pos};
}

/// The displacements a message holds on arriving at \p pos by a forward
/// (+1) hop: the upstream node chose the forward port because its
/// displacement was positive, and the hop takes one off it. A plain axis
/// has no upstream node at position 0.
Span arrived_forward(std::int32_t pos, std::int32_t extent, bool wrap) {
  if (!wrap && pos == 0) {
    return {0, -1};
  }
  const Span up = full_span(pos - 1, extent, wrap);
  return {std::max(up.lo, 1) - 1, up.hi - 1};
}

/// Mirror of arrived_forward for a backward (-1) hop.
Span arrived_backward(std::int32_t pos, std::int32_t extent, bool wrap) {
  if (!wrap && pos == extent - 1) {
    return {0, -1};
  }
  const Span up = full_span(pos + 1, extent, wrap);
  return {up.lo + 1, std::min(up.hi, -1) + 1};
}

/// The out-names dimension order selects over a rectangle of
/// displacements: W/E while dx is nonzero, then N/S while dy is, then
/// delivery.
std::uint64_t names_selected(Span dx, Span dy) {
  if (dx.lo > dx.hi || dy.lo > dy.hi) {
    return 0;  // no message ever holds this in-port
  }
  std::uint64_t mask = 0;
  if (dx.lo < 0) {
    mask |= port_name_bit(PortName::kWest);
  }
  if (dx.hi > 0) {
    mask |= port_name_bit(PortName::kEast);
  }
  if (dx.lo <= 0 && dx.hi >= 0) {
    if (dy.lo < 0) {
      mask |= port_name_bit(PortName::kNorth);
    }
    if (dy.hi > 0) {
      mask |= port_name_bit(PortName::kSouth);
    }
    mask |= port_name_bit(PortName::kLocal);
  }
  return mask;
}

}  // namespace

TorusXYRouting::TorusXYRouting(const Mesh2D& mesh) : RoutingFunction(mesh) {
  GENOC_REQUIRE(mesh.wraps_x() || mesh.wraps_y(),
                "TorusXYRouting needs a wrapped dimension; use XYRouting on "
                "plain meshes");
}

std::int32_t TorusXYRouting::shortest_delta(std::int32_t from,
                                            std::int32_t to,
                                            std::int32_t extent, bool wrap) {
  if (!wrap) {
    return to - from;
  }
  std::int32_t forward = (to - from) % extent;
  if (forward < 0) {
    forward += extent;
  }
  // forward in [0, extent); take the shorter way, ties forward (positive).
  return forward <= extent / 2 ? forward : forward - extent;
}

void TorusXYRouting::append_next_hops(const Port& current, const Port& dest,
                                      std::vector<Port>& out) const {
  if (current.dir == Direction::kOut) {
    if (current.name != PortName::kLocal) {
      out.push_back(mesh().next_in(current));
    }
    return;
  }
  const PortName choice = [&] {
    const std::int32_t dx = shortest_delta(current.x, dest.x, mesh().width(),
                                           mesh().wraps_x());
    const std::int32_t dy = shortest_delta(current.y, dest.y, mesh().height(),
                                           mesh().wraps_y());
    if (dx < 0) {
      return PortName::kWest;
    }
    if (dx > 0) {
      return PortName::kEast;
    }
    if (dy < 0) {
      return PortName::kNorth;
    }
    if (dy > 0) {
      return PortName::kSouth;
    }
    return PortName::kLocal;
  }();
  out.push_back(trans(current, choice, Direction::kOut));
}

std::uint8_t TorusXYRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                           const Port& dest) const {
  const std::int32_t dx =
      shortest_delta(x, dest.x, mesh().width(), mesh().wraps_x());
  const std::int32_t dy =
      shortest_delta(y, dest.y, mesh().height(), mesh().wraps_y());
  if (dx < 0) {
    return port_name_bit(PortName::kWest);
  }
  if (dx > 0) {
    return port_name_bit(PortName::kEast);
  }
  if (dy < 0) {
    return port_name_bit(PortName::kNorth);
  }
  if (dy > 0) {
    return port_name_bit(PortName::kSouth);
  }
  return port_name_bit(PortName::kLocal);
}

std::uint64_t TorusXYRouting::in_port_union(std::size_t node,
                                            std::size_t in_name) const {
  // Per axis, the range of displacements a message can hold at this
  // in-port; the union is what dimension order selects over that
  // rectangle. The in-ports of the x-phase (and injection) hold any y
  // displacement; the y-phase ones have already corrected x.
  const Mesh2D& m = mesh();
  const auto row = static_cast<std::size_t>(m.width());
  const auto x = static_cast<std::int32_t>(node % row);
  const auto y = static_cast<std::int32_t>(node / row);
  const Span any_dx = full_span(x, m.width(), m.wraps_x());
  const Span any_dy = full_span(y, m.height(), m.wraps_y());
  constexpr Span kAligned{0, 0};
  switch (static_cast<PortName>(in_name)) {
    case PortName::kLocal:  // injection: any destination
      return names_selected(any_dx, any_dy);
    case PortName::kWest:  // eastbound
      return names_selected(arrived_forward(x, m.width(), m.wraps_x()),
                            any_dy);
    case PortName::kEast:  // westbound
      return names_selected(arrived_backward(x, m.width(), m.wraps_x()),
                            any_dy);
    case PortName::kNorth:  // southbound, column locked
      return names_selected(kAligned,
                            arrived_forward(y, m.height(), m.wraps_y()));
    case PortName::kSouth:  // northbound, column locked
      return names_selected(kAligned,
                            arrived_backward(y, m.height(), m.wraps_y()));
  }
  return 0;
}

}  // namespace genoc
