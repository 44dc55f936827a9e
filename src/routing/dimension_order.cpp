#include "routing/dimension_order.hpp"

#include <algorithm>

namespace genoc {

namespace {

constexpr std::size_t kX = 0;
constexpr std::size_t kY = 1;
/// Per axis, the out-name that decreases the coordinate (W, N) and the
/// one that increases it (E, S).
constexpr std::uint8_t kBackward[2] = {port_name_bit(PortName::kWest),
                                       port_name_bit(PortName::kNorth)};
constexpr std::uint8_t kForward[2] = {port_name_bit(PortName::kEast),
                                      port_name_bit(PortName::kSouth)};

/// Signed displacement from \p from to \p to, both positions on an axis
/// of size \p extent: plain, or the shortest way round a followed wrap —
/// in (-extent/2, extent/2], ties toward the positive direction. No
/// modulo: it is the hot call of the sweeps, and |to - from| < extent.
inline std::int32_t shortest_delta(std::int32_t from, std::int32_t to,
                                   std::int32_t extent, bool wrap) {
  if (!wrap) {
    return to - from;
  }
  std::int32_t forward = to - from;
  if (forward < 0) {
    forward += extent;
  }
  return forward <= extent / 2 ? forward : forward - extent;
}

}  // namespace

DimensionOrderRouting::DimensionOrderRouting(const Mesh2D& mesh,
                                             AxisOrder order,
                                             bool follow_wraps)
    : RoutingFunction(mesh),
      extent_{mesh.width(), mesh.height()},
      wrap_{follow_wraps && mesh.wraps_x(), follow_wraps && mesh.wraps_y()},
      first_(order == AxisOrder::kXFirst ? kX : kY) {}

bool DimensionOrderRouting::is_minimal() const {
  return wrap_[kX] == mesh().wraps_x() && wrap_[kY] == mesh().wraps_y();
}

std::uint8_t DimensionOrderRouting::node_out_mask(std::int32_t x,
                                                  std::int32_t y,
                                                  const Port& dest) const {
  const std::int32_t delta[2] = {
      shortest_delta(x, dest.x, extent_[kX], wrap_[kX]),
      shortest_delta(y, dest.y, extent_[kY], wrap_[kY])};
  const std::size_t second = 1 - first_;
  if (delta[first_] < 0) {
    return kBackward[first_];
  }
  if (delta[first_] > 0) {
    return kForward[first_];
  }
  if (delta[second] < 0) {
    return kBackward[second];
  }
  if (delta[second] > 0) {
    return kForward[second];
  }
  return port_name_bit(PortName::kLocal);
}

DimensionOrderRouting::Rect DimensionOrderRouting::in_port_rect(
    std::int32_t x, std::int32_t y, PortName name) const {
  const std::int32_t pos[2] = {x, y};
  // Every displacement a destination can have from position p: the
  // shortest-way range on a followed wrap, the boundary range otherwise.
  const auto full_span = [&](std::size_t axis, std::int32_t p) -> Span {
    if (wrap_[axis]) {
      return {extent_[axis] / 2 + 1 - extent_[axis], extent_[axis] / 2};
    }
    return {-p, extent_[axis] - 1 - p};
  };
  Rect rect{full_span(kX, x), full_span(kY, y)};
  if (name == PortName::kLocal) {
    return rect;  // injection: any destination
  }
  // A cardinal in-port is fed along one axis by the neighbour's forward
  // (W,IN and N,IN: eastbound, southbound) or backward out-port. The
  // upstream node chose that port because its displacement had that sign,
  // and the hop takes one off it; a plain axis has no upstream node at its
  // boundary.
  const std::size_t axis =
      name == PortName::kWest || name == PortName::kEast ? kX : kY;
  const bool fed_forward = name == PortName::kWest || name == PortName::kNorth;
  const std::int32_t p = pos[axis];
  Span arrived{0, -1};
  if (fed_forward && (wrap_[axis] || p > 0)) {
    const Span up = full_span(axis, p - 1);
    arrived = {std::max(up.lo, 1) - 1, up.hi - 1};
  } else if (!fed_forward && (wrap_[axis] || p < extent_[axis] - 1)) {
    const Span up = full_span(axis, p + 1);
    arrived = {up.lo + 1, std::min(up.hi, -1) + 1};
  }
  rect[axis] = arrived;
  if (axis != first_) {
    rect[first_] = {0, 0};  // the first axis is already corrected
  }
  return rect;
}

std::uint64_t DimensionOrderRouting::in_port_union(std::size_t node,
                                                   std::size_t in_name) const {
  const auto width = static_cast<std::size_t>(extent_[kX]);
  const Rect rect = in_port_rect(static_cast<std::int32_t>(node % width),
                                 static_cast<std::int32_t>(node / width),
                                 static_cast<PortName>(in_name));
  const Span first = rect[first_];
  const Span second = rect[1 - first_];
  if (first.lo > first.hi || second.lo > second.hi) {
    return 0;  // no message ever holds this in-port
  }
  std::uint64_t mask = 0;
  if (first.lo < 0) {
    mask |= kBackward[first_];
  }
  if (first.hi > 0) {
    mask |= kForward[first_];
  }
  if (first.contains(0)) {
    if (second.lo < 0) {
      mask |= kBackward[1 - first_];
    }
    if (second.hi > 0) {
      mask |= kForward[1 - first_];
    }
    mask |= port_name_bit(PortName::kLocal);
  }
  return mask;
}

bool DimensionOrderRouting::reachable(const Port& s, const Port& d) const {
  if (mesh().has_faults()) {
    return closure_reachable(s, d);
  }
  if (!valid_endpoints(s, d)) {
    return false;
  }
  if (s.dir == Direction::kOut && s.name == PortName::kLocal) {
    return s == d;  // arrived
  }
  // A cardinal OUT port holds exactly what the in-port across its link
  // receives.
  const Port in = s.dir == Direction::kOut ? mesh().next_in(s) : s;
  const Rect rect = in_port_rect(in.x, in.y, in.name);
  return rect[kX].contains(
             shortest_delta(in.x, d.x, extent_[kX], wrap_[kX])) &&
         rect[kY].contains(
             shortest_delta(in.y, d.y, extent_[kY], wrap_[kY]));
}

}  // namespace genoc
