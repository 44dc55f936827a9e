/// \file odd_even.hpp
/// \brief Odd-Even turn-model routing (Chiu), minimal variant.
///
/// Unlike West-First/North-Last, Odd-Even prohibits no direction globally;
/// instead turn legality depends on column parity: an East->North/East->South
/// turn may only be taken in an odd column (or when one column away from the
/// destination), and a North->West/South->West turn only in an even column.
/// This distributes adaptivity more evenly across the mesh while remaining
/// deadlock-free.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class OddEvenRouting final : public RoutingFunction {
 public:
  explicit OddEvenRouting(const Mesh2D& mesh) : RoutingFunction(mesh) {}

  std::string name() const override { return "Odd-Even"; }
  bool is_deterministic() const override { return false; }

  /// NOT node-uniform: turn legality reads the in-port name (the travel
  /// direction), so this is the one grid routing that writes its hops at
  /// port level, and the fast builder uses the generic port-level sweep.
  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const override;
};

}  // namespace genoc
