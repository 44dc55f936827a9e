// The hop sets of the node-uniform routings, pinned by digest.
//
// The seven node-uniform grid routings state their decision once, as
// node_out_mask(); append_next_hops derives the Port-level hops from it.
// The digests below were recorded from the earlier hand-written Port-level
// formulas, so they are the reference for every hop and for the ORDER of
// the hops: a changed, missing, extra or reordered hop on any (port,
// destination) pair of any shape changes the digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "routing/fully_adaptive.hpp"
#include "routing/negative_first.hpp"
#include "routing/north_last.hpp"
#include "routing/torus_xy.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"

namespace genoc {
namespace {

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void add(std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(const Port& p) {
    add(p.x);
    add(p.y);
    add(static_cast<std::int64_t>(p.name));
    add(static_cast<std::int64_t>(p.dir));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

using MakeRouting =
    std::function<std::unique_ptr<RoutingFunction>(const Mesh2D&)>;

template <typename R>
MakeRouting maker() {
  return [](const Mesh2D& mesh) { return std::make_unique<R>(mesh); };
}

/// Every shape up to 9x9 with the given wrap flags: a grid needs two
/// nodes, and so does a wrapped axis.
std::vector<Mesh2D> shapes(bool wrap_x, bool wrap_y) {
  std::vector<Mesh2D> out;
  for (std::int32_t width = 1; width <= 9; ++width) {
    for (std::int32_t height = 1; height <= 9; ++height) {
      if (width * height < 2 || (wrap_x && width < 2) ||
          (wrap_y && height < 2)) {
        continue;
      }
      out.emplace_back(width, height, wrap_x, wrap_y);
    }
  }
  return out;
}

/// Digest of (shape, port, destination, next_hops) over every existing
/// port and destination of every shape.
std::uint64_t hop_digest(const MakeRouting& make,
                         const std::vector<Mesh2D>& meshes) {
  Fnv1a digest;
  std::vector<Port> hops;
  for (const Mesh2D& mesh : meshes) {
    digest.add(mesh.width());
    digest.add(mesh.height());
    digest.add(mesh.wraps_x());
    digest.add(mesh.wraps_y());
    const auto routing = make(mesh);
    for (const Port& p : mesh.ports()) {
      for (const Port& d : mesh.destinations()) {
        hops.clear();
        routing->append_next_hops(p, d, hops);
        digest.add(p);
        digest.add(d);
        digest.add(static_cast<std::int64_t>(hops.size()));
        for (const Port& hop : hops) {
          digest.add(hop);
        }
      }
    }
  }
  return digest.value();
}

std::vector<Mesh2D> wrapped_shapes() {
  std::vector<Mesh2D> out = shapes(true, true);
  for (auto& ring : shapes(true, false)) {
    out.push_back(std::move(ring));
  }
  for (auto& ring : shapes(false, true)) {
    out.push_back(std::move(ring));
  }
  return out;
}

TEST(HopDigest, NodeUniformRoutingsOnEveryMeshShape) {
  const std::vector<Mesh2D> meshes = shapes(false, false);
  ASSERT_EQ(meshes.size(), 80u);
  const struct {
    const char* name;
    MakeRouting make;
    std::uint64_t digest;
  } cases[] = {
      {"XY", maker<XYRouting>(), 10270628121124968485ull},
      {"YX", maker<YXRouting>(), 4111625197558050597ull},
      {"West-First", maker<WestFirstRouting>(), 5041709452866175653ull},
      {"North-Last", maker<NorthLastRouting>(), 17861284042917327653ull},
      {"Negative-First", maker<NegativeFirstRouting>(),
       3169895586634609317ull},
      {"Fully-Adaptive", maker<FullyAdaptiveRouting>(),
       15204287542073491237ull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hop_digest(c.make, meshes), c.digest) << c.name;
  }
}

TEST(HopDigest, DimensionOrderOnEveryWrappedShape) {
  const std::vector<Mesh2D> meshes = wrapped_shapes();
  ASSERT_EQ(meshes.size(), 208u);
  const struct {
    const char* name;
    MakeRouting make;
    std::uint64_t digest;
  } cases[] = {
      {"XY", maker<XYRouting>(), 6896286315633138597ull},
      {"YX", maker<YXRouting>(), 17170265506648371621ull},
      {"Torus-XY", maker<TorusXYRouting>(), 17809004125297320933ull},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hop_digest(c.make, meshes), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace genoc
