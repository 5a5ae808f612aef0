// 4x4 torus interconnect properties.
#include "cga/topology.hpp"

#include <gtest/gtest.h>

namespace adres {
namespace {

TEST(Topology, NeighboursWrapAround) {
  // FU0 is row 0, col 0.
  EXPECT_EQ(neighbour(0, Dir::kNorth), 12);
  EXPECT_EQ(neighbour(0, Dir::kSouth), 4);
  EXPECT_EQ(neighbour(0, Dir::kEast), 1);
  EXPECT_EQ(neighbour(0, Dir::kWest), 3);
  // FU15 is row 3, col 3.
  EXPECT_EQ(neighbour(15, Dir::kNorth), 11);
  EXPECT_EQ(neighbour(15, Dir::kSouth), 3);
  EXPECT_EQ(neighbour(15, Dir::kEast), 12);
  EXPECT_EQ(neighbour(15, Dir::kWest), 14);
}

TEST(Topology, NeighbourhoodIsSymmetric) {
  for (int f = 0; f < kCgaFus; ++f) {
    for (int g = 0; g < kCgaFus; ++g) {
      EXPECT_EQ(canRead(f, g), canRead(g, f)) << f << "," << g;
    }
  }
}

TEST(Topology, SelfAlwaysReadable) {
  for (int f = 0; f < kCgaFus; ++f) EXPECT_TRUE(canRead(f, f));
}

TEST(Topology, EachFuReadsFiveOutputs) {
  for (int f = 0; f < kCgaFus; ++f) {
    const auto r = readableFrom(f);
    // Self + 4 distinct neighbours on a 4x4 torus.
    std::set<int> s(r.begin(), r.end());
    EXPECT_EQ(s.size(), 5u);
  }
}

TEST(Topology, GlobalPortsOnFirstThreeFus) {
  EXPECT_TRUE(hasGlobalPort(0));
  EXPECT_TRUE(hasGlobalPort(2));
  EXPECT_FALSE(hasGlobalPort(3));
  EXPECT_FALSE(hasGlobalPort(15));
}

TEST(Topology, TorusHopsMetric) {
  EXPECT_EQ(torusHops(0, 0), 0);
  EXPECT_EQ(torusHops(0, 1), 1);
  EXPECT_EQ(torusHops(0, 3), 1) << "wrap-around column";
  EXPECT_EQ(torusHops(0, 12), 1) << "wrap-around row";
  EXPECT_EQ(torusHops(0, 5), 2);
  EXPECT_EQ(torusHops(0, 10), 4) << "diagonal opposite";
  // Symmetry.
  for (int a = 0; a < kCgaFus; ++a)
    for (int b = 0; b < kCgaFus; ++b) EXPECT_EQ(torusHops(a, b), torusHops(b, a));
}

TEST(Topology, HopsMatchAdjacency) {
  for (int a = 0; a < kCgaFus; ++a)
    for (int b = 0; b < kCgaFus; ++b)
      if (a != b && canRead(a, b)) {
        EXPECT_EQ(torusHops(a, b), 1);
      }
}

}  // namespace
}  // namespace adres
