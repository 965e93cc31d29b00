// Tests for the simulated communication substrate: topology/cost model,
// fabric point-to-point, every collective on group sizes 1..8 (including
// non-powers-of-two), communicator split, clock synchronisation and stats.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/fabric.hpp"
#include "comm/topology.hpp"
#include "util/rng.hpp"

namespace oc = optimus::comm;

// ---------------------------------------------------------------------------
// Topology and cost model
// ---------------------------------------------------------------------------

TEST(Topology, NaivePacksRanksSequentially) {
  oc::Topology topo(16, 4, oc::Arrangement::kNaive, /*mesh_q=*/4);
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(3), 0);
  EXPECT_EQ(topo.node_of(4), 1);
  EXPECT_EQ(topo.node_of(15), 3);
}

TEST(Topology, NaiveMeshRowsAreIntraNodeColumnsAreNot) {
  // Fig. 8a: with row-major ranks and 4 GPUs per node, a mesh row is one node
  // and a mesh column touches every node.
  oc::Topology topo(16, 4, oc::Arrangement::kNaive, 4);
  const std::vector<int> row0{0, 1, 2, 3};
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_TRUE(topo.single_node(row0));
  EXPECT_FALSE(topo.single_node(col0));
  EXPECT_EQ(topo.max_members_per_node(col0), 1);
}

TEST(Topology, BunchedTilesKeepSubSquaresTogether) {
  // Fig. 8b: 2×2 mesh tiles per node; both rows and columns then span exactly
  // two nodes with two members on each.
  oc::Topology topo(16, 4, oc::Arrangement::kBunched, 4);
  EXPECT_EQ(topo.node_of(0), topo.node_of(1));   // (0,0) and (0,1)
  EXPECT_EQ(topo.node_of(0), topo.node_of(4));   // (0,0) and (1,0)
  EXPECT_EQ(topo.node_of(0), topo.node_of(5));   // (0,0) and (1,1)
  EXPECT_NE(topo.node_of(0), topo.node_of(2));
  const std::vector<int> row0{0, 1, 2, 3};
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_EQ(topo.max_members_per_node(row0), 2);
  EXPECT_EQ(topo.max_members_per_node(col0), 2);
}

TEST(Topology, BunchedWithoutMeshFallsBackToNaive) {
  oc::Topology topo(8, 4, oc::Arrangement::kBunched, /*mesh_q=*/0);
  EXPECT_EQ(topo.node_of(5), 1);
}

TEST(Topology, ParseArrangement) {
  EXPECT_EQ(oc::parse_arrangement("naive"), oc::Arrangement::kNaive);
  EXPECT_EQ(oc::parse_arrangement("bunched"), oc::Arrangement::kBunched);
  EXPECT_THROW(oc::parse_arrangement("fancy"), optimus::util::CheckError);
}

TEST(CostModel, TreeTimeFollowsLogFormula) {
  oc::Topology topo(8, 8, oc::Arrangement::kNaive);  // all on one node
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 2.0;
  oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  // ceil(log2 4) = 2 rounds × β × B
  EXPECT_DOUBLE_EQ(cost.tree_time(cost.price(group), 10), 2 * 2.0 * 10);
  const std::vector<int> three{0, 1, 2};
  EXPECT_DOUBLE_EQ(cost.tree_time(cost.price(three), 10), 2 * 2.0 * 10);  // ceil(log2 3) = 2
}

TEST(CostModel, RingAllReduceMatchesPaperEq5) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  // 2(p−1)βB/p with p=4, B=100 → 150.
  EXPECT_DOUBLE_EQ(cost.ring_allreduce_time(cost.price(group), 100), 150.0);
}

TEST(CostModel, ContentionPenalisesNaiveColumns) {
  // Naive columns put 1 member per node → all 4 columns share each NIC → 4×.
  // Bunched puts 2 members per node → pipelined trees hide the sharing
  // (gpn/m² = 1, matching the paper's measured bunched runs).
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  oc::Topology naive(16, 4, oc::Arrangement::kNaive, 4);
  oc::Topology bunched(16, 4, oc::Arrangement::kBunched, 4);
  oc::CostModel cn(naive, mp), cb(bunched, mp);
  const std::vector<int> col0{0, 4, 8, 12};
  EXPECT_DOUBLE_EQ(cn.beta_eff(col0), 4.0);
  EXPECT_DOUBLE_EQ(cb.beta_eff(col0), 1.0);
}

TEST(CostModel, SingleRankGroupsAreFree) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::CostModel cost(topo, oc::MachineParams{});
  EXPECT_DOUBLE_EQ(cost.tree_time(cost.price({2}), 1000), 0.0);
  EXPECT_DOUBLE_EQ(cost.ring_allreduce_time(cost.price({2}), 1000), 0.0);
}

TEST(CostModel, Log2Ceil) {
  EXPECT_EQ(oc::log2_ceil(1), 0);
  EXPECT_EQ(oc::log2_ceil(2), 1);
  EXPECT_EQ(oc::log2_ceil(3), 2);
  EXPECT_EQ(oc::log2_ceil(8), 3);
  EXPECT_EQ(oc::log2_ceil(9), 4);
}

// ---------------------------------------------------------------------------
// Fabric point-to-point
// ---------------------------------------------------------------------------

TEST(Fabric, TagMatchingAllowsOutOfOrderArrival) {
  oc::Fabric fabric(2);
  const int a = 1, b = 2;
  fabric.send(0, 1, /*tag=*/20, &b, sizeof(b), /*timestamp=*/0.0);
  fabric.send(0, 1, /*tag=*/10, &a, sizeof(a), /*timestamp=*/0.0);
  int out = 0;
  fabric.recv(1, 0, 10, &out, sizeof(out));
  EXPECT_EQ(out, 1);
  fabric.recv(1, 0, 20, &out, sizeof(out));
  EXPECT_EQ(out, 2);
}

TEST(Fabric, FifoPerSourceAndTag) {
  oc::Fabric fabric(2);
  for (int i = 0; i < 5; ++i) fabric.send(0, 1, 7, &i, sizeof(i), /*timestamp=*/0.0);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    fabric.recv(1, 0, 7, &out, sizeof(out));
    EXPECT_EQ(out, i);
  }
}

TEST(Fabric, SizeMismatchThrows) {
  oc::Fabric fabric(2);
  const double x = 1.0;
  fabric.send(0, 1, 3, &x, sizeof(x), /*timestamp=*/0.0);
  float out;
  EXPECT_THROW(fabric.recv(1, 0, 3, &out, sizeof(out)), optimus::util::CheckError);
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

namespace {

class CollectiveSweep : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CollectiveSweep, BroadcastDeliversRootData) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p - 1)) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      std::vector<double> data(17, ctx.rank == root ? 3.25 : 0.0);
      ctx.world.broadcast(data.data(), 17, root);
      for (double v : data) ASSERT_DOUBLE_EQ(v, 3.25);
    });
  }
}

TEST_P(CollectiveSweep, ReduceSumsAtRoot) {
  const int p = GetParam();
  const int root = p - 1;
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> data(9);
    for (int i = 0; i < 9; ++i) data[i] = ctx.rank + i * 0.5;
    ctx.world.reduce(data.data(), 9, root);
    if (ctx.rank == root) {
      const double rank_sum = p * (p - 1) / 2.0;
      for (int i = 0; i < 9; ++i) ASSERT_NEAR(data[i], rank_sum + p * i * 0.5, 1e-12);
    }
  });
}

TEST_P(CollectiveSweep, AllReduceSumsEverywhere) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    // 23 elements exercises uneven ring chunks for every p in the sweep.
    std::vector<double> data(23);
    for (int i = 0; i < 23; ++i) data[i] = (ctx.rank + 1) * (i + 1);
    ctx.world.all_reduce(data.data(), 23);
    const double rank_sum = p * (p + 1) / 2.0;
    for (int i = 0; i < 23; ++i) ASSERT_NEAR(data[i], rank_sum * (i + 1), 1e-12);
  });
}

TEST_P(CollectiveSweep, AllReduceMax) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> data{static_cast<double>(ctx.rank), -static_cast<double>(ctx.rank)};
    ctx.world.all_reduce_max(data.data(), 2);
    ASSERT_DOUBLE_EQ(data[0], p - 1);
    ASSERT_DOUBLE_EQ(data[1], 0.0);
  });
}

TEST_P(CollectiveSweep, AllGatherOrdersByRank) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<double> mine(3, ctx.rank * 10.0);
    std::vector<double> out(3 * p, -1.0);
    ctx.world.all_gather(mine.data(), 3, out.data());
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < 3; ++i) ASSERT_DOUBLE_EQ(out[r * 3 + i], r * 10.0);
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatterDeliversOwnChunk) {
  const int p = GetParam();
  oc::run_cluster(p, [&](oc::Context& ctx) {
    const int n = 4;  // per-chunk elements
    std::vector<double> data(n * p);
    for (int c = 0; c < p; ++c) {
      for (int i = 0; i < n; ++i) data[c * n + i] = (ctx.rank + 1) + c * 100.0 + i;
    }
    std::vector<double> out(n, -1);
    ctx.world.reduce_scatter(data.data(), n, out.data());
    const double rank_sum = p * (p + 1) / 2.0;
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(out[i], rank_sum + p * (ctx.rank * 100.0 + i), 1e-12);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveSweep, ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Collectives, SplitFormsRowGroups) {
  oc::run_cluster(6, [](oc::Context& ctx) {
    // Two colors: {0,1,2} and {3,4,5}.
    const int color = ctx.rank / 3;
    auto sub = ctx.world.split(color, ctx.rank);
    ASSERT_EQ(sub.size(), 3);
    ASSERT_EQ(sub.rank(), ctx.rank % 3);
    // A collective on the sub-communicator stays inside the color group.
    std::vector<double> v{static_cast<double>(ctx.rank)};
    sub.all_reduce(v.data(), 1);
    const double expected = color == 0 ? 0 + 1 + 2 : 3 + 4 + 5;
    ASSERT_DOUBLE_EQ(v[0], expected);
  });
}

TEST(Collectives, SplitOrdersByKeyThenRank) {
  oc::run_cluster(4, [](oc::Context& ctx) {
    // Reverse ordering via key.
    auto sub = ctx.world.split(0, -ctx.rank);
    ASSERT_EQ(sub.size(), 4);
    ASSERT_EQ(sub.rank(), 3 - ctx.rank);
  });
}

TEST(Collectives, ClocksAgreeAfterCollective) {
  oc::run_cluster(4, [](oc::Context& ctx) {
    // Give ranks wildly different amounts of "compute" first.
    ctx.device.on_mults(1000000ull * (ctx.rank + 1));
    std::vector<double> v(8, 1.0);
    ctx.world.all_reduce(v.data(), 8);
    const double mine = ctx.clock.now();
    std::vector<double> times(4, 0.0);
    // Compare through a side gather (max == min means all equal).
    times[ctx.rank] = mine;
    std::vector<double> all(4 * 4);
    ctx.world.all_gather(times.data(), 4, all.data());
    double mx = 0, mn = 1e300;
    for (int r = 0; r < 4; ++r) {
      const double t = all[r * 4 + r];
      mx = std::max(mx, t);
      mn = std::min(mn, t);
    }
    // All clocks were aligned by the first collective, then advanced by the
    // same (deterministic) amounts.
    ASSERT_NEAR(mx, mn, 1e-15);
  });
}

TEST(Collectives, ClockAdvancesByModelledTimes) {
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1e30;
  oc::Cluster cluster(4, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    std::vector<float> v(100, 1.0f);
    ctx.world.all_reduce(v.data(), 100);  // 2·3/4 · 400 bytes = 600
    ctx.world.broadcast(v.data(), 100, 0);  // 2 rounds · 400 bytes = 800
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, 600.0 + 800.0);
}

TEST(Collectives, StatsRecordWeightedUnits) {
  auto report = oc::run_cluster(4, [](oc::Context& ctx) {
    std::vector<float> v(100, 1.0f);
    ctx.world.broadcast(v.data(), 100, 0);
    ctx.world.all_reduce(v.data(), 100);
  });
  const auto& s = report.ranks[0].stats;
  EXPECT_EQ(s.broadcast.calls, 1u);
  EXPECT_EQ(s.broadcast.elems, 100u);
  EXPECT_DOUBLE_EQ(s.broadcast.weighted, 100.0 * 2);       // log2(4) = 2
  EXPECT_DOUBLE_EQ(s.allreduce.weighted, 100.0 * 2 * 3 / 4.0);  // 2(p−1)/p
}

TEST(Collectives, DistributedReduceIsDeterministic) {
  // Same inputs, two runs → bitwise identical results (fixed reduce order).
  std::vector<float> first;
  for (int run = 0; run < 2; ++run) {
    oc::run_cluster(5, [&](oc::Context& ctx) {
      std::vector<float> data(31);
      optimus::util::Rng rng(900 + ctx.rank);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
      ctx.world.all_reduce(data.data(), 31);
      if (ctx.rank == 0) {
        if (run == 0) {
          first = data;
        } else {
          for (int i = 0; i < 31; ++i) ASSERT_EQ(data[i], first[i]);
        }
      }
    });
  }
}

TEST(Collectives, UserPointToPointAdvancesClock) {
  auto report = oc::run_cluster(2, [](oc::Context& ctx) {
    double x = 42.0;
    if (ctx.rank == 0) {
      ctx.world.send(1, 5, &x, 1);
    } else {
      double y = 0;
      ctx.world.recv(0, 5, &y, 1);
      ASSERT_DOUBLE_EQ(y, 42.0);
    }
  });
  EXPECT_GT(report.ranks[0].sim_time, 0.0);
  EXPECT_EQ(report.ranks[0].stats.p2p_bytes, sizeof(double));
}

TEST(Collectives, UserTagsOfTwoCommunicatorsStayApart) {
  // Same members, same user tag, two communicators: each receive must match
  // the send made on its own communicator, whatever the arrival order.
  oc::run_cluster(2, [](oc::Context& ctx) {
    auto twin = ctx.world.split(0, ctx.rank);
    if (ctx.rank == 0) {
      const double on_world = 1.0, on_twin = 2.0;
      ctx.world.send(1, 5, &on_world, 1);
      twin.send(1, 5, &on_twin, 1);
    } else {
      double y = 0;
      twin.recv(0, 5, &y, 1);
      ASSERT_EQ(y, 2.0);
      ctx.world.recv(0, 5, &y, 1);
      ASSERT_EQ(y, 1.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Async collectives (ibroadcast / ireduce) and the overlap clock model
// ---------------------------------------------------------------------------

TEST(AsyncCollectives, IBroadcastMatchesBroadcastBitwise) {
  for (int p : {2, 3, 4, 5}) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      const int root = p - 1;
      std::vector<float> blocking(33), async(33);
      if (ctx.rank == root) {
        optimus::util::Rng rng(77);
        for (int i = 0; i < 33; ++i) blocking[i] = static_cast<float>(rng.uniform(-1, 1));
        async = blocking;
      }
      ctx.world.broadcast(blocking.data(), 33, root);
      oc::Request req = ctx.world.ibroadcast(async.data(), 33, root);
      req.wait();
      for (int i = 0; i < 33; ++i) ASSERT_EQ(async[i], blocking[i]);
    });
  }
}

TEST(AsyncCollectives, IReduceMatchesReduceBitwise) {
  // Float sums are order-sensitive; the async reduce must accumulate children
  // in exactly the blocking order to be bitwise identical (0 ULPs).
  for (int p : {2, 3, 4, 5, 8}) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      std::vector<float> blocking(29), async(29);
      optimus::util::Rng rng(300 + ctx.rank);
      for (int i = 0; i < 29; ++i) {
        blocking[i] = static_cast<float>(rng.uniform(-1, 1));
        async[i] = blocking[i];
      }
      ctx.world.reduce(blocking.data(), 29, /*root=*/0);
      oc::Request req = ctx.world.ireduce(async.data(), 29, /*root=*/0);
      req.wait();
      if (ctx.rank == 0) {
        for (int i = 0; i < 29; ++i) ASSERT_EQ(async[i], blocking[i]);
      }
    });
  }
}

TEST(AsyncCollectives, WaitCostsMaxOfCommAndCompute) {
  // Unit-cost machine: transfer dt for a 400-byte broadcast on 4 ranks is
  // exactly 800 (2 tree rounds), compute_time(mults) == mults.
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1.0;
  for (const std::uint64_t mults : {500ull, 1000ull}) {
    oc::Cluster cluster(4, topo, mp);
    auto report = cluster.run([&](oc::Context& ctx) {
      std::vector<float> v(100, 1.0f);
      oc::Request req = ctx.world.ibroadcast(v.data(), 100, 0);
      ctx.device.on_mults(mults);  // overlapped compute
      req.wait();
    });
    // Overlapped step costs max(comm, compute), not the sum.
    const double expected = std::max(800.0, static_cast<double>(mults));
    for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, expected);
  }
}

TEST(AsyncCollectives, BackToBackIssuesSerialiseOnOneLink) {
  // Two in-flight broadcasts on the same communicator cannot overlap each
  // other: the second's transfer starts when the first's finishes.
  oc::Topology topo(4, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;
  mp.alpha = 0.0;
  mp.beta_intra = 1.0;
  mp.beta_inter = 1.0;
  mp.flop_rate = 1e30;
  oc::Cluster cluster(4, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    std::vector<float> a(100, 1.0f), b(100, 2.0f);
    oc::Request ra = ctx.world.ibroadcast(a.data(), 100, 0);
    oc::Request rb = ctx.world.ibroadcast(b.data(), 100, 0);
    ra.wait();
    rb.wait();
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, 800.0 + 800.0);
}

TEST(AsyncCollectives, ChunkedBroadcastIsCheaperAndBitwise) {
  // 256 KiB on a depth-2 tree over inter-node links (one GPU per node) with
  // default machine constants triggers the chunked streaming plan; it must
  // beat the plain tree time and deliver the identical payload.
  const int p = 4;
  const std::size_t n = 32768;  // doubles → 256 KiB
  oc::Topology topo(p, /*gpus_per_node=*/1, oc::Arrangement::kNaive);
  const oc::MachineParams mp;
  const oc::CostModel cost(topo, mp);
  const std::vector<int> group{0, 1, 2, 3};
  const auto plan = cost.tree_plan(cost.price(group), n * sizeof(double));
  EXPECT_GT(plan.chunks, 1);
  EXPECT_LT(plan.time, cost.tree_time(cost.price(group), n * sizeof(double)));

  oc::Cluster cluster(p, topo, mp);
  auto report = cluster.run([&](oc::Context& ctx) {
    std::vector<double> data(n, 0.0);
    if (ctx.rank == 0) {
      optimus::util::Rng rng(41);
      for (auto& v : data) v = rng.uniform(-1, 1);
    }
    ctx.world.broadcast(data.data(), static_cast<optimus::tensor::index_t>(n), 0);
    optimus::util::Rng rng(41);
    for (const double v : data) ASSERT_EQ(v, rng.uniform(-1, 1));
  });
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, plan.time);
}

TEST(AsyncCollectives, ChunkedReduceMatchesUnchunkedBitwise) {
  // Same payload reduced under a chunking cost model (default α) and a
  // non-chunking one (α = 0): the accumulation order per element is the same,
  // so the root's sums must agree to the bit.
  const int p = 4;
  const std::size_t n = 32768;
  std::vector<float> results[2];
  for (int variant = 0; variant < 2; ++variant) {
    oc::Topology topo(p, 4, oc::Arrangement::kNaive);
    oc::MachineParams mp;
    if (variant == 1) mp.alpha = 0.0;  // disables the chunked plan
    oc::Cluster cluster(p, topo, mp);
    cluster.run([&](oc::Context& ctx) {
      std::vector<float> data(n);
      optimus::util::Rng rng(500 + ctx.rank);
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1, 1));
      ctx.world.reduce(data.data(), static_cast<optimus::tensor::index_t>(n), 0);
      if (ctx.rank == 0) results[variant] = data;
    });
  }
  ASSERT_EQ(results[0].size(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(results[0][i], results[1][i]);
}

TEST(AsyncCollectives, TreeBytesMoveAtIssueAndWaitOnlyMovesTheClock) {
  // 256 KiB over an inter-node tree of depth ≥ 2 is priced as a chunked
  // pipeline. The payload still moves inside the call: every member holds
  // the root's broadcast, and the root the reduced sum, as soon as
  // ibroadcast/ireduce return. The clock reaches the modelled completion
  // only at wait().
  const std::size_t n = 32768;  // doubles → 256 KiB
  const auto len = static_cast<optimus::tensor::index_t>(n);
  for (int p : {4, 8}) {
    oc::Topology topo(p, /*gpus_per_node=*/1, oc::Arrangement::kNaive);
    const oc::MachineParams mp;
    std::vector<int> group(static_cast<std::size_t>(p));
    std::iota(group.begin(), group.end(), 0);
    const oc::CostModel cost(topo, mp);
    const auto plan = cost.tree_plan(cost.price(group), n * sizeof(double));
    ASSERT_GT(plan.chunks, 1);

    oc::Cluster cluster(p, topo, mp);
    cluster.run([&](oc::Context& ctx) {
      std::vector<double> data(n, 0.0);
      if (ctx.rank == 0) {
        optimus::util::Rng rng(41);
        for (auto& v : data) v = rng.uniform(-1, 1);
      }
      oc::Request bc = ctx.world.ibroadcast(data.data(), len, 0);
      optimus::util::Rng rng(41);
      for (const double v : data) ASSERT_EQ(v, rng.uniform(-1, 1));
      EXPECT_EQ(ctx.clock.now(), 0.0);
      bc.wait();
      EXPECT_DOUBLE_EQ(ctx.clock.now(), plan.time);

      // Small integers: the sum is exact whatever the fold order.
      for (std::size_t i = 0; i < n; ++i) data[i] = (ctx.rank + 1) * static_cast<double>(i % 7);
      oc::Request red = ctx.world.ireduce(data.data(), len, 0);
      if (ctx.rank == 0) {
        const double ranks_sum = p * (p + 1) / 2.0;
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(data[i], ranks_sum * (i % 7));
      }
      EXPECT_DOUBLE_EQ(ctx.clock.now(), plan.time);
      red.wait();
      EXPECT_DOUBLE_EQ(ctx.clock.now(), 2 * plan.time);
    });
  }
}

namespace {

// One broadcast of `n` floats from `root` on a g-rank world, by the
// one-pointer (in-place) or two-pointer (out-of-place) form, blocking or
// async, after skewed compute (so align_wait is non-zero). Returns every
// rank's `src` and `dst` after the call, and the report.
struct BroadcastRun {
  std::vector<std::vector<float>> src, dst;
  oc::Cluster::Report report;
};

BroadcastRun run_broadcast(int g, int root, bool out_of_place, bool async, float sentinel) {
  constexpr optimus::tensor::index_t n = 37;
  BroadcastRun run;
  run.src.resize(static_cast<std::size_t>(g));
  run.dst.resize(static_cast<std::size_t>(g));
  run.report = oc::run_cluster(g, [&](oc::Context& ctx) {
    std::vector<float> payload(n, 0.0f);
    optimus::util::Rng rng(900 + static_cast<std::uint64_t>(g));
    for (auto& v : payload) v = static_cast<float>(rng.uniform(-1, 1));
    const bool is_root = ctx.rank == root;
    // The root's source is const; the in-place form broadcasts from `dst`.
    const std::vector<float> src = is_root ? payload : std::vector<float>(n, -sentinel);
    std::vector<float> dst(n, sentinel);
    if (!out_of_place && is_root) dst = payload;
    ctx.device.on_mults(30000ull * (ctx.rank + 1));
    if (async) {
      oc::Request req = out_of_place ? ctx.world.ibroadcast(src.data(), dst.data(), n, root)
                                     : ctx.world.ibroadcast(dst.data(), n, root);
      ctx.device.on_mults(30000ull * (g - ctx.rank));
      req.wait();
    } else if (out_of_place) {
      ctx.world.broadcast(src.data(), dst.data(), n, root);
    } else {
      ctx.world.broadcast(dst.data(), n, root);
    }
    run.src[ctx.rank] = src;
    run.dst[ctx.rank] = dst;
  });
  return run;
}

void expect_same_op(const oc::CommStats::Op& a, const oc::CommStats::Op& b) {
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.elems, b.elems);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.weighted, b.weighted);
  EXPECT_EQ(a.time, b.time);
}

}  // namespace

TEST(Collectives, OutOfPlaceBroadcastMatchesInPlace) {
  const float sentinel = 7.5f;
  for (int g = 1; g <= 5; ++g) {
    for (int root = 0; root < g; ++root) {
      for (const bool async : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "g=" << g << " root=" << root << " async=" << async);
        const BroadcastRun in_place = run_broadcast(g, root, false, async, sentinel);
        const BroadcastRun out = run_broadcast(g, root, true, async, sentinel);
        const std::vector<float>& payload = in_place.dst[root];
        for (int r = 0; r < g; ++r) {
          if (r == root) {
            // The root's const source is unchanged and its dst untouched.
            EXPECT_EQ(out.src[r], payload);
            EXPECT_EQ(out.dst[r], std::vector<float>(payload.size(), sentinel));
          } else {
            EXPECT_EQ(0, std::memcmp(out.dst[r].data(), payload.data(),
                                     payload.size() * sizeof(float)))
                << "rank " << r << " did not receive the root's bytes";
            EXPECT_EQ(out.dst[r], in_place.dst[r]);
          }
          const auto& a = in_place.report.ranks[r];
          const auto& b = out.report.ranks[r];
          EXPECT_EQ(a.sim_time, b.sim_time) << "rank " << r;
          EXPECT_EQ(a.util.compute, b.util.compute) << "rank " << r;
          EXPECT_EQ(a.util.align_wait, b.util.align_wait) << "rank " << r;
          EXPECT_EQ(a.util.transfer, b.util.transfer) << "rank " << r;
          EXPECT_EQ(a.util.idle, b.util.idle) << "rank " << r;
          expect_same_op(a.stats.broadcast, b.stats.broadcast);
          EXPECT_EQ(a.stats.total_weighted(), b.stats.total_weighted());
        }
      }
    }
  }
}

TEST(Cluster, BodyExceptionPropagates) {
  EXPECT_THROW(oc::run_cluster(1,
                               [](oc::Context&) {
                                 OPT_CHECK(false, "rank failure");
                               }),
               optimus::util::CheckError);
}

TEST(Cluster, ReportAggregatesPerRankAccounting) {
  auto report = oc::run_cluster(3, [](oc::Context& ctx) {
    optimus::tensor::Tensor t(optimus::tensor::Shape{256});  // 1 KiB
    ctx.device.on_mults(100 * (ctx.rank + 1));
    ctx.world.barrier();
  });
  ASSERT_EQ(report.ranks.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(report.ranks[r].mults, 100u * (r + 1));
    EXPECT_GE(report.ranks[r].peak_bytes, 1024u);
    EXPECT_EQ(report.ranks[r].live_bytes, 0u);
  }
  EXPECT_EQ(report.total_mults(), 600u);
}

TEST(Cluster, BarrierSynchronisesClocks) {
  oc::Topology topo(3, 4, oc::Arrangement::kNaive);
  oc::MachineParams mp;  // defaults, nonzero alpha
  oc::Cluster cluster(3, topo, mp);
  auto report = cluster.run([](oc::Context& ctx) {
    ctx.device.on_mults(5000000ull * (ctx.rank + 1));
    ctx.world.barrier();
  });
  const double t0 = report.ranks[0].sim_time;
  for (const auto& r : report.ranks) EXPECT_DOUBLE_EQ(r.sim_time, t0);
}

// ---------------------------------------------------------------------------
// Bit pins: every collective's output bytes, clock and stats
// ---------------------------------------------------------------------------
//
// The sweeps above compare with tolerances, so a changed fold order would
// pass them. These rows pin, per (op, g), three 64-bit FNV-1a digests folded
// over f32 and f64 payloads below and above the chunked-tree cutoff:
//   out   — every rank's output bytes, in rank order;
//   clock — rank 0's clock and its four UtilBreakdown buckets;
//   stats — rank 0's CommStats (every Op's fields and the p2p counters).
// Ranks enter each call after skewed compute, so align_wait is non-zero.
// The rows were generated once from the reference implementation; a refactor
// of the collectives must pass them unchanged, never regenerate them.

namespace {

using optimus::tensor::index_t;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename V>
  void value(const V& v) {
    bytes(&v, sizeof v);
  }
  void op(const oc::CommStats::Op& o) {
    value(o.calls);
    value(o.elems);
    value(o.bytes);
    value(o.weighted);
    value(o.time);
  }
};

struct PinRow {
  const char* op;
  int g;
  std::uint64_t out;
  std::uint64_t clock;
  std::uint64_t stats;
};

// Runs `op` once on this rank over seeded non-integer data and returns the
// bytes the call produced here (empty for barrier).
template <typename T>
std::vector<unsigned char> run_pinned_op(const std::string& op, oc::Context& ctx, index_t n) {
  const int g = ctx.size;
  const int root = g - 1;
  std::vector<T> buf(static_cast<std::size_t>(n * g));
  std::vector<T> out(static_cast<std::size_t>(n * g));
  optimus::util::Rng rng(1000 * static_cast<std::uint64_t>(g) + ctx.rank);
  for (auto& v : buf) v = static_cast<T>(rng.uniform(-1, 1));
  // Rank 0 computes least, so it waits at every entry (align_wait > 0).
  const auto skew = [&] { ctx.device.on_mults(40000ull * (ctx.rank + 1)); };
  const T* result = buf.data();
  index_t count = n;
  skew();
  if (op == "broadcast") {
    ctx.world.broadcast(buf.data(), n, root);
  } else if (op == "reduce") {
    ctx.world.reduce(buf.data(), n, root);
  } else if (op == "ibroadcast") {
    oc::Request req = ctx.world.ibroadcast(buf.data(), n, root);
    skew();
    req.wait();
  } else if (op == "ireduce") {
    oc::Request req = ctx.world.ireduce(buf.data(), n, root);
    skew();
    req.wait();
  } else if (op == "allreduce") {
    ctx.world.all_reduce(buf.data(), n);
  } else if (op == "allreduce_max") {
    ctx.world.all_reduce_max(buf.data(), n);
  } else if (op == "allreduce_ordered") {
    ctx.world.all_reduce_ordered(buf.data(), n);
  } else if (op == "allgather") {
    ctx.world.all_gather(buf.data(), n, out.data());
    result = out.data();
    count = n * g;
  } else if (op == "reducescatter") {
    ctx.world.reduce_scatter(buf.data(), n, out.data());
    result = out.data();
  } else if (op == "barrier") {
    ctx.world.barrier();
    count = 0;
  } else {
    ADD_FAILURE() << "unknown op " << op;
  }
  const auto* b = reinterpret_cast<const unsigned char*>(result);
  return std::vector<unsigned char>(b, b + count * static_cast<index_t>(sizeof(T)));
}

template <typename T>
void digest_pinned_op(const std::string& op, int g, index_t n, std::uint64_t schedule_seed,
                      Fnv& out, Fnv& clock, Fnv& stats) {
  // Two GPUs per node: groups of g >= 3 cross nodes, so the large payload
  // streams down the tree in chunks there.
  oc::Topology topo(g, /*gpus_per_node=*/2, oc::Arrangement::kNaive);
  oc::Cluster cluster(g, topo, oc::MachineParams{});
  oc::FaultPlan plan;
  plan.seed = schedule_seed;
  cluster.set_fault_plan(plan);
  std::vector<std::vector<unsigned char>> outputs(static_cast<std::size_t>(g));
  const auto report = cluster.run(
      [&](oc::Context& ctx) { outputs[ctx.rank] = run_pinned_op<T>(op, ctx, n); });
  for (const auto& o : outputs) out.bytes(o.data(), o.size());
  const auto& r0 = report.ranks[0];
  clock.value(r0.sim_time);
  clock.value(r0.util.compute);
  clock.value(r0.util.align_wait);
  clock.value(r0.util.transfer);
  clock.value(r0.util.idle);
  const auto& s = r0.stats;
  // s.alltoall is always zero; it stays in the digest so the pins keep their bits.
  for (const auto* o : {&s.broadcast, &s.reduce, &s.allreduce, &s.allgather, &s.reducescatter,
                        &s.alltoall, &s.barrier}) {
    stats.op(*o);
  }
  stats.value(s.p2p_messages);
  stats.value(s.p2p_bytes);
  stats.value(s.p2p_time);
}

PinRow pinned_row(const std::string& op, int g, std::uint64_t schedule_seed) {
  Fnv out, clock, stats;
  for (const index_t n : {index_t{37}, index_t{20000}}) {  // 20000 f32 = 80 KB > 64 KiB
    digest_pinned_op<float>(op, g, n, schedule_seed, out, clock, stats);
    digest_pinned_op<double>(op, g, n, schedule_seed, out, clock, stats);
  }
  return PinRow{nullptr, g, out.h, clock.h, stats.h};
}

// clang-format off
constexpr PinRow kCollectivePins[] = {
    {"broadcast", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"broadcast", 2, 0xee620464124ad811ull, 0xcb342fdae28367eeull, 0x59d43c9851be32c6ull},
    {"broadcast", 3, 0xb954959a599d2a31ull, 0xaf9a7ec1f66178dull, 0x555a876ea5d7d65bull},
    {"broadcast", 4, 0xdc3b4ca2ab65bf75ull, 0x681a2494d3d781b8ull, 0x555a876ea5d7d65bull},
    {"broadcast", 5, 0x73a1f8c9bac69750ull, 0x42e9b0b1569dacbfull, 0x2a61bb97fd7cd32full},
    {"broadcast", 7, 0xc8d84d010492d5bcull, 0x946eef1258e0c283ull, 0x2a61bb97fd7cd32full},
    {"broadcast", 8, 0x1029d069cd59e2d5ull, 0x2b525e245329bca2ull, 0x2a61bb97fd7cd32full},
    {"reduce", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"reduce", 2, 0xfde331864739e694ull, 0xcb342fdae28367eeull, 0x2b4df1c7705cafa6ull},
    {"reduce", 3, 0xcedd729d0669bd3cull, 0xaf9a7ec1f66178dull, 0xd9c2067eb582e75bull},
    {"reduce", 4, 0x78f5b785cec40d99ull, 0x681a2494d3d781b8ull, 0xd9c2067eb582e75bull},
    {"reduce", 5, 0x70c3a40a0bd6f4d7ull, 0x42e9b0b1569dacbfull, 0x8e2abb3c7083a26full},
    {"reduce", 7, 0xe03020ca71a115c9ull, 0x946eef1258e0c283ull, 0x8e2abb3c7083a26full},
    {"reduce", 8, 0x7777f808e4cf2949ull, 0x2b525e245329bca2ull, 0x8e2abb3c7083a26full},
    {"ibroadcast", 1, 0x1aefe3024295331eull, 0xa903f57e0e02a535ull, 0xc8afb6162b982225ull},
    {"ibroadcast", 2, 0xee620464124ad811ull, 0xbfec42607ddf3d3aull, 0x59d43c9851be32c6ull},
    {"ibroadcast", 3, 0xb954959a599d2a31ull, 0x473803ee5bbbea6full, 0x555a876ea5d7d65bull},
    {"ibroadcast", 4, 0xdc3b4ca2ab65bf75ull, 0x88f91d77fc0b6bffull, 0x555a876ea5d7d65bull},
    {"ibroadcast", 5, 0x73a1f8c9bac69750ull, 0x2b728a2d3e155c92ull, 0x2a61bb97fd7cd32full},
    {"ibroadcast", 7, 0xc8d84d010492d5bcull, 0xf6bfe7d4d4c62795ull, 0x2a61bb97fd7cd32full},
    {"ibroadcast", 8, 0x1029d069cd59e2d5ull, 0xaeb9ddfb78b7082aull, 0x2a61bb97fd7cd32full},
    {"ireduce", 1, 0x1aefe3024295331eull, 0xa903f57e0e02a535ull, 0xc8afb6162b982225ull},
    {"ireduce", 2, 0xfde331864739e694ull, 0xbfec42607ddf3d3aull, 0x2b4df1c7705cafa6ull},
    {"ireduce", 3, 0xcedd729d0669bd3cull, 0x473803ee5bbbea6full, 0xd9c2067eb582e75bull},
    {"ireduce", 4, 0x78f5b785cec40d99ull, 0x88f91d77fc0b6bffull, 0xd9c2067eb582e75bull},
    {"ireduce", 5, 0x70c3a40a0bd6f4d7ull, 0x2b728a2d3e155c92ull, 0x8e2abb3c7083a26full},
    {"ireduce", 7, 0xe03020ca71a115c9ull, 0xf6bfe7d4d4c62795ull, 0x8e2abb3c7083a26full},
    {"ireduce", 8, 0x7777f808e4cf2949ull, 0xaeb9ddfb78b7082aull, 0x8e2abb3c7083a26full},
    {"allreduce", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"allreduce", 2, 0xbfe4b7625566a199ull, 0x86a373a239070ad8ull, 0x12b0ac37b9e44a49ull},
    {"allreduce", 3, 0x9abee91308d34e53ull, 0x404db748669b6b0eull, 0xe11f3e96a6dea5dcull},
    {"allreduce", 4, 0x55b57850aff2d2ddull, 0xc8a4757fbaa18f0ull, 0xcb4ef5aa2020ab8cull},
    {"allreduce", 5, 0x437032f32d20c784ull, 0x32a7121b464b3e6full, 0x1bf5799bb9dd6d06ull},
    {"allreduce", 7, 0x7f5f6cf9dc0a831full, 0x9d41423d78aa0d2bull, 0x7adc51c0700dda8ull},
    {"allreduce", 8, 0xf4b61f7e3df07145ull, 0xa012259d6338840eull, 0xbf25f8fe775d8538ull},
    {"allreduce_max", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"allreduce_max", 2, 0xbf5d6b212be18089ull, 0x86a373a239070ad8ull, 0x12b0ac37b9e44a49ull},
    {"allreduce_max", 3, 0xcc2a11a696679d23ull, 0x404db748669b6b0eull, 0xe11f3e96a6dea5dcull},
    {"allreduce_max", 4, 0x384e3082f44c52a5ull, 0xc8a4757fbaa18f0ull, 0xcb4ef5aa2020ab8cull},
    {"allreduce_max", 5, 0x1d6613e6d63f3e93ull, 0x32a7121b464b3e6full, 0x1bf5799bb9dd6d06ull},
    {"allreduce_max", 7, 0xbfa8e521125d2123ull, 0x9d41423d78aa0d2bull, 0x7adc51c0700dda8ull},
    {"allreduce_max", 8, 0xb3689fcd8f7f7eb5ull, 0xa012259d6338840eull, 0xbf25f8fe775d8538ull},
    {"allreduce_ordered", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"allreduce_ordered", 2, 0xbfe4b7625566a199ull, 0x86a373a239070ad8ull, 0x12b0ac37b9e44a49ull},
    {"allreduce_ordered", 3, 0xbaf78826c1102855ull, 0x404db748669b6b0eull, 0xe11f3e96a6dea5dcull},
    {"allreduce_ordered", 4, 0xa8e21c8526b94015ull, 0xc8a4757fbaa18f0ull, 0xcb4ef5aa2020ab8cull},
    {"allreduce_ordered", 5, 0x50c5f718abaadf40ull, 0x32a7121b464b3e6full, 0x1bf5799bb9dd6d06ull},
    {"allreduce_ordered", 7, 0x4bf1b795c24426adull, 0x9d41423d78aa0d2bull, 0x7adc51c0700dda8ull},
    {"allreduce_ordered", 8, 0x9ced1520ce27e625ull, 0xa012259d6338840eull, 0xbf25f8fe775d8538ull},
    {"allgather", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"allgather", 2, 0x517339221be69fb9ull, 0xcb342fdae28367eeull, 0xf502d1e3c5132333ull},
    {"allgather", 3, 0x9dfa8a70c3aa1816ull, 0x92f32c47043dc9d9ull, 0x74aa4a737de69055ull},
    {"allgather", 4, 0xda2212b52b19e3c5ull, 0xddbd815c87340b86ull, 0xe17b0b157b10aba2ull},
    {"allgather", 5, 0x5835c6454b9ec7d9ull, 0xc46009306868e383ull, 0x497d23db20191617ull},
    {"allgather", 7, 0xf2745d7e0a85ce83ull, 0x698f489a1141e80ull, 0x7f57776a5a55ba56ull},
    {"allgather", 8, 0xf64c4b0d03089e45ull, 0xd83f817831b2eb6aull, 0x1b88824a352b0872ull},
    {"reducescatter", 1, 0x1aefe3024295331eull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"reducescatter", 2, 0xe539fa2ba2e08e73ull, 0xcb342fdae28367eeull, 0x82fd4a8a82888a73ull},
    {"reducescatter", 3, 0x3b19a13d7d426effull, 0x92f32c47043dc9d9ull, 0x5641c34003704995ull},
    {"reducescatter", 4, 0xa30f0ad6fb224a55ull, 0xddbd815c87340b86ull, 0xb55c34f22e9a2e42ull},
    {"reducescatter", 5, 0xac7c12fabf9ffae4ull, 0xc46009306868e383ull, 0xa05e1c92a20a0f17ull},
    {"reducescatter", 7, 0x4890f996f6548463ull, 0x698f489a1141e80ull, 0x5f3d2802ecaaf9f6ull},
    {"reducescatter", 8, 0x4d09c11a910c4222ull, 0xd83f817831b2eb6aull, 0xa06c18fe1c6904d2ull},
    {"barrier", 1, 0xcbf29ce484222325ull, 0x5e227a90a6ba0695ull, 0xc8afb6162b982225ull},
    {"barrier", 2, 0xcbf29ce484222325ull, 0x2046fb19bf18d55dull, 0x8a5df5660718f13dull},
    {"barrier", 3, 0xcbf29ce484222325ull, 0x77b273964f7879ddull, 0x4a9d7c81979319ddull},
    {"barrier", 4, 0xcbf29ce484222325ull, 0x4c39671602b672a5ull, 0x4a9d7c81979319ddull},
    {"barrier", 5, 0xcbf29ce484222325ull, 0x7b38284acc690535ull, 0x2f8e1d141c97ea8dull},
    {"barrier", 7, 0xcbf29ce484222325ull, 0x89516a9cdefe170dull, 0x2f8e1d141c97ea8dull},
    {"barrier", 8, 0xcbf29ce484222325ull, 0xd6e7464df33a84f5ull, 0x2f8e1d141c97ea8dull},
};
// clang-format on

class CollectivePin : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(CollectivePin, OutputClockAndStatsMatchPinnedBits) {
  // FIFO order (seed 0) and two seeded interleavings must all give the
  // pinned bits: no collective's result may depend on the schedule.
  const std::string op = GetParam();
  for (const std::uint64_t seed : {0, 2, 424242}) {
    SCOPED_TRACE("schedule seed " + std::to_string(seed));
    for (const int g : {1, 2, 3, 4, 5, 7, 8}) {
      const PinRow got = pinned_row(op, g, seed);
      const PinRow* want = nullptr;
      for (const PinRow& row : kCollectivePins) {
        if (op == row.op && g == row.g) want = &row;
      }
      std::ostringstream actual;
      actual << std::hex << "{\"" << op << "\", " << std::dec << g << std::hex << ", 0x"
             << got.out << "ull, 0x" << got.clock << "ull, 0x" << got.stats << "ull},";
      if (want == nullptr) {
        ADD_FAILURE() << "no pinned row; actual: " << actual.str();
        continue;
      }
      EXPECT_EQ(got.out, want->out) << "output bytes changed; actual: " << actual.str();
      EXPECT_EQ(got.clock, want->clock) << "clock/utilization changed; actual: " << actual.str();
      EXPECT_EQ(got.stats, want->stats) << "CommStats changed; actual: " << actual.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, CollectivePin,
                         ::testing::Values("broadcast", "reduce", "ibroadcast", "ireduce",
                                           "allreduce", "allreduce_max", "allreduce_ordered",
                                           "allgather", "reducescatter", "barrier"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });
