// Deterministic fault injection through the simulated fabric.
//
// The contract under test (comm/fabric.hpp, comm/executor.hpp): injected
// faults must never change the math and never hang. Latency faults are a
// seeded interleaving — at every send and receive the executor may run any
// ready rank first, as if messages took arbitrary times — and collectives and
// whole training steps must stay *bitwise* identical under them. Poisoned
// payloads must surface as a loud FaultError naming the collective in flight,
// never as silent divergence or a deadlock. Every test runs under a watchdog
// so a wedged collective aborts the suite with a diagnosis instead of timing
// out CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fabric.hpp"
#include "mesh/mesh.hpp"
#include "obs/flight.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "test_helpers.hpp"
#include "testing/equivalence.hpp"
#include "testing/fuzz_config.hpp"
#include "testing/watchdog.hpp"

namespace oc = optimus::comm;
namespace ots = optimus::testing;

namespace {

/// Per-rank result of an allreduce + barrier round, optionally faulted.
std::vector<std::vector<double>> allreduce_results(int world, const oc::FaultPlan* plan) {
  std::vector<std::vector<double>> out(world);
  std::mutex mu;
  const auto body = [&](oc::Context& ctx) {
    std::vector<double> data(17);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = (ctx.rank + 1) * 0.5 + static_cast<double>(i) * 0.25;
    }
    ctx.world.all_reduce(data.data(), static_cast<optimus::tensor::index_t>(data.size()));
    ctx.world.barrier();
    std::lock_guard<std::mutex> lock(mu);
    out[ctx.rank] = data;
  };
  if (plan) {
    oc::run_cluster(world, *plan, body);
  } else {
    oc::run_cluster(world, body);
  }
  return out;
}

/// The order in which the ranks of a 4-rank run enter their bodies, then
/// leave an all-reduce.
std::vector<int> pass_order(std::uint64_t schedule_seed) {
  oc::FaultPlan plan;
  plan.seed = schedule_seed;
  std::vector<int> order;
  oc::run_cluster(4, plan, [&](oc::Context& ctx) {
    order.push_back(ctx.rank);
    double v = ctx.rank;
    ctx.world.all_reduce(&v, 1);
    order.push_back(ctx.rank);
  });
  return order;
}

/// The order in which the ranks of a 4-rank run leave each of three
/// back-to-back all-reduces: one block of four ranks per collective.
std::vector<int> leave_order(std::uint64_t schedule_seed) {
  oc::FaultPlan plan;
  plan.seed = schedule_seed;
  std::vector<int> order;
  oc::run_cluster(4, plan, [&](oc::Context& ctx) {
    double v = ctx.rank;
    for (int k = 0; k < 3; ++k) {
      ctx.world.all_reduce(&v, 1);
      order.push_back(ctx.rank);
    }
  });
  return order;
}

/// Whether every collective of a leave_order was first left by the rank that
/// left the one before it last. That holds whenever nothing switches ranks
/// between a collective's return and the next one's rendezvous: the last
/// rank to leave one collective runs straight into the next as its last
/// arriver, and the last arriver, which moves the data, leaves first.
bool chained(const std::vector<int>& order) {
  for (std::size_t k = 1; k < 3; ++k) {
    if (order[4 * k] != order[4 * k - 1]) return false;
  }
  return true;
}

}  // namespace

TEST(Fault, LatencySpikesLeaveCollectivesBitwiseUnchanged) {
  ots::Watchdog wd("fault spike test", std::chrono::seconds(120));
  // A latency spike is a seeded interleaving: any ready rank may run first at
  // every send and receive, as if that message took arbitrarily long.
  const auto base = allreduce_results(4, nullptr);
  for (const std::uint64_t seed : {ots::test_seed(99), std::uint64_t{424242}}) {
    OPTIMUS_SEED_TRACE(seed);
    oc::FaultPlan plan;
    plan.seed = seed;
    EXPECT_EQ(base, allreduce_results(4, &plan));
  }
}

TEST(Fault, StallingRankDoesNotDeadlockOrDiverge) {
  ots::Watchdog wd("fault stall test", std::chrono::seconds(120));
  // A straggler is one of the interleavings a seeded pick draws: a rank left
  // in the ready queue while its peers run on lags all of its receives.
  const std::uint64_t seed = ots::test_seed(100);
  OPTIMUS_SEED_TRACE(seed);
  const auto base = allreduce_results(4, nullptr);
  oc::FaultPlan plan;
  plan.seed = seed;
  EXPECT_EQ(base, allreduce_results(4, &plan));
}

TEST(Fault, SeededScheduleReordersRanksAndReplays) {
  ots::Watchdog wd("fault seeded order test", std::chrono::seconds(60));
  // Without a seed the runner starts the ranks in rank order. A seeded pick
  // must start them in another order for some seed of a small fixed set (a
  // pick that quietly fell back to FIFO would not), and a seed must replay
  // its order exactly.
  const std::vector<int> fifo = pass_order(0);
  ASSERT_EQ(fifo.size(), 8u);
  EXPECT_EQ(std::vector<int>(fifo.begin(), fifo.begin() + 4), (std::vector<int>{0, 1, 2, 3}));
  int reordered = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const std::vector<int> order = pass_order(seed);
    EXPECT_EQ(order, pass_order(seed)) << "seed " << seed << " did not replay its order";
    reordered += !std::equal(fifo.begin(), fifo.begin() + 4, order.begin());
  }
  EXPECT_GT(reordered, 0) << "no seed changed the order in which the ranks start";

  // Every collective's rendezvous is a switch point: under some seed of the
  // set another rank runs first there, which breaks the chain of leave_order,
  // and each seed replays its order. FIFO order never switches there.
  const std::vector<int> fifo_leaves = leave_order(0);
  ASSERT_EQ(fifo_leaves.size(), 12u);
  EXPECT_TRUE(chained(fifo_leaves));
  int unchained = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const std::vector<int> order = leave_order(seed);
    EXPECT_EQ(order, leave_order(seed)) << "seed " << seed << " did not replay its leave order";
    unchained += !chained(order);
  }
  EXPECT_GT(unchained, 0) << "no seed switched ranks at a collective's rendezvous";
}

TEST(Fault, PoisonedPayloadFailsLoudlyNamingTheOp) {
  ots::Watchdog wd("fault poison test", std::chrono::seconds(120));
  oc::FaultPlan plan;
  plan.seed = 7;
  plan.poison_prob = 1.0;
  // The ordered fold must name itself, not the ring all-reduce it is charged as.
  const std::pair<const char*, std::function<void()>> inputs[] = {
      {"op 'allreduce'", [&] { allreduce_results(4, &plan); }},
      {"op 'allreduce_ordered'",
       [&] {
         oc::run_cluster(4, plan, [](oc::Context& ctx) {
           std::vector<double> data(17, 0.5 * (ctx.rank + 1));
           ctx.world.all_reduce_ordered(data.data(), 17);
         });
       }},
  };
  for (const auto& [op, run] : inputs) {
    try {
      run();
      ADD_FAILURE() << "poisoned collective completed silently: " << op;
    } catch (const oc::FaultError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
      EXPECT_NE(what.find(op), std::string::npos)
          << "diagnostic does not name the op: " << what;
    }
  }
}

TEST(Fault, RankExceptionAbortsPeersAndRethrowsRootError) {
  // A plain exception on one rank (no fabric fault) must still be fail-stop:
  // its peers, blocked in an all_reduce that rank never enters, unwind with
  // FabricAborted, and run() rethrows the original error — not the unwinds.
  ots::Watchdog wd("rank exception test", std::chrono::seconds(60));
  try {
    oc::run_cluster(4, [](oc::Context& ctx) {
      if (ctx.rank == 2) throw std::runtime_error("boom");
      std::vector<double> data(8, 1.0);
      ctx.world.all_reduce(data.data(), static_cast<optimus::tensor::index_t>(data.size()));
    });
    FAIL() << "run completed although rank 2 threw";
  } catch (const oc::FabricAborted& e) {
    FAIL() << "secondary unwind rethrown instead of the root error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Fault, PoisonDiagnosticIsDeterministic) {
  ots::Watchdog wd("fault determinism test", std::chrono::seconds(120));
  // A single point-to-point message so exactly one poison site exists: the
  // seeded draws and the resulting diagnostic must replay identically.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(41);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  const auto poison_what = [&]() -> std::string {
    try {
      oc::run_cluster(2, plan, [](oc::Context& ctx) {
        std::vector<double> v(9, 1.5);
        if (ctx.rank == 0) {
          ctx.world.send(1, /*tag=*/0, v.data(), 9);
        } else {
          ctx.world.recv(0, /*tag=*/0, v.data(), 9);
        }
      });
      return "";
    } catch (const oc::FaultError& e) {
      return e.what();
    }
  };
  const std::string first = poison_what();
  ASSERT_NE(first.find("poisoned payload"), std::string::npos) << "what: " << first;
  EXPECT_EQ(first, poison_what());
}

TEST(Fault, PoisonedCollectiveDiagnosticIsScheduleIndependent) {
  ots::Watchdog wd("fault collective poison determinism test", std::chrono::seconds(120));
  // A collective's poison sites are the members it delivers bytes to, drawn
  // by its last arriver per (seed, communicator, seq, member). At
  // poison_prob 1 the first receiving member in group order is hit: rank 0
  // for an all-reduce; rank 1 for a reduce toward rank 1 on four ranks, where
  // only the root and relative rank 2 (rank 3) receive. The FaultError must
  // name the op and that rank, byte-identically under FIFO and two seeded
  // schedules.
  const auto poison_what = [](std::uint64_t seed, bool reduce) -> std::string {
    oc::FaultPlan plan;
    plan.seed = seed;
    plan.poison_prob = 1.0;
    try {
      oc::run_cluster(4, plan, [&](oc::Context& ctx) {
        std::vector<double> v(9, 0.5 * (ctx.rank + 1));
        if (reduce) {
          oc::Request req = ctx.world.ireduce(v.data(), 9, /*root=*/1);
          req.wait();
        } else {
          ctx.world.all_reduce(v.data(), 9);
        }
      });
      return "";
    } catch (const oc::FaultError& e) {
      return e.what();
    }
  };
  const std::tuple<bool, const char*, const char*> inputs[] = {
      {false, "op 'allreduce'", "rank 0 (world 0)"},
      {true, "op 'ireduce'", "rank 1 (world 1)"},
  };
  for (const auto& [reduce, op, receiver] : inputs) {
    const std::string first = poison_what(0, reduce);
    EXPECT_NE(first.find("poisoned payload"), std::string::npos) << "what: " << first;
    EXPECT_NE(first.find(op), std::string::npos) << "diagnostic does not name the op: " << first;
    EXPECT_NE(first.find(receiver), std::string::npos)
        << "diagnostic does not name the receiving rank: " << first;
    for (const std::uint64_t seed : {2, 424242}) {
      EXPECT_EQ(first, poison_what(seed, reduce)) << "schedule seed " << seed;
    }
  }
}

TEST(Fault, PoisonedCollectiveLeavesPostmortemOnEveryRank) {
  ots::Watchdog wd("fault postmortem test", std::chrono::seconds(120));
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } guard;

  oc::FaultPlan plan;
  plan.seed = 7;
  plan.poison_prob = 1.0;  // every receiving member is hit; the first one throws
  const auto slurp = [](const std::string& path) -> std::string {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing post-mortem dump " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto run_dumping = [&](const std::string& prefix) {
    ob::flight_reset();
    ob::set_flight_enabled(true);
    ob::flight_set_postmortem_prefix(prefix);
    try {
      allreduce_results(4, &plan);
      ADD_FAILURE() << "poisoned collective completed silently";
    } catch (const oc::FaultError&) {
    } catch (const oc::FabricAborted&) {
    }
  };

  const std::string prefix_a = ::testing::TempDir() + "postmortem_a";
  run_dumping(prefix_a);
  for (int r = 0; r < 4; ++r) {
    const std::string path = prefix_a + ".rank" + std::to_string(r) + ".json";
    const ob::Json dump = ob::Json::parse(slurp(path));
    EXPECT_EQ(dump.get("rank").as_number(), static_cast<double>(r)) << path;
    // The op each rank was inside when it threw is deterministic and must be
    // named — here every rank dies inside the poisoned allreduce.
    EXPECT_EQ(dump.get("abort_op").as_string(), "allreduce") << path;
    EXPECT_GT(dump.get("events_seen").as_number(), 0.0) << path;
    ASSERT_FALSE(dump.get("events").items().empty()) << path;
    bool named = false;
    for (const auto& e : dump.get("events").items()) {
      named = named || e.get("name").as_string() == "allreduce";
    }
    EXPECT_TRUE(named) << path << " ring never mentions the aborting op";
  }

  // Same seed, fresh run: each rank's dump must be byte-identical (the ring
  // holds only sim timestamps and this rank's own deterministic notes).
  const std::string prefix_b = ::testing::TempDir() + "postmortem_b";
  run_dumping(prefix_b);
  for (int r = 0; r < 4; ++r) {
    const std::string suffix = ".rank" + std::to_string(r) + ".json";
    EXPECT_EQ(slurp(prefix_a + suffix), slurp(prefix_b + suffix))
        << "rank " << r << " dump differs across identical runs";
  }
}

TEST(Fault, OptimusTrainingStepBitwiseUnderLatencyFaults) {
  ots::Watchdog wd("fault training-step test", std::chrono::seconds(120));
  // A fixed q=2 config run through the full differential harness with the
  // fault-replay stage on: the replay requires bitwise-identical hidden
  // states, losses and gradients under a seeded interleaving.
  const ots::FuzzConfig fc = ots::FuzzConfig::parse(
      "q=2,mp=1,b=2,s=3,heads=2,hd=3,v=12,layers=2,mlp=2,dtype=f64,threads=2,"
      "ckpt2d=1,ckpt1d=1,buf=pool,lr=0.05,pseed=2024,dseed=11");
  ots::EquivalenceOptions opts;
  opts.run_megatron = false;
  opts.fault_replay = true;
  const ots::EquivalenceResult res = ots::run_equivalence(fc, opts);
  EXPECT_TRUE(res.pass()) << ots::summarize(res);
  EXPECT_TRUE(res.fault_replay_ran);
  EXPECT_TRUE(res.fault_replay_ok);
}

TEST(Fault, PoisonedAsyncPanelAbortsPipelinedSummaCleanly) {
  ots::Watchdog wd("fault async poison test", std::chrono::seconds(120));
  // Poison an in-flight panel broadcast of the pipelined SUMMA schedule: the
  // consuming wait must abort the whole fabric with a FaultError naming the
  // async op — no deadlock (ranks blocked in irecv unwind via FabricAborted),
  // no silent corruption.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(55);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  optimus::summa::PipelineGuard guard(true);
  try {
    oc::run_cluster(4, plan, [](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      using DTensor = optimus::tensor::DTensor;
      using Shape = optimus::tensor::Shape;
      DTensor A = DTensor::zeros(Shape{6, 6});
      DTensor B = DTensor::zeros(Shape{6, 6});
      DTensor C = DTensor::zeros(Shape{6, 6});
      optimus::summa::summa_ab(mesh, A, B, C);
    });
    FAIL() << "poisoned pipelined SUMMA completed silently";
  } catch (const oc::FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
    EXPECT_NE(what.find("ibroadcast"), std::string::npos)
        << "diagnostic does not name the async op: " << what;
  }
}

TEST(Fault, PoisonedDepthReduceAbortsCleanlyNamingTheOp) {
  ots::Watchdog wd("fault depth poison test", std::chrono::seconds(120));
  // On a 1×1×2 mesh the only payload transfers in a 2.5D product are the
  // depth fold's tree reduce and the replica broadcast of C. Poisoning the
  // first receive must abort the fabric with a FaultError naming the depth
  // reduce — every rank unwinds (watchdog proves no deadlock), nothing is
  // silently wrong.
  oc::FaultPlan plan;
  plan.seed = ots::test_seed(57);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.poison_prob = 1.0;
  try {
    oc::run_cluster(2, plan, [](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world, /*depth=*/2);
      using DTensor = optimus::tensor::DTensor;
      using Shape = optimus::tensor::Shape;
      DTensor A = DTensor::zeros(Shape{4, 6});
      DTensor B = DTensor::zeros(Shape{6, 4});
      DTensor C = DTensor::zeros(Shape{4, 4});
      optimus::summa::summa_ab(mesh, A, B, C);
    });
    FAIL() << "poisoned 2.5D SUMMA completed silently";
  } catch (const oc::FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("poisoned payload"), std::string::npos) << what;
    EXPECT_NE(what.find("ireduce"), std::string::npos)
        << "diagnostic does not name the depth reduce: " << what;
  }
}

TEST(Fault, PoisonedDepthReduceLeavesDeterministicPostmortems) {
  ots::Watchdog wd("fault depth postmortem test", std::chrono::seconds(120));
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } guard;

  oc::FaultPlan plan;
  plan.seed = 13;
  plan.poison_prob = 1.0;
  const auto slurp = [](const std::string& path) -> std::string {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing post-mortem dump " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const auto run_dumping = [&](const std::string& prefix) {
    ob::flight_reset();
    ob::set_flight_enabled(true);
    ob::flight_set_postmortem_prefix(prefix);
    try {
      oc::run_cluster(2, plan, [](oc::Context& ctx) {
        optimus::mesh::Mesh2D mesh(ctx.world, /*depth=*/2);
        using DTensor = optimus::tensor::DTensor;
        using Shape = optimus::tensor::Shape;
        DTensor A = DTensor::zeros(Shape{4, 6});
        DTensor B = DTensor::zeros(Shape{6, 4});
        DTensor C = DTensor::zeros(Shape{4, 4});
        optimus::summa::summa_ab(mesh, A, B, C);
      });
      ADD_FAILURE() << "poisoned 2.5D SUMMA completed silently";
    } catch (const oc::FaultError&) {
    } catch (const oc::FabricAborted&) {
    }
  };

  const std::string prefix_a = ::testing::TempDir() + "postmortem_depth_a";
  run_dumping(prefix_a);
  // Rank 0 is the depth-fold root: its first (and only) receive is the
  // poisoned tree-reduce leg, which the async collective takes at issue —
  // the dump must blame the depth reduce.
  const ob::Json dump0 = ob::Json::parse(slurp(prefix_a + ".rank0.json"));
  EXPECT_EQ(dump0.get("rank").as_number(), 0.0);
  EXPECT_EQ(dump0.get("abort_op").as_string(), "ireduce");
  EXPECT_GT(dump0.get("events_seen").as_number(), 0.0);

  // Same seed, fresh run: each rank's dump must replay byte-identically.
  const std::string prefix_b = ::testing::TempDir() + "postmortem_depth_b";
  run_dumping(prefix_b);
  for (int r = 0; r < 2; ++r) {
    const std::string suffix = ".rank" + std::to_string(r) + ".json";
    EXPECT_EQ(slurp(prefix_a + suffix), slurp(prefix_b + suffix))
        << "rank " << r << " dump differs across identical runs";
  }
}

TEST(Fault, LatencyFaultsLeave25dSummaBitwise) {
  ots::Watchdog wd("fault 2.5d latency test", std::chrono::seconds(120));
  // Seeded interleavings on a 2×2×2 mesh perturb the arrival order of the
  // sub-panel broadcasts and the depth fold; FIFO matching per (src, tag)
  // must keep every rank's result — all depth replicas included — bitwise
  // identical to the FIFO run, under both SUMMA schedules.
  const std::uint64_t seed = ots::test_seed(58);
  OPTIMUS_SEED_TRACE(seed);
  using DTensor = optimus::tensor::DTensor;
  using Shape = optimus::tensor::Shape;
  const int q = 2, d = 2;
  const auto run_faulted = [&](const oc::FaultPlan* plan, bool pipelined) {
    std::vector<std::vector<double>> out(q * q * d);
    std::mutex mu;
    optimus::summa::PipelineGuard guard(pipelined);
    const auto body = [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world, d);
      // Seed by mesh cell so depth replicas hold identical blocks, as the
      // 2.5D contract requires.
      optimus::util::Rng rng(800 + mesh.row() * q + mesh.col());
      DTensor A(Shape{4, 6}), B(Shape{6, 4}), C(Shape{4, 4});
      for (optimus::tensor::index_t i = 0; i < A.numel(); ++i) A[i] = rng.uniform(-1, 1);
      for (optimus::tensor::index_t i = 0; i < B.numel(); ++i) B[i] = rng.uniform(-1, 1);
      C.zero();
      optimus::summa::summa_ab(mesh, A, B, C);
      std::vector<double> mine(C.numel());
      for (optimus::tensor::index_t i = 0; i < C.numel(); ++i) mine[i] = C[i];
      std::lock_guard<std::mutex> lock(mu);
      out[ctx.rank] = std::move(mine);
    };
    if (plan) {
      oc::run_cluster(q * q * d, *plan, body);
    } else {
      oc::run_cluster(q * q * d, body);
    }
    return out;
  };
  for (const bool pipelined : {false, true}) {
    const auto base = run_faulted(nullptr, pipelined);
    for (const std::uint64_t s : {seed, std::uint64_t{424242}}) {
      oc::FaultPlan plan;
      plan.seed = s;
      EXPECT_EQ(base, run_faulted(&plan, pipelined))
          << (pipelined ? "pipelined" : "blocking") << " schedule diverged under seed " << s;
    }
  }
}

TEST(Fault, LatencyFaultsLeavePipelinedSummaBitwise) {
  ots::Watchdog wd("fault async latency test", std::chrono::seconds(120));
  // Seeded interleavings perturb the arrival order of the async panels and
  // reduces; FIFO matching per (src, tag) must keep the pipelined result
  // bitwise identical anyway — for the broadcast forms and the reduce forms.
  const std::uint64_t seed = ots::test_seed(56);
  OPTIMUS_SEED_TRACE(seed);
  using DTensor = optimus::tensor::DTensor;
  using Shape = optimus::tensor::Shape;
  const int q = 2;
  const auto run_faulted = [&](const oc::FaultPlan* plan) {
    DTensor C_global = DTensor::zeros(Shape{12, 8});  // gathered D blocks [6, 4]
    std::mutex mu;
    optimus::summa::PipelineGuard guard(true);
    const auto body = [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::util::Rng rng(700 + ctx.rank);
      DTensor A(Shape{4, 6}), B(Shape{6, 4}), C(Shape{4, 4}), D(Shape{6, 4});
      for (optimus::tensor::index_t i = 0; i < A.numel(); ++i) A[i] = rng.uniform(-1, 1);
      for (optimus::tensor::index_t i = 0; i < B.numel(); ++i) B[i] = rng.uniform(-1, 1);
      C.zero();
      D.zero();
      optimus::summa::summa_ab(mesh, A, B, C);     // async broadcasts
      optimus::summa::summa_atb(mesh, A, C, D);    // async broadcasts + reduces
      std::lock_guard<std::mutex> lock(mu);
      optimus::tensor::set_matrix_block(C_global, q, mesh.row(), mesh.col(), D);
    };
    if (plan) {
      oc::run_cluster(q * q, *plan, body);
    } else {
      oc::run_cluster(q * q, body);
    }
    return C_global;
  };
  const DTensor base = run_faulted(nullptr);
  for (const std::uint64_t s : {seed, std::uint64_t{424242}}) {
    oc::FaultPlan plan;
    plan.seed = s;
    const DTensor faulted = run_faulted(&plan);
    for (optimus::tensor::index_t i = 0; i < base.numel(); ++i) {
      ASSERT_EQ(faulted[i], base[i]) << "diverged at " << i << " under seed " << s;
    }
  }
}
