// The fabric under concurrent communicators: per-communicator rendezvous
// slots, per-peer channels and the collective signature check.
//
// Every test runs under a watchdog: a regression in the slot ring or the
// channel wake-ups shows up as a hang, which the watchdog turns into a named
// failure instead of a stuck suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/executor.hpp"
#include "comm/fabric.hpp"
#include "kernel/thread_pool.hpp"
#include "mesh/mesh.hpp"
#include "testing/watchdog.hpp"

namespace oc = optimus::comm;
namespace ots = optimus::testing;
using optimus::tensor::index_t;
using optimus::util::CheckError;

namespace {

/// Integer-valued contribution of world rank `w` in round `round`: sums of
/// these are exact in any order, so a reference computed serially must match
/// the collectives bit for bit.
float value(int w, int round, index_t i) {
  return static_cast<float>((w * 7 + round * 3 + static_cast<int>(i % 13)) % 29);
}

std::vector<float> contribution(int w, int round, index_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = value(w, round, i);
  return v;
}

/// What each rank caught, by rank, for the unwinding tests.
class Outcomes {
 public:
  explicit Outcomes(int p) : kinds_(p, "returned") {}

  void set(int rank, std::string kind) {
    std::lock_guard<std::mutex> lock(mu_);
    kinds_[rank] = std::move(kind);
  }
  std::string get(int rank) {
    std::lock_guard<std::mutex> lock(mu_);
    return kinds_[rank];
  }

  /// Runs `body`, recording whether it unwound with a CheckError, a
  /// FabricAborted or something else, and rethrows.
  template <typename Body>
  void run(int rank, Body&& body) {
    try {
      body();
    } catch (const CheckError&) {
      set(rank, "CheckError");
      throw;
    } catch (const oc::FabricAborted&) {
      set(rank, "FabricAborted");
      throw;
    } catch (...) {
      set(rank, "other");
      throw;
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::string> kinds_;
};

/// Runs a 4-rank cluster whose `body` misuses a collective and returns the
/// rethrown diagnostic; every rank must have thrown a CheckError.
std::string misuse_diagnostic(const std::function<void(oc::Context&)>& body) {
  Outcomes outcomes(4);
  std::string what;
  try {
    oc::run_cluster(4, [&](oc::Context& ctx) { outcomes.run(ctx.rank, [&] { body(ctx); }); });
    ADD_FAILURE() << "misused collective completed";
  } catch (const CheckError& e) {
    what = e.what();
  }
  for (int r = 0; r < 4; ++r) EXPECT_EQ(outcomes.get(r), "CheckError") << "rank " << r;
  return what;
}

}  // namespace

TEST(Fabric, InterleavedRowAndColumnCollectivesMatchReference) {
  // p = 16 on a 4×4 mesh. Each round, row and column communicators issue
  // blocking and async collectives back to back, with async requests left
  // outstanding across the other communicator's calls. The column broadcast
  // of 20 000 floats crosses nodes, so it streams in chunks.
  ots::Watchdog wd("fabric interleaved collectives", std::chrono::seconds(120));
  constexpr int kQ = 4;
  constexpr int kRounds = 6;
  constexpr index_t kSmall = 37;
  constexpr index_t kLarge = 20000;
  std::mutex mu;
  int checked = 0;
  oc::run_cluster(kQ * kQ, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    oc::Communicator& row = mesh.row_comm();
    oc::Communicator& col = mesh.col_comm();
    ASSERT_EQ(row.rank(), mesh.col());
    ASSERT_EQ(col.rank(), mesh.row());
    const int r = mesh.row();
    const int c = mesh.col();
    for (int round = 0; round < kRounds; ++round) {
      const int row_root = round % kQ;
      const int col_root = (round + 1) % kQ;
      std::vector<float> a = contribution(ctx.rank, round, kSmall);
      std::vector<float> b = contribution(ctx.rank, round + 100, kLarge);
      std::vector<float> red = contribution(ctx.rank, round + 200, kSmall);
      std::vector<float> sum = contribution(ctx.rank, round + 300, kSmall);
      std::vector<float> gathered(static_cast<std::size_t>(kSmall) * kQ);

      oc::Request a_req = row.ibroadcast(a.data(), kSmall, row_root);
      col.broadcast(b.data(), kLarge, col_root);
      oc::Request red_req = col.ireduce(red.data(), kSmall, col_root);
      row.all_reduce(sum.data(), kSmall);
      const std::vector<float> mine = contribution(ctx.rank, round + 400, kSmall);
      col.all_gather(mine.data(), kSmall, gathered.data());
      red_req.wait();
      a_req.wait();
      row.barrier();

      EXPECT_EQ(a, contribution(mesh.rank_of(r, row_root), round, kSmall));
      EXPECT_EQ(b, contribution(mesh.rank_of(col_root, c), round + 100, kLarge));
      if (r == col_root) {
        std::vector<float> want(static_cast<std::size_t>(kSmall), 0.0f);
        for (int rr = 0; rr < kQ; ++rr) {
          const auto v = contribution(mesh.rank_of(rr, c), round + 200, kSmall);
          for (std::size_t i = 0; i < want.size(); ++i) want[i] += v[i];
        }
        EXPECT_EQ(red, want);
      }
      std::vector<float> want_sum(static_cast<std::size_t>(kSmall), 0.0f);
      for (int cc = 0; cc < kQ; ++cc) {
        const auto v = contribution(mesh.rank_of(r, cc), round + 300, kSmall);
        for (std::size_t i = 0; i < want_sum.size(); ++i) want_sum[i] += v[i];
      }
      EXPECT_EQ(sum, want_sum);
      for (int rr = 0; rr < kQ; ++rr) {
        const auto v = contribution(mesh.rank_of(rr, c), round + 400, kSmall);
        EXPECT_TRUE(std::equal(v.begin(), v.end(), gathered.begin() + rr * kSmall));
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++checked;
  });
  EXPECT_EQ(checked, kQ * kQ);
}

TEST(Fabric, ThrowWakesRanksParkedInSlotsAndChannels) {
  // Rank 5 throws while its peers are parked across the fabric: in the
  // rendezvous slots of two row and two column communicators and in
  // receives on four different channels. Every peer must unwind with
  // FabricAborted and run() must rethrow rank 5's error. The test pins FIFO
  // order by running without a fault plan: under a seeded schedule a peer
  // could still be runnable, not parked, when rank 5 throws.
  ots::Watchdog wd("fabric abort wakes every waiter", std::chrono::seconds(60));
  Outcomes outcomes(16);
  const auto start = std::chrono::steady_clock::now();
  try {
    oc::run_cluster(16, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      // Every rank has built its mesh once the barrier completes.
      ctx.world.barrier();
      outcomes.run(ctx.rank, [&] {
        std::vector<float> buf(8, 1.0f);
        const index_t n = static_cast<index_t>(buf.size());
        switch (ctx.rank) {
          case 5:  // row 1, col 1
            // Ranks run in FIFO order, so yielding once lets every peer run
            // until it parks: none of their calls can complete while rank 5
            // stays out, so none of them wakes again before the throw.
            oc::Executor::yield();
            throw std::runtime_error("rank 5 boom");
          case 4: case 6: case 7:  // row 1 waits for rank 5
            mesh.row_comm().all_reduce(buf.data(), n);
            break;
          case 1: case 9: case 13:  // column 1 waits for rank 5
            mesh.col_comm().broadcast(buf.data(), n, 1);
            break;
          case 0: case 2:  // row 0 waits for ranks 1 and 3
            mesh.row_comm().barrier();
            break;
          case 3:
            ctx.world.recv(5, 0, buf.data(), n);
            break;
          case 8:
            ctx.world.recv(4, 0, buf.data(), n);
            break;
          case 12:
            ctx.world.recv(0, 0, buf.data(), n);
            break;
          case 15:
            ctx.world.recv(14, 0, buf.data(), n);
            break;
          default:  // 10, 11, 14 wait for columns 2 and 3
            mesh.col_comm().all_reduce(buf.data(), n);
            break;
        }
      });
    });
    FAIL() << "run completed although rank 5 threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 5 boom");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(outcomes.get(r), r == 5 ? "other" : "FabricAborted") << "rank " << r;
  }
}

TEST(Fabric, MismatchedBroadcastRootFailsByName) {
  ots::Watchdog wd("fabric root mismatch", std::chrono::seconds(30));
  const std::string what = misuse_diagnostic([](oc::Context& ctx) {
    std::vector<float> buf(16, 1.0f);
    ctx.world.broadcast(buf.data(), 16, ctx.rank == 3 ? 1 : 0);
  });
  EXPECT_NE(what.find("collective mismatch on communicator 'world'"), std::string::npos) << what;
  EXPECT_NE(what.find("seq 0"), std::string::npos) << what;
  EXPECT_NE(what.find("broadcast(n=16, root=1, elem=4B)"), std::string::npos) << what;
  EXPECT_NE(what.find("broadcast(n=16, root=0, elem=4B)"), std::string::npos) << what;
}

TEST(Fabric, MismatchedOpFailsByName) {
  ots::Watchdog wd("fabric op mismatch", std::chrono::seconds(30));
  using Call = void (*)(oc::Communicator&, float*);
  struct Input {
    Call rank0, peers;
    const char* rank0_sig;
    const char* peer_sig;
  };
  // The second input is the max and ordered folds: one fold body serves both,
  // yet the rendezvous still tells them apart.
  const Input inputs[] = {
      {[](oc::Communicator& c, float* b) { c.all_reduce(b, 16); },
       [](oc::Communicator& c, float* b) { c.broadcast(b, 16, 0); }, "allreduce(n=16, elem=4B)",
       "broadcast(n=16, root=0, elem=4B)"},
      {[](oc::Communicator& c, float* b) { c.all_reduce_max(b, 16); },
       [](oc::Communicator& c, float* b) { c.all_reduce_ordered(b, 16); },
       "allreduce_max(n=16, elem=4B)", "allreduce_ordered(n=16, elem=4B)"},
  };
  for (const Input& in : inputs) {
    const std::string what = misuse_diagnostic([&](oc::Context& ctx) {
      std::vector<float> buf(16, 1.0f);
      ctx.world.barrier();  // the mismatch is reported at the collective's seq
      (ctx.rank == 0 ? in.rank0 : in.peers)(ctx.world, buf.data());
    });
    EXPECT_NE(what.find("seq 1"), std::string::npos) << what;
    EXPECT_NE(what.find(in.rank0_sig), std::string::npos) << what;
    EXPECT_NE(what.find(in.peer_sig), std::string::npos) << what;
  }
}

TEST(Fabric, MismatchedCountFailsByName) {
  ots::Watchdog wd("fabric count mismatch", std::chrono::seconds(30));
  struct Input {
    void (*body)(oc::Context&);
    const char* rank0_sig;
    const char* peer_sig;
  };
  // Rank 0 disagrees on the payload: first its element count, then its
  // element type (f32 against the peers' f64).
  const Input inputs[] = {
      {[](oc::Context& ctx) {
         std::vector<float> buf(32, 1.0f);
         ctx.world.broadcast(buf.data(), ctx.rank == 0 ? 16 : 32, 0);
       },
       "broadcast(n=16, root=0, elem=4B)", "broadcast(n=32, root=0, elem=4B)"},
      {[](oc::Context& ctx) {
         std::vector<float> f32(16, 1.0f);
         std::vector<double> f64(16, 1.0);
         if (ctx.rank == 0) {
           ctx.world.all_reduce(f32.data(), 16);
         } else {
           ctx.world.all_reduce(f64.data(), 16);
         }
       },
       "allreduce(n=16, elem=4B)", "allreduce(n=16, elem=8B)"},
  };
  for (const Input& in : inputs) {
    const std::string what = misuse_diagnostic(in.body);
    EXPECT_NE(what.find("seq 0"), std::string::npos) << what;
    EXPECT_NE(what.find(in.rank0_sig), std::string::npos) << what;
    EXPECT_NE(what.find(in.peer_sig), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 (world 0)"), std::string::npos) << what;
  }
}

TEST(Fabric, RecvThatWouldParkOutsideAFiberThrows) {
  // A bare fabric has no executor: a receive with nothing to match could
  // never be woken, so it fails by name instead of hanging.
  ots::Watchdog wd("fabric bare recv", std::chrono::seconds(30));
  oc::Fabric fabric(2);
  const int sent = 5;
  fabric.send(0, 1, /*tag=*/3, &sent, sizeof(sent), /*timestamp=*/0.0);
  int out = 0;
  fabric.recv(1, 0, 3, &out, sizeof(out));  // matched: never parks
  EXPECT_EQ(out, sent);
  try {
    fabric.recv(1, 0, 3, &out, sizeof(out));
    FAIL() << "a receive with nothing to match returned";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("outside a fiber"), std::string::npos) << e.what();
  }
}

TEST(Fabric, RecvThatWouldParkInsideAKernelRegionThrows) {
  // Pool workers of a fanned-out region wait for its submitter, the runner
  // thread: a rank that parked there would stall them, so the wait fails by
  // name instead.
  ots::Watchdog wd("fabric park in kernel region", std::chrono::seconds(30));
  namespace ok = optimus::kernel;
  std::string what;
  try {
    oc::run_cluster(2, [&](oc::Context& ctx) {
      ok::ThreadPool::global().parallel_region(2, [&](ok::Region& r) {
        float x = 0;
        if (r.tid() == 0) ctx.world.recv(1 - ctx.rank, 0, &x, 1);
      });
    });
    ADD_FAILURE() << "a receive parked inside a kernel region";
  } catch (const CheckError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("inside a kernel parallel region"), std::string::npos) << what;
}
