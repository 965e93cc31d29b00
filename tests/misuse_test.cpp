// Misused collectives that leave ranks waiting for a peer that never comes.
//
// Each case must end in bounded time (the watchdog turns a hang into a named
// failure) with a diagnostic that names, for every parked rank, the op, the
// communicator label and the collective sequence number it waits in. The
// signature mismatches (op, root, count, element type) are fabric_test's.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/communicator.hpp"
#include "comm/fabric.hpp"
#include "testing/watchdog.hpp"

namespace oc = optimus::comm;
namespace ots = optimus::testing;
using optimus::util::CheckError;

namespace {

constexpr int kP = 4;

/// Runs a kP-rank cluster that must deadlock and returns run()'s CheckError
/// text; every rank that did not return must have unwound with
/// FabricAborted.
std::string deadlock_diagnostic(const std::function<void(oc::Context&)>& body,
                                const std::vector<bool>& returns) {
  std::vector<std::string> outcome(kP, "returned");
  std::string what;
  try {
    oc::run_cluster(kP, [&](oc::Context& ctx) {
      try {
        body(ctx);
      } catch (const oc::FabricAborted&) {
        outcome[ctx.rank] = "FabricAborted";
        throw;
      }
    });
    ADD_FAILURE() << "a deadlocked run completed";
  } catch (const CheckError& e) {
    what = e.what();
  }
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(outcome[r], returns[r] ? "returned" : "FabricAborted") << "rank " << r;
  }
  return what;
}

void expect_contains(const std::string& what, const std::string& part) {
  EXPECT_NE(what.find(part), std::string::npos) << "missing '" << part << "' in:\n" << what;
}

}  // namespace

TEST(Misuse, EarlyReturnWhilePeersEnterACollective) {
  ots::Watchdog wd("misuse early return", std::chrono::seconds(30));
  const std::string what = deadlock_diagnostic(
      [](oc::Context& ctx) {
        ctx.world.barrier();
        if (ctx.rank == 2) return;
        std::vector<float> buf(8, 1.0f);
        ctx.world.all_reduce(buf.data(), 8);
      },
      {false, false, true, false});
  expect_contains(what, "deadlock");
  for (int r : {0, 1, 3}) {
    expect_contains(what, "rank " + std::to_string(r) +
                              " parked in allreduce on communicator 'world' (id 1) seq 1, "
                              "waiting for world rank(s) 2");
  }
  expect_contains(what, "rank 2 returned");
}

TEST(Misuse, SplitWhoseMembersDisagree) {
  // Ranks 0 and 1 split their half of the world; ranks 2 and 3 split the
  // world itself, where 0 and 1 never arrive.
  ots::Watchdog wd("misuse split disagreement", std::chrono::seconds(30));
  const std::string what = deadlock_diagnostic(
      [](oc::Context& ctx) {
        oc::Communicator half = ctx.world.split(ctx.rank / 2, ctx.rank);
        half.set_label("half");
        if (ctx.rank < 2) {
          (void)half.split(0, ctx.rank);
        } else {
          (void)ctx.world.split(0, ctx.rank);
        }
      },
      {true, true, false, false});
  for (int r : {2, 3}) {
    expect_contains(what, "rank " + std::to_string(r) +
                              " parked in split on communicator 'world' (id 1) seq 1, "
                              "waiting for world rank(s) 0 1");
  }
  expect_contains(what, "rank 0 returned");
  expect_contains(what, "rank 1 returned");
}

TEST(Misuse, ThrowAfterTheLastCollective) {
  // Rank 1 throws right after its last collective returns, while its peers
  // are still finishing that all-reduce or already wait in a barrier rank 1
  // never enters. The throw aborts the fabric, so this is no deadlock: run()
  // rethrows rank 1's error, and every peer's unwind names the failure and,
  // if the peer was parked, the op, communicator and seq it waited in. Which
  // peers are parked at the throw depends on the interleaving, so the test
  // pins FIFO order by running without a fault plan.
  ots::Watchdog wd("misuse throw after last collective", std::chrono::seconds(30));
  std::vector<std::string> unwinds(kP);
  try {
    oc::run_cluster(kP, [&](oc::Context& ctx) {
      try {
        std::vector<double> buf(8, 1.0);
        ctx.world.all_reduce(buf.data(), 8);
        if (ctx.rank == 1) throw std::runtime_error("rank 1 boom");
        ctx.world.barrier();
      } catch (const oc::FabricAborted& e) {
        unwinds[ctx.rank] = e.what();
        throw;
      }
    });
    FAIL() << "run completed although rank 1 threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 boom");
  }
  int woken = 0;
  for (int r : {0, 2, 3}) {
    expect_contains(unwinds[r], "rank 1 failed: rank 1 boom");
    if (unwinds[r].find("woke") == std::string::npos) continue;  // met the abort on entry
    ++woken;
    expect_contains(unwinds[r], "woke rank " + std::to_string(r) + " parked in ");
    expect_contains(unwinds[r], " on communicator 'world' (id 1) seq ");
  }
  EXPECT_GE(woken, 1) << "no peer was parked when rank 1 threw";
}
