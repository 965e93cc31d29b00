// Host cost of one collective on the simulated fabric.
//
//   bench_fabric [--ops 2000] [--repeats 3] [--out BENCH_fabric.json]
//
// For broadcast, ring all_reduce and barrier at p ∈ {2, 4, 16} ranks and
// payloads of {16, 4096} floats (barrier moves none), every rank issues
// `ops` back-to-back collectives on the world communicator; rank 0 times
// the loop between two barriers. A row's wall_ms and wall_us_per_op are the
// best of `repeats` such loops, so they track the fabric's fixed
// per-collective cost (rendezvous, channel wake-ups, payload copies) rather
// than host noise. sim_ms is the simulated time per op, for reference. Wall
// numbers depend on the host and are informational, not gated.

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "util/cli.hpp"

namespace oc = optimus::comm;
using optimus::tensor::index_t;

namespace {

enum class Op { kBroadcast, kAllReduce, kBarrier };

const char* op_name(Op op) {
  switch (op) {
    case Op::kBroadcast:
      return "broadcast";
    case Op::kAllReduce:
      return "allreduce";
    case Op::kBarrier:
      return "barrier";
  }
  return "?";
}

struct Timing {
  double wall_s = 0;  // rank 0's loop time
  double sim_s = 0;   // rank 0's simulated time across the loop
};

Timing time_loop(Op op, int p, index_t n, int ops) {
  Timing t;
  oc::run_cluster(p, [&](oc::Context& ctx) {
    std::vector<float> data(static_cast<std::size_t>(n), 0.0f);  // sums stay finite
    ctx.world.barrier();
    const auto start = std::chrono::steady_clock::now();
    const double sim_start = ctx.clock.now();
    for (int i = 0; i < ops; ++i) {
      switch (op) {
        case Op::kBroadcast:
          ctx.world.broadcast(data.data(), n, i % p);
          break;
        case Op::kAllReduce:
          ctx.world.all_reduce(data.data(), n);
          break;
        case Op::kBarrier:
          ctx.world.barrier();
          break;
      }
    }
    ctx.world.barrier();
    if (ctx.rank == 0) {
      t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      t.sim_s = ctx.clock.now() - sim_start;
    }
  });
  return t;
}

}  // namespace

static int run_main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const int ops = cli.get_int("ops", 2000);
  const int repeats = cli.get_int("repeats", 3);
  const std::string out = cli.get_string("out", "BENCH_fabric.json");
  cli.finish();
  OPT_CHECK(ops >= 1 && repeats >= 1, "--ops and --repeats must be >= 1");

  optimus::bench::print_header("Fabric host cost per collective (best of " +
                               std::to_string(repeats) + " x " + std::to_string(ops) + " ops)");
  optimus::util::Table table({"op", "p", "floats", "wall us/op", "sim us/op"});
  optimus::bench::JsonWriter json;
  for (Op op : {Op::kBroadcast, Op::kAllReduce, Op::kBarrier}) {
    for (int p : {2, 4, 16}) {
      for (index_t n : {index_t{16}, index_t{4096}}) {
        if (op == Op::kBarrier && n != 16) continue;
        const index_t floats = op == Op::kBarrier ? 0 : n;
        double best = std::numeric_limits<double>::infinity();
        double sim = 0;
        for (int r = 0; r < repeats; ++r) {
          const Timing t = time_loop(op, p, floats, ops);
          best = std::min(best, t.wall_s);
          sim = t.sim_s;
        }
        const double us_per_op = best / ops * 1e6;
        const double sim_us_per_op = sim / ops * 1e6;
        const std::string name = std::string(op_name(op)) + "_p" + std::to_string(p) +
                                 (op == Op::kBarrier ? "" : "_n" + std::to_string(floats));
        table.add_row({op_name(op), std::to_string(p), std::to_string(floats),
                       optimus::util::Table::fmt(us_per_op, 1),
                       optimus::util::Table::fmt(sim_us_per_op, 3)});
        json.add(name, "p=" + std::to_string(p) + " floats=" + std::to_string(floats), 0,
                 us_per_op / 1e3, sim_us_per_op / 1e3,
                 {{"wall_us_per_op", us_per_op},
                  {"p", p},
                  {"floats", static_cast<double>(floats)},
                  {"ops", ops},
                  {"repeats", repeats}});
      }
    }
  }
  table.print(std::cout);
  json.write(out);
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
