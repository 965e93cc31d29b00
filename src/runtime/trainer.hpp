#pragma once

// Generic training loops.
//
// All three engines (SerialTransformer, MegatronTransformer,
// OptimusTransformer) expose the same step surface — forward / lm_loss /
// backward_lm / zero_grads / parameters / gradients — so one templated loop
// drives any of them. In distributed settings the loop runs identically on
// every rank (collectives inside the engine keep them in lockstep), and each
// rank's optimizer steps only the shards it owns.

#include <functional>
#include <type_traits>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/data.hpp"
#include "util/logging.hpp"

namespace optimus::runtime {

namespace detail {

/// One training step on the LM or classification branch (chosen by the batch
/// type); returns the loss.
template <typename Engine, typename Optimizer, typename Batch>
double train_step(Engine& engine, Optimizer& opt, const Batch& batch, double lr) {
  constexpr bool kLm = std::is_same_v<Batch, LmBatch>;
  const char* step_name = kLm ? "lm_step" : "cls_step";
  obs::Span step_span("runtime", step_name);
  // Step-phase telemetry on the lead rank only (every rank executes the
  // same step; emitting per-rank would multiply the histogram by p).
  const bool lead_metrics = obs::metrics_enabled() && obs::current_rank() <= 0;
  const double t0 = lead_metrics ? obs::sim_now() : 0;
  if (obs::flight_enabled()) obs::flight_note("runtime", step_name, obs::sim_now(), "");
  {
    obs::Span span("runtime", "forward");
    engine.forward(batch.tokens);
  }
  double loss = 0;
  {
    obs::Span span("runtime", kLm ? "lm_loss" : "cls_loss");
    if constexpr (kLm) {
      loss = static_cast<double>(engine.lm_loss(batch.labels));
    } else {
      loss = static_cast<double>(engine.cls_loss(batch.labels));
    }
  }
  {
    obs::Span span("runtime", "backward");
    engine.zero_grads();
    if constexpr (kLm) {
      engine.backward_lm();
    } else {
      engine.backward_cls();
    }
  }
  {
    obs::Span span("runtime", "optimizer");
    opt.step(engine.parameters(), engine.gradients(), lr);
  }
  if (lead_metrics) {
    obs::metrics_observe(kLm ? "runtime.lm_step_s" : "runtime.cls_step_s", obs::sim_now() - t0);
    obs::metrics_count(kLm ? "runtime.lm_steps" : "runtime.cls_steps");
  }
  return loss;
}

/// Runs `steps` training steps pulling batches from `next_batch`; returns the
/// loss trace.
template <typename Batch, typename Engine, typename Optimizer, typename Schedule>
std::vector<double> train_loop(Engine& engine, Optimizer& opt, const Schedule& schedule,
                               const std::function<Batch()>& next_batch, int steps,
                               int log_every) {
  const char* loss_name = std::is_same_v<Batch, LmBatch> ? "lm_loss" : "cls_loss";
  std::vector<double> losses;
  losses.reserve(static_cast<std::size_t>(steps));
  for (int step = 0; step < steps; ++step) {
    const Batch batch = next_batch();
    const double loss = train_step(engine, opt, batch, schedule(step));
    losses.push_back(loss);
    if (log_every > 0 && step % log_every == 0) {
      OPT_LOG(Info) << "step " << step << " " << loss_name << " " << loss;
    }
  }
  return losses;
}

}  // namespace detail

/// One LM training step; returns the loss.
template <typename Engine, typename Optimizer>
double lm_step(Engine& engine, Optimizer& opt, const LmBatch& batch, double lr) {
  return detail::train_step(engine, opt, batch, lr);
}

/// Runs `steps` LM steps pulling batches from `next_batch`; returns the loss
/// trace. `schedule` maps step index → learning rate.
template <typename Engine, typename Optimizer, typename Schedule>
std::vector<double> train_lm(Engine& engine, Optimizer& opt, const Schedule& schedule,
                             const std::function<LmBatch()>& next_batch, int steps,
                             int log_every = 0) {
  return detail::train_loop<LmBatch>(engine, opt, schedule, next_batch, steps, log_every);
}

/// One classification step; returns the loss.
template <typename Engine, typename Optimizer>
double cls_step(Engine& engine, Optimizer& opt, const ClsBatch& batch, double lr) {
  return detail::train_step(engine, opt, batch, lr);
}

template <typename Engine, typename Optimizer, typename Schedule>
std::vector<double> train_cls(Engine& engine, Optimizer& opt, const Schedule& schedule,
                              const std::function<ClsBatch()>& next_batch, int steps,
                              int log_every = 0) {
  return detail::train_loop<ClsBatch>(engine, opt, schedule, next_batch, steps, log_every);
}

/// Gradient accumulation: runs one forward/backward per micro-batch without
/// stepping, then rescales the accumulated gradients by 1/k so they equal the
/// full-batch mean gradient (exact when every micro-batch has the same number
/// of unmasked labels, as the standard next-token masking gives). Returns the
/// mean micro-batch loss; call the optimizer step afterwards.
template <typename Engine>
double accumulate_lm_gradients(Engine& engine, const std::vector<LmBatch>& micro_batches) {
  OPT_CHECK(!micro_batches.empty(), "need at least one micro-batch");
  engine.zero_grads();
  double loss_sum = 0;
  for (const LmBatch& batch : micro_batches) {
    engine.forward(batch.tokens);
    loss_sum += static_cast<double>(engine.lm_loss(batch.labels));
    engine.backward_lm();
  }
  const auto k = micro_batches.size();
  for (auto* g : engine.gradients()) {
    tensor::ops::scale_(*g,
                        static_cast<typename std::remove_reference_t<decltype(*g)>::value_type>(
                            1.0 / static_cast<double>(k)));
  }
  return loss_sum / static_cast<double>(k);
}

/// Mean of the last `k` entries (loss-trace convergence summaries).
inline double tail_mean(const std::vector<double>& xs, std::size_t k) {
  if (xs.empty()) return 0.0;
  k = std::min(k, xs.size());
  double acc = 0;
  for (std::size_t i = xs.size() - k; i < xs.size(); ++i) acc += xs[i];
  return acc / static_cast<double>(k);
}

}  // namespace optimus::runtime
