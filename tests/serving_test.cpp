// Serving-path tests: KV-cached incremental decode and the continuous-batching
// scheduler.
//
// The load-bearing claims, each tested directly:
//   * decode ≡ prefill *bitwise* (0 ULPs) for every engine — serial, Optimus
//     2D at q ∈ {1,2,3}, Megatron 1D at p ∈ {1,2,3} — at shapes where both
//     paths take the same GEMM kernel dispatch (see the cutoff note below);
//   * eviction + replay is invisible: a request evicted mid-generation and
//     re-admitted produces the identical token sequence;
//   * a decode step's simulated cost equals the closed-form predictor exactly;
//   * injected latency faults never change served tokens; a poisoned
//     collective aborts loudly, naming the op, and the preserved request state
//     resumes on a fresh cluster to the identical completion.
//
// Shape note: kernel dispatch (ops.cpp) switches micro-kernels on m·n·k.
// Bitwise decode≡prefill additionally requires both paths to land on the
// same side of that cutoff, so these tests use tiny hidden sizes where every
// GEMM in both paths stays below it. Cross-dispatch shapes are covered by the
// ULP-budgeted fuzz stage in testing/equivalence.cpp instead.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/fabric.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "perfmodel/validation.hpp"
#include "serving/serving.hpp"
#include "serving/traffic.hpp"
#include "summa/summa.hpp"
#include "test_helpers.hpp"
#include "testing/watchdog.hpp"
#include "util/rng.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace opm = optimus::perfmodel;
namespace osv = optimus::serving;
namespace ots = optimus::testing;

using optimus::tensor::index_t;
using optimus::tensor::ITensor;
using optimus::tensor::Shape;

namespace {

/// Smallest config whose dimensions divide a group of size g and whose GEMMs
/// stay on one side of the kernel-dispatch cutoff in both prefill and decode.
om::TransformerConfig tiny_cfg(int g) {
  om::TransformerConfig cfg;
  cfg.heads = g == 3 ? 3 : 2;
  cfg.hidden = 2 * cfg.heads;  // head_dim 2
  cfg.vocab = g == 3 ? 9 : 8;
  cfg.batch = g == 3 ? 3 : 4;
  cfg.seq_len = 5;  // odd on purpose: no even-split luck in the cache layout
  cfg.layers = 2;
  cfg.causal = true;
  cfg.seed = 42;
  return cfg;
}

ITensor random_tokens(const om::TransformerConfig& cfg, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  ITensor t(Shape{cfg.batch, cfg.seq_len});
  for (index_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int32_t>(rng.uniform_index(cfg.vocab));
  }
  return t;
}

opm::Workload workload_of(const om::TransformerConfig& cfg) {
  opm::Workload w;
  w.b = cfg.batch;
  w.s = cfg.seq_len;
  w.h = cfg.hidden;
  w.n = cfg.heads;
  w.v = cfg.vocab;
  w.layers = cfg.layers;
  return w;
}

/// Requests with odd prompt lengths and staggered arrivals; deterministic.
std::vector<osv::Request> odd_requests(index_t vocab) {
  const std::size_t prompt_len[] = {1, 3, 5, 3, 1};
  const std::size_t max_new[] = {2, 3, 3, 2, 2};
  const double arrival[] = {0.0, 0.0, 0.0, 0.1, 0.2};
  optimus::util::Rng rng(5);
  std::vector<osv::Request> reqs;
  for (int i = 0; i < 5; ++i) {
    osv::Request r;
    r.id = i;
    r.arrival = arrival[i];
    r.max_new_tokens = max_new[i];
    for (std::size_t k = 0; k < prompt_len[i]; ++k) {
      r.prompt.push_back(static_cast<std::int32_t>(rng.uniform_index(vocab)));
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Generated tokens per request id from a set of completed requests.
std::vector<std::vector<std::int32_t>> outputs_by_id(const std::vector<osv::Request>& done,
                                                     std::size_t count) {
  std::vector<std::vector<std::int32_t>> out(count);
  for (const osv::Request& r : done) out[static_cast<std::size_t>(r.id)] = r.generated;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scheduler unit behavior.
// ---------------------------------------------------------------------------

TEST(Serving, SchedulerAdmitsFifoAndReusesFreedSlots) {
  ots::Watchdog wd("scheduler fifo test", std::chrono::seconds(120));
  osv::ContinuousBatchScheduler sched(/*slots=*/2, /*capacity=*/8);
  auto reqs = odd_requests(/*vocab=*/8);
  for (auto& r : reqs) sched.submit(std::move(r));

  ASSERT_TRUE(sched.admit(0.0));  // ids 0 and 1 (arrival 0) take the slots
  ASSERT_NE(sched.request_in_slot(0), nullptr);
  ASSERT_NE(sched.request_in_slot(1), nullptr);
  EXPECT_EQ(sched.request_in_slot(0)->id, 0);
  EXPECT_EQ(sched.request_in_slot(1)->id, 1);
  EXPECT_EQ(sched.queued(), 3u);

  // Drive id 0 (prompt 1, max_new 2) to completion with forced outputs. Each
  // step feeds one forced token and — once the cursor passes the forced end —
  // banks a generated one, so prompt 1 + 2 outputs takes 2 steps (the step
  // feeding the last prompt token already yields the first generation).
  std::vector<std::int32_t> tokens;
  std::vector<std::uint8_t> active;
  for (int step = 0; step < 2; ++step) {
    sched.plan_step(tokens, active);
    EXPECT_EQ(active[0], 1);
    EXPECT_EQ(active[1], 1);
    sched.commit_step({7, 7}, 0.0);
  }
  // id 0 finished; its slot must be free and the next admit hands it to id 2
  // (FIFO over arrived requests).
  EXPECT_EQ(sched.completed().size(), 1u);
  EXPECT_EQ(sched.completed()[0].id, 0);
  EXPECT_EQ(sched.request_in_slot(0), nullptr);
  ASSERT_TRUE(sched.admit(0.0));
  ASSERT_NE(sched.request_in_slot(0), nullptr);
  EXPECT_EQ(sched.request_in_slot(0)->id, 2);
}

TEST(Serving, SchedulerArrivedQueuedExcludesFutureArrivals) {
  ots::Watchdog wd("scheduler backlog test", std::chrono::seconds(120));
  osv::ContinuousBatchScheduler sched(/*slots=*/1, /*capacity=*/8);
  auto reqs = odd_requests(/*vocab=*/8);
  for (auto& r : reqs) sched.submit(std::move(r));
  ASSERT_TRUE(sched.admit(0.0));  // id 0 occupies the only slot
  // ids 1 and 2 (arrival 0) have arrived and wait; 3 and 4 are in the future.
  EXPECT_EQ(sched.queued(), 4u);
  EXPECT_EQ(sched.arrived_queued(0.0), 2u);
  EXPECT_EQ(sched.arrived_queued(0.15), 3u);
  EXPECT_EQ(sched.arrived_queued(1.0), 4u);
}

TEST(Serving, SchedulerEvictRewindsCursorAndPreservesProgress) {
  ots::Watchdog wd("scheduler evict test", std::chrono::seconds(120));
  osv::ContinuousBatchScheduler sched(/*slots=*/1, /*capacity=*/8);
  osv::Request r;
  r.id = 0;
  r.prompt = {3, 1, 4};
  r.max_new_tokens = 3;
  sched.submit(std::move(r));
  ASSERT_TRUE(sched.admit(0.0));
  std::vector<std::int32_t> tokens;
  std::vector<std::uint8_t> active;
  // Four steps: the prompt replay yields the first generation on step 3, so
  // two tokens are banked and one generation remains outstanding.
  for (int step = 0; step < 4; ++step) {
    sched.plan_step(tokens, active);
    sched.commit_step({6}, 0.0);
  }
  ASSERT_NE(sched.request_in_slot(0), nullptr);
  EXPECT_EQ(sched.request_in_slot(0)->generated.size(), 2u);
  sched.evict_slot(0);
  EXPECT_EQ(sched.request_in_slot(0), nullptr);
  // Re-admit: the forced sequence now replays prompt ++ generated from fed=0.
  ASSERT_TRUE(sched.admit(0.0));
  const osv::Request* back = sched.request_in_slot(0);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->fed, 0u);
  EXPECT_EQ(back->generated.size(), 2u);
  EXPECT_EQ(back->evictions, 1);
  sched.plan_step(tokens, active);
  EXPECT_EQ(tokens[0], 3);  // replay starts at the first prompt token
}

// ---------------------------------------------------------------------------
// Bitwise decode ≡ prefill, all three engines.
// ---------------------------------------------------------------------------

TEST(Serving, DecodeMatchesPrefillBitwiseSerial) {
  ots::Watchdog wd("serial decode equivalence", std::chrono::seconds(120));
  const om::TransformerConfig cfg = tiny_cfg(1);
  const ITensor tokens = random_tokens(cfg, 9);
  om::SerialTransformer<float> m(cfg);
  const auto hidden = m.forward(tokens).clone();  // [b*s, h]
  const auto logits = m.lm_logits();              // [b*s, v]
  auto cache = m.make_kv_cache(cfg.batch);
  const index_t h = cfg.hidden, v = cfg.vocab, s = cfg.seq_len;
  for (index_t t = 0; t < s; ++t) {
    ITensor step(Shape{cfg.batch});
    for (index_t b = 0; b < cfg.batch; ++b) step[b] = tokens.at(b, t);
    const auto& hid = m.forward_decode(step, cache);
    const auto lg = m.lm_logits_decode();
    for (index_t b = 0; b < cfg.batch; ++b) {
      EXPECT_EQ(0, std::memcmp(hid.data() + b * h, hidden.data() + (b * s + t) * h,
                               sizeof(float) * static_cast<std::size_t>(h)))
          << "hidden row b=" << b << " t=" << t;
      EXPECT_EQ(0, std::memcmp(lg.data() + b * v, logits.data() + (b * s + t) * v,
                               sizeof(float) * static_cast<std::size_t>(v)))
          << "logits row b=" << b << " t=" << t;
    }
  }
}

TEST(Serving, DecodeMatchesPrefillBitwiseOptimus) {
  ots::Watchdog wd("optimus decode equivalence", std::chrono::seconds(240));
  for (const int q : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "q=" << q);
    const om::TransformerConfig cfg = tiny_cfg(q);
    const ITensor tokens = random_tokens(cfg, 9);
    int bad_hidden = 0, bad_logits = 0;
    std::mutex mu;
    oc::run_cluster(q * q, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> eng(cfg, mesh);
      const auto hidden = eng.forward(tokens).clone();  // [b*s/q, h/q]
      const auto logits = eng.lm_logits_block();        // [b*s/q, v/q]
      auto cache = eng.make_kv_cache(cfg.batch);
      const index_t nl = cache.slots(), hq = eng.h_local(), vq = eng.vocab_local();
      const index_t s = cfg.seq_len;
      for (index_t t = 0; t < s; ++t) {
        ITensor step(Shape{cfg.batch});
        for (index_t b = 0; b < cfg.batch; ++b) step[b] = tokens.at(b, t);
        const auto hid = eng.forward_decode(step, cache, nullptr).clone();
        const auto lg = eng.lm_logits_decode_block();
        std::lock_guard<std::mutex> lock(mu);
        for (index_t r = 0; r < nl; ++r) {
          bad_hidden += std::memcmp(hid.data() + r * hq, hidden.data() + (r * s + t) * hq,
                                    sizeof(float) * static_cast<std::size_t>(hq)) != 0;
          bad_logits += std::memcmp(lg.data() + r * vq, logits.data() + (r * s + t) * vq,
                                    sizeof(float) * static_cast<std::size_t>(vq)) != 0;
        }
      }
    });
    EXPECT_EQ(bad_hidden, 0);
    EXPECT_EQ(bad_logits, 0);
  }
}

TEST(Serving, DecodeMatchesPrefillBitwiseMegatron) {
  ots::Watchdog wd("megatron decode equivalence", std::chrono::seconds(240));
  for (const int p : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const om::TransformerConfig cfg = tiny_cfg(p);
    const ITensor tokens = random_tokens(cfg, 9);
    int bad = 0;
    std::mutex mu;
    oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::megatron::MegatronTransformer<float> eng(cfg, ctx.world);
      const auto hidden = eng.forward(tokens).clone();  // [b*s, h] replicated
      auto cache = eng.make_kv_cache(cfg.batch);
      const index_t h = cfg.hidden, s = cfg.seq_len;
      for (index_t t = 0; t < s; ++t) {
        ITensor step(Shape{cfg.batch});
        for (index_t b = 0; b < cfg.batch; ++b) step[b] = tokens.at(b, t);
        const auto hid = eng.forward_decode(step, cache, nullptr).clone();
        std::lock_guard<std::mutex> lock(mu);
        for (index_t b = 0; b < cfg.batch; ++b) {
          bad += std::memcmp(hid.data() + b * h, hidden.data() + (b * s + t) * h,
                             sizeof(float) * static_cast<std::size_t>(h)) != 0;
        }
      }
    });
    EXPECT_EQ(bad, 0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end serving: cross-engine agreement, eviction replay, fault paths.
// ---------------------------------------------------------------------------

namespace {

om::TransformerConfig serving_cfg() {
  om::TransformerConfig cfg = tiny_cfg(2);
  cfg.seq_len = 6;  // room for prompt + output under the traffic below
  return cfg;
}

std::vector<osv::Request> serving_traffic(const om::TransformerConfig& cfg) {
  osv::TrafficConfig tc;
  tc.rate = 1.0;
  tc.count = 6;
  tc.prompt_min = 1;
  tc.prompt_max = 3;
  tc.output_min = 1;
  tc.output_max = 3;
  tc.vocab = cfg.vocab;
  tc.capacity = cfg.seq_len;
  tc.seed = 7;
  return osv::poisson_open_loop(tc);
}

/// Serves the fixed traffic on the serial engine; generated tokens per id.
std::vector<std::vector<std::int32_t>> serial_served_outputs(
    const om::TransformerConfig& cfg, const std::vector<osv::Request>& reqs) {
  om::SerialTransformer<float> m(cfg);
  osv::SerialDecodeEngine<float> eng(m, cfg.batch);
  double t = 0;
  const auto outcome = osv::run_serving<float>(
      eng, reqs, [&] { return t; }, [&](double x) { t = x; });
  EXPECT_FALSE(outcome.aborted);
  EXPECT_EQ(outcome.completed.size(), reqs.size());
  return outputs_by_id(outcome.completed, reqs.size());
}

}  // namespace

TEST(Serving, CrossEngineServedTokensIdentical) {
  ots::Watchdog wd("cross-engine serving test", std::chrono::seconds(240));
  const om::TransformerConfig cfg = serving_cfg();
  const auto reqs = serving_traffic(cfg);
  const auto serial_out = serial_served_outputs(cfg, reqs);

  int mismatch_2d = 0, mismatch_1d = 0;
  std::mutex mu;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> m(cfg, mesh);
    osv::OptimusDecodeEngine<float> eng(m, cfg.batch);
    const auto outcome = osv::run_serving<float>(
        eng, reqs, [&] { return ctx.clock.now(); }, [&](double t) { ctx.clock.set(t); });
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(outcome.aborted);
    EXPECT_EQ(outcome.completed.size(), reqs.size());
    for (const auto& r : outcome.completed) {
      mismatch_2d += r.generated != serial_out[static_cast<std::size_t>(r.id)];
    }
  });
  oc::run_cluster(2, [&](oc::Context& ctx) {
    optimus::megatron::MegatronTransformer<float> m(cfg, ctx.world);
    osv::MegatronDecodeEngine<float> eng(m, ctx.world, cfg.batch);
    const auto outcome = osv::run_serving<float>(
        eng, reqs, [&] { return ctx.clock.now(); }, [&](double t) { ctx.clock.set(t); });
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(outcome.aborted);
    EXPECT_EQ(outcome.completed.size(), reqs.size());
    for (const auto& r : outcome.completed) {
      mismatch_1d += r.generated != serial_out[static_cast<std::size_t>(r.id)];
    }
  });
  EXPECT_EQ(mismatch_2d, 0);
  EXPECT_EQ(mismatch_1d, 0);
}

TEST(Serving, EvictionReplayReproducesIdenticalTokens) {
  ots::Watchdog wd("eviction replay test", std::chrono::seconds(120));
  om::TransformerConfig cfg = tiny_cfg(1);
  cfg.seq_len = 9;  // capacity for prompt 5 + output 3
  cfg.batch = 2;    // two slots: admission pressure + freelist reuse
  const auto reqs = odd_requests(cfg.vocab);
  om::SerialTransformer<float> m(cfg);

  // Baseline: no evictions.
  osv::SerialDecodeEngine<float> base_eng(m, cfg.batch);
  double t1 = 0;
  const auto base = osv::run_serving<float>(
      base_eng, reqs, [&] { return t1; }, [&](double x) { t1 = x; });
  ASSERT_EQ(base.completed.size(), reqs.size());
  const auto base_out = outputs_by_id(base.completed, reqs.size());

  // Same traffic, but slot 0 is forcibly evicted twice mid-stream. The
  // request rewinds to fed=0, re-admits, replays its forced sequence — and
  // must land on byte-identical generated tokens.
  osv::SerialDecodeEngine<float> evict_eng(m, cfg.batch);
  double t2 = 0;
  osv::ServingSession<float> session(evict_eng, reqs);
  using Step = osv::ServingSession<float>::Step;
  int steps = 0;
  for (;;) {
    const Step s = session.step([&] { return t2; });
    if (s == Step::kDone) break;
    if (s == Step::kIdle) {
      t2 = session.scheduler().next_arrival();
      continue;
    }
    ++steps;
    if ((steps == 2 || steps == 6) && session.scheduler().request_in_slot(0) != nullptr) {
      session.scheduler().evict_slot(0);
      session.engine().reset_slot(0);
    }
  }
  const auto& done = session.scheduler().completed();
  ASSERT_EQ(done.size(), reqs.size());
  int evictions = 0;
  for (const auto& r : done) {
    evictions += r.evictions;
    EXPECT_EQ(r.generated, base_out[static_cast<std::size_t>(r.id)]) << "request " << r.id;
  }
  EXPECT_GT(evictions, 0) << "test failed to exercise any eviction";
}

TEST(Serving, LatencyFaultsLeaveServedTokensIdentical) {
  ots::Watchdog wd("serving latency fault test", std::chrono::seconds(240));
  const om::TransformerConfig cfg = serving_cfg();
  const auto reqs = serving_traffic(cfg);
  const auto serial_out = serial_served_outputs(cfg, reqs);

  oc::FaultPlan plan;
  plan.seed = ots::test_seed(77);
  OPTIMUS_SEED_TRACE(plan.seed);
  plan.spike_prob = 0.2;
  plan.spike_us = 100;
  plan.stall_rank = 1;
  plan.stall_prob = 0.25;
  plan.stall_us = 150;
  int mismatch = 0;
  std::mutex mu;
  oc::run_cluster(4, plan, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> m(cfg, mesh);
    osv::OptimusDecodeEngine<float> eng(m, cfg.batch);
    const auto outcome = osv::run_serving<float>(
        eng, reqs, [&] { return ctx.clock.now(); }, [&](double t) { ctx.clock.set(t); });
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(outcome.aborted);
    EXPECT_EQ(outcome.completed.size(), reqs.size());
    for (const auto& r : outcome.completed) {
      mismatch += r.generated != serial_out[static_cast<std::size_t>(r.id)];
    }
  });
  EXPECT_EQ(mismatch, 0);
}

TEST(Serving, PoisonedDecodeCollectiveAbortsAndResumes) {
  ots::Watchdog wd("serving poison fault test", std::chrono::seconds(240));
  const om::TransformerConfig cfg = serving_cfg();
  const auto reqs = serving_traffic(cfg);
  const auto serial_out = serial_served_outputs(cfg, reqs);

  // Poison one collective mid-run: every rank's serving loop must unwind
  // (FaultError on the detecting rank, FabricAborted on its peers — never a
  // deadlock), committed requests must survive, and in-flight requests must
  // come back evicted with their generated prefix intact.
  oc::FaultPlan plan;
  plan.seed = 13;
  plan.poison_prob = 0.001;
  // Arm the flight recorder: the abort must leave a post-mortem dump on every
  // rank. (Only existence and a named abort op are asserted here — this fault
  // fires mid-run, so ring *contents* differ per rank; byte-determinism is
  // covered by Fault.PoisonedCollectiveLeavesPostmortemOnEveryRank.)
  namespace ob = optimus::obs;
  struct FlightGuard {
    ~FlightGuard() {
      ob::set_flight_enabled(false);
      ob::flight_reset();
      ob::flight_set_postmortem_prefix("");
    }
  } flight_guard;
  const std::string pm_prefix = ::testing::TempDir() + "serving_postmortem";
  ob::flight_reset();
  ob::set_flight_enabled(true);
  ob::flight_set_postmortem_prefix(pm_prefix);
  std::vector<osv::Request> completed_at_abort, unfinished;
  std::string fault_what;
  int aborted_ranks = 0;
  std::mutex mu;
  oc::run_cluster(4, plan, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> m(cfg, mesh);
    osv::OptimusDecodeEngine<float> eng(m, cfg.batch);
    auto outcome = osv::run_serving<float>(
        eng, reqs, [&] { return ctx.clock.now(); }, [&](double t) { ctx.clock.set(t); });
    std::lock_guard<std::mutex> lock(mu);
    aborted_ranks += outcome.aborted ? 1 : 0;
    if (!outcome.fault_what.empty()) fault_what = outcome.fault_what;
    if (ctx.rank == 0) {
      completed_at_abort = std::move(outcome.completed);
      unfinished = std::move(outcome.unfinished);
    }
  });
  ASSERT_EQ(aborted_ranks, 4) << "poisoned collective did not abort the serving loop";
  EXPECT_NE(fault_what.find("poisoned payload"), std::string::npos) << fault_what;
  for (int r = 0; r < 4; ++r) {
    const std::string path = pm_prefix + ".rank" + std::to_string(r) + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "rank " << r << " left no post-mortem dump";
    std::ostringstream buf;
    buf << in.rdbuf();
    const ob::Json dump = ob::Json::parse(buf.str());
    EXPECT_FALSE(dump.get("abort_op").as_string().empty())
        << path << " does not name the aborting op";
    EXPECT_GT(dump.get("events_seen").as_number(), 0.0) << path;
  }
  ob::set_flight_enabled(false);  // resume run below must not redump
  EXPECT_LT(completed_at_abort.size(), reqs.size());
  EXPECT_EQ(completed_at_abort.size() + unfinished.size(), reqs.size())
      << "requests lost across the abort";

  // Resume the preserved requests on a fresh, fault-free cluster. Decode
  // determinism guarantees the replayed forced sequences regenerate the
  // identical cache state, so the union of outputs matches the clean run.
  std::vector<osv::Request> resumed;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<float> m(cfg, mesh);
    osv::OptimusDecodeEngine<float> eng(m, cfg.batch);
    auto outcome = osv::run_serving<float>(
        eng, unfinished, [&] { return ctx.clock.now(); }, [&](double t) { ctx.clock.set(t); });
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(outcome.aborted);
    if (ctx.rank == 0) resumed = std::move(outcome.completed);
  });
  ASSERT_EQ(completed_at_abort.size() + resumed.size(), reqs.size());
  for (const auto* batch : {&completed_at_abort, &resumed}) {
    for (const auto& r : *batch) {
      EXPECT_EQ(r.generated, serial_out[static_cast<std::size_t>(r.id)]) << "request " << r.id;
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-form decode-step cost: measured simulated time == predicted, with
// heterogeneous cached lengths (exercises the max-over-rows attention term).
// ---------------------------------------------------------------------------

namespace {

/// Two setup steps give slots heterogeneous cached lengths: one full step
/// (all lens → 1), then a step where only the first `uneven` slots are active
/// (their lens → 2). Returns the lens vector the measured step sees.
template <typename Engine>
std::vector<index_t> warm_uneven(Engine& eng, index_t slots, index_t uneven) {
  const std::vector<std::int32_t> toks(static_cast<std::size_t>(slots), 1);
  std::vector<std::uint8_t> all(static_cast<std::size_t>(slots), 1);
  eng.step(toks, all);
  std::vector<std::uint8_t> part(static_cast<std::size_t>(slots), 0);
  for (index_t i = 0; i < uneven; ++i) part[static_cast<std::size_t>(i)] = 1;
  eng.step(toks, part);
  std::vector<index_t> lens(static_cast<std::size_t>(slots), 1);
  for (index_t i = 0; i < uneven; ++i) lens[static_cast<std::size_t>(i)] = 2;
  return lens;
}

}  // namespace

TEST(Serving, DecodeStepTimeMatchesClosedFormSerial) {
  ots::Watchdog wd("serial decode cost test", std::chrono::seconds(120));
  const om::TransformerConfig cfg = tiny_cfg(1);
  const oc::Topology topo(1, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
  const oc::CostModel cost(topo, oc::MachineParams{});
  oc::SimClock clock;
  om::SerialTransformer<float> m(cfg);
  osv::SerialDecodeEngine<float> eng(m, cfg.batch, &clock, &cost);
  const auto lens = warm_uneven(eng, cfg.batch, /*uneven=*/2);
  const double t0 = clock.now();
  eng.step(std::vector<std::int32_t>(static_cast<std::size_t>(cfg.batch), 1),
           std::vector<std::uint8_t>(static_cast<std::size_t>(cfg.batch), 1));
  const double measured = clock.now() - t0;
  const double predicted =
      opm::predict_serial_decode_step_time(cost, workload_of(cfg), lens, sizeof(float));
  ASSERT_GT(predicted, 0);
  EXPECT_LT(std::abs(measured - predicted) / predicted, 1e-9)
      << "measured " << measured << " predicted " << predicted;
}

TEST(Serving, DecodeStepTimeMatchesClosedFormOptimus) {
  ots::Watchdog wd("optimus decode cost test", std::chrono::seconds(240));
  for (const int q : {2, 3}) {
    SCOPED_TRACE(::testing::Message() << "q=" << q);
    const om::TransformerConfig cfg = tiny_cfg(q);
    double measured = -1, predicted = -1;
    std::mutex mu;
    // Single-node topology: the closed form sums one rank's group costs, which
    // is exact only when all mesh rows/columns have cost-homogeneous groups.
    // (The default run_cluster topology packs 4 GPUs per node, so a 3×3 mesh
    // would straddle nodes with per-column tree costs that differ — the
    // cross-group alignment waits are not in the closed form.)
    oc::Cluster cluster(q * q, oc::Topology(q * q, q * q, oc::Arrangement::kBunched, 0),
                        oc::MachineParams{});
    optimus::summa::PipelineGuard guard(false);  // closed form models blocking
    cluster.run([&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      optimus::core::OptimusTransformer<float> m(cfg, mesh);
      osv::OptimusDecodeEngine<float> eng(m, cfg.batch);
      // Uneven = one row's slot block, so mesh rows carry different cached
      // lengths and the predictor's max-over-rows attention term is load-bearing.
      const auto lens = warm_uneven(eng, cfg.batch, cfg.batch / q);
      const double t0 = ctx.clock.now();
      eng.step(std::vector<std::int32_t>(static_cast<std::size_t>(cfg.batch), 1),
               std::vector<std::uint8_t>(static_cast<std::size_t>(cfg.batch), 1));
      const double t1 = ctx.clock.now();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) {
        measured = t1 - t0;
        predicted = opm::predict_optimus_decode_step_time(ctx.cost, workload_of(cfg), q, lens,
                                                          sizeof(float));
      }
    });
    ASSERT_GT(predicted, 0);
    EXPECT_LT(std::abs(measured - predicted) / predicted, 1e-9)
        << "measured " << measured << " predicted " << predicted;
  }
}

TEST(Serving, DecodeStepTimeMatchesClosedFormMegatron) {
  ots::Watchdog wd("megatron decode cost test", std::chrono::seconds(240));
  for (const int p : {2, 3}) {
    SCOPED_TRACE(::testing::Message() << "p=" << p);
    const om::TransformerConfig cfg = tiny_cfg(p);
    double measured = -1, predicted = -1;
    std::mutex mu;
    oc::run_cluster(p, [&](oc::Context& ctx) {
      optimus::megatron::MegatronTransformer<float> m(cfg, ctx.world);
      osv::MegatronDecodeEngine<float> eng(m, ctx.world, cfg.batch);
      const auto lens = warm_uneven(eng, cfg.batch, cfg.batch / 2);
      const double t0 = ctx.clock.now();
      eng.step(std::vector<std::int32_t>(static_cast<std::size_t>(cfg.batch), 1),
               std::vector<std::uint8_t>(static_cast<std::size_t>(cfg.batch), 1));
      const double t1 = ctx.clock.now();
      std::lock_guard<std::mutex> lock(mu);
      if (ctx.rank == 0) {
        measured = t1 - t0;
        predicted = opm::predict_megatron_decode_step_time(ctx.cost, workload_of(cfg), p, lens,
                                                           sizeof(float));
      }
    });
    ASSERT_GT(predicted, 0);
    EXPECT_LT(std::abs(measured - predicted) / predicted, 1e-9)
        << "measured " << measured << " predicted " << predicted;
  }
}
