// Tests for the paper's extension / future-work features implemented here:
//   * §6 operation fusion   — fused attention (no materialised probabilities)
//   * §3.2.3 method (2)     — immediate per-layer parameter updates with a
//                             shared one-layer gradient buffer
//   * §2.4 Cannon's algorithm — the other 2D matmul, point-to-point only
//   * checkpoint serialization (save/load round trips, shard files)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "mesh/mesh.hpp"
#include "model/attention.hpp"
#include "model/kv_cache.hpp"
#include "model/serial_model.hpp"
#include "runtime/checkpoint_io.hpp"
#include "runtime/data.hpp"
#include "runtime/optimizer.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace ocore = optimus::core;
namespace om = optimus::model;
namespace ort = optimus::runtime;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::DTensor;
using ot::ITensor;
using ot::Shape;

namespace {

om::TransformerConfig small_config() {
  om::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 6;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 2;
  cfg.seed = 808;
  return cfg;
}

ITensor random_tokens(const om::TransformerConfig& cfg, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  ITensor t(Shape{cfg.batch, cfg.seq_len});
  for (ot::index_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int32_t>(rng.uniform_index(cfg.vocab));
  }
  return t;
}

ITensor shifted_labels(const ITensor& tokens, const om::TransformerConfig& cfg) {
  ITensor labels(tokens.shape());
  for (ot::index_t b = 0; b < cfg.batch; ++b) {
    for (ot::index_t t = 0; t < cfg.seq_len; ++t) {
      labels.at(b, t) = t + 1 < cfg.seq_len ? tokens.at(b, t + 1) : -1;
    }
  }
  return labels;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fused attention (§6)
// ---------------------------------------------------------------------------

TEST(FusedAttention, ForwardMatchesUnfused) {
  const ot::index_t b = 2, s = 5, heads = 3, d = 4;
  optimus::util::Rng rng(1);
  DTensor qkv = optimus::testing::random_dtensor(Shape{b * s, heads * 3 * d}, rng);
  DTensor ctx_ref(Shape{b * s, heads * d}), probs(Shape{b * heads, s, s});
  om::attention_forward(qkv, b, s, heads, d, true, ctx_ref, probs);
  DTensor ctx_fused(ctx_ref.shape());
  DTensor scratch(Shape{om::attention_fused_forward_scratch_elems(s)});
  om::attention_forward_fused(qkv, b, s, heads, d, true, ctx_fused, scratch);
  EXPECT_EQ(ops::max_abs_diff(ctx_ref, ctx_fused), 0.0);  // identical math
}

TEST(FusedAttention, BackwardMatchesUnfused) {
  const ot::index_t b = 2, s = 4, heads = 2, d = 3;
  optimus::util::Rng rng(2);
  DTensor qkv = optimus::testing::random_dtensor(Shape{b * s, heads * 3 * d}, rng);
  DTensor dctx = optimus::testing::random_dtensor(Shape{b * s, heads * d}, rng);
  DTensor ctx(dctx.shape()), probs(Shape{b * heads, s, s});
  om::attention_forward(qkv, b, s, heads, d, true, ctx, probs);
  DTensor dqkv_ref(qkv.shape());
  om::attention_backward(qkv, probs, dctx, b, s, heads, d, dqkv_ref);
  DTensor dqkv_fused(qkv.shape());
  DTensor scratch(Shape{om::attention_fused_backward_scratch_elems(s)});
  om::attention_backward_fused(qkv, dctx, b, s, heads, d, true, dqkv_fused, scratch);
  EXPECT_EQ(ops::max_abs_diff(dqkv_ref, dqkv_fused), 0.0);
}

TEST(FusedAttention, NonCausalVariantAlsoMatches) {
  const ot::index_t b = 1, s = 4, heads = 2, d = 2;
  optimus::util::Rng rng(3);
  DTensor qkv = optimus::testing::random_dtensor(Shape{b * s, heads * 3 * d}, rng);
  DTensor ctx_ref(Shape{b * s, heads * d}), probs(Shape{b * heads, s, s});
  om::attention_forward(qkv, b, s, heads, d, false, ctx_ref, probs);
  DTensor ctx_fused(ctx_ref.shape());
  DTensor scratch(Shape{om::attention_fused_forward_scratch_elems(s)});
  om::attention_forward_fused(qkv, b, s, heads, d, false, ctx_fused, scratch);
  EXPECT_EQ(ops::max_abs_diff(ctx_ref, ctx_fused), 0.0);
}

TEST(FusedAttention, DecodeRowsMatchPrefillRowsBitwise) {
  // KV-cached decode runs the prefill head body on one query row. Slot i
  // joins at step i, so the slots' cache lengths differ at every step; each
  // decoded row must equal attention_forward's causal row bit for bit.
  const ot::index_t b = 3, s = 5, heads = 2, d = 3;
  const ot::index_t qkv_cols = heads * 3 * d, ctx_cols = heads * d;
  optimus::util::Rng rng(5);
  const ot::Tensor qkv = optimus::testing::random_tensor(Shape{b * s, qkv_cols}, rng);
  ot::Tensor ctx_ref(Shape{b * s, ctx_cols}), probs(Shape{b * heads, s, s});
  om::attention_forward(qkv, b, s, heads, d, true, ctx_ref, probs);

  // Spare capacity: slots that have not joined yet, or are done, still
  // append (masked out of advance) at their current length.
  om::KvCacheT<float> cache(1, b, s + b, heads, d);
  int checked = 0, bad = 0;
  for (ot::index_t step = 0; step < s + b - 1; ++step) {
    ot::Tensor qkv_step(Shape{b, qkv_cols}), ctx(Shape{b, ctx_cols});
    std::vector<std::uint8_t> active(static_cast<std::size_t>(b));
    for (ot::index_t i = 0; i < b; ++i) {
      const ot::index_t t = std::min(cache.len(i), s - 1);
      active[static_cast<std::size_t>(i)] = step >= i && cache.len(i) < s;
      std::memcpy(qkv_step.data() + i * qkv_cols, qkv.data() + (i * s + t) * qkv_cols,
                  sizeof(float) * static_cast<std::size_t>(qkv_cols));
    }
    om::attention_decode(qkv_step, b, heads, d, cache, 0, ctx);
    for (ot::index_t i = 0; i < b; ++i) {
      if (!active[static_cast<std::size_t>(i)]) continue;
      ++checked;
      bad += std::memcmp(ctx.data() + i * ctx_cols,
                         ctx_ref.data() + (i * s + cache.len(i)) * ctx_cols,
                         sizeof(float) * static_cast<std::size_t>(ctx_cols)) != 0;
    }
    cache.advance(&active);
  }
  EXPECT_EQ(checked, b * s);
  EXPECT_EQ(bad, 0);
}

TEST(FusedAttention, EngineEquivalenceAndMemorySaving) {
  auto cfg = small_config();
  cfg.batch = 8;      // larger b·n/q makes the probs tensor dominate
  cfg.seq_len = 16;
  ITensor tokens = random_tokens(cfg, 4);
  ITensor labels = shifted_labels(tokens, cfg);

  double loss_plain = 0, loss_fused = 0;
  DTensor grad_plain, grad_fused;
  std::uint64_t peak_plain = 0, peak_fused = 0;
  std::mutex mu;
  for (bool fused : {false, true}) {
    auto report = oc::run_cluster(4, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      ocore::OptimusOptions opts;
      opts.fuse_attention = fused;
      ocore::OptimusTransformer<double> engine(cfg, mesh, opts);
      engine.forward(tokens);
      const double loss = engine.lm_loss(labels);
      engine.zero_grads();
      engine.backward_lm();
      if (ctx.rank == 0) {
        std::lock_guard<std::mutex> lock(mu);
        (fused ? loss_fused : loss_plain) = loss;
        (fused ? grad_fused : grad_plain) = engine.layer_grad(0).qkv_w.clone();
      }
    });
    (fused ? peak_fused : peak_plain) = report.max_peak_bytes();
  }
  EXPECT_EQ(loss_plain, loss_fused);  // bitwise identical numerics
  EXPECT_EQ(ops::max_abs_diff(grad_plain, grad_fused), 0.0);
  // probs would be (b/q)(n/q)s² = 4·2·256 = 2048 elems; the fused scratch
  // is s² = 256 in forward and 2s² = 512 in backward — the peak must drop.
  EXPECT_LT(peak_fused, peak_plain);
}

TEST(FusedAttention, ForwardArenaHoldsOneScoreTile) {
  // The fused forward streams every (batch, head) pair through one s × s
  // score tile, so its forward arena holds s² elements where the unfused one
  // holds the (b/q)(n/q)s² probabilities; only the backward recompute needs
  // 2s² (probs + dscores). Peak device bytes count both arenas' capacities.
  auto cfg = small_config();
  cfg.batch = 8;
  cfg.seq_len = 16;
  const ITensor tokens = random_tokens(cfg, 4);
  std::uint64_t fwd_high[2] = {0, 0}, peak[2] = {0, 0};
  for (const bool fused : {false, true}) {
    const auto report = oc::run_cluster(4, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      ocore::OptimusOptions opts;
      opts.fuse_attention = fused;
      ocore::OptimusTransformer<double> engine(cfg, mesh, opts);
      engine.forward(tokens);
      if (ctx.rank == 0) fwd_high[fused] = engine.forward_high_water();
    });
    peak[fused] = report.max_peak_bytes();
  }
  const auto bytes = [](ot::index_t elems) {
    return (static_cast<std::uint64_t>(elems) * sizeof(double) + 63) / 64 * 64;
  };
  const ot::index_t s = cfg.seq_len;
  const std::uint64_t probs = bytes(om::attention_probs_elems(cfg.batch / 2, s, cfg.heads / 2));
  EXPECT_EQ(fwd_high[1] + probs, fwd_high[0] + bytes(s * s));
  EXPECT_EQ(peak[1] + probs, peak[0] + bytes(s * s) + bytes(2 * s * s));
}

TEST(FusedAttention, ScratchTooSmallThrows) {
  const ot::index_t b = 1, s = 4, heads = 1, d = 2;
  DTensor qkv = DTensor::zeros(Shape{b * s, heads * 3 * d});
  DTensor ctx(Shape{b * s, heads * d});
  DTensor tiny(Shape{s});
  EXPECT_THROW(om::attention_forward_fused(qkv, b, s, heads, d, true, ctx, tiny),
               optimus::util::CheckError);
}

// ---------------------------------------------------------------------------
// Fused update (§3.2.3 method 2)
// ---------------------------------------------------------------------------

TEST(FusedUpdate, MatchesStandardSgdStep) {
  // Per-layer immediate updates with plain SGD are mathematically identical
  // to accumulate-then-step (updates are independent across parameters), so
  // the resulting models must agree to fp64 rounding.
  const auto cfg = small_config();
  ITensor tokens = random_tokens(cfg, 5);
  ITensor labels = shifted_labels(tokens, cfg);
  const double lr = 0.01;
  const int steps = 3;

  DTensor qkv_std, qkv_fused, emb_std, emb_fused;
  std::mutex mu;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusTransformer<double> engine(cfg, mesh);
    ort::Sgd<double> opt;
    for (int i = 0; i < steps; ++i) {
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      engine.zero_grads();
      engine.backward_lm();
      opt.step(engine.parameters(), engine.gradients(), lr);
    }
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      qkv_std = engine.layer(1).qkv_w.clone();
      emb_std = engine.embedding_block().clone();
    }
  });
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusOptions opts;
    opts.fused_update = true;
    ocore::OptimusTransformer<double> engine(cfg, mesh, opts);
    for (int i = 0; i < steps; ++i) {
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      engine.backward_lm_fused_update(lr);
    }
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      qkv_fused = engine.layer(1).qkv_w.clone();
      emb_fused = engine.embedding_block().clone();
    }
  });
  EXPECT_LT(ops::max_abs_diff(qkv_std, qkv_fused), 1e-14);
  EXPECT_LT(ops::max_abs_diff(emb_std, emb_fused), 1e-14);
}

TEST(FusedUpdate, SharedGradientBufferSavesMemory) {
  auto cfg = small_config();
  cfg.layers = 8;  // make the per-layer gradient share visible
  ITensor tokens = random_tokens(cfg, 6);
  ITensor labels = shifted_labels(tokens, cfg);
  std::uint64_t peak_std = 0, peak_fused = 0;
  for (bool fused : {false, true}) {
    auto report = oc::run_cluster(4, [&](oc::Context& ctx) {
      optimus::mesh::Mesh2D mesh(ctx.world);
      ocore::OptimusOptions opts;
      opts.fused_update = fused;
      ocore::OptimusTransformer<float> engine(cfg, mesh, opts);
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      if (fused) {
        engine.backward_lm_fused_update(0.01);
      } else {
        engine.zero_grads();
        engine.backward_lm();
      }
    });
    (fused ? peak_fused : peak_std) = report.max_peak_bytes();
  }
  EXPECT_LT(peak_fused, peak_std);
}

TEST(FusedUpdate, GuardsAgainstMisuse) {
  const auto cfg = small_config();
  ITensor tokens = random_tokens(cfg, 7);
  ITensor labels = shifted_labels(tokens, cfg);
  oc::run_cluster(1, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    {
      ocore::OptimusOptions opts;
      opts.fused_update = true;
      ocore::OptimusTransformer<float> engine(cfg, mesh, opts);
      EXPECT_THROW(engine.gradients(), optimus::util::CheckError);
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      EXPECT_THROW(engine.backward_lm(), optimus::util::CheckError);
      EXPECT_THROW(engine.backward_lm_fused_update(-1.0), optimus::util::CheckError);
    }
    {
      ocore::OptimusTransformer<float> engine(cfg, mesh);  // not fused
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      EXPECT_THROW(engine.backward_lm_fused_update(0.01), optimus::util::CheckError);
    }
  });
}

TEST(FusedUpdate, TrainingReducesLoss) {
  const auto cfg = small_config();
  ITensor tokens = random_tokens(cfg, 8);
  ITensor labels = shifted_labels(tokens, cfg);
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusOptions opts;
    opts.fused_update = true;
    opts.fuse_attention = true;  // both fusions together
    ocore::OptimusTransformer<float> engine(cfg, mesh, opts);
    engine.forward(tokens);
    const float loss0 = engine.lm_loss(labels);
    for (int i = 0; i < 5; ++i) {
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      engine.backward_lm_fused_update(0.05);
    }
    engine.forward(tokens);
    ASSERT_LT(engine.lm_loss(labels), loss0);
  });
}

// ---------------------------------------------------------------------------
// Cannon's algorithm (§2.4)
// ---------------------------------------------------------------------------

namespace {

class CannonSweep : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CannonSweep, MatchesSerialProduct) {
  const int q = GetParam();
  optimus::util::Rng rng(40 + q);
  const ot::index_t m = 4 * q, k = 3 * q, n = 5 * q;
  DTensor A = optimus::testing::random_dtensor(Shape{m, k}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
  DTensor ref = ops::matmul(A, B);
  DTensor C_global = DTensor::zeros(ref.shape());
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor c = DTensor::zeros(Shape{m / q, n / q});
    optimus::summa::cannon_ab(mesh, a, b, c);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), c);
  });
  EXPECT_LT(ops::max_abs_diff(C_global, ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(MeshSides, CannonSweep, ::testing::Values(1, 2, 3, 4));

TEST(Cannon, AccumulateAndWorkspace) {
  const int q = 2;
  optimus::util::Rng rng(50);
  DTensor A = optimus::testing::random_dtensor(Shape{4, 4}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{4, 4}, rng);
  DTensor ref = ops::matmul(A, B);
  std::mutex mu;
  DTensor C_global = DTensor::zeros(Shape{4, 4});
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor c = DTensor::full(Shape{2, 2}, 2.0);
    ot::Arena ws("cannon", 1 << 12);
    optimus::summa::cannon_ab(mesh, a, b, c, /*accumulate=*/true, &ws);
    ASSERT_EQ(ws.used(), 0u);  // workspace released
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), c);
  });
  for (ot::index_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(C_global[i], ref[i] + 2.0, 1e-12);
}

TEST(Cannon, UsesOnlyPointToPoint) {
  const int q = 3;
  auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    DTensor a = DTensor::zeros(Shape{2, 2});
    DTensor b = DTensor::zeros(Shape{2, 2});
    DTensor c = DTensor::zeros(Shape{2, 2});
    optimus::summa::cannon_ab(mesh, a, b, c);
  });
  const auto& st = report.ranks[4].stats;  // centre device shifts every round
  EXPECT_EQ(st.broadcast.calls, 0u);
  EXPECT_EQ(st.reduce.calls, 0u);
  EXPECT_GT(st.p2p_messages, 0u);
  // Per device: ≤ 2(q−1) shifts of each of A and B (alignment + rounds).
  EXPECT_LE(st.p2p_messages, static_cast<std::uint64_t>(4 * (q - 1)));
}

// ---------------------------------------------------------------------------
// Checkpoint serialization
// ---------------------------------------------------------------------------

TEST(CheckpointIo, StreamRoundTrip) {
  const auto cfg = small_config();
  om::SerialTransformer<double> a(cfg), b(cfg);
  // Perturb a, save, load into b, compare.
  for (auto* p : a.parameters()) {
    for (ot::index_t i = 0; i < p->numel(); ++i) (*p)[i] += 0.125;
  }
  std::stringstream buffer;
  ort::save_tensors(buffer, a.parameters());
  ort::load_tensors(buffer, b.parameters());
  auto pa = a.parameters();
  auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(*pa[i], *pb[i]), 0.0);
  }
}

TEST(CheckpointIo, RejectsWrongShapeAndDtype) {
  const auto cfg = small_config();
  om::SerialTransformer<double> a(cfg);
  std::stringstream buffer;
  ort::save_tensors(buffer, a.parameters());
  // Wrong dtype.
  om::SerialTransformer<float> f(cfg);
  EXPECT_THROW(ort::load_tensors(buffer, f.parameters()), optimus::util::CheckError);
  // Wrong shape.
  buffer.clear();
  buffer.seekg(0);
  auto cfg2 = cfg;
  cfg2.hidden = 32;
  om::SerialTransformer<double> wrong(cfg2);
  EXPECT_THROW(ort::load_tensors(buffer, wrong.parameters()), optimus::util::CheckError);
  // Garbage magic.
  std::stringstream junk("definitely not a checkpoint");
  EXPECT_THROW(ort::load_tensors(junk, a.parameters()), optimus::util::CheckError);
}

TEST(CheckpointIo, DistributedShardRoundTripPreservesTraining) {
  // Train on the mesh, save per-rank shards, reload into fresh engines and
  // check the forward pass is bit-identical.
  const auto cfg = small_config();
  ITensor tokens = random_tokens(cfg, 9);
  ITensor labels = shifted_labels(tokens, cfg);
  const std::string base = "/tmp/optimus_ckpt_test";
  DTensor hidden_before, hidden_after;
  std::mutex mu;
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusTransformer<double> engine(cfg, mesh);
    ort::Sgd<double> opt;
    for (int i = 0; i < 2; ++i) {
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      engine.zero_grads();
      engine.backward_lm();
      opt.step(engine.parameters(), engine.gradients(), 0.01);
    }
    ort::save_checkpoint(ort::shard_path(base, ctx.rank), engine.parameters());
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      hidden_before = engine.forward(tokens).clone();
    } else {
      engine.forward(tokens);  // keep collectives matched
    }
  });
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    ocore::OptimusTransformer<double> engine(cfg, mesh);
    ort::load_checkpoint(ort::shard_path(base, ctx.rank), engine.parameters());
    if (ctx.rank == 0) {
      std::lock_guard<std::mutex> lock(mu);
      hidden_after = engine.forward(tokens).clone();
    } else {
      engine.forward(tokens);
    }
  });
  for (int r = 0; r < 4; ++r) std::remove(ort::shard_path(base, r).c_str());
  EXPECT_EQ(ops::max_abs_diff(hidden_before, hidden_after), 0.0);
}

TEST(CheckpointIo, ShardPathFormatting) {
  EXPECT_EQ(ort::shard_path("m.ckpt", 3), "m.ckpt.rank3");
}
