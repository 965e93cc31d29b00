// Equivalence tests for the Megatron 1D engine against the serial oracle:
// forward hidden states, LM loss, classification loss, input gradients and
// every parameter gradient (sliced to each device's partition) must match,
// for p ∈ {1, 2, 4}, with and without activation checkpointing.

#include <gtest/gtest.h>

#include <mutex>

#include "comm/cluster.hpp"
#include "megatron/megatron_model.hpp"
#include "model/serial_model.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using optimus::megatron::MegatronTransformer;
using ot::DTensor;
using ot::ITensor;
using ot::Shape;

namespace {

om::TransformerConfig test_config() {
  om::TransformerConfig cfg;
  cfg.batch = 2;
  cfg.seq_len = 4;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 2;
  cfg.num_classes = 2;
  cfg.seed = 321;
  return cfg;
}

ITensor make_tokens(const om::TransformerConfig& cfg, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  ITensor t(Shape{cfg.batch, cfg.seq_len});
  for (ot::index_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int32_t>(rng.uniform_index(cfg.vocab));
  }
  return t;
}

ITensor make_labels(const ITensor& tokens, const om::TransformerConfig& cfg) {
  ITensor labels(tokens.shape());
  for (ot::index_t b = 0; b < cfg.batch; ++b) {
    for (ot::index_t t = 0; t < cfg.seq_len; ++t) {
      labels.at(b, t) = t + 1 < cfg.seq_len ? tokens.at(b, t + 1) : -1;
    }
  }
  return labels;
}

DTensor col_slice(const DTensor& m, ot::index_t c0, ot::index_t c1) {
  DTensor out(Shape{m.size(0), c1 - c0});
  for (ot::index_t r = 0; r < m.size(0); ++r) {
    for (ot::index_t c = c0; c < c1; ++c) out.at(r, c - c0) = m.at(r, c);
  }
  return out;
}

DTensor row_slice(const DTensor& m, ot::index_t r0, ot::index_t r1) {
  return m.row_range(r0, r1).clone();
}

struct MegatronCase {
  int p;
  bool checkpoint;
};

// Names the case in the `GetParam() =` comment that CTest's test discovery
// turns into the test name; the default byte dump would include the
// struct's uninitialized padding, which differs from build to build.
void PrintTo(const MegatronCase& c, std::ostream* os) {
  *os << "p" << c.p << "_ckpt" << (c.checkpoint ? 1 : 0);
}

class MegatronSweep : public ::testing::TestWithParam<MegatronCase> {};

}  // namespace

TEST_P(MegatronSweep, MatchesSerialOracleEndToEnd) {
  const auto [p, checkpoint] = GetParam();
  const auto cfg = test_config();
  ITensor tokens = make_tokens(cfg, 42);
  ITensor labels = make_labels(tokens, cfg);

  // Serial oracle.
  om::SerialTransformer<double> oracle(cfg);
  DTensor hidden_ref = oracle.forward(tokens).clone();
  const double loss_ref = oracle.lm_loss(labels);
  oracle.zero_grads();
  oracle.backward_lm();
  DTensor dx0_ref = oracle.input_grad().clone();

  const ot::index_t h = cfg.hidden;
  const ot::index_t f = cfg.ffn_hidden();
  std::mutex mu;
  oc::run_cluster(p, [&](oc::Context& ctx) {
    MegatronTransformer<double> engine(cfg, ctx.world, checkpoint);
    const DTensor& hidden = engine.forward(tokens);
    const double loss = engine.lm_loss(labels);
    engine.zero_grads();
    engine.backward_lm();

    std::lock_guard<std::mutex> lock(mu);
    // Activations are replicated: every rank holds the full hidden state.
    ASSERT_LT(ops::max_abs_diff(hidden, hidden_ref), 1e-10);
    ASSERT_NEAR(loss, loss_ref, 1e-10);
    ASSERT_LT(ops::max_abs_diff(engine.input_grad(), dx0_ref), 1e-9);

    const int d = ctx.rank;
    // Vocab-parallel embedding gradient.
    DTensor demb_ref =
        row_slice(oracle.embedding_grad(), d * cfg.vocab / p, (d + 1) * cfg.vocab / p);
    ASSERT_LT(ops::max_abs_diff(engine.embedding_grad(), demb_ref), 1e-9);

    for (ot::index_t l = 0; l < cfg.layers; ++l) {
      auto& ref = oracle.layer_grad(l);
      auto& got = engine.layer_grad(l);
      // Replicated layernorm gradients.
      ASSERT_LT(ops::max_abs_diff(got.ln1_g, ref.ln1_g), 1e-9);
      ASSERT_LT(ops::max_abs_diff(got.ln2_b, ref.ln2_b), 1e-9);
      // Column-split gradients.
      ASSERT_LT(ops::max_abs_diff(got.qkv_w,
                                  col_slice(ref.qkv_w, d * 3 * h / p, (d + 1) * 3 * h / p)),
                1e-9);
      ASSERT_LT(ops::max_abs_diff(got.fc1_w, col_slice(ref.fc1_w, d * f / p, (d + 1) * f / p)),
                1e-9);
      // Row-split gradients.
      ASSERT_LT(
          ops::max_abs_diff(got.proj_w, row_slice(ref.proj_w, d * h / p, (d + 1) * h / p)),
          1e-9);
      ASSERT_LT(ops::max_abs_diff(got.fc2_w, row_slice(ref.fc2_w, d * f / p, (d + 1) * f / p)),
                1e-9);
      // Replicated bias gradients.
      ASSERT_LT(ops::max_abs_diff(got.proj_b, ref.proj_b), 1e-9);
      ASSERT_LT(ops::max_abs_diff(got.fc2_b, ref.fc2_b), 1e-9);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MegatronSweep,
                         ::testing::Values(MegatronCase{1, false}, MegatronCase{1, true},
                                           MegatronCase{2, false}, MegatronCase{2, true},
                                           MegatronCase{4, true}));

TEST(Megatron, ClsBranchMatchesSerial) {
  const auto cfg = test_config();
  ITensor tokens = make_tokens(cfg, 77);
  ITensor labels = ITensor::from_vector(Shape{cfg.batch}, {1, 0});

  om::SerialTransformer<double> oracle(cfg);
  oracle.forward(tokens);
  const double loss_ref = oracle.cls_loss(labels);
  oracle.zero_grads();
  oracle.backward_cls();
  DTensor dx0_ref = oracle.input_grad().clone();
  DTensor dcls_ref = *oracle.gradients()[oracle.gradients().size() - 2];  // cls_w grad

  oc::run_cluster(4, [&](oc::Context& ctx) {
    MegatronTransformer<double> engine(cfg, ctx.world);
    engine.forward(tokens);
    const double loss = engine.cls_loss(labels);
    engine.zero_grads();
    engine.backward_cls();
    ASSERT_NEAR(loss, loss_ref, 1e-10);
    ASSERT_LT(ops::max_abs_diff(engine.input_grad(), dx0_ref), 1e-9);
    ASSERT_LT(ops::max_abs_diff(*engine.gradients()[engine.gradients().size() - 2], dcls_ref),
              1e-9);
  });
}

TEST(Megatron, CheckpointingDoesNotChangeResults) {
  const auto cfg = test_config();
  ITensor tokens = make_tokens(cfg, 11);
  ITensor labels = make_labels(tokens, cfg);
  DTensor grad_nock, grad_ck;
  for (bool ck : {false, true}) {
    oc::run_cluster(2, [&](oc::Context& ctx) {
      MegatronTransformer<double> engine(cfg, ctx.world, ck);
      engine.forward(tokens);
      (void)engine.lm_loss(labels);
      engine.zero_grads();
      engine.backward_lm();
      if (ctx.rank == 0) {
        if (ck) {
          grad_ck = engine.layer_grad(0).qkv_w.clone();
        } else {
          grad_nock = engine.layer_grad(0).qkv_w.clone();
        }
      }
    });
  }
  // Recomputation is bit-identical (same deterministic ops).
  ASSERT_EQ(ops::max_abs_diff(grad_ck, grad_nock), 0.0);
}

TEST(Megatron, CommunicationVolumeMatchesTable1Forward) {
  // Forward: 2 all-reduces of bsh per layer plus the embedding assembly and
  // the lm-head terms. With the stem alone (no loss), the weighted units per
  // rank must be N·2·(2(p−1)/p)·bsh + embedding all-reduce.
  const auto cfg = test_config();
  const int p = 4;
  ITensor tokens = make_tokens(cfg, 5);
  auto report = oc::run_cluster(p, [&](oc::Context& ctx) {
    MegatronTransformer<double> engine(cfg, ctx.world);
    engine.forward(tokens);
  });
  const double bsh = static_cast<double>(cfg.tokens_per_batch() * cfg.hidden);
  const double ar_factor = 2.0 * (p - 1) / p;
  const double expected_stem = cfg.layers * 2 * ar_factor * bsh;
  const double expected_embed = ar_factor * bsh;
  EXPECT_NEAR(report.ranks[0].stats.allreduce.weighted, expected_stem + expected_embed, 1e-9);
}

TEST(Megatron, TrainingStepReducesLoss) {
  const auto cfg = test_config();
  ITensor tokens = make_tokens(cfg, 13);
  ITensor labels = make_labels(tokens, cfg);
  oc::run_cluster(4, [&](oc::Context& ctx) {
    MegatronTransformer<float> engine(cfg, ctx.world);
    engine.forward(tokens);
    const float loss0 = engine.lm_loss(labels);
    engine.zero_grads();
    engine.backward_lm();
    auto params = engine.parameters();
    auto grads = engine.gradients();
    for (std::size_t i = 0; i < params.size(); ++i) ops::axpy_(*params[i], -0.05f, *grads[i]);
    engine.forward(tokens);
    const float loss1 = engine.lm_loss(labels);
    ASSERT_LT(loss1, loss0);
  });
}
