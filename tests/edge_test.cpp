// Edge cases and property sweeps across the stack: nested communicator
// splits, odd model shapes through the full Optimus-vs-serial equivalence,
// arena stack discipline, and configuration validation failure paths.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "tensor/arena.hpp"
#include "tensor/distribution.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::DTensor;
using ot::ITensor;
using ot::Shape;

// ---------------------------------------------------------------------------
// Communicator composition
// ---------------------------------------------------------------------------

TEST(CommComposition, SplitOfSplitFormsQuadrants) {
  oc::run_cluster(8, [](oc::Context& ctx) {
    auto half = ctx.world.split(ctx.rank / 4, ctx.rank);   // {0..3}, {4..7}
    auto quad = half.split(half.rank() / 2, half.rank());  // pairs
    ASSERT_EQ(quad.size(), 2);
    double v = ctx.rank;
    quad.all_reduce(&v, 1);
    const int base = (ctx.rank / 2) * 2;
    ASSERT_DOUBLE_EQ(v, base + base + 1);
  });
}

TEST(CommComposition, InterleavedCollectivesOnParentAndChild) {
  // Collectives on a parent and a derived communicator interleave without
  // tag collisions.
  oc::run_cluster(4, [](oc::Context& ctx) {
    auto sub = ctx.world.split(ctx.rank % 2, ctx.rank);
    for (int round = 0; round < 3; ++round) {
      double a = 1.0;
      ctx.world.all_reduce(&a, 1);
      ASSERT_DOUBLE_EQ(a, 4.0);
      double b = 1.0;
      sub.all_reduce(&b, 1);
      ASSERT_DOUBLE_EQ(b, 2.0);
    }
  });
}

TEST(CommComposition, BroadcastOnNonPowerOfTwoGroups) {
  for (int p : {6, 7}) {
    oc::run_cluster(p, [&](oc::Context& ctx) {
      for (int root = 0; root < p; ++root) {
        std::vector<double> v(5, ctx.rank == root ? root * 1.25 : -1.0);
        ctx.world.broadcast(v.data(), 5, root);
        for (double x : v) ASSERT_DOUBLE_EQ(x, root * 1.25);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Arena stack discipline
// ---------------------------------------------------------------------------

TEST(ArenaScopes, MarkAndResetToNest) {
  ot::Arena arena("nest", 4096);
  auto a = arena.alloc<float>(Shape{8});
  const auto m1 = arena.mark();
  {
    ot::ArenaScope scope(arena);
    (void)arena.alloc<float>(Shape{64});
    {
      ot::ArenaScope inner(arena);
      (void)arena.alloc<float>(Shape{64});
    }
    (void)arena.alloc<float>(Shape{16});
  }
  EXPECT_EQ(arena.mark(), m1);  // both scopes fully unwound
  EXPECT_THROW(arena.reset_to(m1 + 64), optimus::util::CheckError);  // above offset
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  (void)a;
}

// ---------------------------------------------------------------------------
// Config validation failure paths
// ---------------------------------------------------------------------------

TEST(ConfigValidation, MeshAndOneDConstraints) {
  om::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 4;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 1;
  cfg.validate_for_mesh(2);  // fine
  cfg.validate_for_1d(4);    // fine
  auto bad = cfg;
  bad.batch = 3;
  EXPECT_THROW(bad.validate_for_mesh(2), optimus::util::CheckError);
  bad = cfg;
  bad.heads = 3;
  EXPECT_THROW(bad.validate_for_mesh(2), optimus::util::CheckError);
  EXPECT_THROW(bad.validate_for_1d(4), optimus::util::CheckError);
  bad = cfg;
  bad.vocab = 15;
  EXPECT_THROW(bad.validate_for_mesh(2), optimus::util::CheckError);
  bad = cfg;
  bad.hidden = 15;  // not divisible by heads
  EXPECT_THROW(bad.validate(), optimus::util::CheckError);
}

// ---------------------------------------------------------------------------
// Odd-shape end-to-end equivalence properties
// ---------------------------------------------------------------------------

namespace {

struct ShapeCase {
  ot::index_t b, s, h, n, v, layers, mlp_ratio;
  bool causal;
};

// Names the case in the `GetParam() =` comment that CTest's test discovery
// turns into the test name; the default byte dump would include the
// struct's uninitialized padding, which differs from build to build.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << "b" << c.b << "_s" << c.s << "_h" << c.h << "_n" << c.n << "_v" << c.v << "_l"
      << c.layers << "_m" << c.mlp_ratio << (c.causal ? "_causal" : "_bidirectional");
}

class OddShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

ITensor tokens_for(const om::TransformerConfig& cfg, std::uint64_t seed) {
  optimus::util::Rng rng(seed);
  ITensor t(Shape{cfg.batch, cfg.seq_len});
  for (ot::index_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<std::int32_t>(rng.uniform_index(cfg.vocab));
  }
  return t;
}

}  // namespace

TEST_P(OddShapeSweep, OptimusMatchesSerialAcrossShapes) {
  const ShapeCase c = GetParam();
  om::TransformerConfig cfg;
  cfg.batch = c.b;
  cfg.seq_len = c.s;
  cfg.hidden = c.h;
  cfg.heads = c.n;
  cfg.vocab = c.v;
  cfg.layers = c.layers;
  cfg.mlp_ratio = c.mlp_ratio;
  cfg.causal = c.causal;
  cfg.seed = 4242;
  const int q = 2;
  ITensor tokens = tokens_for(cfg, 77);
  ITensor labels(tokens.shape());
  for (ot::index_t b = 0; b < cfg.batch; ++b) {
    for (ot::index_t t = 0; t < cfg.seq_len; ++t) {
      labels.at(b, t) = t + 1 < cfg.seq_len ? tokens.at(b, t + 1) : -1;
    }
  }

  om::SerialTransformer<double> oracle(cfg);
  oracle.forward(tokens);
  const double loss_ref = oracle.lm_loss(labels);
  oracle.zero_grads();
  oracle.backward_lm();
  DTensor dx_ref = oracle.input_grad().clone();

  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<double> engine(cfg, mesh);
    engine.forward(tokens);
    ASSERT_NEAR(engine.lm_loss(labels), loss_ref, 1e-10);
    engine.zero_grads();
    engine.backward_lm();
    ASSERT_LT(ops::max_abs_diff(engine.input_grad(),
                                ot::matrix_block(dx_ref, q, mesh.row(), mesh.col())),
              1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OddShapeSweep,
    ::testing::Values(ShapeCase{2, 1, 8, 2, 8, 1, 4, true},    // single-token sequences
                      ShapeCase{2, 7, 8, 2, 8, 1, 4, true},    // odd sequence length
                      ShapeCase{2, 3, 8, 2, 8, 1, 2, true},    // narrow MLP
                      ShapeCase{2, 4, 8, 2, 8, 1, 4, false},   // bidirectional attention
                      ShapeCase{4, 2, 24, 6, 10, 3, 4, true},  // 3 layers, 6 heads
                      ShapeCase{2, 5, 8, 8, 8, 1, 4, true}));  // head_dim = 1

TEST(OddShape, MegatronHandlesSingleHeadPerDevice) {
  // p == heads: each device owns exactly one attention head.
  om::TransformerConfig cfg;
  cfg.batch = 2;
  cfg.seq_len = 4;
  cfg.hidden = 8;
  cfg.heads = 4;
  cfg.vocab = 8;
  cfg.layers = 1;
  cfg.seed = 9;
  ITensor tokens = tokens_for(cfg, 3);
  om::SerialTransformer<double> oracle(cfg);
  DTensor hidden_ref = oracle.forward(tokens).clone();
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::megatron::MegatronTransformer<double> engine(cfg, ctx.world);
    ASSERT_LT(ops::max_abs_diff(engine.forward(tokens), hidden_ref), 1e-10);
  });
}

TEST(OddShape, OptimusQ4LargeMesh) {
  // Full 4×4 mesh (16 simulated devices) against the oracle.
  om::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 3;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 1;
  cfg.seed = 11;
  ITensor tokens = tokens_for(cfg, 5);
  om::SerialTransformer<double> oracle(cfg);
  DTensor hidden_ref = oracle.forward(tokens).clone();
  oc::run_cluster(16, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<double> engine(cfg, mesh);
    const DTensor& hidden = engine.forward(tokens);
    ASSERT_LT(ops::max_abs_diff(
                  hidden, ot::matrix_block(hidden_ref, 4, mesh.row(), mesh.col())),
              1e-10);
  });
}

TEST(OddShape, SingleDeviceOptimusIsExactlySerial) {
  // q = 1: every SUMMA call degenerates to a local GEMM. The loss formulas
  // differ algebraically (−log softmax vs log-sum-exp − x_l), so agreement is
  // to rounding, not bitwise.
  om::TransformerConfig cfg;
  cfg.batch = 2;
  cfg.seq_len = 4;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.vocab = 8;
  cfg.layers = 2;
  cfg.seed = 13;
  ITensor tokens = tokens_for(cfg, 6);
  ITensor labels(tokens.shape());
  labels.fill(1);
  om::SerialTransformer<double> oracle(cfg);
  oracle.forward(tokens);
  const double loss_ref = oracle.lm_loss(labels);
  oc::run_cluster(1, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<double> engine(cfg, mesh);
    engine.forward(tokens);
    ASSERT_NEAR(engine.lm_loss(labels), loss_ref, 1e-12);
  });
}

// ---------------------------------------------------------------------------
// Out-of-vocabulary ids fail loudly
// ---------------------------------------------------------------------------
//
// A token id outside [0, vocab), or a label >= vocab (negative labels mask),
// must throw a CheckError naming the op, the id, its index and the vocab. The
// ids are global and identical on every rank, so every rank throws before
// its first collective: no rank is left parked.

namespace {

enum class IdOp { kForward, kDecode, kLoss };

struct OovCase {
  const char* engine;
  IdOp op;
};

om::TransformerConfig oov_cfg() {
  om::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 4;
  cfg.hidden = 8;
  cfg.heads = 2;
  cfg.vocab = 8;
  cfg.layers = 1;
  cfg.seed = 21;
  return cfg;
}

/// Runs `op` with the out-of-vocabulary id `cfg.vocab` planted at index 3 and
/// returns the CheckError message ("" if nothing threw).
template <typename Engine>
std::string oov_error(Engine& eng, const om::TransformerConfig& cfg, IdOp op) {
  ITensor tokens(Shape{cfg.batch, cfg.seq_len});
  for (ot::index_t i = 0; i < tokens.numel(); ++i) {
    tokens[i] = static_cast<std::int32_t>(i % cfg.vocab);
  }
  const auto bad = static_cast<std::int32_t>(cfg.vocab);
  try {
    switch (op) {
      case IdOp::kForward:
        tokens[3] = bad;
        eng.forward(tokens);
        break;
      case IdOp::kDecode: {
        auto cache = eng.make_kv_cache(cfg.batch);
        ITensor step(Shape{cfg.batch});
        step.fill(1);
        step[3] = bad;
        eng.forward_decode(step, cache);
        break;
      }
      case IdOp::kLoss: {
        eng.forward(tokens);
        ITensor labels = tokens.clone();
        labels[0] = -1;  // masked: allowed
        labels[3] = bad;
        eng.lm_loss(labels);
        break;
      }
    }
  } catch (const optimus::util::CheckError& e) {
    return e.what();
  }
  return "";
}

const char* op_name(IdOp op) {
  return op == IdOp::kForward ? "forward" : op == IdOp::kDecode ? "forward_decode" : "lm_loss";
}

void PrintTo(const OovCase& c, std::ostream* os) { *os << c.engine << " " << op_name(c.op); }

class OutOfVocab : public ::testing::TestWithParam<OovCase> {};

}  // namespace

TEST_P(OutOfVocab, IdsFailLoudlyOnEveryRank) {
  const om::TransformerConfig cfg = oov_cfg();
  const OovCase c = GetParam();
  std::vector<std::string> errors;
  std::mutex mu;
  const std::string engine = c.engine;
  if (engine == "serial") {
    om::SerialTransformer<float> eng(cfg);
    errors.push_back(oov_error(eng, cfg, c.op));
  } else {
    // Optimus on a 2x2 mesh, Megatron at p = 2.
    const int ranks = engine == "optimus" ? 4 : 2;
    oc::run_cluster(ranks, [&](oc::Context& ctx) {
      std::string msg;
      if (engine == "optimus") {
        optimus::mesh::Mesh2D mesh(ctx.world);
        optimus::core::OptimusTransformer<float> eng(cfg, mesh);
        msg = oov_error(eng, cfg, c.op);
      } else {
        optimus::megatron::MegatronTransformer<float> eng(cfg, ctx.world);
        msg = oov_error(eng, cfg, c.op);
      }
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(msg);
    });
  }
  const std::string what = c.op == IdOp::kLoss ? "lm_loss: label 8" : "embedding: token id 8";
  for (const std::string& e : errors) {
    EXPECT_NE(e.find(what), std::string::npos) << e;
    EXPECT_NE(e.find("at index 3"), std::string::npos) << e;
    EXPECT_NE(e.find("outside vocab [0, 8)"), std::string::npos) << e;
  }
  EXPECT_EQ(errors.size(), engine == "serial" ? 1u : engine == "optimus" ? 4u : 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, OutOfVocab,
    ::testing::Values(OovCase{"serial", IdOp::kForward}, OovCase{"serial", IdOp::kDecode},
                      OovCase{"serial", IdOp::kLoss}, OovCase{"megatron", IdOp::kForward},
                      OovCase{"megatron", IdOp::kDecode}, OovCase{"megatron", IdOp::kLoss},
                      OovCase{"optimus", IdOp::kForward}, OovCase{"optimus", IdOp::kDecode},
                      OovCase{"optimus", IdOp::kLoss}),
    [](const ::testing::TestParamInfo<OovCase>& info) {
      return std::string(info.param.engine) + "_" + op_name(info.param.op);
    });
