// Tests for the training runtime: optimizers on analytic problems, LR
// schedules, gradient clipping, workload generators, and cross-engine
// training equivalence (serial vs Megatron vs Optimus stepping in lockstep).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "comm/cluster.hpp"
#include "core/optimus_model.hpp"
#include "megatron/megatron_model.hpp"
#include "mesh/mesh.hpp"
#include "model/serial_model.hpp"
#include "runtime/checkpoint_io.hpp"
#include "runtime/data.hpp"
#include "runtime/lr_schedule.hpp"
#include "runtime/optimizer.hpp"
#include "runtime/trainer.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace om = optimus::model;
namespace ort = optimus::runtime;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::DTensor;
using ot::ITensor;
using ot::Shape;
using ot::Tensor;

TEST(Sgd, ConvergesOnQuadratic) {
  // f(x) = ½‖x − target‖² ⇒ grad = x − target.
  DTensor x = DTensor::zeros(Shape{4});
  DTensor target = DTensor::from_vector(Shape{4}, {1, -2, 3, 0.5});
  DTensor g(Shape{4});
  ort::Sgd<double> opt;
  for (int i = 0; i < 200; ++i) {
    for (int k = 0; k < 4; ++k) g[k] = x[k] - target[k];
    opt.step({&x}, {&g}, 0.1);
  }
  EXPECT_LT(ops::max_abs_diff(x, target), 1e-6);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  auto run = [](double momentum) {
    DTensor x = DTensor::full(Shape{1}, 10.0);
    DTensor g(Shape{1});
    ort::Sgd<double> opt({momentum, 0.0});
    for (int i = 0; i < 20; ++i) {
      g[0] = 0.05 * x[0];  // shallow quadratic
      opt.step({&x}, {&g}, 0.5);
    }
    return std::abs(x[0]);
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(Sgd, WeightDecayShrinksParameters) {
  DTensor x = DTensor::full(Shape{1}, 4.0);
  DTensor g = DTensor::zeros(Shape{1});
  ort::Sgd<double> opt({0.0, 0.1});
  for (int i = 0; i < 10; ++i) opt.step({&x}, {&g}, 1.0);
  EXPECT_NEAR(x[0], 4.0 * std::pow(0.9, 10), 1e-12);
}

TEST(Adam, ConvergesOnIllConditionedQuadratic) {
  DTensor x = DTensor::from_vector(Shape{2}, {5.0, 5.0});
  DTensor g(Shape{2});
  ort::Adam<double> opt;
  for (int i = 0; i < 2000; ++i) {
    g[0] = 100.0 * x[0];  // condition number 1e4
    g[1] = 0.01 * x[1];
    opt.step({&x}, {&g}, 0.05);
  }
  EXPECT_LT(std::abs(x[0]), 1e-3);
  EXPECT_LT(std::abs(x[1]), 1e-1);
  EXPECT_EQ(opt.steps_taken(), 2000);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, step 1 moves by ≈ lr·sign(g).
  DTensor x = DTensor::zeros(Shape{1});
  DTensor g = DTensor::full(Shape{1}, 0.3);
  ort::Adam<double> opt;
  opt.step({&x}, {&g}, 0.01);
  EXPECT_NEAR(x[0], -0.01, 1e-6);
}

// Adam::step runs a vectorized update; it must round every element exactly as
// the scalar loop below does (same operations, same order, no fused
// multiply-add). Tensors of 37 and 5 elements end in a partial vector at
// every SIMD width.
template <typename T>
void check_adam_matches_scalar_loop() {
  const typename ort::Adam<T>::Options o{.beta1 = 0.9, .beta2 = 0.999, .eps = 1e-8,
                                         .weight_decay = 0.01};
  optimus::util::Rng rng(23);
  std::vector<ot::TensorT<T>> params, grads;
  for (const ot::index_t n : {37, 5}) {
    ot::TensorT<T> p(Shape{n}), g(Shape{n});
    for (ot::index_t i = 0; i < n; ++i) {
      p[i] = static_cast<T>(rng.uniform(-1, 1));
      g[i] = static_cast<T>(rng.uniform(-1, 1) * std::pow(10.0, rng.uniform(-6, 1)));
    }
    params.push_back(p);
    grads.push_back(g);
  }
  std::vector<ot::TensorT<T>> want;
  for (const auto& p : params) want.push_back(p.clone());
  std::vector<std::vector<T>> m, v;
  for (const auto& p : params) {
    m.emplace_back(static_cast<std::size_t>(p.numel()), T{0});
    v.emplace_back(static_cast<std::size_t>(p.numel()), T{0});
  }

  ort::Adam<T> opt(o);
  std::vector<ot::TensorT<T>*> pp{&params[0], &params[1]}, gp{&grads[0], &grads[1]};
  for (int t = 1; t <= 3; ++t) {
    const double lr = 0.01 * t;
    opt.step(pp, gp, lr);
    const double bc1 = 1.0 - std::pow(o.beta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(o.beta2, static_cast<double>(t));
    for (std::size_t i = 0; i < want.size(); ++i) {
      T* w = want[i].data();
      const T* g = grads[i].data();
      for (ot::index_t k = 0; k < want[i].numel(); ++k) {
        T& mk = m[i][static_cast<std::size_t>(k)];
        T& vk = v[i][static_cast<std::size_t>(k)];
        mk = static_cast<T>(o.beta1) * mk + static_cast<T>(1.0 - o.beta1) * g[k];
        vk = static_cast<T>(o.beta2) * vk + static_cast<T>(1.0 - o.beta2) * g[k] * g[k];
        const T mhat = mk / static_cast<T>(bc1);
        const T vhat = vk / static_cast<T>(bc2);
        w[k] -= static_cast<T>(lr) * (mhat / (std::sqrt(vhat) + static_cast<T>(o.eps)) +
                                      static_cast<T>(o.weight_decay) * w[k]);
      }
      ASSERT_EQ(0, std::memcmp(want[i].data(), params[i].data(), want[i].numel() * sizeof(T)))
          << "step " << t << ", tensor " << i;
    }
  }
}

TEST(Adam, VectorizedStepMatchesScalarLoopBitwise) {
  check_adam_matches_scalar_loop<float>();
  check_adam_matches_scalar_loop<double>();
}

TEST(Optimizer, MismatchedListsThrow) {
  DTensor x(Shape{2}), g(Shape{3});
  ort::Sgd<double> opt;
  EXPECT_THROW(opt.step({&x}, {&g}, 0.1), optimus::util::CheckError);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  DTensor g = DTensor::from_vector(Shape{2}, {3.0, 4.0});  // norm 5
  const double norm = ort::clip_grad_norm<double>({&g}, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(ops::l2_norm(g), 1.0, 1e-12);
  // Already-small gradients are untouched.
  DTensor g2 = DTensor::from_vector(Shape{2}, {0.3, 0.4});
  ort::clip_grad_norm<double>({&g2}, 1.0);
  EXPECT_DOUBLE_EQ(g2[0], 0.3);
}

TEST(ClipGradNorm, DistributedNormMatchesGathered) {
  // Shards of one gradient vector across 4 ranks must yield the same norm as
  // the concatenation.
  oc::run_cluster(4, [](oc::Context& ctx) {
    DTensor shard = DTensor::full(Shape{3}, static_cast<double>(ctx.rank + 1));
    const double norm = ort::global_grad_norm<double>({&shard}, &ctx.world);
    // ‖(1,1,1,2,2,2,3,3,3,4,4,4)‖ = sqrt(3·(1+4+9+16)) = sqrt(90).
    ASSERT_NEAR(norm, std::sqrt(90.0), 1e-12);
  });
}

TEST(LrSchedules, WarmupCosineShape) {
  ort::WarmupCosineLr lr(1.0, 10, 110, 0.1);
  EXPECT_NEAR(lr(0), 0.1, 1e-12);    // first warmup step
  EXPECT_NEAR(lr(9), 1.0, 1e-12);    // warmup end
  EXPECT_GT(lr(30), lr(80));         // decaying
  EXPECT_NEAR(lr(110), 0.1, 1e-9);   // floor
  EXPECT_NEAR(lr(1000), 0.1, 1e-9);  // flat after total
}

TEST(LrSchedules, StepDecay) {
  ort::StepDecayLr lr(1.0, 0.5, 10);
  EXPECT_DOUBLE_EQ(lr(0), 1.0);
  EXPECT_DOUBLE_EQ(lr(9), 1.0);
  EXPECT_DOUBLE_EQ(lr(10), 0.5);
  EXPECT_DOUBLE_EQ(lr(25), 0.25);
}

TEST(Workloads, RandomLmDeterministicAndLabelsShifted) {
  ort::RandomLmWorkload a(2, 5, 17, 99), b(2, 5, 17, 99);
  const auto ba = a.next();
  const auto bb = b.next();
  EXPECT_EQ(ba.tokens.to_vector(), bb.tokens.to_vector());
  for (int r = 0; r < 2; ++r) {
    for (int t = 0; t < 4; ++t) EXPECT_EQ(ba.labels.at(r, t), ba.tokens.at(r, t + 1));
    EXPECT_EQ(ba.labels.at(r, 4), -1);
  }
  for (ot::index_t i = 0; i < ba.tokens.numel(); ++i) {
    EXPECT_GE(ba.tokens[i], 0);
    EXPECT_LT(ba.tokens[i], 17);
  }
}

TEST(Workloads, PatternLmIsPredictable) {
  ort::PatternLmWorkload w(4, 8, 16, 5, 7);
  const auto batch = w.next();
  for (int r = 0; r < 4; ++r) {
    for (int t = 0; t + 1 < 8; ++t) {
      EXPECT_EQ((batch.tokens.at(r, t) + 1) % 5, batch.tokens.at(r, t + 1));
    }
  }
}

TEST(Workloads, ClsBandsAreSeparable) {
  ort::SyntheticClsWorkload w(64, 16, 20, 2, 1.0, 3);
  const auto batch = w.next();
  for (int r = 0; r < 64; ++r) {
    const int cls = batch.labels[r];
    for (int t = 0; t < 16; ++t) {
      EXPECT_GE(batch.tokens.at(r, t), cls * 10);
      EXPECT_LT(batch.tokens.at(r, t), (cls + 1) * 10);
    }
  }
}

TEST(CharCorpus, EncodeDecodeRoundTrip) {
  ort::CharCorpus corpus("hello world");
  EXPECT_EQ(corpus.vocab_size(), 8);  // ' ', d, e, h, l, o, r, w
  const std::string s = "low";
  std::vector<std::int32_t> toks;
  for (char c : s) toks.push_back(corpus.encode(c));
  EXPECT_EQ(corpus.decode(toks), s);
  EXPECT_THROW(corpus.encode('z'), optimus::util::CheckError);
}

TEST(CharCorpus, SampleLabelsAreNextChars) {
  ort::CharCorpus corpus(ort::CharCorpus::builtin_text());
  optimus::util::Rng rng(4);
  const auto batch = corpus.sample(3, 12, rng);
  // Every (token, label) pair must be an adjacent bigram of the corpus: check
  // by decoding and re-encoding a window.
  for (int r = 0; r < 3; ++r) {
    for (int t = 0; t + 1 < 12; ++t) {
      EXPECT_EQ(batch.labels.at(r, t), batch.tokens.at(r, t + 1));
    }
  }
}

TEST(Trainer, SerialModelLearnsPattern) {
  om::TransformerConfig cfg;
  cfg.batch = 8;
  cfg.seq_len = 8;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.vocab = 8;
  cfg.layers = 2;
  cfg.seed = 7;
  om::SerialTransformer<float> model(cfg);
  ort::Adam<float> opt;
  ort::PatternLmWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 4, 11);
  ort::ConstantLr lr(3e-3);
  auto losses =
      ort::train_lm(model, opt, lr, [&] { return workload.next(); }, 120);
  // The pattern is fully predictable after its first period: loss must drop
  // far below chance (log 8 ≈ 2.08).
  EXPECT_GT(losses.front(), 1.5);
  EXPECT_LT(ort::tail_mean(losses, 10), 0.35);
}

TEST(Trainer, ClsBranchLearnsSeparableData) {
  om::TransformerConfig cfg;
  cfg.batch = 8;
  cfg.seq_len = 6;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.vocab = 16;
  cfg.layers = 1;
  cfg.num_classes = 2;
  cfg.seed = 8;
  om::SerialTransformer<float> model(cfg);
  ort::Adam<float> opt;
  ort::SyntheticClsWorkload workload(cfg.batch, cfg.seq_len, cfg.vocab, 2, 0.95, 12);
  ort::ConstantLr lr(3e-3);
  auto losses =
      ort::train_cls(model, opt, lr, [&] { return workload.next(); }, 150);
  EXPECT_LT(ort::tail_mean(losses, 10), 0.3);  // chance = log 2 ≈ 0.69
}

TEST(Trainer, GradientAccumulationEqualsFullBatch) {
  // Two micro-batches of b=2 accumulated must give the same gradients as the
  // concatenated b=4 batch (equal unmasked-label counts per micro-batch).
  om::TransformerConfig big;
  big.batch = 4;
  big.seq_len = 4;
  big.hidden = 16;
  big.heads = 4;
  big.vocab = 16;
  big.layers = 2;
  big.seed = 515;
  auto small = big;
  small.batch = 2;

  ort::RandomLmWorkload w(big.batch, big.seq_len, big.vocab, 99);
  const auto full = w.next();
  ort::LmBatch first{full.tokens.row_range(0, 2).clone(), full.labels.row_range(0, 2).clone()};
  ort::LmBatch second{full.tokens.row_range(2, 4).clone(),
                      full.labels.row_range(2, 4).clone()};

  om::SerialTransformer<double> full_model(big);
  full_model.forward(full.tokens);
  (void)full_model.lm_loss(full.labels);
  full_model.zero_grads();
  full_model.backward_lm();

  om::SerialTransformer<double> micro_model(small);
  const double mean_loss = ort::accumulate_lm_gradients(micro_model, {first, second});

  auto gf = full_model.gradients();
  auto gm = micro_model.gradients();
  for (std::size_t i = 0; i < gf.size(); ++i) {
    ASSERT_LT(ops::max_abs_diff(*gf[i], *gm[i]), 1e-12) << "gradient " << i;
  }
  // And the mean micro loss equals the full-batch loss.
  full_model.forward(full.tokens);
  ASSERT_NEAR(mean_loss, full_model.lm_loss(full.labels), 1e-12);
}

TEST(Trainer, GradientAccumulationWorksOnOptimusMesh) {
  om::TransformerConfig cfg;
  cfg.batch = 2;
  cfg.seq_len = 4;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 1;
  cfg.seed = 516;
  ort::RandomLmWorkload w(cfg.batch, cfg.seq_len, cfg.vocab, 100);
  const std::vector<ort::LmBatch> micros{w.next(), w.next(), w.next()};
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<double> engine(cfg, mesh);
    const double loss = ort::accumulate_lm_gradients(engine, micros);
    ASSERT_GT(loss, 0.0);
    // Stepping on the accumulated gradient reduces the mean loss.
    ort::Sgd<double> opt;
    opt.step(engine.parameters(), engine.gradients(), 0.05);
    double after = 0;
    for (const auto& b : micros) {
      engine.forward(b.tokens);
      after += engine.lm_loss(b.labels);
    }
    ASSERT_LT(after / micros.size(), loss);
  });
}

TEST(Trainer, AllThreeEnginesTrainIdentically) {
  // The flagship integration test: serial, Megatron(p=4) and Optimus(q=2)
  // run the same 5 Adam steps on the same batches; the loss traces must agree
  // to fp64 tolerance at every step.
  om::TransformerConfig cfg;
  cfg.batch = 4;
  cfg.seq_len = 4;
  cfg.hidden = 16;
  cfg.heads = 4;
  cfg.vocab = 16;
  cfg.layers = 2;
  cfg.seed = 2024;
  const int steps = 5;

  auto make_batches = [&] {
    ort::RandomLmWorkload w(cfg.batch, cfg.seq_len, cfg.vocab, 31);
    std::vector<ort::LmBatch> out;
    for (int i = 0; i < steps; ++i) out.push_back(w.next());
    return out;
  };
  const auto batches = make_batches();

  std::vector<double> serial_losses;
  {
    om::SerialTransformer<double> model(cfg);
    ort::Adam<double> opt;
    int i = 0;
    ort::ConstantLr lr(1e-3);
    for (const auto& batch : batches) {
      serial_losses.push_back(ort::lm_step(model, opt, batch, lr(i++)));
    }
  }

  std::vector<double> megatron_losses(steps), optimus_losses(steps);
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::megatron::MegatronTransformer<double> engine(cfg, ctx.world);
    ort::Adam<double> opt;
    for (int i = 0; i < steps; ++i) {
      const double loss = ort::lm_step(engine, opt, batches[i], 1e-3);
      if (ctx.rank == 0) megatron_losses[i] = loss;
    }
  });
  oc::run_cluster(4, [&](oc::Context& ctx) {
    optimus::mesh::Mesh2D mesh(ctx.world);
    optimus::core::OptimusTransformer<double> engine(cfg, mesh);
    ort::Adam<double> opt;
    for (int i = 0; i < steps; ++i) {
      const double loss = ort::lm_step(engine, opt, batches[i], 1e-3);
      if (ctx.rank == 0) optimus_losses[i] = loss;
    }
  });

  for (int i = 0; i < steps; ++i) {
    EXPECT_NEAR(megatron_losses[i], serial_losses[i], 1e-8) << "step " << i;
    EXPECT_NEAR(optimus_losses[i], serial_losses[i], 1e-8) << "step " << i;
  }
}

TEST(CheckpointIo, RandomTensorsRoundTripBitwise) {
  // Property: save → load reproduces every byte, including signed zeros,
  // infinities, NaN payloads and denormals — a checkpoint must never launder
  // the values it stores.
  const std::uint64_t seed = optimus::testing::test_seed(2718);
  OPTIMUS_SEED_TRACE(seed);
  optimus::util::Rng rng(seed);
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min()};
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<DTensor> tensors;
    const int count = 1 + static_cast<int>(rng.uniform_index(5));
    for (int t = 0; t < count; ++t) {
      const int rank = 1 + static_cast<int>(rng.uniform_index(3));
      Shape shape;
      switch (rank) {
        case 1: shape = Shape{1 + static_cast<ot::index_t>(rng.uniform_index(6))}; break;
        case 2:
          shape = Shape{1 + static_cast<ot::index_t>(rng.uniform_index(6)),
                        1 + static_cast<ot::index_t>(rng.uniform_index(6))};
          break;
        default:
          shape = Shape{1 + static_cast<ot::index_t>(rng.uniform_index(4)),
                        1 + static_cast<ot::index_t>(rng.uniform_index(4)),
                        1 + static_cast<ot::index_t>(rng.uniform_index(4))};
      }
      DTensor tensor(shape);
      for (ot::index_t i = 0; i < tensor.numel(); ++i) {
        tensor[i] = rng.uniform_index(8) == 0 ? specials[rng.uniform_index(6)]
                                              : rng.uniform(-1e6, 1e6);
      }
      tensors.push_back(tensor);
    }
    std::vector<DTensor*> saved;
    for (auto& t : tensors) saved.push_back(&t);

    std::stringstream buf;
    ort::save_tensors(buf, saved);

    std::vector<DTensor> reloaded;
    for (const auto& t : tensors) reloaded.push_back(DTensor::zeros(t.shape()));
    std::vector<DTensor*> loaded;
    for (auto& t : reloaded) loaded.push_back(&t);
    ort::load_tensors(buf, loaded);

    for (std::size_t t = 0; t < tensors.size(); ++t) {
      ASSERT_EQ(tensors[t].shape(), reloaded[t].shape());
      ASSERT_EQ(std::memcmp(tensors[t].data(), reloaded[t].data(),
                            sizeof(double) * static_cast<std::size_t>(tensors[t].numel())),
                0)
          << "iteration " << iter << ", tensor " << t << " changed across the round trip";
    }
  }
}

TEST(CheckpointIo, LoadIntoMismatchedShapesThrows) {
  DTensor a = DTensor::zeros(Shape{2, 3});
  std::vector<DTensor*> saved{&a};
  std::stringstream buf;
  ort::save_tensors(buf, saved);
  DTensor wrong = DTensor::zeros(Shape{3, 2});
  std::vector<DTensor*> loaded{&wrong};
  EXPECT_THROW(ort::load_tensors(buf, loaded), optimus::util::CheckError);
}
