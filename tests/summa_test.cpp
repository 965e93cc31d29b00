// Tests for the three SUMMA product forms: distributed results must equal the
// serial product of the gathered global matrices, across mesh sides 1..4,
// with and without the pre-allocated workspace, and the differentiation
// closure (eqs. 1–3 of the paper) must hold end-to-end.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/mesh.hpp"
#include "perfmodel/validation.hpp"
#include "summa/summa.hpp"
#include "tensor/distribution.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace oc = optimus::comm;
namespace om = optimus::mesh;
namespace os = optimus::summa;
namespace ot = optimus::tensor;
namespace ops = optimus::tensor::ops;
using ot::DTensor;
using ot::Shape;

namespace {

struct SummaCase {
  int q;
  ot::index_t m, k, n;  // global dims, all divisible by q
  bool use_workspace;
};

// Runs a distributed op on a q×q cluster where each device gets its block of
// the global inputs, then gathers every device's C block into a global
// result on the host for comparison.
template <typename DistributedOp>
DTensor run_summa_case(const SummaCase& c, const DTensor& A_global, const DTensor& B_global,
                       Shape c_global_shape, const DistributedOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::mutex mu;
  oc::run_cluster(c.q * c.q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, c.q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, c.q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / c.q, c_global_shape[1] / c.q});
    C.zero();
    std::unique_ptr<ot::Arena> workspace;
    if (c.use_workspace) {
      workspace = std::make_unique<ot::Arena>(
          "ws", os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double)));
    }
    op(mesh, A, B, C, workspace.get());
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, c.q, mesh.row(), mesh.col(), C);
  });
  return C_global;
}

// One label names the case both in gtest (the parameter-name generator) and
// in the `GetParam() =` comment that CTest's test discovery keeps in its test
// names, so neither depends on the struct's padding bytes.
std::string case_label(const SummaCase& c) {
  return "q" + std::to_string(c.q) + "_m" + std::to_string(c.m) + "k" + std::to_string(c.k) +
         "n" + std::to_string(c.n) + (c.use_workspace ? "_ws" : "");
}
void PrintTo(const SummaCase& c, std::ostream* os) { *os << case_label(c); }

class SummaSweep : public ::testing::TestWithParam<SummaCase> {};

}  // namespace

TEST_P(SummaSweep, AbMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(17);
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.k}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.k, c.n}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.m, c.n},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_ab(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

TEST_P(SummaSweep, AbtMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(18);
  // C[m, k] = A[m, n] · B[k, n]ᵀ — reuse (m, k, n) as (rows of A, rows of B, shared dim).
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.n}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.k, c.n}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.m, c.k},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_abt(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B, ops::Trans::No, ops::Trans::Yes);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

TEST_P(SummaSweep, AtbMatchesSerialProduct) {
  const SummaCase c = GetParam();
  optimus::util::Rng rng(19);
  // C[n, k] = A[m, n]ᵀ · B[m, k].
  DTensor A = optimus::testing::random_dtensor(Shape{c.m, c.n}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{c.m, c.k}, rng);
  DTensor C = run_summa_case(
      c, A, B, Shape{c.n, c.k},
      [](om::Mesh2D& mesh, const DTensor& a, const DTensor& b, DTensor& out, ot::Arena* ws) {
        os::summa_atb(mesh, a, b, out, false, ws);
      });
  DTensor ref = ops::matmul(A, B, ops::Trans::Yes, ops::Trans::No);
  EXPECT_LT(ops::max_abs_diff(C, ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    MeshAndShapes, SummaSweep,
    ::testing::Values(SummaCase{1, 4, 6, 8, false}, SummaCase{2, 4, 6, 8, false},
                      SummaCase{2, 4, 6, 8, true}, SummaCase{3, 6, 9, 12, false},
                      SummaCase{3, 6, 9, 12, true}, SummaCase{4, 8, 12, 16, true},
                      SummaCase{2, 16, 8, 24, true}),
    [](const ::testing::TestParamInfo<SummaCase>& info) { return case_label(info.param); });

TEST(Summa, AccumulateAddsIntoExistingC) {
  const int q = 2;
  optimus::util::Rng rng(20);
  DTensor A = optimus::testing::random_dtensor(Shape{4, 6}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{6, 8}, rng);
  DTensor C_global = DTensor::zeros(Shape{4, 8});
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor c = DTensor::full(Shape{2, 4}, 1.0);
    os::summa_ab(mesh, a, b, c, /*accumulate=*/true);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), c);
  });
  DTensor ref = ops::matmul(A, B);
  for (ot::index_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(C_global[i], ref[i] + 1.0, 1e-11);
}

TEST(Summa, DifferentiationClosureGradCheck) {
  // Forward C = A·B distributed; backward dA = dC·Bᵀ (Alg 2), dB = Aᵀ·dC
  // (Alg 3). The assembled gradients must match finite differences of the
  // scalar loss  L = Σ (A·B) ⊙ G  computed serially.
  const int q = 2;
  optimus::util::Rng rng(21);
  DTensor A = optimus::testing::random_dtensor(Shape{4, 6}, rng);
  DTensor B = optimus::testing::random_dtensor(Shape{6, 4}, rng);
  DTensor G = optimus::testing::random_dtensor(Shape{4, 4}, rng);

  DTensor dA_global = DTensor::zeros(A.shape());
  DTensor dB_global = DTensor::zeros(B.shape());
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = ot::matrix_block(A, q, mesh.row(), mesh.col());
    DTensor b = ot::matrix_block(B, q, mesh.row(), mesh.col());
    DTensor g = ot::matrix_block(G, q, mesh.row(), mesh.col());
    DTensor da(a.shape()), db(b.shape());
    da.zero();
    db.zero();
    os::summa_abt(mesh, g, b, da);  // dA = dC·Bᵀ
    os::summa_atb(mesh, a, g, db);  // dB = Aᵀ·dC
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(dA_global, q, mesh.row(), mesh.col(), da);
    ot::set_matrix_block(dB_global, q, mesh.row(), mesh.col(), db);
  });

  auto loss = [&] {
    DTensor C = ops::matmul(A, B);
    double acc = 0;
    for (ot::index_t i = 0; i < C.numel(); ++i) acc += C[i] * G[i];
    return acc;
  };
  optimus::testing::check_gradient(A, loss, dA_global, 1e-6, 1e-7);
  optimus::testing::check_gradient(B, loss, dB_global, 1e-6, 1e-7);
}

TEST(Summa, WorkspaceIsFullyReleasedAfterCall) {
  const int q = 2;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = DTensor::zeros(Shape{2, 3});
    DTensor b = DTensor::zeros(Shape{3, 4});
    DTensor c = DTensor::zeros(Shape{2, 4});
    ot::Arena ws("ws", os::workspace_bytes(a.numel(), b.numel(), c.numel(), sizeof(double)));
    os::summa_ab(mesh, a, b, c, false, &ws);
    ASSERT_EQ(ws.used(), 0u);
    ASSERT_GT(ws.high_water(), 0u);
    // Repeated calls reuse the same slab without growth.
    os::summa_ab(mesh, a, b, c, false, &ws);
    os::summa_abt(mesh, c, b, a, false, &ws);
    ASSERT_EQ(ws.used(), 0u);
  });
}

TEST(Summa, CommunicationVolumeMatchesAlgorithm1Accounting) {
  // Per device, summa_ab moves q broadcasts of A blocks in rows and q of B
  // blocks in columns; weighted units must equal log2(q)·q·(|A|+|B|)/... —
  // checked directly against the stats counters.
  const int q = 2;
  auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor a = DTensor::zeros(Shape{4, 6});
    DTensor b = DTensor::zeros(Shape{6, 8});
    DTensor c = DTensor::zeros(Shape{4, 8});
    os::summa_ab(mesh, a, b, c);
  });
  const auto& s = report.ranks[0].stats;
  // q row-broadcasts of 24 elements + q column-broadcasts of 48 elements.
  EXPECT_EQ(s.broadcast.calls, static_cast<std::uint64_t>(2 * q));
  EXPECT_EQ(s.broadcast.elems, static_cast<std::uint64_t>(q * 24 + q * 48));
  // log2(2) = 1 per broadcast in a group of 2.
  EXPECT_DOUBLE_EQ(s.broadcast.weighted, q * 24.0 + q * 48.0);
  EXPECT_EQ(s.reduce.calls, 0u);
}

TEST(Summa, NanPoisonedWorkspaceIsHarmless) {
  // Regression for beta semantics in the kernel layer: with accumulate=false
  // the first SUMMA step runs beta == 0, which must *store* into C and into
  // any workspace-carved temporaries — never scale them. Poison the whole
  // arena slab with NaN first; any read-before-write of workspace memory (or
  // a beta path that multiplies stale C) surfaces as NaN in the result.
  const int q = 2;
  const ot::index_t m = 8, k = 12, n = 16;
  optimus::util::Rng rng(29);
  DTensor A_global = optimus::testing::random_dtensor(Shape{m, k}, rng);
  DTensor B_global = optimus::testing::random_dtensor(Shape{k, n}, rng);
  DTensor C_global = DTensor::zeros(Shape{m, n});
  std::mutex mu;
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    const std::uint64_t cap =
        os::workspace_bytes(A.numel(), B.numel(), (m / q) * (n / q), sizeof(double));
    ot::Arena ws("poisoned", cap);
    {
      // Fill the entire slab with NaN, then reset so SUMMA re-carves it.
      DTensor poison = ws.alloc<double>(Shape{static_cast<ot::index_t>(cap / sizeof(double))});
      const double nan = std::numeric_limits<double>::quiet_NaN();
      for (ot::index_t i = 0; i < poison.numel(); ++i) poison[i] = nan;
      ws.reset();
    }
    // C itself is also NaN-poisoned: accumulate=false must overwrite it.
    DTensor C(Shape{m / q, n / q});
    for (ot::index_t i = 0; i < C.numel(); ++i) C[i] = std::numeric_limits<double>::quiet_NaN();
    os::summa_ab(mesh, A, B, C, /*accumulate=*/false, &ws);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
  });
  for (ot::index_t i = 0; i < C_global.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(C_global[i])) << "NaN leaked into C at " << i;
  }
  DTensor ref = ops::matmul(A_global, B_global);
  EXPECT_LT(ops::max_abs_diff(C_global, ref), 1e-11);
}

// ---------------------------------------------------------------------------
// Pipelined schedule: bitwise identity and the overlap clock model
// ---------------------------------------------------------------------------

namespace {

// Gathers the global C of one form under the given pipeline mode.
template <typename FormOp>
DTensor run_form(int q, const DTensor& A_global, const DTensor& B_global,
                 Shape c_global_shape, bool pipelined, bool accumulate, const FormOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::mutex mu;
  os::PipelineGuard guard(pipelined);
  oc::run_cluster(q * q, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / q, c_global_shape[1] / q});
    // Deterministic nonzero C start so accumulate=true is exercised for real.
    for (ot::index_t i = 0; i < C.numel(); ++i) {
      C[i] = accumulate ? 0.125 * static_cast<double>(i + mesh.row() + mesh.col()) : 0.0;
    }
    ot::Arena ws("ws", os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double)));
    op(mesh, A, B, C, accumulate, &ws);
    std::lock_guard<std::mutex> lock(mu);
    ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
  });
  return C_global;
}

}  // namespace

TEST(SummaPipeline, AllFormsBitwiseIdenticalToBlocking) {
  // The pipelined schedule moves identical payloads from identical roots and
  // accumulates in the identical order — results must match to the bit
  // (0 ULPs), for every form, mesh side and accumulate mode.
  const auto ab = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                     bool acc, ot::Arena* ws) { os::summa_ab(m, a, b, c, acc, ws); };
  const auto abt = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_abt(m, a, b, c, acc, ws); };
  const auto atb = [](om::Mesh2D& m, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_atb(m, a, b, c, acc, ws); };
  for (int q : {2, 3, 4}) {
    const ot::index_t m = 2 * q, k = 3 * q, n = 4 * q;
    optimus::util::Rng rng(60 + q);
    for (const bool accumulate : {false, true}) {
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, k}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
        DTensor blocking = run_form(q, A, B, Shape{m, n}, false, accumulate, ab);
        DTensor pipelined = run_form(q, A, B, Shape{m, n}, true, accumulate, ab);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "ab q=" << q << " i=" << i;
        }
      }
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
        DTensor blocking = run_form(q, A, B, Shape{m, k}, false, accumulate, abt);
        DTensor pipelined = run_form(q, A, B, Shape{m, k}, true, accumulate, abt);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "abt q=" << q << " i=" << i;
        }
      }
      {
        DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
        DTensor B = optimus::testing::random_dtensor(Shape{m, k}, rng);
        DTensor blocking = run_form(q, A, B, Shape{n, k}, false, accumulate, atb);
        DTensor pipelined = run_form(q, A, B, Shape{n, k}, true, accumulate, atb);
        for (ot::index_t i = 0; i < blocking.numel(); ++i) {
          ASSERT_EQ(pipelined[i], blocking[i]) << "atb q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(SummaPipeline, GuardOnRankThreadFailsNamingTheRank) {
  // The pipeline mode is process-wide: a guard built inside a cluster body
  // would be restored by each rank thread in racing order. It must fail
  // loudly instead, naming the rank, and leave the mode untouched.
  const bool before = os::pipeline_enabled();
  try {
    oc::run_cluster(2, [](oc::Context& ctx) {
      if (ctx.rank == 1) {
        os::PipelineGuard guard(!os::pipeline_enabled());
      }
    });
    FAIL() << "PipelineGuard on a rank thread was accepted";
  } catch (const optimus::util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("simulated rank 1"), std::string::npos) << what;
  }
  EXPECT_EQ(os::pipeline_enabled(), before);
}

// ---------------------------------------------------------------------------
// 2.5D (Tesseract) schedule: depth meshes, replica identity and the clock model
// ---------------------------------------------------------------------------

namespace {

/// Runs one form on a q×q×d mesh, asserts every depth replica of C is bitwise
/// identical to layer 0's, and gathers layer 0's blocks into the global C.
template <typename FormOp>
DTensor run_form_25d(int q, int d, const DTensor& A_global, const DTensor& B_global,
                     Shape c_global_shape, bool pipelined, bool accumulate,
                     const FormOp& op) {
  DTensor C_global = DTensor::zeros(c_global_shape);
  std::vector<DTensor> per_rank(static_cast<std::size_t>(q * q * d));
  std::mutex mu;
  os::PipelineGuard guard(pipelined);
  oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world, d);
    DTensor A = ot::matrix_block(A_global, q, mesh.row(), mesh.col());
    DTensor B = ot::matrix_block(B_global, q, mesh.row(), mesh.col());
    DTensor C(Shape{c_global_shape[0] / q, c_global_shape[1] / q});
    // Same per-block seeding as run_form so the 2D run is directly comparable.
    for (ot::index_t i = 0; i < C.numel(); ++i) {
      C[i] = accumulate ? 0.125 * static_cast<double>(i + mesh.row() + mesh.col()) : 0.0;
    }
    ot::Arena ws("ws",
                 os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double), d));
    op(mesh, A, B, C, accumulate, &ws);
    std::lock_guard<std::mutex> lock(mu);
    per_rank[static_cast<std::size_t>(ctx.rank)] = C.clone();
    if (mesh.depth_idx() == 0) {
      ot::set_matrix_block(C_global, q, mesh.row(), mesh.col(), C);
    }
  });
  // Replica discipline: after the final depth broadcast, every layer's C must
  // hold exactly the layer-0 bits (rank = z·q² + cell, depth-major).
  for (int z = 1; z < d; ++z) {
    for (int cell = 0; cell < q * q; ++cell) {
      const DTensor& ref = per_rank[static_cast<std::size_t>(cell)];
      const DTensor& rep = per_rank[static_cast<std::size_t>(z * q * q + cell)];
      EXPECT_EQ(ref.numel(), rep.numel());
      for (ot::index_t i = 0; i < ref.numel(); ++i) {
        EXPECT_EQ(rep[i], ref[i])
            << "depth replica diverged: layer " << z << " cell " << cell << " elem " << i;
      }
    }
  }
  return C_global;
}

struct Summa25dCase {
  int q, d;
  bool pipelined;
  bool accumulate;
};

std::string case_label(const Summa25dCase& c) {
  return "q" + std::to_string(c.q) + "d" + std::to_string(c.d) +
         (c.pipelined ? "_pipelined" : "_blocking") + (c.accumulate ? "_acc" : "");
}
void PrintTo(const Summa25dCase& c, std::ostream* os) { *os << case_label(c); }

class Summa25dSweep : public ::testing::TestWithParam<Summa25dCase> {};

}  // namespace

TEST_P(Summa25dSweep, AllFormsMatchSerialWithBitwiseDepthReplicas) {
  const auto [q, d, pipelined, accumulate] = GetParam();
  // Contraction dims must divide q·d: base every global dim on lcm-ish 2q·d·3.
  const ot::index_t m = static_cast<ot::index_t>(2 * q * d);
  const ot::index_t k = static_cast<ot::index_t>(3 * q * d);
  const ot::index_t n = static_cast<ot::index_t>(4 * q * d);
  optimus::util::Rng rng(70 + 8 * q + d);
  const auto ab = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                     bool acc, ot::Arena* ws) { os::summa_ab(mm, a, b, c, acc, ws); };
  const auto abt = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_abt(mm, a, b, c, acc, ws); };
  const auto atb = [](om::Mesh2D& mm, const DTensor& a, const DTensor& b, DTensor& c,
                      bool acc, ot::Arena* ws) { os::summa_atb(mm, a, b, c, acc, ws); };
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, k}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{m, n}, pipelined, accumulate, ab);
    DTensor want = run_form(q, A, B, Shape{m, n}, pipelined, accumulate, ab);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "ab vs 2D";
    if (!accumulate) {
      EXPECT_LT(ops::max_abs_diff(got, ops::matmul(A, B)), 1e-11) << "ab vs serial";
    }
  }
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{k, n}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{m, k}, pipelined, accumulate, abt);
    DTensor want = run_form(q, A, B, Shape{m, k}, pipelined, accumulate, abt);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "abt vs 2D";
  }
  {
    DTensor A = optimus::testing::random_dtensor(Shape{m, n}, rng);
    DTensor B = optimus::testing::random_dtensor(Shape{m, k}, rng);
    DTensor got = run_form_25d(q, d, A, B, Shape{n, k}, pipelined, accumulate, atb);
    DTensor want = run_form(q, A, B, Shape{n, k}, pipelined, accumulate, atb);
    EXPECT_LT(ops::max_abs_diff(got, want), 1e-12) << "atb vs 2D";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthMeshes, Summa25dSweep,
    ::testing::Values(Summa25dCase{1, 2, false, false}, Summa25dCase{1, 2, true, true},
                      Summa25dCase{2, 2, false, false}, Summa25dCase{2, 2, false, true},
                      Summa25dCase{2, 2, true, false}, Summa25dCase{2, 2, true, true},
                      Summa25dCase{2, 3, true, false}, Summa25dCase{3, 2, true, true}),
    [](const ::testing::TestParamInfo<Summa25dCase>& info) { return case_label(info.param); });

TEST(Summa25d, CommunicationVolumeMatchesDepthAccounting) {
  // At q = 2, d = 2 summa_ab moves q row-broadcasts of half A blocks and q
  // column-broadcasts of half B blocks (the /d Table-1 terms), then exactly
  // one depth tree-reduce and one depth broadcast of the C block.
  const int q = 2, d = 2;
  auto report = oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
    om::Mesh2D mesh(ctx.world, d);
    DTensor a = DTensor::zeros(Shape{4, 6});
    DTensor b = DTensor::zeros(Shape{6, 8});
    DTensor c = DTensor::zeros(Shape{4, 8});
    os::summa_ab(mesh, a, b, c);
  });
  const auto& s = report.ranks[0].stats;
  // Sub-panels: A 4×3 = 12 elems, B 3×8 = 24 elems; C block 32 elems.
  EXPECT_EQ(s.broadcast.calls, static_cast<std::uint64_t>(2 * q + 1));
  EXPECT_EQ(s.broadcast.elems, static_cast<std::uint64_t>(q * 12 + q * 24 + 32));
  EXPECT_EQ(s.reduce.calls, 1u);
  EXPECT_EQ(s.reduce.elems, 32u);
}

TEST(Summa25d, SimTimeMatchesDepthPredictor) {
  // The simulator's clock on a q×q×d mesh must reproduce the 2.5D closed form
  // — Table-1 terms /d plus the depth-reduction term — exactly, under both
  // schedules.
  namespace opm = optimus::perfmodel;
  const int q = 2, d = 2;
  const ot::index_t nb = 96 / q;
  const auto run_mode = [&](bool pipelined) {
    os::PipelineGuard guard(pipelined);
    const auto report = oc::run_cluster(q * q * d, [&](oc::Context& ctx) {
      om::Mesh2D mesh(ctx.world, d);
      DTensor A = DTensor::zeros(Shape{nb, nb});
      DTensor B = DTensor::zeros(Shape{nb, nb});
      DTensor C = DTensor::zeros(Shape{nb, nb});
      os::summa_ab(mesh, A, B, C);
    });
    return report.max_sim_time();
  };
  const double blocking = run_mode(false);
  const double pipelined = run_mode(true);
  const oc::Topology topo(q * q * d, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
  const oc::CostModel cost(topo, oc::MachineParams{});
  const auto pred = opm::predict_summa_ab_times(cost, q, 96, 96, 96, sizeof(double), d);
  EXPECT_NEAR(blocking, pred.blocking_s, 1e-9 * pred.blocking_s);
  EXPECT_NEAR(pipelined, pred.pipelined_s, 1e-9 * pred.pipelined_s);
  EXPECT_LT(pipelined, blocking);
}

TEST(SummaPipeline, SimTimeMatchesOverlapPredictorAndBeatsBlocking) {
  // The simulator's clock under each schedule must reproduce the closed-form
  // predictor exactly, and the pipelined schedule must hide at least 25% of
  // the blocking step time at q = 2 and q = 4 (comm-bound Table-1 regime).
  namespace opm = optimus::perfmodel;
  for (int q : {2, 4}) {
    const ot::index_t nb = 96 / q;  // 96×96×96 global product
    const auto run_mode = [&](bool pipelined) {
      os::PipelineGuard guard(pipelined);
      const auto report = oc::run_cluster(q * q, [&](oc::Context& ctx) {
        om::Mesh2D mesh(ctx.world);
        DTensor A = DTensor::zeros(Shape{nb, nb});
        DTensor B = DTensor::zeros(Shape{nb, nb});
        DTensor C = DTensor::zeros(Shape{nb, nb});
        os::summa_ab(mesh, A, B, C);
      });
      return report.max_sim_time();
    };
    const double blocking = run_mode(false);
    const double pipelined = run_mode(true);
    const oc::Topology topo(q * q, /*gpus_per_node=*/4, oc::Arrangement::kBunched, 0);
    const oc::CostModel cost(topo, oc::MachineParams{});
    const auto pred = opm::predict_summa_ab_times(cost, q, 96, 96, 96, sizeof(double));
    EXPECT_NEAR(blocking, pred.blocking_s, 1e-9 * pred.blocking_s) << "q=" << q;
    EXPECT_NEAR(pipelined, pred.pipelined_s, 1e-9 * pred.pipelined_s) << "q=" << q;
    EXPECT_LE(pipelined, 0.75 * blocking) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Reduce-form clock pins: exact simulated time and rank-0 utilization of
// summa_abt / summa_atb under both schedules, on 2D and 2.5D meshes
// ---------------------------------------------------------------------------

namespace {

struct ReduceClockPin {
  const char* form;  // "abt" or "atb"
  bool pipelined;
  int q, d;
  double max_sim, compute, align_wait, transfer, idle;
};

// Exact values: any change to the reduce forms' schedule — collective order,
// the retire order of the reduces, or which side of a clock alignment a
// capture drains on — must show up here bit-for-bit, so never regenerate
// them to make a refactor pass. Block shapes: A [96, 48]; B [100, 48] for abt
// (C [96, 100]) and [96, 100] for atb (C [48, 100]). At q = 3 the abt C
// partial crosses the chunked-tree cutoff.
constexpr ReduceClockPin kReduceClockPins[] = {
    {"abt", false, 2, 1, 0x1.b21d234562317p-14,
     0x1.eec7bd512b572p-22, 0x0p+0, 0x1.b02e5b8811062p-14, 0x0p+0},
    {"abt", true, 2, 1, 0x1.4d27be19878edp-14,
     0x1.eec7bd512b572p-22, 0x1.4b38f65c36638p-14, 0x0p+0, 0x0p+0},
    {"abt", false, 3, 1, 0x1.589353aa2d2cfp-10,
     0x1.7315cdfce0816p-21, 0x1.87699646a8dcp-11, 0x1.ed4009db4b14ep-12, 0x0p+0},
    {"abt", true, 3, 1, 0x1.08add56415c14p-10,
     0x1.7315cdfce0816p-21, 0x1.de3e9ea81f8efp-11, 0x0p+0, 0x0p+0},
    {"abt", false, 2, 2, 0x1.4accbaaacca2p-11,
     0x1.eec7bd512b572p-23, 0x1.16ab682329fbbp-11, 0x1.a013305e6c9cep-14, 0x0p+0},
    {"abt", true, 2, 2, 0x1.3f3f36f5d61dap-11,
     0x1.eec7bd512b572p-23, 0x1.3f204a7a010aep-11, 0x0p+0, 0x0p+0},
    {"atb", false, 2, 1, 0x1.909cf273e3423p-14,
     0x1.eec7bd512b572p-22, 0x0p+0, 0x1.8eae2ab69216ep-14, 0x0p+0},
    {"atb", true, 2, 1, 0x1.2c4c7a8723aep-14,
     0x1.eec7bd512b572p-22, 0x1.2a5db2c9d282bp-14, 0x0p+0, 0x0p+0},
    {"atb", false, 3, 1, 0x1.2ec14307bad52p-10,
     0x1.7315cdfce0816p-21, 0x1.1272cb03060a6p-11, 0x1.d41fe53e2be17p-12, 0x0p+0},
    {"atb", true, 3, 1, 0x1.f57a4a5bdf481p-11,
     0x1.7315cdfce0816p-21, 0x1.a668f7f5a155ap-12, 0x0p+0, 0x0p+0},
    {"atb", false, 2, 2, 0x1.8baff1d6b9b91p-12,
     0x1.eec7bd512b572p-23, 0x1.2ba41dac0d64ap-12, 0x1.7f37eccc08bc2p-14, 0x0p+0},
    {"atb", true, 2, 2, 0x1.74a98814b0121p-12,
     0x1.eec7bd512b572p-23, 0x1.746baf1d05ecap-12, 0x0p+0, 0x0p+0},
};

}  // namespace

TEST(SummaReduceForms, SimClockAndUtilizationArePinned) {
  for (const ReduceClockPin& pin : kReduceClockPins) {
    const bool abt = std::string(pin.form) == "abt";
    os::PipelineGuard guard(pin.pipelined);
    const auto report = oc::run_cluster(pin.q * pin.q * pin.d, [&](oc::Context& ctx) {
      om::Mesh2D mesh(ctx.world, pin.d);
      DTensor A = DTensor::zeros(Shape{96, 48});
      DTensor B = DTensor::zeros(abt ? Shape{100, 48} : Shape{96, 100});
      DTensor C = DTensor::zeros(abt ? Shape{96, 100} : Shape{48, 100});
      ot::Arena ws("ws", os::workspace_bytes(A.numel(), B.numel(), C.numel(), sizeof(double),
                                             pin.d));
      if (abt) {
        os::summa_abt(mesh, A, B, C, /*accumulate=*/true, &ws);
      } else {
        os::summa_atb(mesh, A, B, C, /*accumulate=*/true, &ws);
      }
    });
    const auto& u = report.ranks[0].util;
    const std::pair<double, double> fields[] = {{report.max_sim_time(), pin.max_sim},
                                                {u.compute, pin.compute},
                                                {u.align_wait, pin.align_wait},
                                                {u.transfer, pin.transfer},
                                                {u.idle, pin.idle}};
    const char* names[] = {"max_sim", "compute", "align_wait", "transfer", "idle"};
    for (int f = 0; f < 5; ++f) {
      EXPECT_EQ(fields[f].first, fields[f].second)
          << pin.form << (pin.pipelined ? " pipelined" : " blocking") << " q=" << pin.q
          << " d=" << pin.d << " " << names[f] << " measured " << std::hexfloat
          << fields[f].first;
    }
  }
}
