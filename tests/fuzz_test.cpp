// The differential fuzz harness's own invariants, plus a small smoke sweep.
//
// The heavyweight sweeps live in tools/fuzz_equivalence (wired into
// scripts/check.sh); these tests pin the harness machinery itself: config
// strings round-trip, sampled configs are always valid, shrink candidates
// are valid and strictly smaller, ULP comparison semantics, and a seeded
// 8-config differential smoke run (serial vs 2D vs 1D, checkpoint
// round-trips, finite-difference oracle check), plus regression configs
// replayed from past sweep failures.

#include <gtest/gtest.h>

#include <random>

#include "test_helpers.hpp"
#include "testing/equivalence.hpp"
#include "testing/fuzz_config.hpp"
#include "testing/ulp.hpp"
#include "testing/watchdog.hpp"
#include "util/check.hpp"

namespace ots = optimus::testing;

TEST(Ulp, DistanceAndToleranceSemantics) {
  EXPECT_EQ(ots::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ots::ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ots::ulp_distance(0.0, -0.0), 1u);  // adjacent keys across zero
  EXPECT_EQ(ots::ulp_distance(1.0f, std::nextafterf(std::nextafterf(1.0f, 2.0f), 2.0f)), 2u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ots::ulp_distance(nan, 1.0), std::numeric_limits<std::uint64_t>::max());

  ots::Tolerance tol{4, 1e-9};
  EXPECT_TRUE(tol.within(1.0, std::nextafter(1.0, 2.0)));
  EXPECT_TRUE(tol.within(1e-10, -1e-10));  // huge ULP distance, under atol
  EXPECT_FALSE(tol.within(1.0, 1.0 + 1e-6));
}

TEST(FuzzConfig, StringRoundTripIsIdentity) {
  const std::uint64_t seed = ots::test_seed(17);
  OPTIMUS_SEED_TRACE(seed);
  std::mt19937 gen(static_cast<std::mt19937::result_type>(seed));
  for (int n = 0; n < 50; ++n) {
    const ots::FuzzConfig fc = ots::FuzzConfig::sample(gen);
    EXPECT_EQ(ots::FuzzConfig::parse(fc.to_string()).to_string(), fc.to_string());
  }
}

TEST(FuzzConfig, SampledConfigsAreAlwaysValid) {
  const std::uint64_t seed = ots::test_seed(18);
  OPTIMUS_SEED_TRACE(seed);
  std::mt19937 gen(static_cast<std::mt19937::result_type>(seed));
  for (int n = 0; n < 200; ++n) {
    EXPECT_NO_THROW(ots::FuzzConfig::sample(gen).validate());
  }
}

TEST(FuzzConfig, ParseRejectsUnknownKeysAndBadShapes) {
  EXPECT_THROW(ots::FuzzConfig::parse("q=2,bogus=1"), optimus::util::CheckError);
  // heads not divisible by q.
  EXPECT_THROW(ots::FuzzConfig::parse("q=2,heads=3,hd=2,b=2,v=12"), optimus::util::CheckError);
  // Pooled buffers without checkpointing violate the engine precondition.
  EXPECT_THROW(ots::FuzzConfig::parse("q=1,ckpt2d=0,buf=pool"), optimus::util::CheckError);
  // Depth constraints: hidden (= heads·hd) must split q·d ways.
  EXPECT_THROW(ots::FuzzConfig::parse("q=2,d=2,heads=2,hd=3,b=2,v=12"),
               optimus::util::CheckError);
  EXPECT_THROW(ots::FuzzConfig::parse("q=1,d=5"), optimus::util::CheckError);
}

TEST(FuzzConfig, DepthKeyRoundTripsAndDefaultsToOne) {
  // Repro strings from the pre-depth corpus carry no d= key and must keep
  // parsing as 2D meshes; explicit depth survives the round trip.
  const ots::FuzzConfig legacy = ots::FuzzConfig::parse("q=2,heads=2,hd=2,b=2,s=2,v=12");
  EXPECT_EQ(legacy.depth, 1);
  const ots::FuzzConfig deep = ots::FuzzConfig::parse("q=2,d=2,heads=2,hd=2,b=2,s=2,v=12");
  EXPECT_EQ(deep.depth, 2);
  EXPECT_EQ(ots::FuzzConfig::parse(deep.to_string()).depth, 2);
  EXPECT_NE(deep.to_string().find("d=2"), std::string::npos);
}

TEST(FuzzConfig, ShrinkCandidatesAreValidAndSmaller) {
  const std::uint64_t seed = ots::test_seed(19);
  OPTIMUS_SEED_TRACE(seed);
  std::mt19937 gen(static_cast<std::mt19937::result_type>(seed));
  for (int n = 0; n < 30; ++n) {
    const ots::FuzzConfig fc = ots::FuzzConfig::sample(gen);
    // Every shrink candidate strictly decreases this measure: size fields
    // dominate, checkpoint flags outweigh the buffer knob (turning ckpt off
    // forces pooled → heap, which alone would count +1), heap counts above
    // pool (pooled is the canonical default).
    const auto cost = [](const ots::FuzzConfig& c) {
      const std::int64_t size = c.layers + c.q + c.depth + c.mp + c.batch + c.seq + c.heads +
                                c.head_dim + c.mlp_ratio + c.vocab + c.threads;
      return 100 * size + 3 * ((c.ckpt_2d ? 1 : 0) + (c.ckpt_1d ? 1 : 0)) +
             (c.pooled_buffers ? 0 : 1) + (c.pipeline_2d ? 0 : 1);
    };
    for (const ots::FuzzConfig& cand : fc.shrink_candidates()) {
      EXPECT_NO_THROW(cand.validate()) << cand.to_string();
      EXPECT_LT(cost(cand), cost(fc)) << "shrink did not reduce: " << cand.to_string();
    }
  }
}

TEST(FuzzSmoke, EightSampledConfigsMatchAcrossEngines) {
  ots::Watchdog wd("fuzz smoke test", std::chrono::seconds(300));
  const std::uint64_t seed = ots::test_seed(4242);
  OPTIMUS_SEED_TRACE(seed);
  std::mt19937 gen(static_cast<std::mt19937::result_type>(seed));
  ots::EquivalenceOptions opts;
  opts.gradcheck_coords = 2;
  for (int n = 0; n < 8; ++n) {
    const ots::FuzzConfig fc = ots::FuzzConfig::sample(gen);
    const ots::EquivalenceResult res = ots::run_equivalence(fc, opts);
    EXPECT_TRUE(res.pass()) << ots::summarize(res);
  }
}

TEST(FuzzRegression, DecodeMatchesPrefillOnceSplitByGemmShape) {
  // Sampled configs whose f32 decode replay once missed its prefill by
  // thousands of ULPs: small decode GEMMs (m = b) and large prefill GEMMs
  // (m = b·s) ran different kernels that rounded differently. With one
  // k-order GEMM for every shape both must pass, decode bitwise equal to
  // each engine's own prefill.
  ots::Watchdog wd("fuzz regression test", std::chrono::seconds(300));
  const char* repros[] = {
      "q=4,d=1,mp=1,b=8,s=5,heads=12,hd=5,v=36,layers=2,mlp=2,dtype=f32,threads=1,ckpt2d=0,"
      "ckpt1d=0,buf=heap,pipe=1,lr=0.1,pseed=195344342,dseed=1101366717",
      "q=3,d=1,mp=1,b=3,s=3,heads=9,hd=4,v=12,layers=3,mlp=4,dtype=f32,threads=4,ckpt2d=1,"
      "ckpt1d=1,buf=heap,pipe=1,lr=0.05,pseed=2054437078,dseed=1379344060",
  };
  ots::EquivalenceOptions opts;
  opts.fault_replay = true;
  for (const char* repro : repros) {
    const ots::EquivalenceResult res = ots::run_equivalence(ots::FuzzConfig::parse(repro), opts);
    EXPECT_TRUE(res.pass()) << ots::summarize(res) << "\n"
                            << (res.failures.empty() ? "" : res.failures.front());
  }
}
