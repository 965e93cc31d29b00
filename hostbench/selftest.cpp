// Self-test of the host-cost benchmark: the workloads compute what they claim
// (the three training engines agree, 2D decode matches the serial oracle),
// the seed drives the inputs, and the order statistics and self-time
// attribution are right. test_hostbench.py runs it.
//
//   .bench_build/host_bench_selftest      (exit 0 = all pass)

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "model/serial_model.hpp"
#include "probes.hpp"
#include "serving/serving.hpp"
#include "testing/equivalence.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond, what)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::ostringstream os_;                                           \
      os_ << what;                                                      \
      std::printf("  FAIL %s:%d: %s\n", __FILE__, __LINE__, os_.str().c_str()); \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

void training_engines_agree() {
  // Tolerance the differential harness documents for an f32 model this deep.
  optimus::testing::FuzzConfig fc;
  fc.dtype = optimus::testing::Dtype::kF32;
  fc.layers = hostbench::train_config().layers;
  const auto tol = optimus::testing::tolerance_for(fc);
  constexpr int kSteps = 3;
  const auto serial = hostbench::train_losses("train_serial", 7, kSteps);
  EXPECT(serial.size() == kSteps, "serial ran " << serial.size() << " steps");
  for (const char* w : {"train_2d", "train_1d"}) {
    const auto losses = hostbench::train_losses(w, 7, kSteps);
    EXPECT(losses.size() == serial.size(), w << " ran " << losses.size() << " steps");
    for (std::size_t i = 0; i < losses.size() && i < serial.size(); ++i) {
      const auto a = static_cast<float>(losses[i]);
      const auto b = static_cast<float>(serial[i]);
      EXPECT(std::isfinite(losses[i]) && tol.within(a, b),
             w << " step " << i << " loss " << losses[i] << " vs serial " << serial[i] << " ("
               << optimus::testing::ulp_distance(a, b) << " ULPs)");
    }
  }
  const auto again = hostbench::train_losses("train_2d", 7, kSteps);
  EXPECT(again == hostbench::train_losses("train_2d", 7, kSteps),
         "train_2d losses differ between runs of one seed");
  EXPECT(again != hostbench::train_losses("train_2d", 8, kSteps),
         "train_2d losses do not depend on the seed");
}

void decode_matches_serial() {
  const auto reqs = hostbench::session_requests(7, 1, 24, 0.0);
  const auto optimus = hostbench::serve_optimus(reqs);
  const auto cfg = hostbench::serve_config();
  optimus::model::SerialTransformer<float> model(cfg);
  optimus::serving::SerialDecodeEngine<float> engine(model, cfg.batch);
  double t = 0;
  const auto serial = optimus::serving::run_serving<float>(
      engine, reqs, [&] { return t; }, [&](double when) { t = when; });
  EXPECT(optimus.size() == reqs.size(), "optimus completed " << optimus.size() << " of "
                                                             << reqs.size());
  EXPECT(serial.completed.size() == reqs.size(), "serial completed " << serial.completed.size());
  std::map<int, std::vector<std::int32_t>> want;
  for (const auto& r : serial.completed) want[r.id] = r.generated;
  for (const auto& r : optimus) {
    EXPECT(r.generated.size() == r.max_new_tokens, "request " << r.id << " generated "
                                                              << r.generated.size());
    EXPECT(want[r.id] == r.generated, "request " << r.id << " tokens differ from serial");
  }
}

void seed_changes_inputs() {
  const auto a = hostbench::session_requests(1, 1, 50, 0.0);
  const auto b = hostbench::session_requests(2, 1, 50, 0.0);
  const auto a2 = hostbench::session_requests(1, 1, 50, 0.0);
  bool same_ab = true, same_aa = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same_ab = same_ab && a[i].prompt == b[i].prompt && a[i].arrival == b[i].arrival;
    same_aa = same_aa && a[i].prompt == a2[i].prompt && a[i].arrival == a2[i].arrival &&
              a[i].max_new_tokens == a2[i].max_new_tokens;
  }
  EXPECT(!same_ab, "seeds 1 and 2 give the same requests");
  EXPECT(same_aa, "seed 1 gives different requests on two calls");
  const auto shifted = hostbench::session_requests(1, 1, 50, 5.0);
  EXPECT(shifted.front().arrival == a.front().arrival + 5.0, "t0 does not shift arrivals");
}

void tail_picks_highest_supported_percentile() {
  std::vector<double> v(150);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  auto t = hostbench::tail_of(v);
  EXPECT(t.percentile == 90 && t.value == 135 && t.beyond == 15,
         "150 samples: p" << t.percentile << " = " << t.value << ", " << t.beyond << " beyond");
  v.resize(2000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  t = hostbench::tail_of(v);
  EXPECT(t.percentile == 99 && t.value == 1980 && t.beyond == 20,
         "2000 samples: p" << t.percentile << " = " << t.value);
  t = hostbench::tail_of({3, 1, 2});
  EXPECT(t.percentile == 50 && t.value == 2, "3 samples: p" << t.percentile << " = " << t.value);
  EXPECT(hostbench::median({4, 1, 3, 2}) == 2.5, "median of 1..4");
}

void windowed_tail_ignores_a_slow_stretch_but_not_slow_steps() {
  // 200 samples: p90 over the run; windows of 20.
  std::vector<double> v(200, 1.0);
  for (std::size_t i = 60; i < 90; ++i) v[i] = 50;  // a slow stretch of 30 samples
  auto t = hostbench::windowed_tail(v, 10, 20);
  EXPECT(t.percentile == 90 && t.value == 1 && t.windows == 10,
         "slow stretch: p" << t.percentile << " = " << t.value);
  t = hostbench::windowed_tail(v, 10, 21);  // windows of >= 21: 9 windows of 22
  EXPECT(t.value == 1 && t.windows == 9, t.windows << " windows: " << t.value);
  t = hostbench::windowed_tail(v, 10, 101);  // one window: the whole run
  EXPECT(t.value == 50 && t.windows == 1, t.windows << " window: " << t.value);
  for (std::size_t i = 4; i < v.size(); i += 5) v[i] = 11;  // every fifth step slow
  t = hostbench::windowed_tail(v, 10, 20);
  EXPECT(t.value == 11, "every fifth step slow: " << t.value);
}

void self_time_subtracts_direct_children() {
  using optimus::obs::SpanRecord;
  const auto span = [](const char* cat, int depth, std::uint64_t b, std::uint64_t e) {
    SpanRecord s;
    s.cat = cat;
    s.name = "x";
    s.rank = 0;
    s.depth = depth;
    s.wall_begin_ns = b;
    s.wall_end_ns = e;
    return s;
  };
  // step [0,100) > core [10,90) > comm [20,30), kernel [40,70) > (nested) comm [50,60)
  std::vector<SpanRecord> spans = {
      span("hostbench", 1, 0, 100), span("core", 2, 10, 90),  span("comm", 3, 20, 30),
      span("kernel", 3, 40, 70),    span("comm", 4, 50, 60),  span("core", 2, 95, 99)};
  spans.push_back(span("comm", 1, 0, 1000));
  spans.back().rank = 1;  // another rank's track is ignored
  hostbench::SelfTimes st;
  st.add(spans, 0);
  const auto ns = [](double s) { return static_cast<long>(s * 1e9 + 0.5); };
  EXPECT(ns(st.self("hostbench")) == 16, "step self " << ns(st.self("hostbench")));
  EXPECT(ns(st.self("core")) == 40 + 4, "core self " << ns(st.self("core")));
  EXPECT(ns(st.self("comm")) == 20, "comm self " << ns(st.self("comm")));
  EXPECT(ns(st.self("kernel")) == 20, "kernel self " << ns(st.self("kernel")));
  EXPECT(ns(st.total("hostbench")) == 100, "step total " << ns(st.total("hostbench")));
  EXPECT(st.count("comm/x") == 2, "comm spans " << st.count("comm/x"));
}

}  // namespace

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"training_engines_agree", training_engines_agree},
      {"decode_matches_serial", decode_matches_serial},
      {"seed_changes_inputs", seed_changes_inputs},
      {"tail_picks_highest_supported_percentile", tail_picks_highest_supported_percentile},
      {"windowed_tail_ignores_a_slow_stretch_but_not_slow_steps",
       windowed_tail_ignores_a_slow_stretch_but_not_slow_steps},
      {"self_time_subtracts_direct_children", self_time_subtracts_direct_children},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    try {
      fn();
    } catch (const std::exception& e) {
      std::printf("  FAIL: threw %s\n", e.what());
      ++g_failures;
    }
    std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", name);
  }
  return g_failures == 0 ? 0 : 1;
}
