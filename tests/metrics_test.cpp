// Tests for the metrics registry (obs/metrics) and the fault flight recorder
// (obs/flight): histogram quantile accuracy against a sorted-vector oracle,
// merge order-independence down to the serialized bytes, registry handle
// stability across reset, flight-ring truncation, and the per-rank
// utilization breakdown partitioning simulated time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/mesh.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "summa/summa.hpp"

namespace ob = optimus::obs;
namespace oc = optimus::comm;
namespace om = optimus::mesh;
namespace os = optimus::summa;
using optimus::tensor::DTensor;
using optimus::tensor::Shape;

namespace {

/// Deterministic value stream (no <random> — bucketing must see the same
/// doubles on every platform).
std::vector<double> lcg_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> v;
  v.reserve(n);
  std::uint64_t x = seed;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Spread over ~6 orders of magnitude: 1e-4 .. ~1e2.
    const double u = static_cast<double>(x >> 11) / 9007199254740992.0;  // [0,1)
    v.push_back(1e-4 * std::pow(10.0, 6.0 * u));
  }
  return v;
}

/// The convention the serving layer uses: sorted[⌈p·n⌉ − 1].
double oracle_quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))) - (p > 0 ? 1 : 0));
  return v[idx];
}

struct MetricsGuard {
  MetricsGuard() {
    ob::set_metrics_enabled(false);
    ob::metrics_reset();
  }
  ~MetricsGuard() {
    ob::set_metrics_enabled(false);
    ob::metrics_reset();
  }
};

struct FlightGuard {
  FlightGuard() {
    ob::set_flight_enabled(false);
    ob::flight_reset();
    ob::flight_configure(128);
    ob::flight_set_postmortem_prefix("");
  }
  ~FlightGuard() {
    ob::set_flight_enabled(false);
    ob::flight_reset();
    ob::flight_configure(128);
    ob::flight_set_postmortem_prefix("");
  }
};

}  // namespace

TEST(Histogram, QuantilesMatchSortedOracleWithinBucketError) {
  ob::Histogram h;
  const auto values = lcg_values(5000, 99);
  for (const double v : values) h.record(v);
  ASSERT_EQ(h.count(), values.size());
  // The representative is the containing bucket's lower bound, so it can sit
  // below the exact quantile by at most one sub-bucket width: 2^(1/16) − 1.
  const double kRel = std::pow(2.0, 1.0 / 16.0) - 1.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = oracle_quantile(values, p);
    const double approx = h.quantile(p);
    EXPECT_LE(approx, exact * (1 + 1e-12)) << "p=" << p;
    EXPECT_GE(approx, exact * (1 - kRel) * (1 - 1e-12)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), *std::min_element(values.begin(), values.end()));
  // p = 1 selects the max's bucket; the representative is its lower bound.
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(1.0), h.max() * (1 - kRel) * (1 - 1e-12));
}

TEST(Histogram, EmptyAndSingleSampleEdges) {
  ob::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(3.25);
  EXPECT_EQ(h.count(), 1u);
  // Clamping to [min, max] makes the single-sample case exact.
  for (const double p : {0.0, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(p), 3.25);
  // Zero and negative values land in the underflow bucket, representative 0
  // (its lower bound, already inside [min, max] here so no clamping).
  ob::Histogram z;
  z.record(0.0);
  z.record(-7.0);
  EXPECT_EQ(z.count(), 2u);
  EXPECT_DOUBLE_EQ(z.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(z.min(), -7.0);
}

TEST(Histogram, MergeIsOrderIndependentDownToBytes) {
  const auto a_vals = lcg_values(700, 1);
  const auto b_vals = lcg_values(900, 2);
  const auto c_vals = lcg_values(300, 3);
  const auto fill = [](ob::Histogram& h, const std::vector<double>& vs) {
    for (const double v : vs) h.record(v);
  };
  // (a ⊕ b) ⊕ c
  ob::Histogram abc;
  {
    ob::Histogram a, b, c;
    fill(a, a_vals);
    fill(b, b_vals);
    fill(c, c_vals);
    abc.merge(a);
    abc.merge(b);
    abc.merge(c);
  }
  // c ⊕ (b ⊕ a)
  ob::Histogram cba;
  {
    ob::Histogram a, b, c;
    fill(a, a_vals);
    fill(b, b_vals);
    fill(c, c_vals);
    cba.merge(c);
    cba.merge(b);
    cba.merge(a);
  }
  // Everything recorded into one histogram directly.
  ob::Histogram direct;
  fill(direct, a_vals);
  fill(direct, b_vals);
  fill(direct, c_vals);
  EXPECT_EQ(abc.to_json().dump(), cba.to_json().dump());
  EXPECT_EQ(abc.to_json().dump(), direct.to_json().dump());
}

TEST(Metrics, DisabledSitesRecordNothing) {
  MetricsGuard guard;
  ASSERT_FALSE(ob::metrics_enabled());
  ob::metrics_count("test.counter", 5);
  ob::metrics_observe("test.hist", 1.0);
  ob::metrics_gauge_max("test.gauge", 9.0);
  EXPECT_EQ(ob::MetricsRegistry::instance().counter("test.counter").value(), 0u);
  EXPECT_EQ(ob::MetricsRegistry::instance().histogram("test.hist").count(), 0u);
  EXPECT_EQ(ob::MetricsRegistry::instance().gauge("test.gauge").value(), 0.0);
}

TEST(Metrics, ResetZeroesInPlaceAndHandlesStayValid) {
  MetricsGuard guard;
  ob::set_metrics_enabled(true);
  auto& c = ob::MetricsRegistry::instance().counter("test.stable");
  c.add(41);
  ob::metrics_reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  EXPECT_EQ(&c, &ob::MetricsRegistry::instance().counter("test.stable"));
  c.add(1);
  EXPECT_EQ(ob::MetricsRegistry::instance().counter("test.stable").value(), 1u);
}

TEST(Metrics, SnapshotIsNameSortedAndTyped) {
  MetricsGuard guard;
  ob::set_metrics_enabled(true);
  ob::metrics_count("zz.counter");
  ob::metrics_observe("aa.hist", 2.0);
  ob::metrics_gauge_set("mm.gauge", 7.5);
  const ob::Json snap = ob::metrics_snapshot_json();
  ASSERT_TRUE(snap.is_object());
  // Registry entries persist across resets (handles stay valid), so other
  // tests' metrics may appear too — require a name-sorted snapshot containing
  // ours with the right types and values.
  for (std::size_t i = 1; i < snap.fields().size(); ++i) {
    EXPECT_LT(snap.fields()[i - 1].first, snap.fields()[i].first);
  }
  EXPECT_EQ(snap.get("zz.counter").get("type").as_string(), "counter");
  EXPECT_EQ(snap.get("zz.counter").get("value").as_number(), 1.0);
  EXPECT_EQ(snap.get("mm.gauge").get("value").as_number(), 7.5);
  EXPECT_EQ(snap.get("aa.hist").get("type").as_string(), "histogram");
}

TEST(Flight, RingTruncatesButSequenceNumbersStayMonotone) {
  FlightGuard guard;
  ob::set_flight_enabled(true);
  ob::flight_configure(4);
  for (int i = 0; i < 10; ++i) {
    ob::flight_note("test", "ev" + std::to_string(i), static_cast<double>(i), "");
  }
  const ob::Json j = ob::flight_rank_json();
  EXPECT_EQ(j.get("events_seen").as_number(), 10.0);
  const auto& events = j.get("events").items();
  ASSERT_EQ(events.size(), 4u);  // ring kept only the newest 4
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].get("name").as_string(), "ev" + std::to_string(6 + i));
    EXPECT_EQ(events[i].get("seq").as_number(), static_cast<double>(6 + i));
  }
}

TEST(Flight, FirstAbortNoteWins) {
  FlightGuard guard;
  ob::set_flight_enabled(true);
  ob::flight_note_abort("allreduce");
  ob::flight_note_abort("broadcast");
  EXPECT_EQ(ob::flight_rank_json().get("abort_op").as_string(), "allreduce");
  ob::flight_reset();
  EXPECT_EQ(ob::flight_rank_json().get("abort_op").as_string(), "");
}

TEST(Flight, DisabledNotesAreDropped) {
  FlightGuard guard;
  ASSERT_FALSE(ob::flight_enabled());
  ob::flight_note("test", "ev", 0.0, "");
  EXPECT_EQ(ob::flight_rank_json().get("events_seen").as_number(), 0.0);
}

TEST(Utilization, BucketsPartitionSimulatedTimePerRank) {
  // A mixed collective workload: broadcasts (transfer + align) with idle gaps.
  const auto broadcasts = oc::run_cluster(4, [](oc::Context& ctx) {
    std::vector<float> buf(1024, ctx.rank == 0 ? 1.f : 0.f);
    for (int i = 0; i < 8; ++i) {
      ctx.world.broadcast(buf.data(), static_cast<optimus::tensor::index_t>(buf.size()), 0);
      if (ctx.rank == 0) ctx.clock.advance(1e-5);  // rank-0 idle stall
      ctx.world.barrier();
    }
  });
  // Pipelined summa_ab on a q = 2 mesh of depth d: its waits on in-flight
  // broadcasts and (at d = 2) the depth reduce must be charged exactly once.
  const auto pipelined_summa_ab = [](int d) {
    os::PipelineGuard guard(true);
    return oc::run_cluster(4 * d, [d](oc::Context& ctx) {
      om::Mesh2D mesh(ctx.world, d);
      DTensor a = DTensor::zeros(Shape{24, 24});
      DTensor b = DTensor::zeros(Shape{24, 24});
      DTensor c = DTensor::zeros(Shape{24, 24});
      os::summa_ab(mesh, a, b, c);
    });
  };
  const std::pair<const char*, oc::Cluster::Report> inputs[] = {
      {"broadcast", broadcasts},
      {"pipelined summa_ab q=2", pipelined_summa_ab(1)},
      {"2.5D summa_ab q=2 d=2", pipelined_summa_ab(2)},
  };
  ASSERT_EQ(broadcasts.ranks.size(), 4u);
  for (const auto& [name, report] : inputs) {
    for (std::size_t rank = 0; rank < report.ranks.size(); ++rank) {
      const auto& rr = report.ranks[rank];
      const auto& u = rr.util;
      const double accounted = u.compute + u.align_wait + u.transfer + u.idle;
      EXPECT_GT(rr.sim_time, 0.0) << name;
      EXPECT_NEAR(accounted, rr.sim_time, 1e-9 * rr.sim_time + 1e-15)
          << name << ": rank " << rank << " breakdown does not partition its timeline";
      EXPECT_GE(u.align_wait, 0.0) << name;
    }
  }
  // Every rank moved broadcast bytes. (The pipelined waits still charge their
  // wire time to align_wait, so only the blocking input is checked here.)
  for (const auto& rr : broadcasts.ranks) EXPECT_GT(rr.util.transfer, 0.0);
  // The injected stall is idle time on rank 0 and align-wait on its peers.
  EXPECT_GE(broadcasts.ranks[0].util.idle, 8e-5 * (1 - 1e-9));
  EXPECT_GT(broadcasts.ranks[1].util.align_wait, 0.0);
}
