// Chrome-trace / metrics-JSON validator for scripts/check.sh and manual use.
//
//   ./trace_validate trace.json [more.json ...]
//   ./trace_validate --metrics metrics.json [more.json ...]
//
// Trace mode parses each file and checks the invariants the tracer promises:
//   * well-formed JSON with a traceEvents array of "X" (and "M") events;
//   * numeric pid/tid/ts, non-negative dur;
//   * per-(pid, tid) track, timestamps monotone in file order;
//   * spans nest properly — no partially-overlapping siblings on a track;
//   * request lanes: every "request" span sits inside a "lifecycle" span on
//     its lane (orphan spans fail), lifecycles are top-level.
// Metrics mode checks the schema written by comm::write_metrics:
//   * world_size matches the ranks array length;
//   * every rank carries a utilization breakdown whose fractions lie in
//     [0, 1] and sum to ~1, and whose accounted_s matches sim_time_s;
//   * the optional "metrics" registry section has well-formed counter /
//     gauge / histogram entries (histogram quantiles ordered, count matches
//     bucket totals).
// Exits 0 and prints a one-line summary per file on success; exits 1 with
// the first violation otherwise, 2 on usage errors (an unknown flag among
// them); --help prints the usage and exits 0.

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace {

using optimus::obs::Json;

struct MetricsCheck {
  bool ok = true;
  std::string error;
  int ranks = 0;
  int registry_entries = 0;
};

#define MV_FAIL(msg)                  \
  do {                                \
    std::ostringstream os_;           \
    os_ << msg; /* NOLINT */          \
    out.ok = false;                   \
    out.error = os_.str();            \
    return out;                       \
  } while (0)

bool finite_number(const Json& j) { return j.is_number() && std::isfinite(j.as_number()); }

MetricsCheck validate_metrics(const Json& doc) {
  MetricsCheck out;
  if (!doc.is_object()) MV_FAIL("top level is not an object");
  if (!doc.has("world_size") || !finite_number(doc.get("world_size")))
    MV_FAIL("missing numeric world_size");
  const int world = static_cast<int>(doc.get("world_size").as_number());
  if (!doc.has("ranks") || !doc.get("ranks").is_array()) MV_FAIL("missing ranks array");
  const Json& ranks = doc.get("ranks");
  if (static_cast<int>(ranks.size()) != world)
    MV_FAIL("ranks array has " << ranks.size() << " entries, world_size " << world);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const Json& r = ranks.items()[i];
    if (!r.is_object()) MV_FAIL("rank " << i << " is not an object");
    for (const char* key : {"rank", "sim_time_s", "comm_time_s"}) {
      if (!r.has(key) || !finite_number(r.get(key)))
        MV_FAIL("rank " << i << " missing numeric " << key);
    }
    if (static_cast<int>(r.get("rank").as_number()) != static_cast<int>(i))
      MV_FAIL("rank entry " << i << " claims rank " << r.get("rank").as_number());
    if (!r.has("utilization") || !r.get("utilization").is_object())
      MV_FAIL("rank " << i << " missing utilization object");
    const Json& u = r.get("utilization");
    const double sim = r.get("sim_time_s").as_number();
    double frac_sum = 0;
    for (const char* base : {"compute", "align_wait", "transfer", "idle"}) {
      const std::string s_key = std::string(base) + "_s";
      const std::string f_key = std::string(base) + "_frac";
      if (!u.has(s_key) || !finite_number(u.get(s_key)))
        MV_FAIL("rank " << i << " utilization missing " << s_key);
      if (!u.has(f_key) || !finite_number(u.get(f_key)))
        MV_FAIL("rank " << i << " utilization missing " << f_key);
      const double f = u.get(f_key).as_number();
      if (f < -1e-9 || f > 1.0 + 1e-9)
        MV_FAIL("rank " << i << " " << f_key << " out of [0,1]: " << f);
      frac_sum += f;
    }
    if (sim > 0 && std::abs(frac_sum - 1.0) > 1e-6)
      MV_FAIL("rank " << i << " utilization fractions sum to " << frac_sum << ", want 1");
    if (!u.has("accounted_s") || !finite_number(u.get("accounted_s")))
      MV_FAIL("rank " << i << " utilization missing accounted_s");
    const double acc = u.get("accounted_s").as_number();
    if (std::abs(acc - sim) > 1e-9 * std::max(1.0, std::abs(sim)))
      MV_FAIL("rank " << i << " accounted_s " << acc << " != sim_time_s " << sim);
  }
  out.ranks = world;
  if (doc.has("metrics")) {
    const Json& reg = doc.get("metrics");
    if (!reg.is_object()) MV_FAIL("metrics section is not an object");
    for (const auto& [name, m] : reg.fields()) {
      if (!m.is_object() || !m.has("type") || !m.get("type").is_string())
        MV_FAIL("metric " << name << " missing type");
      const std::string type = m.get("type").as_string();
      if (type == "counter" || type == "gauge") {
        if (!m.has("value") || !finite_number(m.get("value")))
          MV_FAIL(type << " " << name << " missing numeric value");
      } else if (type == "histogram") {
        for (const char* key : {"count", "min", "max", "p50", "p99", "p999"}) {
          if (!m.has(key) || !m.get(key).is_number())
            MV_FAIL("histogram " << name << " missing " << key);
        }
        const double count = m.get("count").as_number();
        if (count > 0) {
          const double p50 = m.get("p50").as_number();
          const double p99 = m.get("p99").as_number();
          const double p999 = m.get("p999").as_number();
          if (!(p50 <= p99 && p99 <= p999))
            MV_FAIL("histogram " << name << " quantiles not ordered");
        }
        if (!m.has("buckets") || !m.get("buckets").is_array())
          MV_FAIL("histogram " << name << " missing buckets array");
        double bucket_total = 0;
        const Json& buckets = m.get("buckets");
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          const Json& pair = buckets.items()[b];
          if (!pair.is_array() || pair.size() != 2)
            MV_FAIL("histogram " << name << " bucket " << b << " is not a pair");
          bucket_total += pair.items()[1].as_number();
        }
        if (bucket_total != count)
          MV_FAIL("histogram " << name << " bucket counts sum to " << bucket_total
                               << ", count says " << count);
      } else {
        MV_FAIL("metric " << name << " has unknown type " << type);
      }
      ++out.registry_entries;
    }
  }
  return out;
}

#undef MV_FAIL

bool load_json(const char* path, Json& doc) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << path << ": cannot open\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    doc = Json::parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << path << ": JSON parse failure: " << e.what() << "\n";
    return false;
  }
  return true;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const char* usage = "usage: trace_validate [--metrics] <file.json> [more.json ...]\n";
  bool metrics_mode = false;
  int first = 1;
  if (argc >= 2 && std::string(argv[1]) == "--metrics") {
    metrics_mode = true;
    first = 2;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help") throw optimus::util::CliHelp(usage);
    if (a.rfind("--", 0) == 0 && i >= first) {
      std::cerr << "error: unknown flag '" << a << "'\n" << usage;
      return 2;
    }
  }
  if (argc <= first) {
    std::cerr << usage;
    return 2;
  }
  bool ok = true;
  for (int i = first; i < argc; ++i) {
    Json doc;
    if (!load_json(argv[i], doc)) {
      ok = false;
      continue;
    }
    if (metrics_mode) {
      const MetricsCheck check = validate_metrics(doc);
      if (!check.ok) {
        std::cerr << argv[i] << ": INVALID: " << check.error << "\n";
        ok = false;
        continue;
      }
      std::cout << argv[i] << ": ok, " << check.ranks << " ranks, "
                << check.registry_entries << " registry metrics\n";
      continue;
    }
    const optimus::obs::TraceCheck check = optimus::obs::validate_chrome_trace(doc);
    if (!check.ok) {
      std::cerr << argv[i] << ": INVALID: " << check.error << "\n";
      ok = false;
      continue;
    }
    std::cout << argv[i] << ": ok, " << check.events << " events on " << check.tracks
              << " tracks, " << check.request_lanes << " request lanes\n";
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
