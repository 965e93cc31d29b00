// Benchmark regression gate for scripts/check.sh and manual use.
//
//   ./bench_gate <baseline.json> <fresh.json> [--tol 0.05] [--include-wall]
//
// Both files are BENCH_*.json arrays as written by bench::JsonWriter. Records
// are matched positionally within same-"name" groups (a bench emits its rows
// in a fixed order, but reordering whole sections must not break the gate).
// Every numeric field present in a baseline record must exist in the fresh
// record and agree within the symmetric relative tolerance
//   |a − b| / max(|a|, |b|) ≤ tol
// (absolute slack 1e-12 covers exact-zero fields). Fields that measure host
// wall time — "gflops" and "wall_ms" — are skipped unless --include-wall is
// given: they are machine-load noise, while everything else in these files
// derives from the deterministic simulated clock. Extra fields in the fresh
// file are allowed (schema growth); a fresh record or field missing for a
// baseline entry is a failure. Exits 0 when everything is within tolerance,
// 1 on any regression or shape mismatch, 2 on usage/parse errors (an unknown
// flag among them); --help prints the usage and exits 0.

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/cli.hpp"

namespace {

using optimus::obs::Json;

struct Record {
  std::string name;
  const Json* fields = nullptr;  // the record object
  int ordinal = 0;               // position within its name group
};

bool load_records(const char* path, std::vector<Record>& out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << path << ": cannot open\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  static std::vector<Json> docs;  // keep parsed docs alive for the Json* refs
  try {
    docs.push_back(Json::parse(buf.str()));
  } catch (const std::exception& e) {
    std::cerr << path << ": JSON parse failure: " << e.what() << "\n";
    return false;
  }
  const Json& doc = docs.back();
  if (!doc.is_array()) {
    std::cerr << path << ": top level is not an array\n";
    return false;
  }
  std::map<std::string, int> seen;
  for (const Json& rec : doc.items()) {
    if (!rec.is_object() || !rec.has("name") || !rec.get("name").is_string()) {
      std::cerr << path << ": record without a name field\n";
      return false;
    }
    Record r;
    r.name = rec.get("name").as_string();
    r.fields = &rec;
    r.ordinal = seen[r.name]++;
    out.push_back(r);
  }
  return true;
}

bool within_tol(double a, double b, double tol) {
  const double diff = std::abs(a - b);
  if (diff <= 1e-12) return true;
  return diff / std::max(std::abs(a), std::abs(b)) <= tol;
}

}  // namespace

static int run_main(int argc, char** argv) {
  const char* usage =
      "usage: bench_gate <baseline.json> <fresh.json> [--tol T] [--include-wall]\n";
  std::string baseline_path, fresh_path;
  double tol = 0.05;
  bool include_wall = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help") throw optimus::util::CliHelp(usage);
    if (a == "--tol" && i + 1 < argc) {
      tol = std::atof(argv[++i]);
    } else if (a == "--include-wall") {
      include_wall = true;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag '" << a << "'\n" << usage;
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = a;
    } else if (fresh_path.empty()) {
      fresh_path = a;
    } else {
      std::cerr << usage;
      return 2;
    }
  }
  if (fresh_path.empty() || tol <= 0) {
    std::cerr << usage;
    return 2;
  }

  std::vector<Record> base, fresh;
  if (!load_records(baseline_path.c_str(), base) || !load_records(fresh_path.c_str(), fresh)) {
    return 2;
  }

  // Index fresh records by (name, ordinal-within-name).
  std::map<std::pair<std::string, int>, const Json*> fresh_by_key;
  for (const Record& r : fresh) fresh_by_key[{r.name, r.ordinal}] = r.fields;

  int compared = 0, failures = 0;
  for (const Record& b : base) {
    const auto it = fresh_by_key.find({b.name, b.ordinal});
    if (it == fresh_by_key.end()) {
      std::cerr << "FAIL " << b.name << "[" << b.ordinal << "]: missing from " << fresh_path
                << "\n";
      ++failures;
      continue;
    }
    const Json& f = *it->second;
    for (const auto& [key, bval] : b.fields->fields()) {
      if (!bval.is_number()) continue;  // name/shape strings are match keys
      if (!include_wall && (key == "gflops" || key == "wall_ms")) continue;
      if (!f.has(key) || !f.get(key).is_number()) {
        std::cerr << "FAIL " << b.name << "[" << b.ordinal << "]." << key
                  << ": missing from fresh record\n";
        ++failures;
        continue;
      }
      const double bv = bval.as_number();
      const double fv = f.get(key).as_number();
      ++compared;
      if (!within_tol(bv, fv, tol)) {
        std::cerr << "FAIL " << b.name << "[" << b.ordinal << "]." << key << ": baseline "
                  << bv << ", fresh " << fv << " (rel "
                  << std::abs(bv - fv) / std::max(std::abs(bv), std::abs(fv)) << " > tol "
                  << tol << ")\n";
        ++failures;
      }
    }
  }
  if (failures > 0) {
    std::cerr << failures << " regression(s) across " << base.size() << " baseline records\n";
    return 1;
  }
  std::cout << fresh_path << ": ok, " << compared << " fields within " << tol
            << " of baseline (" << base.size() << " records)\n";
  return 0;
}

int main(int argc, char** argv) {
  return optimus::util::guarded_main([&] { return run_main(argc, argv); });
}
