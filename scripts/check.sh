#!/usr/bin/env bash
# Tier-1 verification, the differential fuzz smoke, and sanitizer passes.
#
#   1. Configure + build the default preset and run the full ctest suite
#      (the ROADMAP tier-1 gate).
#   2. Observability smoke: run the quickstart twice (traced and untraced),
#      require byte-identical stdout, and validate the emitted Chrome trace
#      (well-formed JSON, monotone per-track timestamps, proper span nesting)
#      and metrics JSON (tools/trace_validate, both modes). Then a traced +
#      metered serving run: request-lane nesting validated, metrics JSON
#      schema-checked and byte-diffed across two runs.
#   3. Differential fuzz smoke: tools/fuzz_equivalence --configs 25 --seed 7,
#      run twice — both runs must pass AND produce byte-identical reports
#      (the harness promises determinism; a diff here means nondeterminism
#      leaked into the engines or the report).
#   4. Bitwise gate: tools/fuzz_equivalence --configs 300 --seed 3 --no-shrink
#      must report 0 failures, and every dtype=f64 config must read 0 ULPs in
#      every category of both engines and the serial decode (the contract
#      every ROADMAP item keeps: serial ≡ 2D ≡ 1D bit for bit in f64).
#   4b. tanh accuracy: tools/tanh_ulp_sweep over all 2³² f32 inputs and 10⁸
#      sampled f64 inputs; every GELU runs this tanh, and each result must be
#      within 2 ULP of the correctly rounded one (~25 s on 4 threads).
#   5. Serving smoke: bench_serving (fixed seeds, simulated clock) run twice
#      with byte-diffed stdout + BENCH_serving.json, then gated against the
#      checked-in baseline with tools/bench_gate.
#   6. Fabric and kernel smokes: bench_fabric (host cost per collective)
#      and bench_kernels (GEMM GFLOP/s, including the per-rank shapes the
#      hostbench workloads call) run end to end; their wall rows are
#      informational, not gated.
#   7. Host-cost benchmark: hostbench/ is its own CMake project over src/,
#      so step 1 never compiles it. Build it standalone into build-hostbench/
#      and run host_bench_selftest.
#   8. Fast-label test suite under ASan+UBSan (`asan` preset) and TSan
#      (`tsan` preset). The comm layer runs every simulated device as a fiber
#      on one runner thread; both sanitizers follow its annotated stack
#      switches, and TSan checks the runner against the kernel pool's worker
#      threads and the tests' watchdog threads. The serving-label suite also
#      runs under TSan (scheduler + decode collectives interleave across
#      ranks).
#
# Usage: scripts/check.sh [--skip-sanitizers|--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SAN=0
[[ "${1:-}" == "--skip-asan" || "${1:-}" == "--skip-sanitizers" ]] && SKIP_SAN=1

echo "==> tier-1: configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j"$(nproc)"

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "==> observability: traced vs untraced quickstart must match byte-for-byte"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
./build/examples/quickstart > "$OBS_TMP/plain.out"
./build/examples/quickstart --trace-out "$OBS_TMP/trace.json" \
    --metrics-out "$OBS_TMP/metrics.json" > "$OBS_TMP/traced.out"
diff "$OBS_TMP/plain.out" "$OBS_TMP/traced.out"
echo "    stdout identical"

echo "==> observability: validate Chrome trace + metrics JSON"
./build/tools/trace_validate "$OBS_TMP/trace.json"
./build/tools/trace_validate --metrics "$OBS_TMP/metrics.json"

echo "==> telemetry smoke: traced+metered serving run, validated + byte-diffed"
# One Optimus load point with request-lane tracing and the metrics registry
# armed. The trace must validate (lifecycle/decode-step lane nesting, no
# orphan spans); the metrics JSON (pool/span sections excluded — those carry
# wall-clock numbers) must validate against the schema and reproduce
# byte-for-byte across two runs.
./build/bench/bench_serving --smoke --trace-out "$OBS_TMP/serving_trace.json" \
    --metrics-out "$OBS_TMP/serving_metrics_a.json" > /dev/null
./build/bench/bench_serving --smoke \
    --metrics-out "$OBS_TMP/serving_metrics_b.json" > /dev/null
./build/tools/trace_validate "$OBS_TMP/serving_trace.json"
./build/tools/trace_validate --metrics "$OBS_TMP/serving_metrics_a.json"
diff "$OBS_TMP/serving_metrics_a.json" "$OBS_TMP/serving_metrics_b.json"
echo "    serving trace valid, metrics schema-clean and byte-identical"

echo "==> differential fuzz smoke: 25 configs, twice, byte-identical reports"
# The sampler derives Tesseract depth d=2 from the seed mix where the shape
# allows, so this sweep exercises 2.5D engines alongside the 2D corpus.
./build/tools/fuzz_equivalence --configs 25 --seed 7 --report "$OBS_TMP/fuzz_a.txt" > /dev/null
./build/tools/fuzz_equivalence --configs 25 --seed 7 --report "$OBS_TMP/fuzz_b.txt" > /dev/null
diff "$OBS_TMP/fuzz_a.txt" "$OBS_TMP/fuzz_b.txt"
echo "    25/25 configs pass (d-extended corpus), reports byte-identical"

echo "==> bitwise gate: 300-config sweep, 0 failures, every f64 config at 0 ULPs"
./build/tools/fuzz_equivalence --configs 300 --seed 3 --no-shrink \
    --report "$OBS_TMP/fuzz_gate.txt" > /dev/null
python3 - "$OBS_TMP/fuzz_gate.txt" <<'PY'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
summary = [l for l in lines if l.startswith("fuzz_equivalence:")]
assert summary and " 0 failures," in summary[-1], summary
f64 = [l for l in lines if "dtype=f64" in l]
assert f64, "no f64 configs in the sweep"
for line in f64:
    # Categories follow the config string: "2d ulps: ...", "1d ulps: ...",
    # "serial decode=N".
    parts = [p for p in line.split(" | ")[1:] if "ulps:" in p or p.startswith("serial decode=")]
    ulps = re.findall(r"(\w+)=(\d+)", " ".join(parts))
    assert len(ulps) == 13, (len(ulps), line)
    bad = [k for k, v in ulps if v != "0"]
    assert not bad, (bad, line)
print(f"    {summary[-1]}; {len(f64)} f64 configs at 0 ULPs")
PY

echo "==> tanh accuracy: every f32 input and 10^8 f64 samples within 2 ULP"
./build/tools/tanh_ulp_sweep

echo "==> serving smoke: fixed-seed bench_serving, twice, byte-identical"
# The serving bench runs entirely on the simulated clock with seeded traffic,
# so stdout and BENCH_serving.json must reproduce byte-for-byte. It also
# asserts the >=3x cached-vs-recompute speedup and the decode-step closed
# form internally (OPT_CHECK aborts on violation).
ROOT="$(pwd)"
(cd "$OBS_TMP" && "$ROOT/build/bench/bench_serving" > serving_a.out && mv BENCH_serving.json serving_a.json)
(cd "$OBS_TMP" && "$ROOT/build/bench/bench_serving" > serving_b.out && mv BENCH_serving.json serving_b.json)
diff "$OBS_TMP/serving_a.out" "$OBS_TMP/serving_b.out"
diff "$OBS_TMP/serving_a.json" "$OBS_TMP/serving_b.json"
echo "    serving bench deterministic, speedup + cost-model asserts pass"

echo "==> bench gate: fresh BENCH_serving.json vs checked-in baseline"
# Everything compared derives from the simulated clock (gflops/wall_ms are
# skipped by default), so drift beyond the tolerance is a real regression —
# or an intentional change that should update the baseline file.
./build/tools/bench_gate BENCH_serving.json "$OBS_TMP/serving_a.json"

echo "==> bench gate: fresh BENCH_summa.json vs checked-in baseline"
# Covers the 2D rows plus the 2.5D crossover rows (summa25_ab_*) and the
# Cannon baseline; all gated fields are simulated-clock numbers. The
# --benchmark_filter skips the google-benchmark section — only the manual
# JSON sweep runs.
(cd "$OBS_TMP" && "$ROOT/build/bench/bench_summa" --benchmark_filter='^$' > /dev/null 2>&1)
./build/tools/bench_gate BENCH_summa.json "$OBS_TMP/BENCH_summa.json"

echo "==> fabric smoke: bench_fabric runs and writes one row per (op, p, payload)"
# Wall microseconds per collective depend on the host, so BENCH_fabric.json
# is informational and not gated: this only checks that the bench runs end
# to end and emits its 15 well-formed records.
./build/bench/bench_fabric --ops 50 --repeats 1 --out "$OBS_TMP/fabric.json" > /dev/null
python3 -c 'import json, sys; rows = json.load(open(sys.argv[1])); assert len(rows) == 15, len(rows)' \
    "$OBS_TMP/fabric.json"

echo "==> kernel smoke: bench_kernels runs and writes the per-rank shape rows"
# GFLOP/s depend on the host, so BENCH_kernels.json is informational and not
# gated: this checks that the whole sweep (~40 s) runs end to end and that
# each per-rank shape the hostbench workloads call has one well-formed
# threads1 f32 row in its transpose form (nn: A·B, nt: A·Bᵀ): the SUMMA
# k-steps of train_2d and decode, decode attention's per-head Q·Kᵀ (nt) and
# P·V (nn), and same-shape nn baselines for the nt rows.
(cd "$OBS_TMP" && "$ROOT/build/bench/bench_kernels" > /dev/null)
python3 - "$OBS_TMP/BENCH_kernels.json" <<'PY'
import json, math, sys
rows = json.load(open(sys.argv[1]))
required = [("nn", s) for s in ("128x128x128", "128x512x128", "4x64x64", "4x192x64",
                                "4x256x64", "4x64x256", "1x64x16", "1x16x64", "64x64x16")]
required += [("nt", s) for s in ("4x64x64", "4x128x64", "1x64x16", "64x64x16")]
for form, shape in required:
    name = "gemm_threads1_" + form + "_f32"
    hits = [r for r in rows if r["name"] == name and r["shape"] == shape]
    assert len(hits) == 1, (name, shape, len(hits))
    for key in ("gflops", "wall_ms"):
        value = hits[0][key]
        assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0, (shape, key, value)
PY

echo "==> hostbench: standalone build + host_bench_selftest"
# run.py builds the same project into .bench_build/; a separate tree here
# keeps this check independent of any benchmark run in progress.
cmake -S hostbench -B build-hostbench -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-hostbench -j"$(nproc)" --target host_bench host_bench_selftest
./build-hostbench/host_bench_selftest

echo "==> thread-scaling smoke: 1024^3 f32 GEMM, 1 vs 4 threads"
# Fails if threading makes the kernel slower (core-count-aware bound; see
# tools/thread_scaling_smoke.cpp). Guards the shared-pack schedule against
# reintroducing the per-worker re-packing regression.
./build/tools/thread_scaling_smoke

if [[ "$SKIP_SAN" == "1" ]]; then
  echo "==> sanitizer passes skipped"
  exit 0
fi

echo "==> sanitizer pass: asan preset (fast-label suite)"
cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ctest --test-dir build-asan -L fast --output-on-failure -j"$(nproc)"

echo "==> sanitizer pass: tsan preset (fast-label suite, both SUMMA schedules)"
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
# The pipelined schedule changes where ranks switch (async collectives issued
# ahead of the GEMMs they overlap), so TSan runs the suite under both modes.
# The fast label includes the q×q×d (depth 2/3) mesh, SUMMA and fault tests,
# so the 2.5D depth fold runs under both sanitizers as well.
OPTIMUS_SUMMA_PIPELINE=0 ctest --test-dir build-tsan -L fast --output-on-failure -j"$(nproc)"
OPTIMUS_SUMMA_PIPELINE=1 ctest --test-dir build-tsan -L fast --output-on-failure -j"$(nproc)"
# Force a 4-thread kernel budget so the cooperative GEMM's barrier and
# claim-counter paths actually run multi-threaded under TSan (the default
# budget on a small CI host may be 1, which would never exercise them).
OPTIMUS_KERNEL_THREADS=4 ctest --test-dir build-tsan -L fast --output-on-failure -j"$(nproc)"
# The serving label drives the continuous-batching scheduler and KV-cached
# decode through multi-rank clusters — admission/eviction interleaves with
# collective traffic, exactly where a scheduler data race would hide.
ctest --test-dir build-tsan -L serving --output-on-failure -j"$(nproc)"

echo "==> all checks passed"
