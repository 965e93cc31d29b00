#pragma once

// Differential equivalence runner: serial oracle vs Optimus 2D vs Megatron 1D.
//
// For one FuzzConfig this runs the same LM training step — forward, loss,
// backward, one SGD step — through all three engines and compares, with
// ULP-aware tolerances (ulp.hpp):
//
//   * the final hidden states (per-device block / replica),
//   * the scalar LM loss on every rank,
//   * the input gradient and every structurally-exposed parameter gradient
//     (weight blocks, hosted bias/layernorm slices, embedding shards),
//   * the post-step parameters of the same tensors,
//   * a KV-cached incremental decode replay of the whole token batch, per
//     engine: within the ULP budget of the serial prefill hidden state, and
//     bitwise equal to the engine's own prefill rows (every GEMM folds each
//     element in k-order whatever its m, so decode's m = b rows must
//     reproduce prefill's m = b·s rows).
//
// It also round-trips every engine's parameters through checkpoint_io
// (save → load → bitwise-equal) and, when requested, replays the Optimus run
// under a seeded interleaving (a fault plan whose seed shuffles the order in
// which ranks run) and requires bitwise-identical results — the fabric's
// delivery semantics, not the schedule, must determine the math.
//
// The documented tolerance budgets live in equivalence.cpp (tolerance_for)
// and DESIGN.md §Testing; the fuzzer reports observed worst-case ULPs so the
// budgets stay honest.

#include <string>
#include <vector>

#include "testing/fuzz_config.hpp"
#include "testing/ulp.hpp"

namespace optimus::testing {

struct EngineDeviation {
  Deviation hidden, loss, input_grad, grad, param, decode;
};

struct EquivalenceOptions {
  bool run_megatron = true;
  bool fault_replay = false;   // re-run Optimus under a seeded interleaving
  int gradcheck_coords = 0;    // finite-difference coords (f64 configs only)
  int max_recorded_failures = 8;
};

struct EquivalenceResult {
  FuzzConfig config;
  EngineDeviation optimus;   // vs serial
  EngineDeviation megatron;  // vs serial
  Deviation serial_decode;   // KV-cached decode replay vs the oracle's prefill
  bool ckpt_roundtrip_ok = true;
  bool fault_replay_ok = true;
  bool fault_replay_ran = false;
  double gradcheck_max_rel = 0;
  int gradcheck_coords = 0;
  std::vector<std::string> failures;  // empty == pass

  bool pass() const { return failures.empty(); }
};

/// Documented ULP budgets for a config (grown with depth: see DESIGN.md).
Tolerance tolerance_for(const FuzzConfig& fc);

/// Runs the full differential comparison for one config. Leaves the global
/// kernel thread budget as it found it.
EquivalenceResult run_equivalence(const FuzzConfig& fc, const EquivalenceOptions& opts = {});

/// One-line deterministic summary (no timing, no pointers) — the fuzzer's
/// report currency; byte-identical for identical seeds.
std::string summarize(const EquivalenceResult& res);

}  // namespace optimus::testing
